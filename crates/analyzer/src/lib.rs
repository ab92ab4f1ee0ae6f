//! # mualloy-analyzer
//!
//! The μAlloy analyzer — the native stand-in for Alloy Analyzer 4.2 that the
//! study's entire repair pipeline runs against:
//!
//! - [`Analyzer`]: bounded execution of `run`/`check` commands, instance and
//!   counterexample enumeration, property-oracle evaluation;
//! - [`Oracle`]: the shared memoizing oracle service — every repair
//!   technique routes its validations through it so each (specification,
//!   query) pair is solved at most once per process;
//! - [`incremental`]: persistent solve-under-assumptions sessions that
//!   check candidate verdicts against one shared solver, retaining learnt
//!   clauses across the whole repair search;
//! - [`aunit`]: AUnit-style concrete-valuation tests (consumed by ARepair
//!   and generated by ICEBAR);
//! - [`equisat`]: the command-by-command equisatisfiability comparison
//!   that defines the REP metric;
//! - [`report`]: structured analyzer reports used as Multi-Round LLM
//!   feedback.
//!
//! # Example
//!
//! ```
//! use mualloy_analyzer::Analyzer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let analyzer = Analyzer::from_source(
//!     "sig Room { keys: set Key } sig Key {} \
//!      fact Disjoint { all k: Key | lone keys.k } \
//!      assert KeyOwner { all k: Key | lone keys.k } \
//!      check KeyOwner for 3 expect 0",
//! )?;
//! assert!(analyzer.satisfies_oracle()?);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analyzer;
pub mod aunit;
pub mod equisat;
pub mod error;
pub mod incremental;
pub mod oracle;
pub mod persist;
pub mod report;

pub use analyzer::{Analyzer, CommandOutcome};
pub use aunit::{AUnitTest, TestSuite};
pub use equisat::{compare, CommandComparison, EquisatReport};
pub use error::AnalyzerError;
pub use incremental::{IncrementalEngine, IncrementalStats};
pub use oracle::{DedupStats, Oracle, OracleCacheStats};
pub use persist::VerdictStore;
pub use report::{AnalyzerReport, CommandReport, CommandStatus};
