//! # specrepair-core
//!
//! The study framework at the heart of the reproduction:
//!
//! - [`technique`]: the [`RepairTechnique`] abstraction, contexts, budgets
//!   and outcomes shared by every tool;
//! - [`localization`]: counterexample-driven fault localization
//!   (relaxation + vocabulary overlap), feeding ATR and the hybrid
//!   pipelines;
//! - [`hybrid`]: the RQ3 compositions — [`hybrid::UnionHybrid`] (sequential
//!   fallback, whose per-spec repair set is the union of its constituents)
//!   and [`hybrid::LocalizeThenFix`] (traditional localization feeding an
//!   LLM-style fixer), the arms of the §VI ablation, plus the overlap
//!   statistics behind Table II;
//! - [`oracle`]: the repair-side face of the shared memoizing oracle
//!   service — [`OracleHandle`] (carried by every [`RepairContext`]) and
//!   [`OracleSession`] (central budget charging: one candidate validated =
//!   one budget unit);
//! - [`cancel`]: the cooperative [`CancelToken`] (deadline / explicit
//!   cancel) that lets long-running callers such as `specrepaird` abort a
//!   repair attempt mid-search with a partial outcome.
//!
//! This crate defines what a technique is; it builds none of the studied
//! ones. `specrepair_study::runner::run_cell` turns a technique id into a
//! running technique, for the study and for `specrepaird` alike.
//!
//! # Example
//!
//! ```
//! use specrepair_core::{RepairContext, RepairBudget, localization::localize};
//! use mualloy_syntax::parse_spec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let faulty = parse_spec(
//!     "sig N {} fact Bad { no N } pred p { some N } run p for 3 expect 1",
//! )?;
//! let ranking = localize(&faulty);
//! assert!(!ranking.ranked.is_empty()); // `no N` is found suspicious
//! let _ctx = RepairContext::new(faulty, RepairBudget::default());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cancel;
pub mod hybrid;
pub mod localization;
pub mod logio;
pub mod oracle;
pub mod technique;

pub use cancel::CancelToken;
pub use hybrid::{overlap_stats, HintedRepair, LocalizeThenFix, OverlapStats, UnionHybrid};
pub use localization::{
    first_hit_rank, localize, localize_with, sites_for_spans, Localization, SuspiciousSite,
};
pub use logio::{read_lines, LineLog, LoadedLines};
pub use mualloy_analyzer::VerdictStore;
pub use oracle::{DedupStats, OracleHandle, OracleSession};
pub use technique::{
    oracle_accepts, preserves_oracle_surface, repair_is_valid, OutcomeReason, RepairBudget,
    RepairContext, RepairOutcome, RepairTechnique,
};
