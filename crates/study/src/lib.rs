//! # specrepair-study
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation from the reproduced pipeline:
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`table1`] | Table I — REP per technique × domain |
//! | [`fig2`]   | Figure 2 — mean TM/SM per technique |
//! | [`fig3`]   | Figure 3 — Pearson correlation heatmap |
//! | [`table2`] | Table II + Figure 4 — hybrid overlaps / Venn regions |
//! | [`ablation`] | §VI — localization-guided hybrid ablation |
//!
//! The [`runner`] evaluates all twelve techniques over the generated
//! corpora once; every artifact derives from that single result set. Its
//! [`runner::run_cell`] is the technique dispatch the `specrepaird` daemon
//! calls too. The `study` binary drives it from the command line:
//!
//! ```text
//! study all --scale 0.125 --seed 42 --out results/
//! ```
//!
//! # Example
//!
//! ```
//! use specrepair_study::{StudyConfig, runner::run_full_study, table1};
//!
//! let config = StudyConfig { scale: 0.003, seed: 1, ..StudyConfig::default() };
//! let (_problems, results) = run_full_study(&config);
//! let table = table1::build(&results);
//! assert_eq!(table.techniques.len(), 12);
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod config;
pub mod fig2;
pub mod fig3;
pub mod journal;
pub mod portfolio;
pub mod runner;
pub mod table1;
pub mod table2;

pub use config::{RosterId, StudyConfig, TechniqueId};
pub use journal::{JournalContents, JournalHeader, StudyJournal};
pub use portfolio::{run_portfolio_study, PortfolioStudy};
pub use runner::{
    run_full_study, run_study, run_study_cached, run_study_journaled, RunStats, SpecRecord,
    StudyResults,
};
