//! # specrepair-traditional
//!
//! From-scratch reproductions of the four traditional Alloy repair tools
//! compared in the study:
//!
//! | Tool | Strategy | Oracle |
//! |------|----------|--------|
//! | [`ARepair`] | greedy, test-driven mutation search | AUnit tests only (overfits) |
//! | [`Icebar`]  | counterexample-driven iterative test strengthening around the ARepair core | tests + property oracle |
//! | [`BeAFix`]  | bounded-exhaustive mutation search with pruning | property oracle |
//! | [`Atr`]     | fault localization + repair templates, pruned by counterexample/instance evidence | property oracle |
//!
//! All four implement [`specrepair_core::RepairTechnique`] and validate
//! candidates against the *specification's own* commands — never against
//! the ground truth, which only the metrics layer sees. The study and
//! `specrepaird` construct them with their default configurations in one
//! place, `specrepair_study::runner::run_cell`.
//!
//! # Example
//!
//! ```
//! use specrepair_core::{RepairContext, RepairBudget, RepairTechnique};
//! use specrepair_traditional::Atr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = RepairContext::from_source(
//!     "sig N {} fact Dead { no N } pred p { some N } run p for 3 expect 1",
//!     RepairBudget::default(),
//! )?;
//! let outcome = Atr::default().repair(&ctx);
//! assert!(outcome.success);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod arepair;
pub mod atr;
pub mod beafix;
pub mod icebar;
pub mod support;

pub use arepair::ARepair;
pub use atr::Atr;
pub use beafix::BeAFix;
pub use icebar::Icebar;

#[cfg(test)]
mod tests {
    use super::*;
    use specrepair_core::{RepairBudget, RepairContext, RepairTechnique};

    fn tools() -> [Box<dyn RepairTechnique>; 4] {
        [
            Box::new(ARepair::default()),
            Box::new(Icebar::default()),
            Box::new(BeAFix::default()),
            Box::new(Atr::default()),
        ]
    }

    #[test]
    fn suite_contains_the_four_tools() {
        let tools = tools();
        let names: Vec<&str> = tools.iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["ARepair", "ICEBAR", "BeAFix", "ATR"]);
    }

    #[test]
    fn every_tool_handles_a_trivial_fault() {
        let faulty = "sig N {} fact Dead { no N } pred p { some N } run p for 3 expect 1";
        let ctx = RepairContext::from_source(faulty, RepairBudget::default()).unwrap();
        for tool in tools() {
            let out = tool.repair(&ctx);
            assert_eq!(out.technique, tool.name());
            // The oracle-driven tools find this single-mutation fault;
            // ARepair may overfit to its pinned instances (by design) but
            // must still produce a candidate.
            if tool.name() == "ARepair" {
                assert!(out.candidate.is_some());
            } else {
                assert!(out.success, "{} failed the trivial fault", tool.name());
            }
        }
    }
}
