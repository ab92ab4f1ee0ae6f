//! # specrepair-metrics
//!
//! The study's three evaluation metrics (§III-D) plus the correlation and
//! overlap statistics behind Figures 3–4:
//!
//! - **REP** — [`rep`]: command-by-command equisatisfiability of a repair
//!   candidate against the ground truth, asked of the cell's oracle (its
//!   reference definition is [`mualloy_analyzer::equisat::compare`]);
//! - **TM** — [`bleu::sentence_bleu`]: whitespace-token sentence BLEU;
//! - **SM** — [`kernel::syntax_match`]: normalized subtree-kernel
//!   similarity of parse trees;
//! - [`stats::pearson`] and [`stats::correlation_matrix`] for Figure 3;
//! - [`treediff::tree_diff`]: the persistent-id tree diff — a minimal
//!   edit script (subtree inserts/deletes, local updates) quantifying how
//!   far a repair strayed from the faulty specification.
//!
//! # Example
//!
//! ```
//! use specrepair_metrics::{candidate_metrics, CandidateMetrics};
//! use mualloy_analyzer::Oracle;
//! use mualloy_syntax::parse_spec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let truth = "sig A {} pred p { some A } run p for 3 expect 1";
//! let candidate = "sig A {} pred p { some A } run p for 3 expect 1";
//! let m = candidate_metrics(&Oracle::new(), &parse_spec(truth)?, truth, Some(candidate));
//! assert_eq!(m.rep, 1);
//! assert_eq!(m.tm, Some(1.0));
//! assert_eq!(m.sm, Some(1.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bleu;
pub mod kernel;
pub mod stats;
pub mod treediff;

use mualloy_analyzer::Oracle;
use mualloy_syntax::ast::{Command, Spec};
use serde::{Deserialize, Serialize};

pub use bleu::sentence_bleu;
pub use kernel::{subtree_kernel, syntax_match, LabeledTree};
pub use stats::{correlation_matrix, mean, pearson, pearson_t_statistic};
pub use treediff::{tree_diff, tree_similarity, EditKind, TreeDiff, TreeDiffSummary, TreeEdit};

/// REP for a candidate source against the parsed ground truth: 1 when every
/// ground-truth command is equisatisfiable under the candidate, else 0.
/// Unparsable candidates (and absent ones) score 0, as does a ground truth
/// that has no commands or cannot execute them.
///
/// REP is asked of `oracle` as one verdict: the candidate, with its
/// commands replaced by the truth's and each `expect` set to the truth's
/// result, must satisfy its oracle. The truth's results are memoized by
/// `oracle`, and a candidate that keeps the benchmark's commands — whose
/// annotations are the truth's results — is its own probe, so a candidate
/// the oracle already accepted scores from the memo. Equal to
/// [`mualloy_analyzer::compare`]`(truth, candidate).rep()`, which stays the
/// reference definition.
pub fn rep(oracle: &Oracle, truth: &Spec, candidate_source: Option<&str>) -> u8 {
    let Some(candidate) = candidate_source.and_then(|src| mualloy_syntax::parse_spec(src).ok())
    else {
        return 0;
    };
    let Ok(outcomes) = oracle.execute_all(truth) else {
        return 0;
    };
    if outcomes.is_empty() {
        return 0;
    }
    let probe = Spec {
        commands: outcomes
            .into_iter()
            .map(|o| Command {
                expect: Some(o.sat),
                ..o.command
            })
            .collect(),
        ..candidate
    };
    u8::from(oracle.satisfies_oracle(&probe) == Ok(true))
}

/// The three per-candidate metrics of the study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateMetrics {
    /// REP: 1 = equisatisfiable with the ground truth on all its commands.
    pub rep: u8,
    /// Token Match (BLEU), `None` when no candidate text exists.
    pub tm: Option<f64>,
    /// Syntax Match (subtree kernel), `None` when no candidate text exists.
    pub sm: Option<f64>,
}

/// Computes REP/TM/SM for one candidate against the ground truth.
///
/// `truth_source` must be the text TM is measured against (the study uses
/// the benchmark's ground-truth file); REP is asked of `oracle` ([`rep`]).
pub fn candidate_metrics(
    oracle: &Oracle,
    truth: &Spec,
    truth_source: &str,
    candidate_source: Option<&str>,
) -> CandidateMetrics {
    CandidateMetrics {
        rep: rep(oracle, truth, candidate_source),
        tm: candidate_source.map(|c| sentence_bleu(truth_source, c)),
        sm: candidate_source.map(|c| syntax_match(truth_source, c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::parse_spec;
    use proptest::prelude::*;

    const TRUTH: &str = "sig N { next: lone N } \
        fact { no n: N | n in n.^next } \
        assert NoSelf { all n: N | n not in n.next } \
        check NoSelf for 3 expect 0";

    #[test]
    fn perfect_candidate_scores_perfectly() {
        let truth = parse_spec(TRUTH).unwrap();
        let m = candidate_metrics(&Oracle::new(), &truth, TRUTH, Some(TRUTH));
        assert_eq!(m.rep, 1);
        assert_eq!(m.tm, Some(1.0));
        assert_eq!(m.sm, Some(1.0));
    }

    #[test]
    fn missing_candidate_scores_zero_rep_and_no_similarity() {
        let truth = parse_spec(TRUTH).unwrap();
        let m = candidate_metrics(&Oracle::new(), &truth, TRUTH, None);
        assert_eq!(m.rep, 0);
        assert_eq!(m.tm, None);
        assert_eq!(m.sm, None);
    }

    #[test]
    fn semantically_equivalent_but_textually_different() {
        let truth = parse_spec(TRUTH).unwrap();
        let candidate = TRUTH.replace("no n: N | n in n.^next", "all n: N | n not in n.^next");
        let m = candidate_metrics(&Oracle::new(), &truth, TRUTH, Some(&candidate));
        assert_eq!(m.rep, 1, "equivalent rewriting is still a repair");
        assert!(m.tm.unwrap() < 1.0);
        assert!(m.sm.unwrap() < 1.0);
    }

    #[test]
    fn broken_candidate_scores_rep_zero_but_high_similarity() {
        let truth = parse_spec(TRUTH).unwrap();
        let candidate = TRUTH.replace("n in n.^next", "n not in n.^next");
        let m = candidate_metrics(&Oracle::new(), &truth, TRUTH, Some(&candidate));
        assert_eq!(m.rep, 0);
        assert!(m.tm.unwrap() > 0.7);
        assert!(m.sm.unwrap() > 0.7);
    }

    #[test]
    fn unparsable_candidate_scores_zero() {
        let truth = parse_spec(TRUTH).unwrap();
        let oracle = Oracle::new();
        assert_eq!(rep(&oracle, &truth, Some("sig {")), 0);
        assert_eq!(rep(&oracle, &truth, Some(TRUTH)), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// TM and SM are always within [0, 1] for arbitrary candidate text.
        #[test]
        fn similarity_bounds(noise in "[a-z{}() ]{0,60}") {
            let tm = sentence_bleu(TRUTH, &noise);
            prop_assert!((0.0..=1.0).contains(&tm));
            let sm = syntax_match(TRUTH, &noise);
            prop_assert!((0.0..=1.0).contains(&sm));
        }
    }
}
