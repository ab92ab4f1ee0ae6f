//! ICEBAR: iterative counterexample-based refinement around an ARepair core.
//!
//! Faithful to Gutiérrez Brida et al. (ASE'22): starting from a property
//! oracle (the specification's commands with `expect` annotations), run the
//! test-driven repair core; when the produced candidate passes its tests but
//! still violates the property oracle, extract fresh counterexamples from
//! the candidate, strengthen the test suite with them, and iterate.

use std::collections::HashSet;

use specrepair_core::{OutcomeReason, RepairContext, RepairOutcome, RepairTechnique};

use crate::arepair::greedy_test_repair;
use crate::support::{counterexample_tests, derive_tests};

/// The ICEBAR technique.
#[derive(Debug, Clone)]
pub struct Icebar {
    /// Tests derived per failing command in the initial suite.
    pub tests_per_command: usize,
    /// Counterexamples harvested per refinement round.
    pub cexs_per_round: usize,
}

impl Default for Icebar {
    fn default() -> Self {
        Icebar {
            tests_per_command: 3,
            cexs_per_round: 4,
        }
    }
}

impl RepairTechnique for Icebar {
    fn name(&self) -> &str {
        "ICEBAR"
    }

    fn repair(&self, ctx: &RepairContext) -> RepairOutcome {
        let oracle = ctx.oracle.service();
        let mut suite = derive_tests(oracle, &ctx.faulty, self.tests_per_command, false);
        if suite.is_empty() {
            return RepairOutcome::failure(self.name(), 0, 0);
        }
        let mut seen = HashSet::new();
        // Oracle validations are bounded by the round loop (one per round),
        // far below the candidate budget; the session still charges each.
        let mut session = ctx.validation_session();
        let mut explored_total = 0usize;
        let mut last_candidate = ctx.faulty.clone();
        // Greedy search runs on cheap ground evaluations; see ARepair for
        // the budget-currency rationale.
        let per_round_budget =
            (ctx.budget.max_candidates.saturating_mul(8) / ctx.budget.max_rounds.max(1)).max(1);

        for round in 1..=ctx.budget.max_rounds {
            if ctx.cancelled() {
                break;
            }
            let (candidate, tests_pass, explored) = greedy_test_repair(
                &ctx.faulty,
                &suite,
                per_round_budget,
                true,
                &mut seen,
                &ctx.cancel,
            );
            explored_total += explored;
            last_candidate = candidate.clone();
            if !tests_pass {
                // The core could not even satisfy the tests: adding more
                // tests cannot help.
                break;
            }
            // Overfitting check against the property oracle.
            if session.validate(&candidate) == Some(true) {
                let source = mualloy_syntax::print_spec(&candidate);
                return RepairOutcome {
                    technique: self.name().to_string(),
                    success: true,
                    reason: OutcomeReason::Repaired,
                    candidate: Some(candidate),
                    candidate_source: Some(source),
                    candidates_explored: explored_total,
                    rounds: round,
                };
            }
            // Strengthen with counterexamples from the overfitted candidate.
            let new_tests = counterexample_tests(oracle, &candidate, self.cexs_per_round, round);
            if new_tests.is_empty() {
                break; // no reliable counterexamples to refine with
            }
            suite.extend(new_tests);
        }
        let source = mualloy_syntax::print_spec(&last_candidate);
        RepairOutcome {
            technique: self.name().to_string(),
            success: false,
            reason: RepairOutcome::failure_reason_for(ctx, OutcomeReason::BudgetExhausted),
            candidate: Some(last_candidate),
            candidate_source: Some(source),
            candidates_explored: explored_total,
            rounds: ctx.budget.max_rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_analyzer::Analyzer;
    use specrepair_core::RepairBudget;

    fn ctx(src: &str) -> RepairContext {
        RepairContext::from_source(src, RepairBudget::default()).unwrap()
    }

    #[test]
    fn repairs_tautological_fact() {
        let faulty = "sig N { next: lone N } \
            fact Broken { all n: N | n in n.next || n not in n.next } \
            assert NoSelf { all n: N | n not in n.next } \
            check NoSelf for 3 expect 0";
        let out = Icebar::default().repair(&ctx(faulty));
        assert!(
            out.success,
            "ICEBAR should iterate to an oracle-passing fix"
        );
        let c = out.candidate.unwrap();
        assert!(Analyzer::new(c).satisfies_oracle().unwrap());
    }

    #[test]
    fn success_implies_oracle_not_just_tests() {
        let faulty = "sig N { next: lone N, back: lone N } \
            fact Broken { some N || no N } \
            assert NoSelf { all n: N | n not in n.next } \
            assert NoBackSelf { all n: N | n not in n.back } \
            check NoSelf for 3 expect 0 \
            check NoBackSelf for 3 expect 0";
        let out = Icebar::default().repair(&ctx(faulty));
        if let Some(c) = &out.candidate {
            if out.success {
                assert!(Analyzer::new(c.clone()).satisfies_oracle().unwrap());
            }
        }
    }

    #[test]
    fn rounds_are_bounded() {
        let faulty = "sig N { next: lone N } \
            fact Broken { all n: N | n in n.next || n not in n.next } \
            assert NoSelf { all n: N | n not in n.next } \
            check NoSelf for 3 expect 0";
        let tight = RepairContext::from_source(
            faulty,
            RepairBudget {
                max_candidates: 30,
                max_rounds: 2,
            },
        )
        .unwrap();
        let out = Icebar::default().repair(&tight);
        assert!(out.rounds <= 2);
        assert!(out.candidates_explored <= 30 + 4 /* oracle validations */);
    }

    #[test]
    fn no_tests_means_failure() {
        let out = Icebar::default().repair(&ctx("sig A { f: set A }"));
        assert!(!out.success);
        assert_eq!(out.rounds, 0);
    }
}
