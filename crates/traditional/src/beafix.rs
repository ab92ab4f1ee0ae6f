//! BeAFix: bounded-exhaustive mutation search with pruning.
//!
//! Faithful to Gutiérrez Brida et al. (ICSE'21): the tool systematically
//! explores the space of mutants up to a fixed edit depth, validating
//! candidates against the specification's property oracle (assertions and
//! `expect`-annotated commands, no tests needed). Pruning keeps the search
//! feasible: structural duplicates are skipped, ill-formed mutants are
//! discarded before any solving, and the depth-2 stage mutates only the
//! constraint sites the depth-1 stage touched (BeAFix's "suspicious
//! location" restriction).

use std::collections::HashSet;

use mualloy_syntax::ast::Spec;
use mualloy_syntax::{check_spec, Fingerprint, SpecHasher};
use specrepair_core::{
    localization::constraint_sites, OracleSession, OutcomeReason, RepairContext, RepairOutcome,
    RepairTechnique,
};
use specrepair_mutation::MutationEngine;

/// The BeAFix technique.
#[derive(Debug, Clone)]
pub struct BeAFix {
    /// Maximum stacked-edit depth (the original evaluates 1 and 2).
    pub max_depth: usize,
}

impl Default for BeAFix {
    fn default() -> Self {
        BeAFix { max_depth: 2 }
    }
}

impl BeAFix {
    fn try_candidate(
        &self,
        candidate: Spec,
        key: Fingerprint,
        seen: &mut HashSet<Fingerprint>,
        session: &mut OracleSession<'_>,
    ) -> Option<Result<Spec, Spec>> {
        if session.exhausted() {
            return None; // out of budget: abort search
        }
        if !seen.insert(key) || !check_spec(&candidate).is_empty() {
            return Some(Err(candidate)); // pruned without validation
        }
        match session.validate_keyed(&candidate, key) {
            Some(true) => Some(Ok(candidate)),
            _ => Some(Err(candidate)),
        }
    }
}

impl RepairTechnique for BeAFix {
    fn name(&self) -> &str {
        "BeAFix"
    }

    fn repair(&self, ctx: &RepairContext) -> RepairOutcome {
        let hasher = SpecHasher::new(&ctx.faulty);
        let mut seen = HashSet::new();
        let mut session = ctx.validation_session();

        // Depth 1: every single mutation, in deterministic order.
        let mutation_span = specrepair_trace::span(
            "technique.mutation_gen",
            specrepair_trace::Phase::Orchestration,
        );
        let engine = MutationEngine::new(&ctx.faulty);
        let mutations = engine.all_mutations();
        if mutation_span.is_active() {
            mutation_span.attr_u64("mutations", mutations.len() as u64);
            mutation_span.attr_u64("depth", 1);
        }
        drop(mutation_span);
        for m in &mutations {
            let Some(mutant) = engine.apply(m) else {
                continue;
            };
            // Depth-1 mutants are single-node rewrites of the faulty spec:
            // their fingerprint is an O(path) incremental rehash.
            let key = hasher.fingerprint_edit(&mutant, m.site, &m.repl);
            match self.try_candidate(mutant, key, &mut seen, &mut session) {
                Some(Ok(fixed)) => {
                    return RepairOutcome::success_with(self.name(), fixed, session.validated(), 1)
                }
                Some(Err(_)) => {}
                None => {
                    return RepairOutcome::failure(self.name(), session.validated(), 1).with_reason(
                        RepairOutcome::failure_reason_for(ctx, OutcomeReason::BudgetExhausted),
                    )
                }
            }
        }

        if self.max_depth >= 2 {
            // Depth 2, restricted to constraint sites (facts/preds bodies):
            // stack a second mutation on each depth-1 mutant.
            let suspicious: Vec<_> = constraint_sites(&ctx.faulty)
                .iter()
                .map(|s| s.span)
                .collect();
            for m1 in &mutations {
                // Restriction: the first edit must touch a constraint site.
                if !suspicious
                    .iter()
                    .any(|s| m1.span.start < s.end && s.start < m1.span.end)
                {
                    continue;
                }
                let Some(level1) = engine.apply(m1) else {
                    continue;
                };
                let mutation_span = specrepair_trace::span(
                    "technique.mutation_gen",
                    specrepair_trace::Phase::Orchestration,
                );
                let engine2 = MutationEngine::new(&level1);
                let level2_mutations = engine2.all_mutations();
                if mutation_span.is_active() {
                    mutation_span.attr_u64("mutations", level2_mutations.len() as u64);
                    mutation_span.attr_u64("depth", 2);
                }
                drop(mutation_span);
                // One memoized hasher per level-1 mutant amortizes over all
                // of its level-2 rewrites.
                let hasher2 = SpecHasher::new(&level1);
                for m2 in level2_mutations {
                    let Some(level2) = engine2.apply(&m2) else {
                        continue;
                    };
                    let key = hasher2.fingerprint_edit(&level2, m2.site, &m2.repl);
                    match self.try_candidate(level2, key, &mut seen, &mut session) {
                        Some(Ok(fixed)) => {
                            return RepairOutcome::success_with(
                                self.name(),
                                fixed,
                                session.validated(),
                                2,
                            )
                        }
                        Some(Err(_)) => {}
                        None => {
                            return RepairOutcome::failure(self.name(), session.validated(), 2)
                                .with_reason(RepairOutcome::failure_reason_for(
                                    ctx,
                                    OutcomeReason::BudgetExhausted,
                                ))
                        }
                    }
                }
            }
        }

        RepairOutcome::failure(self.name(), session.validated(), self.max_depth).with_reason(
            RepairOutcome::failure_reason_for(ctx, OutcomeReason::BudgetExhausted),
        )
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
    fn fixes_single_operator_bug() {
        // `some n` should be `no n` style bug: quantifier swapped.
        let faulty = "sig N { next: lone N } \
            fact Acyclic { some n: N | n in n.^next } \
            pred hasNode { some N } \
            assert NoSelf { all n: N | n not in n.next } \
            run hasNode for 3 expect 1 \
            check NoSelf for 3 expect 0";
        let out = BeAFix::default().repair(&ctx(faulty));
        assert!(
            out.success,
            "single quantifier swap is in the depth-1 space"
        );
        assert!(Analyzer::new(out.candidate.unwrap())
            .satisfies_oracle()
            .unwrap());
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn depth_two_fixes_stacked_bug() {
        // Two stacked edits: quantifier swapped AND comparison negated.
        let faulty = "sig N { next: lone N } \
            fact Acyclic { some n: N | n not in n.^next } \
            pred hasEdge { some next } \
            assert NoSelf { all n: N | n not in n.next } \
            run hasEdge for 3 expect 1 \
            check NoSelf for 3 expect 0";
        let out = BeAFix::default().repair(&ctx(faulty));
        // Fixable at depth ≤ 2 (possibly depth 1 via a different edit).
        assert!(out.success);
        assert!(Analyzer::new(out.candidate.unwrap())
            .satisfies_oracle()
            .unwrap());
    }

    #[test]
    fn budget_exhaustion_fails_gracefully() {
        let faulty = "sig N { next: lone N } \
            fact Acyclic { some n: N | n in n.^next } \
            assert NoSelf { all n: N | n not in n.next } \
            check NoSelf for 3 expect 0";
        let tight = RepairContext::from_source(
            faulty,
            RepairBudget {
                max_candidates: 2,
                max_rounds: 1,
            },
        )
        .unwrap();
        let out = BeAFix::default().repair(&tight);
        assert!(out.candidates_explored <= 2);
    }

    #[test]
    fn already_correct_spec_found_immediately() {
        // A "faulty" spec that actually satisfies its oracle: BeAFix's
        // depth-1 scan will hit an oracle-passing mutant quickly (possibly
        // the equivalent of the original).
        let fine = "sig N { next: lone N } \
            fact { no n: N | n in n.^next } \
            assert NoSelf { all n: N | n not in n.next } \
            check NoSelf for 3 expect 0";
        let out = BeAFix::default().repair(&ctx(fine));
        assert!(out.success);
    }

    #[test]
    fn unfixable_within_budget_returns_failure_without_candidate() {
        // A `check … expect 1` on a tautology can never be satisfied:
        // assertion bodies are outside the mutation space.
        let faulty = "sig A {} fact F { no A } \
            assert Tautology { no none } \
            check Tautology for 2 expect 1";
        let out = BeAFix::default().repair(&ctx(faulty));
        assert!(!out.success);
        assert!(out.candidate.is_none());
    }
}
