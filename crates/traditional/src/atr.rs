//! ATR: template-based repair driven by counterexample/instance analysis.
//!
//! Faithful to Zheng et al. (ISSTA'22): ATR (a) localizes suspicious
//! constraints by analyzing the differences between counterexamples and
//! satisfying instances, (b) instantiates repair candidates from predefined
//! templates over the specification's vocabulary, and (c) prunes the
//! candidate space cheaply by requiring every candidate to reject the cached
//! counterexamples and keep admitting the cached satisfying instances before
//! any full validation is spent on it.

use std::collections::HashSet;

use mualloy_analyzer::Oracle;
use mualloy_relational::{assert_body, elaborate_facts, pred_as_existential, Evaluator, Instance};
use mualloy_syntax::ast::*;
use mualloy_syntax::walk::{node_at, replace_node, NodeRepl, NodeSite};
use mualloy_syntax::Fingerprint;
use specrepair_core::{
    localization::{constraint_sites, localize_with},
    OutcomeReason, RepairContext, RepairOutcome, RepairTechnique,
};
use specrepair_mutation::{MutationEngine, Vocabulary};

/// The ATR technique.
#[derive(Debug, Clone)]
pub struct Atr {
    /// How many top-ranked suspicious sites to attempt.
    pub top_sites: usize,
    /// Counterexamples/instances cached for pruning.
    pub cache_per_command: usize,
    /// Cap on synthesized template instantiations per site.
    pub max_templates_per_site: usize,
}

impl Default for Atr {
    fn default() -> Self {
        Atr {
            top_sites: 6,
            cache_per_command: 3,
            max_templates_per_site: 160,
        }
    }
}

/// Cached evidence used for candidate screening.
struct Evidence {
    /// Counterexamples that must be *rejected* by a repaired spec, paired
    /// with the name of the violated assertion.
    rejected: Vec<(String, Instance)>,
    /// Witnesses that must remain admitted, paired with the predicate name.
    admitted: Vec<(String, Instance)>,
}

fn gather_evidence(oracle: &Oracle, spec: &Spec, per_command: usize) -> Evidence {
    let mut rejected = Vec::new();
    let mut admitted = Vec::new();
    if let Ok(outcomes) = oracle.execute_all(spec) {
        for out in outcomes {
            match &out.command.kind {
                CommandKind::Check(name) if out.sat && !out.matches_expectation() => {
                    if let Ok(cexs) =
                        oracle.counterexamples(spec, name, out.command.scope, per_command)
                    {
                        rejected.extend(cexs.into_iter().map(|c| (name.clone(), c)));
                    }
                }
                CommandKind::Run(name) if out.sat && out.matches_expectation() => {
                    if let Some(inst) = out.instance {
                        admitted.push((name.clone(), inst));
                    }
                }
                _ => {}
            }
        }
    }
    Evidence { rejected, admitted }
}

/// Screening verdict: how a candidate fares against the cached evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Screen {
    /// Rejects every counterexample and keeps every witness.
    Strong,
    /// Rejects every counterexample but loses a witness. Witnesses were
    /// produced under the *faulty* spec, so losing one is only a soft
    /// signal — such candidates are validated after the strong ones.
    Weak,
    /// Still admits a counterexample: discarded without validation.
    Fail,
}

/// Cheap screen judged by ground evaluation (no solving). The candidate's
/// facts are elaborated once for all the evidence.
fn screen(candidate: &Spec, evidence: &Evidence) -> Screen {
    let facts = elaborate_facts(candidate).ok();
    if !rejects_counterexamples(candidate, facts.as_deref(), evidence) {
        return Screen::Fail;
    }
    if keeps_witnesses(candidate, facts.as_deref(), evidence) {
        Screen::Strong
    } else {
        Screen::Weak
    }
}

/// Whether the elaborated facts hold on the instance; facts that failed to
/// elaborate (`None`) hold on none.
fn facts_hold_on(facts: Option<&[Formula]>, ev: &Evaluator) -> bool {
    facts.is_some_and(|fs| fs.iter().all(|f| ev.formula(f).unwrap_or(false)))
}

fn rejects_counterexamples(
    candidate: &Spec,
    facts: Option<&[Formula]>,
    evidence: &Evidence,
) -> bool {
    for (assert_name, cex) in &evidence.rejected {
        // Rejection: NOT (facts && !assert) on the counterexample.
        let Ok(body) = assert_body(candidate, assert_name) else {
            return false;
        };
        let ev = Evaluator::new(cex);
        let facts_hold = facts_hold_on(facts, &ev);
        let assert_holds = ev.formula(&body).unwrap_or(false);
        if facts_hold && !assert_holds {
            return false; // the counterexample would still be admitted
        }
    }
    true
}

fn keeps_witnesses(candidate: &Spec, facts: Option<&[Formula]>, evidence: &Evidence) -> bool {
    for (pred_name, inst) in &evidence.admitted {
        let Ok(formula) = pred_as_existential(candidate, pred_name) else {
            return false;
        };
        let ev = Evaluator::new(inst);
        if !(facts_hold_on(facts, &ev) && ev.formula(&formula).unwrap_or(false)) {
            return false; // a known-good witness was lost
        }
    }
    true
}

// ATR's predefined repair templates live in
// [`specrepair_mutation::synthesis`], shared with the synthetic LLM (which
// models the same synthesis capability); see that module for the grammar.
use specrepair_mutation::synthesis::{synthesis_mutations, template_formulas};

impl RepairTechnique for Atr {
    fn name(&self) -> &str {
        "ATR"
    }

    fn repair(&self, ctx: &RepairContext) -> RepairOutcome {
        let oracle = ctx.oracle.service();
        let mut seen = HashSet::new();
        let mut session = ctx.validation_session();
        let evidence = gather_evidence(oracle, &ctx.faulty, self.cache_per_command);
        let vocab = Vocabulary::of(&ctx.faulty);

        // Ranked suspicious sites; fall back to all constraint sites.
        let loc = localize_with(oracle, &ctx.faulty);
        let all_sites = constraint_sites(&ctx.faulty);
        let ranked_ids = loc.top_sites(self.top_sites);
        let sites: Vec<&NodeSite> = if ranked_ids.is_empty() {
            all_sites.iter().take(self.top_sites).collect()
        } else {
            ranked_ids
                .iter()
                .filter_map(|id| all_sites.iter().find(|s| s.id == *id))
                .collect()
        };

        let mutation_span = specrepair_trace::span(
            "technique.mutation_gen",
            specrepair_trace::Phase::Orchestration,
        );
        let engine = MutationEngine::new(&ctx.faulty);
        let mutations = engine.all_mutations();
        drop(mutation_span);
        for site in sites {
            // (a) mutation-level candidates at the site and its subtree.
            // Each candidate is a single-node rewrite of the faulty spec, so
            // it carries its incrementally-rehashed canonical fingerprint.
            let mut candidates: Vec<(Spec, Fingerprint)> = Vec::new();
            for m in &mutations {
                // Only mutations within the suspicious site's span.
                if m.span.start >= site.span.start
                    && m.span.end <= site.span.end.max(site.span.start + 1)
                {
                    if let Some(mutant) = engine.apply(m) {
                        let key = ctx.fingerprint_edit(&mutant, m.site, &m.repl);
                        candidates.push((mutant, key));
                    }
                }
            }
            // (b) whole-constraint template replacements and template
            // strengthenings (conjunct additions) at the site.
            if let Some(NodeRepl::Formula(_)) = node_at(&ctx.faulty, site.id) {
                for tf in template_formulas(&vocab, site, self.max_templates_per_site / 2) {
                    let payload = NodeRepl::Formula(tf);
                    if let Some(cand) = replace_node(&ctx.faulty, site.id, payload.clone()) {
                        let key = ctx.fingerprint_edit(&cand, site.id, &payload);
                        candidates.push((cand, key));
                    }
                }
                for m in synthesis_mutations(
                    &ctx.faulty,
                    &vocab,
                    std::slice::from_ref(site),
                    self.max_templates_per_site / 2,
                ) {
                    if let Some(cand) = replace_node(&ctx.faulty, m.site, m.repl.clone()) {
                        let key = ctx.fingerprint_edit(&cand, m.site, &m.repl);
                        candidates.push((cand, key));
                    }
                }
            }
            // Screen candidates cheaply, then validate strong ones first:
            // witnesses recorded under the faulty spec may themselves be
            // tainted, so weak candidates stay eligible, just deprioritized.
            let mut strong = Vec::new();
            let mut weak = Vec::new();
            for (cand, key) in candidates {
                if !seen.insert(key) || !mualloy_syntax::check_spec(&cand).is_empty() {
                    continue;
                }
                match screen(&cand, &evidence) {
                    Screen::Strong => strong.push((cand, key)),
                    Screen::Weak => weak.push((cand, key)),
                    Screen::Fail => {}
                }
            }
            for (cand, key) in strong.into_iter().chain(weak) {
                match session.validate_keyed(&cand, key) {
                    None => {
                        return RepairOutcome::failure(self.name(), session.validated(), 1)
                            .with_reason(RepairOutcome::failure_reason_for(
                                ctx,
                                OutcomeReason::BudgetExhausted,
                            ))
                    }
                    Some(true) => {
                        return RepairOutcome::success_with(
                            self.name(),
                            cand,
                            session.validated(),
                            1,
                        )
                    }
                    Some(false) => {}
                }
            }
        }
        RepairOutcome::failure(self.name(), session.validated(), 1).with_reason(
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
    fn fixes_dead_fact() {
        let faulty = "sig N {} fact Dead { no N } pred p { some N } run p for 3 expect 1";
        let out = Atr::default().repair(&ctx(faulty));
        assert!(out.success);
        let c = out.candidate.unwrap();
        assert!(Analyzer::new(c).satisfies_oracle().unwrap());
    }

    #[test]
    fn fixes_quantifier_swap_bug() {
        let faulty = "sig N { next: lone N } \
            fact Acyclic { some n: N | n in n.^next } \
            pred hasNode { some N } \
            assert NoSelf { all n: N | n not in n.next } \
            run hasNode for 3 expect 1 \
            check NoSelf for 3 expect 0";
        let out = Atr::default().repair(&ctx(faulty));
        assert!(out.success);
    }

    #[test]
    fn screen_rejects_candidates_that_keep_counterexamples() {
        let faulty = mualloy_syntax::parse_spec(
            "sig N { next: lone N } \
             fact Broken { all n: N | n in n.next || n not in n.next } \
             assert NoSelf { all n: N | n not in n.next } \
             check NoSelf for 3 expect 0",
        )
        .unwrap();
        let evidence = gather_evidence(&Oracle::new(), &faulty, 2);
        assert!(!evidence.rejected.is_empty());
        // The faulty spec itself fails its own screen.
        assert_eq!(screen(&faulty, &evidence), Screen::Fail);
        // The ground truth passes.
        let fixed = mualloy_syntax::parse_spec(
            "sig N { next: lone N } \
             fact Fixed { no n: N | n in n.^next } \
             assert NoSelf { all n: N | n not in n.next } \
             check NoSelf for 3 expect 0",
        )
        .unwrap();
        assert_ne!(screen(&fixed, &evidence), Screen::Fail);
    }

    #[test]
    fn template_pool_is_bounded_and_varied() {
        let spec =
            mualloy_syntax::parse_spec("sig A { f: set A } fact { all x: A | x in x.f }").unwrap();
        let vocab = Vocabulary::of(&spec);
        let sites = constraint_sites(&spec);
        let templates = template_formulas(&vocab, &sites[0], 50);
        assert!(!templates.is_empty());
        assert!(templates.len() <= 50);
        // Contains both multiplicity and comparison shapes.
        assert!(templates
            .iter()
            .any(|f| matches!(f, Formula::Mult(_, _, _))));
    }

    #[test]
    fn respects_budget() {
        let faulty = "sig N { next: lone N } \
            fact Broken { all n: N | n in n.next || n not in n.next } \
            assert NoSelf { all n: N | n not in n.next } \
            check NoSelf for 3 expect 0";
        let tight = RepairContext::from_source(
            faulty,
            RepairBudget {
                max_candidates: 3,
                max_rounds: 1,
            },
        )
        .unwrap();
        let out = Atr::default().repair(&tight);
        assert!(out.candidates_explored <= 3);
    }

    #[test]
    fn unfixable_spec_reports_failure() {
        // `check Tautology … expect 1` demands a counterexample to a
        // tautology; assertion bodies are never mutated, so no edit to the
        // facts or predicates can ever satisfy this oracle.
        let faulty = "sig A {} fact F { no A } \
            assert Tautology { no none } \
            check Tautology for 2 expect 1";
        let out = Atr::default().repair(&ctx(faulty));
        assert!(!out.success);
    }
}
