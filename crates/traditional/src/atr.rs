//! ATR: template-based repair driven by counterexample/instance analysis.
//!
//! Faithful to Zheng et al. (ISSTA'22): ATR (a) localizes suspicious
//! constraints by analyzing the differences between counterexamples and
//! satisfying instances, (b) instantiates repair candidates from predefined
//! templates over the specification's vocabulary, and (c) prunes the
//! candidate space cheaply by requiring every candidate to reject the cached
//! counterexamples and keep admitting the cached satisfying instances before
//! any full validation is spent on it.
//!
//! The evidence is gathered once per run: up to `cache_per_command`
//! counterexamples of each failing check and the instance of each passing
//! run. Each suspicious site's edits (the mutants inside its span, then the
//! template replacements, then the template strengthenings) are streamed.
//! Each edit is keyed by an incremental rehash of the faulty spec and
//! skipped when already seen. It is then screened on the faulty spec's
//! ground verdicts, cached once per run, with only the formulas the edit
//! reaches re-elaborated and re-evaluated. Only a survivor is built and
//! checked for well-formedness. A strong one is validated at once, weak ones
//! after the site's last edit, so the oracle sees the site's strong
//! candidates in order, then its weak ones.

use std::borrow::Cow;
use std::collections::HashSet;

use mualloy_analyzer::Oracle;
use mualloy_relational::Instance;
use mualloy_syntax::ast::*;
use mualloy_syntax::walk::{node_at, NodeRepl, NodeSite};
use specrepair_core::{
    localization::{constraint_sites, localize_with},
    OutcomeReason, RepairContext, RepairOutcome, RepairTechnique,
};
use specrepair_mutation::{MutationEngine, Vocabulary};

use crate::ground::{places, BaseVerdicts, Candidate, Verdict, View};

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
pub(crate) enum Screen {
    /// Rejects every counterexample and keeps every witness.
    Strong,
    /// Rejects every counterexample but loses a witness. Witnesses were
    /// produced under the *faulty* spec, so losing one is only a soft
    /// signal — such candidates are validated after the strong ones.
    Weak,
    /// Still admits a counterexample: discarded without validation.
    Fail,
}

/// Cheap screen judged by ground evaluation (no solving), on the
/// candidate's verdicts over the evidence: the first `cexs` valuations are
/// the counterexamples, the rest the witnesses.
///
/// Facts that fail to elaborate hold on no instance, and an evaluation
/// error counts as false. A counterexample is still admitted when its
/// assertion's body does not elaborate, or when the facts hold on it and
/// the body does not; a witness is lost when its predicate's existential
/// does not elaborate, or when the facts and the existential do not both
/// hold on it.
pub(crate) fn screen(v: &View<'_, '_>, cexs: usize) -> Screen {
    let facts_hold = |i| v.facts_on(i) == Verdict::Is(true);
    for i in 0..cexs {
        let body = v.goal_on(i);
        if body == Verdict::Unelaborated || (facts_hold(i) && body != Verdict::Is(true)) {
            return Screen::Fail;
        }
    }
    if (cexs..v.valuations()).all(|i| facts_hold(i) && v.goal_on(i) == Verdict::Is(true)) {
        Screen::Strong
    } else {
        Screen::Weak
    }
}

/// The whole-spec screen [`screen`] stands in for: the candidate's facts
/// and goals elaborated and evaluated afresh for each candidate.
#[cfg(test)]
pub(crate) fn reference_screen(
    candidate: &Spec,
    rejected: &[(String, Instance)],
    admitted: &[(String, Instance)],
) -> Screen {
    use mualloy_relational::{assert_body, elaborate_facts, pred_as_existential, Evaluator};
    let facts = elaborate_facts(candidate).ok();
    let facts_hold = |ev: &Evaluator| {
        facts
            .as_ref()
            .is_some_and(|fs| fs.iter().all(|f| ev.formula(f).unwrap_or(false)))
    };
    for (name, cex) in rejected {
        let Ok(body) = assert_body(candidate, name) else {
            return Screen::Fail;
        };
        let ev = Evaluator::new(cex);
        if facts_hold(&ev) && !ev.formula(&body).unwrap_or(false) {
            return Screen::Fail;
        }
    }
    for (name, witness) in admitted {
        let Ok(formula) = pred_as_existential(candidate, name) else {
            return Screen::Weak;
        };
        let ev = Evaluator::new(witness);
        if !(facts_hold(&ev) && ev.formula(&formula).unwrap_or(false)) {
            return Screen::Weak;
        }
    }
    Screen::Strong
}

// ATR's predefined repair templates live in
// [`specrepair_mutation::synthesis`], shared with the synthetic LLM (which
// models the same synthesis capability); see that module for the grammar.
use specrepair_mutation::synthesis::{conjoin_template, template_formulas};

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
        let places = places(engine.sites());
        let mut verdicts = None;
        let cexs = evidence.rejected.len();
        // Validates one candidate; `Some` ends the run.
        let mut validate = |cand: Spec, key| match session.validate_keyed(&cand, key) {
            None => Some(
                RepairOutcome::failure(self.name(), session.validated(), 1).with_reason(
                    RepairOutcome::failure_reason_for(ctx, OutcomeReason::BudgetExhausted),
                ),
            ),
            Some(true) => Some(RepairOutcome::success_with(
                self.name(),
                cand,
                session.validated(),
                1,
            )),
            Some(false) => None,
        };
        for site in sites {
            let screen_span =
                specrepair_trace::span("technique.screen", specrepair_trace::Phase::Orchestration);
            let verdicts = verdicts.get_or_insert_with(|| {
                BaseVerdicts::for_evidence(&ctx.faulty, &evidence.rejected, &evidence.admitted)
            });
            // (a) mutation-level candidates at the site and its subtree.
            let mut edits: Vec<(NodeId, Cow<'_, NodeRepl>)> = mutations
                .iter()
                .filter(|m| {
                    // Only mutations within the suspicious site's span.
                    m.span.start >= site.span.start
                        && m.span.end <= site.span.end.max(site.span.start + 1)
                })
                .map(|m| (m.site, Cow::Borrowed(&m.repl)))
                .collect();
            // (b) whole-constraint template replacements and template
            // strengthenings (conjunct additions) at the site: every
            // template replaces the constraint, then, as in
            // `synthesis_mutations`, every odd-indexed one is conjoined.
            if let Some(NodeRepl::Formula(existing)) = node_at(&ctx.faulty, site.id) {
                let templates = template_formulas(&vocab, site, self.max_templates_per_site / 2);
                let conjoins: Vec<Formula> = if site.is_formula {
                    templates
                        .iter()
                        .skip(1)
                        .step_by(2)
                        .map(|t| conjoin_template(&existing, t))
                        .collect()
                } else {
                    Vec::new()
                };
                edits.extend(
                    templates
                        .into_iter()
                        .chain(conjoins)
                        .map(|f| (site.id, Cow::Owned(NodeRepl::Formula(f)))),
                );
            }
            // Each edit is a single-node rewrite of the faulty spec: key it
            // by an incremental rehash, screen it on the cached verdicts,
            // and build only the survivors. Strong candidates are validated
            // at once; witnesses recorded under the faulty spec may
            // themselves be tainted, so weak candidates stay eligible, just
            // after the site's strong ones.
            let mut weak = Vec::new();
            for (target, repl) in &edits {
                let Some((mut candidate, key)) =
                    Candidate::keyed(&ctx.faulty, &ctx.hasher, &places, *target, repl)
                else {
                    continue;
                };
                if !seen.insert(key) {
                    continue;
                }
                let verdict = verdicts.check(&mut candidate, |v| screen(v, cexs));
                if matches!(verdict, None | Some(Screen::Fail)) {
                    continue;
                }
                let Some(cand) = candidate.into_spec(&ctx.faulty) else {
                    continue;
                };
                if !mualloy_syntax::check_spec(&cand).is_empty() {
                    continue;
                }
                if verdict == Some(Screen::Weak) {
                    weak.push((cand, key));
                } else if let Some(outcome) = validate(cand, key) {
                    return outcome;
                }
            }
            drop(screen_span);
            for (cand, key) in weak {
                if let Some(outcome) = validate(cand, key) {
                    return outcome;
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
    use specrepair_mutation::synthesis::synthesis_mutations;

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

    /// The cached screen of `candidate`, an edit of `faulty`.
    fn cached_screen(faulty: &Spec, evidence: &Evidence, candidate: &Spec) -> Screen {
        let verdicts = BaseVerdicts::for_evidence(faulty, &evidence.rejected, &evidence.admitted);
        if candidate == faulty {
            return screen(&verdicts.view(), evidence.rejected.len());
        }
        // The candidate as one edit of the faulty spec's first fact.
        let payload = NodeRepl::Formula(candidate.facts[0].body[0].clone());
        let places = places(&mualloy_syntax::collect_sites(faulty));
        let hasher = mualloy_syntax::SpecHasher::new(faulty);
        let target = faulty.facts[0].body[0].id();
        let (mut cand, _) = Candidate::keyed(faulty, &hasher, &places, target, &payload).unwrap();
        verdicts
            .check(&mut cand, |v| screen(v, evidence.rejected.len()))
            .unwrap()
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
        let reference = |c: &Spec| reference_screen(c, &evidence.rejected, &evidence.admitted);
        // The faulty spec itself fails its own screen.
        assert_eq!(cached_screen(&faulty, &evidence, &faulty), Screen::Fail);
        assert_eq!(reference(&faulty), Screen::Fail);
        // The ground truth passes.
        let fixed = mualloy_syntax::parse_spec(
            "sig N { next: lone N } \
             fact Fixed { no n: N | n in n.^next } \
             assert NoSelf { all n: N | n not in n.next } \
             check NoSelf for 3 expect 0",
        )
        .unwrap();
        assert_ne!(cached_screen(&faulty, &evidence, &fixed), Screen::Fail);
        assert_eq!(cached_screen(&faulty, &evidence, &fixed), reference(&fixed));
    }

    /// Every ATR edit of a corpus slice (mutants, templates and synthesis
    /// mutations at every constraint site) gets the same key and screen
    /// through the cached verdicts as through the built candidate, and
    /// builds the same spec. About 4 s unoptimized.
    #[test]
    fn cached_screen_matches_the_whole_spec_screen_on_the_corpus() {
        use mualloy_syntax::walk::replace_node;
        use mualloy_syntax::{spec_fingerprint, SpecHasher};
        let oracle = Oracle::new();
        let atr = Atr::default();
        let (mut edits_checked, mut by_screen) = (0, [0usize; 3]);
        for p in specrepair_benchmarks::full_study(0.005).iter() {
            let faulty = &p.faulty;
            let evidence = gather_evidence(&oracle, faulty, atr.cache_per_command);
            let verdicts =
                BaseVerdicts::for_evidence(faulty, &evidence.rejected, &evidence.admitted);
            let engine = MutationEngine::new(faulty);
            let hasher = SpecHasher::new(faulty);
            let places = places(engine.sites());
            let vocab = Vocabulary::of(faulty);
            let cap = atr.max_templates_per_site / 2;
            let mut edits: Vec<(NodeId, NodeRepl)> = engine
                .all_mutations()
                .into_iter()
                .map(|m| (m.site, m.repl))
                .collect();
            for site in constraint_sites(faulty) {
                edits.extend(
                    template_formulas(&vocab, &site, cap)
                        .into_iter()
                        .map(|tf| (site.id, NodeRepl::Formula(tf))),
                );
                edits.extend(
                    synthesis_mutations(faulty, &vocab, std::slice::from_ref(&site), cap)
                        .into_iter()
                        .map(|m| (m.site, m.repl)),
                );
            }
            for (target, repl) in &edits {
                let built = replace_node(faulty, *target, repl.clone());
                let keyed = Candidate::keyed(faulty, &hasher, &places, *target, repl);
                assert_eq!(keyed.is_some(), built.is_some(), "{}", p.id);
                let (Some((mut cand, key)), Some(built)) = (keyed, built) else {
                    continue;
                };
                assert_eq!(key, spec_fingerprint(&built), "{}", p.id);
                let cached = verdicts.check(&mut cand, |v| screen(v, evidence.rejected.len()));
                let whole = reference_screen(&built, &evidence.rejected, &evidence.admitted);
                assert_eq!(
                    cached,
                    Some(whole),
                    "{}: {}",
                    p.id,
                    mualloy_syntax::print_spec(&built)
                );
                assert_eq!(cand.into_spec(faulty).as_ref(), Some(&built), "{}", p.id);
                edits_checked += 1;
                by_screen[whole as usize] += 1;
            }
        }
        assert!(edits_checked > 1000, "{edits_checked}");
        assert!(by_screen.iter().all(|&n| n > 0), "{by_screen:?}");
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
