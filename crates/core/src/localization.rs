//! Counterexample-driven fault localization (a FLACK-style analysis).
//!
//! The localizer ranks constraint sites of a faulty specification by how
//! likely they are to contain the fault, combining two signals:
//!
//! - **relaxation** (for over-constraint symptoms — a `run … expect 1` that
//!   is unsatisfiable): a site is suspicious if replacing it with `true`
//!   makes the failing command match its expectation. Each probe is a
//!   verdict on the relaxed spec with only that command left, so it takes
//!   the oracle's verdict chain: memo, tier, singleflight, then the
//!   incremental session of the faulty spec's skeleton;
//! - **vocabulary overlap** (for under-constraint symptoms — a
//!   `check … expect 0` with a counterexample): a site is suspicious in
//!   proportion to how much vocabulary it shares with the violated
//!   assertion.
//!
//! The ranked spans feed ATR's template instantiation and the hybrid
//! *localize-then-fix* pipelines of RQ3.

use mualloy_analyzer::{CommandOutcome, Oracle};
use mualloy_syntax::ast::*;
use mualloy_syntax::walk::{
    collect_sites, idents_in_formula, node_at, replace_node, NodeId, NodeRepl, NodeSite, OwnerKind,
};
use std::collections::BTreeSet;

/// A constraint site ranked by suspiciousness.
#[derive(Debug, Clone, PartialEq)]
pub struct SuspiciousSite {
    /// The node id of the site in the faulty specification.
    pub id: NodeId,
    /// Its source span.
    pub span: Span,
    /// Suspiciousness score (higher = more suspicious).
    pub score: f64,
    /// Owning declaration.
    pub owner: (OwnerKind, usize),
}

/// Fault-localization result.
#[derive(Debug, Clone, Default)]
pub struct Localization {
    /// Sites ranked by descending suspiciousness.
    pub ranked: Vec<SuspiciousSite>,
}

impl Localization {
    /// The most suspicious spans, best first.
    pub fn top_spans(&self, k: usize) -> Vec<Span> {
        self.ranked.iter().take(k).map(|s| s.span).collect()
    }

    /// The most suspicious node ids, best first.
    pub fn top_sites(&self, k: usize) -> Vec<NodeId> {
        self.ranked.iter().take(k).map(|s| s.id).collect()
    }
}

/// The constraint sites the localizer scores: top-level body formulas of
/// facts and predicates, plus the conjuncts of top-level conjunctions.
pub fn constraint_sites(spec: &Spec) -> Vec<NodeSite> {
    let sites = collect_sites(spec);
    sites
        .into_iter()
        .filter(|s| {
            s.is_formula && matches!(s.owner.0, OwnerKind::Fact | OwnerKind::Pred) && s.depth <= 1
        })
        .collect()
}

/// Localizes the fault(s) in a specification whose oracle fails, using a
/// private one-shot oracle. Prefer [`localize_with`] when a shared service
/// is available — Multi-Round re-localizes every round, and relaxation
/// probes repeat across rounds and techniques.
///
/// Returns an empty ranking when the specification satisfies its oracle or
/// cannot be analyzed at all.
pub fn localize(spec: &Spec) -> Localization {
    localize_with(&Oracle::new(), spec)
}

/// [`localize`] against a shared memoizing oracle service.
pub fn localize_with(oracle: &Oracle, spec: &Spec) -> Localization {
    let span = specrepair_trace::span(
        "technique.localization",
        specrepair_trace::Phase::Orchestration,
    );
    let failing = match oracle.failing_commands(spec) {
        Ok(f) if !f.is_empty() => f,
        _ => return Localization::default(),
    };
    let sites = constraint_sites(spec);
    if span.is_active() {
        span.attr_u64("failing", failing.len() as u64);
        span.attr_u64("sites", sites.len() as u64);
    }
    let mut scored: Vec<SuspiciousSite> = sites
        .iter()
        .map(|s| SuspiciousSite {
            id: s.id,
            span: s.span,
            score: 0.0,
            owner: s.owner,
        })
        .collect();

    for outcome in &failing {
        if is_over_constraint(outcome) {
            for (s, site) in scored.iter_mut().zip(&sites) {
                if relaxation_fixes(oracle, spec, site.id, &outcome.command) {
                    s.score += 1.0;
                }
            }
        } else if let Some(target_vocab) = command_vocabulary(spec, &outcome.command) {
            for (s, site) in scored.iter_mut().zip(&sites) {
                let Some(NodeRepl::Formula(f)) = node_at(spec, site.id) else {
                    continue;
                };
                let mut site_vocab = BTreeSet::new();
                idents_in_formula(&f, &mut site_vocab);
                let overlap = jaccard(&site_vocab, &target_vocab);
                s.score += 0.5 * overlap;
                // A conjunct that already *holds* on the counterexample
                // permitted it: small extra suspicion for under-constraint
                // symptoms.
                if let Some(cex) = &outcome.instance {
                    if oracle.evaluate(spec, cex, &f).unwrap_or(false) {
                        s.score += 0.25 * overlap;
                    }
                }
            }
        }
    }

    scored.retain(|s| s.score > 0.0);
    scored.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
    Localization { ranked: scored }
}

/// Resolves external byte-span hints to the persistent node ids of the
/// constraint sites they overlap, in hint order without duplicates.
///
/// Location hints cross tool boundaries as byte spans (benchmark edit
/// scripts, `HintedRepair`); this is the one place they are re-anchored to
/// persistent AST identity, so the LLM prompt layer and the mutation
/// engines address the *same* sites the localizer ranked.
pub fn sites_for_spans(spec: &Spec, spans: &[Span]) -> Vec<NodeId> {
    let sites = constraint_sites(spec);
    let mut out = Vec::new();
    for hint in spans {
        for s in &sites {
            if spans_overlap(s.span, *hint) && !out.contains(&s.id) {
                out.push(s.id);
            }
        }
    }
    out
}

/// Whether the failing outcome exhibits an over-constraint symptom.
fn is_over_constraint(outcome: &CommandOutcome) -> bool {
    // Expected satisfiable (instance or counterexample) but nothing found.
    outcome.command.expect == Some(true) && !outcome.sat
}

/// Replaces the site with `true` and asks the oracle for the verdict of the
/// relaxed spec with only the failing command left. An error is `false`.
fn relaxation_fixes(oracle: &Oracle, spec: &Spec, site: NodeId, cmd: &Command) -> bool {
    let Some(relaxed) = replace_node(spec, site, NodeRepl::Formula(Formula::truth())) else {
        return false;
    };
    let probe = Spec {
        commands: vec![cmd.clone()],
        ..relaxed
    };
    oracle.satisfies_oracle(&probe) == Ok(true)
}

/// The identifier vocabulary of a command's target body.
fn command_vocabulary(spec: &Spec, cmd: &Command) -> Option<BTreeSet<String>> {
    let mut vocab = BTreeSet::new();
    match &cmd.kind {
        CommandKind::Check(name) => {
            for f in &spec.assert(name)?.body {
                idents_in_formula(f, &mut vocab);
            }
        }
        CommandKind::Run(name) => {
            for f in &spec.pred(name)?.body {
                idents_in_formula(f, &mut vocab);
            }
        }
    }
    Some(vocab)
}

fn jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    inter / union
}

/// Scores a localization against known fault spans: the rank (1-based) of
/// the first ranked site whose span overlaps a true fault span, or `None`.
pub fn first_hit_rank(loc: &Localization, fault_spans: &[Span]) -> Option<usize> {
    loc.ranked
        .iter()
        .position(|s| fault_spans.iter().any(|f| spans_overlap(s.span, *f)))
        .map(|i| i + 1)
}

fn spans_overlap(a: Span, b: Span) -> bool {
    a.start < b.end && b.start < a.end
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::parse_spec;

    #[test]
    fn correct_spec_has_empty_ranking() {
        let spec = parse_spec(
            "sig N { next: lone N } fact { no n: N | n in n.^next } \
             assert A { all n: N | n not in n.next } check A for 3 expect 0",
        )
        .unwrap();
        assert!(localize(&spec).ranked.is_empty());
    }

    #[test]
    fn over_constraint_relaxation_finds_the_culprit() {
        // `no N` makes `run hasNode expect 1` unsat; relaxing it fixes it.
        let spec = parse_spec(
            "sig N {} fact Bad { no N } pred hasNode { some N } run hasNode for 3 expect 1",
        )
        .unwrap();
        let loc = localize(&spec);
        assert!(!loc.ranked.is_empty());
        let top = &loc.ranked[0];
        assert_eq!(top.owner.0, OwnerKind::Fact);
        assert!(top.score >= 1.0);
    }

    #[test]
    fn relaxation_probes_ask_only_the_failing_command() {
        // Both runs fail. Relaxing `NoA` fixes the first alone (`NoB` still
        // refutes the second), so it scores exactly once, from the first
        // command; a probe that kept the other command would score nothing.
        let spec = parse_spec(
            "sig A {} sig B {} fact NoA { no A } fact NoB { no B } \
             pred hasA { some A } pred hasBoth { some A && some B } \
             run hasA for 3 expect 1 run hasBoth for 3 expect 1",
        )
        .unwrap();
        let loc = localize(&spec);
        let score_of = |span: Span| loc.ranked.iter().find(|s| s.span == span).map(|s| s.score);
        assert_eq!(score_of(spec.facts[0].body[0].span()), Some(1.0));
        assert_eq!(score_of(spec.facts[1].body[0].span()), None);
    }

    #[test]
    fn under_constraint_scores_by_vocabulary() {
        // Missing acyclicity: the buggy fact mentioning `next` should rank
        // above the unrelated fact about `M`.
        let spec = parse_spec(
            "sig N { next: lone N } sig M {} \
             fact AboutNext { all n: N | lone n.next } \
             fact AboutM { lone M } \
             assert NoSelf { all n: N | n not in n.next } \
             check NoSelf for 3 expect 0",
        )
        .unwrap();
        let loc = localize(&spec);
        assert!(!loc.ranked.is_empty());
        let spans: Vec<_> = loc.top_spans(1);
        // The top site should come from AboutNext (which shares n/next/N).
        let about_next = spec.facts[0].body[0].span();
        assert!(spans_overlap(spans[0], about_next));
    }

    #[test]
    fn first_hit_rank_scores_overlap() {
        let loc = Localization {
            ranked: vec![
                SuspiciousSite {
                    id: NodeId(5),
                    span: Span::new(100, 120),
                    score: 2.0,
                    owner: (OwnerKind::Fact, 0),
                },
                SuspiciousSite {
                    id: NodeId(9),
                    span: Span::new(10, 20),
                    score: 1.0,
                    owner: (OwnerKind::Pred, 0),
                },
            ],
        };
        assert_eq!(first_hit_rank(&loc, &[Span::new(15, 17)]), Some(2));
        assert_eq!(first_hit_rank(&loc, &[Span::new(110, 111)]), Some(1));
        assert_eq!(first_hit_rank(&loc, &[Span::new(500, 510)]), None);
    }

    #[test]
    fn constraint_sites_exclude_asserts_and_deep_nodes() {
        let spec = parse_spec(
            "sig A { f: set A } fact { all x: A | x in x.f && some x.f } \
             assert Q { no A } check Q for 3",
        )
        .unwrap();
        let sites = constraint_sites(&spec);
        assert!(!sites.is_empty());
        assert!(sites.iter().all(|s| s.owner.0 != OwnerKind::Assert));
        assert!(sites.iter().all(|s| s.depth <= 1));
    }

    #[test]
    fn top_helpers_truncate() {
        let spec =
            parse_spec("sig N {} fact { no N } pred p { some N } run p for 3 expect 1").unwrap();
        let loc = localize(&spec);
        assert_eq!(loc.top_spans(1).len(), 1.min(loc.ranked.len()));
        assert_eq!(loc.top_sites(100).len(), loc.ranked.len());
    }
}
