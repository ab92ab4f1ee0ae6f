//! Seeded semantic fault injection.
//!
//! Given a *ground-truth* specification whose commands all match their
//! `expect` annotations, the injector applies 1–k random mutations and keeps
//! only mutants that are **observably faulty**: at least one command outcome
//! now contradicts its annotation. This reproduces the structure of the
//! Alloy4Fun and ARepair corpora, where every entry is a human-written buggy
//! variant of a known-correct model.

use mualloy_analyzer::Oracle;
use mualloy_syntax::ast::Formula;
use mualloy_syntax::walk::{collect_sites, replace_node, strip_spec_spans, NodeRepl, OwnerKind};
use mualloy_syntax::{Span, Spec};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::ops::{MutationEngine, MutationKind};

/// A successfully injected fault.
#[derive(Debug, Clone)]
pub struct InjectedFault {
    /// The faulty specification.
    pub faulty: Spec,
    /// Descriptions of the applied mutations (ground-truth edit script).
    pub edits: Vec<String>,
    /// Source spans of the mutated nodes in the *original* specification
    /// (the true fault locations, used to score fault localization).
    pub fault_spans: Vec<Span>,
}

/// Configuration for the fault injector.
///
/// The difficulty mix mirrors the corpora's description in the paper
/// (§III-C): faults "range from simple faults amendable by adjusting a
/// single operator to intricate defects necessitating the synthesis of new
/// expressions or the substitution of entire predicate bodies".
#[derive(Debug, Clone, Copy)]
pub struct InjectorConfig {
    /// Probability of a single operator-level fault (*easy*).
    pub p_easy: f64,
    /// Probability of two stacked operator-level faults (*medium*).
    pub p_medium: f64,
    /// Remaining probability: a whole constraint is deleted (*hard* —
    /// repairing requires synthesizing a replacement expression).
    pub max_attempts: usize,
}

impl Default for InjectorConfig {
    fn default() -> Self {
        InjectorConfig {
            p_easy: 0.45,
            p_medium: 0.25,
            max_attempts: 64,
        }
    }
}

/// Injects a semantic fault into `truth` using the given seed.
///
/// Returns `None` when no observably-faulty mutant could be produced within
/// the attempt budget (e.g. the specification has no commands).
pub fn inject_fault(truth: &Spec, seed: u64, config: InjectorConfig) -> Option<InjectedFault> {
    inject_fault_with(&Oracle::new(), truth, seed, config)
}

/// [`inject_fault`] against a caller-provided oracle, so corpus generation
/// can share one memo table across all seeds of a domain (different seeds
/// frequently re-derive structurally identical mutants).
pub fn inject_fault_with(
    oracle: &Oracle,
    truth: &Spec,
    seed: u64,
    config: InjectorConfig,
) -> Option<InjectedFault> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let truth_shape = strip_spec_spans(truth);
    for _ in 0..config.max_attempts {
        let roll: f64 = rng.gen();
        let (current, edits, fault_spans) = if roll < config.p_easy {
            match apply_operator_edits(truth, 1, &mut rng) {
                Some(r) => r,
                None => continue,
            }
        } else if roll < config.p_easy + config.p_medium {
            match apply_operator_edits(truth, 2, &mut rng) {
                Some(r) => r,
                None => continue,
            }
        } else {
            match delete_constraint(truth, &mut rng) {
                Some(r) => r,
                None => continue,
            }
        };
        if strip_spec_spans(&current) == truth_shape {
            continue; // cosmetically different but structurally identical
        }
        // Observability: the mutant must violate the command oracle.
        match oracle.satisfies_oracle(&current) {
            Ok(false) => {
                return Some(InjectedFault {
                    faulty: current,
                    edits,
                    fault_spans,
                })
            }
            _ => continue,
        }
    }
    None
}

/// Applies `n` operator-level mutations (never whole-constraint drops —
/// those are the *hard* class handled separately).
fn apply_operator_edits(
    truth: &Spec,
    n: usize,
    rng: &mut ChaCha8Rng,
) -> Option<(Spec, Vec<String>, Vec<Span>)> {
    let operator = |kind| kind != MutationKind::JunctionDrop;
    let mut current = truth.clone();
    let mut edits = Vec::new();
    let mut spans = Vec::new();
    for _ in 0..n {
        let engine = MutationEngine::new(&current);
        // A uniform pick over the operator mutations, as `choose` draws
        // one from their list, with only the picked one built.
        let count = engine.count_mutations(operator);
        if count == 0 {
            return None;
        }
        let m = engine.nth_mutation(rng.next_u64() as usize % count, operator)?;
        let next = engine.apply(&m)?;
        edits.push(m.description);
        spans.push(m.span);
        current = next;
    }
    Some((current, edits, spans))
}

/// Deletes one top-level constraint of a fact or predicate (replaces it by
/// a trivially-true formula), the corpora's "missing constraint" fault.
fn delete_constraint(truth: &Spec, rng: &mut ChaCha8Rng) -> Option<(Spec, Vec<String>, Vec<Span>)> {
    let sites = collect_sites(truth);
    let top_level: Vec<_> = sites
        .iter()
        .filter(|s| {
            s.is_formula && s.depth == 0 && matches!(s.owner.0, OwnerKind::Fact | OwnerKind::Pred)
        })
        .collect();
    let site = top_level.choose(rng)?;
    let faulty = replace_node(truth, site.id, NodeRepl::Formula(Formula::truth()))?;
    Some((
        faulty,
        vec!["delete constraint".to_string()],
        vec![site.span],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_analyzer::Analyzer;
    use mualloy_syntax::parse_spec;

    const TRUTH: &str = "sig N { next: lone N } \
        fact Acyclic { no n: N | n in n.^next } \
        pred hasEdge { some next } \
        assert NoSelf { all n: N | n not in n.next } \
        run hasEdge for 3 expect 1 \
        check NoSelf for 3 expect 0";

    #[test]
    fn ground_truth_satisfies_its_oracle() {
        let spec = parse_spec(TRUTH).unwrap();
        assert!(Analyzer::new(spec).satisfies_oracle().unwrap());
    }

    #[test]
    fn injected_faults_violate_oracle() {
        let truth = parse_spec(TRUTH).unwrap();
        let mut produced = 0;
        for seed in 0..6u64 {
            if let Some(fault) = inject_fault(&truth, seed, InjectorConfig::default()) {
                produced += 1;
                assert!(!fault.edits.is_empty());
                assert_eq!(fault.edits.len(), fault.fault_spans.len());
                let analyzer = Analyzer::new(fault.faulty.clone());
                assert!(!analyzer.satisfies_oracle().unwrap());
            }
        }
        assert!(produced >= 4, "only {produced}/6 seeds produced faults");
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let truth = parse_spec(TRUTH).unwrap();
        let a = inject_fault(&truth, 42, InjectorConfig::default()).unwrap();
        let b = inject_fault(&truth, 42, InjectorConfig::default()).unwrap();
        assert_eq!(a.edits, b.edits);
        assert_eq!(strip_spec_spans(&a.faulty), strip_spec_spans(&b.faulty));
    }

    #[test]
    fn different_seeds_produce_diverse_faults() {
        let truth = parse_spec(TRUTH).unwrap();
        let mut shapes = std::collections::BTreeSet::new();
        for seed in 0..10u64 {
            if let Some(f) = inject_fault(&truth, seed, InjectorConfig::default()) {
                shapes.insert(format!("{:?}", strip_spec_spans(&f.faulty)));
            }
        }
        assert!(shapes.len() >= 3, "only {} distinct faults", shapes.len());
    }

    #[test]
    fn spec_without_commands_yields_no_fault() {
        let truth = parse_spec("sig A { f: set A } fact { some A }").unwrap();
        assert!(inject_fault(&truth, 1, InjectorConfig::default()).is_none());
    }
}
