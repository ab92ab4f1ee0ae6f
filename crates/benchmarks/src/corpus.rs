//! Corpus generation: manufacturing the faulty benchmark entries.

use mualloy_analyzer::Oracle;
use mualloy_syntax::walk::strip_spec_spans;
use mualloy_syntax::{Span, Spec};
use specrepair_mutation::{inject_fault_with, InjectorConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Which benchmark a problem belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkId {
    /// The Alloy4Fun corpus (1,936 specs across six domains).
    Alloy4Fun,
    /// The ARepair corpus (38 specs across twelve problems).
    ARepair,
}

impl BenchmarkId {
    /// Display label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            BenchmarkId::Alloy4Fun => "A4F",
            BenchmarkId::ARepair => "ARepair",
        }
    }
}

/// One faulty benchmark entry: the repair problem handed to techniques,
/// plus the ground truth and fault metadata the *metrics layer* uses.
#[derive(Debug, Clone)]
pub struct RepairProblem {
    /// Stable identifier, e.g. `classroom/tutoring/17`.
    pub id: String,
    /// Owning benchmark.
    pub benchmark: BenchmarkId,
    /// Domain (A4F) or problem (ARepair) name.
    pub domain: String,
    /// The ground-truth specification.
    pub truth: Spec,
    /// Ground-truth source text.
    pub truth_source: String,
    /// The faulty specification given to repair techniques.
    pub faulty: Spec,
    /// Faulty source text.
    pub faulty_source: String,
    /// True fault locations (spans into `faulty_source`'s original truth
    /// text; both sides share the same layout as mutations preserve spans).
    pub fault_spans: Vec<Span>,
    /// The truth→fault edit script (mutation descriptions).
    pub edits: Vec<String>,
}

/// Generates `count` faulty variants for one domain from its exercises.
///
/// Seeds run deterministically from 0; duplicates (per exercise, up to
/// spans) are skipped while fresh shapes remain, then reused to guarantee
/// the exact target count.
pub fn generate_domain(
    benchmark: BenchmarkId,
    domain: &str,
    exercises: &[(&str, &str)],
    count: usize,
) -> Vec<RepairProblem> {
    assert!(!exercises.is_empty(), "domain {domain} needs exercises");
    let parsed: Vec<(String, Spec, String)> = exercises
        .iter()
        .map(|(name, src)| {
            let spec = mualloy_syntax::parse_spec(src)
                .unwrap_or_else(|e| panic!("ground truth {domain}/{name}: {e}"));
            ((*name).to_string(), spec, (*src).to_string())
        })
        .collect();

    let mut out: Vec<RepairProblem> = Vec::with_capacity(count);
    let mut seen: HashSet<u64> = HashSet::new();
    let config = InjectorConfig::default();
    // One memo table for the whole domain: different seeds frequently
    // re-derive structurally identical mutants, whose observability check
    // then costs a lookup instead of a solve. Solve cold: corpus generation
    // is outside any study run, so its checks must not show up as
    // incremental-engine activity that no published stats account for.
    let oracle = Oracle::cold();
    let max_seed = (count as u64) * 50 + 64;
    let mut seed = 0u64;
    while out.len() < count && seed < max_seed {
        let (name, truth, truth_source) = &parsed[(seed as usize) % parsed.len()];
        if let Some(fault) = inject_fault_with(&oracle, truth, seed, config) {
            let mut h = DefaultHasher::new();
            name.hash(&mut h);
            strip_spec_spans(&fault.faulty).hash(&mut h);
            if seen.insert(h.finish()) {
                let faulty_source = mualloy_syntax::print_spec(&fault.faulty);
                out.push(RepairProblem {
                    id: format!("{domain}/{name}/{}", out.len()),
                    benchmark,
                    domain: domain.to_string(),
                    truth: truth.clone(),
                    truth_source: truth_source.clone(),
                    faulty: fault.faulty,
                    faulty_source,
                    fault_spans: fault.fault_spans,
                    edits: fault.edits,
                });
            }
        }
        seed += 1;
    }
    // Exhausted the fresh-shape space: refill with clones so domain counts
    // stay exact (the real corpus also contains duplicate submissions).
    let mut i = 0;
    while out.len() < count && !out.is_empty() {
        let mut clone = out[i % out.len()].clone();
        clone.id = format!("{domain}/dup/{}", out.len());
        out.push(clone);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXS: &[(&str, &str)] = &[(
        "toy",
        "sig N { next: lone N }\n\
         fact Acyclic { no n: N | n in n.^next }\n\
         pred hasEdge { some next }\n\
         assert NoSelf { all n: N | n not in n.next }\n\
         run hasEdge for 3 expect 1\n\
         check NoSelf for 3 expect 0\n",
    )];

    #[test]
    fn generates_exact_count() {
        let problems = generate_domain(BenchmarkId::Alloy4Fun, "toy", EXS, 12);
        assert_eq!(problems.len(), 12);
        for (i, p) in problems.iter().enumerate() {
            assert!(p.id.contains("toy"), "{}", p.id);
            assert_eq!(p.benchmark, BenchmarkId::Alloy4Fun);
            assert!(!p.edits.is_empty());
            assert_eq!(p.edits.len(), p.fault_spans.len());
            if i > 0 {
                // ids unique
                assert_ne!(problems[i - 1].id, p.id);
            }
        }
    }

    #[test]
    fn faulty_specs_violate_their_oracle() {
        let problems = generate_domain(BenchmarkId::ARepair, "toy", EXS, 6);
        for p in &problems {
            let analyzer = mualloy_analyzer::Analyzer::new(p.faulty.clone());
            assert!(
                !analyzer.satisfies_oracle().unwrap_or(true),
                "{} should be observably faulty",
                p.id
            );
            let truth_analyzer = mualloy_analyzer::Analyzer::new(p.truth.clone());
            assert!(truth_analyzer.satisfies_oracle().unwrap());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_domain(BenchmarkId::Alloy4Fun, "toy", EXS, 8);
        let b = generate_domain(BenchmarkId::Alloy4Fun, "toy", EXS, 8);
        let srcs_a: Vec<_> = a.iter().map(|p| p.faulty_source.clone()).collect();
        let srcs_b: Vec<_> = b.iter().map(|p| p.faulty_source.clone()).collect();
        assert_eq!(srcs_a, srcs_b);
    }

    #[test]
    fn variants_are_mostly_distinct() {
        let problems = generate_domain(BenchmarkId::Alloy4Fun, "toy", EXS, 10);
        let distinct: HashSet<_> = problems.iter().map(|p| p.faulty_source.clone()).collect();
        assert!(
            distinct.len() >= 8,
            "only {} distinct of 10",
            distinct.len()
        );
    }

    #[test]
    fn benchmark_labels() {
        assert_eq!(BenchmarkId::Alloy4Fun.label(), "A4F");
        assert_eq!(BenchmarkId::ARepair.label(), "ARepair");
    }
}
