//! Integration: fault-localization quality over the benchmark corpora.
//!
//! The injected faults carry their true spans, so we can score the
//! FLACK-style localizer the way the localization literature does: by the
//! rank of the first reported site that overlaps a true fault location.

use mualloy_analyzer::Oracle;
use mualloy_syntax::{NodeId, Span};
use specrepair_core::{
    first_hit_rank, localization::constraint_sites, localize, localize_with, Localization,
};

#[test]
fn localizer_ranks_true_fault_sites_highly() {
    let problems = specrepair_benchmarks::full_study(0.004);
    let mut localized = 0usize;
    let mut top3_hits = 0usize;
    let mut scored = 0usize;
    for p in &problems {
        let loc = localize(&p.faulty);
        if loc.ranked.is_empty() {
            continue;
        }
        scored += 1;
        if let Some(rank) = first_hit_rank(&loc, &p.fault_spans) {
            localized += 1;
            if rank <= 3 {
                top3_hits += 1;
            }
        }
    }
    assert!(
        scored * 2 >= problems.len(),
        "localizer should usually rank something"
    );
    // At least half of the localizable faults should be hit at all, and a
    // meaningful share within the top 3 (the hybrid pipelines rely on this).
    assert!(
        localized * 2 >= scored,
        "only {localized}/{scored} faults were localized at any rank"
    );
    assert!(
        top3_hits * 3 >= localized,
        "only {top3_hits}/{localized} localized faults were in the top 3"
    );
}

#[test]
fn localization_scores_are_ordered_and_positive() {
    for p in specrepair_benchmarks::arepair(0.2) {
        let loc = localize(&p.faulty);
        for w in loc.ranked.windows(2) {
            assert!(w[0].score >= w[1].score, "{}", p.id);
        }
        for s in &loc.ranked {
            assert!(s.score > 0.0, "{}", p.id);
        }
    }
}

#[test]
fn constraint_sites_cover_facts_and_preds_only() {
    for p in specrepair_benchmarks::arepair(0.2) {
        let sites = constraint_sites(&p.faulty);
        assert!(!sites.is_empty(), "{}", p.id);
        for s in &sites {
            assert!(
                matches!(
                    s.owner.0,
                    mualloy_syntax::OwnerKind::Fact | mualloy_syntax::OwnerKind::Pred
                ),
                "{}",
                p.id
            );
        }
    }
}

#[test]
fn deleted_constraints_are_localizable_via_vocabulary() {
    // A deletion fault leaves a trivially-true formula behind; the
    // under-constraint scorer must still rank sites (by vocabulary overlap
    // with the violated assertion), not return an empty ranking.
    let problems = specrepair_benchmarks::alloy4fun(0.02);
    let deletions: Vec<_> = problems
        .iter()
        .filter(|p| p.edits.iter().any(|e| e == "delete constraint"))
        .collect();
    assert!(
        !deletions.is_empty(),
        "difficulty mix must include deletions"
    );
    let mut ranked_any = 0;
    for p in &deletions {
        if !localize(&p.faulty).ranked.is_empty() {
            ranked_any += 1;
        }
    }
    assert!(
        ranked_any * 2 >= deletions.len(),
        "only {ranked_any}/{} deletion faults produced a ranking",
        deletions.len()
    );
}

/// A ranking as comparable values, scores bit for bit.
fn ranking(loc: &Localization) -> Vec<(NodeId, Span, u64)> {
    loc.ranked
        .iter()
        .map(|s| (s.id, s.span, s.score.to_bits()))
        .collect()
}

#[test]
fn localization_agrees_across_oracle_strategies() {
    // Relaxation probes are verdicts. One oracle shared across the study and
    // asked twice per spec, as Multi-Round re-localizes, answers them from
    // its incremental sessions and then its memo; a cold oracle and the
    // reference arm solve afresh. The rankings must not differ.
    let shared = Oracle::new();
    let mut ranked = 0usize;
    for p in specrepair_benchmarks::full_study(0.005) {
        let reference = ranking(&localize_with(&Oracle::disabled(), &p.faulty));
        let cold = ranking(&localize_with(&Oracle::cold(), &p.faulty));
        let first = ranking(&localize_with(&shared, &p.faulty));
        let solves = shared.stats().solver_invocations;
        let again = ranking(&localize_with(&shared, &p.faulty));
        assert_eq!(shared.stats().solver_invocations, solves, "{}", p.id);
        for (arm, got) in [("cold", cold), ("shared", first), ("shared again", again)] {
            assert_eq!(got, reference, "{}: {arm} oracle", p.id);
        }
        ranked += usize::from(!reference.is_empty());
    }
    assert!(ranked > 0, "no spec was ranked");
    assert!(
        shared.incremental_stats().checks > 0,
        "relaxation probes must reach the incremental sessions"
    );
}
