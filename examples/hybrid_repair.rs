//! RQ3 in miniature: run every traditional × Multi-Round hybrid over a
//! small slice of the Alloy4Fun corpus and print each pairing's overlap and
//! unique-union repair counts (a 4×1 slice of the paper's Figure 4). Each
//! technique runs through the study's dispatch, as a study cell would.
//!
//! Run with: `cargo run --release --example hybrid_repair`

use std::sync::Arc;

use specrepair_benchmarks::alloy4fun;
use specrepair_core::{overlap_stats, CancelToken, OracleHandle, RepairBudget, RepairContext};
use specrepair_llm::{FeedbackSetting, TransportStats};
use specrepair_metrics::rep;
use specrepair_study::runner::run_cell;
use specrepair_study::{StudyConfig, TechniqueId};

fn main() {
    // A ~1.5% slice of Alloy4Fun: ≈30 faulty specifications.
    let problems = alloy4fun(0.015);
    println!("evaluating {} faulty specifications\n", problems.len());
    let budget = RepairBudget {
        max_candidates: 60,
        max_rounds: 4,
    };

    let config = StudyConfig {
        seed: 42,
        ..StudyConfig::default()
    };
    let transport = Arc::new(TransportStats::new());

    // One memoizing oracle per problem, shared by every technique that
    // attacks it (the LLM arm here, each traditional arm below).
    let oracles: Vec<OracleHandle> = problems.iter().map(|_| OracleHandle::fresh()).collect();

    // Per-spec REP vector of one technique.
    let rep_vector = |id: TechniqueId| -> Vec<bool> {
        problems
            .iter()
            .zip(&oracles)
            .map(|(p, oracle)| {
                let ctx = RepairContext::new(p.faulty.clone(), budget)
                    .with_source(&p.faulty_source)
                    .with_oracle(oracle.clone())
                    .with_cancel(CancelToken::none());
                let out = run_cell(&ctx, id, &config, &p.id, Some(p), &transport).outcome;
                rep(oracle.service(), &p.truth, out.candidate_source.as_deref()) == 1
            })
            .collect()
    };
    let llm_vector = rep_vector(TechniqueId::Multi(FeedbackSetting::None));

    println!(
        "{:<10}{:>8}{:>8}{:>10}{:>16}",
        "Trad.", "Trad", "LLM", "Overlap", "Hybrid(union)"
    );
    for id in TechniqueId::traditional() {
        let trad_vector = rep_vector(id);
        let stats = overlap_stats(&trad_vector, &llm_vector);
        println!(
            "{:<10}{:>8}{:>8}{:>10}{:>16}",
            id.label(),
            stats.first,
            stats.second,
            stats.overlap,
            stats.union
        );
        assert!(stats.union >= stats.first.max(stats.second));
    }
    println!("\n(the hybrid column is what Table II's Total(unique) reports)");
}
