//! Microbench for the incremental oracle subsystem: validating a family of
//! candidate mutations of one faulty spec through a persistent
//! [`IncrementalEngine`] (one translator + one solver per skeleton,
//! activation-guarded checks, learnt clauses retained) vs the cold path (a
//! fresh [`Analyzer`] — translator, encoding and solver — per candidate).
//!
//! Prints the measured cold-vs-incremental speedup before the criterion
//! groups run; the CI microbench step greps for that line as the
//! acceptance check (the incremental path must be >= 3x faster across a
//! candidate batch). Also writes `BENCH_incremental.json` at the repo root
//! with the same measurements.

use criterion::{criterion_group, criterion_main, Criterion};
use mualloy_analyzer::{Analyzer, IncrementalEngine};
use mualloy_syntax::Spec;
use specrepair_mutation::{inject_fault, InjectorConfig};
use std::time::Instant;

/// How many study problems the batch spans, and how many candidate
/// mutations each problem's repair search validates.
const PROBLEMS: usize = 8;
const CANDIDATES_PER_PROBLEM: usize = 8;

/// The fixture: several study specs, each with a batch of single-fault
/// mutants — exactly the workload a study run hands the oracle (per
/// problem: a shared signature skeleton, one mutated formula per
/// candidate).
fn fixture() -> Vec<Spec> {
    let bases: Vec<Spec> = specrepair_benchmarks::full_study(0.05)
        .into_iter()
        .map(|p| p.faulty)
        .filter(|s| !s.commands.is_empty())
        .take(PROBLEMS)
        .collect();
    assert_eq!(
        bases.len(),
        PROBLEMS,
        "the study corpus is never this small"
    );
    let mut candidates = Vec::new();
    for base in &bases {
        candidates.push(base.clone());
        let mut seed = 0u64;
        let mut produced = 1;
        while produced < CANDIDATES_PER_PROBLEM {
            seed += 1;
            assert!(seed < 10_000, "the injector must keep producing mutants");
            let Some(fault) = inject_fault(base, seed, InjectorConfig::default()) else {
                continue;
            };
            candidates.push(fault.faulty);
            produced += 1;
        }
    }
    candidates
}

/// Validates every candidate cold: a fresh analyzer (translator + solver)
/// per candidate, the path [`mualloy_analyzer::Oracle::cold`] takes.
fn run_cold(candidates: &[Spec]) -> Vec<bool> {
    candidates
        .iter()
        .map(|c| {
            Analyzer::new(c.clone())
                .satisfies_oracle()
                .expect("bench candidates execute cleanly")
        })
        .collect()
}

/// Validates every candidate through one persistent incremental engine.
fn run_incremental(engine: &IncrementalEngine, candidates: &[Spec]) -> Vec<bool> {
    candidates
        .iter()
        .map(|c| {
            engine
                .satisfies_oracle(c)
                .expect("bench candidates check incrementally")
        })
        .collect()
}

fn bench_oracle_incremental(c: &mut Criterion) {
    let candidates = fixture();

    // Correctness first: the engine must agree with the cold path on every
    // candidate, with zero fallbacks.
    let cold_verdicts = run_cold(&candidates);
    let engine = IncrementalEngine::new();
    let incremental_verdicts = run_incremental(&engine, &candidates);
    assert_eq!(cold_verdicts, incremental_verdicts);
    let stats = engine.stats();
    assert_eq!(stats.fallbacks, 0, "no bench candidate may fall back");
    assert!(stats.clause_reuse_rate() > 0.0, "{stats:?}");

    // The acceptance measurement, printed for the CI step to grep: time
    // both paths over the whole batch so the ratio lands on one line. A
    // fresh engine per iteration charges the incremental path its session
    // set-up honestly.
    const ITERS: u32 = 10;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(run_cold(&candidates));
    }
    let cold_ns = t0.elapsed().as_nanos() / ITERS as u128;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        let engine = IncrementalEngine::new();
        std::hint::black_box(run_incremental(&engine, &candidates));
    }
    let inc_ns = t0.elapsed().as_nanos() / ITERS as u128;
    let speedup = cold_ns as f64 / inc_ns.max(1) as f64;
    println!(
        "oracle_incremental speedup: cold {} ns vs incremental {} ns = {:.1}x ({} checks)",
        cold_ns, inc_ns, speedup, stats.checks,
    );

    let json = format!(
        "{{\n  \"bench\": \"oracle_incremental\",\n  \"problems\": {},\n  \
         \"candidates\": {},\n  \
         \"checks\": {},\n  \"cold_ns\": {},\n  \"incremental_ns\": {},\n  \
         \"speedup\": {:.2},\n  \"clause_reuse_rate\": {:.4},\n  \
         \"learned_clauses_retained\": {}\n}}\n",
        PROBLEMS,
        candidates.len(),
        stats.checks,
        cold_ns,
        inc_ns,
        speedup,
        stats.clause_reuse_rate(),
        stats.learned_clauses_retained,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    std::fs::write(path, json).expect("can write BENCH_incremental.json");

    let mut group = c.benchmark_group("oracle_incremental");
    group.sample_size(10);
    group.bench_function("cold_batch", |b| b.iter(|| run_cold(&candidates)));
    group.bench_function("incremental_batch", |b| {
        b.iter(|| {
            let engine = IncrementalEngine::new();
            run_incremental(&engine, &candidates)
        })
    });
    group.bench_function("incremental_batch_warm", |b| {
        b.iter(|| run_incremental(&engine, &candidates))
    });
    group.finish();
}

criterion_group!(benches, bench_oracle_incremental);
criterion_main!(benches);
