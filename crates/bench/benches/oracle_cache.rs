//! Bench for the shared memoizing oracle service: the same repair workload
//! with the memo table enabled vs disabled, plus the raw cost of a warm
//! cache replay vs a fresh solve.

use criterion::{criterion_group, criterion_main, Criterion};
use mualloy_analyzer::{Analyzer, Oracle};
use specrepair_bench::{bench_config, bench_problems};
use specrepair_core::OracleHandle;
use specrepair_study::runner::evaluate_cell;
use specrepair_study::TechniqueId;

fn bench_oracle_cache(c: &mut Criterion) {
    let problems = bench_problems();
    let p = &problems[0];
    let config = bench_config();
    let mut group = c.benchmark_group("oracle_cache");
    group.sample_size(10);

    // The study's hot path: all twelve techniques attack one problem. With
    // the cache they share one memo table; without it every validation
    // re-solves from scratch.
    group.bench_function("twelve_techniques_cached", |b| {
        b.iter(|| {
            let oracle = OracleHandle::fresh();
            TechniqueId::all()
                .iter()
                .filter(|&&id| evaluate_cell(&oracle, id, p, &config).internal_success)
                .count()
        })
    });
    group.bench_function("twelve_techniques_uncached", |b| {
        b.iter(|| {
            let oracle = OracleHandle::disabled();
            TechniqueId::all()
                .iter()
                .filter(|&&id| evaluate_cell(&oracle, id, p, &config).internal_success)
                .count()
        })
    });

    // Raw replay cost: a warm memo lookup vs a full analyzer solve.
    group.bench_function("warm_cache_replay", |b| {
        let oracle = Oracle::new();
        let _ = oracle.satisfies_oracle(&p.faulty);
        b.iter(|| oracle.satisfies_oracle(&p.faulty).unwrap_or(false))
    });
    group.bench_function("fresh_analyzer_solve", |b| {
        b.iter(|| {
            Analyzer::new(p.faulty.clone())
                .satisfies_oracle()
                .unwrap_or(false)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_oracle_cache);
criterion_main!(benches);
