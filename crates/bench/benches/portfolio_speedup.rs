//! Bench for the racing portfolio scheduler: the same roster raced at one
//! worker (the sequential fallback chain) vs an eight-worker pool. The
//! merged outcome is byte-identical by construction, so the wall-clock gap
//! between the two rows is exactly the speedup the study reports.

use criterion::{criterion_group, criterion_main, Criterion};
use specrepair_bench::{bench_config, bench_problems};
use specrepair_core::OracleHandle;
use specrepair_study::{portfolio, RosterId};

fn bench_portfolio_speedup(c: &mut Criterion) {
    let problems = bench_problems();
    let p = &problems[0];
    let config = bench_config();
    let mut group = c.benchmark_group("portfolio_speedup");
    group.sample_size(10);

    for roster in [RosterId::Traditional, RosterId::All] {
        for (suffix, workers) in [("sequential", 1usize), ("racing", 8)] {
            let name = format!("{}_{suffix}", roster.label());
            group.bench_function(&name, |b| {
                b.iter(|| {
                    portfolio::race(&OracleHandle::fresh(), roster, p, &config, workers)
                        .outcome
                        .success
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_portfolio_speedup);
criterion_main!(benches);
