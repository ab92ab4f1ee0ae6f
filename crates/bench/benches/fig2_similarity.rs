//! Bench for Experiment E2 (Figure 2): TM/SM similarity measurement.

use criterion::{criterion_group, criterion_main, Criterion};
use mualloy_analyzer::Oracle;
use specrepair_bench::bench_problems;
use specrepair_metrics::{candidate_metrics, sentence_bleu, syntax_match};

fn bench_fig2(c: &mut Criterion) {
    let problems = bench_problems();
    let p = &problems[0];
    let mut group = c.benchmark_group("fig2_similarity");

    group.bench_function("token_match_bleu", |b| {
        b.iter(|| sentence_bleu(&p.truth_source, &p.faulty_source))
    });
    group.bench_function("syntax_match_kernel", |b| {
        b.iter(|| syntax_match(&p.truth_source, &p.faulty_source))
    });
    // The reference oracle arm memoizes nothing, so every iteration solves.
    let oracle = Oracle::disabled();
    group.bench_function("full_candidate_metrics_with_rep", |b| {
        b.iter(|| candidate_metrics(&oracle, &p.truth, &p.truth_source, Some(&p.faulty_source)))
    });
    group.bench_function("fig2_aggregation_over_workload", |b| {
        b.iter(|| {
            let scores: Vec<f64> = problems
                .iter()
                .map(|p| syntax_match(&p.truth_source, &p.faulty_source))
                .collect();
            specrepair_metrics::mean(&scores).unwrap_or(0.0)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
