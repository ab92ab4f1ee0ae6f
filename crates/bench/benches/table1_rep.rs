//! Bench for Experiment E1 (Table I): REP evaluation of each technique
//! class over the bench workload.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use specrepair_bench::{bench_config, bench_problems};
use specrepair_core::OracleHandle;
use specrepair_llm::{FeedbackSetting, PromptSetting};
use specrepair_study::runner::evaluate_cell;
use specrepair_study::TechniqueId;

fn bench_table1(c: &mut Criterion) {
    let problems = bench_problems();
    let config = bench_config();
    let mut group = c.benchmark_group("table1_rep");
    group.sample_size(10);

    for (name, id) in [
        ("ARepair", TechniqueId::ARepair),
        ("ICEBAR", TechniqueId::Icebar),
        ("BeAFix", TechniqueId::BeAFix),
        ("ATR", TechniqueId::Atr),
        ("SingleRound_Loc", TechniqueId::Single(PromptSetting::Loc)),
        ("MultiRound_None", TechniqueId::Multi(FeedbackSetting::None)),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || problems[0].clone(),
                |p| evaluate_cell(&OracleHandle::fresh(), id, &p, &config),
                BatchSize::SmallInput,
            )
        });
    }
    // One full row: every technique on one spec (the Table I unit of work).
    group.bench_function("all_techniques_one_spec", |b| {
        b.iter(|| {
            TechniqueId::all()
                .into_iter()
                .map(|id| {
                    evaluate_cell(&OracleHandle::fresh(), id, &problems[1], &config).rep as usize
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
