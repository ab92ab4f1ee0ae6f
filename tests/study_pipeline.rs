//! Integration: the full study pipeline regenerates all paper artifacts at
//! smoke scale with internally consistent numbers.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mualloy_syntax::Fingerprint;
use specrepair_core::VerdictStore;
use specrepair_study::{ablation, fig2, fig3, runner, table1, table2, StudyConfig, TechniqueId};

fn smoke() -> (
    Vec<specrepair_benchmarks::RepairProblem>,
    runner::StudyResults,
) {
    runner::run_full_study(&StudyConfig {
        scale: 0.004,
        seed: 21,
        ..StudyConfig::default()
    })
}

#[test]
fn all_artifacts_build_from_one_run() {
    let (problems, results) = smoke();

    // Table I.
    let t1 = table1::build(&results);
    assert_eq!(t1.rows.last().unwrap().total_specs, problems.len());
    let text = table1::render(&t1);
    for needle in [
        "classroom",
        "graphs",
        "trash",
        "student",
        "Summary",
        "Total",
    ] {
        assert!(text.contains(needle), "table1 missing {needle}");
    }

    // Figure 2.
    let f2 = fig2::build(&results);
    assert_eq!(f2.bars.len(), 12);

    // Figure 3.
    let f3 = fig3::build(&results);
    assert_eq!(f3.samples, problems.len());
    // Traditional tools correlate strongly with one another (Finding 3).
    if let Some(r) = f3.correlation("ICEBAR", "ATR") {
        assert!(
            r > 0.0,
            "ICEBAR/ATR correlation should be positive, got {r}"
        );
    }

    // Table II + Figure 4.
    let t2 = table2::build(&results);
    assert_eq!(t2.rows.len(), 32);
    let best = t2.best().unwrap();
    assert!(best.total_unique <= problems.len());
    // Every hybrid's count matches a recount from the rep vectors.
    for row in &t2.rows {
        let tv = results.rep_vector(&row.traditional);
        let lv = results.rep_vector(&row.llm);
        let union = tv.iter().zip(&lv).filter(|(a, b)| **a || **b).count();
        assert_eq!(union, row.total_unique);
    }

    // Table II's per-technique columns agree with Table I's totals.
    let t1_total = t1.rows.last().unwrap();
    for (i, id) in TechniqueId::all().iter().enumerate() {
        let from_rows = results.rep_count(id.label(), None);
        assert_eq!(t1_total.rep[i], from_rows);
    }
}

#[test]
fn hybrids_beat_their_constituents_in_aggregate() {
    let (_, results) = smoke();
    let t2 = table2::build(&results);
    for row in &t2.rows {
        assert!(row.total_unique >= row.traditional_repairs);
        assert!(row.total_unique >= row.llm_repairs);
    }
}

#[test]
fn ablation_runs_on_a_subsample() {
    let problems = specrepair_benchmarks::arepair(0.2);
    let a = ablation::run(
        &problems,
        &StudyConfig {
            scale: 0.2,
            seed: 21,
            ..StudyConfig::default()
        },
    );
    assert_eq!(a.arms.len(), 3);
    assert!(a.arms.iter().all(|arm| arm.repaired <= a.total_specs));
}

/// An in-memory verdict tier shared by every per-problem oracle of a run.
#[derive(Default)]
struct MapTier(Mutex<HashMap<Fingerprint, bool>>);

impl VerdictStore for MapTier {
    fn lookup(&self, key: Fingerprint) -> Option<bool> {
        self.0.lock().unwrap().get(&key).copied()
    }

    fn record(&self, key: Fingerprint, verdict: bool) {
        self.0.lock().unwrap().insert(key, verdict);
    }
}

#[test]
fn cached_study_is_byte_identical_to_uncached() {
    // The oracle must be a pure performance layer: the default oracle
    // (memo, singleflight, incremental solving) and the same run served
    // by a verdict tier must produce the results of the disabled
    // reference arm to the byte, while each layer actually answers.
    let problems = specrepair_benchmarks::full_study(0.003);
    let config = StudyConfig {
        scale: 0.003,
        seed: 17,
        ..StudyConfig::default()
    };
    let json = |results: &runner::StudyResults| serde_json::to_string(results).unwrap();
    let (reference, stats_off) = runner::run_study_cached(&problems, &config, false);
    let (cached, stats_on) = runner::run_study_cached(&problems, &config, true);
    assert_eq!(
        json(&cached),
        json(&reference),
        "oracle caching changed study results"
    );
    let (cache_on, cache_off) = (stats_on.cache, stats_off.cache);
    assert!(cache_on.hits > 0, "cached run never hit the memo table");
    assert!(cache_on.hit_rate() > 0.0);
    assert!(
        stats_on.dedup.hits > 0,
        "no verdict was answered without a solve"
    );
    assert!(
        stats_on.incremental.checks > 0,
        "no verdict solved incrementally"
    );
    assert_eq!(cache_off.hits, 0, "disabled cache must never report hits");
    assert_eq!(
        stats_off.incremental.checks, 0,
        "the reference arm has no engine"
    );
    assert!(
        cache_on.solver_invocations < cache_off.solver_invocations,
        "caching should save solver invocations ({} vs {})",
        cache_on.solver_invocations,
        cache_off.solver_invocations
    );

    // A first run fills the shared tier; a second run is served by it.
    let tier: Arc<dyn VerdictStore> = Arc::new(MapTier::default());
    let done = HashMap::new();
    for pass in ["filling", "served"] {
        let (tiered, stats) =
            runner::run_study_persistent(&problems, &config, true, None, &done, Some(&tier));
        assert_eq!(
            json(&tiered),
            json(&reference),
            "the {pass} verdict tier changed study results"
        );
        if pass == "served" {
            assert!(stats.cache.persist_hits > 0, "the tier served no verdict");
        }
    }
}

#[test]
fn records_serialize_to_json() {
    let (_, results) = runner::run_full_study(&StudyConfig {
        scale: 0.002,
        seed: 3,
        ..StudyConfig::default()
    });
    let json = serde_json::to_string(&results).unwrap();
    let back: runner::StudyResults = serde_json::from_str(&json).unwrap();
    assert_eq!(back.records.len(), results.records.len());
}
