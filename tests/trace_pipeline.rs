//! Integration: tracing a smoke-scale study produces parseable exporter
//! artifacts whose per-phase attribution reconciles with the cells'
//! wall-clock, whose root span ids are the deterministic function of the
//! cell seed that `--resume` comparisons rely on, and whose incremental
//! checks reconcile exactly with the run's statistics. A roster cell opens
//! one root, as every other cell does.
//!
//! This binary holds a single test: the span collector is process-global,
//! so a second concurrently-running test would interleave spans.

use std::collections::HashSet;

use serde::Value;
use specrepair_core::OracleHandle;
use specrepair_study::{runner, RosterId, StudyConfig, TechniqueId};
use specrepair_trace as trace;

#[test]
fn traced_study_exports_parse_and_reconcile() {
    trace::set_enabled(true);
    let config = StudyConfig {
        scale: 0.003,
        seed: 7,
        ..StudyConfig::default()
    };
    // Corpus generation runs traced too: its oracle solves cold, so every
    // `sat.incremental_check` span below belongs to the study run.
    let problems = specrepair_benchmarks::full_study(config.scale);
    let (results, stats) = runner::run_study_cached(&problems, &config, true);
    trace::set_enabled(false);
    let spans = trace::take_spans();
    assert_eq!(results.records.len(), problems.len() * 12);
    assert!(!spans.is_empty(), "a traced study must produce spans");

    // Root span ids are pure functions of the cell seed: every
    // (problem, technique) cell's root is exactly where the id formula
    // says it is, so traces from reruns and resumes line up.
    let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for problem in &problems {
        for id in TechniqueId::all() {
            let root = trace::root_span_id(config.cell_seed_for(&problem.id, id.label()));
            assert!(
                ids.contains(&root),
                "missing deterministic root span for {} / {}",
                problem.id,
                id.label()
            );
        }
    }

    // Every incremental check is one span, and the run's statistics count
    // every engine the run used: the two must agree exactly.
    let checks = spans
        .iter()
        .filter(|s| s.name == "sat.incremental_check")
        .count() as u64;
    assert!(
        stats.incremental.checks > 0,
        "no incremental checks: {stats:?}"
    );
    assert!(stats.incremental.clause_reuse_rate() > 0.0, "{stats:?}");
    assert_eq!(
        checks, stats.incremental.checks,
        "`sat.incremental_check` spans vs counted checks"
    );
    assert!(
        stats.dedup.hits > 0,
        "no verdict was answered without a solve: {stats:?}"
    );

    // The span taxonomy reaches every layer: solver, oracle, technique.
    let names: HashSet<&str> = spans.iter().map(|s| s.name).collect();
    for expected in ["cell", "sat.solve", "technique.oracle_check"] {
        assert!(
            names.contains(expected),
            "no `{expected}` span in {names:?}"
        );
    }

    // Chrome trace JSON parses, and carries one "X" event per span.
    let chrome = trace::chrome_trace_json(&spans);
    let doc: Value = serde_json::from_str(&chrome).expect("chrome trace must be valid JSON");
    let Value::Map(doc) = doc else {
        panic!("chrome trace is not an object")
    };
    let Some((_, Value::Seq(events))) = doc.iter().find(|(k, _)| k == "traceEvents") else {
        panic!("chrome trace has no traceEvents array")
    };
    let complete_events = events
        .iter()
        .filter(|e| match e {
            Value::Map(fields) => fields
                .iter()
                .any(|(k, v)| k == "ph" && matches!(v, Value::Str(s) if s == "X")),
            _ => false,
        })
        .count();
    assert_eq!(complete_events, spans.len());

    // Folded stacks: every line is `frame(;frame)* <micros>`.
    let folded = trace::folded_stacks(&spans);
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, micros) = line.rsplit_once(' ').expect("folded line has a value");
        assert!(!stack.is_empty());
        micros.parse::<u64>().expect("folded value is integral µs");
    }
    assert!(
        folded.contains("cell:"),
        "roots are labelled with techniques"
    );

    // Phase breakdown: one aggregate row per technique, percentages sum
    // to ~100, and attributed time reconciles with the cells' wall-clock
    // within 5% (single-threaded cells are exactly partitioned; the
    // tolerance leaves room for clamping on degenerate timings).
    let breakdown = trace::phase_breakdown(&spans);
    assert_eq!(breakdown.techniques.len(), 12);
    assert_eq!(breakdown.cells.len(), problems.len() * 12);
    for row in &breakdown.techniques {
        assert!(row.wall_ms > 0.0, "{}: zero wall-clock", row.technique);
        let pct_sum: f64 = row.phase_pct.iter().sum();
        assert!(
            (pct_sum - 100.0).abs() < 0.5,
            "{}: phase percentages sum to {pct_sum}",
            row.technique
        );
        let drift = (row.attributed_ms - row.wall_ms).abs() / row.wall_ms;
        assert!(
            drift < 0.05,
            "{}: attributed {} ms vs wall {} ms ({}% drift)",
            row.technique,
            row.attributed_ms,
            row.wall_ms,
            drift * 100.0
        );
    }

    // Both breakdown renderers emit non-trivial artifacts.
    let txt = trace::render_breakdown_txt(&breakdown);
    assert!(txt.contains("technique"));
    let json = trace::render_breakdown_json(&breakdown);
    serde_json::from_str::<Value>(&json).expect("breakdown JSON must parse");

    // A roster cell has one root, like any other cell: the race and its
    // entrants hang below the `cell` span the dispatch opened.
    let roster = TechniqueId::Portfolio(RosterId::Traditional);
    trace::set_enabled(true);
    let record = runner::evaluate_cell(&OracleHandle::fresh(), roster, &problems[0], &config);
    trace::set_enabled(false);
    let spans = trace::take_spans();
    assert_eq!(record.technique, roster.label());
    let roots: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "cell")
        .map(|s| s.id)
        .collect();
    let root = trace::root_span_id(config.cell_seed_for(&problems[0].id, roster.label()));
    assert_eq!(roots, [root], "a roster cell opens exactly one root");
    assert!(
        spans.iter().any(|s| s.name == "portfolio.entrant"),
        "no entrant spans under the roster cell"
    );
}
