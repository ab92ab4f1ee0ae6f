//! The `study` binary: regenerates the paper's tables and figures.
//!
//! ```text
//! study <all|table1|fig2|fig3|table2|ablation|portfolio> [--scale X]
//!       [--seed N] [--out DIR] [--journal FILE] [--resume]
//!       [--fault-rate R] [--fault-seed N] [--roster NAME] [--workers N]
//!       [--trace DIR] [--cache-dir DIR] [--no-cache]
//! ```
//!
//! `--scale 1.0` evaluates the full 1,974-spec corpus (the paper's size);
//! smaller scales shrink each domain proportionally. With `--out`, the
//! artifacts are also written as JSON next to their text renderings.
//!
//! `--journal` appends every completed (problem, technique) cell to a
//! JSONL file as the run proceeds (default: `<out>/journal.jsonl` when
//! `--out` is given); `--resume` reloads that journal, skips the finished
//! cells and regenerates byte-identical artifacts. `--fault-rate` turns on
//! deterministic LM-transport fault injection (the chaos recipe in
//! EXPERIMENTS.md).
//!
//! `--cache-dir` opens a persistent oracle verdict cache under DIR: a
//! second run over the same corpus warm-boots its verdicts from disk
//! instead of the solver, and a run killed at any point loses at most the
//! one record it was writing. The tier is behaviorally inert: artifacts
//! are byte-identical with `--cache-dir`, without it, and with
//! `--no-cache` (which disables oracle memoization entirely — the
//! slowest, most-direct baseline).
//!
//! `--trace DIR` turns on the span collector for the whole run and writes
//! the trace artifacts to DIR afterwards: `trace.json` (Chrome trace-event
//! JSON — load in `chrome://tracing` or Perfetto), `stacks.folded`
//! (flamegraph.pl / inferno input) and `phase_breakdown.txt`/`.json` (per
//! technique × problem % of attributed time in SAT vs oracle-cache vs LM
//! vs orchestration). Span ids are deterministic per cell, so traces from
//! resumed or differently-parallel runs are directly comparable.
//!
//! The oracle counters on stderr and in `cache_stats.json`,
//! `dedup_stats.json` and `incremental_stats.json` cover REP scoring as
//! well as the repairs: each cell asks REP of its problem's oracle (the
//! ground truth's results, then one verdict for the candidate).
//!
//! `portfolio` (or the `--portfolio` flag) runs the racing-portfolio study
//! instead: `--roster` picks the composition (`all`, `traditional`, `llm`,
//! or a `Portfolio_…` label), `--workers` sizes the racing pool. The JSON
//! report records the measured wall-clock speedup over the sequential
//! fallback chain and the 1-vs-N determinism check (EXPERIMENTS.md).

use specrepair_study::{
    ablation, fig2, fig3, journal, portfolio, runner, table1, table2, RosterId, StudyConfig,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = "all".to_string();
    let mut config = StudyConfig::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut journal_path: Option<PathBuf> = None;
    let mut resume = false;
    let mut roster = RosterId::All;
    let mut workers: Option<usize> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut use_cache = true;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                config.scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--seed" => {
                i += 1;
                config.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--fault-rate" => {
                i += 1;
                config.fault_rate = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .unwrap_or_else(|| die("--fault-rate needs a number in [0, 1]"));
            }
            "--fault-seed" => {
                i += 1;
                config.fault_seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--fault-seed needs an integer"));
            }
            "--journal" => {
                i += 1;
                journal_path = Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| die("--journal needs a path")),
                ));
            }
            "--resume" => resume = true,
            "--no-cache" => use_cache = false,
            "--cache-dir" => {
                i += 1;
                cache_dir = Some(PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| die("--cache-dir needs a directory")),
                ));
            }
            "--portfolio" => command = "portfolio".to_string(),
            "--roster" => {
                i += 1;
                let name = args.get(i).unwrap_or_else(|| die("--roster needs a name"));
                roster =
                    parse_roster(name).unwrap_or_else(|| die(&format!("unknown roster `{name}`")));
            }
            "--workers" => {
                i += 1;
                workers = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&w| w >= 1)
                        .unwrap_or_else(|| die("--workers needs a positive integer")),
                );
            }
            "--out" => {
                i += 1;
                out_dir = Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| die("--out needs a path")),
                ));
            }
            "--trace" => {
                i += 1;
                trace_dir = Some(PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| die("--trace needs a directory")),
                ));
            }
            c @ ("all" | "table1" | "fig2" | "fig3" | "table2" | "ablation" | "portfolio") => {
                command = c.to_string();
            }
            other => die(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("cannot create {dir:?}: {e}")));
    }
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("cannot create {dir:?}: {e}")));
        specrepair_trace::set_enabled(true);
        eprintln!("tracing ON: spans will be written to {dir:?}");
    }
    if journal_path.is_none() {
        journal_path = out_dir.as_ref().map(|d| d.join("journal.jsonl"));
    }
    if resume && journal_path.is_none() {
        die("--resume needs --journal FILE (or --out DIR)");
    }

    eprintln!(
        "generating corpora at scale {} (seed {}) ...",
        config.scale, config.seed
    );
    if config.chaos_enabled() {
        eprintln!(
            "fault injection ON: rate {} (fault seed {})",
            config.fault_rate, config.fault_seed
        );
    }
    let t0 = Instant::now();
    let problems = specrepair_benchmarks::full_study(config.scale);
    eprintln!("{} specifications in {:?}", problems.len(), t0.elapsed());

    if command == "portfolio" {
        let workers = workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        eprintln!(
            "racing {} at {} workers over {} problems ...",
            roster.label(),
            workers,
            problems.len()
        );
        let t0 = Instant::now();
        let s = portfolio::run_portfolio_study(&problems, &config, roster, workers);
        eprintln!("portfolio study done in {:?}", t0.elapsed());
        let text = portfolio::render(&s);
        println!("{text}");
        if let Some(dir) = &out_dir {
            write_artifact(&dir.join("portfolio.txt"), &text);
            write_artifact(
                &dir.join("portfolio.json"),
                &serde_json::to_string_pretty(&s).unwrap(),
            );
            eprintln!("artifacts written to {dir:?}");
        }
        if let Some(dir) = &trace_dir {
            write_trace(dir);
        }
        if !s.records_identical {
            eprintln!("error: racing and sequential records diverged (determinism violation)");
            std::process::exit(1);
        }
        return;
    }

    // Resume: reload the journal, verify it belongs to this run, and skip
    // every cell it already holds.
    let mut done: HashMap<(String, String), runner::SpecRecord> = HashMap::new();
    if resume {
        let path = journal_path.as_ref().unwrap();
        let loaded = journal::load(path)
            .unwrap_or_else(|e| die(&format!("cannot load journal {path:?}: {e}")));
        match &loaded.header {
            Some(h) if h.config.same_run(&config) => {}
            Some(_) => die("journal was written by a different configuration; not resuming"),
            None => die("journal has no readable header; not resuming"),
        }
        if loaded.malformed > 0 {
            eprintln!(
                "journal: skipped {} malformed line(s) (torn tail from a killed run)",
                loaded.malformed
            );
        }
        done = loaded.done_cells();
        eprintln!(
            "resuming: {} of {} cells already journaled",
            done.len(),
            problems.len() * 12
        );
    }
    let journal = journal_path.as_ref().map(|path| {
        if resume {
            journal::StudyJournal::append_to(path)
        } else {
            journal::StudyJournal::create(path, &config, problems.len())
        }
        .unwrap_or_else(|e| die(&format!("cannot open journal {path:?}: {e}")))
    });

    if !use_cache {
        eprintln!("oracle cache OFF (--no-cache)");
    }
    // The persistent verdict tier. An unopenable directory degrades to a
    // warning — the study itself must never be blocked by a bad disk.
    let persist_cache =
        cache_dir
            .as_ref()
            .and_then(|dir| match specrepair_cache::PersistentCache::open(dir) {
                Ok(cache) => {
                    eprintln!(
                        "persistent cache: {} verdict(s) preloaded from {dir:?}",
                        cache.preloaded()
                    );
                    Some(std::sync::Arc::new(cache))
                }
                Err(e) => {
                    eprintln!(
                        "warning: cannot open cache dir {dir:?}: {e}; running without persistence"
                    );
                    None
                }
            });
    let persist_store = persist_cache
        .clone()
        .map(|cache| cache as std::sync::Arc<dyn specrepair_core::VerdictStore>);
    let t0 = Instant::now();
    let (results, run_stats) = runner::run_study_persistent(
        &problems,
        &config,
        use_cache,
        journal.as_ref(),
        &done,
        persist_store.as_ref(),
    );
    eprintln!(
        "evaluated {} (problem, technique) pairs in {:?}",
        results.records.len(),
        t0.elapsed()
    );
    let crashed = results
        .records
        .iter()
        .filter(|r| r.reason == specrepair_core::OutcomeReason::Crashed)
        .count();
    eprintln!("crashed cells: {crashed}");
    let cache_stats = run_stats.cache;
    eprintln!(
        "oracle cache: {} hits / {} misses ({:.1}% hit rate), {} solver invocations",
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.hit_rate() * 100.0,
        cache_stats.solver_invocations
    );
    let dedup_stats = run_stats.dedup;
    eprintln!(
        "candidate dedup: {} hits / {} misses ({:.1}% dedup rate), {} coalesced in-flight",
        dedup_stats.hits,
        dedup_stats.misses,
        dedup_stats.dedup_rate() * 100.0,
        dedup_stats.coalesced
    );
    let mut incr_stats = run_stats.incremental;
    eprintln!(
        "incremental oracle: {} sessions, {} checks ({} fallbacks), {:.1}% clause reuse, \
         {} learned clauses retained",
        incr_stats.sessions,
        incr_stats.checks,
        incr_stats.fallbacks,
        incr_stats.clause_reuse_rate() * 100.0,
        incr_stats.learned_clauses_retained
    );
    eprintln!("(oracle counters include REP scoring queries)");
    // Seal the persistent log (compact if the disk view drifted, then
    // fsync) before reporting: everything the run computed is durable.
    if let Some(cache) = &persist_cache {
        cache.seal();
        let s = cache.stats();
        eprintln!(
            "persistent cache: {} preloaded, {} hits / {} lookups, {} appended \
             ({} quarantined, {} compactions{})",
            s.preloaded,
            s.hits,
            s.lookups,
            s.appends,
            s.quarantined,
            s.compactions,
            if s.degraded { ", DEGRADED" } else { "" }
        );
    }

    let emit = |name: &str, text: &str, json: String| {
        println!("{text}");
        if let Some(dir) = &out_dir {
            write_artifact(&dir.join(format!("{name}.txt")), text);
            write_artifact(&dir.join(format!("{name}.json")), &json);
        }
    };

    if command == "all" || command == "table1" {
        let t = table1::build(&results);
        emit(
            "table1",
            &table1::render(&t),
            serde_json::to_string_pretty(&t).unwrap(),
        );
    }
    if command == "all" || command == "fig2" {
        let f = fig2::build(&results);
        emit(
            "fig2",
            &fig2::render(&f),
            serde_json::to_string_pretty(&f).unwrap(),
        );
    }
    if command == "all" || command == "fig3" {
        let f = fig3::build(&results);
        emit(
            "fig3",
            &fig3::render(&f),
            serde_json::to_string_pretty(&f).unwrap(),
        );
    }
    if command == "all" || command == "table2" {
        let t = table2::build(&results);
        let mut text = table2::render(&t);
        text.push('\n');
        text.push_str(&table2::render_venn(&t));
        emit(
            "table2_fig4",
            &text,
            serde_json::to_string_pretty(&t).unwrap(),
        );
    }
    if command == "all" || command == "ablation" {
        // The ablation runs extra techniques; bound it to a manageable
        // subsample (every 8th problem) at large scales.
        let sample: Vec<_> = problems
            .iter()
            .step_by(if problems.len() > 200 { 8 } else { 1 })
            .cloned()
            .collect();
        let a = ablation::run(&sample, &config);
        // Fold the ablation oracles' incremental counters into the run
        // totals so `incremental_stats.json` reconciles exactly with the
        // `sat.incremental_check` spans in the trace.
        incr_stats.absorb(&a.incremental);
        emit(
            "ablation",
            &ablation::render(&a),
            serde_json::to_string_pretty(&a).unwrap(),
        );
    }
    if let Some(dir) = &out_dir {
        write_artifact(
            &dir.join("records.json"),
            &serde_json::to_string(&results).unwrap(),
        );
        write_artifact(
            &dir.join("cache_stats.json"),
            &serde_json::to_string_pretty(&cache_stats).unwrap(),
        );
        write_artifact(
            &dir.join("dedup_stats.json"),
            &serde_json::to_string_pretty(&dedup_stats).unwrap(),
        );
        write_artifact(
            &dir.join("incremental_stats.json"),
            &serde_json::to_string_pretty(&incr_stats).unwrap(),
        );
        eprintln!("artifacts written to {dir:?}");
    }
    if let Some(dir) = &trace_dir {
        write_trace(dir);
    }
}

/// Drains the span collector and writes the four trace artifacts: the
/// Chrome trace, the folded flamegraph stacks and the per-phase breakdown
/// table in both renderings.
fn write_trace(dir: &std::path::Path) {
    use specrepair_trace as trace;
    trace::set_enabled(false);
    let spans = trace::take_spans();
    eprintln!("trace: {} spans collected", spans.len());
    write_artifact(&dir.join("trace.json"), &trace::chrome_trace_json(&spans));
    write_artifact(&dir.join("stacks.folded"), &trace::folded_stacks(&spans));
    let breakdown = trace::phase_breakdown(&spans);
    let txt = trace::render_breakdown_txt(&breakdown);
    eprint!("{txt}");
    write_artifact(&dir.join("phase_breakdown.txt"), &txt);
    write_artifact(
        &dir.join("phase_breakdown.json"),
        &trace::render_breakdown_json(&breakdown),
    );
    eprintln!("trace artifacts written to {dir:?}");
}

/// Writes one artifact, aborting loudly on failure: a full-corpus run must
/// never silently leave an empty or partial `results/` behind.
fn write_artifact(path: &std::path::Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write artifact {path:?}: {e}");
        std::process::exit(1);
    }
}

/// Resolves a roster name: the full `Portfolio_…` label or its
/// case-insensitive suffix (`all`, `traditional`, `llm`, …).
fn parse_roster(name: &str) -> Option<RosterId> {
    RosterId::ALL.into_iter().find(|r| {
        let label = r.label();
        let short = label.strip_prefix("Portfolio_").unwrap_or(label);
        label.eq_ignore_ascii_case(name) || short.eq_ignore_ascii_case(name)
    })
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: study <all|table1|fig2|fig3|table2|ablation|portfolio> [--scale X] [--seed N] \
         [--out DIR] [--journal FILE] [--resume] [--fault-rate R] [--fault-seed N] \
         [--roster NAME] [--workers N] [--trace DIR] [--cache-dir DIR] [--no-cache]\n\
         oracle counters (stderr, *_stats.json) include REP scoring queries"
    );
    std::process::exit(2);
}
