//! `e2e`: the end-to-end benchmark of the study pipeline and the
//! `specrepaird` repair service, with per-layer attribution.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--repeat N]
//! ```
//!
//! With `--workload`, one workload runs in this process. It prints one
//! `<workload> <metric> <value> <unit>` line per metric (`n=<samples>`
//! follows a percentile) and, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! A traced run measures the workload untraced first, then again with the
//! span collector on, so the tracing overhead is a metric of its own.
//!
//! Without `--workload`, every workload of `BENCHMARK.json` runs in a child
//! process of its own, so peak memory and the process-wide trace flag
//! belong to one workload. `--repeat N` runs each of them N times, at the
//! given seed and the N − 1 after it, and prints the median, quartiles and
//! spreads of every metric: the numbers the regression bounds in
//! `BENCHMARK.json` are calibrated on.
//!
//! See `README.md` in this directory for the workloads and metrics.

mod digest;
mod host;
mod layers;
mod serve;
mod service;
mod stats;
mod study;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use specrepair_trace::SpanRecord;

use crate::host::HostProbe;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the workloads in `BENCHMARK.json`: every traced
/// run of one reports each of them, 0 where the workload does not run the
/// layer. `.cold`/`.warm` name a service sweep.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("benchmarks.corpus_ms", "ms"),
    ("study.parallel_efficiency", "ratio"),
    ("study.cell_p50_ms", "ms"),
    ("study.cell_p99_ms", "ms"),
    ("study.cell_self_ms", "ms"),
    ("study.rep_total", "count"),
    ("sat.solve_ms", "ms"),
    ("sat.solves", "count"),
    ("sat.incremental_ms", "ms"),
    ("sat.incremental_checks", "count"),
    ("analyzer.oracle_ms", "ms"),
    ("analyzer.oracle_hit_rate", "ratio"),
    ("analyzer.solver_invocations", "count"),
    ("analyzer.incremental_reuse", "ratio"),
    ("analyzer.incremental_fallbacks", "count"),
    ("analyzer.enumerate_ms", "ms"),
    ("analyzer.enumerations", "count"),
    ("core.dedup_rate", "ratio"),
    ("core.localization_ms", "ms"),
    ("traditional.mutation_ms", "ms"),
    ("traditional.candidates", "count"),
    ("traditional.rep_per_kcandidate", "per_1000"),
    ("llm.round_ms", "ms"),
    ("llm.rounds", "count"),
    ("llm.feedback_ms", "ms"),
    ("syntax.parse_us", "us"),
    ("syntax.fingerprint_us", "us"),
    ("analyzer.cold_verdict_us", "us"),
    ("analyzer.warm_verdict_us", "us"),
    ("trace.overhead_pct", "%"),
    ("server.cold_handle_p50_ms", "ms"),
    ("server.cold_handle_p99_ms", "ms"),
    ("server.handle_p99_ms", "ms"),
    ("analyzer.oracle_hit_rate.cold", "ratio"),
    ("analyzer.oracle_hit_rate.warm", "ratio"),
    ("analyzer.solver_invocations.cold", "count"),
    ("analyzer.solver_invocations.warm", "count"),
    ("core.dedup_rate.cold", "ratio"),
    ("core.dedup_rate.warm", "ratio"),
    ("analyzer.incremental_checks.cold", "count"),
    ("analyzer.incremental_checks.warm", "count"),
    ("host.kernel_us", "us"),
    ("host.wall_throughput_per_s", "1/s"),
];

/// Per-layer metrics of the daemon workloads, which run by hand only.
/// `.cold`/`.warm` name a pass.
pub const DAEMON_LAYERS: &[(&str, &str)] = &[
    ("benchmarks.corpus_ms", "ms"),
    ("syntax.parse_us", "us"),
    ("syntax.fingerprint_us", "us"),
    ("analyzer.cold_verdict_us", "us"),
    ("analyzer.warm_verdict_us", "us"),
    ("trace.overhead_pct", "%"),
    ("server.requests.cold", "count"),
    ("server.requests.warm", "count"),
    ("server.shed.cold", "count"),
    ("server.shed.warm", "count"),
    ("server.deadline_exceeded.cold", "count"),
    ("server.deadline_exceeded.warm", "count"),
    ("server.handle_p50_ms", "ms"),
    ("server.handle_p99_ms", "ms"),
    ("server.transport_p50_ms", "ms"),
    ("analyzer.oracle_hit_rate.cold", "ratio"),
    ("analyzer.oracle_hit_rate.warm", "ratio"),
    ("analyzer.solver_invocations.cold", "count"),
    ("analyzer.solver_invocations.warm", "count"),
    ("core.dedup_rate.cold", "ratio"),
    ("core.dedup_rate.warm", "ratio"),
    ("analyzer.incremental_checks.cold", "count"),
    ("analyzer.incremental_checks.warm", "count"),
    ("sat.busy_ms.cold", "ms"),
    ("sat.busy_ms.warm", "ms"),
    ("analyzer.oracle_busy_ms.cold", "ms"),
    ("analyzer.oracle_busy_ms.warm", "ms"),
    ("llm.busy_ms.cold", "ms"),
    ("llm.busy_ms.warm", "ms"),
    ("study.orchestration_busy_ms.cold", "ms"),
    ("study.orchestration_busy_ms.warm", "ms"),
    ("cluster.remote_puts.cold", "count"),
    ("cluster.remote_puts.warm", "count"),
    ("cluster.remote_hits.cold", "count"),
    ("cluster.remote_hits.warm", "count"),
    ("cluster.remote_lookups.cold", "count"),
    ("cluster.remote_lookups.warm", "count"),
    ("cluster.remote_transport_errors.cold", "count"),
    ("cluster.remote_transport_errors.warm", "count"),
    ("cluster.remote_retries.cold", "count"),
    ("cluster.remote_retries.warm", "count"),
    ("router.forwarded.cold", "count"),
    ("router.forwarded.warm", "count"),
    ("router.retries.cold", "count"),
    ("router.retries.warm", "count"),
    ("router.failures.cold", "count"),
    ("router.failures.warm", "count"),
    ("router.degraded_local_solves.cold", "count"),
    ("router.degraded_local_solves.warm", "count"),
    ("loadgen.cold_p50_ms", "ms"),
    ("loadgen.cold_p99_ms", "ms"),
    ("loadgen.warm_p99_ms", "ms"),
    ("loadgen.late_p50_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
];

/// Set-ups per run; their median is `setup_s`. Enough that the slower
/// first ones, in a fresh process, cannot be the median.
pub const SETUPS: usize = 7;

/// The workloads of `BENCHMARK.json`, in suite order.
pub const WORKLOADS: &[&str] = &["study_table1", "study_traditional", "service_zipf"];

/// The daemon workloads over HTTP, run by hand with `--workload`; see
/// [`serve`] for why they carry no bound.
pub const DAEMON_WORKLOADS: &[&str] = &["serve_zipf_1node", "serve_zipf_3shard"];

/// Every metric of every catalog once, end-to-end first.
fn all_metrics() -> Vec<(&'static str, &'static str)> {
    let mut seen = std::collections::BTreeSet::new();
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(DAEMON_LAYERS)
        .filter(|(name, _)| seen.insert(*name))
        .copied()
        .collect()
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: the study's LLM seed or the load generator's seed.
    pub seed: u64,
    /// How long the measurement lasts.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where to write `metrics.json` and `trace.json`.
    pub out: Option<PathBuf>,
}

/// One reported value, with the sample count behind a percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The value as measured.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: Option<usize>,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric readings by name.
    pub metrics: BTreeMap<&'static str, Reading>,
    /// Operations attempted: study cells or `/repair` requests.
    pub attempted: u64,
    /// Operations that failed: crashed cells, non-200 responses and
    /// transport errors.
    pub failed: u64,
    /// Failed correctness gates, described.
    pub failures: Vec<String>,
    /// Output digests, for comparing runs by hand.
    pub digests: Vec<(&'static str, u64)>,
    /// Spans to write to `trace.json`.
    pub spans: Vec<SpanRecord>,
}

/// The catalog's own name for `name`: every metric a workload records must
/// be declared in [`END_TO_END`], [`PER_LAYER`] or [`DAEMON_LAYERS`].
fn declared(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(DAEMON_LAYERS)
        .map(|&(n, _)| n)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

impl Report {
    /// Records a plain value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(
            declared(name),
            Reading {
                value,
                samples: None,
            },
        );
    }

    /// Records a percentile; an unsupported one (too few samples beyond
    /// it) is left out.
    pub fn set_percentile(&mut self, name: &str, p: Option<stats::Percentile>) {
        if let Some(p) = p {
            self.metrics.insert(
                declared(name),
                Reading {
                    value: p.value,
                    samples: Some(p.samples),
                },
            );
        }
    }

    /// Records a failed gate unless `ok`.
    pub fn gate(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }

    /// The value of a recorded metric (`NaN` when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(f64::NAN, |r| r.value)
    }
}

/// Peak resident set size of this process in megabytes (10^6 bytes):
/// the kernel's `VmHWM`, which, unlike `getrusage`'s `ru_maxrss`, does not
/// carry over the footprint of the process that exec'd this one (cargo,
/// when run through `cargo run`). `NaN` where the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib * 1024.0 / 1e6)
        })
        .unwrap_or(f64::NAN)
}

fn json_escape(s: &str) -> String {
    let mut out = String::new();
    specrepair_server::service::push_json_string(s, &mut out);
    out
}

/// The metrics a run of this kind reports, with their units.
fn catalog(workload: &str, trace: bool) -> &'static [(&'static str, &'static str)] {
    match (trace, DAEMON_WORKLOADS.contains(&workload)) {
        (false, _) => END_TO_END,
        (true, false) => PER_LAYER,
        (true, true) => DAEMON_LAYERS,
    }
}

/// Prints the report and writes it under `--out`; returns whether every
/// gate passed.
fn emit(workload: &str, opts: &Opts, mut report: Report) -> bool {
    for &(name, _) in catalog(workload, opts.trace) {
        match report.metrics.get(name) {
            Some(r) if !r.value.is_finite() => {
                report
                    .failures
                    .push(format!("{name} is not a finite number"));
            }
            None if !opts.trace => report.failures.push(format!("{name} was not measured")),
            _ => {}
        }
    }
    let measured: Vec<(&str, &str)> = all_metrics()
        .into_iter()
        .filter(|(name, _)| report.metrics.contains_key(name))
        .collect();
    let mut lines = String::new();
    for &(name, unit) in &measured {
        let r = report.metrics[name];
        let _ = write!(lines, "{workload} {name} {} {unit}", r.value);
        if let Some(n) = r.samples {
            let _ = write!(lines, " n={n}");
        }
        lines.push('\n');
    }
    for (name, digest) in &report.digests {
        let _ = writeln!(lines, "{workload} {name} 0x{digest:016x} fnv1a64");
    }
    for failure in &report.failures {
        eprintln!("{workload}: check failed: {failure}");
    }
    let correct = report.failures.is_empty();
    // A per-layer metric the workload does not measure reads 0. The result
    // line carries value and unit only; `metrics.json` adds the sample
    // count behind a percentile.
    let metric_json = |names: &[(&str, &str)], with_n: bool| {
        names
            .iter()
            .map(|&(name, unit)| {
                let r = report.metrics.get(name).copied().unwrap_or(Reading {
                    value: 0.0,
                    samples: None,
                });
                let value = if r.value.is_finite() { r.value } else { 0.0 };
                let n = r
                    .samples
                    .filter(|_| with_n)
                    .map(|n| format!(", \"n\": {n}"))
                    .unwrap_or_default();
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}{n}}}",
                    json_escape(name),
                    json_escape(unit)
                )
            })
            .collect::<Vec<_>>()
    };
    print!("{lines}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metric_json(catalog(workload, opts.trace), false).join(", ")
    );
    if let Some(out) = &opts.out {
        let dir = out.join(workload);
        let digests: Vec<String> = report
            .digests
            .iter()
            .map(|(name, d)| format!("    {}: \"0x{d:016x}\"", json_escape(name)))
            .collect();
        let doc = format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
             \"correct\": {correct},\n  \"attempted\": {},\n  \"failed\": {},\n  \
             \"digests\": {{\n{}\n  }},\n  \"metrics\": {{\n    {}\n  }}\n}}\n",
            json_escape(workload),
            opts.seed,
            opts.seconds.as_secs_f64(),
            opts.trace,
            report.attempted,
            report.failed,
            digests.join(",\n"),
            metric_json(&measured, true).join(",\n    ")
        );
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join("metrics.json"), doc))
            .and_then(|()| {
                if report.spans.is_empty() {
                    return Ok(());
                }
                std::fs::write(
                    dir.join("trace.json"),
                    specrepair_trace::chrome_trace_json(&report.spans),
                )
            });
        if let Err(e) = written {
            eprintln!(
                "{workload}: cannot write results under {}: {e}",
                dir.display()
            );
            return false;
        }
    }
    correct
}

/// Runs one workload in this process.
fn run_one(workload: &str, opts: &Opts) -> bool {
    let mut report = match workload {
        // The runner spreads `study_table1` over threads of its own; the
        // other two work on this thread, which times the kernel in between.
        "study_table1" => study::run(study::Kind::Table1, opts, &HostProbe::sampled()),
        "study_traditional" => study::run(study::Kind::Traditional, opts, &HostProbe::inline()),
        "service_zipf" => service::run(opts, &HostProbe::inline()),
        "serve_zipf_1node" => serve::run(serve::Topology::Single, opts),
        "serve_zipf_3shard" => serve::run(serve::Topology::Sharded(3), opts),
        other => unreachable!("workload {other} was validated by the parser"),
    };
    if !report.metrics.contains_key("peak_rss_mb") {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    emit(workload, opts, report)
}

/// Runs one workload in a child process of this executable; returns its
/// stdout metric lines and whether it passed.
fn run_child(
    workload: &str,
    opts: &Opts,
    out: Option<&Path>,
) -> Result<(Vec<(String, f64)>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.as_secs_f64().to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(out) = out {
        cmd.arg("--out").arg(out);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut readings = Vec::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [_, metric, value, ..] = fields[..] {
            if let Ok(v) = value.parse::<f64>() {
                readings.push((metric.to_string(), v));
            }
        }
    }
    let correct = text
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\": true"));
    for line in text.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    Ok((readings, output.status.success() && correct))
}

/// Runs workloads in child processes, `repeat` times each at successive
/// seeds; with `repeat > 1` prints each metric's spread.
fn run_suite(workloads: &[&str], opts: &Opts, repeat: usize) -> bool {
    let mut ok = true;
    for &workload in workloads {
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..repeat {
            let run = Opts {
                seed: opts.seed + i as u64,
                ..opts.clone()
            };
            let out = opts.out.as_ref().map(|d| {
                if repeat > 1 {
                    d.join(format!("seed{}", run.seed))
                } else {
                    d.clone()
                }
            });
            match run_child(workload, &run, out.as_deref()) {
                Ok((readings, passed)) => {
                    ok &= passed;
                    for (metric, value) in readings {
                        series.entry(metric).or_default().push(value);
                    }
                }
                Err(why) => {
                    eprintln!("{workload}: {why}");
                    ok = false;
                }
            }
        }
        if repeat > 1 {
            println!(
                "# {workload}: {repeat} runs, seeds {}..={}",
                opts.seed,
                opts.seed + repeat as u64 - 1
            );
            println!("# metric median q1 q3 iqr/median (max-min)/median unit");
            for (metric, unit) in all_metrics() {
                let Some(values) = series.get(metric) else {
                    continue;
                };
                let median = stats::median(values);
                let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
                let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let share = |x: f64| if median == 0.0 { 0.0 } else { x / median.abs() };
                println!(
                    "{workload} {metric} {median} {q1} {q3} {:.4} {:.4} {unit}",
                    share(q3 - q1),
                    share(hi - lo)
                );
            }
        }
    }
    ok
}

fn usage(why: &str) -> ExitCode {
    eprintln!(
        "e2e: {why}\nusage: e2e [--workload {}] [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR] [--repeat N]",
        WORKLOADS
            .iter()
            .chain(DAEMON_WORKLOADS)
            .copied()
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload: Option<&'static str> = None;
    let mut opts = Opts {
        seed: 42,
        seconds: Duration::from_secs(20),
        trace: false,
        out: None,
    };
    let mut repeat = 1usize;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag {
            "--workload" => match WORKLOADS
                .iter()
                .chain(DAEMON_WORKLOADS)
                .find(|w| **w == value)
            {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(n) => opts.seed = n,
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => opts.seconds = Duration::from_secs_f64(s),
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--out" => opts.out = Some(PathBuf::from(value)),
            "--repeat" => match value.parse() {
                Ok(n) if n > 0 => repeat = n,
                _ => return usage("--repeat takes a positive integer"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let passed = match workload {
        Some(w) if repeat == 1 => run_one(w, &opts),
        Some(w) => run_suite(&[w], &opts, repeat),
        None => run_suite(WORKLOADS, &opts, repeat),
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric catalogs here are the ones `BENCHMARK.json` declares.
    #[test]
    fn catalogs_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc: serde::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let serde::Value::Map(top) = doc else {
            panic!("BENCHMARK.json is an object");
        };
        // `(name, second)` of every entry under `key`.
        let entries = |key: &str, second: &str| -> Vec<(String, String)> {
            let Ok(serde::Value::Seq(items)) = serde::field(&top, key) else {
                panic!("{key} is a list");
            };
            items
                .iter()
                .map(|item| {
                    let serde::Value::Map(m) = item else {
                        panic!("{key} entries are objects");
                    };
                    let s = |k: &str| match serde::field(m, k) {
                        Ok(serde::Value::Str(s)) => s.clone(),
                        _ => panic!("{key}.{k} is a string"),
                    };
                    (s("name"), s(second))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries("end_to_end", "unit"), own(END_TO_END));
        assert_eq!(entries("per_layer", "unit"), own(PER_LAYER));
        let names: Vec<String> = entries("workloads", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    /// A metric both per-layer catalogs declare means the same in both.
    #[test]
    fn shared_layer_metrics_agree_on_units() {
        for (name, unit) in DAEMON_LAYERS {
            if let Some((_, other)) = PER_LAYER.iter().find(|(n, _)| n == name) {
                assert_eq!(unit, other, "{name}");
            }
        }
    }
}
