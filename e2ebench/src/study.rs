//! The study workloads: the paper pipeline that regenerates Table I, and
//! the four traditional techniques on their own.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use mualloy_analyzer::Oracle;
use specrepair_benchmarks::RepairProblem;
use specrepair_core::{OracleHandle, OutcomeReason};
use specrepair_study::{runner, table1, RunStats, SpecRecord, StudyConfig, TechniqueId};
use specrepair_trace::{AttrValue, SpanRecord};

use crate::digest::records_digest;
use crate::host::HostProbe;
use crate::layers::{self_times, NameTotals, Recorder};
use crate::stats;
use crate::{Opts, Report};

/// Which study workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// All twelve techniques through the study runner, as `study table1`
    /// runs them: LM rounds, instance enumeration and cold SAT share the
    /// time, and the runner's split of problems over threads sets the
    /// wall clock.
    Table1,
    /// ARepair, ICEBAR, BeAFix and ATR cell by cell on one thread, each
    /// with a fresh oracle as the runner gives it: SAT, oracle and
    /// mutation work only, no LM and no runner scheduling.
    Traditional,
}

impl Kind {
    /// Corpus scale. `study_table1` passes are small so that one run
    /// averages over many LLM seeds, whose work differs by about a tenth
    /// from pass to pass: at 0.01 (five passes a run) cells/s spread 0.13
    /// between runs, at 0.005 (eight to ten) 0.06.
    fn scale(self) -> f64 {
        match self {
            Kind::Table1 => 0.005,
            Kind::Traditional => 0.03125,
        }
    }

    /// Digest of the traditional techniques' records, which no seed
    /// changes: checked on every run.
    fn traditional_digest(self) -> u64 {
        match self {
            Kind::Table1 => 0x1b77_2c38_e195_4ca1,
            Kind::Traditional => 0xd6a5_49e4_2a0f_7b07,
        }
    }

    /// Digest of every record at seed 42.
    fn seed42_digest(self) -> u64 {
        match self {
            Kind::Table1 => 0xcd4a_2e80_2e79_8edb,
            Kind::Traditional => self.traditional_digest(),
        }
    }
}

/// One pass over the corpus.
struct Pass {
    /// The pass's LLM seed.
    seed: u64,
    started: Instant,
    wall: Duration,
    /// The part of `wall` spent in the program: all of it, less the host
    /// probe's ticks between cells.
    busy: Duration,
    records: Vec<SpecRecord>,
    stats: RunStats,
    /// The process's peak resident set so far, megabytes.
    peak_rss_mb: f64,
}

impl Pass {
    /// The host-corrected seconds of the pass's work.
    fn corrected_s(&self, probe: &HostProbe) -> f64 {
        self.busy.as_secs_f64() * probe.factor(self.started, self.started + self.wall)
    }
}

/// The seed of pass `i`: the run's seed first, then seeds far from any
/// other run's, so one run averages over several samplings of its inputs.
pub fn pass_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn run_pass(
    kind: Kind,
    problems: &[RepairProblem],
    config: &StudyConfig,
    probe: &HostProbe,
) -> Pass {
    probe.tick();
    let started = Instant::now();
    let (records, stats, busy) = match kind {
        Kind::Table1 => {
            let (results, stats) = specrepair_study::run_study_cached(problems, config, true);
            black_box(table1::build(&results));
            (results.records, stats, started.elapsed())
        }
        Kind::Traditional => {
            let mut stats = RunStats::default();
            let mut records = Vec::with_capacity(problems.len() * 4);
            let mut busy = Duration::ZERO;
            for problem in problems {
                for id in TechniqueId::traditional() {
                    let t0 = Instant::now();
                    let oracle = OracleHandle::fresh();
                    records.push(runner::evaluate_cell(&oracle, id, problem, config));
                    stats.cache.absorb(&oracle.stats());
                    stats.dedup.absorb(&oracle.dedup_stats());
                    stats.incremental.absorb(&oracle.incremental_stats());
                    busy += t0.elapsed();
                    probe.tick();
                }
            }
            (records, stats, busy)
        }
    };
    let wall = started.elapsed();
    probe.tick();
    Pass {
        started,
        wall,
        busy,
        seed: config.seed,
        records,
        stats,
        peak_rss_mb: crate::peak_rss_mb(),
    }
}

/// Passes, each with its own LLM seed, until the next one would overrun
/// `seconds` and at least `min_cells` cells ran. The program's spans of
/// each pass go to `sink`.
#[allow(clippy::too_many_arguments)]
fn run_passes(
    kind: Kind,
    problems: &[RepairProblem],
    config: &StudyConfig,
    seconds: Duration,
    min_cells: usize,
    probe: &HostProbe,
    rec: &Recorder,
    mut sink: impl FnMut(Vec<SpanRecord>),
) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut cells = 0;
    loop {
        let t0 = Instant::now();
        let config = StudyConfig {
            seed: pass_seed(config.seed, passes.len()),
            ..*config
        };
        let pass = run_pass(kind, problems, &config, probe);
        sink(specrepair_trace::take_spans());
        rec.record(
            "bench.pass",
            0,
            t0,
            Instant::now(),
            vec![("cells", AttrValue::U64(pass.records.len() as u64))],
        );
        let last = pass.wall;
        cells += pass.records.len();
        passes.push(pass);
        if started.elapsed() + last > seconds && cells >= min_cells {
            return passes;
        }
    }
}

/// Times the per-spec layer entry points — parse, fingerprint, a cold
/// verdict on a fresh oracle and the memoized repeat — over every source;
/// records the median of each in microseconds.
pub fn probes<'a>(sources: impl IntoIterator<Item = &'a str>, rec: &Recorder, report: &mut Report) {
    let mut samples: [Vec<f64>; 4] = Default::default();
    let names = [
        "bench.probe.parse",
        "bench.probe.fingerprint",
        "bench.probe.cold_verdict",
        "bench.probe.warm_verdict",
    ];
    for source in sources {
        let mut marks = [Instant::now(); 5];
        let spec = mualloy_syntax::parse_spec(black_box(source)).expect("corpus specs parse");
        marks[1] = Instant::now();
        black_box(mualloy_syntax::spec_fingerprint(&spec));
        marks[2] = Instant::now();
        let oracle = Oracle::new();
        black_box(oracle.failing_commands(&spec).ok());
        marks[3] = Instant::now();
        black_box(oracle.failing_commands(&spec).ok());
        marks[4] = Instant::now();
        for (i, name) in names.iter().enumerate() {
            let took = marks[i + 1] - marks[i];
            samples[i].push(took.as_secs_f64() * 1e6);
            rec.record(name, 0, marks[i], marks[i + 1], Vec::new());
        }
    }
    let metrics = [
        "syntax.parse_us",
        "syntax.fingerprint_us",
        "analyzer.cold_verdict_us",
        "analyzer.warm_verdict_us",
    ];
    for (name, values) in metrics.into_iter().zip(&samples) {
        report.set_percentile(name, stats::p50(values));
    }
}

/// What the traced passes' spans add up to.
#[derive(Default)]
pub struct SpanTotals {
    by_name: BTreeMap<&'static str, NameTotals>,
    /// Durations of the cell root spans, milliseconds.
    cells_ms: Vec<f64>,
    /// Self time of every program span, nanoseconds.
    self_ns: u64,
    /// Spans kept for `trace.json` (the first traced pass).
    pub kept: Vec<SpanRecord>,
}

impl SpanTotals {
    /// Adds one pass's drained spans; keeps them for `trace.json` when
    /// `keep` and none are kept yet.
    pub fn absorb(&mut self, spans: Vec<SpanRecord>, keep: bool) {
        for (name, t) in self_times(&spans) {
            let mine = self.by_name.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
            self.self_ns += t.self_ns;
        }
        self.cells_ms.extend(
            spans
                .iter()
                .filter(|s| s.name == "cell" && s.parent == 0)
                .map(|s| s.dur_ns as f64 / 1e6),
        );
        if keep && self.kept.is_empty() {
            self.kept = spans;
        }
    }

    fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Records the layers' self times and call counts, averaged over
    /// `passes`.
    pub fn report_layers(&self, passes: f64, report: &mut Report) {
        for (span, self_ms, calls) in [
            ("sat.solve", "sat.solve_ms", Some("sat.solves")),
            (
                "sat.incremental_check",
                "sat.incremental_ms",
                Some("sat.incremental_checks"),
            ),
            (
                "analyzer.enumerate",
                "analyzer.enumerate_ms",
                Some("analyzer.enumerations"),
            ),
            ("lm.round", "llm.round_ms", Some("llm.rounds")),
            ("technique.feedback", "llm.feedback_ms", None),
            ("technique.localization", "core.localization_ms", None),
            ("technique.mutation_gen", "traditional.mutation_ms", None),
        ] {
            let t = self.get(span);
            report.set(self_ms, t.self_ns as f64 / 1e6 / passes);
            if let Some(calls) = calls {
                report.set(calls, t.count as f64 / passes);
            }
        }
        let oracle_ns: u64 = self
            .by_name
            .iter()
            .filter(|(name, _)| name.starts_with("oracle."))
            .map(|(_, t)| t.self_ns)
            .sum();
        report.set("analyzer.oracle_ms", oracle_ns as f64 / 1e6 / passes);
    }
}

/// Whether a record is one of the four traditional techniques'.
fn is_traditional(r: &SpecRecord) -> bool {
    TechniqueId::from_label(&r.technique).is_some_and(|t| t.is_traditional())
}

/// Counts a pass series' cells and checks its records against the pinned
/// digests; returns each pass's records digest.
fn check_passes(kind: Kind, passes: &[Pass], report: &mut Report) -> Vec<u64> {
    let mut digests = Vec::with_capacity(passes.len());
    for pass in passes {
        let digest = records_digest(&pass.records);
        let traditional = records_digest(pass.records.iter().filter(|r| is_traditional(r)));
        report.gate(traditional == kind.traditional_digest(), || {
            format!(
                "seed {}: traditional records digest 0x{traditional:016x}, expected 0x{:016x}",
                pass.seed,
                kind.traditional_digest()
            )
        });
        if pass.seed == 42 {
            report.gate(digest == kind.seed42_digest(), || {
                format!(
                    "seed-42 records digest 0x{digest:016x}, expected 0x{:016x}",
                    kind.seed42_digest()
                )
            });
        }
        report.attempted += pass.records.len() as u64;
        report.failed += pass
            .records
            .iter()
            .filter(|r| r.reason == OutcomeReason::Crashed)
            .count() as u64;
        digests.push(digest);
    }
    digests
}

/// Host-corrected seconds of each pass.
fn corrected_s(passes: &[Pass], probe: &HostProbe) -> Vec<f64> {
    passes.iter().map(|p| p.corrected_s(probe)).collect()
}

/// Runs one study workload.
pub fn run(kind: Kind, opts: &Opts, probe: &HostProbe) -> Report {
    let rec = if opts.trace {
        Recorder::on()
    } else {
        Recorder::off()
    };
    let mut report = Report::default();

    // Set-ups are spread over the run, one after each pass, so a burst of
    // load from outside the process slows at most a few of them.
    let mut setups: Vec<(Instant, Duration)> = Vec::with_capacity(crate::SETUPS);
    let set_up = |setups: &mut Vec<(Instant, Duration)>| {
        probe.tick();
        let t0 = Instant::now();
        let problems = specrepair_benchmarks::full_study(kind.scale());
        let t1 = Instant::now();
        probe.tick();
        setups.push((t0, t1 - t0));
        rec.record(
            "bench.setup",
            0,
            t0,
            t1,
            vec![("specs", AttrValue::U64(problems.len() as u64))],
        );
        problems
    };
    let problems = set_up(&mut setups);
    let config = StudyConfig {
        scale: kind.scale(),
        seed: opts.seed,
        ..StudyConfig::default()
    };
    let passes = run_passes(
        kind,
        &problems,
        &config,
        opts.seconds,
        1,
        probe,
        &rec,
        |_| {
            if setups.len() < crate::SETUPS {
                set_up(&mut setups);
            }
        },
    );
    while setups.len() < crate::SETUPS {
        set_up(&mut setups);
    }
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|&(t0, took)| probe.corrected_s(t0, took))
        .collect();
    let wall_setup_ms: Vec<f64> = setups
        .iter()
        .map(|(_, took)| took.as_secs_f64() * 1e3)
        .collect();
    report.set("setup_s", stats::median(&setup_s));
    report.set("benchmarks.corpus_ms", stats::median(&wall_setup_ms));
    let digests = check_passes(kind, &passes, &mut report);
    report.digests.push(("records_digest", digests[0]));
    // Passes differ in their LLM seed, so the rate is one ratio of sums
    // rather than a median of per-pass rates.
    let corrected = corrected_s(&passes, probe);
    let cells: usize = passes.iter().map(|p| p.records.len()).sum();
    let wall_s: f64 = passes.iter().map(|p| p.busy.as_secs_f64()).sum();
    report.set(
        "throughput_per_s",
        cells as f64 / corrected.iter().sum::<f64>(),
    );
    report.set("p50_ms", stats::median(&corrected) * 1e3);
    // The peak of a fresh process that set up the corpus and ran it once,
    // as one `study` run does. The peak rises with each later pass of
    // `study_table1` (14.5, 16.0, 16.4 MB over three at scale 0.01), so a
    // peak over the whole run would grow with the number of passes, and so
    // with host speed.
    report.set("peak_rss_mb", passes[0].peak_rss_mb);
    report.set("host.wall_throughput_per_s", cells as f64 / wall_s);
    report.set("host.kernel_us", probe.kernel_us());
    if !opts.trace {
        return report;
    }

    probes(
        problems.iter().map(|p| p.faulty_source.as_str()),
        &rec,
        &mut report,
    );

    specrepair_trace::set_enabled(true);
    specrepair_trace::take_spans();
    let mut totals = SpanTotals::default();
    let keep = opts.out.is_some();
    // Enough cells for a p99 with ten samples beyond it.
    let traced = run_passes(
        kind,
        &problems,
        &config,
        opts.seconds,
        1000,
        probe,
        &rec,
        |spans| totals.absorb(spans, keep),
    );
    specrepair_trace::set_enabled(false);
    let traced_digests = check_passes(kind, &traced, &mut report);
    for (pass, (t, u)) in traced.iter().zip(traced_digests.iter().zip(&digests)) {
        report.gate(t == u, || {
            format!(
                "seed {}: traced records digest 0x{t:016x} differs from untraced 0x{u:016x}",
                pass.seed
            )
        });
    }
    // Passes with the same seed do the same work, traced or not.
    let paired = traced.len().min(passes.len());
    let traced_s: f64 = corrected_s(&traced[..paired], probe).iter().sum();
    let untraced_s: f64 = corrected[..paired].iter().sum();
    report.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);

    // Per-pass averages of the span totals.
    let n = traced.len() as f64;
    totals.report_layers(n, &mut report);
    report.set(
        "study.cell_self_ms",
        totals.get("cell").self_ns as f64 / 1e6 / n,
    );
    report.set_percentile("study.cell_p50_ms", stats::p50(&totals.cells_ms));
    report.set_percentile("study.cell_p99_ms", stats::tail(&totals.cells_ms, 99.0));
    let cell_ns = totals.get("cell").total_ns as f64;
    let unreconciled_pct = (totals.self_ns as f64 - cell_ns).abs() / cell_ns * 100.0;
    report.gate(unreconciled_pct <= 5.0, || {
        format!(
            "span self times ({} ms) do not reconcile with cell wall time ({} ms)",
            totals.self_ns as f64 / 1e6,
            cell_ns / 1e6
        )
    });
    let threads = match kind {
        Kind::Table1 => std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(problems.len()),
        Kind::Traditional => 1,
    };
    let busy_ns: f64 = traced.iter().map(|p| p.busy.as_nanos() as f64).sum();
    report.set(
        "study.parallel_efficiency",
        cell_ns / (busy_ns * threads as f64),
    );

    let mut run_stats = RunStats::default();
    for pass in &traced {
        run_stats.cache.absorb(&pass.stats.cache);
        run_stats.dedup.absorb(&pass.stats.dedup);
        run_stats.incremental.absorb(&pass.stats.incremental);
    }
    report.set("analyzer.oracle_hit_rate", run_stats.cache.hit_rate());
    report.set(
        "analyzer.solver_invocations",
        run_stats.cache.solver_invocations as f64 / n,
    );
    report.set(
        "analyzer.incremental_reuse",
        run_stats.incremental.clause_reuse_rate(),
    );
    report.set(
        "analyzer.incremental_fallbacks",
        run_stats.incremental.fallbacks as f64 / n,
    );
    report.set("core.dedup_rate", run_stats.dedup.dedup_rate());
    let records = || traced.iter().flat_map(|p| &p.records);
    let candidates: usize = records()
        .filter(|r| is_traditional(r))
        .map(|r| r.explored)
        .sum();
    let repaired: usize = records()
        .filter(|r| is_traditional(r))
        .map(|r| usize::from(r.rep))
        .sum();
    report.set("traditional.candidates", candidates as f64 / n);
    report.set(
        "traditional.rep_per_kcandidate",
        repaired as f64 * 1000.0 / candidates.max(1) as f64,
    );
    report.set(
        "study.rep_total",
        records().map(|r| f64::from(r.rep)).sum::<f64>() / n,
    );

    report.spans = std::mem::take(&mut totals.kept);
    report.spans.extend(rec.take());
    report
}
