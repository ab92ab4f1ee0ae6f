//! The service workload: zipfian `/repair` bodies handled by an in-process
//! [`RepairService`] on one thread. It is the daemon's request path —
//! request parsing, admission checks, the technique and the shared oracle
//! memo — without HTTP, whose accept poll and thread wake-ups make the
//! daemon workloads' timings spread too far between runs on a shared host
//! to carry a regression bound.
//!
//! Each pass generates its bodies from its own seed (the run's seed first)
//! and handles every body twice on a fresh service: cold, when the oracle
//! sees each verdict for the first time and the memo writes, then warm,
//! when the same bodies read it. How much work a body set holds varies
//! with its seed, so one run averages over several.

use std::time::{Duration, Instant};

use specrepair_core::OracleHandle;
use specrepair_server::{loadgen, LoadgenConfig, RepairService, ServiceConfig, WorkloadProfile};
use specrepair_trace::AttrValue;

use crate::digest::{mask_duration, Fnv};
use crate::host::HostProbe;
use crate::layers::Recorder;
use crate::stats;
use crate::study::{pass_seed, SpanTotals};
use crate::{Opts, Report};

/// Request bodies per sweep.
const REQUESTS: usize = 500;
/// Tenants of the zipfian workload.
const TENANTS: usize = 4;

/// One timed sweep over the bodies, in body order. It keeps hashes of the
/// responses rather than the responses, so that the memory it holds on to
/// does not grow `peak_rss_mb` from pass to pass.
struct Sweep {
    started: Instant,
    wall: Duration,
    /// Wall time of each `handle_repair` call, milliseconds.
    latency_ms: Vec<f64>,
    /// FNV-1a of each response's status and `duration_ms`-masked body.
    hashes: Vec<u64>,
    /// FNV-1a over the masked bodies in order: the responses digest.
    digest: u64,
    /// Non-200 responses: body index, status and masked body.
    errors: Vec<(usize, u16, String)>,
}

impl Sweep {
    /// The host-correction factor over the sweep.
    fn factor(&self, probe: &HostProbe) -> f64 {
        probe.factor(self.started, self.started + self.wall)
    }

    /// The host-corrected seconds the requests took, without the probe's
    /// ticks between them.
    fn corrected_s(&self, probe: &HostProbe) -> f64 {
        self.latency_ms.iter().sum::<f64>() / 1e3 * self.factor(probe)
    }
}

/// Oracle counters read off a service.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    hits: u64,
    misses: u64,
    solver_invocations: u64,
    dedup_hits: u64,
    dedup_misses: u64,
    incremental_checks: u64,
}

impl Counts {
    fn read(oracle: &OracleHandle) -> Counts {
        let (cache, dedup) = (oracle.stats(), oracle.dedup_stats());
        Counts {
            hits: cache.hits,
            misses: cache.misses,
            solver_invocations: cache.solver_invocations,
            dedup_hits: dedup.hits,
            dedup_misses: dedup.misses,
            incremental_checks: oracle.incremental_stats().checks,
        }
    }

    fn zip(self, other: Counts, f: impl Fn(u64, u64) -> u64) -> Counts {
        Counts {
            hits: f(self.hits, other.hits),
            misses: f(self.misses, other.misses),
            solver_invocations: f(self.solver_invocations, other.solver_invocations),
            dedup_hits: f(self.dedup_hits, other.dedup_hits),
            dedup_misses: f(self.dedup_misses, other.dedup_misses),
            incremental_checks: f(self.incremental_checks, other.incremental_checks),
        }
    }
}

/// `part` over `part + rest`, 0 when both are 0.
fn share(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// A cold and a warm sweep over one seed's bodies on a fresh service, with
/// the oracle counters each sweep moved.
struct Pass {
    seed: u64,
    /// The process's peak resident set during the pass, megabytes.
    peak_rss_mb: f64,
    /// When generating the bodies started, and how long it took.
    setup: (Instant, Duration),
    /// Bodies in each sweep.
    requests: usize,
    cold: Sweep,
    warm: Sweep,
    counts: [Counts; 2],
}

fn sweep(
    service: &RepairService,
    bodies: &[String],
    name: &'static str,
    probe: &HostProbe,
    rec: &Recorder,
) -> Sweep {
    probe.tick();
    let started = Instant::now();
    let mut latency_ms = Vec::with_capacity(bodies.len());
    let mut hashes = Vec::with_capacity(bodies.len());
    let mut digest = Fnv::default();
    let mut errors = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let t0 = Instant::now();
        let handled = service.handle_repair(body);
        let t1 = Instant::now();
        latency_ms.push((t1 - t0).as_secs_f64() * 1e3);
        probe.tick();
        rec.record(name, 0, t0, t1, vec![("body", AttrValue::U64(i as u64))]);
        let (status, masked) = (
            handled.response.status,
            mask_duration(&handled.response.body),
        );
        let mut h = Fnv::default();
        h.u64(u64::from(status));
        h.str(&masked);
        hashes.push(h.finish());
        digest.str(&masked);
        if status != 200 {
            errors.push((i, status, masked));
        }
    }
    let wall = started.elapsed();
    probe.tick();
    Sweep {
        started,
        wall,
        latency_ms,
        hashes,
        digest: digest.finish(),
        errors,
    }
}

/// The workload's bodies at `seed`.
fn bodies(seed: u64) -> Vec<String> {
    loadgen::request_bodies(&LoadgenConfig {
        requests: REQUESTS,
        seed,
        profile: WorkloadProfile::Zipfian,
        tenants: TENANTS,
        ..LoadgenConfig::default()
    })
}

fn run_pass(seed: u64, probe: &HostProbe, rec: &Recorder) -> Pass {
    // Linux's reset of `VmHWM` to the current resident set.
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("/proc/self/clear_refs resets the peak resident set");
    probe.tick();
    let t0 = Instant::now();
    let bodies = bodies(seed);
    let t1 = Instant::now();
    rec.record("bench.setup", 0, t0, t1, Vec::new());
    let service = RepairService::new(OracleHandle::fresh(), ServiceConfig::default());
    let cold = sweep(&service, &bodies, "bench.request.cold", probe, rec);
    let after_cold = Counts::read(service.oracle());
    let warm = sweep(&service, &bodies, "bench.request.warm", probe, rec);
    let after_warm = Counts::read(service.oracle());
    Pass {
        seed,
        peak_rss_mb: crate::peak_rss_mb(),
        setup: (t0, t1 - t0),
        requests: bodies.len(),
        cold,
        warm,
        counts: [after_cold, after_warm.zip(after_cold, |a, b| a - b)],
    }
}

/// Passes until the next one would overrun `seconds`; `between` runs after
/// each pass.
fn run_passes(
    seed: u64,
    seconds: Duration,
    probe: &HostProbe,
    rec: &Recorder,
    mut between: impl FnMut(),
) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = run_pass(pass_seed(seed, passes.len()), probe, rec);
        between();
        let last = started.elapsed() / (passes.len() as u32 + 1);
        passes.push(pass);
        if started.elapsed() + last > seconds {
            return passes;
        }
    }
}

/// Counts attempts and failures and checks that each pass's warm sweep
/// answered as its cold one did; returns each pass's responses digest.
fn check(passes: &[Pass], report: &mut Report) -> Vec<u64> {
    let mut digests = Vec::with_capacity(passes.len());
    for pass in passes {
        let bad: Vec<String> = [&pass.cold, &pass.warm]
            .into_iter()
            .flat_map(|sweep| &sweep.errors)
            .map(|(i, status, body)| format!("body {i}: {status} {body}"))
            .collect();
        report.attempted += 2 * pass.requests as u64;
        report.failed += bad.len() as u64;
        report.gate(bad.is_empty(), || {
            format!(
                "seed {}: {} non-200 responses, e.g. {:?}",
                pass.seed,
                bad.len(),
                &bad[..bad.len().min(3)]
            )
        });
        let mismatched = pass
            .warm
            .hashes
            .iter()
            .zip(&pass.cold.hashes)
            .filter(|(w, c)| w != c)
            .count();
        report.gate(mismatched == 0, || {
            format!(
                "seed {}: {mismatched} warm responses differ from the cold ones",
                pass.seed
            )
        });
        let digest = pass.cold.digest;
        if pass.seed == 42 {
            report.gate(digest == crate::serve::SEED42_RESPONSES, || {
                format!(
                    "seed-42 responses digest 0x{digest:016x}, expected 0x{:016x}",
                    crate::serve::SEED42_RESPONSES
                )
            });
        }
        digests.push(digest);
    }
    digests
}

/// Host-corrected latencies of one sweep of every pass, milliseconds.
fn corrected_ms(passes: &[Pass], probe: &HostProbe, sweep: impl Fn(&Pass) -> &Sweep) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| {
            let s = sweep(p);
            let factor = s.factor(probe);
            s.latency_ms.iter().map(move |ms| ms * factor)
        })
        .collect()
}

/// Host-corrected seconds of the passes' sweeps together.
fn corrected_s(passes: &[Pass], probe: &HostProbe) -> f64 {
    passes
        .iter()
        .map(|p| p.cold.corrected_s(probe) + p.warm.corrected_s(probe))
        .sum()
}

/// Runs the service workload.
pub fn run(opts: &Opts, probe: &HostProbe) -> Report {
    let rec = if opts.trace {
        Recorder::on()
    } else {
        Recorder::off()
    };
    let mut report = Report::default();

    let passes = run_passes(opts.seed, opts.seconds, probe, &rec, || {});
    // Each pass sets up its own bodies; runs too short for enough passes
    // set up the run seed's again.
    let mut setups: Vec<(Instant, Duration)> = passes.iter().map(|p| p.setup).collect();
    while setups.len() < crate::SETUPS {
        probe.tick();
        let t0 = Instant::now();
        std::hint::black_box(bodies(opts.seed));
        setups.push((t0, t0.elapsed()));
        probe.tick();
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
    let digests = check(&passes, &mut report);
    report.digests.push(("responses_digest", digests[0]));
    // Passes differ in their bodies, so the rate is one ratio of sums.
    let cold_requests: usize = passes.iter().map(|p| p.requests).sum();
    let cold_s: f64 = passes.iter().map(|p| p.cold.corrected_s(probe)).sum();
    let cold_wall_s: f64 = passes
        .iter()
        .map(|p| p.cold.latency_ms.iter().sum::<f64>() / 1e3)
        .sum();
    let warm_ms = corrected_ms(&passes, probe, |p| &p.warm);
    report.set("throughput_per_s", cold_requests as f64 / cold_s);
    report.set_percentile("p50_ms", stats::p50(&warm_ms));
    // The memo of a pass grows with its seed's bodies and goes with its
    // service, so the whole run's peak would be that of its heaviest seed,
    // and a run on a faster host, with more passes, would draw more seeds.
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    report.set("peak_rss_mb", stats::median(&rss));
    report.set(
        "host.wall_throughput_per_s",
        cold_requests as f64 / cold_wall_s,
    );
    report.set("host.kernel_us", probe.kernel_us());
    if !opts.trace {
        return report;
    }

    let cold_ms = corrected_ms(&passes, probe, |p| &p.cold);
    report.set_percentile("server.cold_handle_p50_ms", stats::p50(&cold_ms));
    report.set_percentile("server.cold_handle_p99_ms", stats::tail(&cold_ms, 99.0));
    report.set_percentile("server.handle_p99_ms", stats::tail(&warm_ms, 99.0));
    let n = passes.len() as f64;
    for (sweep, name) in ["cold", "warm"].into_iter().enumerate() {
        let c = passes
            .iter()
            .map(|p| p.counts[sweep])
            .fold(Counts::default(), |a, b| a.zip(b, |x, y| x + y));
        for (metric, value) in [
            ("analyzer.oracle_hit_rate", share(c.hits, c.misses)),
            (
                "analyzer.solver_invocations",
                c.solver_invocations as f64 / n,
            ),
            ("core.dedup_rate", share(c.dedup_hits, c.dedup_misses)),
            (
                "analyzer.incremental_checks",
                c.incremental_checks as f64 / n,
            ),
        ] {
            report.set(&format!("{metric}.{name}"), value);
        }
    }

    let mut specs: Vec<String> = bodies(opts.seed)
        .iter()
        .map(|b| {
            specrepair_server::RepairRequest::parse(b)
                .expect("generated bodies parse")
                .spec
        })
        .collect();
    specs.sort();
    specs.dedup();
    crate::study::probes(specs.iter().map(String::as_str), &rec, &mut report);

    specrepair_trace::set_enabled(true);
    specrepair_trace::take_spans();
    let mut totals = SpanTotals::default();
    let keep = opts.out.is_some();
    let traced = run_passes(opts.seed, opts.seconds, probe, &rec, || {
        totals.absorb(specrepair_trace::take_spans(), keep);
    });
    specrepair_trace::set_enabled(false);
    let traced_digests = check(&traced, &mut report);
    for (pass, (t, u)) in traced.iter().zip(traced_digests.iter().zip(&digests)) {
        report.gate(t == u, || {
            format!(
                "seed {}: traced responses digest 0x{t:016x} differs from untraced 0x{u:016x}",
                pass.seed
            )
        });
    }
    // Passes with the same seed do the same work, traced or not.
    let paired = traced.len().min(passes.len());
    report.set(
        "trace.overhead_pct",
        (corrected_s(&traced[..paired], probe) / corrected_s(&passes[..paired], probe) - 1.0)
            * 100.0,
    );
    totals.report_layers(traced.len() as f64, &mut report);

    report.spans = std::mem::take(&mut totals.kept);
    report.spans.extend(rec.take());
    report
}
