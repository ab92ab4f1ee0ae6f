//! The daemon workloads: zipfian `/repair` traffic from this process
//! against an in-process daemon, or against a router over in-process
//! shards. Every node runs two workers, and load comes from at most two
//! sender threads, each holding one connection at a time.
//!
//! They are run by hand (`--workload`), not by `BENCHMARK.json`: their
//! times are mostly waits — the accept poll, thread wake-ups on idle
//! vCPUs — which a busy shared host stretches (warm p50 ranged from 8 to
//! 31 ms over six consecutive runs on a 2-vCPU guest), and which the
//! host-speed correction of the other workloads does not take out.
//!
//! Each measurement makes passes over the same request bodies:
//!
//! - cold, at least three times and for about 60% of the measurement,
//!   each on a freshly booted fleet: a closed loop of
//!   two clients; the nodes see every verdict for the first time, so the
//!   oracle memo writes;
//! - warm, on the last fleet: the bodies replayed open loop at a fixed
//!   rate, each request timed from the moment it was due, so a stall
//!   counts against every request it delays; the memo reads.

use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use specrepair_core::OracleHandle;
use specrepair_server::server::ShardConfig;
use specrepair_server::{
    loadgen, roundtrip, spawn, spawn_router, LoadgenConfig, RepairService, RouterConfig,
    RouterHandle, ServerConfig, ServerHandle, ServiceConfig, WorkloadProfile,
};
use specrepair_trace::{AttrValue, Phase};

use crate::digest::{mask_duration, Fnv};
use crate::layers::{phase_busy_ms, Counters, Recorder};
use crate::stats;
use crate::{Opts, Report};

/// Which topology serves the traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One daemon.
    Single,
    /// A router in front of this many shards.
    Sharded(usize),
}

/// Request bodies per pass.
const REQUESTS: usize = 500;
/// Fewest cold passes per measurement, each on a fresh fleet; the median
/// counts.
const COLD_MIN: usize = 3;
/// Share of the measurement the cold passes may take; the warm pass gets
/// the rest, and at least [`WARM_MIN`] requests.
const COLD_SHARE: f64 = 0.6;
/// Tenants of the zipfian workload.
const TENANTS: usize = 4;
/// Sender threads; each holds at most one open connection.
const CLIENTS: usize = 2;
/// Worker threads of every node.
const WORKERS: usize = 2;
/// Arrival rate of the warm pass, requests per second.
const WARM_RATE: f64 = 100.0;
/// Fewest warm requests: enough for a p99 with ten samples beyond it.
const WARM_MIN: usize = 1000;
/// Read timeout of one call: far above any repair's deadline.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);
/// Digest of the masked seed-42 responses; single node, shards and the
/// in-process service agree.
pub const SEED42_RESPONSES: u64 = 0x3ff0_0493_2f6a_c474;

/// The running nodes of one topology.
struct Fleet {
    daemons: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    /// Where requests go: the daemon or the router.
    entry: String,
}

impl Fleet {
    fn boot(topology: Topology, trace: bool) -> Fleet {
        let daemon = |addr: String, shard: Option<ShardConfig>| {
            spawn(ServerConfig {
                addr,
                workers: WORKERS,
                trace,
                shard,
                ..ServerConfig::default()
            })
            .expect("a daemon binds a loopback port")
        };
        let fleet = match topology {
            Topology::Single => {
                let handle = daemon("127.0.0.1:0".to_string(), None);
                Fleet {
                    entry: handle.addr().to_string(),
                    daemons: vec![handle],
                    router: None,
                }
            }
            Topology::Sharded(n) => {
                // Shards must know every peer address before they start:
                // reserve ephemeral ports, then hand each one over.
                let reserved: Vec<TcpListener> = (0..n)
                    .map(|_| TcpListener::bind("127.0.0.1:0").expect("a loopback port is free"))
                    .collect();
                let peers: Vec<String> = reserved
                    .iter()
                    .map(|l| l.local_addr().expect("bound").to_string())
                    .collect();
                drop(reserved);
                let daemons = (0..n)
                    .map(|shard_id| {
                        daemon(
                            peers[shard_id].clone(),
                            Some(ShardConfig {
                                shard_id,
                                peers: peers.clone(),
                            }),
                        )
                    })
                    .collect();
                let router = spawn_router(RouterConfig {
                    addr: "127.0.0.1:0".to_string(),
                    shards: peers,
                    workers: WORKERS,
                    ..RouterConfig::default()
                })
                .expect("the router binds a loopback port");
                Fleet {
                    entry: router.addr().to_string(),
                    daemons,
                    router: Some(router),
                }
            }
        };
        for addr in fleet.daemons.iter().map(|d| d.addr().to_string()) {
            loadgen::wait_healthy(&addr).expect("a fresh daemon answers /healthz");
        }
        loadgen::wait_healthy(&fleet.entry).expect("the entry node answers /healthz");
        fleet
    }

    fn daemon_addrs(&self) -> Vec<String> {
        self.daemons.iter().map(|d| d.addr().to_string()).collect()
    }

    /// Counters summed over the daemons, and the router's own.
    fn counters(&self) -> (Counters, Counters) {
        let mut daemons = Counters::default();
        for addr in self.daemon_addrs() {
            daemons
                .absorb(&get(&addr, "/metrics/prom"))
                .expect("the daemon's exposition parses");
        }
        let mut router = Counters::default();
        if let Some(r) = &self.router {
            router
                .absorb(&get(&r.addr().to_string(), "/metrics/prom"))
                .expect("the router's exposition parses");
        }
        (daemons, router)
    }

    /// Per-phase busy milliseconds summed over the daemons. In-process
    /// daemons share one span sink and drain each other's spans, so only
    /// the sum means anything.
    fn phases(&self) -> [f64; 4] {
        let mut sum = [0.0; 4];
        for addr in self.daemon_addrs() {
            let busy =
                phase_busy_ms(&get(&addr, "/trace/summary")).expect("the trace summary parses");
            for (s, b) in sum.iter_mut().zip(busy) {
                *s += b;
            }
        }
        sum
    }

    fn stop(self) {
        if let Some(router) = self.router {
            router.shutdown();
            router.join();
        }
        for daemon in &self.daemons {
            daemon.shutdown();
        }
        for daemon in self.daemons {
            daemon.join();
        }
    }
}

/// One call over a fresh connection.
fn call(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CALL_TIMEOUT))?;
    roundtrip(&mut stream, method, path, body)
}

/// A `GET` that must answer 200.
fn get(addr: &str, path: &str) -> String {
    match call(addr, "GET", path, "") {
        Ok((200, body)) => body,
        Ok((status, _)) => panic!("GET {addr}{path} answered {status}"),
        Err(e) => panic!("GET {addr}{path} failed: {e}"),
    }
}

/// One sent request.
struct Sent {
    /// Index into the body list.
    body: usize,
    /// Status, or `None` on a transport error.
    status: Option<u16>,
    /// Response body with `duration_ms` masked.
    response: String,
    /// When it was due (open loop) or sent (closed loop).
    due: Instant,
    start: Instant,
    end: Instant,
}

impl Sent {
    fn latency_ms(&self) -> f64 {
        (self.end - self.due).as_secs_f64() * 1e3
    }
}

fn send(entry: &str, bodies: &[String], body: usize, due: Instant) -> Sent {
    let start = Instant::now();
    let reply = call(entry, "POST", "/repair", &bodies[body]);
    let end = Instant::now();
    let (status, response) = match reply {
        Ok((status, text)) => (Some(status), mask_duration(&text)),
        Err(e) => (None, e.to_string()),
    };
    Sent {
        body,
        status,
        response,
        due,
        start,
        end,
    }
}

/// Sends request `k` of `0..count` for body `k % bodies.len()` from
/// sender `k % CLIENTS`. `due(k)` is the instant request `k` may leave;
/// a sender whose previous request is still out sends as soon as it can.
fn drive(
    entry: &str,
    bodies: &[String],
    count: usize,
    due: impl Fn(usize) -> Option<Instant> + Sync,
    pass: &'static str,
    rec: &Recorder,
) -> Vec<Sent> {
    let mut sent: Vec<Sent> = thread::scope(|scope| {
        let senders: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let due = &due;
                scope.spawn(move || {
                    (client..count)
                        .step_by(CLIENTS)
                        .map(|k| {
                            let at = match due(k) {
                                Some(at) => {
                                    thread::sleep(at.saturating_duration_since(Instant::now()));
                                    at
                                }
                                None => Instant::now(),
                            };
                            let s = send(entry, bodies, k % bodies.len(), at);
                            rec.record(
                                pass,
                                1 + client as u64,
                                s.due,
                                s.end,
                                vec![
                                    ("body", AttrValue::U64(s.body as u64)),
                                    ("status", AttrValue::U64(u64::from(s.status.unwrap_or(0)))),
                                    (
                                        "late_us",
                                        AttrValue::U64((s.start - s.due).as_micros() as u64),
                                    ),
                                ],
                            );
                            s
                        })
                        .collect::<Vec<Sent>>()
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|h| h.join().expect("a sender thread does not panic"))
            .collect()
    });
    sent.sort_by_key(|s| s.due);
    sent
}

/// Set-up times of one run.
#[derive(Default)]
struct Setups {
    /// Generating the request bodies and booting the fleet, seconds.
    total_s: Vec<f64>,
    /// Generating the request bodies alone, milliseconds.
    bodies_ms: Vec<f64>,
}

/// Generates the request bodies and boots a fleet, timing both.
fn set_up(
    topology: Topology,
    workload: &LoadgenConfig,
    trace: bool,
    rec: &Recorder,
    setups: &mut Setups,
) -> (Fleet, Vec<String>) {
    let t0 = Instant::now();
    let bodies = loadgen::request_bodies(workload);
    let t1 = Instant::now();
    let fleet = Fleet::boot(topology, trace);
    let t2 = Instant::now();
    setups.bodies_ms.push((t1 - t0).as_secs_f64() * 1e3);
    setups.total_s.push((t2 - t0).as_secs_f64());
    rec.record("bench.setup", 0, t0, t2, Vec::new());
    (fleet, bodies)
}

/// Cold passes, each on a fresh fleet, then a warm pass on the last one.
struct Measurement {
    bodies: Vec<String>,
    /// Each cold pass's requests and duration.
    colds: Vec<(Vec<Sent>, Duration)>,
    warm: Vec<Sent>,
    /// Counter and phase readings of the last fleet before its cold pass,
    /// between the passes, and after the warm pass (traced only).
    counters: Vec<(Counters, Counters)>,
    phases: Vec<[f64; 4]>,
}

impl Measurement {
    /// Masked responses of the first cold pass, in body order.
    fn responses(&self) -> Vec<&str> {
        let mut out = vec![""; self.bodies.len()];
        for s in &self.colds[0].0 {
            out[s.body] = &s.response;
        }
        out
    }

    fn sent(&self) -> impl Iterator<Item = &Sent> {
        self.colds.iter().flat_map(|(c, _)| c).chain(&self.warm)
    }

    /// Median over the cold passes of requests per second.
    fn cold_rps(&self) -> f64 {
        let rates: Vec<f64> = self
            .colds
            .iter()
            .map(|(c, took)| c.len() as f64 / took.as_secs_f64())
            .collect();
        stats::median(&rates)
    }
}

fn measure(
    topology: Topology,
    workload: &LoadgenConfig,
    seconds: Duration,
    traced: bool,
    rec: &Recorder,
    setups: &mut Setups,
) -> Measurement {
    let started = Instant::now();
    let mut colds: Vec<(Vec<Sent>, Duration)> = Vec::new();
    let mut counters = Vec::new();
    let mut phases = Vec::new();
    let mut read = |fleet: &Fleet| {
        if traced {
            counters.push(fleet.counters());
            phases.push(fleet.phases());
        }
    };
    let budget = seconds.mul_f64(COLD_SHARE);
    let (fleet, bodies) = loop {
        let (fleet, bodies) = set_up(topology, workload, traced, rec, setups);
        // The last cold pass is the one after which another would overrun
        // the cold budget, judged by the previous pass.
        let last = colds.len() + 1 >= COLD_MIN
            && colds
                .last()
                .is_some_and(|(_, took)| started.elapsed() + took.mul_f64(2.0) > budget);
        if last {
            read(&fleet);
        }
        let t0 = Instant::now();
        let cold = drive(
            &fleet.entry,
            &bodies,
            bodies.len(),
            |_| None,
            "bench.request.cold",
            rec,
        );
        colds.push((cold, t0.elapsed()));
        if last {
            break (fleet, bodies);
        }
        fleet.stop();
    };
    read(&fleet);

    let remaining = seconds.saturating_sub(started.elapsed()).as_secs_f64();
    let count = WARM_MIN.max((remaining * WARM_RATE) as usize);
    let t0 = Instant::now() + Duration::from_millis(20);
    let warm = drive(
        &fleet.entry,
        &bodies,
        count,
        |k| Some(t0 + Duration::from_secs_f64(k as f64 / WARM_RATE)),
        "bench.request.warm",
        rec,
    );
    read(&fleet);
    fleet.stop();
    Measurement {
        bodies,
        colds,
        warm,
        counters,
        phases,
    }
}

/// Counts attempts and failures and checks every pass's responses against
/// the first cold pass's; returns the responses digest.
fn check(m: &Measurement, seed: u64, report: &mut Report) -> u64 {
    let mut bad = Vec::new();
    for s in m.sent() {
        report.attempted += 1;
        if s.status != Some(200) {
            report.failed += 1;
            bad.push(format!("body {}: {:?} {}", s.body, s.status, s.response));
        }
    }
    report.gate(bad.is_empty(), || {
        format!(
            "{} non-200 responses, e.g. {:?}",
            bad.len(),
            &bad[..bad.len().min(3)]
        )
    });
    let responses = m.responses();
    let mismatched = m.sent().filter(|s| s.response != responses[s.body]).count();
    report.gate(mismatched == 0, || {
        format!("{mismatched} responses differ from the first cold pass's to the same body")
    });
    let mut h = Fnv::default();
    for r in &responses {
        h.str(r);
    }
    let digest = h.finish();
    if seed == 42 {
        report.gate(digest == SEED42_RESPONSES, || {
            format!("seed-42 responses digest 0x{digest:016x}, expected 0x{SEED42_RESPONSES:016x}")
        });
    }
    digest
}

/// Runs one serve workload.
pub fn run(topology: Topology, opts: &Opts) -> Report {
    let rec = if opts.trace {
        Recorder::on()
    } else {
        Recorder::off()
    };
    let mut report = Report::default();
    let workload = LoadgenConfig {
        requests: REQUESTS,
        seed: opts.seed,
        profile: WorkloadProfile::Zipfian,
        tenants: TENANTS,
        ..LoadgenConfig::default()
    };

    let mut setups = Setups::default();
    let untraced = measure(topology, &workload, opts.seconds, false, &rec, &mut setups);
    while setups.total_s.len() < crate::SETUPS {
        set_up(topology, &workload, false, &rec, &mut setups)
            .0
            .stop();
    }
    report.set("setup_s", stats::median(&setups.total_s));
    report.set("benchmarks.corpus_ms", stats::median(&setups.bodies_ms));
    let digest = check(&untraced, opts.seed, &mut report);
    report.digests.push(("responses_digest", digest));
    let warm_ms: Vec<f64> = untraced.warm.iter().map(Sent::latency_ms).collect();
    report.set("throughput_per_s", untraced.cold_rps());
    report.set_percentile("p50_ms", stats::p50(&warm_ms));
    if !opts.trace {
        return report;
    }

    let cold_ms: Vec<f64> = untraced
        .colds
        .iter()
        .flat_map(|(c, _)| c)
        .map(Sent::latency_ms)
        .collect();
    let late_ms: Vec<f64> = untraced
        .warm
        .iter()
        .map(|s| (s.start - s.due).as_secs_f64() * 1e3)
        .collect();
    report.set_percentile("loadgen.cold_p50_ms", stats::p50(&cold_ms));
    report.set_percentile("loadgen.cold_p99_ms", stats::tail(&cold_ms, 99.0));
    report.set_percentile("loadgen.warm_p99_ms", stats::tail(&warm_ms, 99.0));
    report.set_percentile("loadgen.late_p50_ms", stats::p50(&late_ms));
    report.set_percentile("loadgen.late_p99_ms", stats::tail(&late_ms, 99.0));

    let bodies = &untraced.bodies;
    let mut specs: Vec<String> = bodies
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

    let traced = measure(
        topology,
        &workload,
        opts.seconds,
        true,
        &rec,
        &mut Setups::default(),
    );
    specrepair_trace::set_enabled(false);
    specrepair_trace::take_spans();
    let traced_digest = check(&traced, opts.seed, &mut report);
    report.gate(traced_digest == digest, || {
        format!(
            "traced responses digest 0x{traced_digest:016x} differs from untraced 0x{digest:016x}"
        )
    });
    report.set(
        "trace.overhead_pct",
        (untraced.cold_rps() / traced.cold_rps() - 1.0) * 100.0,
    );

    // Counter deltas per pass, summed over every node: the router counts
    // its own sheds, deadlines and degraded solves. Only `/repair` requests
    // are the daemons' alone, since the router counts each one again.
    type Read = Box<dyn Fn(&Counters, &Counters) -> f64>;
    let count = |family: &'static str| -> Read {
        Box::new(move |d, r| (d.get(family) + r.get(family)) as f64)
    };
    let rate = |hits: &'static str, misses: &'static str| -> Read {
        Box::new(move |d, r| {
            let (h, m) = (d.get(hits) + r.get(hits), d.get(misses) + r.get(misses));
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        })
    };
    let readings: [(&str, Read); 16] = [
        (
            "server.requests",
            Box::new(|d, _| d.get("specrepair_requests_total{endpoint=\"repair\"}") as f64),
        ),
        ("server.shed", count("specrepair_shed_total")),
        (
            "server.deadline_exceeded",
            count("specrepair_deadline_exceeded_total"),
        ),
        (
            "analyzer.oracle_hit_rate",
            rate(
                "specrepair_oracle_hits_total",
                "specrepair_oracle_misses_total",
            ),
        ),
        (
            "analyzer.solver_invocations",
            count("specrepair_oracle_solver_invocations_total"),
        ),
        (
            "core.dedup_rate",
            rate(
                "specrepair_dedup_hits_total",
                "specrepair_dedup_misses_total",
            ),
        ),
        (
            "analyzer.incremental_checks",
            count("specrepair_incremental_checks_total"),
        ),
        ("cluster.remote_puts", count("specrepair_remote_puts_total")),
        ("cluster.remote_hits", count("specrepair_remote_hits_total")),
        (
            "cluster.remote_lookups",
            count("specrepair_remote_lookups_total"),
        ),
        (
            "cluster.remote_transport_errors",
            count("specrepair_remote_transport_errors_total"),
        ),
        (
            "cluster.remote_retries",
            count("specrepair_remote_retries_total"),
        ),
        (
            "router.forwarded",
            count("specrepair_router_forwarded_total"),
        ),
        ("router.retries", count("specrepair_router_retries_total")),
        ("router.failures", count("specrepair_router_failures_total")),
        (
            "router.degraded_local_solves",
            count("specrepair_router_degraded_local_solves_total"),
        ),
    ];
    for (name, read) in &readings {
        for (pass, w) in ["cold", "warm"].into_iter().zip(traced.counters.windows(2)) {
            let value = read(&w[1].0.since(&w[0].0), &w[1].1.since(&w[0].1));
            report.set(&format!("{name}.{pass}"), value);
        }
    }
    let phases = [
        (Phase::Sat, "sat.busy_ms"),
        (Phase::OracleCache, "analyzer.oracle_busy_ms"),
        (Phase::Lm, "llm.busy_ms"),
        (Phase::Orchestration, "study.orchestration_busy_ms"),
    ];
    for (phase, name) in phases {
        for (pass, w) in ["cold", "warm"].into_iter().zip(traced.phases.windows(2)) {
            let busy = w[1][phase.index()] - w[0][phase.index()];
            report.set(&format!("{name}.{pass}"), busy);
        }
    }

    // The service alone, without HTTP: warm an in-process service with the
    // bodies, then replay the warm pass's requests and time each handling.
    let service = RepairService::new(OracleHandle::fresh(), ServiceConfig::default());
    let responses = untraced.responses();
    let mismatched: usize = thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (service, expected) = (&service, &responses);
                scope.spawn(move || {
                    (client..bodies.len())
                        .step_by(CLIENTS)
                        .filter(|&i| {
                            mask_duration(&service.handle_repair(&bodies[i]).response.body)
                                != expected[i]
                        })
                        .count()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("a replay thread does not panic"))
            .sum()
    });
    report.gate(mismatched == 0, || {
        format!("{mismatched} in-process responses differ from the daemon's")
    });
    let mut handle_ms = Vec::with_capacity(untraced.warm.len());
    for sent in &untraced.warm {
        let t0 = Instant::now();
        let handled = service.handle_repair(&bodies[sent.body]);
        rec.record("bench.handle", 0, t0, Instant::now(), Vec::new());
        handle_ms.push(handled.latency.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3));
    }
    report.set_percentile("server.handle_p50_ms", stats::p50(&handle_ms));
    report.set_percentile("server.handle_p99_ms", stats::tail(&handle_ms, 99.0));
    report.set(
        "server.transport_p50_ms",
        report.get("p50_ms") - report.get("server.handle_p50_ms"),
    );

    report.spans = rec.take();
    report
}
