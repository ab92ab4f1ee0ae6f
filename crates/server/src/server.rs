//! The `specrepaird serve` daemon: the repair service plugged into the
//! shared [engine](crate::engine) (blocking acceptor, bounded admission
//! queue, fixed worker pool over `std::net`).
//!
//! A daemon booted with `--shard-id N --peers a,b,c` is one shard behind a
//! [router](crate::router). It serves exactly like a plain daemon, and
//! only reports its place in the peer list under `cluster` in `/metrics`.
//! The router sends every repeat of a spec to the same shard, so that
//! shard's own memo answers it: the shards exchange nothing.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

use specrepair_cache::PersistentCache;
use specrepair_core::OracleHandle;
use specrepair_faults::DiskFaultPlan;
use specrepair_telemetry::History;

use crate::engine::{self, Admission, HttpApp};
use crate::http::{Request, Response};
use crate::metrics::{ServerMetrics, TraceTotals};
use crate::service::{RepairService, ServiceConfig};
use crate::snapshot::{ClusterSection, Snapshot};

pub use specrepair_cluster::client::{read_response, roundtrip};

/// Cluster-shard identity of one daemon: which entry of the shared ordered
/// peer list this process is.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// This daemon's index into [`ShardConfig::peers`].
    pub shard_id: usize,
    /// The ordered `host:port` list of every shard (including this one),
    /// the same list the router is booted with: the router derives its
    /// [`ShardRing`](specrepair_cluster::ShardRing) from it.
    pub peers: Vec<String>,
}

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Worker threads executing repairs.
    pub workers: usize,
    /// Admission queue capacity; connections beyond it are shed with `503`.
    pub queue_capacity: usize,
    /// Deadline for requests that do not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Largest admitted analysis scope (see [`ServiceConfig::max_scope`]).
    pub max_scope: u32,
    /// Per-shard cap on the oracle memo table; `0` keeps it unbounded.
    pub cache_per_shard: usize,
    /// Server-wide injected LM-transport fault rate (0.0 = off); see
    /// [`ServiceConfig::chaos_rate`].
    pub chaos_rate: f64,
    /// Base seed for the chaos fault schedules.
    pub chaos_seed: u64,
    /// Optional signal file: the daemon initiates graceful shutdown as soon
    /// as this path exists (the file-based stand-in for SIGTERM, usable
    /// from CI scripts without a signal-handling dependency).
    pub shutdown_file: Option<PathBuf>,
    /// Turns the span collector on for the daemon's lifetime: every repair
    /// request's spans are drained into the per-phase totals behind
    /// `GET /trace/summary`. Off by default (the disabled collector costs
    /// one atomic load per would-be span).
    pub trace: bool,
    /// Directory for the persistent verdict cache (`verdicts.log`). When
    /// set, the daemon warm-boots the oracle from it and appends every new
    /// verdict; when the directory cannot be opened the daemon warns and
    /// runs memory-only. `None` (the default) disables the tier.
    pub cache_dir: Option<PathBuf>,
    /// Injected disk fault rate for the persistent tier (0.0 = off); see
    /// [`DiskFaultPlan`]. Only meaningful with `cache_dir`.
    pub disk_chaos_rate: f64,
    /// Base seed for the disk fault schedule.
    pub disk_chaos_seed: u64,
    /// Cluster-shard identity, reported in `/metrics`. `None` (the default)
    /// reports cluster mode off; either way the daemon serves the same.
    pub shard: Option<ShardConfig>,
    /// Metrics-history sampling interval in milliseconds; `0` (the
    /// default) disables the time-series ring and `GET /metrics/history`.
    pub metrics_history_interval_ms: u64,
    /// Ring capacity for the metrics history (samples retained).
    pub metrics_history_capacity: usize,
    /// Where the drain-time `metrics_history.jsonl` dump lands. `None`
    /// with history enabled writes `metrics_history.jsonl` in the working
    /// directory.
    pub metrics_history_file: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            queue_capacity: 64,
            default_deadline_ms: 10_000,
            max_scope: 6,
            cache_per_shard: 0,
            chaos_rate: 0.0,
            chaos_seed: 0xC4A05,
            shutdown_file: None,
            trace: false,
            cache_dir: None,
            disk_chaos_rate: 0.0,
            disk_chaos_seed: 0xD15C,
            shard: None,
            metrics_history_interval_ms: 0,
            metrics_history_capacity: 512,
            metrics_history_file: None,
        }
    }
}

/// Shared state between the acceptor, the workers and the handle.
struct ServerState {
    service: RepairService,
    metrics: ServerMetrics,
    trace: TraceTotals,
    trace_enabled: bool,
    admission: Admission,
    /// The persistent verdict tier, when `--cache-dir` opened one. Held
    /// here (besides the oracle's trait handle) for `/metrics` snapshots
    /// and the drain-time seal.
    persist: Option<Arc<PersistentCache>>,
    /// The `cluster` section of `/metrics`: the shard identity, or off.
    cluster: ClusterSection,
    /// The metrics time-series ring, when history sampling is on.
    history: Option<Arc<History>>,
}

impl HttpApp for ServerState {
    fn admission(&self) -> &Admission {
        &self.admission
    }

    fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    fn route(self: &Arc<Self>, request: &Request) -> Response {
        route(self, request)
    }
}

/// A running daemon: its bound address plus the thread handles.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
    history_file: Option<PathBuf>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown (idempotent): stop admitting, drain the
    /// queue, let workers exit.
    pub fn shutdown(&self) {
        self.state.admission.begin_drain();
    }

    /// Blocks until the acceptor and every worker have exited. Call
    /// [`ServerHandle::shutdown`] first (or POST `/shutdown`) or this
    /// blocks forever.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
        // Drain hook: with every worker gone no verdict can still be in
        // flight, so seal the persistent log (compact if the disk view
        // drifted from memory, then fsync) before the process exits.
        if let Some(persist) = &self.state.persist {
            persist.seal();
        }
        // Dump the metrics time series for offline analysis (e.g. the
        // hit-rate convergence plots in EXPERIMENTS.md E11).
        if let (Some(history), Some(path)) = (&self.state.history, &self.history_file) {
            if let Err(e) = std::fs::write(path, history.dump_jsonl()) {
                eprintln!(
                    "specrepaird: cannot write metrics history {}: {e}",
                    path.display()
                );
            }
        }
    }
}

/// Binds the listener and spawns the acceptor and worker threads.
///
/// # Errors
///
/// Propagates the bind failure (address in use, permission), or
/// `InvalidInput` for an inconsistent shard configuration.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    if let Some(shard) = &config.shard {
        if shard.peers.is_empty() || shard.shard_id >= shard.peers.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "shard id {} out of range for {} peers",
                    shard.shard_id,
                    shard.peers.len()
                ),
            ));
        }
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let mut oracle = if config.cache_per_shard == 0 {
        OracleHandle::fresh()
    } else {
        OracleHandle::bounded(config.cache_per_shard)
    };
    // Warm-boot the persistent verdict tier. An unopenable cache dir is a
    // degradation, not a boot failure: warn and run memory-only.
    let persist = match &config.cache_dir {
        None => None,
        Some(dir) => {
            let plan = if config.disk_chaos_rate > 0.0 {
                DiskFaultPlan::new(config.disk_chaos_seed, config.disk_chaos_rate)
            } else {
                DiskFaultPlan::none()
            };
            match PersistentCache::open_with_faults(dir, plan) {
                Ok(cache) => Some(Arc::new(cache)),
                Err(e) => {
                    eprintln!(
                        "specrepaird: cannot open cache dir {}: {e}; running memory-only",
                        dir.display()
                    );
                    None
                }
            }
        }
    };
    if let Some(persist) = &persist {
        oracle = oracle.with_persistent(persist.clone());
    }
    if config.trace {
        specrepair_trace::set_enabled(true);
    }
    let state = Arc::new(ServerState {
        service: RepairService::new(
            oracle,
            ServiceConfig {
                default_deadline_ms: config.default_deadline_ms,
                max_scope: config.max_scope,
                chaos_rate: config.chaos_rate,
                chaos_seed: config.chaos_seed,
            },
        ),
        metrics: ServerMetrics::new(),
        trace: TraceTotals::new(),
        trace_enabled: config.trace,
        admission: Admission::new(config.queue_capacity, config.shutdown_file.clone(), addr),
        persist,
        cluster: config
            .shard
            .clone()
            .map_or(ClusterSection::Off, ClusterSection::Shard),
        history: (config.metrics_history_interval_ms > 0).then(|| {
            Arc::new(History::new(
                config.metrics_history_capacity,
                config.metrics_history_interval_ms,
            ))
        }),
    });

    let (acceptor, workers) =
        engine::spawn_threads(listener, config.workers, "specrepaird", &state);
    // The history sampler: one thread recording every registered scalar
    // into the ring each interval, draining with the admission gate. It
    // sleeps in short chunks so shutdown is never delayed by a long
    // interval.
    let sampler = state.history.clone().map(|history| {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("specrepaird-history".to_string())
            .spawn(move || {
                let interval = std::time::Duration::from_millis(history.interval_ms().max(1));
                while !state.admission.is_draining() {
                    let mut left = interval;
                    while !left.is_zero() && !state.admission.is_draining() {
                        let nap = left.min(std::time::Duration::from_millis(50));
                        std::thread::sleep(nap);
                        left = left.saturating_sub(nap);
                    }
                    if state.admission.is_draining() {
                        break;
                    }
                    history.record(snapshot(&state).scalars());
                }
            })
            .expect("spawn history sampler")
    });
    let history_file = (config.metrics_history_interval_ms > 0).then(|| {
        config
            .metrics_history_file
            .clone()
            .unwrap_or_else(|| PathBuf::from("metrics_history.jsonl"))
    });
    Ok(ServerHandle {
        addr,
        state,
        acceptor: Some(acceptor),
        workers,
        sampler,
        history_file,
    })
}

/// Reads the daemon's metrics — the single source behind `/metrics`,
/// `/metrics/prom`, the history sampler and the router's fleet scrape.
fn snapshot(state: &ServerState) -> Snapshot<'_> {
    let persist = state.persist.as_ref().map(|p| p.stats());
    Snapshot::read(
        &state.metrics,
        &state.service,
        persist,
        state.cluster.clone(),
    )
}

/// Routes one request to its endpoint and records it in the metrics.
fn route(state: &Arc<ServerState>, request: &Request) -> Response {
    let (endpoint, response) = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let status = if state.admission.is_draining() {
                "draining"
            } else {
                "ok"
            };
            (
                "healthz",
                Response::json(200, format!("{{\"status\":\"{status}\"}}")),
            )
        }
        ("GET", "/techniques") => (
            "techniques",
            Response::json(200, RepairService::techniques_document()),
        ),
        ("GET", "/metrics") => ("metrics", Response::json(200, snapshot(state).to_json())),
        ("GET", "/metrics/prom") => ("metrics", Response::text(200, snapshot(state).to_prom())),
        ("GET", "/metrics/history") => {
            let body = match &state.history {
                Some(history) => history.to_json(),
                None => "{\n  \"enabled\": false\n}".to_string(),
            };
            ("metrics", Response::json(200, body))
        }
        ("GET", "/trace/summary") => (
            "trace",
            Response::json(200, state.trace.render(state.trace_enabled)),
        ),
        ("POST", "/repair") => {
            let handled = state.service.handle_repair(&request.body_text());
            if state.trace_enabled {
                // Fold whatever this (and any concurrently finished)
                // request traced into the since-boot phase totals.
                state.trace.absorb(&specrepair_trace::take_spans());
            }
            if let (Some(technique), Some(latency)) = (&handled.technique, handled.latency) {
                state
                    .metrics
                    .record_latency(technique, latency.as_micros() as u64);
            }
            // A portfolio race also reports each entrant's own latency
            // under "<portfolio>/<member>" histogram rows.
            for (label, micros) in &handled.entrant_latency {
                state.metrics.record_latency(label, *micros);
            }
            if handled.timed_out {
                state.metrics.record_deadline_exceeded();
            }
            ("repair", handled.response)
        }
        ("POST", "/shutdown") => {
            state.admission.begin_drain();
            ("shutdown", Response::json(200, "{\"status\":\"draining\"}"))
        }
        (
            _,
            "/healthz" | "/techniques" | "/metrics" | "/metrics/prom" | "/metrics/history"
            | "/trace/summary" | "/repair" | "/shutdown",
        ) => (
            "http",
            Response::error(405, &format!("{} not allowed here", request.method)),
        ),
        (_, path) => (
            "http",
            Response::error(404, &format!("no route for {path}")),
        ),
    };
    state.metrics.record_request(endpoint, response.status);
    response
}
