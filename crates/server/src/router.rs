//! `specrepaird route`: the deterministic cluster front-end.
//!
//! The router owns no verdicts. It parses just enough of each `/repair`
//! body to compute the spec's canonical fingerprint, asks the shared
//! [`ShardRing`] which shard owns it, and forwards the raw body there —
//! the shard's response is relayed byte-for-byte. Every repeat of a spec
//! therefore reaches the shard whose memo solved it, which is all the
//! sharing the shards need. Routing is a pure function of (ordered shard
//! list, request body): two routers given the same `--shards` list make
//! identical decisions, so clients can sit behind any of them.
//!
//! Failure handling mirrors the persistent tier's discipline: one retry on
//! transport error, a per-shard [`CallBreaker`] that stops hammering a
//! dead peer, and **degraded local solve** — the router embeds a full
//! [`RepairService`] and serves the request itself when the owning shard
//! is unreachable. A degraded answer is computed by the same deterministic
//! pipeline the shard would have run, so outputs stay byte-identical; the
//! cluster loses only its cache locality, never correctness.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mualloy_analyzer::Oracle;
use mualloy_syntax::Fingerprint;
use specrepair_cluster::client;
use specrepair_cluster::ShardRing;
use specrepair_core::OracleHandle;
use specrepair_faults::CallBreaker;
use specrepair_telemetry::{fleet_document, prom, ShardScrape};

use crate::engine::{self, Admission, HttpApp};
use crate::http::{Request, Response};
use crate::metrics::ServerMetrics;
use crate::service::{RepairService, ServiceConfig};
use crate::snapshot::{ClusterSection, RouterClusterSection, RouterShardRow, Snapshot};

/// Consecutive transport failures (after the in-call retry) that open a
/// shard's breaker — the same discipline as the persistent tier's.
const TRIP_AFTER: u32 = 3;

/// Forward attempts skipped while open before one probe is let through.
const HALFOPEN_AFTER: u32 = 16;

/// Read timeout for one forwarded call. Generous: a forwarded repair runs
/// a full SAT-backed search on the shard; the client's own `deadline_ms`
/// bounds it there, and this only catches a hung peer.
const FORWARD_TIMEOUT: Duration = Duration::from_secs(60);

/// Configuration of one router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// The ordered shard address list — the cluster membership contract,
    /// identical to what every shard was booted with.
    pub shards: Vec<String>,
    /// Worker threads forwarding requests (and solving degraded ones).
    pub workers: usize,
    /// Admission queue capacity; connections beyond it are shed with `503`.
    pub queue_capacity: usize,
    /// Deadline for degraded local repairs without `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Largest admitted analysis scope for degraded local repairs.
    pub max_scope: u32,
    /// Optional shutdown signal file, as the daemon's.
    pub shutdown_file: Option<PathBuf>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7870".to_string(),
            shards: Vec::new(),
            workers: 4,
            queue_capacity: 64,
            default_deadline_ms: 10_000,
            max_scope: 6,
            shutdown_file: None,
        }
    }
}

/// Per-shard forwarding counters.
#[derive(Debug, Default)]
struct ShardCounters {
    forwarded: AtomicU64,
    retries: AtomicU64,
    failures: AtomicU64,
}

/// Shared state between the router's acceptor, workers and handle.
struct RouterState {
    ring: ShardRing,
    /// The degraded-mode fallback: a complete local repair service.
    local: RepairService,
    metrics: ServerMetrics,
    admission: Admission,
    breakers: Vec<CallBreaker>,
    shards: Vec<ShardCounters>,
    degraded_local_solves: AtomicU64,
    breaker_trips: AtomicU64,
    skipped_open: AtomicU64,
}

impl HttpApp for RouterState {
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

/// A running router: its bound address plus the thread handles.
pub struct RouterHandle {
    addr: SocketAddr,
    state: Arc<RouterState>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address the router actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.state.admission.begin_drain();
    }

    /// Blocks until the acceptor and every worker have exited; call
    /// [`RouterHandle::shutdown`] (or POST `/shutdown`) first.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Binds the listener and spawns the router threads.
///
/// # Errors
///
/// Propagates the bind failure; `InvalidInput` when `shards` is empty (a
/// router with nothing to route to is a misconfiguration, not a mode).
pub fn spawn_router(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.shards.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a router needs at least one shard address",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let state = Arc::new(RouterState {
        ring: ShardRing::from_addrs(&config.shards),
        local: RepairService::new(
            OracleHandle::fresh(),
            ServiceConfig {
                default_deadline_ms: config.default_deadline_ms,
                max_scope: config.max_scope,
                chaos_rate: 0.0,
                chaos_seed: 0,
            },
        ),
        metrics: ServerMetrics::new(),
        admission: Admission::new(config.queue_capacity, config.shutdown_file.clone(), addr),
        breakers: config
            .shards
            .iter()
            .map(|_| CallBreaker::new(TRIP_AFTER, HALFOPEN_AFTER))
            .collect(),
        shards: config
            .shards
            .iter()
            .map(|_| ShardCounters::default())
            .collect(),
        degraded_local_solves: AtomicU64::new(0),
        breaker_trips: AtomicU64::new(0),
        skipped_open: AtomicU64::new(0),
    });
    let (acceptor, workers) =
        engine::spawn_threads(listener, config.workers, "specrepaird-route", &state);
    Ok(RouterHandle {
        addr,
        state,
        acceptor: Some(acceptor),
        workers,
    })
}

/// The fingerprint a `/repair` body routes on: parse the request envelope,
/// then the spec source, then take the canonical Merkle fingerprint — the
/// exact key the owning shard's oracle will memoize the work under.
/// `None` when the body or spec is malformed (those requests are answered
/// locally; every daemon rejects them identically).
fn repair_routing_key(body: &str) -> Option<Fingerprint> {
    let request = crate::service::RepairRequest::parse(body).ok()?;
    let spec = mualloy_syntax::parse_spec(&request.spec).ok()?;
    Some(Oracle::fingerprint(&spec))
}

/// Forwards one `/repair` body to shard `index`, retrying once on
/// transport error and feeding the shard's breaker. `None` means the shard
/// is unreachable (or its breaker is open) and the caller should degrade.
fn forward(state: &RouterState, index: usize, body: &str) -> Option<(u16, String)> {
    if !state.breakers[index].allow() {
        state.skipped_open.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    let addr = &state.ring.nodes()[index].addr;
    let counters = &state.shards[index];
    for attempt in 0..2 {
        match client::call(addr, "POST", "/repair", body, FORWARD_TIMEOUT) {
            Ok(reply) => {
                state.breakers[index].success();
                counters.forwarded.fetch_add(1, Ordering::Relaxed);
                return Some(reply);
            }
            Err(_) if attempt == 0 => {
                counters.retries.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                counters.failures.fetch_add(1, Ordering::Relaxed);
                if state.breakers[index].failure() {
                    state.breaker_trips.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    None
}

/// Serves one `/repair` body with the router's own embedded service — the
/// degraded path when the owning shard is down, and the canonical-error
/// path for bodies too malformed to route on.
fn local_repair(state: &RouterState, body: &str) -> Response {
    let handled = state.local.handle_repair(body);
    if let (Some(technique), Some(latency)) = (&handled.technique, handled.latency) {
        state
            .metrics
            .record_latency(technique, latency.as_micros() as u64);
    }
    for (label, micros) in &handled.entrant_latency {
        state.metrics.record_latency(label, *micros);
    }
    if handled.timed_out {
        state.metrics.record_deadline_exceeded();
    }
    handled.response
}

/// `POST /repair`: route on the spec fingerprint, forward raw, degrade to
/// a local solve when the owning shard is unreachable.
fn route_repair(state: &RouterState, body: &str) -> Response {
    let Some(key) = repair_routing_key(body) else {
        // Unroutable bodies get the canonical local rejection (the same
        // 4xx any shard would produce).
        return local_repair(state, body);
    };
    let owner = state.ring.owner_index(key);
    match forward(state, owner, body) {
        // Byte-for-byte relay of whatever the shard answered, errors
        // included: the router adds routing, not interpretation.
        Some((status, text)) => Response::json(status, text),
        None => {
            state.degraded_local_solves.fetch_add(1, Ordering::Relaxed);
            local_repair(state, body)
        }
    }
}

/// The typed `cluster` section of the router's `/metrics`.
fn cluster_section(state: &RouterState) -> ClusterSection {
    let shards = state
        .ring
        .nodes()
        .iter()
        .zip(&state.shards)
        .enumerate()
        .map(|(index, (node, counters))| RouterShardRow {
            addr: node.addr.clone(),
            forwarded: counters.forwarded.load(Ordering::Relaxed),
            retries: counters.retries.load(Ordering::Relaxed),
            failures: counters.failures.load(Ordering::Relaxed),
            breaker_open: state.breakers[index].is_open(),
        })
        .collect();
    ClusterSection::Router(RouterClusterSection {
        shards,
        degraded_local_solves: state.degraded_local_solves.load(Ordering::Relaxed),
        breaker_trips: state.breaker_trips.load(Ordering::Relaxed),
        skipped_open: state.skipped_open.load(Ordering::Relaxed),
    })
}

/// Reads the router's metrics: its own counters, its degraded-path
/// service's stats, and the per-shard forwarding section.
fn snapshot(state: &RouterState) -> Snapshot<'_> {
    Snapshot::read(&state.metrics, &state.local, None, cluster_section(state))
}

/// Read timeout for one shard telemetry scrape: a snapshot render is a
/// memory walk on the shard, never a solve.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// Scrapes one shard's `/metrics/prom` for the fleet view, behind the same
/// per-shard breaker the forwarding path feeds, with one retry. Scrapes
/// never count as forwards — `ShardCounters.forwarded` stays a routing
/// metric — but a dead shard's scrape failures do feed its breaker.
fn scrape_shard(state: &RouterState, index: usize) -> ShardScrape {
    let addr = state.ring.nodes()[index].addr.clone();
    if !state.breakers[index].allow() {
        return ShardScrape::stale(addr, "breaker open");
    }
    let mut last_error = String::new();
    for _ in 0..2 {
        match client::call(&addr, "GET", "/metrics/prom", "", SCRAPE_TIMEOUT) {
            Ok((200, body)) => {
                state.breakers[index].success();
                return match prom::parse(&body) {
                    Ok(samples) => ShardScrape::fresh(addr, samples),
                    Err(why) => ShardScrape::stale(addr, format!("unparsable exposition: {why}")),
                };
            }
            Ok((status, _)) => {
                state.breakers[index].success();
                return ShardScrape::stale(addr, format!("shard answered {status}"));
            }
            Err(why) => last_error = why.to_string(),
        }
    }
    if state.breakers[index].failure() {
        state.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }
    ShardScrape::stale(addr, format!("scrape failed: {last_error}"))
}

/// `GET /cluster/metrics`: scrape every shard's exposition and serve the
/// merged fleet document (summed counters, merged histograms, min/max/mean
/// gauges); unreachable shards are labeled stale, never omitted.
fn cluster_metrics(state: &RouterState) -> Response {
    let scrapes: Vec<ShardScrape> = (0..state.ring.len())
        .map(|index| scrape_shard(state, index))
        .collect();
    Response::json(200, fleet_document(&scrapes))
}

/// Routes one request and records it in the metrics.
fn route(state: &Arc<RouterState>, request: &Request) -> Response {
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
        // Technique metadata is static; no reason to burden a shard.
        ("GET", "/techniques") => (
            "techniques",
            Response::json(200, RepairService::techniques_document()),
        ),
        ("GET", "/metrics") => ("metrics", Response::json(200, snapshot(state).to_json())),
        ("GET", "/metrics/prom") => ("metrics", Response::text(200, snapshot(state).to_prom())),
        ("GET", "/cluster/metrics") => ("cluster_metrics", cluster_metrics(state)),
        ("POST", "/repair") => ("repair", route_repair(state, &request.body_text())),
        ("POST", "/shutdown") => {
            state.admission.begin_drain();
            ("shutdown", Response::json(200, "{\"status\":\"draining\"}"))
        }
        (
            _,
            "/healthz" | "/techniques" | "/metrics" | "/metrics/prom" | "/cluster/metrics"
            | "/repair" | "/shutdown",
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_refuses_an_empty_shard_list() {
        let err = spawn_router(RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            ..RouterConfig::default()
        });
        assert!(err.is_err());
    }

    #[test]
    fn repair_routing_key_requires_a_parsable_spec() {
        assert!(repair_routing_key("not json").is_none());
        assert!(repair_routing_key("{\"technique\":\"ATR\"}").is_none());
        let body = "{\"spec\":\"sig A {}\",\"technique\":\"ATR\"}";
        let key = repair_routing_key(body).expect("well-formed body routes");
        // Same body, same key: the routing function is deterministic.
        assert_eq!(repair_routing_key(body), Some(key));
    }
}
