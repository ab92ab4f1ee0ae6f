//! The built-in load generator (`specrepaird loadgen`): replays generated
//! faulty specifications against a running daemon from N concurrent
//! connections and reports throughput, latency percentiles and the
//! response-status mix.
//!
//! The workload is deterministic: faulty specs come from
//! `specrepair-mutation`'s injector over the A4F exercises with fixed
//! seeds, so a second identical run replays byte-identical candidates and
//! the daemon's oracle cache hit rate must rise — the `/metrics`
//! reconciliation this module's tests check against an in-process daemon.
//!
//! Two workload shapes: `uniform` cycles through one shared variant pool,
//! `zipfian` models a multi-tenant Alloy4Fun deployment — each tenant gets
//! its own injected-fault variant pool (tenant-offset seeds) and draws
//! from it with a Zipf rank distribution, so a few variants per tenant are
//! hot and the long tail is cold. Both shapes are pure functions of the
//! config, so reruns replay byte-identical request streams.
//!
//! Against a cluster (`--shards a,b,c`) the generator reads every shard's
//! `/metrics` after the run and reports per-shard and aggregate hit rates.

use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mualloy_syntax::print_spec;
use serde::Value;
use specrepair_benchmarks::a4f;
use specrepair_cluster::client::connect_with_retry;
use specrepair_core::CancelToken;
use specrepair_faults::mix;
use specrepair_mutation::{inject_fault, InjectorConfig};
use specrepair_study::TechniqueId;

use crate::metrics::Histogram;
use crate::server::roundtrip;
use crate::service::push_json_string;

/// Bounded connect-retry budget for `/metrics` and `/healthz` probes: a
/// daemon booted "concurrently" with the generator (the CI smoke jobs) may
/// still be binding its listener, so the first connects can lose the race.
/// 25 × 40 ms ≈ one second of patience, counted in the report rather than
/// silently absorbed.
const PROBE_ATTEMPTS: usize = 25;

/// Backoff between connect attempts; each wait polls a [`CancelToken`].
const PROBE_BACKOFF: Duration = Duration::from_millis(40);

/// The shape of the generated request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkloadProfile {
    /// One shared variant pool, cycled round-robin (the original shape).
    #[default]
    Uniform,
    /// Multi-tenant Zipf: per-tenant variant pools, rank-skewed draws.
    Zipfian,
}

impl WorkloadProfile {
    /// Parses the CLI spelling.
    pub fn parse(label: &str) -> Result<WorkloadProfile, String> {
        match label {
            "uniform" => Ok(WorkloadProfile::Uniform),
            "zipfian" => Ok(WorkloadProfile::Zipfian),
            other => Err(format!(
                "unknown profile {other:?} (want uniform or zipfian)"
            )),
        }
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon (or router) address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Total number of `POST /repair` requests to send.
    pub requests: usize,
    /// Concurrent client connections (threads).
    pub connections: usize,
    /// Per-request deadline forwarded as `deadline_ms`.
    pub deadline_ms: u64,
    /// Base seed for fault injection (also forwarded per request).
    pub seed: u64,
    /// Injected LM-transport fault rate forwarded per request (0.0 = off):
    /// the opt-in chaos mode, exercising the daemon's resilience layer.
    pub chaos_rate: f64,
    /// Backoff before retrying a request shed with `503` (0 = never retry).
    /// The wait polls a [`CancelToken`], so a deadline or Ctrl-C-style
    /// cancellation would cut it short rather than blocking the thread.
    pub shed_backoff_ms: u64,
    /// Workload shape; see [`WorkloadProfile`].
    pub profile: WorkloadProfile,
    /// Tenant count for the zipfian profile (ignored by uniform).
    pub tenants: usize,
    /// Cluster mode: the shard `/metrics` addresses to read hit rates
    /// from after the run (the ordered `--shards` list). Empty = single
    /// node, read only `addr`.
    pub shards: Vec<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".to_string(),
            requests: 50,
            connections: 4,
            deadline_ms: 10_000,
            seed: 42,
            chaos_rate: 0.0,
            shed_backoff_ms: 0,
            profile: WorkloadProfile::Uniform,
            tenants: 4,
            shards: Vec::new(),
        }
    }
}

/// One shard's post-run `/metrics` reading (cluster mode).
#[derive(Debug, Clone)]
pub struct ShardReading {
    /// The shard's address.
    pub addr: String,
    /// Oracle cache hits on this shard.
    pub hits: u64,
    /// Oracle cache misses on this shard.
    pub misses: u64,
    /// The shard's own hit rate.
    pub hit_rate: f64,
}

/// The outcome of one load-generation run.
#[derive(Debug)]
pub struct LoadgenReport {
    /// Requests attempted.
    pub total: usize,
    /// `200` responses.
    pub ok: usize,
    /// `503` responses (shed at admission — expected under overload).
    pub shed: usize,
    /// `504` responses (deadline fired — expected under tight deadlines).
    pub timed_out: usize,
    /// Anything else: unexpected statuses and transport errors.
    pub unexpected: usize,
    /// End-to-end latency distribution over all completed requests.
    pub latency: Histogram,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// The daemon's oracle cache hit rate fetched from `/metrics` after the
    /// run (absent when the fetch failed).
    pub cache_hit_rate: Option<f64>,
    /// Candidate-dedup hits fetched from the same post-run `/metrics`
    /// document (absent when the fetch failed or the daemon predates the
    /// `candidate_dedup` section).
    pub dedup_hits: Option<u64>,
    /// Candidate-dedup rate (`hits / (hits + misses)`) from `/metrics`.
    pub dedup_rate: Option<f64>,
    /// Incremental-session checks fetched from the same post-run
    /// `/metrics` document (absent when the fetch failed or the daemon
    /// predates the `incremental` section).
    pub incremental_checks: Option<u64>,
    /// Incremental clause reuse rate (`clauses_reused / clauses_total`)
    /// from `/metrics`.
    pub clause_reuse_rate: Option<f64>,
    /// The daemon's oracle cache hit rate fetched *before* the run: the
    /// baseline for the warm-boot delta (absent when the fetch failed).
    pub hit_rate_before: Option<f64>,
    /// Verdicts the daemon preloaded from its persistent cache at boot
    /// (absent when the tier is off or the daemon predates it).
    pub persist_preloaded: Option<u64>,
    /// Oracle hits served by the persistent tier, from the post-run
    /// `/metrics` document.
    pub persist_hits: Option<u64>,
    /// Post-run `/metrics` fetches that failed (connect error, non-200, or
    /// a malformed body). Nonzero means `cache_hit_rate` is missing for a
    /// *reported* reason, not silently.
    pub metrics_fetch_failures: usize,
    /// Connect retries spent winning the boot race across every `/metrics`
    /// fetch of the run (bounded per fetch by `PROBE_ATTEMPTS`). Nonzero
    /// is normal when the generator starts alongside the daemon; it is
    /// counted so a chronically slow boot is visible, not absorbed.
    pub metrics_fetch_retries: usize,
    /// Per-shard readings (cluster mode; empty otherwise). In cluster mode
    /// `cache_hit_rate` is the *aggregate* over these shards — summed hits
    /// over summed lookups, not a mean of rates.
    pub per_shard: Vec<ShardReading>,
}

impl LoadgenReport {
    /// Requests per second over the run.
    pub fn throughput(&self) -> f64 {
        self.total as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Whether every response was one of the expected statuses.
    pub fn clean(&self) -> bool {
        self.unexpected == 0
    }

    /// The warm-boot hit-rate delta: after-run minus before-run hit rate,
    /// when both readings landed. Against a daemon warm-booted from a
    /// populated `--cache-dir`, an identical replay must push this up.
    pub fn hit_rate_delta(&self) -> Option<f64> {
        Some(self.cache_hit_rate? - self.hit_rate_before?)
    }

    /// The human-readable report printed by the CLI.
    pub fn render(&self) -> String {
        let ms = |q: f64| self.latency.percentile(q).unwrap_or(0) as f64 / 1000.0;
        let mut text = format!(
            "{} requests in {:.2?} ({:.1} req/s)\n\
             status: {} ok, {} shed (503), {} deadline (504), {} unexpected\n\
             latency: p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms\n\
             oracle cache hit rate after run: {}\n\
             candidate dedup after run: {}\n\
             incremental oracle after run: {}\n\
             persistent tier after run: {}",
            self.total,
            self.elapsed,
            self.throughput(),
            self.ok,
            self.shed,
            self.timed_out,
            self.unexpected,
            ms(0.50),
            ms(0.90),
            ms(0.99),
            match self.cache_hit_rate {
                Some(rate) => format!("{:.1}%", rate * 100.0),
                None => format!(
                    "unavailable ({} metrics fetch failure(s))",
                    self.metrics_fetch_failures
                ),
            },
            match (self.dedup_hits, self.dedup_rate) {
                (Some(hits), Some(rate)) =>
                    format!("{hits} hits ({:.1}% dedup rate)", rate * 100.0),
                _ => "unavailable".to_string(),
            },
            match (self.incremental_checks, self.clause_reuse_rate) {
                (Some(checks), Some(rate)) =>
                    format!("{checks} checks ({:.1}% clause reuse)", rate * 100.0),
                _ => "unavailable".to_string(),
            },
            match (self.persist_preloaded, self.persist_hits) {
                (Some(preloaded), Some(hits)) => {
                    let delta = match self.hit_rate_delta() {
                        Some(d) => format!(", hit rate {:+.1} points over the run", d * 100.0),
                        None => String::new(),
                    };
                    format!("{preloaded} preloaded, {hits} persist hits{delta}")
                }
                _ => "off".to_string(),
            }
        );
        if self.metrics_fetch_retries > 0 {
            text.push_str(&format!(
                "\nmetrics fetches won the boot race after {} connect retr{}",
                self.metrics_fetch_retries,
                if self.metrics_fetch_retries == 1 {
                    "y"
                } else {
                    "ies"
                }
            ));
        }
        if !self.per_shard.is_empty() {
            text.push_str(&format!(
                "\ncluster: aggregate hit rate {}",
                match self.cache_hit_rate {
                    Some(rate) => format!("{:.1}%", rate * 100.0),
                    None => "unavailable".to_string(),
                },
            ));
            for shard in &self.per_shard {
                text.push_str(&format!(
                    "\n  shard {}: {:.1}% hit rate ({} hits / {} misses)",
                    shard.addr,
                    shard.hit_rate * 100.0,
                    shard.hits,
                    shard.misses,
                ));
            }
        }
        text
    }
}

/// A deterministic pool of up to `cap` injected-fault variants of the A4F
/// exercises, seeded by `seed`.
fn fault_pool(seed: u64, cap: usize) -> Vec<String> {
    let mut sources = Vec::new();
    'domains: for domain in a4f::domains() {
        for (i, (_, truth_source)) in a4f::exercises(domain).iter().enumerate() {
            let Ok(truth) = mualloy_syntax::parse_spec(truth_source) else {
                continue;
            };
            let seed = seed.wrapping_add(i as u64);
            if let Some(fault) = inject_fault(&truth, seed, InjectorConfig::default()) {
                sources.push(print_spec(&fault.faulty));
            }
            if sources.len() >= cap {
                break 'domains;
            }
        }
    }
    assert!(!sources.is_empty(), "the A4F corpus is never empty");
    sources
}

/// The Zipf rank for a uniform draw `u ∈ [0, 1)` over `n` ranks with the
/// classic 1/(r+1) weights: rank 0 is the hottest, the tail is cold.
fn zipf_rank(n: usize, u: f64) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let target = u * total;
    let mut cumulative = 0.0;
    for rank in 0..n {
        cumulative += 1.0 / (rank + 1) as f64;
        if cumulative >= target {
            return rank;
        }
    }
    n.saturating_sub(1)
}

/// Builds the deterministic request bodies, rotating through all twelve
/// technique labels.
///
/// Uniform: one 24-variant pool cycled round-robin. Zipfian: request `i`
/// belongs to tenant `i % tenants`; each tenant owns a 12-variant pool
/// seeded from `seed` and the tenant index, and picks a variant by Zipf
/// rank from a per-request SplitMix64 draw — hot heads, cold tails, and
/// (because variant pools differ per tenant) cross-tenant fingerprints
/// that spread over the whole shard ring.
pub fn request_bodies(config: &LoadgenConfig) -> Vec<String> {
    let picks: Vec<String> = match config.profile {
        WorkloadProfile::Uniform => {
            let sources = fault_pool(config.seed, 24);
            (0..config.requests)
                .map(|i| sources[i % sources.len()].clone())
                .collect()
        }
        WorkloadProfile::Zipfian => {
            let tenants = config.tenants.max(1);
            let pools: Vec<Vec<String>> = (0..tenants)
                .map(|tenant| fault_pool(mix(config.seed ^ (tenant as u64 + 1)), 12))
                .collect();
            (0..config.requests)
                .map(|i| {
                    let tenant = i % tenants;
                    let pool = &pools[tenant];
                    // One independent draw per (tenant, request): the 53
                    // high bits of a SplitMix64 output as a unit float.
                    let draw = mix(mix(config.seed ^ tenant as u64) ^ (i as u64 + 1));
                    let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
                    pool[zipf_rank(pool.len(), u)].clone()
                })
                .collect()
        }
    };
    let techniques = TechniqueId::all();
    picks
        .into_iter()
        .enumerate()
        .map(|(i, source)| {
            let mut spec = String::new();
            push_json_string(&source, &mut spec);
            let chaos = if config.chaos_rate > 0.0 {
                format!(
                    ",\"fault_rate\":{},\"fault_seed\":{}",
                    config.chaos_rate, config.seed
                )
            } else {
                String::new()
            };
            format!(
                "{{\"spec\":{spec},\"technique\":\"{}\",\"deadline_ms\":{},\"seed\":{}{chaos},\
                 \"budget\":{{\"max_candidates\":8,\"max_rounds\":2}}}}",
                techniques[i % techniques.len()].label(),
                config.deadline_ms,
                config.seed,
            )
        })
        .collect()
}

/// Runs the load generation: `connections` threads, one fresh connection
/// per request, interleaved over the body list.
pub fn run(config: &LoadgenConfig) -> LoadgenReport {
    let bodies = request_bodies(config);
    let connections = config.connections.max(1);
    let mut metrics_fetch_retries = 0usize;
    // Pre-run baseline for the warm-boot delta. Best-effort: a daemon that
    // cannot even answer `/metrics` will fail the post-run fetch too, and
    // that one is the reported failure. In cluster mode the baseline is
    // the shard aggregate — the router's own oracle is only a degraded
    // fallback and says nothing about cluster cache locality.
    let hit_rate_before = if config.shards.is_empty() {
        fetch_metrics_counting(&config.addr)
            .ok()
            .and_then(|(body, retries)| {
                metrics_fetch_retries += retries;
                MetricsReading::decode(&body).ok()
            })
            .map(|reading| reading.hit_rate)
    } else {
        let (rate, retries) = aggregate_shard_hit_rate(&config.shards);
        metrics_fetch_retries += retries;
        rate
    };
    let started = Instant::now();
    let (tx, rx) = mpsc::channel::<(Option<u16>, u64)>();
    std::thread::scope(|scope| {
        for worker in 0..connections {
            let tx = tx.clone();
            let bodies = &bodies;
            let addr = &config.addr;
            let shed_backoff_ms = config.shed_backoff_ms;
            scope.spawn(move || {
                let cancel = CancelToken::none();
                for body in bodies.iter().skip(worker).step_by(connections) {
                    let t0 = Instant::now();
                    let mut status = send_one(addr, body);
                    // Honour the daemon's `Retry-After` once: a shed under
                    // transient overload usually admits on the next try.
                    if status == Some(503)
                        && shed_backoff_ms > 0
                        && cancel.sleep(Duration::from_millis(shed_backoff_ms))
                    {
                        status = send_one(addr, body);
                    }
                    let micros = t0.elapsed().as_micros() as u64;
                    if tx.send((status, micros)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
    });

    let mut report = LoadgenReport {
        total: 0,
        ok: 0,
        shed: 0,
        timed_out: 0,
        unexpected: 0,
        latency: Histogram::default(),
        elapsed: Duration::ZERO,
        cache_hit_rate: None,
        dedup_hits: None,
        dedup_rate: None,
        incremental_checks: None,
        clause_reuse_rate: None,
        hit_rate_before,
        persist_preloaded: None,
        persist_hits: None,
        metrics_fetch_failures: 0,
        metrics_fetch_retries,
        per_shard: Vec::new(),
    };
    for (status, micros) in rx {
        report.total += 1;
        report.latency.record(micros);
        match status {
            Some(200) => report.ok += 1,
            Some(503) => report.shed += 1,
            Some(504) => report.timed_out += 1,
            _ => report.unexpected += 1,
        }
    }
    report.elapsed = started.elapsed();
    // One post-run `/metrics` fetch, decoded once, feeds every
    // reconciliation reading: the oracle cache hit rate, the
    // candidate-dedup counters, the incremental-session counters and the
    // persistent tier.
    match fetch_metrics_counting(&config.addr).and_then(|(body, retries)| {
        report.metrics_fetch_retries += retries;
        MetricsReading::decode(&body)
    }) {
        Ok(reading) => {
            report.cache_hit_rate = Some(reading.hit_rate);
            report.dedup_hits = Some(reading.dedup_hits);
            report.dedup_rate = Some(reading.dedup_rate);
            report.incremental_checks = Some(reading.incremental_checks);
            report.clause_reuse_rate = Some(reading.clause_reuse_rate);
            if let Some((preloaded, persist_hits)) = reading.persist {
                report.persist_preloaded = Some(preloaded);
                report.persist_hits = Some(persist_hits);
            }
        }
        Err(why) => {
            // A daemon whose `/metrics` endpoint answers garbage is a bug
            // worth surfacing, not a `None` to shrug at.
            eprintln!("warning: could not read oracle hit rate from /metrics: {why}");
            report.metrics_fetch_failures += 1;
        }
    }
    // Cluster mode: read every shard and report the aggregate — summed
    // hits over summed lookups, so a hot shard cannot hide a cold one.
    if !config.shards.is_empty() {
        let (mut hits_sum, mut misses_sum) = (0u64, 0u64);
        for addr in &config.shards {
            match read_shard(addr) {
                Ok((reading, retries)) => {
                    report.metrics_fetch_retries += retries;
                    hits_sum += reading.hits;
                    misses_sum += reading.misses;
                    report.per_shard.push(reading);
                }
                Err(why) => {
                    eprintln!("warning: could not read shard {addr} /metrics: {why}");
                    report.metrics_fetch_failures += 1;
                }
            }
        }
        report.cache_hit_rate = if hits_sum + misses_sum > 0 {
            Some(hits_sum as f64 / (hits_sum + misses_sum) as f64)
        } else {
            None
        };
    }
    report
}

/// Aggregate hit rate over a shard list — summed hits over summed
/// lookups — plus the connect retries spent. `None` when no shard (or no
/// lookup) answered.
fn aggregate_shard_hit_rate(shards: &[String]) -> (Option<f64>, usize) {
    let (mut hits_sum, mut misses_sum, mut retries_sum) = (0u64, 0u64, 0usize);
    for addr in shards {
        if let Ok((reading, retries)) = read_shard(addr) {
            hits_sum += reading.hits;
            misses_sum += reading.misses;
            retries_sum += retries;
        }
    }
    let rate = if hits_sum + misses_sum > 0 {
        Some(hits_sum as f64 / (hits_sum + misses_sum) as f64)
    } else {
        None
    };
    (rate, retries_sum)
}

/// Reads one shard's `/metrics` into a [`ShardReading`], plus the connect
/// retries the fetch needed.
///
/// # Errors
///
/// A human-readable description of the failed fetch or the malformed body.
fn read_shard(addr: &str) -> Result<(ShardReading, usize), String> {
    let (body, retries) = fetch_metrics_counting(addr)?;
    let reading = MetricsReading::decode(&body)?;
    let shard = ShardReading {
        addr: addr.to_string(),
        hits: reading.hits,
        misses: reading.misses,
        hit_rate: reading.hit_rate,
    };
    Ok((shard, retries))
}

/// Polls `GET /healthz` until the daemon answers `200`, with the same
/// bounded deterministic retry budget as the metrics fetches. Returns how
/// many attempts were spent waiting (0 = healthy on the first try).
///
/// # Errors
///
/// A description of the last failure once the budget is exhausted.
pub fn wait_healthy(addr: &str) -> Result<usize, String> {
    let cancel = CancelToken::none();
    let mut last = String::from("never attempted");
    for attempt in 0..PROBE_ATTEMPTS {
        match connect_with_retry(addr, 1, PROBE_BACKOFF, &cancel)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|(mut stream, _)| {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                roundtrip(&mut stream, "GET", "/healthz", "").map_err(|e| format!("transport: {e}"))
            }) {
            Ok((200, _)) => return Ok(attempt),
            Ok((status, _)) => last = format!("status {status}"),
            Err(why) => last = why,
        }
        if !cancel.sleep(PROBE_BACKOFF) {
            break;
        }
    }
    Err(format!(
        "{addr} not healthy after {PROBE_ATTEMPTS} attempts (last: {last})"
    ))
}

/// One `POST /repair` over a fresh connection; `None` on transport errors.
fn send_one(addr: &str, body: &str) -> Option<u16> {
    TcpStream::connect(addr)
        .and_then(|mut stream| roundtrip(&mut stream, "POST", "/repair", body))
        .map(|(status, _)| status)
        .ok()
}

/// Fetches `/metrics` with the bounded boot-race connect retry, returning
/// the body together with how many connect retries the fetch spent.
///
/// # Errors
///
/// The connect failure once the retry budget is exhausted, a transport
/// error, or a non-200 status — each described.
pub fn fetch_metrics_counting(addr: &str) -> Result<(String, usize), String> {
    let cancel = CancelToken::none();
    let (mut stream, retries) = connect_with_retry(addr, PROBE_ATTEMPTS, PROBE_BACKOFF, &cancel)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let (status, body) = roundtrip(&mut stream, "GET", "/metrics", "")
        .map_err(|e| format!("GET /metrics transport error: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics answered status {status}"));
    }
    Ok((body, retries))
}

/// The `/metrics` fields a report reads: the oracle cache, the verdict
/// chain, the incremental sessions and, when configured, the persistent
/// tier.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetricsReading {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) hit_rate: f64,
    pub(crate) dedup_hits: u64,
    pub(crate) dedup_rate: f64,
    pub(crate) incremental_checks: u64,
    pub(crate) clause_reuse_rate: f64,
    /// `(preloaded, persist_hits)` when the document shows the tier on.
    pub(crate) persist: Option<(u64, u64)>,
}

impl MetricsReading {
    /// Decodes a `/metrics` body, section by section in document order.
    ///
    /// # Errors
    ///
    /// A human-readable description of exactly which expectation the body
    /// violates: not JSON, not an object, a missing section, a missing
    /// field, or a mistyped value. A `persistent` section that renders
    /// `{"enabled": false}` is the tier being off, not an error.
    pub(crate) fn decode(body: &str) -> Result<MetricsReading, String> {
        let doc = MetricsDoc::parse(body)?;
        Ok(MetricsReading {
            hits: doc.number("oracle_cache", "hits")? as u64,
            misses: doc.number("oracle_cache", "misses")? as u64,
            hit_rate: doc.number("oracle_cache", "hit_rate")?,
            dedup_hits: doc.number("candidate_dedup", "dedup_hits")? as u64,
            dedup_rate: doc.number("candidate_dedup", "dedup_rate")?,
            incremental_checks: doc.number("incremental", "incremental_checks")? as u64,
            clause_reuse_rate: doc.number("incremental", "clause_reuse_rate")?,
            persist: if doc.flag("persistent", "enabled") {
                let preloaded = doc.number("persistent", "preloaded")? as u64;
                let persist_hits = doc.number("oracle_cache", "persist_hits").unwrap_or(0.0);
                Some((preloaded, persist_hits as u64))
            } else {
                None
            },
        })
    }
}

/// A parsed `/metrics` JSON document with described-field access.
struct MetricsDoc {
    root: Vec<(String, Value)>,
}

impl MetricsDoc {
    /// Parses the body and checks it is a JSON object.
    fn parse(body: &str) -> Result<MetricsDoc, String> {
        let value: Value = serde_json::from_str(body)
            .map_err(|e| format!("/metrics body is not valid JSON: {e}"))?;
        let Value::Map(root) = value else {
            return Err("/metrics body is not a JSON object".to_string());
        };
        Ok(MetricsDoc { root })
    }

    fn section(&self, section: &str) -> Result<&Vec<(String, Value)>, String> {
        let sec = self
            .root
            .iter()
            .find(|(k, _)| k == section)
            .map(|(_, v)| v)
            .ok_or(format!("/metrics document has no `{section}` section"))?;
        let Value::Map(sec) = sec else {
            return Err(format!("/metrics `{section}` is not an object"));
        };
        Ok(sec)
    }

    fn field(&self, section: &str, field: &str) -> Result<&Value, String> {
        self.section(section)?
            .iter()
            .find(|(k, _)| k == field)
            .map(|(_, v)| v)
            .ok_or(format!("/metrics `{section}` has no `{field}` field"))
    }

    /// `{section}.{field}` as a number, describing exactly which
    /// expectation a malformed body violates.
    fn number(&self, section: &str, field: &str) -> Result<f64, String> {
        match self.field(section, field)? {
            Value::F64(n) => Ok(*n),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            other => Err(format!("`{section}.{field}` is not a number: {other:?}")),
        }
    }

    /// `{section}.{field}` as a boolean (false when absent or mistyped).
    fn flag(&self, section: &str, field: &str) -> bool {
        matches!(self.field(section, field), Ok(Value::Bool(true)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RouterConfig, ServerConfig, ServerHandle};
    use specrepair_telemetry::{prom, SampleValue};

    #[test]
    fn bodies_are_deterministic_and_rotate_techniques() {
        let config = LoadgenConfig {
            requests: 26,
            ..LoadgenConfig::default()
        };
        let a = request_bodies(&config);
        let b = request_bodies(&config);
        assert_eq!(a, b, "same seed, same workload");
        assert_eq!(a.len(), 26);
        assert!(a[0].contains("\"technique\":\"ARepair\""));
        assert!(a[1].contains("\"technique\":\"ICEBAR\""));
        // Wraps around the twelve techniques.
        assert!(a[12].contains("\"technique\":\"ARepair\""));
        // Every body is itself valid JSON with a parsable spec.
        for body in &a {
            let parsed = crate::service::RepairRequest::parse(body).unwrap();
            assert!(mualloy_syntax::parse_spec(&parsed.spec).is_ok());
        }
    }

    #[test]
    fn chaos_bodies_carry_fault_fields() {
        let config = LoadgenConfig {
            requests: 3,
            chaos_rate: 0.25,
            ..LoadgenConfig::default()
        };
        for body in request_bodies(&config) {
            let parsed = crate::service::RepairRequest::parse(&body).unwrap();
            assert_eq!(parsed.fault_rate, Some(0.25));
            assert_eq!(parsed.fault_seed, Some(config.seed));
        }
        // Without the flag the bodies stay fault-free.
        let plain = request_bodies(&LoadgenConfig {
            requests: 1,
            ..LoadgenConfig::default()
        });
        assert!(!plain[0].contains("fault_rate"));
    }

    #[test]
    fn report_rendering_and_throughput() {
        let mut latency = Histogram::default();
        latency.record(2_000);
        let report = LoadgenReport {
            total: 10,
            ok: 8,
            shed: 1,
            timed_out: 1,
            unexpected: 0,
            latency,
            elapsed: Duration::from_secs(2),
            cache_hit_rate: Some(0.5),
            dedup_hits: Some(6),
            dedup_rate: Some(0.25),
            incremental_checks: Some(9),
            clause_reuse_rate: Some(0.8),
            hit_rate_before: Some(0.1),
            persist_preloaded: Some(12),
            persist_hits: Some(5),
            metrics_fetch_failures: 0,
            metrics_fetch_retries: 0,
            per_shard: Vec::new(),
        };
        assert!(report.clean());
        assert!((report.throughput() - 5.0).abs() < 1e-9);
        assert!((report.hit_rate_delta().unwrap() - 0.4).abs() < 1e-9);
        let text = report.render();
        assert!(text.contains("8 ok"));
        assert!(text.contains("50.0%"), "{text}");
        assert!(text.contains("6 hits (25.0% dedup rate)"), "{text}");
        assert!(text.contains("9 checks (80.0% clause reuse)"), "{text}");
        assert!(
            text.contains("12 preloaded, 5 persist hits, hit rate +40.0 points"),
            "{text}"
        );
    }

    #[test]
    fn report_counts_and_renders_metrics_fetch_failures() {
        let report = LoadgenReport {
            total: 1,
            ok: 1,
            shed: 0,
            timed_out: 0,
            unexpected: 0,
            latency: Histogram::default(),
            elapsed: Duration::from_secs(1),
            cache_hit_rate: None,
            dedup_hits: None,
            dedup_rate: None,
            incremental_checks: None,
            clause_reuse_rate: None,
            hit_rate_before: None,
            persist_preloaded: None,
            persist_hits: None,
            metrics_fetch_failures: 1,
            metrics_fetch_retries: 3,
            per_shard: Vec::new(),
        };
        let text = report.render();
        assert!(
            text.contains("unavailable (1 metrics fetch failure(s))"),
            "{text}"
        );
        assert!(
            text.contains("candidate dedup after run: unavailable"),
            "{text}"
        );
        assert!(
            text.contains("incremental oracle after run: unavailable"),
            "{text}"
        );
        assert!(text.contains("persistent tier after run: off"), "{text}");
        assert!(text.contains("boot race after 3 connect retries"), "{text}");
    }

    #[test]
    fn zipfian_bodies_are_deterministic_and_skewed() {
        let config = LoadgenConfig {
            requests: 120,
            profile: WorkloadProfile::Zipfian,
            tenants: 3,
            ..LoadgenConfig::default()
        };
        let a = request_bodies(&config);
        assert_eq!(a, request_bodies(&config), "same seed, same workload");
        assert_eq!(a.len(), 120);
        // Skew: the most frequent spec body must clearly beat a uniform
        // share. With 3 tenants × 12 ranks a uniform draw gives each
        // variant ~3.3% of requests; Zipf rank 0 gets ~32% per tenant.
        let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for body in &a {
            let spec = body.split("\"technique\"").next().unwrap();
            *counts.entry(spec).or_insert(0) += 1;
        }
        let hottest = *counts.values().max().unwrap();
        assert!(
            hottest >= 8,
            "expected a hot head, hottest spec got {hottest}/120"
        );
        assert!(counts.len() > 3, "tenants draw from distinct pools");
        // Every body still parses into a valid repair request.
        for body in a.iter().take(10) {
            let parsed = crate::service::RepairRequest::parse(body).unwrap();
            assert!(mualloy_syntax::parse_spec(&parsed.spec).is_ok());
        }
        // A different seed reshuffles the stream.
        let other = request_bodies(&LoadgenConfig { seed: 43, ..config });
        assert_ne!(a, other);
    }

    #[test]
    fn zipf_rank_is_monotone_and_bounded() {
        // u = 0 maps to the hottest rank; u → 1 walks down the tail.
        assert_eq!(zipf_rank(12, 0.0), 0);
        assert!(zipf_rank(12, 0.999) > zipf_rank(12, 0.01));
        assert!(zipf_rank(12, 0.999) < 12);
        // Degenerate pool sizes stay in range.
        assert_eq!(zipf_rank(1, 0.7), 0);
        // Rank 0 owns its full 1/H(12) ≈ 32% head of the unit interval.
        assert_eq!(zipf_rank(12, 0.3), 0);
    }

    #[test]
    fn profile_parses_cli_spellings() {
        assert_eq!(
            WorkloadProfile::parse("uniform"),
            Ok(WorkloadProfile::Uniform)
        );
        assert_eq!(
            WorkloadProfile::parse("zipfian"),
            Ok(WorkloadProfile::Zipfian)
        );
        assert!(WorkloadProfile::parse("hot").is_err());
    }

    #[test]
    fn cluster_report_renders_per_shard_hit_rates() {
        let report = LoadgenReport {
            total: 4,
            ok: 4,
            shed: 0,
            timed_out: 0,
            unexpected: 0,
            latency: Histogram::default(),
            elapsed: Duration::from_secs(1),
            cache_hit_rate: Some(0.5),
            dedup_hits: None,
            dedup_rate: None,
            incremental_checks: None,
            clause_reuse_rate: None,
            hit_rate_before: None,
            persist_preloaded: None,
            persist_hits: None,
            metrics_fetch_failures: 0,
            metrics_fetch_retries: 0,
            per_shard: vec![ShardReading {
                addr: "127.0.0.1:7971".to_string(),
                hits: 6,
                misses: 6,
                hit_rate: 0.5,
            }],
        };
        let text = report.render();
        assert!(text.contains("cluster: aggregate hit rate 50.0%"), "{text}");
        assert!(
            text.contains("shard 127.0.0.1:7971: 50.0% hit rate (6 hits / 6 misses)"),
            "{text}"
        );
    }

    /// A minimal well-formed `/metrics` body: every field the typed
    /// decoder requires, with `persistent`/`cluster` swappable per test.
    fn metrics_body(persistent: &str, cluster: &str) -> String {
        format!(
            r#"{{"oracle_cache":{{"hits":6,"misses":2,"hit_rate":0.75,"persist_hits":4}},
"candidate_dedup":{{"dedup_hits":7,"dedup_misses":21,"dedup_rate":0.25}},
"incremental":{{"incremental_checks":11,"clause_reuse_rate":0.6}},
"persistent":{persistent},
"cluster":{cluster}}}"#
        )
    }

    #[test]
    fn snapshot_decoder_reads_every_reconciliation_field() {
        let body = metrics_body(
            r#"{"enabled":false}"#,
            r#"{"enabled":true,"role":"shard","shard_id":2,"peers":3}"#,
        );
        // Without `--cache-dir` the tier renders `enabled: false`: the
        // decoder reports "off" as `None`, not an error.
        assert_eq!(
            MetricsReading::decode(&body).unwrap(),
            MetricsReading {
                hits: 6,
                misses: 2,
                hit_rate: 0.75,
                dedup_hits: 7,
                dedup_rate: 0.25,
                incremental_checks: 11,
                clause_reuse_rate: 0.6,
                persist: None,
            }
        );
    }

    #[test]
    fn snapshot_decoder_reads_the_persistent_tier_when_enabled() {
        let body = metrics_body(r#"{"enabled":true,"preloaded":17}"#, r#"{"enabled":false}"#);
        let reading = MetricsReading::decode(&body).unwrap();
        assert_eq!(reading.persist, Some((17, 4)));
        // An enabled tier that lost its `preloaded` counter is a described
        // error, not a panic.
        let broken = metrics_body(r#"{"enabled":true}"#, r#"{"enabled":false}"#);
        let err = MetricsReading::decode(&broken).unwrap_err();
        assert!(err.contains("no `preloaded` field"), "{err}");
    }

    #[test]
    fn snapshot_decoder_describes_each_malformation() {
        let cases: [(String, &str); 7] = [
            ("not json at all".to_string(), "not valid JSON"),
            ("[1,2,3]".to_string(), "not a JSON object"),
            (r#"{"queue":{}}"#.to_string(), "no `oracle_cache` section"),
            (
                r#"{"oracle_cache":{"hits":3,"misses":1}}"#.to_string(),
                "no `hit_rate` field",
            ),
            (
                r#"{"oracle_cache":{"hits":3,"misses":1,"hit_rate":"high"}}"#.to_string(),
                "not a number",
            ),
            (
                r#"{"oracle_cache":{"hits":6,"misses":2,"hit_rate":0.75}}"#.to_string(),
                "no `candidate_dedup` section",
            ),
            (
                r#"{"oracle_cache":{"hits":6,"misses":2,"hit_rate":0.75},
"candidate_dedup":{"dedup_hits":7,"dedup_rate":0.25}}"#
                    .to_string(),
                "no `incremental` section",
            ),
        ];
        for (body, expected) in cases {
            let err = MetricsReading::decode(&body).unwrap_err();
            assert!(err.contains(expected), "{body} => {err}");
        }
    }

    /// The daemon's own `GET /metrics/prom` exposition.
    fn exposition(addr: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connecting");
        let (status, body) =
            roundtrip(&mut stream, "GET", "/metrics/prom", "").expect("a well-formed response");
        assert_eq!(status, 200, "{body}");
        body
    }

    /// The value of the scalar series `id` in an exposition.
    fn series(exposition: &str, id: &str) -> f64 {
        let samples = prom::parse(exposition).expect("the exposition parses");
        let sample = samples
            .iter()
            .find(|s| s.id() == id)
            .unwrap_or_else(|| panic!("no series {id}"));
        match sample.value {
            SampleValue::Counter(n) => n as f64,
            SampleValue::Gauge(v) => v,
            ref other => panic!("{id} is not a scalar: {other:?}"),
        }
    }

    fn small_pass(addr: &str) -> LoadgenConfig {
        LoadgenConfig {
            addr: addr.to_string(),
            requests: 12,
            connections: 2,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn run_reports_what_the_daemon_exposes() {
        let cache_dir =
            std::env::temp_dir().join(format!("specrepaird-loadgen-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let daemon = crate::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: Some(cache_dir.clone()),
            ..ServerConfig::default()
        })
        .expect("binding an ephemeral port");
        let config = small_pass(&daemon.addr().to_string());
        let mut hit_rates = Vec::new();
        for _ in 0..2 {
            let report = run(&config);
            assert!(report.clean(), "{}", report.render());
            assert_eq!(report.metrics_fetch_failures, 0, "{}", report.render());
            // Nothing runs between the report's `/metrics` read and this
            // one, so every field equals the daemon's own series.
            let text = exposition(&config.addr);
            let count = |id| Some(series(&text, id) as u64);
            assert_eq!(report.dedup_hits, count("specrepair_dedup_hits_total"));
            assert_eq!(
                report.dedup_rate,
                Some(series(&text, "specrepair_dedup_rate"))
            );
            assert_eq!(
                report.incremental_checks,
                count("specrepair_incremental_checks_total")
            );
            assert_eq!(
                report.clause_reuse_rate,
                Some(series(&text, "specrepair_incremental_clause_reuse_rate"))
            );
            assert_eq!(
                report.persist_preloaded,
                count("specrepair_persist_preloaded")
            );
            assert_eq!(
                report.persist_hits,
                count("specrepair_oracle_persist_hits_total")
            );
            hit_rates.push(report.cache_hit_rate.expect("a post-run hit rate"));
        }
        assert!(
            hit_rates[1] > hit_rates[0],
            "an identical replay must warm the cache: {hit_rates:?}"
        );
        daemon.shutdown();
        daemon.join();
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    #[test]
    fn run_over_shards_reads_each_shard_and_sums_the_rate() {
        let shards: Vec<ServerHandle> = (0..2)
            .map(|_| {
                crate::spawn(ServerConfig {
                    addr: "127.0.0.1:0".to_string(),
                    ..ServerConfig::default()
                })
                .expect("binding an ephemeral port")
            })
            .collect();
        let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
        let router = crate::spawn_router(RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: addrs.clone(),
            ..RouterConfig::default()
        })
        .expect("binding an ephemeral port");
        let report = run(&LoadgenConfig {
            shards: addrs.clone(),
            ..small_pass(&router.addr().to_string())
        });
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.metrics_fetch_failures, 0, "{}", report.render());
        let rows: Vec<&str> = report.per_shard.iter().map(|r| r.addr.as_str()).collect();
        assert_eq!(rows, addrs, "one row per shard, in --shards order");
        let (mut hits, mut lookups) = (0, 0);
        for row in &report.per_shard {
            let text = exposition(&row.addr);
            assert_eq!(
                row.hits as f64,
                series(&text, "specrepair_oracle_hits_total")
            );
            assert_eq!(
                row.misses as f64,
                series(&text, "specrepair_oracle_misses_total")
            );
            assert_eq!(row.hit_rate, series(&text, "specrepair_oracle_hit_rate"));
            hits += row.hits;
            lookups += row.hits + row.misses;
        }
        assert!(lookups > 0, "the pass reached the shards");
        // The aggregate is summed hits over summed lookups, not a mean of
        // the shards' rates.
        assert_eq!(report.cache_hit_rate, Some(hits as f64 / lookups as f64));
        router.shutdown();
        router.join();
        for shard in shards {
            shard.shutdown();
            shard.join();
        }
    }
}
