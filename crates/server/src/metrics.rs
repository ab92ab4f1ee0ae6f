//! Server observability, rebased on the unified telemetry registry.
//!
//! [`ServerMetrics`] used to keep its own maps of counters and latency
//! histograms and hand-render the `GET /metrics` JSON; now every series
//! lives in a [`Registry`] (lock-free relaxed-atomic increments on the
//! hot path) and the document is produced by assembling a typed
//! [`Snapshot`] — the same snapshot that backs the Prometheus exposition
//! at `GET /metrics/prom`, the time-series ring at `GET /metrics/history`
//! and fleet aggregation at the router. The JSON document itself is
//! byte-for-byte the historical format, pinned by the golden-file test
//! below.

use std::time::Instant;

use mualloy_analyzer::{IncrementalStats, OracleCacheStats};
use serde::Value;
use specrepair_cache::PersistStats;
use specrepair_core::DedupStats;
use specrepair_llm::TransportStats;
use specrepair_telemetry::{
    ClusterSection, Counter, Gauge, Registry, Sample, SampleValue, Snapshot,
};

/// The log₂ latency histogram, promoted into the telemetry crate; the
/// historical `server::Histogram` name keeps working.
pub use specrepair_telemetry::HistogramSnapshot as Histogram;

fn label(sample: &Sample, key: &str) -> String {
    sample
        .labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_default()
}

/// The server-wide metrics registry. All methods take `&self`; it is shared
/// behind the server state `Arc` across acceptor and workers.
#[derive(Debug)]
pub struct ServerMetrics {
    started: Instant,
    registry: Registry,
    queue_depth: Gauge,
    inflight: Gauge,
    shed_total: Counter,
    deadline_exceeded_total: Counter,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// A fresh registry.
    pub fn new() -> ServerMetrics {
        let registry = Registry::new();
        let queue_depth = registry.gauge(
            "specrepair_queue_depth",
            "Requests waiting in the admission queue.",
            &[],
        );
        let inflight = registry.gauge(
            "specrepair_inflight",
            "Requests currently executing in workers.",
            &[],
        );
        let shed_total = registry.counter(
            "specrepair_shed_total",
            "Connections shed at admission.",
            &[],
        );
        let deadline_exceeded_total = registry.counter(
            "specrepair_deadline_exceeded_total",
            "Repairs that exceeded their deadline.",
            &[],
        );
        ServerMetrics {
            started: Instant::now(),
            registry,
            queue_depth,
            inflight,
            shed_total,
            deadline_exceeded_total,
        }
    }

    /// Counts one routed request with its response status.
    pub fn record_request(&self, endpoint: &str, status: u16) {
        self.registry
            .counter(
                "specrepair_requests_total",
                "Requests served, by endpoint and status.",
                &[("endpoint", endpoint), ("status", &status.to_string())],
            )
            .inc();
    }

    /// Counts one connection shed at admission (queue full → `503`).
    pub fn record_shed(&self) {
        self.shed_total.inc();
        self.record_request("admission", 503);
    }

    /// Counts one repair that hit its deadline.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded_total.inc();
    }

    /// Records one repair latency under the technique's label.
    pub fn record_latency(&self, technique: &str, micros: u64) {
        self.registry
            .histogram(
                "specrepair_repair_latency_us",
                "Repair latency in microseconds, by technique.",
                &[("technique", technique)],
            )
            .record(micros);
    }

    /// Total count of requests served for one endpoint (all statuses).
    pub fn requests_for(&self, endpoint: &str) -> u64 {
        self.registry
            .gather()
            .iter()
            .filter(|s| s.name == "specrepair_requests_total" && label(s, "endpoint") == endpoint)
            .map(|s| match s.value {
                SampleValue::Counter(n) => n,
                _ => 0,
            })
            .sum()
    }

    /// Adjusts the admission-queue depth gauge.
    pub fn queue_depth_add(&self, delta: isize) {
        self.queue_depth.add(delta as i64);
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.get_unsigned() as usize
    }

    /// Marks one request entering/leaving a worker.
    pub fn inflight_add(&self, delta: isize) {
        self.inflight.add(delta as i64);
    }

    /// Number of requests currently executing in workers.
    pub fn inflight(&self) -> usize {
        self.inflight.get_unsigned() as usize
    }

    /// Assembles the typed snapshot of this daemon: the registry's own
    /// series (requests, latencies, gauges) plus every subsystem section.
    ///
    /// One parameter per stats source is deliberate: every call site must
    /// decide explicitly what each section shows.
    #[allow(clippy::too_many_arguments)]
    pub fn snapshot(
        &self,
        oracle: &OracleCacheStats,
        memoized_specs: usize,
        dedup: &DedupStats,
        incremental: &IncrementalStats,
        transport: &TransportStats,
        persist: Option<&PersistStats>,
        cluster: ClusterSection,
    ) -> Snapshot {
        let mut requests: Vec<(String, Vec<(String, u64)>)> = Vec::new();
        let mut latency: Vec<(String, Histogram)> = Vec::new();
        // gather() is sorted by (name, labels), so request rows arrive
        // grouped by endpoint and latencies sorted by technique.
        for sample in self.registry.gather() {
            match (sample.name.as_str(), &sample.value) {
                ("specrepair_requests_total", SampleValue::Counter(n)) => {
                    let endpoint = label(&sample, "endpoint");
                    let status = label(&sample, "status");
                    match requests.last_mut() {
                        Some((e, rows)) if *e == endpoint => rows.push((status, *n)),
                        _ => requests.push((endpoint, vec![(status, *n)])),
                    }
                }
                ("specrepair_repair_latency_us", SampleValue::Histogram(h)) => {
                    latency.push((label(&sample, "technique"), h.clone()));
                }
                _ => {}
            }
        }
        Snapshot {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            queue_depth: self.queue_depth.get_unsigned(),
            inflight: self.inflight.get_unsigned(),
            shed_total: self.shed_total.get(),
            deadline_exceeded_total: self.deadline_exceeded_total.get(),
            requests,
            latency,
            oracle_cache: oracle.section(memoized_specs),
            candidate_dedup: dedup.section(),
            incremental: incremental.section(),
            persistent: persist.map(|p| p.section()),
            cluster,
            transport: transport.section(),
        }
    }

    /// Renders the `GET /metrics` JSON document — byte-compatible with
    /// the pre-registry format (see the golden-file test).
    #[allow(clippy::too_many_arguments)]
    pub fn render(
        &self,
        oracle: &OracleCacheStats,
        memoized_specs: usize,
        dedup: &DedupStats,
        incremental: &IncrementalStats,
        transport: &TransportStats,
        persist: Option<&PersistStats>,
        cluster: ClusterSection,
    ) -> String {
        self.snapshot(
            oracle,
            memoized_specs,
            dedup,
            incremental,
            transport,
            persist,
            cluster,
        )
        .to_json()
    }
}

/// Per-phase busy-time totals since boot, aggregated from every traced
/// repair request — the state behind `GET /trace/summary`. Empty (and the
/// document says so) unless the daemon runs with tracing on. Carried as
/// telemetry [`Counter`] cells: same lock-free discipline as the rest of
/// the registry.
#[derive(Debug, Default)]
pub struct TraceTotals {
    spans: Counter,
    requests: Counter,
    /// Exclusive nanoseconds per phase, in [`Phase::ALL`] order.
    phase_ns: [Counter; 4],
}

use specrepair_trace::{Phase, SpanRecord};

impl TraceTotals {
    /// A zeroed accumulator.
    pub fn new() -> TraceTotals {
        TraceTotals::default()
    }

    /// Folds one drained batch of spans (typically: everything one repair
    /// request produced) into the totals.
    pub fn absorb(&self, spans: &[SpanRecord]) {
        if spans.is_empty() {
            return;
        }
        self.spans.add(spans.len() as u64);
        self.requests.inc();
        for (i, ns) in specrepair_trace::phase_totals_ns(spans).iter().enumerate() {
            self.phase_ns[i].add(*ns);
        }
    }

    /// Spans absorbed since boot.
    pub fn spans(&self) -> u64 {
        self.spans.get()
    }

    /// Renders the `GET /trace/summary` JSON document: whether the
    /// collector is on, how many spans landed, and per-phase busy
    /// milliseconds plus percentage of the attributed total since boot.
    pub fn render(&self, enabled: bool) -> String {
        let phase_ns: Vec<u64> = self.phase_ns.iter().map(|c| c.get()).collect();
        let total_ns: u64 = phase_ns.iter().sum();
        let phases = Value::Map(
            Phase::ALL
                .iter()
                .zip(&phase_ns)
                .map(|(phase, &ns)| {
                    let pct = if total_ns == 0 {
                        0.0
                    } else {
                        100.0 * ns as f64 / total_ns as f64
                    };
                    (
                        phase.label().to_string(),
                        Value::Map(vec![
                            ("busy_ms".to_string(), Value::F64(ns as f64 / 1e6)),
                            ("pct".to_string(), Value::F64(pct)),
                        ]),
                    )
                })
                .collect(),
        );
        let doc = Value::Map(vec![
            ("tracing_enabled".to_string(), Value::Bool(enabled)),
            ("spans_total".to_string(), Value::U64(self.spans())),
            (
                "traced_requests_total".to_string(),
                Value::U64(self.requests.get()),
            ),
            (
                "attributed_ms_total".to_string(),
                Value::F64(total_ns as f64 / 1e6),
            ),
            ("phases".to_string(), phases),
        ]);
        serde_json::to_string_pretty(&doc).expect("trace summary always serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrepair_telemetry::ShardClusterSection;

    #[test]
    fn histogram_percentiles_are_ordered_and_bounded() {
        let mut h = Histogram::default();
        for micros in [100, 200, 300, 400, 500, 10_000, 20_000, 900_000] {
            h.record(micros);
        }
        assert_eq!(h.count(), 8);
        let p50 = h.percentile(0.50).unwrap();
        let p90 = h.percentile(0.90).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 <= 900_000, "clamped to the observed max");
        // p50 of the sample sits near the 300–500 µs cluster; the log₂
        // bucket upper bound is 512 µs.
        assert!((256..=1024).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn histogram_empty_and_zero() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.mean_micros(), 0);
        h.record(0); // clamped into the first bucket
        assert_eq!(h.count(), 1);
        assert!(h.percentile(0.99).is_some());
    }

    #[test]
    fn histogram_single_sample_pins_every_percentile() {
        let mut h = Histogram::default();
        h.record(1_000);
        // With one observation every quantile collapses to it: the bucket
        // upper bound (1024) is clamped to the observed max.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Some(1_000), "q = {q}");
        }
        assert_eq!(h.mean_micros(), 1_000);
    }

    #[test]
    fn histogram_exact_bucket_boundary_lands_in_upper_bucket() {
        // 1024 = 2^10 sits exactly on a bucket edge; buckets are
        // half-open [2^i, 2^(i+1)), so it belongs to bucket 10 and the
        // reported quantile is the clamped upper bound 1024, not 2048.
        let mut h = Histogram::default();
        h.record(1_024);
        assert_eq!(h.percentile(0.5), Some(1_024));
        // A second sample just below the edge stays in bucket 9, so the
        // median drops to that bucket's upper bound.
        h.record(1_023);
        assert_eq!(h.percentile(0.5), Some(1_024));
        assert_eq!(h.percentile(1.0), Some(1_024));
    }

    #[test]
    fn trace_totals_absorb_and_render() {
        use specrepair_trace::{AttrValue, Phase, SpanRecord};
        let parent = SpanRecord {
            id: 10,
            parent: 0,
            name: "cell",
            phase: Phase::Orchestration,
            cell: 1,
            ordinal: 0,
            start_ns: 0,
            dur_ns: 10_000_000,
            attrs: Vec::<(&'static str, AttrValue)>::new(),
        };
        let child = SpanRecord {
            id: 11,
            parent: 10,
            name: "sat.solve",
            phase: Phase::Sat,
            cell: 1,
            ordinal: 0,
            start_ns: 1_000_000,
            dur_ns: 4_000_000,
            attrs: Vec::new(),
        };
        let totals = TraceTotals::new();
        totals.absorb(&[]); // empty batches are not counted as requests
        totals.absorb(&[parent, child]);
        assert_eq!(totals.spans(), 2);
        let doc = totals.render(true);
        // Exclusive attribution: 6 ms orchestration + 4 ms SAT = 10 ms.
        for needle in [
            "\"tracing_enabled\": true",
            "\"spans_total\": 2",
            "\"traced_requests_total\": 1",
            "\"attributed_ms_total\": 10",
            "\"sat\"",
            "\"orchestration\"",
        ] {
            assert!(doc.contains(needle), "summary missing {needle}:\n{doc}");
        }
    }

    #[test]
    fn registry_counts_and_renders() {
        let m = ServerMetrics::new();
        m.record_request("repair", 200);
        m.record_request("repair", 200);
        m.record_request("repair", 400);
        m.record_shed();
        m.record_latency("ICEBAR", 1_500);
        m.queue_depth_add(2);
        m.queue_depth_add(-1);
        assert_eq!(m.requests_for("repair"), 3);
        assert_eq!(m.requests_for("admission"), 1);
        assert_eq!(m.queue_depth(), 1);
        let transport = TransportStats::new();
        transport.retries.add(3);
        transport
            .faults
            .record(specrepair_faults::FaultKind::Timeout);
        let dedup = DedupStats {
            hits: 4,
            misses: 12,
            coalesced: 1,
        };
        let incremental = IncrementalStats {
            sessions: 2,
            checks: 8,
            fallbacks: 1,
            activation_vars: 8,
            clauses_reused: 30,
            clauses_total: 40,
            learned_clauses_retained: 5,
        };
        let doc = m.render(
            &OracleCacheStats::default(),
            0,
            &dedup,
            &incremental,
            &transport,
            None,
            ClusterSection::Off,
        );
        for needle in [
            "\"repair\"",
            "\"200\": 2",
            "\"400\": 1",
            "\"shed_total\": 1",
            "\"ICEBAR\"",
            "\"queue_depth\": 1",
            "\"hit_rate\"",
            "\"evictions\"",
            "\"retries\": 3",
            "\"breaker_trips\": 0",
            "\"injected_faults\"",
            "\"timeout\": 1",
            "\"candidate_dedup\"",
            "\"dedup_hits\": 4",
            "\"dedup_rate\": 0.25",
            "\"incremental\"",
            "\"incremental_sessions\": 2",
            "\"incremental_checks\": 8",
            "\"clause_reuse_rate\": 0.75",
            "\"learned_clauses_retained\": 5",
            "\"persist_hits\": 0",
            "\"collapsed\": 0",
            "\"persistent\"",
            "\"enabled\": false",
            "\"cluster\"",
        ] {
            assert!(doc.contains(needle), "metrics missing {needle}:\n{doc}");
        }
    }

    #[test]
    fn persistent_section_renders_when_attached() {
        let m = ServerMetrics::new();
        let persist = PersistStats {
            preloaded: 7,
            live_entries: 9,
            hits: 3,
            lookups: 5,
            appends: 2,
            degraded: true,
            breaker_trips: 1,
            ..PersistStats::default()
        };
        let doc = m.render(
            &OracleCacheStats::default(),
            0,
            &DedupStats::default(),
            &IncrementalStats::default(),
            &TransportStats::new(),
            Some(&persist),
            ClusterSection::Off,
        );
        for needle in [
            "\"persistent\"",
            "\"enabled\": true",
            "\"degraded\": true",
            "\"preloaded\": 7",
            "\"live_entries\": 9",
        ] {
            assert!(doc.contains(needle), "metrics missing {needle}:\n{doc}");
        }
    }

    #[test]
    fn cluster_section_renders_when_provided() {
        let m = ServerMetrics::new();
        let cluster = ClusterSection::Shard(ShardClusterSection {
            shard_id: 2,
            peers: 3,
        });
        let doc = m.render(
            &OracleCacheStats::default(),
            0,
            &DedupStats::default(),
            &IncrementalStats::default(),
            &TransportStats::new(),
            None,
            cluster,
        );
        for needle in [
            "\"cluster\"",
            "\"role\": \"shard\"",
            "\"shard_id\": 2",
            "\"peers\": 3",
        ] {
            assert!(doc.contains(needle), "metrics missing {needle}:\n{doc}");
        }
    }

    /// The legacy `GET /metrics` document must stay byte-identical across
    /// the registry rebase. The golden file was generated by the
    /// pre-registry renderer from exactly the inputs below; only the
    /// timing-dependent `uptime_ms` line is normalized.
    #[test]
    fn metrics_document_matches_pre_registry_golden() {
        let golden = include_str!("../testdata/metrics_golden.json");
        let m = ServerMetrics::new();
        m.record_request("repair", 200);
        m.record_request("repair", 200);
        m.record_request("repair", 400);
        m.record_shed();
        m.record_latency("ICEBAR", 1_500);
        m.record_latency("ATR", 800);
        m.queue_depth_add(2);
        m.queue_depth_add(-1);
        m.inflight_add(1);
        m.record_deadline_exceeded();
        let oracle = OracleCacheStats {
            hits: 12,
            misses: 4,
            solver_invocations: 5,
            errors: 1,
            evictions: 2,
            persist_hits: 3,
            collapsed: 1,
        };
        let dedup = DedupStats {
            hits: 4,
            misses: 12,
            coalesced: 1,
        };
        let incremental = IncrementalStats {
            sessions: 2,
            checks: 8,
            fallbacks: 1,
            activation_vars: 8,
            clauses_reused: 30,
            clauses_total: 40,
            learned_clauses_retained: 5,
        };
        let transport = TransportStats::new();
        transport.retries.add(3);
        transport.giveups.add(1);
        transport
            .faults
            .record(specrepair_faults::FaultKind::Timeout);
        transport
            .faults
            .record(specrepair_faults::FaultKind::RateLimit);
        transport
            .faults
            .record(specrepair_faults::FaultKind::RateLimit);
        let persist = PersistStats {
            preloaded: 7,
            quarantined: 1,
            live_entries: 9,
            disk_lines: 11,
            disk_good: 10,
            hits: 3,
            lookups: 5,
            appends: 2,
            append_errors: 1,
            skipped_degraded: 1,
            breaker_trips: 1,
            degraded: true,
            compactions: 1,
            compaction_failures: 0,
            injected_write_errors: 2,
            injected_short_writes: 0,
            injected_bit_flips: 1,
        };
        let cluster = ClusterSection::Shard(ShardClusterSection {
            shard_id: 1,
            peers: 3,
        });
        let doc = m.render(
            &oracle,
            6,
            &dedup,
            &incremental,
            &transport,
            Some(&persist),
            cluster,
        );
        let normalize = |text: &str| -> String {
            text.lines()
                .map(|line| {
                    if line.trim_start().starts_with("\"uptime_ms\":") {
                        "  \"uptime_ms\": 0,".to_string()
                    } else {
                        line.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            normalize(&doc),
            normalize(golden.trim_end()),
            "legacy /metrics document drifted from the golden file"
        );
    }
}
