//! Server observability: the daemon's own metric cells and the per-phase
//! trace totals.
//!
//! [`ServerMetrics`] holds the hot-path cells: the admission gauges and
//! counters, plus a [`Registry`] of the two labeled families (requests by
//! endpoint and status, repair latency histograms by technique), all
//! lock-free relaxed-atomic increments. It renders nothing itself: the
//! crate's `snapshot` module reads it next to every subsystem's stats and
//! describes each metric once for both the `GET /metrics` JSON document
//! and the sample list behind `GET /metrics/prom`, the history ring and
//! the router's fleet scrape. The JSON document is byte-for-byte the
//! historical format, pinned by the golden-file tests below, as are the
//! exposition and a router's document.

use std::time::Instant;

use serde::Value;
use specrepair_telemetry::{Counter, Gauge, Registry};

use crate::snapshot::{LATENCY, REQUESTS};

/// The log₂ latency histogram, promoted into the telemetry crate; the
/// historical `server::Histogram` name keeps working.
pub use specrepair_telemetry::HistogramSnapshot as Histogram;

/// The server-wide metrics registry. All methods take `&self`; it is shared
/// behind the server state `Arc` across acceptor and workers.
#[derive(Debug)]
pub struct ServerMetrics {
    pub(crate) started: Instant,
    /// The request counters and latency histograms.
    pub(crate) registry: Registry,
    pub(crate) queue_depth: Gauge,
    pub(crate) inflight: Gauge,
    pub(crate) shed_total: Counter,
    pub(crate) deadline_exceeded_total: Counter,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// A fresh registry.
    pub fn new() -> ServerMetrics {
        ServerMetrics {
            started: Instant::now(),
            registry: Registry::new(),
            queue_depth: Gauge::new(),
            inflight: Gauge::new(),
            shed_total: Counter::new(),
            deadline_exceeded_total: Counter::new(),
        }
    }

    /// Counts one routed request with its response status.
    pub fn record_request(&self, endpoint: &str, status: u16) {
        self.registry
            .counter(
                REQUESTS.name,
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
            .histogram(LATENCY.name, &[("technique", technique)])
            .record(micros);
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
pub(crate) mod tests {
    use super::*;
    use crate::server::ShardConfig;
    use crate::snapshot::{ClusterSection, RouterClusterSection, RouterShardRow, Snapshot};
    use mualloy_analyzer::{IncrementalStats, OracleCacheStats};
    use specrepair_cache::PersistStats;
    use specrepair_core::DedupStats;
    use specrepair_llm::TransportStats;
    use specrepair_telemetry::SampleValue;

    /// A snapshot of `metrics` and `transport` with every other source at
    /// rest: no oracle traffic, no tier, no cluster.
    pub(crate) fn idle<'a>(
        metrics: &'a ServerMetrics,
        transport: &'a TransportStats,
    ) -> Snapshot<'a> {
        Snapshot {
            metrics,
            oracle: OracleCacheStats::default(),
            memoized_specs: 0,
            dedup: DedupStats::default(),
            incremental: IncrementalStats::default(),
            transport,
            persist: None,
            cluster: ClusterSection::Off,
        }
    }

    /// The daemon cells and transport counters the golden files were
    /// rendered from.
    pub(crate) fn golden_daemon() -> (ServerMetrics, TransportStats) {
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
        (m, transport)
    }

    /// The shard snapshot the golden files were rendered from: every
    /// section populated, with a degraded persistent tier.
    pub(crate) fn golden<'a>(
        metrics: &'a ServerMetrics,
        transport: &'a TransportStats,
    ) -> Snapshot<'a> {
        Snapshot {
            oracle: OracleCacheStats {
                hits: 12,
                misses: 4,
                solver_invocations: 5,
                errors: 1,
                evictions: 2,
                persist_hits: 3,
                collapsed: 1,
            },
            memoized_specs: 6,
            dedup: DedupStats {
                hits: 4,
                misses: 12,
                coalesced: 1,
            },
            incremental: IncrementalStats {
                sessions: 2,
                checks: 8,
                fallbacks: 1,
                activation_vars: 8,
                clauses_reused: 30,
                clauses_total: 40,
                learned_clauses_retained: 5,
            },
            persist: Some(PersistStats {
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
            }),
            cluster: ClusterSection::Shard(ShardConfig {
                shard_id: 1,
                peers: vec!["a:1".to_string(), "b:2".to_string(), "c:3".to_string()],
            }),
            ..idle(metrics, transport)
        }
    }

    /// Zeroes the timing-dependent uptime in either format.
    fn normalize_uptime(text: &str) -> String {
        text.trim_end()
            .lines()
            .map(|line| {
                if line.trim_start().starts_with("\"uptime_ms\":") {
                    "  \"uptime_ms\": 0,".to_string()
                } else if line.starts_with("specrepair_uptime_ms ") {
                    "specrepair_uptime_ms 0".to_string()
                } else {
                    line.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

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
        let requests_for = |endpoint: &str| -> u64 {
            m.registry
                .gather()
                .iter()
                .filter(|s| {
                    s.labels
                        .contains(&("endpoint".to_string(), endpoint.to_string()))
                })
                .map(|s| match s.value {
                    SampleValue::Counter(n) => n,
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(requests_for("repair"), 3);
        assert_eq!(requests_for("admission"), 1);
        assert_eq!(m.queue_depth(), 1);
        let transport = TransportStats::new();
        transport.retries.add(3);
        transport
            .faults
            .record(specrepair_faults::FaultKind::Timeout);
        let doc = Snapshot {
            dedup: DedupStats {
                hits: 4,
                misses: 12,
                coalesced: 1,
            },
            incremental: IncrementalStats {
                sessions: 2,
                checks: 8,
                fallbacks: 1,
                activation_vars: 8,
                clauses_reused: 30,
                clauses_total: 40,
                learned_clauses_retained: 5,
            },
            ..idle(&m, &transport)
        }
        .to_json();
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
        let transport = TransportStats::new();
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
        let doc = Snapshot {
            persist: Some(persist),
            ..idle(&m, &transport)
        }
        .to_json();
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
        let transport = TransportStats::new();
        let doc = Snapshot {
            cluster: ClusterSection::Shard(ShardConfig {
                shard_id: 2,
                peers: vec!["a:1".to_string(), "b:2".to_string(), "c:3".to_string()],
            }),
            ..idle(&m, &transport)
        }
        .to_json();
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
    /// pre-registry renderer from exactly the inputs of [`golden_daemon`]
    /// and [`golden`]; only the timing-dependent `uptime_ms` line is
    /// normalized.
    #[test]
    fn metrics_document_matches_pre_registry_golden() {
        let (m, transport) = golden_daemon();
        assert_eq!(
            normalize_uptime(&golden(&m, &transport).to_json()),
            normalize_uptime(include_str!("../testdata/metrics_golden.json")),
            "legacy /metrics document drifted from the golden file"
        );
    }

    /// The `GET /metrics/prom` exposition of the same inputs, pinned by a
    /// golden file rendered before the metrics were described once.
    #[test]
    fn exposition_matches_golden() {
        let (m, transport) = golden_daemon();
        assert_eq!(
            normalize_uptime(&golden(&m, &transport).to_prom()),
            normalize_uptime(include_str!("../testdata/metrics_golden.prom")),
            "/metrics/prom exposition drifted from the golden file"
        );
    }

    /// A router's document and exposition with one shard row, pinned the
    /// same way.
    #[test]
    fn router_snapshot_matches_golden() {
        let m = ServerMetrics::new();
        m.record_request("repair", 200);
        let transport = TransportStats::new();
        let router = Snapshot {
            cluster: ClusterSection::Router(RouterClusterSection {
                shards: vec![RouterShardRow {
                    addr: "127.0.0.1:7971".to_string(),
                    forwarded: 9,
                    retries: 1,
                    failures: 2,
                    breaker_open: true,
                }],
                degraded_local_solves: 4,
                breaker_trips: 5,
                skipped_open: 6,
            }),
            ..idle(&m, &transport)
        };
        assert_eq!(
            normalize_uptime(&router.to_json()),
            normalize_uptime(include_str!("../testdata/metrics_router_golden.json")),
            "router /metrics document drifted from the golden file"
        );
        assert_eq!(
            normalize_uptime(&router.to_prom()),
            normalize_uptime(include_str!("../testdata/metrics_router_golden.prom")),
            "router /metrics/prom exposition drifted from the golden file"
        );
    }
}
