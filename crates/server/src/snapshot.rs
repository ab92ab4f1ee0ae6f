//! The daemon's metrics, each described once.
//!
//! A flat metric is one [`Metric`] entry: its key in the `GET /metrics`
//! JSON document, its family in the `GET /metrics/prom` exposition, the
//! family's help text, and the stats field it reads. The entries read the
//! subsystems' own stats structs, and one walk over them fills both
//! formats side by side, so the two cannot drift. The parts that are not
//! flat fields are written once each, in the same walk: the request rows
//! and latency summaries (the registry's gathered samples, which join the
//! sample list as they are), the `{"enabled": false}` of an absent tier,
//! the cluster role and the router's shard rows, and the transport fault
//! map with its derived `total`.
//!
//! The JSON document keeps its historical bytes (golden-file pinned in
//! [`crate::metrics`]). The sample list feeds the Prometheus exposition,
//! the history ring and, through the exposition, the router's fleet
//! scrape.

use std::collections::BTreeMap;

use mualloy_analyzer::{IncrementalStats, OracleCacheStats};
use serde::Value;
use specrepair_cache::PersistStats;
use specrepair_core::DedupStats;
use specrepair_llm::TransportStats;
use specrepair_telemetry::{prom, series_id, Sample, SampleValue};

use crate::metrics::ServerMetrics;
use crate::server::ShardConfig;
use crate::service::RepairService;

/// What one described metric reads, which fixes how each format shows it.
#[derive(Debug, Clone, Copy)]
enum Reading {
    /// A monotone count: a JSON integer and a Prometheus counter.
    Count(u64),
    /// A current level: a JSON integer and a gauge.
    Level(u64),
    /// A fraction: a JSON float and a gauge.
    Ratio(f64),
    /// A yes/no state: a JSON boolean and a 0/1 gauge.
    Flag(bool),
}

use Reading::{Count, Flag, Level, Ratio};

impl Reading {
    fn json(self) -> Value {
        match self {
            Count(n) | Level(n) => Value::U64(n),
            Ratio(r) => Value::F64(r),
            Flag(b) => Value::Bool(b),
        }
    }

    fn sample(self) -> SampleValue {
        match self {
            Count(n) => SampleValue::Counter(n),
            Level(n) => SampleValue::Gauge(n as f64),
            Ratio(r) => SampleValue::Gauge(r),
            Flag(b) => SampleValue::Gauge(f64::from(u8::from(b))),
        }
    }
}

/// One flat metric: its key in the JSON document, its family in the
/// exposition, the family's help text, and what it reads from `T`.
struct Metric<T> {
    key: &'static str,
    family: &'static str,
    help: &'static str,
    read: fn(&T) -> Reading,
}

/// A family the walk emits outside the flat tables.
pub(crate) struct Family {
    pub(crate) name: &'static str,
    help: &'static str,
}

/// Requests served, recorded per endpoint and status by
/// [`ServerMetrics::record_request`].
pub(crate) const REQUESTS: Family = Family {
    name: "specrepair_requests_total",
    help: "Requests served, by endpoint and status.",
};

/// Repair latencies, recorded per technique by
/// [`ServerMetrics::record_latency`].
pub(crate) const LATENCY: Family = Family {
    name: "specrepair_repair_latency_us",
    help: "Repair latency in microseconds, by technique.",
};

/// The companion gauge carrying each latency histogram's observed max,
/// which the text format has no slot for.
const LATENCY_MAX: Family = Family {
    name: "specrepair_repair_latency_us_max",
    help: "Maximum observed repair latency in microseconds, by technique.",
};

const INJECTED_FAULTS: Family = Family {
    name: "specrepair_transport_injected_faults_total",
    help: "Injected LM faults, by kind.",
};

/// The document's top-level scalars.
const DAEMON: &[Metric<ServerMetrics>] = &[
    Metric {
        key: "uptime_ms",
        family: "specrepair_uptime_ms",
        help: "Milliseconds since the daemon booted.",
        read: |m| Level(m.started.elapsed().as_millis() as u64),
    },
    Metric {
        key: "queue_depth",
        family: "specrepair_queue_depth",
        help: "Requests waiting in the admission queue.",
        read: |m| Level(m.queue_depth.get_unsigned()),
    },
    Metric {
        key: "inflight",
        family: "specrepair_inflight",
        help: "Requests currently executing in workers.",
        read: |m| Level(m.inflight.get_unsigned()),
    },
    Metric {
        key: "shed_total",
        family: "specrepair_shed_total",
        help: "Connections shed at admission.",
        read: |m| Count(m.shed_total.get()),
    },
    Metric {
        key: "deadline_exceeded_total",
        family: "specrepair_deadline_exceeded_total",
        help: "Repairs that exceeded their deadline.",
        read: |m| Count(m.deadline_exceeded_total.get()),
    },
];

/// The `oracle_cache` section: the shared oracle's counters and the
/// number of specs its memo holds.
const ORACLE_CACHE: &[Metric<(OracleCacheStats, usize)>] = &[
    Metric {
        key: "hits",
        family: "specrepair_oracle_hits_total",
        help: "Oracle queries answered from the memo table.",
        read: |(o, _)| Count(o.hits),
    },
    Metric {
        key: "misses",
        family: "specrepair_oracle_misses_total",
        help: "Oracle queries that had to solve.",
        read: |(o, _)| Count(o.misses),
    },
    Metric {
        key: "solver_invocations",
        family: "specrepair_oracle_solver_invocations_total",
        help: "Analyzer invocations executed.",
        read: |(o, _)| Count(o.solver_invocations),
    },
    Metric {
        key: "errors",
        family: "specrepair_oracle_errors_total",
        help: "Oracle queries that ended in an analyzer error.",
        read: |(o, _)| Count(o.errors),
    },
    Metric {
        key: "evictions",
        family: "specrepair_oracle_evictions_total",
        help: "Memoized entries evicted for capacity.",
        read: |(o, _)| Count(o.evictions),
    },
    Metric {
        key: "hit_rate",
        family: "specrepair_oracle_hit_rate",
        help: "Fraction of oracle queries answered from cache.",
        read: |(o, _)| Ratio(o.hit_rate()),
    },
    Metric {
        key: "memoized_specs",
        family: "specrepair_oracle_memoized_specs",
        help: "Memoized spec entries currently held.",
        read: |(_, specs)| Level(*specs as u64),
    },
    Metric {
        key: "persist_hits",
        family: "specrepair_oracle_persist_hits_total",
        help: "Verdicts answered by the persistent tier.",
        read: |(o, _)| Count(o.persist_hits),
    },
    Metric {
        key: "collapsed",
        family: "specrepair_oracle_collapsed_total",
        help: "Queries collapsed onto an in-flight solve.",
        read: |(o, _)| Count(o.collapsed),
    },
];

/// The `candidate_dedup` section: the oracle's verdict-chain counters.
const CANDIDATE_DEDUP: &[Metric<DedupStats>] = &[
    Metric {
        key: "dedup_hits",
        family: "specrepair_dedup_hits_total",
        help: "Verdict queries answered without a solve of their own.",
        read: |d| Count(d.hits),
    },
    Metric {
        key: "dedup_misses",
        family: "specrepair_dedup_misses_total",
        help: "Verdict queries that solved.",
        read: |d| Count(d.misses),
    },
    Metric {
        key: "dedup_coalesced",
        family: "specrepair_dedup_coalesced_total",
        help: "Verdict hits that waited on an in-flight solve.",
        read: |d| Count(d.coalesced),
    },
    Metric {
        key: "dedup_rate",
        family: "specrepair_dedup_rate",
        help: "Fraction of verdict queries answered without a solve.",
        read: |d| Ratio(d.dedup_rate()),
    },
];

/// The `incremental` section: the incremental oracle's counters.
const INCREMENTAL: &[Metric<IncrementalStats>] = &[
    Metric {
        key: "incremental_sessions",
        family: "specrepair_incremental_sessions_total",
        help: "Incremental oracle sessions created.",
        read: |i| Count(i.sessions),
    },
    Metric {
        key: "incremental_checks",
        family: "specrepair_incremental_checks_total",
        help: "Checks answered incrementally.",
        read: |i| Count(i.checks),
    },
    Metric {
        key: "incremental_fallbacks",
        family: "specrepair_incremental_fallbacks_total",
        help: "Checks the incremental engine declined.",
        read: |i| Count(i.fallbacks),
    },
    Metric {
        key: "activation_vars",
        family: "specrepair_incremental_activation_vars_total",
        help: "Activation literals allocated.",
        read: |i| Count(i.activation_vars),
    },
    Metric {
        key: "clause_reuse_rate",
        family: "specrepair_incremental_clause_reuse_rate",
        help: "Fraction of per-check clauses reused.",
        read: |i| Ratio(i.clause_reuse_rate()),
    },
    Metric {
        key: "learned_clauses_retained",
        family: "specrepair_incremental_learned_clauses_retained_total",
        help: "Learnt clauses carried between checks.",
        read: |i| Count(i.learned_clauses_retained),
    },
];

/// The `persistent` section's first field, present with or without a tier.
const PERSISTENT_ENABLED: &[Metric<Option<PersistStats>>] = &[Metric {
    key: "enabled",
    family: "specrepair_persist_enabled",
    help: "Whether a persistent verdict tier is configured.",
    read: |p| Flag(p.is_some()),
}];

/// The rest of the `persistent` section, when a `--cache-dir` tier runs.
const PERSISTENT: &[Metric<PersistStats>] = &[
    Metric {
        key: "degraded",
        family: "specrepair_persist_degraded",
        help: "Whether the persistent tier is degraded.",
        read: |p| Flag(p.degraded),
    },
    Metric {
        key: "preloaded",
        family: "specrepair_persist_preloaded",
        help: "Entries recovered from disk at open.",
        read: |p| Level(p.preloaded),
    },
    Metric {
        key: "quarantined",
        family: "specrepair_persist_quarantined",
        help: "Corrupt or torn records skipped at open.",
        read: |p| Level(p.quarantined),
    },
    Metric {
        key: "live_entries",
        family: "specrepair_persist_live_entries",
        help: "Entries held in the persistent tier's memory.",
        read: |p| Level(p.live_entries),
    },
    Metric {
        key: "disk_lines",
        family: "specrepair_persist_disk_lines",
        help: "Lines currently in the live log file.",
        read: |p| Level(p.disk_lines),
    },
    Metric {
        key: "disk_good",
        family: "specrepair_persist_disk_good",
        help: "Valid records currently in the live log file.",
        read: |p| Level(p.disk_good),
    },
    Metric {
        key: "lookups",
        family: "specrepair_persist_lookups_total",
        help: "Persistent-tier lookups.",
        read: |p| Count(p.lookups),
    },
    Metric {
        key: "hits",
        family: "specrepair_persist_hits_total",
        help: "Persistent-tier lookups that found a verdict.",
        read: |p| Count(p.hits),
    },
    Metric {
        key: "appends",
        family: "specrepair_persist_appends_total",
        help: "Records durably appended.",
        read: |p| Count(p.appends),
    },
    Metric {
        key: "append_errors",
        family: "specrepair_persist_append_errors_total",
        help: "Appends that failed.",
        read: |p| Count(p.append_errors),
    },
    Metric {
        key: "skipped_degraded",
        family: "specrepair_persist_skipped_degraded_total",
        help: "Records skipped while degraded.",
        read: |p| Count(p.skipped_degraded),
    },
    Metric {
        key: "breaker_trips",
        family: "specrepair_persist_breaker_trips_total",
        help: "Disk-breaker trips.",
        read: |p| Count(p.breaker_trips),
    },
    Metric {
        key: "compactions",
        family: "specrepair_persist_compactions_total",
        help: "Completed log compactions.",
        read: |p| Count(p.compactions),
    },
    Metric {
        key: "compaction_failures",
        family: "specrepair_persist_compaction_failures_total",
        help: "Failed compaction attempts.",
        read: |p| Count(p.compaction_failures),
    },
    Metric {
        key: "injected_write_errors",
        family: "specrepair_persist_injected_write_errors_total",
        help: "Injected write errors (chaos).",
        read: |p| Count(p.injected_write_errors),
    },
    Metric {
        key: "injected_short_writes",
        family: "specrepair_persist_injected_short_writes_total",
        help: "Injected short writes (chaos).",
        read: |p| Count(p.injected_short_writes),
    },
    Metric {
        key: "injected_bit_flips",
        family: "specrepair_persist_injected_bit_flips_total",
        help: "Injected bit flips (chaos).",
        read: |p| Count(p.injected_bit_flips),
    },
];

/// The `cluster` section's first field; its sample carries the role as a
/// label when cluster mode is on.
const CLUSTER_ENABLED: &[Metric<ClusterSection>] = &[Metric {
    key: "enabled",
    family: "specrepair_cluster_enabled",
    help: "Whether cluster mode is enabled, labeled by role.",
    read: |c| Flag(!matches!(c, ClusterSection::Off)),
}];

/// A shard's identity in the peer list.
const SHARD: &[Metric<ShardConfig>] = &[
    Metric {
        key: "shard_id",
        family: "specrepair_cluster_shard_id",
        help: "This daemon's index into the peer list.",
        read: |s| Level(s.shard_id as u64),
    },
    Metric {
        key: "peers",
        family: "specrepair_cluster_peers",
        help: "Cluster size.",
        read: |s| Level(s.peers.len() as u64),
    },
];

/// One row of the router's `shards` map, labeled by the shard's address.
const ROUTER_SHARD: &[Metric<RouterShardRow>] = &[
    Metric {
        key: "forwarded",
        family: "specrepair_router_forwarded_total",
        help: "Requests forwarded, by shard.",
        read: |r| Count(r.forwarded),
    },
    Metric {
        key: "retries",
        family: "specrepair_router_retries_total",
        help: "Forward retries, by shard.",
        read: |r| Count(r.retries),
    },
    Metric {
        key: "failures",
        family: "specrepair_router_failures_total",
        help: "Forwards that failed after retry, by shard.",
        read: |r| Count(r.failures),
    },
    Metric {
        key: "breaker_open",
        family: "specrepair_router_breaker_open",
        help: "Whether the shard's breaker is open, by shard.",
        read: |r| Flag(r.breaker_open),
    },
];

/// The router's own counters, after its shard rows.
const ROUTER: &[Metric<RouterClusterSection>] = &[
    Metric {
        key: "degraded_local_solves",
        family: "specrepair_router_degraded_local_solves_total",
        help: "Requests the router solved itself because the owner was down.",
        read: |r| Count(r.degraded_local_solves),
    },
    Metric {
        key: "breaker_trips",
        family: "specrepair_router_breaker_trips_total",
        help: "Shard-breaker trips at the router.",
        read: |r| Count(r.breaker_trips),
    },
    Metric {
        key: "skipped_open",
        family: "specrepair_router_skipped_open_total",
        help: "Forwards skipped on an open shard breaker.",
        read: |r| Count(r.skipped_open),
    },
];

/// The `transport` section: the LM resilience layer's counters.
const TRANSPORT: &[Metric<TransportStats>] = &[
    Metric {
        key: "retries",
        family: "specrepair_transport_retries_total",
        help: "LM transport attempts retried.",
        read: |t| Count(t.retries.get()),
    },
    Metric {
        key: "giveups",
        family: "specrepair_transport_giveups_total",
        help: "LM calls whose retry budget was exhausted.",
        read: |t| Count(t.giveups.get()),
    },
    Metric {
        key: "breaker_trips",
        family: "specrepair_transport_breaker_trips_total",
        help: "LM circuit-breaker trips.",
        read: |t| Count(t.breaker_trips.get()),
    },
    Metric {
        key: "breaker_rejections",
        family: "specrepair_transport_breaker_rejections_total",
        help: "LM calls rejected by an open breaker.",
        read: |t| Count(t.breaker_rejections.get()),
    },
    Metric {
        key: "cancelled_backoffs",
        family: "specrepair_transport_cancelled_backoffs_total",
        help: "LM backoff waits cut short by cancellation.",
        read: |t| Count(t.cancelled_backoffs.get()),
    },
];

/// One row of the router's `cluster.shards` map.
#[derive(Debug, Clone, Default)]
pub struct RouterShardRow {
    /// The shard's address (the map key, and the `shard` label).
    pub addr: String,
    /// Calls forwarded successfully.
    pub forwarded: u64,
    /// Forward retries taken.
    pub retries: u64,
    /// Forward calls that failed after the retry.
    pub failures: u64,
    /// Whether the shard's breaker is currently open.
    pub breaker_open: bool,
}

/// The `cluster` section of a router.
#[derive(Debug, Clone, Default)]
pub struct RouterClusterSection {
    /// Per-shard forwarding counters, in ring order.
    pub shards: Vec<RouterShardRow>,
    /// Requests the router solved itself because the owner was down.
    pub degraded_local_solves: u64,
    /// Shard-breaker trips.
    pub breaker_trips: u64,
    /// Forwards skipped because the owner's breaker was open.
    pub skipped_open: u64,
}

/// The `cluster` section: off, a shard's identity, or a router's view.
#[derive(Debug, Clone)]
pub enum ClusterSection {
    /// Not running in cluster mode (`{"enabled": false}`).
    Off,
    /// A shard daemon's place in the peer list.
    Shard(ShardConfig),
    /// A router's per-shard forwarding counters.
    Router(RouterClusterSection),
}

/// The sample list one walk fills, and each family's help text.
#[derive(Default)]
struct Walk {
    samples: Vec<Sample>,
    help: BTreeMap<&'static str, &'static str>,
}

impl Walk {
    fn push(&mut self, family: &Family, labels: Vec<(String, String)>, value: SampleValue) {
        self.help.insert(family.name, family.help);
        self.samples.push(Sample {
            name: family.name.to_string(),
            labels,
            value,
        });
    }

    /// Reads every metric of `table` from `source`: one sample each,
    /// labeled `labels`, and the section's JSON fields in table order.
    fn fields<T>(
        &mut self,
        table: &[Metric<T>],
        source: &T,
        labels: &[(String, String)],
    ) -> Vec<(String, Value)> {
        table
            .iter()
            .map(|metric| {
                let reading = (metric.read)(source);
                let family = Family {
                    name: metric.family,
                    help: metric.help,
                };
                self.push(&family, labels.to_vec(), reading.sample());
                (metric.key.to_string(), reading.json())
            })
            .collect()
    }
}

/// One reading of a daemon's or router's metrics: its own series and
/// each subsystem's stats, rendered as either format.
pub struct Snapshot<'a> {
    /// The daemon's own cells and request/latency registry.
    pub metrics: &'a ServerMetrics,
    /// The shared oracle's counters.
    pub oracle: OracleCacheStats,
    /// Memoized spec entries the oracle holds.
    pub memoized_specs: usize,
    /// The oracle's verdict-chain counters.
    pub dedup: DedupStats,
    /// The incremental oracle's counters.
    pub incremental: IncrementalStats,
    /// The LM resilience layer's counters.
    pub transport: &'a TransportStats,
    /// The persistent verdict tier's counters, when one is configured.
    pub persist: Option<PersistStats>,
    /// The daemon's place in a cluster.
    pub cluster: ClusterSection,
}

impl<'a> Snapshot<'a> {
    /// Reads a serving daemon: its metrics, its repair service's oracle
    /// and transport, plus the tier and cluster state it was booted with.
    pub fn read(
        metrics: &'a ServerMetrics,
        service: &'a RepairService,
        persist: Option<PersistStats>,
        cluster: ClusterSection,
    ) -> Snapshot<'a> {
        let oracle = service.oracle();
        Snapshot {
            metrics,
            oracle: oracle.stats(),
            memoized_specs: oracle.service().memoized_specs(),
            dedup: oracle.dedup_stats(),
            incremental: oracle.incremental_stats(),
            transport: service.transport_stats(),
            persist,
            cluster,
        }
    }

    /// The `GET /metrics` JSON document.
    pub fn to_json(&self) -> String {
        let doc = self.walk(&mut Walk::default());
        serde_json::to_string_pretty(&doc).expect("metrics document always serializes")
    }

    /// The `GET /metrics/prom` exposition of [`Snapshot::samples`].
    pub fn to_prom(&self) -> String {
        let mut walk = Walk::default();
        self.walk(&mut walk);
        prom::render(&walk.samples, |family| {
            walk.help.get(family).copied().unwrap_or_default()
        })
    }

    /// The canonical sample list: every scalar as a counter or gauge,
    /// every latency histogram with its `_max` gauge.
    pub fn samples(&self) -> Vec<Sample> {
        let mut walk = Walk::default();
        self.walk(&mut walk);
        walk.samples
    }

    /// Every scalar series as `(series id, value)` — counters and gauges
    /// directly, histograms as their `_count` and `_sum` series. The
    /// history ring records exactly this list each tick.
    pub fn scalars(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for sample in self.samples() {
            match &sample.value {
                SampleValue::Counter(n) => out.push((sample.id(), *n as f64)),
                SampleValue::Gauge(v) => out.push((sample.id(), *v)),
                SampleValue::Histogram(h) => {
                    let count = format!("{}_count", sample.name);
                    let sum = format!("{}_sum", sample.name);
                    out.push((series_id(&count, &sample.labels), h.count() as f64));
                    out.push((series_id(&sum, &sample.labels), h.sum_micros() as f64));
                }
            }
        }
        out
    }

    /// The one walk: fills `walk` with every sample and returns the JSON
    /// document, section by section in the historical order.
    fn walk(&self, walk: &mut Walk) -> Value {
        let mut doc = walk.fields(DAEMON, self.metrics, &[]);
        let gathered = self.metrics.registry.gather();
        doc.push(("requests".to_string(), requests(walk, &gathered)));
        doc.push(("latency_ms".to_string(), latency(walk, &gathered)));
        let oracle = (self.oracle, self.memoized_specs);
        let oracle_cache = walk.fields(ORACLE_CACHE, &oracle, &[]);
        doc.push(section("oracle_cache", oracle_cache));
        let dedup = walk.fields(CANDIDATE_DEDUP, &self.dedup, &[]);
        doc.push(section("candidate_dedup", dedup));
        let incremental = walk.fields(INCREMENTAL, &self.incremental, &[]);
        doc.push(section("incremental", incremental));
        let mut persistent = walk.fields(PERSISTENT_ENABLED, &self.persist, &[]);
        if let Some(persist) = &self.persist {
            persistent.extend(walk.fields(PERSISTENT, persist, &[]));
        }
        doc.push(section("persistent", persistent));
        doc.push(section("cluster", self.cluster.walk(walk)));
        let mut transport = walk.fields(TRANSPORT, self.transport, &[]);
        transport.push((
            "injected_faults".to_string(),
            injected_faults(walk, self.transport),
        ));
        doc.push(section("transport", transport));
        Value::Map(doc)
    }
}

impl ClusterSection {
    /// The section's fields; samples carry the role and shard labels.
    fn walk(&self, walk: &mut Walk) -> Vec<(String, Value)> {
        let role = match self {
            ClusterSection::Off => return walk.fields(CLUSTER_ENABLED, self, &[]),
            ClusterSection::Shard(_) => "shard",
            ClusterSection::Router(_) => "router",
        };
        let mut fields = walk.fields(CLUSTER_ENABLED, self, &[label_pair("role", role)]);
        fields.push(("role".to_string(), Value::Str(role.to_string())));
        match self {
            ClusterSection::Off => {}
            ClusterSection::Shard(shard) => fields.extend(walk.fields(SHARD, shard, &[])),
            ClusterSection::Router(router) => {
                let rows = router
                    .shards
                    .iter()
                    .map(|row| {
                        let labels = [label_pair("shard", &row.addr)];
                        let row_fields = walk.fields(ROUTER_SHARD, row, &labels);
                        (row.addr.clone(), Value::Map(row_fields))
                    })
                    .collect();
                fields.push(("shards".to_string(), Value::Map(rows)));
                fields.extend(walk.fields(ROUTER, router, &[]));
            }
        }
        fields
    }
}

fn section(key: &str, fields: Vec<(String, Value)>) -> (String, Value) {
    (key.to_string(), Value::Map(fields))
}

fn label_pair(key: &str, value: &str) -> (String, String) {
    (key.to_string(), value.to_string())
}

fn label(sample: &Sample, key: &str) -> String {
    sample
        .labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_default()
}

/// The `requests` map (endpoint → status → count); the gathered request
/// counters join the sample list as they are.
fn requests(walk: &mut Walk, gathered: &[Sample]) -> Value {
    let mut rows: Vec<(String, Value)> = Vec::new();
    // gather() is sorted by (name, labels), so rows arrive grouped by
    // endpoint, statuses sorted within each.
    for sample in gathered.iter().filter(|s| s.name == REQUESTS.name) {
        let SampleValue::Counter(n) = sample.value else {
            continue;
        };
        let endpoint = label(sample, "endpoint");
        let status = (label(sample, "status"), Value::U64(n));
        match rows.last_mut() {
            Some((e, Value::Map(statuses))) if *e == endpoint => statuses.push(status),
            _ => rows.push((endpoint, Value::Map(vec![status]))),
        }
        walk.push(&REQUESTS, sample.labels.clone(), sample.value.clone());
    }
    Value::Map(rows)
}

/// The `latency_ms` summaries, sorted by technique; each gathered
/// histogram joins the sample list with its `_max` gauge.
fn latency(walk: &mut Walk, gathered: &[Sample]) -> Value {
    let mut rows = Vec::new();
    for sample in gathered.iter().filter(|s| s.name == LATENCY.name) {
        let SampleValue::Histogram(h) = &sample.value else {
            continue;
        };
        walk.push(&LATENCY, sample.labels.clone(), sample.value.clone());
        let max = SampleValue::Gauge(h.max_micros() as f64);
        walk.push(&LATENCY_MAX, sample.labels.clone(), max);
        rows.push((label(sample, "technique"), h.to_value()));
    }
    Value::Map(rows)
}

/// The `injected_faults` map: one count per fault kind in taxonomy order,
/// each also a sample labeled by kind, then the derived `total`, which
/// the exposition leaves to the reader to sum.
fn injected_faults(walk: &mut Walk, transport: &TransportStats) -> Value {
    let pairs = transport.faults.pairs();
    let total = pairs.iter().map(|(_, n)| n).sum();
    let mut fields: Vec<(String, Value)> = pairs
        .into_iter()
        .map(|(kind, n)| {
            let labels = vec![label_pair("kind", &kind)];
            walk.push(&INJECTED_FAULTS, labels, SampleValue::Counter(n));
            (kind, Value::U64(n))
        })
        .collect();
    fields.push(("total".to_string(), Value::U64(total)));
    Value::Map(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::MetricsReading;
    use crate::metrics::tests::{golden, golden_daemon, idle};

    #[test]
    fn default_snapshot_renders_disabled_sections() {
        let m = ServerMetrics::new();
        let transport = TransportStats::new();
        let snapshot = idle(&m, &transport);
        let doc = snapshot.to_json();
        for needle in [
            "\"uptime_ms\"",
            "\"persistent\": {\n    \"enabled\": false\n  }",
            "\"cluster\": {\n    \"enabled\": false\n  }",
            "\"total\": 0",
        ] {
            assert!(doc.contains(needle), "missing {needle}:\n{doc}");
        }
        let text = snapshot.to_prom();
        for needle in [
            "\nspecrepair_persist_enabled 0\n",
            "\nspecrepair_cluster_enabled 0\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
        assert!(!text.contains("specrepair_persist_preloaded"), "{text}");
    }

    #[test]
    fn router_cluster_section_renders_shard_rows() {
        let m = ServerMetrics::new();
        let transport = TransportStats::new();
        let row = |addr: &str, forwarded| RouterShardRow {
            addr: addr.to_string(),
            forwarded,
            ..RouterShardRow::default()
        };
        let snapshot = Snapshot {
            cluster: ClusterSection::Router(RouterClusterSection {
                shards: vec![row("127.0.0.1:7971", 9), row("127.0.0.1:7972", 4)],
                degraded_local_solves: 2,
                breaker_trips: 1,
                skipped_open: 0,
            }),
            ..idle(&m, &transport)
        };
        let doc = snapshot.to_json();
        for needle in [
            "\"role\": \"router\"",
            "\"127.0.0.1:7971\": {\n        \"forwarded\": 9",
            "\"127.0.0.1:7972\": {\n        \"forwarded\": 4",
            "\"degraded_local_solves\": 2",
        ] {
            assert!(doc.contains(needle), "missing {needle}:\n{doc}");
        }
        let text = snapshot.to_prom();
        for needle in [
            "specrepair_cluster_enabled{role=\"router\"} 1",
            "specrepair_router_forwarded_total{shard=\"127.0.0.1:7971\"} 9",
            "specrepair_router_forwarded_total{shard=\"127.0.0.1:7972\"} 4",
            "specrepair_router_degraded_local_solves_total 2",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn scalars_cover_histograms_as_count_and_sum() {
        let (m, transport) = golden_daemon();
        let scalars = golden(&m, &transport).scalars();
        let find = |id: &str| {
            scalars
                .iter()
                .find(|(k, _)| k == id)
                .unwrap_or_else(|| panic!("no scalar {id}"))
                .1
        };
        assert_eq!(
            find("specrepair_repair_latency_us_count{technique=\"ATR\"}"),
            1.0
        );
        assert_eq!(
            find("specrepair_repair_latency_us_sum{technique=\"ATR\"}"),
            800.0
        );
        assert_eq!(
            find("specrepair_requests_total{endpoint=\"repair\",status=\"200\"}"),
            2.0
        );
        assert_eq!(find("specrepair_oracle_hit_rate"), 0.75);
        // No raw histogram entries leak into the scalar list.
        assert!(scalars
            .iter()
            .all(|(k, _)| !k.starts_with("specrepair_repair_latency_us{")));
    }

    /// Loadgen is the JSON document's only reader: every field it decodes
    /// reads back what the snapshot was built from.
    #[test]
    fn json_round_trip_recovers_every_decoded_field() {
        let (m, transport) = golden_daemon();
        for snapshot in [golden(&m, &transport), idle(&m, &transport)] {
            let reading =
                MetricsReading::decode(&snapshot.to_json()).expect("own document decodes");
            let expected = MetricsReading {
                hits: snapshot.oracle.hits,
                misses: snapshot.oracle.misses,
                hit_rate: snapshot.oracle.hit_rate(),
                dedup_hits: snapshot.dedup.hits,
                dedup_rate: snapshot.dedup.dedup_rate(),
                incremental_checks: snapshot.incremental.checks,
                clause_reuse_rate: snapshot.incremental.clause_reuse_rate(),
                persist: snapshot
                    .persist
                    .map(|p| (p.preloaded, snapshot.oracle.persist_hits)),
            };
            assert_eq!(reading, expected);
        }
    }

    #[test]
    fn every_canonical_family_has_a_help_line() {
        let (m, transport) = golden_daemon();
        let router = Snapshot {
            cluster: ClusterSection::Router(RouterClusterSection {
                shards: vec![RouterShardRow::default()],
                ..RouterClusterSection::default()
            }),
            ..idle(&m, &transport)
        };
        for snapshot in [golden(&m, &transport), router] {
            let text = snapshot.to_prom();
            for sample in snapshot.samples() {
                let help = format!("# HELP {} ", sample.name);
                assert!(text.contains(&help), "no help text for `{}`", sample.name);
            }
        }
    }
}
