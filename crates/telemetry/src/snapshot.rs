//! The typed [`Snapshot`]: every section of the daemon's metrics document
//! as plain data, with two serializers and one decoder.
//!
//! - [`Snapshot::to_json`] renders the legacy `GET /metrics` JSON document
//!   **byte-for-byte** as it has always looked (section order, field
//!   order, pretty-printing) — pinned by a golden-file test in the server
//!   crate. Subsystems construct their own sections (the `section()`
//!   conversions on `OracleCacheStats`, `DedupStats`, `TransportStats`, …)
//!   so no field is hand-threaded through the server anymore.
//! - [`Snapshot::samples`] flattens the same state into typed
//!   [`Sample`]s — the canonical series list behind the Prometheus
//!   exposition ([`crate::prom`]), the history ring ([`crate::history`])
//!   and fleet aggregation ([`crate::aggregate`]).
//! - [`Snapshot::from_json`] decodes a legacy document back into a
//!   `Snapshot` — the typed replacement for loadgen's stringly
//!   `section.field` parsers, with the same descriptive errors. Latency
//!   histograms are *not* recovered (the legacy document carries only
//!   their summaries); decoded snapshots exist to reconcile counters.

use serde::Value;

use crate::metric::HistogramSnapshot;
use crate::registry::{Sample, SampleValue};

/// The `oracle_cache` section: the shared memoizing oracle's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleCacheSection {
    /// Queries answered from the memo table.
    pub hits: u64,
    /// Queries that had to solve.
    pub misses: u64,
    /// Underlying analyzer invocations actually executed.
    pub solver_invocations: u64,
    /// Queries whose answer was an analyzer error.
    pub errors: u64,
    /// Memoized entries dropped to honor the per-shard capacity.
    pub evictions: u64,
    /// Fraction of queries answered from the cache.
    pub hit_rate: f64,
    /// Memoized spec entries currently held.
    pub memoized_specs: u64,
    /// Verdict queries answered by the persistent disk tier.
    pub persist_hits: u64,
    /// Queries collapsed onto an identical in-flight solve (singleflight).
    pub collapsed: u64,
}

/// The `candidate_dedup` section: the oracle's verdict-chain counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DedupSection {
    /// Verdict queries answered without a solve of their own (memo, tier,
    /// or waiting on the leader).
    pub hits: u64,
    /// Verdict queries that solved.
    pub misses: u64,
    /// Hits that waited on a concurrent in-flight solve.
    pub coalesced: u64,
    /// `hits / (hits + misses)`.
    pub rate: f64,
}

/// The `incremental` section: the incremental oracle's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncrementalSection {
    /// Persistent sessions created.
    pub sessions: u64,
    /// Candidate checks answered incrementally.
    pub checks: u64,
    /// Checks the engine declined (cold path answered).
    pub fallbacks: u64,
    /// Activation literals allocated.
    pub activation_vars: u64,
    /// Fraction of per-check clauses retained from earlier candidates.
    pub clause_reuse_rate: f64,
    /// Learnt clauses carried between checks.
    pub learned_clauses_retained: u64,
}

/// The `persistent` section, present when the daemon runs a `--cache-dir`
/// verdict tier.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PersistSection {
    /// Whether the tier is currently degraded (breaker open).
    pub degraded: bool,
    /// Entries recovered from disk at open.
    pub preloaded: u64,
    /// Corrupt or torn records skipped.
    pub quarantined: u64,
    /// Entries currently held in memory.
    pub live_entries: u64,
    /// Lines currently in the live log file.
    pub disk_lines: u64,
    /// Valid records currently in the live log file.
    pub disk_good: u64,
    /// Store lookups in total.
    pub lookups: u64,
    /// Store lookups that found a verdict.
    pub hits: u64,
    /// Records durably appended.
    pub appends: u64,
    /// Appends that failed.
    pub append_errors: u64,
    /// Records skipped while degraded.
    pub skipped_degraded: u64,
    /// Times the disk breaker tripped open.
    pub breaker_trips: u64,
    /// Completed compactions.
    pub compactions: u64,
    /// Failed compaction attempts.
    pub compaction_failures: u64,
    /// Injected write errors (chaos mode).
    pub injected_write_errors: u64,
    /// Injected short writes (chaos mode).
    pub injected_short_writes: u64,
    /// Injected bit flips (chaos mode).
    pub injected_bit_flips: u64,
}

/// The `transport` section: the LM resilience layer's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransportSection {
    /// Retried attempts.
    pub retries: u64,
    /// Calls whose retry budget was exhausted.
    pub giveups: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Calls rejected by an open breaker.
    pub breaker_rejections: u64,
    /// Backoff waits cut short by cancellation.
    pub cancelled_backoffs: u64,
    /// Injected-fault counts per kind label, in taxonomy order (the
    /// `total` field of the document is derived, not stored).
    pub injected_faults: Vec<(String, u64)>,
}

impl TransportSection {
    /// Total injected faults across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.injected_faults.iter().map(|(_, n)| n).sum()
    }
}

/// The `cluster` section of a shard daemon: its identity in the peer list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardClusterSection {
    /// This daemon's index into the peer list.
    pub shard_id: u64,
    /// Cluster size.
    pub peers: u64,
}

/// One shard row of the router's `cluster.shards` map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterShardRow {
    /// The shard's address (the map key).
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
#[derive(Debug, Clone, Default, PartialEq)]
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

/// The `cluster` section: off, a shard's view, or a router's view.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ClusterSection {
    /// Not running in cluster mode (`{"enabled": false}`).
    #[default]
    Off,
    /// A shard daemon's identity.
    Shard(ShardClusterSection),
    /// A router's per-shard forwarding counters.
    Router(RouterClusterSection),
}

/// The complete typed metrics snapshot of one daemon or router.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Milliseconds since boot.
    pub uptime_ms: u64,
    /// Current admission-queue depth.
    pub queue_depth: u64,
    /// Requests currently executing in workers.
    pub inflight: u64,
    /// Connections shed at admission.
    pub shed_total: u64,
    /// Repairs that hit their deadline.
    pub deadline_exceeded_total: u64,
    /// Request counts: endpoint → `(status, count)` rows, both sorted.
    pub requests: Vec<(String, Vec<(String, u64)>)>,
    /// Per-technique repair latency histograms, sorted by label.
    pub latency: Vec<(String, HistogramSnapshot)>,
    /// The shared oracle's cache counters.
    pub oracle_cache: OracleCacheSection,
    /// The oracle's verdict-chain counters.
    pub candidate_dedup: DedupSection,
    /// The incremental oracle's counters.
    pub incremental: IncrementalSection,
    /// The persistent verdict tier's counters (`None` renders
    /// `{"enabled": false}`).
    pub persistent: Option<PersistSection>,
    /// The cluster section.
    pub cluster: ClusterSection,
    /// The LM resilience layer's counters.
    pub transport: TransportSection,
}

impl Snapshot {
    /// Renders the legacy `GET /metrics` JSON document, byte-for-byte the
    /// historical format (golden-file pinned).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("metrics document always serializes")
    }

    /// The document as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let requests = Value::Map(
            self.requests
                .iter()
                .map(|(endpoint, statuses)| {
                    (
                        endpoint.clone(),
                        Value::Map(
                            statuses
                                .iter()
                                .map(|(status, count)| (status.clone(), Value::U64(*count)))
                                .collect(),
                        ),
                    )
                })
                .collect(),
        );
        let latency = Value::Map(
            self.latency
                .iter()
                .map(|(technique, h)| (technique.clone(), h.to_value()))
                .collect(),
        );
        let o = &self.oracle_cache;
        let oracle_value = Value::Map(vec![
            ("hits".to_string(), Value::U64(o.hits)),
            ("misses".to_string(), Value::U64(o.misses)),
            (
                "solver_invocations".to_string(),
                Value::U64(o.solver_invocations),
            ),
            ("errors".to_string(), Value::U64(o.errors)),
            ("evictions".to_string(), Value::U64(o.evictions)),
            ("hit_rate".to_string(), Value::F64(o.hit_rate)),
            ("memoized_specs".to_string(), Value::U64(o.memoized_specs)),
            ("persist_hits".to_string(), Value::U64(o.persist_hits)),
            ("collapsed".to_string(), Value::U64(o.collapsed)),
        ]);
        let d = &self.candidate_dedup;
        let dedup_value = Value::Map(vec![
            ("dedup_hits".to_string(), Value::U64(d.hits)),
            ("dedup_misses".to_string(), Value::U64(d.misses)),
            ("dedup_coalesced".to_string(), Value::U64(d.coalesced)),
            ("dedup_rate".to_string(), Value::F64(d.rate)),
        ]);
        let i = &self.incremental;
        let incremental_value = Value::Map(vec![
            ("incremental_sessions".to_string(), Value::U64(i.sessions)),
            ("incremental_checks".to_string(), Value::U64(i.checks)),
            ("incremental_fallbacks".to_string(), Value::U64(i.fallbacks)),
            ("activation_vars".to_string(), Value::U64(i.activation_vars)),
            (
                "clause_reuse_rate".to_string(),
                Value::F64(i.clause_reuse_rate),
            ),
            (
                "learned_clauses_retained".to_string(),
                Value::U64(i.learned_clauses_retained),
            ),
        ]);
        let persistent_value = match &self.persistent {
            None => Value::Map(vec![("enabled".to_string(), Value::Bool(false))]),
            Some(p) => Value::Map(vec![
                ("enabled".to_string(), Value::Bool(true)),
                ("degraded".to_string(), Value::Bool(p.degraded)),
                ("preloaded".to_string(), Value::U64(p.preloaded)),
                ("quarantined".to_string(), Value::U64(p.quarantined)),
                ("live_entries".to_string(), Value::U64(p.live_entries)),
                ("disk_lines".to_string(), Value::U64(p.disk_lines)),
                ("disk_good".to_string(), Value::U64(p.disk_good)),
                ("lookups".to_string(), Value::U64(p.lookups)),
                ("hits".to_string(), Value::U64(p.hits)),
                ("appends".to_string(), Value::U64(p.appends)),
                ("append_errors".to_string(), Value::U64(p.append_errors)),
                (
                    "skipped_degraded".to_string(),
                    Value::U64(p.skipped_degraded),
                ),
                ("breaker_trips".to_string(), Value::U64(p.breaker_trips)),
                ("compactions".to_string(), Value::U64(p.compactions)),
                (
                    "compaction_failures".to_string(),
                    Value::U64(p.compaction_failures),
                ),
                (
                    "injected_write_errors".to_string(),
                    Value::U64(p.injected_write_errors),
                ),
                (
                    "injected_short_writes".to_string(),
                    Value::U64(p.injected_short_writes),
                ),
                (
                    "injected_bit_flips".to_string(),
                    Value::U64(p.injected_bit_flips),
                ),
            ]),
        };
        let cluster_value = match &self.cluster {
            ClusterSection::Off => Value::Map(vec![("enabled".to_string(), Value::Bool(false))]),
            ClusterSection::Shard(s) => Value::Map(vec![
                ("enabled".to_string(), Value::Bool(true)),
                ("role".to_string(), Value::Str("shard".to_string())),
                ("shard_id".to_string(), Value::U64(s.shard_id)),
                ("peers".to_string(), Value::U64(s.peers)),
            ]),
            ClusterSection::Router(r) => {
                let per_shard = Value::Map(
                    r.shards
                        .iter()
                        .map(|row| {
                            (
                                row.addr.clone(),
                                Value::Map(vec![
                                    ("forwarded".to_string(), Value::U64(row.forwarded)),
                                    ("retries".to_string(), Value::U64(row.retries)),
                                    ("failures".to_string(), Value::U64(row.failures)),
                                    ("breaker_open".to_string(), Value::Bool(row.breaker_open)),
                                ]),
                            )
                        })
                        .collect(),
                );
                Value::Map(vec![
                    ("enabled".to_string(), Value::Bool(true)),
                    ("role".to_string(), Value::Str("router".to_string())),
                    ("shards".to_string(), per_shard),
                    (
                        "degraded_local_solves".to_string(),
                        Value::U64(r.degraded_local_solves),
                    ),
                    ("breaker_trips".to_string(), Value::U64(r.breaker_trips)),
                    ("skipped_open".to_string(), Value::U64(r.skipped_open)),
                ])
            }
        };
        let t = &self.transport;
        let mut injected: Vec<(String, Value)> = t
            .injected_faults
            .iter()
            .map(|(kind, n)| (kind.clone(), Value::U64(*n)))
            .collect();
        injected.push(("total".to_string(), Value::U64(t.total_faults())));
        let transport_value = Value::Map(vec![
            ("retries".to_string(), Value::U64(t.retries)),
            ("giveups".to_string(), Value::U64(t.giveups)),
            ("breaker_trips".to_string(), Value::U64(t.breaker_trips)),
            (
                "breaker_rejections".to_string(),
                Value::U64(t.breaker_rejections),
            ),
            (
                "cancelled_backoffs".to_string(),
                Value::U64(t.cancelled_backoffs),
            ),
            ("injected_faults".to_string(), Value::Map(injected)),
        ]);
        Value::Map(vec![
            ("uptime_ms".to_string(), Value::U64(self.uptime_ms)),
            ("queue_depth".to_string(), Value::U64(self.queue_depth)),
            ("inflight".to_string(), Value::U64(self.inflight)),
            ("shed_total".to_string(), Value::U64(self.shed_total)),
            (
                "deadline_exceeded_total".to_string(),
                Value::U64(self.deadline_exceeded_total),
            ),
            ("requests".to_string(), requests),
            ("latency_ms".to_string(), latency),
            ("oracle_cache".to_string(), oracle_value),
            ("candidate_dedup".to_string(), dedup_value),
            ("incremental".to_string(), incremental_value),
            ("persistent".to_string(), persistent_value),
            ("cluster".to_string(), cluster_value),
            ("transport".to_string(), transport_value),
        ])
    }

    /// Flattens the snapshot into the canonical series list: every scalar
    /// as a counter or gauge sample, every latency histogram as a
    /// histogram sample plus a companion `_max` gauge. This is the single
    /// source behind the Prometheus exposition, the history ring and fleet
    /// aggregation — one list, three consumers, no drift.
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        let gauge = |out: &mut Vec<Sample>, name: &str, value: f64| {
            out.push(Sample {
                name: name.to_string(),
                labels: Vec::new(),
                value: SampleValue::Gauge(value),
            });
        };
        let counter = |out: &mut Vec<Sample>, name: &str, value: u64| {
            out.push(Sample {
                name: name.to_string(),
                labels: Vec::new(),
                value: SampleValue::Counter(value),
            });
        };
        gauge(&mut out, "specrepair_uptime_ms", self.uptime_ms as f64);
        gauge(&mut out, "specrepair_queue_depth", self.queue_depth as f64);
        gauge(&mut out, "specrepair_inflight", self.inflight as f64);
        counter(&mut out, "specrepair_shed_total", self.shed_total);
        counter(
            &mut out,
            "specrepair_deadline_exceeded_total",
            self.deadline_exceeded_total,
        );
        for (endpoint, statuses) in &self.requests {
            for (status, count) in statuses {
                out.push(Sample {
                    name: "specrepair_requests_total".to_string(),
                    labels: vec![
                        ("endpoint".to_string(), endpoint.clone()),
                        ("status".to_string(), status.clone()),
                    ],
                    value: SampleValue::Counter(*count),
                });
            }
        }
        for (technique, h) in &self.latency {
            let labels = vec![("technique".to_string(), technique.clone())];
            out.push(Sample {
                name: "specrepair_repair_latency_us".to_string(),
                labels: labels.clone(),
                value: SampleValue::Histogram(h.clone()),
            });
            out.push(Sample {
                name: "specrepair_repair_latency_us_max".to_string(),
                labels,
                value: SampleValue::Gauge(h.max_micros() as f64),
            });
        }
        let o = &self.oracle_cache;
        counter(&mut out, "specrepair_oracle_hits_total", o.hits);
        counter(&mut out, "specrepair_oracle_misses_total", o.misses);
        counter(
            &mut out,
            "specrepair_oracle_solver_invocations_total",
            o.solver_invocations,
        );
        counter(&mut out, "specrepair_oracle_errors_total", o.errors);
        counter(&mut out, "specrepair_oracle_evictions_total", o.evictions);
        gauge(&mut out, "specrepair_oracle_hit_rate", o.hit_rate);
        gauge(
            &mut out,
            "specrepair_oracle_memoized_specs",
            o.memoized_specs as f64,
        );
        counter(
            &mut out,
            "specrepair_oracle_persist_hits_total",
            o.persist_hits,
        );
        counter(&mut out, "specrepair_oracle_collapsed_total", o.collapsed);
        let d = &self.candidate_dedup;
        counter(&mut out, "specrepair_dedup_hits_total", d.hits);
        counter(&mut out, "specrepair_dedup_misses_total", d.misses);
        counter(&mut out, "specrepair_dedup_coalesced_total", d.coalesced);
        gauge(&mut out, "specrepair_dedup_rate", d.rate);
        let i = &self.incremental;
        counter(
            &mut out,
            "specrepair_incremental_sessions_total",
            i.sessions,
        );
        counter(&mut out, "specrepair_incremental_checks_total", i.checks);
        counter(
            &mut out,
            "specrepair_incremental_fallbacks_total",
            i.fallbacks,
        );
        counter(
            &mut out,
            "specrepair_incremental_activation_vars_total",
            i.activation_vars,
        );
        gauge(
            &mut out,
            "specrepair_incremental_clause_reuse_rate",
            i.clause_reuse_rate,
        );
        counter(
            &mut out,
            "specrepair_incremental_learned_clauses_retained_total",
            i.learned_clauses_retained,
        );
        gauge(
            &mut out,
            "specrepair_persist_enabled",
            u64::from(self.persistent.is_some()) as f64,
        );
        if let Some(p) = &self.persistent {
            gauge(
                &mut out,
                "specrepair_persist_degraded",
                u64::from(p.degraded) as f64,
            );
            gauge(&mut out, "specrepair_persist_preloaded", p.preloaded as f64);
            gauge(
                &mut out,
                "specrepair_persist_quarantined",
                p.quarantined as f64,
            );
            gauge(
                &mut out,
                "specrepair_persist_live_entries",
                p.live_entries as f64,
            );
            gauge(
                &mut out,
                "specrepair_persist_disk_lines",
                p.disk_lines as f64,
            );
            gauge(&mut out, "specrepair_persist_disk_good", p.disk_good as f64);
            counter(&mut out, "specrepair_persist_lookups_total", p.lookups);
            counter(&mut out, "specrepair_persist_hits_total", p.hits);
            counter(&mut out, "specrepair_persist_appends_total", p.appends);
            counter(
                &mut out,
                "specrepair_persist_append_errors_total",
                p.append_errors,
            );
            counter(
                &mut out,
                "specrepair_persist_skipped_degraded_total",
                p.skipped_degraded,
            );
            counter(
                &mut out,
                "specrepair_persist_breaker_trips_total",
                p.breaker_trips,
            );
            counter(
                &mut out,
                "specrepair_persist_compactions_total",
                p.compactions,
            );
            counter(
                &mut out,
                "specrepair_persist_compaction_failures_total",
                p.compaction_failures,
            );
            counter(
                &mut out,
                "specrepair_persist_injected_write_errors_total",
                p.injected_write_errors,
            );
            counter(
                &mut out,
                "specrepair_persist_injected_short_writes_total",
                p.injected_short_writes,
            );
            counter(
                &mut out,
                "specrepair_persist_injected_bit_flips_total",
                p.injected_bit_flips,
            );
        }
        match &self.cluster {
            ClusterSection::Off => {
                gauge(&mut out, "specrepair_cluster_enabled", 0.0);
            }
            ClusterSection::Shard(s) => {
                out.push(Sample {
                    name: "specrepair_cluster_enabled".to_string(),
                    labels: vec![("role".to_string(), "shard".to_string())],
                    value: SampleValue::Gauge(1.0),
                });
                gauge(&mut out, "specrepair_cluster_shard_id", s.shard_id as f64);
                gauge(&mut out, "specrepair_cluster_peers", s.peers as f64);
            }
            ClusterSection::Router(r) => {
                out.push(Sample {
                    name: "specrepair_cluster_enabled".to_string(),
                    labels: vec![("role".to_string(), "router".to_string())],
                    value: SampleValue::Gauge(1.0),
                });
                for row in &r.shards {
                    let labels = vec![("shard".to_string(), row.addr.clone())];
                    out.push(Sample {
                        name: "specrepair_router_forwarded_total".to_string(),
                        labels: labels.clone(),
                        value: SampleValue::Counter(row.forwarded),
                    });
                    out.push(Sample {
                        name: "specrepair_router_retries_total".to_string(),
                        labels: labels.clone(),
                        value: SampleValue::Counter(row.retries),
                    });
                    out.push(Sample {
                        name: "specrepair_router_failures_total".to_string(),
                        labels: labels.clone(),
                        value: SampleValue::Counter(row.failures),
                    });
                    out.push(Sample {
                        name: "specrepair_router_breaker_open".to_string(),
                        labels,
                        value: SampleValue::Gauge(u64::from(row.breaker_open) as f64),
                    });
                }
                counter(
                    &mut out,
                    "specrepair_router_degraded_local_solves_total",
                    r.degraded_local_solves,
                );
                counter(
                    &mut out,
                    "specrepair_router_breaker_trips_total",
                    r.breaker_trips,
                );
                counter(
                    &mut out,
                    "specrepair_router_skipped_open_total",
                    r.skipped_open,
                );
            }
        }
        let t = &self.transport;
        counter(&mut out, "specrepair_transport_retries_total", t.retries);
        counter(&mut out, "specrepair_transport_giveups_total", t.giveups);
        counter(
            &mut out,
            "specrepair_transport_breaker_trips_total",
            t.breaker_trips,
        );
        counter(
            &mut out,
            "specrepair_transport_breaker_rejections_total",
            t.breaker_rejections,
        );
        counter(
            &mut out,
            "specrepair_transport_cancelled_backoffs_total",
            t.cancelled_backoffs,
        );
        for (kind, count) in &t.injected_faults {
            out.push(Sample {
                name: "specrepair_transport_injected_faults_total".to_string(),
                labels: vec![("kind".to_string(), kind.clone())],
                value: SampleValue::Counter(*count),
            });
        }
        out
    }

    /// Every scalar series as `(series id, value)` — counters and gauges
    /// directly, histograms as their `_count` and `_sum` series. The
    /// history ring records exactly this list each tick.
    pub fn scalars(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for sample in self.samples() {
            let id = sample.id();
            match &sample.value {
                SampleValue::Counter(n) => out.push((id, *n as f64)),
                SampleValue::Gauge(v) => out.push((id, *v)),
                SampleValue::Histogram(h) => {
                    out.push((
                        crate::registry::series_id(
                            &format!("{}_count", sample.name),
                            &sample.labels,
                        ),
                        h.count() as f64,
                    ));
                    out.push((
                        crate::registry::series_id(&format!("{}_sum", sample.name), &sample.labels),
                        h.sum_micros() as f64,
                    ));
                }
            }
        }
        out
    }

    /// Decodes a legacy `/metrics` JSON document.
    ///
    /// Scalars, the oracle/dedup/incremental sections and the cluster
    /// role are recovered; latency histograms are not (the document only
    /// carries their summaries) and decode to an empty list. The
    /// `persistent` field is `None` when the tier renders disabled.
    ///
    /// # Errors
    ///
    /// A human-readable description of exactly which expectation the body
    /// violates: not JSON, not an object, a missing section, a missing
    /// field, or a mistyped value.
    pub fn from_json(body: &str) -> Result<Snapshot, String> {
        let doc = MetricsDoc::parse(body)?;
        let mut snapshot = Snapshot {
            uptime_ms: doc.top_number_or("uptime_ms", 0.0) as u64,
            queue_depth: doc.top_number_or("queue_depth", 0.0) as u64,
            inflight: doc.top_number_or("inflight", 0.0) as u64,
            shed_total: doc.top_number_or("shed_total", 0.0) as u64,
            deadline_exceeded_total: doc.top_number_or("deadline_exceeded_total", 0.0) as u64,
            ..Snapshot::default()
        };
        snapshot.oracle_cache = OracleCacheSection {
            hits: doc.number("oracle_cache", "hits")? as u64,
            misses: doc.number("oracle_cache", "misses")? as u64,
            solver_invocations: doc.number_or("oracle_cache", "solver_invocations", 0.0) as u64,
            errors: doc.number_or("oracle_cache", "errors", 0.0) as u64,
            evictions: doc.number_or("oracle_cache", "evictions", 0.0) as u64,
            hit_rate: doc.number("oracle_cache", "hit_rate")?,
            memoized_specs: doc.number_or("oracle_cache", "memoized_specs", 0.0) as u64,
            persist_hits: doc.number_or("oracle_cache", "persist_hits", 0.0) as u64,
            collapsed: doc.number_or("oracle_cache", "collapsed", 0.0) as u64,
        };
        snapshot.candidate_dedup = DedupSection {
            hits: doc.number("candidate_dedup", "dedup_hits")? as u64,
            misses: doc.number_or("candidate_dedup", "dedup_misses", 0.0) as u64,
            coalesced: doc.number_or("candidate_dedup", "dedup_coalesced", 0.0) as u64,
            rate: doc.number("candidate_dedup", "dedup_rate")?,
        };
        snapshot.incremental = IncrementalSection {
            sessions: doc.number_or("incremental", "incremental_sessions", 0.0) as u64,
            checks: doc.number("incremental", "incremental_checks")? as u64,
            fallbacks: doc.number_or("incremental", "incremental_fallbacks", 0.0) as u64,
            activation_vars: doc.number_or("incremental", "activation_vars", 0.0) as u64,
            clause_reuse_rate: doc.number("incremental", "clause_reuse_rate")?,
            learned_clauses_retained: doc.number_or("incremental", "learned_clauses_retained", 0.0)
                as u64,
        };
        // `persistent` renders `{"enabled": false}` when the tier is off:
        // a missing `preloaded` field is the signal, not an error.
        snapshot.persistent = if doc.flag("persistent", "enabled") {
            Some(PersistSection {
                degraded: doc.flag("persistent", "degraded"),
                preloaded: doc.number("persistent", "preloaded")? as u64,
                quarantined: doc.number_or("persistent", "quarantined", 0.0) as u64,
                live_entries: doc.number_or("persistent", "live_entries", 0.0) as u64,
                disk_lines: doc.number_or("persistent", "disk_lines", 0.0) as u64,
                disk_good: doc.number_or("persistent", "disk_good", 0.0) as u64,
                lookups: doc.number_or("persistent", "lookups", 0.0) as u64,
                hits: doc.number_or("persistent", "hits", 0.0) as u64,
                appends: doc.number_or("persistent", "appends", 0.0) as u64,
                append_errors: doc.number_or("persistent", "append_errors", 0.0) as u64,
                skipped_degraded: doc.number_or("persistent", "skipped_degraded", 0.0) as u64,
                breaker_trips: doc.number_or("persistent", "breaker_trips", 0.0) as u64,
                compactions: doc.number_or("persistent", "compactions", 0.0) as u64,
                compaction_failures: doc.number_or("persistent", "compaction_failures", 0.0) as u64,
                injected_write_errors: doc.number_or("persistent", "injected_write_errors", 0.0)
                    as u64,
                injected_short_writes: doc.number_or("persistent", "injected_short_writes", 0.0)
                    as u64,
                injected_bit_flips: doc.number_or("persistent", "injected_bit_flips", 0.0) as u64,
            })
        } else {
            None
        };
        snapshot.cluster = if !doc.flag("cluster", "enabled") {
            ClusterSection::Off
        } else if doc.string("cluster", "role").as_deref() == Some("shard") {
            ClusterSection::Shard(ShardClusterSection {
                shard_id: doc.number_or("cluster", "shard_id", 0.0) as u64,
                peers: doc.number_or("cluster", "peers", 0.0) as u64,
            })
        } else {
            ClusterSection::Router(RouterClusterSection {
                shards: Vec::new(),
                degraded_local_solves: doc.number_or("cluster", "degraded_local_solves", 0.0)
                    as u64,
                breaker_trips: doc.number_or("cluster", "breaker_trips", 0.0) as u64,
                skipped_open: doc.number_or("cluster", "skipped_open", 0.0) as u64,
            })
        };
        snapshot.transport = TransportSection {
            retries: doc.number_or("transport", "retries", 0.0) as u64,
            giveups: doc.number_or("transport", "giveups", 0.0) as u64,
            breaker_trips: doc.number_or("transport", "breaker_trips", 0.0) as u64,
            breaker_rejections: doc.number_or("transport", "breaker_rejections", 0.0) as u64,
            cancelled_backoffs: doc.number_or("transport", "cancelled_backoffs", 0.0) as u64,
            injected_faults: Vec::new(),
        };
        Ok(snapshot)
    }
}

/// A parsed `/metrics` JSON document with described-field access — the
/// decoding seam [`Snapshot::from_json`] (and any ad-hoc reconciliation)
/// is built on.
pub struct MetricsDoc {
    root: Vec<(String, Value)>,
}

impl MetricsDoc {
    /// Parses the body and checks it is a JSON object.
    ///
    /// # Errors
    ///
    /// "not valid JSON" or "not a JSON object", each described.
    pub fn parse(body: &str) -> Result<MetricsDoc, String> {
        let value: Value = serde_json::from_str(body)
            .map_err(|e| format!("/metrics body is not valid JSON: {e}"))?;
        let Value::Map(root) = value else {
            return Err("/metrics body is not a JSON object".to_string());
        };
        Ok(MetricsDoc { root })
    }

    fn top(&self, name: &str) -> Option<&Value> {
        self.root.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    fn section(&self, section: &str) -> Result<&Vec<(String, Value)>, String> {
        let sec = self
            .top(section)
            .ok_or(format!("/metrics document has no `{section}` section"))?;
        let Value::Map(sec) = sec else {
            return Err(format!("/metrics `{section}` is not an object"));
        };
        Ok(sec)
    }

    /// A top-level number, with a default when absent or mistyped.
    pub fn top_number_or(&self, name: &str, default: f64) -> f64 {
        match self.top(name) {
            Some(Value::F64(n)) => *n,
            Some(Value::U64(n)) => *n as f64,
            Some(Value::I64(n)) => *n as f64,
            _ => default,
        }
    }

    /// `{section}.{field}` as a number, describing exactly which
    /// expectation a malformed body violates.
    ///
    /// # Errors
    ///
    /// The missing section, the missing field, or the mistyped value.
    pub fn number(&self, section: &str, field: &str) -> Result<f64, String> {
        let sec = self.section(section)?;
        let num = sec
            .iter()
            .find(|(k, _)| k == field)
            .map(|(_, v)| v)
            .ok_or(format!("/metrics `{section}` has no `{field}` field"))?;
        match num {
            Value::F64(n) => Ok(*n),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            other => Err(format!("`{section}.{field}` is not a number: {other:?}")),
        }
    }

    /// `{section}.{field}` as a number, with a default when the section or
    /// field is absent (older daemons) or mistyped.
    pub fn number_or(&self, section: &str, field: &str, default: f64) -> f64 {
        self.number(section, field).unwrap_or(default)
    }

    /// `{section}.{field}` as a boolean (false when absent or mistyped).
    pub fn flag(&self, section: &str, field: &str) -> bool {
        matches!(
            self.section(section)
                .ok()
                .and_then(|sec| sec.iter().find(|(k, _)| k == field).map(|(_, v)| v)),
            Some(Value::Bool(true))
        )
    }

    /// `{section}.{field}` as a string, `None` when absent or mistyped.
    pub fn string(&self, section: &str, field: &str) -> Option<String> {
        match self
            .section(section)
            .ok()
            .and_then(|sec| sec.iter().find(|(k, _)| k == field).map(|(_, v)| v))
        {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A richly populated snapshot exercising every section.
    pub(crate) fn rich_snapshot() -> Snapshot {
        let mut icebar = HistogramSnapshot::default();
        icebar.record(1_500);
        let mut atr = HistogramSnapshot::default();
        atr.record(800);
        atr.record(2_100);
        Snapshot {
            uptime_ms: 12_345,
            queue_depth: 1,
            inflight: 1,
            shed_total: 1,
            deadline_exceeded_total: 1,
            requests: vec![
                ("admission".to_string(), vec![("503".to_string(), 1)]),
                (
                    "repair".to_string(),
                    vec![("200".to_string(), 2), ("400".to_string(), 1)],
                ),
            ],
            latency: vec![("ATR".to_string(), atr), ("ICEBAR".to_string(), icebar)],
            oracle_cache: OracleCacheSection {
                hits: 12,
                misses: 4,
                solver_invocations: 5,
                errors: 1,
                evictions: 2,
                hit_rate: 0.75,
                memoized_specs: 6,
                persist_hits: 3,
                collapsed: 1,
            },
            candidate_dedup: DedupSection {
                hits: 4,
                misses: 12,
                coalesced: 1,
                rate: 0.25,
            },
            incremental: IncrementalSection {
                sessions: 2,
                checks: 8,
                fallbacks: 1,
                activation_vars: 8,
                clause_reuse_rate: 0.75,
                learned_clauses_retained: 5,
            },
            persistent: Some(PersistSection {
                degraded: true,
                preloaded: 7,
                quarantined: 1,
                live_entries: 9,
                disk_lines: 11,
                disk_good: 10,
                lookups: 5,
                hits: 3,
                appends: 2,
                append_errors: 1,
                skipped_degraded: 1,
                breaker_trips: 1,
                compactions: 1,
                compaction_failures: 0,
                injected_write_errors: 2,
                injected_short_writes: 0,
                injected_bit_flips: 1,
            }),
            cluster: ClusterSection::Shard(ShardClusterSection {
                shard_id: 1,
                peers: 3,
            }),
            transport: TransportSection {
                retries: 3,
                giveups: 1,
                breaker_trips: 0,
                breaker_rejections: 0,
                cancelled_backoffs: 0,
                injected_faults: vec![
                    ("timeout".to_string(), 1),
                    ("rate_limit".to_string(), 2),
                    ("transient".to_string(), 0),
                    ("truncated".to_string(), 0),
                ],
            },
        }
    }

    #[test]
    fn json_round_trip_recovers_every_decoded_field() {
        let snapshot = rich_snapshot();
        let decoded = Snapshot::from_json(&snapshot.to_json()).expect("own document decodes");
        assert_eq!(decoded.uptime_ms, 12_345);
        assert_eq!(decoded.queue_depth, 1);
        assert_eq!(decoded.shed_total, 1);
        assert_eq!(decoded.oracle_cache, snapshot.oracle_cache);
        assert_eq!(decoded.candidate_dedup, snapshot.candidate_dedup);
        assert_eq!(decoded.incremental, snapshot.incremental);
        assert_eq!(decoded.persistent, snapshot.persistent);
        assert_eq!(decoded.cluster, snapshot.cluster);
        assert_eq!(decoded.transport.retries, 3);
        // Histogram detail is summary-only in the legacy document.
        assert!(decoded.latency.is_empty());
    }

    #[test]
    fn default_snapshot_renders_disabled_sections() {
        let doc = Snapshot::default().to_json();
        for needle in [
            "\"persistent\"",
            "\"enabled\": false",
            "\"cluster\"",
            "\"uptime_ms\": 0",
            "\"total\": 0",
        ] {
            assert!(doc.contains(needle), "missing {needle}:\n{doc}");
        }
    }

    #[test]
    fn router_cluster_section_renders_shard_rows() {
        let snapshot = Snapshot {
            cluster: ClusterSection::Router(RouterClusterSection {
                shards: vec![RouterShardRow {
                    addr: "127.0.0.1:7971".to_string(),
                    forwarded: 9,
                    retries: 1,
                    failures: 0,
                    breaker_open: false,
                }],
                degraded_local_solves: 2,
                breaker_trips: 1,
                skipped_open: 0,
            }),
            ..Snapshot::default()
        };
        let doc = snapshot.to_json();
        for needle in [
            "\"role\": \"router\"",
            "\"127.0.0.1:7971\"",
            "\"forwarded\": 9",
            "\"degraded_local_solves\": 2",
        ] {
            assert!(doc.contains(needle), "missing {needle}:\n{doc}");
        }
        let decoded = Snapshot::from_json(&doc).expect("router document decodes");
        assert!(matches!(decoded.cluster, ClusterSection::Router(ref r)
            if r.degraded_local_solves == 2 && r.breaker_trips == 1));
    }

    #[test]
    fn from_json_describes_each_malformation() {
        let cases: [(&str, &str); 5] = [
            ("not json at all", "not valid JSON"),
            ("[1,2,3]", "not a JSON object"),
            (r#"{"queue":{}}"#, "no `oracle_cache` section"),
            (
                r#"{"oracle_cache":{"hits":3,"misses":1}}"#,
                "no `hit_rate` field",
            ),
            (
                r#"{"oracle_cache":{"hits":1,"misses":1,"hit_rate":"high"}}"#,
                "not a number",
            ),
        ];
        for (body, expected) in cases {
            let err = Snapshot::from_json(body).unwrap_err();
            assert!(err.contains(expected), "{body} => {err}");
        }
    }

    #[test]
    fn from_json_requires_the_dedup_and_incremental_sections() {
        let base = r#"{"oracle_cache":{"hits":1,"misses":1,"hit_rate":0.5}}"#;
        let err = Snapshot::from_json(base).unwrap_err();
        assert!(err.contains("no `candidate_dedup` section"), "{err}");
        let with_dedup = r#"{"oracle_cache":{"hits":1,"misses":1,"hit_rate":0.5},
            "candidate_dedup":{"dedup_hits":7,"dedup_rate":0.25}}"#;
        let err = Snapshot::from_json(with_dedup).unwrap_err();
        assert!(err.contains("no `incremental` section"), "{err}");
    }

    #[test]
    fn from_json_treats_disabled_persistence_as_none() {
        let body = r#"{"oracle_cache":{"hits":1,"misses":1,"hit_rate":0.5},
            "candidate_dedup":{"dedup_hits":0,"dedup_rate":0},
            "incremental":{"incremental_checks":0,"clause_reuse_rate":0},
            "persistent":{"enabled":false}}"#;
        let snapshot = Snapshot::from_json(body).expect("decodes");
        assert_eq!(snapshot.persistent, None);
        assert_eq!(snapshot.cluster, ClusterSection::Off);
        // An enabled tier without its counters is a described error.
        let broken = body.replace("\"enabled\":false", "\"enabled\":true");
        let err = Snapshot::from_json(&broken).unwrap_err();
        assert!(err.contains("no `preloaded` field"), "{err}");
    }

    #[test]
    fn scalars_cover_histograms_as_count_and_sum() {
        let scalars = rich_snapshot().scalars();
        let find = |id: &str| {
            scalars
                .iter()
                .find(|(k, _)| k == id)
                .unwrap_or_else(|| panic!("no scalar {id}"))
                .1
        };
        assert_eq!(
            find("specrepair_repair_latency_us_count{technique=\"ATR\"}"),
            2.0
        );
        assert_eq!(
            find("specrepair_repair_latency_us_sum{technique=\"ATR\"}"),
            2_900.0
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
}
