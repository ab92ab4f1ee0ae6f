//! Readers for the per-layer data the program already exposes — counters
//! from `GET /metrics/prom`, phase totals from `GET /trace/summary`, and
//! drained spans — plus the recorder for the benchmark's own spans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use specrepair_telemetry::{prom, SampleValue};
use specrepair_trace::{AttrValue, Phase, SpanRecord};

/// Counter values from one or more `/metrics/prom` expositions, summed
/// across nodes. Each sample counts under its family name and under
/// `name{label="value"}` for each of its labels, so a family can be read
/// whole or restricted to one label value.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Adds every counter of one node's exposition.
    ///
    /// # Errors
    ///
    /// The exposition parser's description of a malformed line.
    pub fn absorb(&mut self, exposition: &str) -> Result<(), String> {
        for sample in prom::parse(exposition)? {
            let SampleValue::Counter(n) = sample.value else {
                continue;
            };
            *self.0.entry(sample.name.clone()).or_default() += n;
            for (key, value) in &sample.labels {
                *self
                    .0
                    .entry(format!("{}{{{key}=\"{value}\"}}", sample.name))
                    .or_default() += n;
            }
        }
        Ok(())
    }

    /// The summed value of `key` (0 when no node exposed it).
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// The increase since an earlier reading of the same nodes.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.get(k))))
                .collect(),
        )
    }
}

/// Busy milliseconds per phase, in [`Phase::ALL`] order, from one
/// `GET /trace/summary` document.
///
/// # Errors
///
/// A description of a document that is not JSON or lacks a phase.
pub fn phase_busy_ms(summary: &str) -> Result<[f64; 4], String> {
    use serde::Value;
    let doc: Value = serde_json::from_str(summary).map_err(|e| format!("not JSON: {e}"))?;
    let lookup = |v: &Value, key: &str| -> Result<Value, String> {
        match v {
            Value::Map(m) => serde::field(m, key)
                .cloned()
                .map_err(|_| format!("no `{key}` in trace summary")),
            _ => Err(format!("`{key}`: parent is not an object")),
        }
    };
    let phases = lookup(&doc, "phases")?;
    let mut busy = [0.0; 4];
    for phase in Phase::ALL {
        busy[phase.index()] = match lookup(&lookup(&phases, phase.label())?, "busy_ms")? {
            Value::F64(x) => x,
            Value::U64(n) => n as f64,
            Value::I64(n) => n as f64,
            _ => return Err(format!("{}.busy_ms is not a number", phase.label())),
        };
    }
    Ok(busy)
}

/// Call count, summed duration and summed self time of the spans sharing
/// one name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), nanoseconds.
    pub self_ns: u64,
}

/// Groups spans by name. Self time is a span's duration minus the summed
/// durations of its direct children, clamped at zero — the rule the trace
/// exporter's phase breakdown uses — so over a single-thread tree the self
/// times add up to the root's duration.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns;
        t.self_ns += s
            .dur_ns
            .saturating_sub(children.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// The trace-cell seed of the benchmark's own spans.
const BENCH_CELL: u64 = 0xE2E_BE9C;

/// The benchmark's own spans. They are kept apart from the program's span
/// sink, which a traced daemon drains after every request, and stamped on
/// the program's trace clock so both sets share one timeline.
pub struct Recorder {
    /// The trace clock's origin; `None` when not recording.
    origin: Option<Instant>,
    seq: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder {
            origin: None,
            seq: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording recorder. Finds the trace clock's origin by opening one
    /// program span, so call it while no other thread is tracing; it
    /// leaves span collection off.
    pub fn on() -> Recorder {
        specrepair_trace::set_enabled(true);
        let before = Instant::now();
        drop(specrepair_trace::span("bench.clock", Phase::Orchestration));
        specrepair_trace::set_enabled(false);
        let clock = specrepair_trace::take_spans()
            .into_iter()
            .find(|s| s.name == "bench.clock")
            .expect("an enabled span is recorded when it closes");
        Recorder {
            origin: before.checked_sub(Duration::from_nanos(clock.start_ns)),
            ..Recorder::off()
        }
    }

    /// Records one span from `start` to `end` on track `lane` (0 for the
    /// benchmark's main thread, 1 + n for sender thread n).
    pub fn record(
        &self,
        name: &'static str,
        lane: u64,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        let Some(origin) = self.origin else {
            return;
        };
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let span = SpanRecord {
            id: specrepair_trace::span_id_for(BENCH_CELL, lane, seq),
            parent: 0,
            name,
            phase: Phase::Orchestration,
            cell: BENCH_CELL,
            ordinal: lane,
            start_ns: start.saturating_duration_since(origin).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            attrs,
        };
        self.spans
            .lock()
            .expect("no recorder user panics while holding the lock")
            .push(span);
    }

    /// Drains the recorded spans.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no recorder user panics while holding the lock"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that switch the process-wide span collector take turns.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An excerpt of a shard's `GET /metrics/prom`, as served.
    const SHARD_PROM: &str = "\
# HELP specrepair_oracle_hits_total Oracle queries answered from the memo table.
# TYPE specrepair_oracle_hits_total counter
specrepair_oracle_hits_total 812
# HELP specrepair_oracle_hit_rate Fraction of oracle queries answered from cache.
# TYPE specrepair_oracle_hit_rate gauge
specrepair_oracle_hit_rate 0.8711
# HELP specrepair_requests_total Requests served, by endpoint and status.
# TYPE specrepair_requests_total counter
specrepair_requests_total{endpoint=\"metrics\",status=\"200\"} 2
specrepair_requests_total{endpoint=\"repair\",status=\"200\"} 331
specrepair_requests_total{endpoint=\"verdict\",status=\"404\"} 17
";

    /// An excerpt of the router's `GET /metrics/prom`.
    const ROUTER_PROM: &str = "\
# HELP specrepair_router_forwarded_total Requests forwarded to each shard.
# TYPE specrepair_router_forwarded_total counter
specrepair_router_forwarded_total{shard=\"127.0.0.1:40001\"} 330
specrepair_router_forwarded_total{shard=\"127.0.0.1:40002\"} 352
";

    #[test]
    fn counters_sum_across_nodes_and_labels() {
        let mut c = Counters::default();
        c.absorb(SHARD_PROM).unwrap();
        c.absorb(SHARD_PROM).unwrap();
        c.absorb(ROUTER_PROM).unwrap();
        assert_eq!(c.get("specrepair_oracle_hits_total"), 1624);
        assert_eq!(c.get("specrepair_requests_total"), 700);
        assert_eq!(c.get("specrepair_requests_total{endpoint=\"repair\"}"), 662);
        assert_eq!(c.get("specrepair_requests_total{status=\"404\"}"), 34);
        assert_eq!(c.get("specrepair_router_forwarded_total"), 682);
        // Gauges are not summed.
        assert_eq!(c.get("specrepair_oracle_hit_rate"), 0);
        assert_eq!(c.get("specrepair_never_exposed_total"), 0);
    }

    #[test]
    fn counter_deltas_are_per_pass() {
        let mut before = Counters::default();
        before.absorb(SHARD_PROM).unwrap();
        let later = SHARD_PROM.replace(" 812", " 900").replace(" 331", " 400");
        let mut after = Counters::default();
        after.absorb(&later).unwrap();
        let delta = after.since(&before);
        assert_eq!(delta.get("specrepair_oracle_hits_total"), 88);
        assert_eq!(
            delta.get("specrepair_requests_total{endpoint=\"repair\"}"),
            69
        );
        assert_eq!(
            delta.get("specrepair_requests_total{endpoint=\"metrics\"}"),
            0
        );
    }

    #[test]
    fn malformed_exposition_is_an_error() {
        assert!(Counters::default()
            .absorb("specrepair_x_total not-a-number\n")
            .is_err());
    }

    /// `GET /trace/summary` of a traced daemon, as served.
    const SUMMARY: &str = r#"{
  "tracing_enabled": true,
  "spans_total": 5210,
  "traced_requests_total": 40,
  "attributed_ms_total": 152.5,
  "phases": {
    "sat": {
      "busy_ms": 61.25,
      "pct": 40.16
    },
    "oracle-cache": {
      "busy_ms": 30.0,
      "pct": 19.67
    },
    "lm": {
      "busy_ms": 0,
      "pct": 0
    },
    "orchestration": {
      "busy_ms": 61.25,
      "pct": 40.16
    }
  }
}"#;

    #[test]
    fn trace_summary_reads_every_phase() {
        assert_eq!(phase_busy_ms(SUMMARY).unwrap(), [61.25, 30.0, 0.0, 61.25]);
        assert!(phase_busy_ms("{\"phases\":{}}")
            .unwrap_err()
            .contains("no `sat`"));
        assert!(phase_busy_ms("<html>").is_err());
    }

    #[test]
    fn nested_single_thread_self_times_sum_to_the_root() {
        // Recorded through the real collector: root > {a > b, c}.
        let _serial = serial();
        specrepair_trace::set_enabled(true);
        specrepair_trace::take_spans();
        {
            let _scope = specrepair_trace::cell_scope(0x5E1F, 0, None);
            let _root = specrepair_trace::span("root", Phase::Orchestration);
            {
                let _a = specrepair_trace::span("a", Phase::OracleCache);
                let _b = specrepair_trace::span("b", Phase::Sat);
                std::thread::sleep(Duration::from_millis(2));
            }
            let _c = specrepair_trace::span("c", Phase::Lm);
            std::thread::sleep(Duration::from_millis(1));
        }
        specrepair_trace::set_enabled(false);
        let spans: Vec<SpanRecord> = specrepair_trace::take_spans()
            .into_iter()
            .filter(|s| s.cell == 0x5E1F)
            .collect();
        assert_eq!(spans.len(), 4);
        let totals = self_times(&spans);
        let root = totals["root"];
        assert_eq!(root.count, 1);
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, root.total_ns);
        assert!(totals["b"].self_ns >= 2_000_000);
        assert_eq!(totals["b"].self_ns, totals["b"].total_ns);
    }

    #[test]
    fn recorder_stamps_spans_on_one_clock() {
        let off = Recorder::off();
        let t = Instant::now();
        off.record("bench.x", 0, t, t, Vec::new());
        assert!(off.take().is_empty());

        let on = {
            let _serial = serial();
            Recorder::on()
        };
        let start = Instant::now();
        let end = start + Duration::from_millis(3);
        on.record("bench.x", 2, start, end, vec![("i", AttrValue::U64(1))]);
        let spans = on.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].dur_ns, 3_000_000);
        assert_eq!(spans[0].ordinal, 2);
        assert!(spans[0].start_ns > 0);
        assert!(on.take().is_empty());
    }
}
