//! The time-series layer: a fixed-capacity ring of scalar samples.
//!
//! A sampler thread (owned by the server) calls [`History::record`] with
//! every scalar series of the daemon's sample list (histograms as their
//! `_count` and `_sum`) every `--metrics-history-interval`.
//! Samples carry a deterministic tick index (0, 1, 2, …) rather than a
//! wall-clock timestamp, so test assertions and replayed studies don't
//! depend on scheduler timing; the configured interval is reported once in
//! the document header for anyone who wants real time back. When the ring
//! is full the oldest sample is dropped and counted.

use std::collections::VecDeque;
use std::sync::Mutex;

use serde::Value;

/// One recorded sample: the tick index and every scalar series.
#[derive(Debug, Clone)]
pub struct HistorySample {
    /// Deterministic tick index, starting at 0.
    pub index: u64,
    /// `(series id, value)` pairs, in canonical snapshot order.
    pub values: Vec<(String, f64)>,
}

#[derive(Debug, Default)]
struct Ring {
    next_index: u64,
    dropped: u64,
    samples: VecDeque<HistorySample>,
}

/// A bounded in-memory time series of metric scalars.
#[derive(Debug)]
pub struct History {
    capacity: usize,
    interval_ms: u64,
    ring: Mutex<Ring>,
}

impl History {
    /// A ring holding at most `capacity` samples, taken every
    /// `interval_ms` (reported in the document; the caller owns the
    /// actual timer).
    pub fn new(capacity: usize, interval_ms: u64) -> History {
        History {
            capacity: capacity.max(1),
            interval_ms,
            ring: Mutex::new(Ring::default()),
        }
    }

    /// The configured sampling interval in milliseconds.
    pub fn interval_ms(&self) -> u64 {
        self.interval_ms
    }

    /// Records one sample and returns its tick index. Drops the oldest
    /// sample when full.
    pub fn record(&self, values: Vec<(String, f64)>) -> u64 {
        let mut ring = self.ring.lock().unwrap();
        let index = ring.next_index;
        ring.next_index += 1;
        if ring.samples.len() == self.capacity {
            ring.samples.pop_front();
            ring.dropped += 1;
        }
        ring.samples.push_back(HistorySample { index, values });
        index
    }

    /// Samples currently retained, oldest first.
    pub fn samples(&self) -> Vec<HistorySample> {
        self.ring.lock().unwrap().samples.iter().cloned().collect()
    }

    /// Renders the `GET /metrics/history` document.
    pub fn to_json(&self) -> String {
        let ring = self.ring.lock().unwrap();
        let samples = Value::Seq(
            ring.samples
                .iter()
                .map(|sample| {
                    Value::Map(vec![
                        ("index".to_string(), Value::U64(sample.index)),
                        (
                            "values".to_string(),
                            Value::Map(
                                sample
                                    .values
                                    .iter()
                                    .map(|(id, v)| (id.clone(), Value::F64(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let doc = Value::Map(vec![
            ("enabled".to_string(), Value::Bool(true)),
            ("interval_ms".to_string(), Value::U64(self.interval_ms)),
            ("capacity".to_string(), Value::U64(self.capacity as u64)),
            ("dropped".to_string(), Value::U64(ring.dropped)),
            (
                "retained".to_string(),
                Value::U64(ring.samples.len() as u64),
            ),
            ("samples".to_string(), samples),
        ]);
        serde_json::to_string_pretty(&doc).expect("history document serializes")
    }

    /// Renders the drain dump: one compact JSON object per line
    /// (`metrics_history.jsonl`), oldest first.
    pub fn dump_jsonl(&self) -> String {
        let ring = self.ring.lock().unwrap();
        let mut out = String::new();
        for sample in &ring.samples {
            let line = Value::Map(vec![
                ("index".to_string(), Value::U64(sample.index)),
                (
                    "values".to_string(),
                    Value::Map(
                        sample
                            .values
                            .iter()
                            .map(|(id, v)| (id.clone(), Value::F64(*v)))
                            .collect(),
                    ),
                ),
            ]);
            out.push_str(&serde_json::to_string(&line).expect("history line serializes"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(value: f64) -> Vec<(String, f64)> {
        vec![("specrepair_queue_depth".to_string(), value)]
    }

    #[test]
    fn indices_are_deterministic_and_survive_eviction() {
        let history = History::new(3, 250);
        for i in 0..5 {
            assert_eq!(history.record(sample(i as f64)), i);
        }
        let samples = history.samples();
        assert_eq!(
            samples.iter().map(|s| s.index).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "ring keeps the newest samples with their original indices"
        );
        let doc = history.to_json();
        for needle in [
            "\"interval_ms\": 250",
            "\"capacity\": 3",
            "\"dropped\": 2",
            "\"retained\": 3",
        ] {
            assert!(doc.contains(needle), "missing {needle}:\n{doc}");
        }
    }

    #[test]
    fn jsonl_dump_is_one_compact_object_per_line() {
        let history = History::new(8, 100);
        history.record(sample(1.0));
        history.record(sample(2.0));
        let dump = history.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"index\":0"), "{}", lines[0]);
        assert!(lines[1].contains("\"index\":1"), "{}", lines[1]);
        assert!(!lines[0].contains('\n'));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let history = History::new(0, 100);
        history.record(sample(1.0));
        history.record(sample(2.0));
        assert_eq!(history.samples().len(), 1);
    }
}
