//! The typed metric registry: named families of counters, gauges and
//! histograms with stable label sets.
//!
//! Registration is idempotent — asking for `(name, labels)` again returns
//! a clone of the existing handle — so a subsystem can register at its own
//! call site without coordinating with anyone. The registry lock is only
//! taken to *look up* a handle; once held, every increment is lock-free
//! (see [`crate::metric`]). Hot paths that register per-request label
//! values (endpoint × status) pay one short mutex-guarded BTreeMap probe,
//! the same cost profile as the map-of-counters it replaces.
//!
//! [`Registry::gather`] walks every family in name order and every series
//! in label order, so the rows a document builds from it come out in a
//! fixed order. Help text is not kept here: it belongs with the owner's
//! description of each family, next to the format it renders.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};

/// The three metric types the registry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter (`_total` by convention).
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// A log₂ latency histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` spelling.
    pub fn label(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One gathered (or parsed) metric sample: a family name, the label set
/// identifying the series, and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Family name, e.g. `specrepair_requests_total`.
    pub name: String,
    /// Label pairs in registration order, e.g. `[("endpoint", "repair"),
    /// ("status", "200")]`.
    pub labels: Vec<(String, String)>,
    /// The sample's kind and value.
    pub value: SampleValue,
}

/// The value of one [`Sample`].
///
/// The histogram variant is large (a full 28-bucket snapshot) but samples
/// are only materialized on scrape, never on the hot path, so the size
/// skew is irrelevant and not worth a `Box` indirection in every matcher.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum SampleValue {
    /// A monotone counter value.
    Counter(u64),
    /// A gauge value.
    Gauge(f64),
    /// A full histogram (buckets, count, sum, max).
    Histogram(HistogramSnapshot),
}

impl Sample {
    /// The series identity string: `name` or `name{k="v",k2="v2"}` — the
    /// key fleet aggregation groups on.
    pub fn id(&self) -> String {
        series_id(&self.name, &self.labels)
    }

    /// The sample's kind.
    pub fn kind(&self) -> MetricKind {
        match self.value {
            SampleValue::Counter(_) => MetricKind::Counter,
            SampleValue::Gauge(_) => MetricKind::Gauge,
            SampleValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// Formats a series identity: the family name plus its sorted label set,
/// in Prometheus line syntax.
pub fn series_id(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut id = String::from(name);
    id.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            id.push(',');
        }
        id.push_str(key);
        id.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => id.push_str("\\\\"),
                '"' => id.push_str("\\\""),
                '\n' => id.push_str("\\n"),
                c => id.push(c),
            }
        }
        id.push('"');
    }
    id.push('}');
    id
}

/// One registered handle.
#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<Histogram>),
}

/// One metric family: a kind, and every labeled series.
#[derive(Debug)]
struct Family {
    kind: MetricKind,
    /// Label set → handle. BTreeMap so gather order is deterministic.
    series: BTreeMap<Vec<(String, String)>, Handle>,
}

/// The registry: named metric families, each holding labeled series.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn handle(&self, name: &'static str, kind: MetricKind, labels: &[(&str, &str)]) -> Handle {
        let key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().unwrap();
        let family = families.entry(name).or_insert_with(|| Family {
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric `{name}` registered twice with different kinds"
        );
        family
            .series
            .entry(key)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Handle::Counter(Counter::new()),
                MetricKind::Gauge => Handle::Gauge(Gauge::new()),
                MetricKind::Histogram => Handle::Histogram(Arc::new(Histogram::new())),
            })
            .clone()
    }

    /// Registers (or fetches) a counter series.
    pub fn counter(&self, name: &'static str, labels: &[(&str, &str)]) -> Counter {
        match self.handle(name, MetricKind::Counter, labels) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked in handle()"),
        }
    }

    /// Registers (or fetches) a gauge series.
    pub fn gauge(&self, name: &'static str, labels: &[(&str, &str)]) -> Gauge {
        match self.handle(name, MetricKind::Gauge, labels) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind checked in handle()"),
        }
    }

    /// Registers (or fetches) a histogram series.
    pub fn histogram(&self, name: &'static str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.handle(name, MetricKind::Histogram, labels) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked in handle()"),
        }
    }

    /// Snapshots every registered series, families in name order, series
    /// in label order.
    pub fn gather(&self) -> Vec<Sample> {
        let families = self.families.lock().unwrap();
        let mut samples = Vec::new();
        for (name, family) in families.iter() {
            for (labels, handle) in &family.series {
                let value = match handle {
                    Handle::Counter(c) => SampleValue::Counter(c.get()),
                    Handle::Gauge(g) => SampleValue::Gauge(g.get() as f64),
                    Handle::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                };
                samples.push(Sample {
                    name: name.to_string(),
                    labels: labels.clone(),
                    value,
                });
            }
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let registry = Registry::new();
        let a = registry.counter("hits_total", &[("shard", "0")]);
        let b = registry.counter("hits_total", &[("shard", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same (name, labels) shares one cell");
        let other = registry.counter("hits_total", &[("shard", "1")]);
        assert_eq!(other.get(), 0, "different labels, different series");
    }

    #[test]
    fn gather_is_sorted_by_name_then_labels() {
        let registry = Registry::new();
        registry.gauge("z_depth", &[]).set(7);
        registry
            .counter("a_total", &[("endpoint", "repair"), ("status", "400")])
            .inc();
        registry
            .counter("a_total", &[("endpoint", "repair"), ("status", "200")])
            .add(2);
        let samples = registry.gather();
        let ids: Vec<String> = samples.iter().map(|s| s.id()).collect();
        assert_eq!(
            ids,
            vec![
                "a_total{endpoint=\"repair\",status=\"200\"}",
                "a_total{endpoint=\"repair\",status=\"400\"}",
                "z_depth",
            ]
        );
        assert_eq!(samples[0].value, SampleValue::Counter(2));
        assert_eq!(samples[2].value, SampleValue::Gauge(7.0));
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn kind_conflict_is_a_programmer_error() {
        let registry = Registry::new();
        registry.counter("x_total", &[]);
        registry.gauge("x_total", &[]);
    }

    #[test]
    fn series_id_escapes_label_values() {
        let labels = vec![("path".to_string(), "a\"b\\c".to_string())];
        assert_eq!(series_id("m", &labels), "m{path=\"a\\\"b\\\\c\"}");
    }
}
