//! Prometheus text exposition: [`render`] turns a sample list into the
//! text format, [`parse`] reads it back into samples.
//!
//! The parser exists so the repo can verify its own exposition end to end
//! — the round-trip test asserts `parse(render(samples))` equals the
//! (sorted) sample list, including full histogram bucket detail.
//! Histograms follow the Prometheus convention exactly: one `_bucket` line
//! per log₂ upper bound with *cumulative* counts, a trailing `+Inf`
//! bucket, then `_sum` (microseconds) and `_count`. Because the text
//! format has no slot for a histogram's observed max, a histogram family
//! `X` may travel with a companion gauge family `X_max`; the parser folds
//! it back into the decoded histogram so the round trip loses nothing.

use std::collections::BTreeMap;

use crate::metric::{bucket_upper_micros, HistogramSnapshot, BUCKETS};
use crate::registry::{MetricKind, Sample, SampleValue};

/// Sorts samples by family name, then label set — the canonical order
/// both [`render`] and [`parse`] produce.
pub fn sort_samples(samples: &mut [Sample]) {
    samples.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
}

fn write_series(out: &mut String, name: &str, labels: &[(String, String)], extra_le: Option<&str>) {
    out.push_str(name);
    if !labels.is_empty() || extra_le.is_some() {
        out.push('{');
        let mut first = true;
        for (key, value) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(key);
            out.push_str("=\"");
            for c in value.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        if let Some(le) = extra_le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
}

/// Renders a sample list as Prometheus text exposition, families sorted
/// by name, series sorted by label set. `help` gives each family's
/// `# HELP` text; a family it answers empty for renders without one.
pub fn render(samples: &[Sample], help: impl Fn(&str) -> &'static str) -> String {
    let mut samples = samples.to_vec();
    sort_samples(&mut samples);
    let mut out = String::new();
    let mut current_family: Option<&str> = None;
    for sample in &samples {
        if current_family != Some(sample.name.as_str()) {
            current_family = Some(sample.name.as_str());
            let help = help(&sample.name);
            if !help.is_empty() {
                out.push_str("# HELP ");
                out.push_str(&sample.name);
                out.push(' ');
                out.push_str(help);
                out.push('\n');
            }
            out.push_str("# TYPE ");
            out.push_str(&sample.name);
            out.push(' ');
            out.push_str(sample.kind().label());
            out.push('\n');
        }
        match &sample.value {
            SampleValue::Counter(n) => {
                write_series(&mut out, &sample.name, &sample.labels, None);
                out.push_str(&n.to_string());
                out.push('\n');
            }
            SampleValue::Gauge(v) => {
                write_series(&mut out, &sample.name, &sample.labels, None);
                out.push_str(&v.to_string());
                out.push('\n');
            }
            SampleValue::Histogram(h) => {
                let cumulative = h.cumulative();
                for (bucket, cum) in cumulative.iter().enumerate() {
                    let le = match bucket_upper_micros(bucket) {
                        Some(bound) => bound.to_string(),
                        None => "+Inf".to_string(),
                    };
                    write_series(
                        &mut out,
                        &format!("{}_bucket", sample.name),
                        &sample.labels,
                        Some(&le),
                    );
                    out.push_str(&cum.to_string());
                    out.push('\n');
                }
                write_series(
                    &mut out,
                    &format!("{}_sum", sample.name),
                    &sample.labels,
                    None,
                );
                out.push_str(&h.sum_micros().to_string());
                out.push('\n');
                write_series(
                    &mut out,
                    &format!("{}_count", sample.name),
                    &sample.labels,
                    None,
                );
                out.push_str(&h.count().to_string());
                out.push('\n');
            }
        }
    }
    out
}

/// One parsed exposition line: series name, labels, raw value text.
struct Line {
    name: String,
    labels: Vec<(String, String)>,
    value: String,
}

fn parse_line(line: &str, lineno: usize) -> Result<Line, String> {
    let err = |what: &str| format!("prom line {lineno}: {what}: {line:?}");
    let (series, value) = match line.find('{') {
        Some(_) => {
            let close = line.rfind('}').ok_or_else(|| err("unclosed label set"))?;
            (&line[..=close], line[close + 1..].trim())
        }
        None => {
            let space = line.find(' ').ok_or_else(|| err("no value"))?;
            (&line[..space], line[space + 1..].trim())
        }
    };
    if value.is_empty() {
        return Err(err("no value"));
    }
    let (name, labels) = match series.find('{') {
        None => (series.to_string(), Vec::new()),
        Some(brace) => {
            let name = series[..brace].to_string();
            let body = &series[brace + 1..series.len() - 1];
            let mut labels = Vec::new();
            let mut rest = body;
            while !rest.is_empty() {
                let eq = rest.find("=\"").ok_or_else(|| err("malformed label"))?;
                let key = rest[..eq].trim_start_matches(',').to_string();
                let mut value = String::new();
                let mut chars = rest[eq + 2..].char_indices();
                let mut consumed = None;
                while let Some((i, c)) = chars.next() {
                    match c {
                        '\\' => match chars.next() {
                            Some((_, '\\')) => value.push('\\'),
                            Some((_, '"')) => value.push('"'),
                            Some((_, 'n')) => value.push('\n'),
                            _ => return Err(err("bad escape in label value")),
                        },
                        '"' => {
                            consumed = Some(eq + 2 + i + 1);
                            break;
                        }
                        c => value.push(c),
                    }
                }
                let end = consumed.ok_or_else(|| err("unterminated label value"))?;
                labels.push((key, value));
                rest = &rest[end..];
            }
            (name, labels)
        }
    };
    Ok(Line {
        name,
        labels,
        value: value.to_string(),
    })
}

/// Accumulates one histogram series' `_bucket`/`_sum`/`_count` lines.
#[derive(Default)]
struct HistogramBuilder {
    buckets: Vec<(Option<u64>, u64)>,
    sum: Option<u64>,
    count: Option<u64>,
}

impl HistogramBuilder {
    fn finish(self, id: &str) -> Result<HistogramSnapshot, String> {
        let mut counts = [0u64; BUCKETS];
        let mut previous = 0u64;
        for (bucket, (le, cum)) in self.buckets.iter().enumerate() {
            if bucket >= BUCKETS {
                break;
            }
            if *le != bucket_upper_micros(bucket) {
                return Err(format!(
                    "histogram `{id}` bucket {bucket} has le {le:?}, expected {:?}",
                    bucket_upper_micros(bucket)
                ));
            }
            if *cum < previous {
                return Err(format!(
                    "histogram `{id}` cumulative counts decrease at bucket {bucket}"
                ));
            }
            counts[bucket] = cum - previous;
            previous = *cum;
        }
        if self.buckets.len() != BUCKETS {
            return Err(format!(
                "histogram `{id}` has {} buckets, expected {BUCKETS}",
                self.buckets.len()
            ));
        }
        let sum = self
            .sum
            .ok_or(format!("histogram `{id}` has no _sum line"))?;
        let count = self
            .count
            .ok_or(format!("histogram `{id}` has no _count line"))?;
        if previous != count {
            return Err(format!(
                "histogram `{id}` _count {count} disagrees with +Inf bucket {previous}"
            ));
        }
        Ok(HistogramSnapshot::from_parts(counts, count, sum, 0))
    }
}

/// Parses Prometheus text exposition back into samples, sorted by family
/// name then labels. Histogram `_bucket`/`_sum`/`_count` lines are folded
/// back into full [`SampleValue::Histogram`] values (cumulative counts
/// validated and de-accumulated), and each histogram's observed max is
/// recovered from its companion `{name}_max` gauge when present.
///
/// # Errors
///
/// A description of the first malformed line or inconsistent histogram.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut kinds: BTreeMap<String, MetricKind> = BTreeMap::new();
    let mut scalars: Vec<Sample> = Vec::new();
    let mut histograms: BTreeMap<(String, Vec<(String, String)>), HistogramBuilder> =
        BTreeMap::new();
    for (index, raw) in text.lines().enumerate() {
        let lineno = index + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or(format!("prom line {lineno}: TYPE without a name"))?;
            let kind = match parts.next() {
                Some("counter") => MetricKind::Counter,
                Some("gauge") => MetricKind::Gauge,
                Some("histogram") => MetricKind::Histogram,
                other => {
                    return Err(format!(
                        "prom line {lineno}: unknown metric type {other:?} for `{name}`"
                    ))
                }
            };
            kinds.insert(name.to_string(), kind);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let parsed = parse_line(line, lineno)?;
        // Histogram component lines route to their builder, keyed by the
        // base family and the label set minus `le`.
        let histogram_base = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            let base = parsed.name.strip_suffix(suffix)?;
            (kinds.get(base) == Some(&MetricKind::Histogram)).then(|| (base.to_string(), *suffix))
        });
        if let Some((base, suffix)) = histogram_base {
            let mut labels = parsed.labels.clone();
            let le = labels
                .iter()
                .position(|(k, _)| k == "le")
                .map(|i| labels.remove(i).1);
            let builder = histograms.entry((base, labels)).or_default();
            match suffix {
                "_bucket" => {
                    let le = le.ok_or(format!("prom line {lineno}: _bucket without le"))?;
                    let bound = if le == "+Inf" {
                        None
                    } else {
                        Some(
                            le.parse::<u64>()
                                .map_err(|e| format!("prom line {lineno}: bad le `{le}`: {e}"))?,
                        )
                    };
                    let cum = parsed
                        .value
                        .parse::<u64>()
                        .map_err(|e| format!("prom line {lineno}: bad bucket count: {e}"))?;
                    builder.buckets.push((bound, cum));
                }
                "_sum" => {
                    builder.sum = Some(
                        parsed
                            .value
                            .parse::<u64>()
                            .map_err(|e| format!("prom line {lineno}: bad _sum: {e}"))?,
                    );
                }
                _ => {
                    builder.count = Some(
                        parsed
                            .value
                            .parse::<u64>()
                            .map_err(|e| format!("prom line {lineno}: bad _count: {e}"))?,
                    );
                }
            }
            continue;
        }
        let value = match kinds.get(&parsed.name) {
            Some(MetricKind::Counter) => SampleValue::Counter(
                parsed
                    .value
                    .parse::<u64>()
                    .map_err(|e| format!("prom line {lineno}: bad counter value: {e}"))?,
            ),
            Some(MetricKind::Gauge) => SampleValue::Gauge(
                parsed
                    .value
                    .parse::<f64>()
                    .map_err(|e| format!("prom line {lineno}: bad gauge value: {e}"))?,
            ),
            Some(MetricKind::Histogram) => {
                return Err(format!(
                    "prom line {lineno}: bare sample for histogram family `{}`",
                    parsed.name
                ))
            }
            None => {
                return Err(format!(
                    "prom line {lineno}: sample for `{}` with no preceding # TYPE",
                    parsed.name
                ))
            }
        };
        scalars.push(Sample {
            name: parsed.name,
            labels: parsed.labels,
            value,
        });
    }
    let mut out = scalars;
    for ((name, labels), builder) in histograms {
        let id = crate::registry::series_id(&name, &labels);
        let mut snapshot = builder.finish(&id)?;
        // The text format has no max slot; recover it from the companion
        // `{name}_max` gauge with the same labels.
        let max_name = format!("{name}_max");
        if let Some(max) = out.iter().find_map(|s| match &s.value {
            SampleValue::Gauge(v) if s.name == max_name && s.labels == labels => Some(*v),
            _ => None,
        }) {
            snapshot.set_max_micros(max as u64);
        }
        out.push(Sample {
            name,
            labels,
            value: SampleValue::Histogram(snapshot),
        });
    }
    sort_samples(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, labels: &[(&str, &str)], value: SampleValue) -> Sample {
        Sample {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        }
    }

    /// One sample of every kind: plain and labeled counters, a gauge, and
    /// two histograms with their companion `_max` gauges.
    fn samples() -> Vec<Sample> {
        let mut atr = HistogramSnapshot::default();
        atr.record(800);
        atr.record(2_100);
        let mut icebar = HistogramSnapshot::default();
        icebar.record(1_500);
        let mut out = vec![
            sample("specrepair_shed_total", &[], SampleValue::Counter(1)),
            sample("specrepair_oracle_hit_rate", &[], SampleValue::Gauge(0.75)),
            sample(
                "specrepair_requests_total",
                &[("endpoint", "repair"), ("status", "200")],
                SampleValue::Counter(2),
            ),
            sample(
                "specrepair_requests_total",
                &[("endpoint", "repair"), ("status", "400")],
                SampleValue::Counter(1),
            ),
        ];
        for (technique, h) in [("ATR", atr), ("ICEBAR", icebar)] {
            let labels = [("technique", technique)];
            let max = SampleValue::Gauge(h.max_micros() as f64);
            out.push(sample(
                "specrepair_repair_latency_us",
                &labels,
                SampleValue::Histogram(h),
            ));
            out.push(sample("specrepair_repair_latency_us_max", &labels, max));
        }
        out
    }

    /// Help for every fixture family but the gauge.
    fn help(family: &str) -> &'static str {
        if family == "specrepair_oracle_hit_rate" {
            ""
        } else {
            "Fixture family."
        }
    }

    #[test]
    fn render_parse_round_trips_every_sample_exactly() {
        let text = render(&samples(), help);
        let parsed = parse(&text).expect("own exposition parses");
        let mut expected = samples();
        sort_samples(&mut expected);
        assert_eq!(parsed.len(), expected.len());
        for (got, want) in parsed.iter().zip(expected.iter()) {
            assert_eq!(got, want, "series {}", want.id());
        }
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_terminated_by_inf() {
        let text = render(&samples(), help);
        // ATR recorded 800µs and 2100µs: bucket le=1024 holds one
        // observation cumulatively, le=4096 both, and +Inf stays at 2.
        for needle in [
            "specrepair_repair_latency_us_bucket{technique=\"ATR\",le=\"1024\"} 1",
            "specrepair_repair_latency_us_bucket{technique=\"ATR\",le=\"4096\"} 2",
            "specrepair_repair_latency_us_bucket{technique=\"ATR\",le=\"+Inf\"} 2",
            "specrepair_repair_latency_us_sum{technique=\"ATR\"} 2900",
            "specrepair_repair_latency_us_count{technique=\"ATR\"} 2",
            "# HELP specrepair_repair_latency_us Fixture family.",
            "# TYPE specrepair_repair_latency_us histogram",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // A family without help text still gets its TYPE line.
        assert!(
            !text.contains("# HELP specrepair_oracle_hit_rate"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE specrepair_oracle_hit_rate gauge"),
            "{text}"
        );
    }

    #[test]
    fn parse_rejects_inconsistent_histograms() {
        let decreasing = "\
# TYPE h histogram
h_bucket{le=\"2\"} 5
h_bucket{le=\"4\"} 3
";
        let err = parse(decreasing).unwrap_err();
        assert!(err.contains("decrease"), "{err}");
        let no_type = "mystery_total 4\n";
        let err = parse(no_type).unwrap_err();
        assert!(err.contains("no preceding # TYPE"), "{err}");
        let bad_value = "# TYPE c counter\nc notanumber\n";
        let err = parse(bad_value).unwrap_err();
        assert!(err.contains("bad counter value"), "{err}");
    }

    #[test]
    fn parse_recovers_label_escapes() {
        let text = "# TYPE c counter\nc{path=\"a\\\"b\\\\c\"} 7\n";
        let samples = parse(text).expect("parses");
        assert_eq!(
            samples[0].labels,
            vec![("path".to_string(), "a\"b\\c".to_string())]
        );
        assert_eq!(samples[0].value, SampleValue::Counter(7));
    }
}
