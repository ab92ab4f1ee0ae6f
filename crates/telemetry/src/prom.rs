//! Prometheus text exposition: [`render`] turns a [`Snapshot`]'s sample
//! list into the text format, [`parse`] reads it back into samples.
//!
//! The parser exists so the repo can verify its own exposition end to end
//! — the round-trip test asserts `parse(render(snapshot))` equals the
//! snapshot's own (sorted) sample list, including full histogram bucket
//! detail. Histograms follow the Prometheus convention exactly: one
//! `_bucket` line per log₂ upper bound with *cumulative* counts, a
//! trailing `+Inf` bucket, then `_sum` (microseconds) and `_count`.
//! Because the text format has no slot for a histogram's observed max,
//! each histogram family `X` travels with a companion gauge family
//! `X_max`; the parser folds it back into the decoded histogram so the
//! round trip loses nothing.

use std::collections::BTreeMap;

use crate::metric::{bucket_upper_micros, HistogramSnapshot, BUCKETS};
use crate::registry::{MetricKind, Sample, SampleValue};
use crate::snapshot::Snapshot;

/// Help text for every canonical family ([`Snapshot::samples`] names).
/// Unknown names render without a `# HELP` line.
pub fn help_text(name: &str) -> &'static str {
    match name {
        "specrepair_uptime_ms" => "Milliseconds since the daemon booted.",
        "specrepair_queue_depth" => "Requests waiting in the admission queue.",
        "specrepair_inflight" => "Requests currently executing in workers.",
        "specrepair_shed_total" => "Connections shed at admission.",
        "specrepair_deadline_exceeded_total" => "Repairs that exceeded their deadline.",
        "specrepair_requests_total" => "Requests served, by endpoint and status.",
        "specrepair_repair_latency_us" => "Repair latency in microseconds, by technique.",
        "specrepair_repair_latency_us_max" => {
            "Maximum observed repair latency in microseconds, by technique."
        }
        "specrepair_oracle_hits_total" => "Oracle queries answered from the memo table.",
        "specrepair_oracle_misses_total" => "Oracle queries that had to solve.",
        "specrepair_oracle_solver_invocations_total" => "Analyzer invocations executed.",
        "specrepair_oracle_errors_total" => "Oracle queries that ended in an analyzer error.",
        "specrepair_oracle_evictions_total" => "Memoized entries evicted for capacity.",
        "specrepair_oracle_hit_rate" => "Fraction of oracle queries answered from cache.",
        "specrepair_oracle_memoized_specs" => "Memoized spec entries currently held.",
        "specrepair_oracle_persist_hits_total" => "Verdicts answered by the persistent tier.",
        "specrepair_oracle_collapsed_total" => "Queries collapsed onto an in-flight solve.",
        "specrepair_dedup_hits_total" => "Verdict queries answered without a solve of their own.",
        "specrepair_dedup_misses_total" => "Verdict queries that solved.",
        "specrepair_dedup_coalesced_total" => "Verdict hits that waited on an in-flight solve.",
        "specrepair_dedup_rate" => "Fraction of verdict queries answered without a solve.",
        "specrepair_incremental_sessions_total" => "Incremental oracle sessions created.",
        "specrepair_incremental_checks_total" => "Checks answered incrementally.",
        "specrepair_incremental_fallbacks_total" => "Checks the incremental engine declined.",
        "specrepair_incremental_activation_vars_total" => "Activation literals allocated.",
        "specrepair_incremental_clause_reuse_rate" => "Fraction of per-check clauses reused.",
        "specrepair_incremental_learned_clauses_retained_total" => {
            "Learnt clauses carried between checks."
        }
        "specrepair_persist_enabled" => "Whether a persistent verdict tier is configured.",
        "specrepair_persist_degraded" => "Whether the persistent tier is degraded.",
        "specrepair_persist_preloaded" => "Entries recovered from disk at open.",
        "specrepair_persist_quarantined" => "Corrupt or torn records skipped at open.",
        "specrepair_persist_live_entries" => "Entries held in the persistent tier's memory.",
        "specrepair_persist_disk_lines" => "Lines currently in the live log file.",
        "specrepair_persist_disk_good" => "Valid records currently in the live log file.",
        "specrepair_persist_lookups_total" => "Persistent-tier lookups.",
        "specrepair_persist_hits_total" => "Persistent-tier lookups that found a verdict.",
        "specrepair_persist_appends_total" => "Records durably appended.",
        "specrepair_persist_append_errors_total" => "Appends that failed.",
        "specrepair_persist_skipped_degraded_total" => "Records skipped while degraded.",
        "specrepair_persist_breaker_trips_total" => "Disk-breaker trips.",
        "specrepair_persist_compactions_total" => "Completed log compactions.",
        "specrepair_persist_compaction_failures_total" => "Failed compaction attempts.",
        "specrepair_persist_injected_write_errors_total" => "Injected write errors (chaos).",
        "specrepair_persist_injected_short_writes_total" => "Injected short writes (chaos).",
        "specrepair_persist_injected_bit_flips_total" => "Injected bit flips (chaos).",
        "specrepair_cluster_enabled" => "Whether cluster mode is enabled, labeled by role.",
        "specrepair_cluster_shard_id" => "This daemon's index into the peer list.",
        "specrepair_cluster_peers" => "Cluster size.",
        "specrepair_remote_lookups_total" => "Remote verdict lookups attempted.",
        "specrepair_remote_hits_total" => "Remote lookups a peer answered with a verdict.",
        "specrepair_remote_misses_total" => "Remote lookups answered unknown.",
        "specrepair_remote_hit_rate" => "Fraction of remote lookups that hit.",
        "specrepair_remote_puts_total" => "Write-through records sent to owning peers.",
        "specrepair_remote_self_owned_total" => "Calls skipped because this node owns the key.",
        "specrepair_remote_transport_errors_total" => "Remote calls that failed in transport.",
        "specrepair_remote_retries_total" => "Remote transport retries.",
        "specrepair_remote_breaker_trips_total" => "Peer-breaker trips.",
        "specrepair_remote_skipped_open_total" => "Remote calls skipped on an open breaker.",
        "specrepair_remote_open_breakers" => "Peer breakers currently open.",
        "specrepair_router_forwarded_total" => "Requests forwarded, by shard.",
        "specrepair_router_retries_total" => "Forward retries, by shard.",
        "specrepair_router_failures_total" => "Forwards that failed after retry, by shard.",
        "specrepair_router_breaker_open" => "Whether the shard's breaker is open, by shard.",
        "specrepair_router_degraded_local_solves_total" => {
            "Requests the router solved itself because the owner was down."
        }
        "specrepair_router_breaker_trips_total" => "Shard-breaker trips at the router.",
        "specrepair_router_skipped_open_total" => "Forwards skipped on an open shard breaker.",
        "specrepair_transport_retries_total" => "LM transport attempts retried.",
        "specrepair_transport_giveups_total" => "LM calls whose retry budget was exhausted.",
        "specrepair_transport_breaker_trips_total" => "LM circuit-breaker trips.",
        "specrepair_transport_breaker_rejections_total" => "LM calls rejected by an open breaker.",
        "specrepair_transport_cancelled_backoffs_total" => {
            "LM backoff waits cut short by cancellation."
        }
        "specrepair_transport_injected_faults_total" => "Injected LM faults, by kind.",
        _ => "",
    }
}

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

/// Renders the snapshot's sample list as Prometheus text exposition,
/// families sorted by name, series sorted by label set.
pub fn render(snapshot: &Snapshot) -> String {
    let mut samples = snapshot.samples();
    sort_samples(&mut samples);
    let mut out = String::new();
    let mut current_family: Option<&str> = None;
    for sample in &samples {
        if current_family != Some(sample.name.as_str()) {
            current_family = Some(sample.name.as_str());
            let help = help_text(&sample.name);
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
    use crate::snapshot::tests::rich_snapshot;

    #[test]
    fn render_parse_round_trips_every_sample_exactly() {
        let snapshot = rich_snapshot();
        let text = render(&snapshot);
        let parsed = parse(&text).expect("own exposition parses");
        let mut expected = snapshot.samples();
        sort_samples(&mut expected);
        assert_eq!(parsed.len(), expected.len());
        for (got, want) in parsed.iter().zip(expected.iter()) {
            assert_eq!(got, want, "series {}", want.id());
        }
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_terminated_by_inf() {
        let text = render(&rich_snapshot());
        // ATR recorded 800µs and 2100µs: bucket le=1024 holds one
        // observation cumulatively, le=4096 both, and +Inf stays at 2.
        for needle in [
            "specrepair_repair_latency_us_bucket{technique=\"ATR\",le=\"1024\"} 1",
            "specrepair_repair_latency_us_bucket{technique=\"ATR\",le=\"4096\"} 2",
            "specrepair_repair_latency_us_bucket{technique=\"ATR\",le=\"+Inf\"} 2",
            "specrepair_repair_latency_us_sum{technique=\"ATR\"} 2900",
            "specrepair_repair_latency_us_count{technique=\"ATR\"} 2",
            "# TYPE specrepair_repair_latency_us histogram",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
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

    #[test]
    fn every_canonical_family_has_help_text() {
        for sample in rich_snapshot().samples() {
            assert!(
                !help_text(&sample.name).is_empty(),
                "no help text for `{}`",
                sample.name
            );
        }
    }
}
