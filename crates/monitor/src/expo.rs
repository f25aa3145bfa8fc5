//! Exposition: Prometheus text format and JSON dumps of series, alerts,
//! and health, plus the merged cluster alert-timeline artifact.
//!
//! Everything here is a pure function from monitor state to a `String`;
//! no I/O, no dependencies. The Prometheus output follows the text
//! exposition format (metric names `[a-zA-Z_:][a-zA-Z0-9_:]*`, dots in
//! series names mapped to underscores, `# HELP`/`# TYPE` headers, label
//! values escaped) and [`lint_prometheus`] machine-checks that shape so
//! a formatting regression fails a unit test rather than a scrape.

use crate::health::{ClusterHealth, HealthState, ReplicaMonitor};
use crate::rules::{AlertState, Transition};
use tn_telemetry::json_string;

/// Quantiles exported for each histogram series.
const EXPORT_QUANTILES: [f64; 3] = [0.5, 0.99, 0.999];

/// Renders one replica's monitor state in the Prometheus text exposition
/// format: cumulative counters (`*_total`), histogram summaries
/// (quantile/sum/count), per-rule alert gauges, and the health state.
pub fn prometheus_text(monitor: &ReplicaMonitor) -> String {
    let mut out = String::new();
    let replica = monitor.replica();
    let tsdb = monitor.tsdb();

    // Counter series, cumulative values.
    for name in tsdb.counter_names() {
        let metric = metric_name(name);
        let value = tsdb.counter_latest(name).unwrap_or(0);
        push_header(&mut out, &format!("{metric}_total"), name, "counter");
        out.push_str(&format!(
            "{metric}_total{{replica=\"{replica}\"}} {value}\n"
        ));
    }
    // Histogram series as summaries over the full retained range.
    for name in tsdb.histogram_names() {
        let metric = metric_name(name);
        push_header(&mut out, &metric, name, "summary");
        if let Some(merged) = tsdb.histogram_window(name, usize::MAX) {
            for q in EXPORT_QUANTILES {
                let value = if merged.count == 0 {
                    f64::NAN
                } else {
                    merged.quantile(q) as f64
                };
                out.push_str(&format!(
                    "{metric}{{replica=\"{replica}\",quantile=\"{q}\"}} {}\n",
                    fmt_value(value)
                ));
            }
            out.push_str(&format!(
                "{metric}_sum{{replica=\"{replica}\"}} {}\n",
                merged.sum
            ));
            out.push_str(&format!(
                "{metric}_count{{replica=\"{replica}\"}} {}\n",
                merged.count
            ));
        }
    }
    // Alert gauges: 1 while firing.
    push_header(&mut out, "tn_alert_firing", "SLO rule alert state", "gauge");
    for rule in monitor.engine().rules() {
        let firing = matches!(monitor.engine().state(&rule.name), Some(AlertState::Firing));
        out.push_str(&format!(
            "tn_alert_firing{{replica=\"{replica}\",rule=\"{}\"}} {}\n",
            escape_label(&rule.name),
            u8::from(firing)
        ));
    }
    // Health as an enum gauge: exactly one state is 1.
    push_header(
        &mut out,
        "tn_replica_health",
        "replica health state (one-hot)",
        "gauge",
    );
    for state in [
        HealthState::Healthy,
        HealthState::Degraded,
        HealthState::Lagging,
        HealthState::Quarantined,
    ] {
        out.push_str(&format!(
            "tn_replica_health{{replica=\"{replica}\",state=\"{}\"}} {}\n",
            state.label(),
            u8::from(monitor.health() == state)
        ));
    }
    out
}

/// Emits `# HELP` / `# TYPE` headers for a metric.
fn push_header(out: &mut String, metric: &str, help: &str, kind: &str) {
    out.push_str(&format!("# HELP {metric} {help}\n"));
    out.push_str(&format!("# TYPE {metric} {kind}\n"));
}

/// Maps a series name to a legal Prometheus metric name: `tn_` prefix,
/// dots and other illegal characters replaced with underscores.
pub(crate) fn metric_name(series: &str) -> String {
    let mut name = String::with_capacity(series.len() + 3);
    name.push_str("tn_");
    for (i, c) in series.chars().enumerate() {
        let legal = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        let legal = legal && !(i == 0 && c.is_ascii_digit());
        name.push(if legal { c } else { '_' });
    }
    name
}

/// Escapes a label value per the exposition format (`\` → `\\`,
/// `"` → `\"`, newline → `\n`).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Formats a sample value: finite numbers plainly, non-finite values as
/// the exposition-format specials `NaN` / `+Inf` / `-Inf`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// Lints Prometheus text exposition output: every line must be a
/// well-formed `# HELP`/`# TYPE` comment or a `name{labels} value`
/// sample with a legal metric name, balanced quoted labels, and a
/// parseable value. Returns the first offending line on failure.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let ok = rest
                .strip_prefix("HELP ")
                .or_else(|| rest.strip_prefix("TYPE "))
                .map(|body| {
                    let mut parts = body.splitn(2, ' ');
                    let name = parts.next().unwrap_or("");
                    legal_metric_name(name) && parts.next().is_some_and(|s| !s.is_empty())
                })
                .unwrap_or(false);
            if !ok {
                return Err(format!("malformed comment line: {line:?}"));
            }
            continue;
        }
        lint_sample_line(line).map_err(|e| format!("{e}: {line:?}"))?;
    }
    Ok(())
}

/// Validates one sample line `name{labels} value`.
fn lint_sample_line(line: &str) -> Result<(), &'static str> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}').ok_or("unbalanced label braces")?;
            if close < brace {
                return Err("unbalanced label braces");
            }
            lint_labels(&line[brace + 1..close])?;
            (&line[..brace], &line[close + 1..])
        }
        None => {
            let space = line.find(' ').ok_or("missing value")?;
            (&line[..space], &line[space..])
        }
    };
    if !legal_metric_name(name_part) {
        return Err("illegal metric name");
    }
    let value = rest.trim();
    let ok = matches!(value, "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok();
    if !ok {
        return Err("unparseable sample value");
    }
    Ok(())
}

/// Validates a comma-separated `key="value"` label body.
fn lint_labels(body: &str) -> Result<(), &'static str> {
    if body.is_empty() {
        return Ok(());
    }
    for pair in split_labels(body) {
        let eq = pair.find('=').ok_or("label missing '='")?;
        let key = &pair[..eq];
        let value = &pair[eq + 1..];
        if key.is_empty() || !legal_metric_name(key) {
            return Err("illegal label name");
        }
        if value.len() < 2 || !value.starts_with('"') || !value.ends_with('"') {
            return Err("label value not quoted");
        }
    }
    Ok(())
}

/// Splits a label body on commas outside quoted values.
fn split_labels(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    out.push(&body[start..]);
    out
}

/// True when `name` is a legal Prometheus metric/label name.
fn legal_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => true,
            '0'..='9' => i > 0,
            _ => false,
        })
}

/// JSON dump of one replica's monitor state: latest cumulative counters,
/// histogram quantiles over the retained range, firing rules, the alert
/// timeline, and health transitions.
pub fn json_dump(monitor: &ReplicaMonitor) -> String {
    let tsdb = monitor.tsdb();
    let mut out = String::from("{");
    out.push_str(&format!("\"replica\":{}", monitor.replica()));
    out.push_str(&format!(",\"tick\":{}", tsdb.last_tick()));
    out.push_str(&format!(",\"samples\":{}", tsdb.samples_total()));
    out.push_str(&format!(",\"health\":\"{}\"", monitor.health().label()));
    out.push_str(",\"counters\":{");
    let mut first = true;
    for name in tsdb.counter_names() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{}:{}",
            json_string(name),
            tsdb.counter_latest(name).unwrap_or(0)
        ));
    }
    out.push_str("},\"histograms\":{");
    let mut first = true;
    for name in tsdb.histogram_names() {
        let merged = match tsdb.histogram_window(name, usize::MAX) {
            Some(m) => m,
            None => continue,
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{}:{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
            json_string(name),
            merged.count,
            merged.sum,
            json_quantile(&merged, 0.5),
            json_quantile(&merged, 0.99),
            json_quantile(&merged, 0.999),
        ));
    }
    out.push_str("},\"firing\":[");
    let mut first = true;
    for (rule, value) in monitor.engine().firing() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"rule\":{},\"value\":{}}}",
            json_string(&rule.name),
            json_f64(value)
        ));
    }
    out.push_str("],\"alerts\":[");
    push_timeline(&mut out, monitor);
    out.push_str("],\"health_transitions\":[");
    let mut first = true;
    for &(tick, state) in monitor.transitions() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"tick\":{tick},\"state\":\"{}\"}}",
            state.label()
        ));
    }
    out.push_str("]}");
    out
}

/// Appends one replica's alert timeline entries (no brackets).
fn push_timeline(out: &mut String, monitor: &ReplicaMonitor) {
    let mut first = true;
    for alert in monitor.engine().timeline() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"replica\":{},\"tick\":{},\"rule\":{},\"transition\":\"{}\",\"value\":{}}}",
            monitor.replica(),
            alert.tick,
            json_string(&alert.rule),
            match alert.transition {
                Transition::Firing => "firing",
                Transition::Resolved => "resolved",
            },
            json_f64(alert.value)
        ));
    }
}

/// The merged cluster alert-timeline artifact: every replica's alert
/// transitions interleaved in tick order, plus the rollup verdict —
/// the machine-checkable record of what the health plane saw.
pub fn timeline_json(monitors: &[&ReplicaMonitor], health: &ClusterHealth) -> String {
    let mut events: Vec<(u64, usize, String)> = Vec::new();
    for monitor in monitors {
        for alert in monitor.engine().timeline() {
            let entry = format!(
                "{{\"replica\":{},\"tick\":{},\"rule\":{},\"severity\":\"{:?}\",\"transition\":\"{}\",\"value\":{}}}",
                monitor.replica(),
                alert.tick,
                json_string(&alert.rule),
                alert.severity,
                match alert.transition {
                    Transition::Firing => "firing",
                    Transition::Resolved => "resolved",
                },
                json_f64(alert.value)
            );
            events.push((alert.tick, monitor.replica(), entry));
        }
    }
    events.sort_by_key(|&(tick, replica, _)| (tick, replica));
    let mut out = String::from("{\"verdict\":");
    out.push_str(&format!("\"{}\"", health.verdict.label()));
    out.push_str(",\"replicas\":[");
    for (i, state) in health.replicas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", state.label()));
    }
    out.push_str("],\"events\":[");
    for (i, (_, _, entry)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(entry);
    }
    out.push_str("]}");
    out
}

/// A quantile rendered for JSON (`null` when the histogram is empty).
fn json_quantile(merged: &tn_telemetry::HistogramSnapshot, q: f64) -> String {
    if merged.count == 0 {
        "null".into()
    } else {
        format!("{}", merged.quantile(q))
    }
}

/// An f64 rendered as valid JSON (`null` for non-finite values).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{MonitorConfig, ReplicaMonitor};
    use tn_telemetry::Registry;

    fn exercised_monitor() -> ReplicaMonitor {
        let mut monitor = ReplicaMonitor::new(0, &MonitorConfig::default());
        let registry = Registry::new();
        let sink = registry.sink();
        sink.add("chain.blocks_imported", 3);
        sink.observe("pipeline.commit_ns", 1_500_000);
        sink.incr("node.batch.undecodable"); // fires a built-in rule
        monitor.sample(1, registry.snapshot());
        monitor
    }

    #[test]
    fn exposition_passes_the_lint() {
        let monitor = exercised_monitor();
        let text = prometheus_text(&monitor);
        lint_prometheus(&text).unwrap();
        assert!(text.contains("tn_chain_blocks_imported_total{replica=\"0\"} 3"));
        assert!(text.contains("tn_pipeline_commit_ns_count{replica=\"0\"} 1"));
        assert!(text.contains("tn_alert_firing{replica=\"0\",rule=\"undecodable-payloads\"} 1"));
        assert!(text.contains("tn_replica_health{replica=\"0\",state=\"degraded\"} 1"));
    }

    #[test]
    fn lint_rejects_malformed_lines() {
        assert!(lint_prometheus("1bad_name 3\n").is_err());
        assert!(lint_prometheus("name{unclosed=\"x\" 3\n").is_err());
        assert!(lint_prometheus("name{a=\"x\"} notanumber\n").is_err());
        assert!(lint_prometheus("# HELP only_name\n").is_err());
        assert!(lint_prometheus("ok{a=\"x,y\",b=\"z\"} 1.5\n").is_ok());
        assert!(lint_prometheus("ok NaN\n").is_ok());
    }

    #[test]
    fn metric_names_are_legalized() {
        assert_eq!(metric_name("pipeline.commit_ns"), "tn_pipeline_commit_ns");
        assert_eq!(metric_name("a-b.c"), "tn_a_b_c");
        assert!(legal_metric_name(&metric_name("9weird")));
    }

    #[test]
    fn json_dump_is_parseable_shape() {
        let monitor = exercised_monitor();
        let dump = json_dump(&monitor);
        // Cheap structural checks (no JSON parser dependency here):
        assert!(dump.starts_with('{') && dump.ends_with('}'));
        assert!(dump.contains("\"health\":\"degraded\""));
        assert!(dump.contains("\"chain.blocks_imported\":3"));
        assert!(dump.contains("\"rule\":\"undecodable-payloads\""));
        assert_eq!(
            dump.matches('{').count(),
            dump.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn timeline_merges_replicas_in_tick_order() {
        let config = MonitorConfig::default();
        let mut monitors = [
            ReplicaMonitor::new(0, &config),
            ReplicaMonitor::new(1, &config),
        ];
        let ra = Registry::new();
        let rb = Registry::new();
        ra.sink().incr("node.batch.undecodable");
        monitors[0].sample(5, ra.snapshot());
        rb.sink().incr("node.fault.recoveries");
        monitors[1].sample(2, rb.snapshot());
        let digests = vec![vec![1u8; 4], vec![1u8; 4]];
        let health = crate::health::assess_cluster(
            6,
            &mut monitors.iter_mut().collect::<Vec<_>>(),
            &[3, 3],
            &digests,
        );
        let artifact = timeline_json(&monitors.iter().collect::<Vec<_>>(), &health);
        // Replica 1's tick-2 event sorts before replica 0's tick-5 event.
        let restart = artifact.find("replica-restarted").unwrap();
        let undecodable = artifact.find("undecodable-payloads").unwrap();
        assert!(restart < undecodable, "{artifact}");
        assert!(artifact.contains("\"verdict\":\"degraded\""));
        assert_eq!(artifact.matches('{').count(), artifact.matches('}').count());
    }
}
