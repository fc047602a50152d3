//! Prometheus text-format exporter (exposition format v0.0.4).
//!
//! Renders a [`MetricsSnapshot`] to the plain-text form a Prometheus
//! scrape expects: `# HELP` / `# TYPE` headers, labelled samples, and
//! histograms in cumulative `_bucket{le="..."}` / `_sum` / `_count`
//! form. Every sample is written straight into the one output `String`.

use crate::snapshot::{Histogram, Metric, MetricsSnapshot};
use std::fmt::Write as _;

fn write_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn write_value(out: &mut String, v: f64) {
    if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else if v == v.trunc() && v.abs() < 1e15 {
        write!(out, "{}", v as i64).unwrap();
    } else {
        write!(out, "{v}").unwrap();
    }
}

/// Write a sample's series up to its value: `name` and `suffix`, then
/// `{k="v",...}` with an `le` pair after the others when given (no
/// braces when there is no pair), then the separating space.
fn write_series(
    out: &mut String,
    name: &str,
    suffix: &str,
    pairs: &[(String, String)],
    le: Option<f64>,
) {
    write!(out, "{name}{suffix}").unwrap();
    if !pairs.is_empty() || le.is_some() {
        let mut sep = '{';
        for (k, v) in pairs {
            write!(out, "{sep}{k}=\"").unwrap();
            write_label_value(out, v);
            out.push('"');
            sep = ',';
        }
        if let Some(le) = le {
            write!(out, "{sep}le=\"").unwrap();
            write_value(out, le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
}

fn render_metric(out: &mut String, m: &Metric) {
    writeln!(out, "# HELP {} {}", m.name, m.help).unwrap();
    writeln!(out, "# TYPE {} {}", m.name, m.kind.as_str()).unwrap();
    for s in &m.samples {
        write_series(out, &m.name, "", &s.labels, None);
        write_value(out, s.value);
        out.push('\n');
    }
}

fn render_histogram(out: &mut String, h: &Histogram) {
    writeln!(out, "# HELP {} {}", h.name, h.help).unwrap();
    writeln!(out, "# TYPE {} histogram", h.name).unwrap();
    for (i, c) in h.cumulative().into_iter().enumerate() {
        let le = h.upper_bounds.get(i).copied().unwrap_or(f64::INFINITY);
        write_series(out, &h.name, "_bucket", &h.labels, Some(le));
        writeln!(out, "{c}").unwrap();
    }
    write_series(out, &h.name, "_sum", &h.labels, None);
    write_value(out, h.sum);
    out.push('\n');
    write_series(out, &h.name, "_count", &h.labels, None);
    writeln!(out, "{}", h.count()).unwrap();
}

/// Render the snapshot as Prometheus exposition text.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for m in &snapshot.metrics {
        render_metric(&mut out, m);
    }
    for h in &snapshot.histograms {
        render_histogram(&mut out, h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{MetricKind, Sample};

    fn sample_snapshot() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.push_metric(
            "ttlg_requests_total",
            "Completed requests by schema.",
            MetricKind::Counter,
            vec![
                Sample::labelled("schema", "Copy", 3.0),
                Sample::labelled("schema", "Naive", 1.0),
            ],
        );
        s.push_metric(
            "ttlg_latency_p99_us",
            "p99 latency.",
            MetricKind::Gauge,
            vec![Sample::plain(12.5)],
        );
        s.push_histogram(
            "ttlg_plan_latency_us",
            "Plan latency histogram.",
            Vec::new(),
            vec![2.0, 4.0],
            vec![5, 2, 1],
            30.0,
        );
        s
    }

    #[test]
    fn renders_help_type_and_samples() {
        let text = render(&sample_snapshot());
        assert!(text.contains("# HELP ttlg_requests_total Completed requests by schema."));
        assert!(text.contains("# TYPE ttlg_requests_total counter"));
        assert!(text.contains("ttlg_requests_total{schema=\"Copy\"} 3"));
        assert!(text.contains("# TYPE ttlg_latency_p99_us gauge"));
        assert!(text.contains("ttlg_latency_p99_us 12.5"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_in_inf() {
        let text = render(&sample_snapshot());
        assert!(text.contains("ttlg_plan_latency_us_bucket{le=\"2\"} 5"));
        assert!(text.contains("ttlg_plan_latency_us_bucket{le=\"4\"} 7"));
        assert!(text.contains("ttlg_plan_latency_us_bucket{le=\"+Inf\"} 8"));
        assert!(text.contains("ttlg_plan_latency_us_sum 30"));
        assert!(text.contains("ttlg_plan_latency_us_count 8"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut s = MetricsSnapshot::new();
        s.push_metric(
            "x_total",
            "h",
            MetricKind::Counter,
            vec![Sample::labelled("k", "a\"b\\c\nd", 1.0)],
        );
        let text = render(&s);
        assert!(text.contains(r#"x_total{k="a\"b\\c\nd"} 1"#));
    }

    #[test]
    fn every_line_is_well_formed() {
        // Minimal line-by-line parse: comments start with '# HELP' or
        // '# TYPE'; samples are `name[{labels}] value` with a numeric
        // value.
        let text = render(&sample_snapshot());
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "bad value in line: {line}"
            );
        }
    }
}
