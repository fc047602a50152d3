//! Renderer-neutral metrics snapshot.
//!
//! Producers (the runtime service) assemble a [`MetricsSnapshot`] from
//! their atomics; the exporter ([`crate::prom`]) and the metrics history
//! ([`crate::tsdb`]) read it without knowing anything about the producer.
//! Histograms carry raw per-bucket counts with explicit upper bounds; the
//! exporter derives the cumulative form Prometheus wants.

/// Kind of a scalar metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Point-in-time value.
    Gauge,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One labelled sample of a scalar metric.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Label pairs, e.g. `[("schema", "Copy")]`. May be empty.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

impl Sample {
    /// An unlabelled sample.
    pub fn plain(value: f64) -> Self {
        Sample {
            labels: Vec::new(),
            value,
        }
    }

    /// A sample with one label pair.
    pub fn labelled(key: &str, value_label: &str, value: f64) -> Self {
        Sample {
            labels: vec![(key.to_string(), value_label.to_string())],
            value,
        }
    }
}

/// A scalar metric family (one name, many labelled samples).
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `ttlg_requests_total`.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The samples.
    pub samples: Vec<Sample>,
}

/// A histogram family with explicit bucket upper bounds.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Metric name, e.g. `ttlg_plan_latency_us`.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Labels shared by every bucket of this histogram.
    pub labels: Vec<(String, String)>,
    /// Upper bound of each bucket (same unit as the samples). The final
    /// overflow bucket is implicit (`+Inf`).
    pub upper_bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `upper_bounds.len() + 1`
    /// entries, the last being the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values (same unit as the bounds).
    pub sum: f64,
}

impl Histogram {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Cumulative counts (one per upper bound, plus `+Inf`).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut cum = 0u64;
        self.counts
            .iter()
            .map(|&c| {
                cum += c;
                cum
            })
            .collect()
    }
}

/// Everything one scrape/export reports.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Scalar metric families.
    pub metrics: Vec<Metric>,
    /// Histogram families.
    pub histograms: Vec<Histogram>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a scalar metric family.
    pub fn push_metric(&mut self, name: &str, help: &str, kind: MetricKind, samples: Vec<Sample>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples,
        });
    }

    /// Add a histogram family.
    #[allow(clippy::too_many_arguments)]
    pub fn push_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: Vec<(String, String)>,
        upper_bounds: Vec<f64>,
        counts: Vec<u64>,
        sum: f64,
    ) {
        debug_assert_eq!(counts.len(), upper_bounds.len() + 1);
        self.histograms.push(Histogram {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            upper_bounds,
            counts,
            sum,
        });
    }

    /// Whether the snapshot carries any samples at all.
    pub fn is_empty(&self) -> bool {
        self.metrics.iter().all(|m| m.samples.is_empty()) && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_cumulates() {
        let h = Histogram {
            name: "h".into(),
            help: String::new(),
            labels: Vec::new(),
            upper_bounds: vec![1.0, 2.0],
            counts: vec![3, 4, 5],
            sum: 10.0,
        };
        assert_eq!(h.count(), 12);
        assert_eq!(h.cumulative(), vec![3, 7, 12]);
    }

    #[test]
    fn snapshot_emptiness() {
        let mut s = MetricsSnapshot::new();
        assert!(s.is_empty());
        s.push_metric(
            "x_total",
            "help",
            MetricKind::Counter,
            vec![Sample::plain(1.0)],
        );
        assert!(!s.is_empty());
    }
}
