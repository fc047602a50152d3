//! Built-in service metrics: per-schema request counters, bytes-moved
//! totals, fixed-bucket latency histograms for the plan and execute
//! phases, and a per-schema prediction-accuracy tracker. Everything is
//! lock-free (plain atomics), so recording from the worker pool never
//! serializes the hot path.
//!
//! The whole state is captured as a renderer-neutral
//! [`ttlg_obs::MetricsSnapshot`] ([`Metrics::snapshot`]) for the
//! Prometheus-text exporter and the metrics history.

use std::sync::atomic::{AtomicU64, Ordering};
use ttlg::{Backend, Schema};
use ttlg_obs::{
    log2_bucket, log2_bucket_quantile_us, MetricKind, MetricsSnapshot, PredictionTracker, Sample,
    RATIO_BUCKETS,
};

/// All schemas, in export order.
const SCHEMAS: [Schema; 6] = [
    Schema::Copy,
    Schema::FviMatchLarge,
    Schema::FviMatchSmall,
    Schema::OrthogonalDistinct,
    Schema::OrthogonalArbitrary,
    Schema::Naive,
];

fn schema_index(s: Schema) -> usize {
    match s {
        Schema::Copy => 0,
        Schema::FviMatchLarge => 1,
        Schema::FviMatchSmall => 2,
        Schema::OrthogonalDistinct => 3,
        Schema::OrthogonalArbitrary => 4,
        Schema::Naive => 5,
    }
}

/// The stage a request failed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestPhase {
    /// Plan fetch (cache hit or build).
    Plan,
    /// Kernel execution.
    Execute,
}

/// Number of histogram buckets. Bucket `i` holds samples in
/// `[2^i, 2^{i+1})` microseconds, except bucket 0 (`< 2 us`) and the
/// last bucket, which absorbs everything larger.
pub const HIST_BUCKETS: usize = 16;

/// A fixed-bucket log2 latency histogram over microseconds.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample, in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[log2_bucket(ns, HIST_BUCKETS)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, in bucket order.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Aggregate service metrics. One instance lives in the service; all
/// counters are atomics so workers record concurrently without locks.
#[derive(Debug)]
pub struct Metrics {
    requests_by_schema: [AtomicU64; 6],
    bytes_by_schema: [AtomicU64; 6],
    /// Completed requests by execution backend (index = `Backend::index`).
    requests_by_backend: [AtomicU64; 2],
    /// Execute-phase latency split by backend — GPU-sim nanoseconds are
    /// synthetic and CPU nanoseconds are wall clock, so the combined
    /// `exec_latency` histogram alone would blur two different scales.
    backend_exec_latency: [LatencyHistogram; 2],
    /// Wall-clock latency of the plan-fetch phase (cache hit or build).
    pub plan_latency: LatencyHistogram,
    /// Wall-clock latency of the execute phase.
    pub exec_latency: LatencyHistogram,
    failures: AtomicU64,
    prediction: PredictionTracker,
    /// Foreground predicted/measured pairs streamed to the measurement
    /// sink (autotuner-streamed points are counted separately in
    /// [`crate::autotune::AutotuneStats`]).
    residual_points: AtomicU64,
    /// Requests that shared another identical in-flight request's
    /// execution (single-flight coalescing) instead of running their
    /// own kernel. Counted in `requests_by_schema` too: a coalesced
    /// request is still a served request.
    coalesced_requests: AtomicU64,
    /// Pipeline stages, tuning passes and history scrapes that panicked;
    /// the panic was caught and turned into its requests' error, failed
    /// its key's tuning, or skipped the scrape.
    panics: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Empty metrics.
    pub fn new() -> Self {
        Metrics {
            requests_by_schema: Default::default(),
            bytes_by_schema: Default::default(),
            requests_by_backend: Default::default(),
            backend_exec_latency: Default::default(),
            plan_latency: LatencyHistogram::new(),
            exec_latency: LatencyHistogram::new(),
            failures: AtomicU64::new(0),
            prediction: PredictionTracker::new(SCHEMAS.iter().map(|s| s.to_string())),
            residual_points: AtomicU64::new(0),
            coalesced_requests: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }

    /// Record one completed request: its schema and the paper's
    /// bytes-moved metric (`2 * volume * elem_bytes`).
    pub fn record_request(&self, schema: Schema, bytes_moved: u64) {
        let i = schema_index(schema);
        self.requests_by_schema[i].fetch_add(1, Ordering::Relaxed);
        self.bytes_by_schema[i].fetch_add(bytes_moved, Ordering::Relaxed);
    }

    /// Record one completed request's execution backend and its
    /// execute-phase latency on that backend's histogram.
    pub fn record_backend(&self, backend: Backend, exec_ns: u64) {
        let i = backend.index();
        self.requests_by_backend[i].fetch_add(1, Ordering::Relaxed);
        self.backend_exec_latency[i].record_ns(exec_ns);
    }

    /// Completed requests dispatched to one backend.
    pub fn requests_for_backend(&self, backend: Backend) -> u64 {
        self.requests_by_backend[backend.index()].load(Ordering::Relaxed)
    }

    /// The execute-latency histogram of one backend.
    pub fn backend_exec_latency(&self, backend: Backend) -> &LatencyHistogram {
        &self.backend_exec_latency[backend.index()]
    }

    /// Record a failed request. When it failed in a stage of its own,
    /// `stage` names the stage and its wall-clock time, which still
    /// counts toward the stage's latency histogram — failures are not
    /// free, and dropping them would bias the latency figures optimistic.
    /// A request that shared a failed run, or whose run panicked, ran no
    /// stage of its own (`None`).
    pub fn record_failure(&self, stage: Option<(RequestPhase, u64)>) {
        match stage {
            Some((RequestPhase::Plan, ns)) => self.plan_latency.record_ns(ns),
            Some((RequestPhase::Execute, ns)) => self.exec_latency.record_ns(ns),
            None => {}
        }
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one model-predicted vs simulator-measured kernel time pair.
    pub fn record_prediction(&self, schema: Schema, predicted_ns: f64, measured_ns: f64) {
        self.prediction
            .record(schema_index(schema), predicted_ns, measured_ns);
    }

    /// The per-schema prediction-accuracy tracker.
    pub fn prediction(&self) -> &PredictionTracker {
        &self.prediction
    }

    /// Count one foreground residual (predicted/measured pair) streamed
    /// to the measurement sink for online model refinement.
    pub fn record_residual_point(&self) {
        self.residual_points.fetch_add(1, Ordering::Relaxed);
    }

    /// Foreground residual points streamed to the measurement sink.
    pub fn residual_points(&self) -> u64 {
        self.residual_points.load(Ordering::Relaxed)
    }

    /// Count one request that coalesced onto another identical
    /// in-flight request's execution.
    pub fn record_coalesced(&self) {
        self.coalesced_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests served by sharing an identical in-flight execution.
    pub fn coalesced_requests(&self) -> u64 {
        self.coalesced_requests.load(Ordering::Relaxed)
    }

    /// Count one caught panic.
    pub fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Caught panics.
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Total completed requests across all schemas.
    pub fn total_requests(&self) -> u64 {
        self.requests_by_schema
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Total bytes moved across all schemas.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by_schema
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Failed requests.
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Requests recorded for one schema.
    pub fn requests_for(&self, schema: Schema) -> u64 {
        self.requests_by_schema[schema_index(schema)].load(Ordering::Relaxed)
    }

    /// Capture everything as a renderer-neutral snapshot for the
    /// Prometheus-text exporter and the metrics history.
    pub fn snapshot(&self, cache: &ttlg::CacheStats) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let per_schema = |arr: &[AtomicU64; 6]| -> Vec<Sample> {
            SCHEMAS
                .iter()
                .map(|&sc| {
                    Sample::labelled(
                        "schema",
                        &sc.to_string(),
                        arr[schema_index(sc)].load(Ordering::Relaxed) as f64,
                    )
                })
                .collect()
        };
        snap.push_metric(
            "ttlg_requests_total",
            "Completed requests by schema.",
            MetricKind::Counter,
            per_schema(&self.requests_by_schema),
        );
        snap.push_metric(
            "ttlg_bytes_moved_total",
            "Bytes moved (2 * volume * elem_bytes) by schema.",
            MetricKind::Counter,
            per_schema(&self.bytes_by_schema),
        );
        snap.push_metric(
            "ttlg_backend_requests_total",
            "Completed requests by execution backend.",
            MetricKind::Counter,
            Backend::ALL
                .iter()
                .map(|b| {
                    Sample::labelled(
                        "backend",
                        b.label(),
                        self.requests_by_backend[b.index()].load(Ordering::Relaxed) as f64,
                    )
                })
                .collect(),
        );
        for b in Backend::ALL {
            let hist = &self.backend_exec_latency[b.index()];
            let upper_bounds: Vec<f64> = (1..HIST_BUCKETS).map(|i| (1u64 << i) as f64).collect();
            snap.push_histogram(
                "ttlg_backend_exec_latency_us",
                "Execute-phase latency by backend, microseconds (GPU-sim = modeled device time, cpu = wall clock).",
                vec![("backend".to_string(), b.label().to_string())],
                upper_bounds,
                hist.bucket_counts(),
                hist.total_ns() as f64 / 1e3,
            );
        }
        snap.push_metric(
            "ttlg_failures_total",
            "Failed requests (plan or execute errors).",
            MetricKind::Counter,
            vec![Sample::plain(self.failures() as f64)],
        );
        snap.push_metric(
            "ttlg_panics_total",
            "Pipeline stages, tuning passes and history scrapes that panicked; each \
             panic was caught and failed its requests, failed its key's tuning or \
             skipped its scrape.",
            MetricKind::Counter,
            vec![Sample::plain(self.panics() as f64)],
        );
        let coalesced = self.coalesced_requests();
        let total = self.total_requests();
        snap.push_metric(
            "ttlg_coalesced_requests_total",
            "Requests that shared an identical in-flight request's execution.",
            MetricKind::Counter,
            vec![Sample::plain(coalesced as f64)],
        );
        snap.push_metric(
            "ttlg_coalesced_ratio",
            "Fraction of served requests that coalesced instead of executing.",
            MetricKind::Gauge,
            vec![Sample::plain(if total == 0 {
                0.0
            } else {
                coalesced as f64 / total as f64
            })],
        );
        snap.push_metric(
            "ttlg_plan_cache_hits_total",
            "Plan-cache hits.",
            MetricKind::Counter,
            vec![Sample::plain(cache.hits as f64)],
        );
        snap.push_metric(
            "ttlg_plan_cache_misses_total",
            "Plan-cache misses (plans built).",
            MetricKind::Counter,
            vec![Sample::plain(cache.misses as f64)],
        );
        snap.push_metric(
            "ttlg_plan_cache_evictions_total",
            "Plans evicted from the cache.",
            MetricKind::Counter,
            vec![Sample::plain(cache.evictions as f64)],
        );

        let phases: [(&LatencyHistogram, &str, &str); 2] = [
            (
                &self.plan_latency,
                "ttlg_plan_latency_us",
                "Plan-fetch latency (cache hit or build), microseconds.",
            ),
            (
                &self.exec_latency,
                "ttlg_exec_latency_us",
                "Execute-phase latency, microseconds.",
            ),
        ];
        for (hist, name, help) in phases {
            let counts = hist.bucket_counts();
            snap.push_metric(
                &format!("{name}_quantile"),
                &format!("Estimated latency quantiles for {name}, microseconds."),
                MetricKind::Gauge,
                vec![
                    Sample::labelled("quantile", "0.5", log2_bucket_quantile_us(&counts, 0.5)),
                    Sample::labelled("quantile", "0.95", log2_bucket_quantile_us(&counts, 0.95)),
                    Sample::labelled("quantile", "0.99", log2_bucket_quantile_us(&counts, 0.99)),
                ],
            );
            let upper_bounds: Vec<f64> = (1..HIST_BUCKETS).map(|i| (1u64 << i) as f64).collect();
            snap.push_histogram(
                name,
                help,
                Vec::new(),
                upper_bounds,
                counts,
                hist.total_ns() as f64 / 1e3,
            );
        }

        let mut sample_counts = Vec::new();
        let mut mean_residual = Vec::new();
        let mut mean_abs_residual = Vec::new();
        let mut geo_mean_error = Vec::new();
        for (i, label) in self.prediction.labels().iter().enumerate() {
            let st = self.prediction.stats(i);
            sample_counts.push(Sample::labelled("schema", label, st.count as f64));
            if st.count == 0 {
                continue;
            }
            mean_residual.push(Sample::labelled("schema", label, st.mean_residual_ns));
            mean_abs_residual.push(Sample::labelled("schema", label, st.mean_abs_residual_ns));
            geo_mean_error.push(Sample::labelled("schema", label, st.geo_mean_error));
            snap.push_histogram(
                "ttlg_prediction_ratio",
                "Predicted/measured kernel-time ratio.",
                vec![("schema".to_string(), label.clone())],
                RATIO_BUCKETS.to_vec(),
                self.prediction.ratio_counts(i),
                self.prediction.ratio_sum(i),
            );
        }
        snap.push_metric(
            "ttlg_prediction_samples_total",
            "Prediction-residual samples by schema.",
            MetricKind::Counter,
            sample_counts,
        );
        snap.push_metric(
            "ttlg_residual_points_total",
            "Foreground predicted/measured pairs streamed to the measurement sink.",
            MetricKind::Counter,
            vec![Sample::plain(self.residual_points() as f64)],
        );
        snap.push_metric(
            "ttlg_prediction_mean_residual_ns",
            "Mean signed residual predicted - measured, ns (positive = over-prediction).",
            MetricKind::Gauge,
            mean_residual,
        );
        snap.push_metric(
            "ttlg_prediction_mean_abs_residual_ns",
            "Mean absolute prediction residual, ns.",
            MetricKind::Gauge,
            mean_abs_residual,
        );
        snap.push_metric(
            "ttlg_prediction_geo_mean_error",
            "Geometric mean of max(p/m, m/p) — the paper's Table II metric; 1.0 = perfect.",
            MetricKind::Gauge,
            geo_mean_error,
        );
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn histogram_buckets_cover_the_line() {
        let h = LatencyHistogram::new();
        h.record_ns(0);
        h.record_ns(1_999); // < 2 us -> bucket 0
        h.record_ns(2_500); // [2, 4) us -> bucket 1
        h.record_ns(1_000_000); // 1000 us -> bucket 9
        h.record_ns(u64::MAX / 2); // overflow bucket
        assert_eq!(h.count(), 5);
        let counts = h.bucket_counts();
        assert_eq!(counts.len(), HIST_BUCKETS);
        assert_eq!(counts[0], 2, "[0, 2) us");
        assert_eq!(counts[1], 1, "[2, 4) us");
        assert_eq!(counts[9], 1, "[512, 1024) us");
        assert_eq!(counts[HIST_BUCKETS - 1], 1, "overflow");
        assert_eq!(counts.iter().sum::<u64>(), 5, "nothing else");
    }

    #[test]
    fn bucket_boundaries_are_half_open() {
        // Bucket i must hold exactly [2^i, 2^{i+1}) us.
        assert_eq!(log2_bucket(999, HIST_BUCKETS), 0); // 0 us
        assert_eq!(log2_bucket(1_000, HIST_BUCKETS), 0); // 1 us
        assert_eq!(log2_bucket(2_000, HIST_BUCKETS), 1); // 2 us
        assert_eq!(log2_bucket(3_999, HIST_BUCKETS), 1); // 3 us
        assert_eq!(log2_bucket(4_000, HIST_BUCKETS), 2); // 4 us
        assert_eq!(log2_bucket(1_024_000, HIST_BUCKETS), 10); // 1024 us
        assert_eq!(log2_bucket(u64::MAX, HIST_BUCKETS), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_come_from_the_right_buckets() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record_ns(3_000); // [2, 4) us
        }
        for _ in 0..10 {
            h.record_ns(1_500_000); // [1024, 2048) us
        }
        let p50 = log2_bucket_quantile_us(&h.bucket_counts(), 0.5);
        let p99 = log2_bucket_quantile_us(&h.bucket_counts(), 0.99);
        assert!((2.0..4.0).contains(&p50), "p50 {p50}");
        assert!((1024.0..2048.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn per_schema_counters_accumulate() {
        let m = Metrics::new();
        m.record_request(Schema::Copy, 100);
        m.record_request(Schema::Copy, 100);
        m.record_request(Schema::Naive, 50);
        assert_eq!(m.total_requests(), 3);
        assert_eq!(m.total_bytes(), 250);
        assert_eq!(m.requests_for(Schema::Copy), 2);
        let snap = m.snapshot(&ttlg::CacheStats::default());
        let copy = |name: &str| {
            snap.metrics
                .iter()
                .find(|x| x.name == name)
                .and_then(|x| {
                    x.samples
                        .iter()
                        .find(|s| s.labels == [("schema".to_string(), "Copy".to_string())])
                })
                .map(|s| s.value)
        };
        assert_eq!(copy("ttlg_requests_total"), Some(2.0));
        assert_eq!(copy("ttlg_bytes_moved_total"), Some(200.0));
    }

    #[test]
    fn failures_still_record_latency() {
        let m = Metrics::new();
        m.record_failure(Some((RequestPhase::Plan, 3_000)));
        m.record_failure(Some((RequestPhase::Execute, 5_000)));
        m.record_failure(None);
        assert_eq!(m.failures(), 3);
        assert_eq!(m.plan_latency.count(), 1);
        assert_eq!(m.exec_latency.count(), 1);
    }

    #[test]
    fn render_includes_quantiles_and_predictions() {
        let m = Metrics::new();
        m.record_request(Schema::Naive, 64);
        m.plan_latency.record_ns(10_000);
        m.exec_latency.record_ns(20_000);
        m.record_prediction(Schema::Naive, 1_000.0, 900.0);
        let snap = m.snapshot(&ttlg::CacheStats::default());
        let samples = |name: &str| {
            snap.metrics
                .iter()
                .find(|x| x.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .samples
                .clone()
        };
        // One sample each in [8, 16) and [16, 32) us; the estimate
        // interpolates within the bucket, up to its upper bound.
        for (name, lo, hi) in [
            ("ttlg_plan_latency_us_quantile", 8.0, 16.0),
            ("ttlg_exec_latency_us_quantile", 16.0, 32.0),
        ] {
            let quantiles = samples(name);
            assert_eq!(quantiles.len(), 3, "p50, p95, p99");
            for q in &quantiles {
                assert!(q.value > lo && q.value <= hi, "{name} {q:?}");
            }
        }
        let geo = samples("ttlg_prediction_geo_mean_error");
        assert_eq!(geo.len(), 1);
        assert!((geo[0].value - 1_000.0 / 900.0).abs() < 1e-3, "{geo:?}");
    }

    #[test]
    fn snapshot_carries_counters_quantiles_and_residuals() {
        let m = Metrics::new();
        m.record_request(Schema::OrthogonalDistinct, 4096);
        m.plan_latency.record_ns(50_000);
        m.exec_latency.record_ns(70_000);
        m.record_prediction(Schema::OrthogonalDistinct, 2_000.0, 1_800.0);
        let cache = ttlg::CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        let snap = m.snapshot(&cache);
        assert!(!snap.is_empty());
        let by_name = |n: &str| {
            snap.metrics
                .iter()
                .find(|m| m.name == n)
                .unwrap_or_else(|| panic!("missing metric {n}"))
        };
        let req = by_name("ttlg_requests_total");
        assert_eq!(req.samples.len(), 6, "one sample per schema");
        let od = req
            .samples
            .iter()
            .find(|s| s.labels.iter().any(|(_, v)| v == "Orthogonal-Distinct"))
            .unwrap();
        assert_eq!(od.value, 1.0);
        assert_eq!(by_name("ttlg_plan_cache_hits_total").samples[0].value, 3.0);
        assert_eq!(by_name("ttlg_plan_latency_us_quantile").samples.len(), 3);
        let geo = by_name("ttlg_prediction_geo_mean_error");
        assert_eq!(geo.samples.len(), 1, "only schemas with samples");
        assert!(geo.samples[0].value > 1.0);
        // Latency histograms: 15 bounds + overflow = 16 counts, 1 sample.
        let plan_hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "ttlg_plan_latency_us")
            .unwrap();
        assert_eq!(plan_hist.upper_bounds.len(), HIST_BUCKETS - 1);
        assert_eq!(plan_hist.counts.len(), HIST_BUCKETS);
        assert_eq!(plan_hist.count(), 1);
        assert!((plan_hist.sum - 50.0).abs() < 1e-9);
        // Ratio histogram for the one schema with samples.
        let ratio = snap
            .histograms
            .iter()
            .find(|h| h.name == "ttlg_prediction_ratio")
            .unwrap();
        assert_eq!(ratio.count(), 1);
    }

    #[test]
    fn backend_counters_and_histograms_always_export() {
        let m = Metrics::new();
        // Both backend families are present even before any traffic —
        // the metric-name contract tests scrape a cold service.
        let snap = m.snapshot(&ttlg::CacheStats::default());
        let req = snap
            .metrics
            .iter()
            .find(|x| x.name == "ttlg_backend_requests_total")
            .expect("backend counter exported cold");
        assert_eq!(req.samples.len(), 2);
        for s in &req.samples {
            assert_eq!(s.value, 0.0);
        }
        let hists: Vec<_> = snap
            .histograms
            .iter()
            .filter(|h| h.name == "ttlg_backend_exec_latency_us")
            .collect();
        assert_eq!(hists.len(), 2, "one histogram per backend");
        // Traffic lands on the right backend lane.
        m.record_backend(Backend::Cpu, 5_000);
        m.record_backend(Backend::Cpu, 7_000);
        m.record_backend(Backend::GpuSim, 3_000);
        assert_eq!(m.requests_for_backend(Backend::Cpu), 2);
        assert_eq!(m.requests_for_backend(Backend::GpuSim), 1);
        assert_eq!(m.backend_exec_latency(Backend::Cpu).count(), 2);
        let snap = m.snapshot(&ttlg::CacheStats::default());
        let req = snap
            .metrics
            .iter()
            .find(|x| x.name == "ttlg_backend_requests_total")
            .unwrap();
        let cpu = req
            .samples
            .iter()
            .find(|s| s.labels.iter().any(|(_, v)| v == "cpu"))
            .unwrap();
        assert_eq!(cpu.value, 2.0);
    }

    #[test]
    fn concurrent_hammer_keeps_exact_totals() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 1_000;
        let m = Arc::new(Metrics::new());
        std::thread::scope(|scope| {
            for w in 0..THREADS {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let schema = SCHEMAS[(w as usize + i as usize) % SCHEMAS.len()];
                        m.record_request(schema, 10);
                        m.plan_latency.record_ns(1_000 * (i % 64));
                        m.exec_latency.record_ns(2_000 * (i % 64));
                        m.record_prediction(schema, 1_100.0, 1_000.0);
                        if i % 100 == 0 {
                            m.record_failure(Some((RequestPhase::Execute, 5_000)));
                        }
                    }
                });
            }
        });
        let total = THREADS * PER_THREAD;
        assert_eq!(m.total_requests(), total);
        assert_eq!(m.total_bytes(), total * 10);
        assert_eq!(m.plan_latency.count(), total);
        // exec histogram also took the failure samples
        assert_eq!(m.failures(), THREADS * (PER_THREAD / 100));
        assert_eq!(m.exec_latency.count(), total + m.failures());
        assert_eq!(
            m.plan_latency.bucket_counts().iter().sum::<u64>(),
            total,
            "bucket counts match sample count"
        );
        assert_eq!(m.prediction().total_count(), total);
        // 8 threads x 1000 over 6 schemas, offsets cycle uniformly:
        // every schema gets at least one sample.
        for schema in SCHEMAS {
            assert!(m.requests_for(schema) > 0);
        }
    }
}
