//! # ttlg-obs — observability core for TTLG-rs
//!
//! The paper justifies every schema choice with nvprof-style counters
//! (Table I) and validates its regression models against measured times
//! (Table II). This crate is the runtime analogue of that workflow: a
//! dependency-free tracing and metrics-export core that the planner, the
//! runtime service, and the simulated executor feed so that *why a plan
//! was chosen* and *how far the model drifted from reality* are
//! observable after the fact.
//!
//! Pieces:
//!
//! * [`span`] — the monotonic process-relative [`clock_ns`] every
//!   record's timestamps read.
//! * [`quantile`] — p50/p95/p99 estimation over the runtime's log2
//!   latency histograms ([`log2_bucket_quantile_us`]).
//! * [`prediction`] — [`PredictionTracker`]: signed residuals between
//!   model-predicted and simulator-measured kernel times per schema,
//!   the training-point feed for a measure-mode autotuner.
//! * [`snapshot`] / [`prom`] — a renderer-neutral [`MetricsSnapshot`]
//!   plus the Prometheus-text exporter.
//! * [`profile`] — tail-latency attribution: hierarchical phase profiles
//!   ([`PhaseProfile`]) that the trace store keeps per `(schema,
//!   shape-class)` bucket over its recent records, including "which
//!   phase dominates at p99".
//! * [`slo`] — [`SloTracker`]: the one per-request latency-objective
//!   miss decision and the lifetime counters behind the hit rate.
//! * [`tracecontext`] — W3C `traceparent` parse/render plus the
//!   process-global id stream ([`TraceContext`]).
//! * [`tracestore`] — [`TraceStore`], the one bounded, sampling store of
//!   per-request [`TraceRecord`]s (a recent window, and per `(schema,
//!   shape-class)` bucket the slowest records and the window's phase
//!   profile), and the request span trees ([`SpanNode`]) built from a
//!   record on read.
//! * [`alerts`] — [`AlertEngine`]: declarative rules with
//!   firing/resolved hysteresis, evaluated once per history ingest over
//!   the ingested [`MetricsSnapshot`] and, for windowed ratios, the
//!   store's trailing window through [`eval_range`].
//! * [`tsdb`] — [`TimeSeriesStore`]: a bounded delta-encoded metrics
//!   history (fine + coarse retention rings with downsampling, counter
//!   reset detection, text save/hydrate).
//! * [`query`] — [`eval_range`]: `rate` / `increase` /
//!   `avg|max_over_time` / `quantile_over_time` / `sum` range queries
//!   over the store.
//!
//! The crate deliberately depends on nothing (not even the other ttlg
//! crates): schemas and phases are plain `&'static str` labels, so any
//! layer can feed it without creating dependency cycles.

pub mod alerts;
pub mod prediction;
pub mod profile;
pub mod prom;
pub mod quantile;
pub mod query;
pub mod slo;
pub mod snapshot;
pub mod span;
pub mod tracecontext;
pub mod tracestore;
pub mod tsdb;

pub use alerts::{default_rules, Agg, AlertEngine, AlertRule, AlertState, AlertStatus, Op, Signal};
pub use prediction::{PredictionStats, PredictionTracker, RATIO_BUCKETS};
pub use profile::{PhaseProfile, PhaseShares, ShapeClass};
pub use quantile::{log2_bucket, log2_bucket_quantile_us};
pub use query::{eval_range, QueryError, QueryResult, QuerySeries};
pub use slo::{SloConfig, SloSnapshot, SloTracker};
pub use snapshot::{Histogram, Metric, MetricKind, MetricsSnapshot, Sample};
pub use span::clock_ns;
pub use tracecontext::{next_id, parse_trace_id, TraceContext};
pub use tracestore::{
    Envelope, Priority, SampleReason, SlowestBuckets, SpanNode, TraceRecord, TraceStore,
    TraceStoreConfig,
};
pub use tsdb::{HistPoints, ScalarPoints, TimeSeriesStore};

/// One fully attributed request through the runtime service — the
/// service's part of a [`TraceRecord`] and the post-hoc answer to "what
/// happened to that request?".
///
/// All fields are plain data so the trace survives the request: the
/// schema is a static label, the shape class two integers, the error a
/// string, and the executor's counters are pre-digested into the two
/// rates the paper's Table I reasons about.
#[derive(Debug, Clone, Default)]
pub struct RequestTrace {
    /// Monotonic per-service request id.
    pub id: u64,
    /// Process-relative start time, ns (see [`clock_ns`]).
    pub start_ns: u64,
    /// Schema label of the executed plan (empty if planning failed).
    pub schema: &'static str,
    /// Bounded-cardinality shape class, e.g. `r4v12` = rank 4, ~4k
    /// elements (`None` when the request failed before the service saw
    /// its input: a caught panic or a shutdown).
    pub shape_class: Option<ShapeClass>,
    /// Whether the plan was an autotuner-warmed (measured-best) plan —
    /// lets before/after tail shifts be attributed to warming.
    pub warmed: bool,
    /// Whether the request completed successfully.
    pub ok: bool,
    /// Whether the plan came from the cache (`None` = planning failed
    /// before the cache answered).
    pub cache_hit: Option<bool>,
    /// Time from submission until the run began (executor queue plus
    /// execution permit), ns. A coalesced request's queue wait is the
    /// part of its wait before the shared execute.
    pub queue_wait_ns: u64,
    /// Time spent fetching (or building) the plan, ns.
    pub plan_fetch_ns: u64,
    /// Lookup part of `plan_fetch_ns`: shard lock, LRU touch, and any
    /// wait for another caller's build, ns.
    pub lookup_ns: u64,
    /// Build part of `plan_fetch_ns` when this request built the plan
    /// (0 on a hit), ns.
    pub build_ns: u64,
    /// Wall time of the plan's Alg. 3 candidate sweep, ns (0 when the
    /// plan bypassed the sweep).
    pub sweep_ns: u64,
    /// Candidates the plan's sweep evaluated.
    pub candidates: usize,
    /// Wall-clock execute-phase time, ns.
    pub execute_ns: u64,
    /// Device launch overhead of the executed kernel, ns.
    pub launch_ns: u64,
    /// Model-predicted kernel time, ns.
    pub predicted_ns: f64,
    /// Simulator-measured kernel time, ns.
    pub measured_ns: f64,
    /// DRAM efficiency of the executed kernel (1.0 = perfectly
    /// coalesced; from the executor's transaction counters).
    pub dram_efficiency: f64,
    /// Shared-memory conflict replays per access (0 = conflict-free).
    pub smem_replay_rate: f64,
    /// Whether this request was coalesced onto another identical
    /// in-flight request's execution (single-flight) instead of running
    /// its own kernel. Coalesced traces copy the leader's measured
    /// numbers so phase attribution stays meaningful.
    pub coalesced: bool,
    /// Error message for failed requests.
    pub error: Option<String>,
}

impl RequestTrace {
    /// Total request latency (queue wait + plan fetch + execute), ns.
    pub fn total_ns(&self) -> u64 {
        self.queue_wait_ns + self.plan_fetch_ns + self.execute_ns
    }

    /// Signed prediction residual `predicted - measured`, ns.
    pub fn residual_ns(&self) -> f64 {
        self.predicted_ns - self.measured_ns
    }

    /// One-line rendering for logs and the CLI.
    pub fn render(&self) -> String {
        let hit = match self.cache_hit {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "-",
        };
        let status = if self.ok { "ok" } else { "FAIL" };
        format!(
            "#{:<6} {:<22} {:<4} cache={:<4} queue {:>8} ns  plan {:>8} ns  exec {:>8} ns  pred {:>10.0} ns  meas {:>10.0} ns  dram-eff {:.2}  replay {:.2}{}{}{}",
            self.id,
            if self.schema.is_empty() { "?" } else { self.schema },
            status,
            hit,
            self.queue_wait_ns,
            self.plan_fetch_ns,
            self.execute_ns,
            self.predicted_ns,
            self.measured_ns,
            self.dram_efficiency,
            self.smem_replay_rate,
            if self.warmed { "  warmed" } else { "" },
            if self.coalesced { "  coalesced" } else { "" },
            match &self.error {
                Some(e) => format!("  error: {e}"),
                None => String::new(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_trace_totals_and_render() {
        let t = RequestTrace {
            id: 7,
            schema: "Orthogonal-Distinct",
            ok: true,
            cache_hit: Some(true),
            queue_wait_ns: 10,
            plan_fetch_ns: 20,
            execute_ns: 30,
            predicted_ns: 1000.0,
            measured_ns: 900.0,
            dram_efficiency: 0.97,
            smem_replay_rate: 0.0,
            ..Default::default()
        };
        assert_eq!(t.total_ns(), 60);
        assert!((t.residual_ns() - 100.0).abs() < 1e-12);
        let line = t.render();
        assert!(line.contains("Orthogonal-Distinct"));
        assert!(line.contains("cache=hit"));
    }
}
