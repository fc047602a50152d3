//! # ttlg-runtime
//!
//! A concurrent, multi-tenant transposition execution service layered on
//! the `ttlg` core — the paper's repeated-use scenario (plan once, run
//! many times, Fig. 12) industrialised for many concurrent clients.
//!
//! Seven pieces:
//!
//! * **Sharded plan cache** — [`ttlg::ShardedPlanCache`] (re-exported
//!   here): N mutex shards keyed by problem fingerprint, per-shard LRU
//!   eviction, single-flight planning, atomic counters.
//! * **One submission pipeline** — every request is keyed, registered
//!   in one single-flight table ([`async_exec`]), and, if no identical
//!   request is in flight, run through the stages: execution permit,
//!   plan fetch, execute, record. A panic inside a run fails its
//!   requests, not the service. Two entry points register through one
//!   function and resolve to one [`Outcome`]:
//!   [`TransposeService::submit`] runs on the caller's thread, and
//!   [`TransposeService::submit_async`] returns a poll/wait
//!   [`TicketHandle`] at once and runs on a small in-tree executor (no
//!   external async runtime). Identical in-flight problems share one
//!   plan, one execution and one `Arc`'d response, whichever entry
//!   point brought each in.
//! * **Metrics** — per-schema request counters, bytes-moved totals,
//!   plan/execute latency histograms with p50/p95/p99 quantiles, and a
//!   per-schema prediction-accuracy tracker ([`Metrics`]); exported as
//!   Prometheus text ([`TransposeService::export_prometheus`]).
//! * **Tracing** — every request becomes a [`RequestTrace`] decomposed
//!   into queue-wait / plan-fetch / execute with cache hit-miss
//!   attribution and the executor's DRAM-efficiency and shared-memory
//!   replay rates, written once as a record to the service's one
//!   [`TraceStore`] ([`TransposeService::trace_store`]; the most recent
//!   via [`TransposeService::recent_traces`]).
//! * **Measure-mode autotuning** — with [`RuntimeConfig::autotune`] on,
//!   each [`TransposeService::autotune_once`] pass measures the
//!   top-ranked candidates of every hot plan key with one
//!   [`ttlg::Transposer::plan_measured`] call on one thread, installs
//!   the measured-best plan into the cache, and streams every
//!   measurement to an online model refiner ([`MeasurementSink`]); see
//!   [`autotune`].
//! * **Tail attribution** — per `(schema, shape-class)` bucket, the
//!   trace store keeps the hierarchical phase profile of its recent
//!   window ([`TransposeService::phase_profiles`]) and the slowest
//!   requests in full with their planner decision traces
//!   ([`TraceStore::buckets`]), and a latency SLO is tracked
//!   as lifetime hit and miss counts
//!   ([`TransposeService::slo_snapshot`]).
//! * **Metrics history and alerting** — a background scraper ingests a
//!   snapshot into the [`TimeSeriesStore`]
//!   ([`TransposeService::history`]) once a second and steps the alert
//!   rules ([`TransposeService::alerts`]) over it; windowed rules such
//!   as `slo-burn` read the store through [`eval_range`].
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use ttlg_runtime::{TransposeRequest, TransposeService};
//! use ttlg_tensor::{DenseTensor, Permutation, Shape};
//!
//! let svc = Arc::new(TransposeService::<f64>::new_k40c());
//! let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[16, 16, 16]).unwrap()));
//! let reqs: Vec<_> = [[2, 1, 0], [1, 0, 2], [2, 1, 0]]
//!     .iter()
//!     .map(|p| TransposeRequest::new(Arc::clone(&input), Permutation::new(p).unwrap()))
//!     .collect();
//! for req in &reqs {
//!     assert!(svc.submit(req).is_ok());
//! }
//! // Three requests, but only two distinct problems were planned.
//! assert_eq!(svc.cache_stats().misses, 2);
//! // Each request left a fully attributed trace, and the same state
//! // exports as Prometheus text.
//! assert_eq!(svc.recent_traces(10).len(), 3);
//! assert!(svc.export_prometheus().contains("ttlg_requests_total"));
//! // Non-blocking submission: poll or wait on the returned tickets.
//! let tickets: Vec<_> = reqs.iter().map(|r| svc.submit_async(r.clone())).collect();
//! for ticket in &tickets {
//!     let outcome = ticket.wait();
//!     assert!(outcome.result.is_ok());
//!     assert!(!outcome.spans().is_empty());
//! }
//! ```

pub mod async_exec;
pub mod autotune;
pub mod metrics;
pub mod service;

pub use async_exec::{PipelineStats, QueueStats, TicketHandle};
pub use autotune::AutotuneSnapshot;
pub use metrics::{LatencyHistogram, Metrics, RequestPhase, HIST_BUCKETS};
pub use service::{
    ErrorKind, HistoryConfig, Outcome, RuntimeConfig, ServeError, ServeResult, TransposeRequest,
    TransposeResponse, TransposeService,
};
pub use ttlg::{CacheStats, PlanKey, ShardedPlanCache};
pub use ttlg_obs::{
    eval_range, AlertEngine, AlertRule, AlertState, AlertStatus, Envelope, MetricsSnapshot,
    PhaseProfile, PhaseShares, PredictionStats, PredictionTracker, QueryError, QueryResult,
    QuerySeries, RequestTrace, SampleReason, ShapeClass, SloConfig, SloSnapshot, SloTracker,
    SlowestBuckets, SpanNode, TimeSeriesStore, TraceContext, TraceRecord, TraceStore,
    TraceStoreConfig,
};
pub use ttlg_perfmodel::MeasurementSink;
