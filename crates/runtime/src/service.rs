//! The multi-tenant transposition service.
//!
//! [`TransposeService`] wraps a [`Transposer`] with the things a shared
//! deployment needs:
//!
//! 1. a sharded, bounded, single-flight plan cache
//!    ([`ttlg::ShardedPlanCache`]) so concurrent clients never plan the
//!    same problem twice;
//! 2. one submission pipeline: key, single-flight, plan, execute,
//!    record, complete. A request registers in the single-flight table
//!    ([`crate::async_exec`]); a leader runs the stages (execution
//!    permit, plan fetch, execute, record) inside a panic boundary and
//!    then completes the followers that joined it. Two entry points feed
//!    the same stages: [`TransposeService::submit`] on the caller's
//!    thread and [`TransposeService::submit_async`] on the executor's
//!    workers. Every request resolves to one [`Outcome`];
//! 3. lock-free metrics: per-schema request counters, bytes-moved
//!    totals, plan/execute latency histograms, and a prediction-accuracy
//!    tracker, exported as Prometheus text;
//! 4. tracing: every request becomes a [`RequestTrace`] decomposed into
//!    queue-wait / plan-fetch / execute with cache hit-miss attribution
//!    and the executor's DRAM-efficiency and shared-memory replay rates,
//!    written once to the bounded [`TraceStore`]
//!    ([`TransposeService::trace_store`]).

use crate::async_exec::{
    flight_key, Executor, FlightKey, Flights, Job, PipelineStats, QueueStats, Role, Ticket,
    TicketHandle,
};
use crate::autotune::{AutotuneSnapshot, AutotuneStats};
use crate::metrics::{Metrics, RequestPhase};
use std::collections::HashMap;
use std::convert::Infallible;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, Weak};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use ttlg::{
    Backend, CacheStats, DecisionTrace, Plan, PlanError, PlanKey, ShardedPlanCache,
    TransposeOptions, TransposeReport, Transposer,
};
use ttlg_obs::{
    clock_ns, default_rules, profile, AlertEngine, Envelope, MetricKind, MetricsSnapshot,
    PhaseProfile, RequestTrace, Sample, SampleReason, ShapeClass, SloConfig, SloSnapshot,
    SloTracker, SpanNode, TimeSeriesStore, TraceStore, TraceStoreConfig,
};
use ttlg_perfmodel::MeasurementSink;
use ttlg_tensor::{parallel, DenseTensor, Element, Permutation};

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker threads of the executor's `ttlg-async-N` pool behind
    /// [`TransposeService::submit_async`]. Also the bound on requests
    /// executing at once, whichever entry point brought them in.
    pub workers: usize,
    /// Bound of each (tenant, class) queue of the executor behind
    /// [`TransposeService::submit_async`]; a full queue refuses the
    /// request with [`ErrorKind::QueueFull`].
    pub queue_capacity: usize,
    /// Recent-window capacity and head-sampling rate of the
    /// [`TraceStore`].
    pub traces: TraceStoreConfig,
    /// Measure-mode autotuning ([`crate::autotune`]): `Some(n)` tunes a
    /// plan key on the first [`TransposeService::autotune_once`] after it
    /// has served `n` requests; `None`, the default, tracks and tunes
    /// nothing.
    pub autotune: Option<u64>,
    /// Latency objective tracked by the built-in [`SloTracker`]; the
    /// trace store always keeps requests that miss it, and the goal sets
    /// the `slo-burn` alert threshold.
    pub slo: SloConfig,
    /// Metrics-history capture: the scrape cadence feeding the
    /// in-memory [`TimeSeriesStore`].
    pub history: HistoryConfig,
}

/// Configuration of the background metrics-history scraper.
#[derive(Debug, Clone, Copy)]
pub struct HistoryConfig {
    /// Scrape cadence of the background scraper, in milliseconds. Each
    /// scrape also steps the alert engine. `0` starts no scraper;
    /// [`TransposeService::scrape_history_once`] then drives both.
    pub scrape_interval_ms: u64,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        HistoryConfig {
            scrape_interval_ms: 1_000,
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let workers = parallel::default_threads().min(8);
        RuntimeConfig {
            workers,
            queue_capacity: 64,
            traces: TraceStoreConfig::default(),
            autotune: None,
            slo: SloConfig::default(),
            history: HistoryConfig::default(),
        }
    }
}

/// One unit of client work: transpose `input` by `perm` under `opts`.
#[derive(Clone)]
pub struct TransposeRequest<E: Element> {
    /// Input tensor (shared; many requests may reuse one tensor).
    pub input: Arc<DenseTensor<E>>,
    /// The permutation to apply.
    pub perm: Permutation,
    /// Planning options (part of the plan key).
    pub opts: TransposeOptions,
    /// The network edge's view of the request, when a gateway received
    /// it; it lands in the request's trace record.
    pub envelope: Option<Envelope>,
}

impl<E: Element> TransposeRequest<E> {
    /// A request with default planning options.
    pub fn new(input: Arc<DenseTensor<E>>, perm: Permutation) -> Self {
        TransposeRequest {
            input,
            perm,
            opts: TransposeOptions::default(),
            envelope: None,
        }
    }

    /// The cache fingerprint this request plans under.
    pub fn plan_key(&self) -> PlanKey {
        PlanKey::new(self.input.shape(), &self.perm, &self.opts)
    }
}

/// A completed request.
pub struct TransposeResponse<E: Element> {
    /// The transposed tensor.
    pub output: DenseTensor<E>,
    /// Simulator timing/bandwidth report.
    pub report: TransposeReport,
}

/// Why a request has no response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The executor's queue for the request's tenant and class was full:
    /// the request was refused and nothing ran.
    QueueFull,
    /// Planning or execution failed, the run panicked, or the service
    /// shut down before it ran.
    Failed,
}

/// Service-level error: cloneable so one failed run can be fanned out
/// to every request that shared it.
#[derive(Debug, Clone)]
pub struct ServeError {
    /// Refused or failed, for callers that answer the two differently.
    pub kind: ErrorKind,
    /// Human-readable failure description.
    pub message: String,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError {
            kind: ErrorKind::Failed,
            message: e.to_string(),
        }
    }
}

/// Result of one request through the service. The response is shared by
/// every request that coalesced onto the same run.
pub type ServeResult<E> = Result<Arc<TransposeResponse<E>>, ServeError>;

/// What one request resolves to, whichever entry point submitted it.
pub struct Outcome<E: Element> {
    /// The response, or why there is none.
    pub result: ServeResult<E>,
    /// This request's own trace. Its stages start at submission, so time
    /// spent waiting in the executor queue counts in `queue_wait_ns`.
    pub trace: RequestTrace,
    /// Whether this request rode an identical in-flight request's run.
    pub coalesced: bool,
    /// Why the trace store kept this request's record; `None` when head
    /// sampling declined it or no record was written.
    pub sampled: Option<SampleReason>,
    /// The plan the run used; [`Self::decision`] derives from it.
    plan: Option<Arc<Plan<E>>>,
}

impl<E: Element> Outcome<E> {
    /// A request that failed without a plan: refused, shut down, or
    /// caught panicking.
    pub(crate) fn error(e: ServeError, submitted_ns: u64, coalesced: bool) -> Self {
        Outcome {
            trace: RequestTrace {
                start_ns: submitted_ns,
                coalesced,
                error: Some(e.message.clone()),
                ..Default::default()
            },
            result: Err(e),
            coalesced,
            sampled: None,
            plan: None,
        }
    }

    /// The planner's decision trace, when the plan retained one.
    pub fn decision(&self) -> Option<&Arc<DecisionTrace>> {
        self.plan.as_ref()?.decision_trace()
    }

    /// The service-side span forest (see [`RequestTrace::spans`]).
    pub fn spans(&self) -> Vec<SpanNode> {
        self.trace.spans()
    }
}

/// Counting semaphore bounding in-flight executions (std has none).
struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

/// One execution permit, given back on drop (unwinding included).
struct Permit<'a>(&'a Semaphore);

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            permits: Mutex::new(permits),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut p = self.permits.lock().expect("semaphore poisoned");
        while *p == 0 {
            p = self.freed.wait(p).expect("semaphore poisoned");
        }
        *p -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    /// Runs while a panicking run unwinds, so it must not panic itself:
    /// the count is valid whatever poisoned the lock.
    fn drop(&mut self) {
        *self
            .0
            .permits
            .lock()
            .unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.freed.notify_one();
    }
}

/// Hot-key bookkeeping for the autotuner.
#[derive(Debug, Default, Clone, Copy)]
struct HotKeyState {
    /// Requests observed for this key.
    requests: u64,
    /// Whether this key has been tuned (or claimed for tuning).
    tuned: bool,
}

/// Candidates of the model's ranking one tuning times.
const TUNE_TOPK: usize = 4;

/// The concurrent transposition service. See the module docs.
pub struct TransposeService<E: Element> {
    transposer: Transposer,
    cache: ShardedPlanCache<E>,
    metrics: Metrics,
    in_flight: Semaphore,
    workers: usize,
    /// The one store of per-request records.
    traces: TraceStore<Arc<DecisionTrace>>,
    next_id: AtomicU64,
    /// Requests after which a key is due for tuning (`None`: off).
    autotune: Option<u64>,
    hot: Mutex<HashMap<PlanKey, HotKeyState>>,
    tuner_stats: AutotuneStats,
    sink: Option<Arc<dyn MeasurementSink>>,
    slo: SloTracker,
    /// The single-flight table every entry point registers in.
    flights: Flights<E>,
    /// The worker pool behind `submit_async`, started on first use.
    executor: OnceLock<Executor<E>>,
    /// Bound of each of the executor's (tenant, class) queues.
    queue_capacity: usize,
    /// Metrics history: the delta-encoded time-series store fed by
    /// [`Self::scrape_history_once`] / the background scraper. It is
    /// the only windowed state: the alert rules read their windows from
    /// it.
    history: TimeSeriesStore,
    /// Alert rules, stepped once per history ingest.
    alerts: AlertEngine,
    /// Background scraper cadence (`0`: no background scraper).
    scrape_interval_ms: u64,
    /// Optional snapshot source for scrapes. The gateway installs one
    /// that returns its *merged* snapshot (service + gateway + alert
    /// families) so history covers everything an operator can scrape;
    /// with no source, scrapes fall back to [`Self::metrics_snapshot`].
    history_source: Mutex<Option<HistorySource>>,
    /// Background scraper thread, if started.
    scraper: Mutex<Option<ScraperHandle>>,
    /// History persistence target (`ttlg serve --history-file`).
    history_file: Mutex<Option<PathBuf>>,
    /// Process start, for `ttlg_uptime_seconds`.
    started: Instant,
}

/// Closure producing the snapshot a history scrape ingests. `None`
/// means "skip this scrape" (e.g. the gateway is shutting down).
type HistorySource = Arc<dyn Fn() -> Option<MetricsSnapshot> + Send + Sync>;

/// Stop flag + join handle of the background history scraper.
struct ScraperHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    join: std::thread::JoinHandle<()>,
}

impl<E: Element> TransposeService<E> {
    /// Build a service around an existing transposer.
    pub fn with_config(transposer: Transposer, cfg: RuntimeConfig) -> Self {
        let workers = cfg.workers.max(1);
        // Plans keep their decision trace, so a slow request's record
        // carries the planning decision: one allocation per planning,
        // not per request.
        transposer.set_trace_retention(true);
        TransposeService {
            transposer,
            cache: ShardedPlanCache::new(),
            metrics: Metrics::new(),
            in_flight: Semaphore::new(workers),
            workers,
            traces: TraceStore::new(cfg.traces),
            next_id: AtomicU64::new(0),
            autotune: cfg.autotune,
            hot: Mutex::new(HashMap::new()),
            tuner_stats: AutotuneStats::default(),
            sink: None,
            slo: SloTracker::new(cfg.slo),
            flights: Flights::new(),
            executor: OnceLock::new(),
            queue_capacity: cfg.queue_capacity,
            history: TimeSeriesStore::new(),
            alerts: AlertEngine::new(default_rules(cfg.slo)),
            scrape_interval_ms: cfg.history.scrape_interval_ms,
            history_source: Mutex::new(None),
            scraper: Mutex::new(None),
            history_file: Mutex::new(None),
            started: Instant::now(),
        }
    }

    /// A service on the paper's K40c with default configuration.
    pub fn new_k40c() -> Self {
        Self::with_config(Transposer::new_k40c(), RuntimeConfig::default())
    }

    /// Attach a measurement sink: every candidate timing the autotuner
    /// measures is streamed to it (e.g. an
    /// [`ttlg_perfmodel::OnlinePredictor`] refining the regression
    /// models online).
    pub fn with_measurement_sink(mut self, sink: Arc<dyn MeasurementSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The underlying transposer (e.g. for direct plan queries).
    pub fn transposer(&self) -> &Transposer {
        &self.transposer
    }

    /// Cache counters (hits/misses/evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resident plans in the cache.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Service metrics (counters + histograms + prediction tracker).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Capture metrics as a renderer-neutral snapshot, including the
    /// tail-attribution families: trace-store sampling and retention,
    /// SLO state, the per-`(schema, shape-class)` phase profiles, and
    /// the alert rules' state as of the last history ingest.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot(&self.cache.stats());
        self.traces.export_into(&mut snap);
        snap.push_metric(
            "ttlg_cache_pinned_plans",
            "Measured-best plans pinned in the cache (exempt from LRU eviction).",
            MetricKind::Gauge,
            vec![Sample::plain(self.cache.pinned_plans() as f64)],
        );
        self.slo.export_into(&mut snap);
        self.alerts.export_into(&mut snap);
        profile::export_into(&mut snap, &self.phase_profiles());
        snap.push_metric(
            "ttlg_uptime_seconds",
            "Seconds since this service was constructed — a process-restart \
             marker for history consumers (a drop means counter resets follow).",
            MetricKind::Gauge,
            vec![Sample::plain(self.started.elapsed().as_secs_f64())],
        );
        let mut backends: Vec<&str> = Backend::ALL.iter().map(|b| b.label()).collect();
        backends.sort_unstable();
        snap.push_metric(
            "ttlg_build_info",
            "Constant 1 carrying the crate version and compiled backend set.",
            MetricKind::Gauge,
            vec![Sample {
                labels: vec![
                    ("version".to_string(), env!("CARGO_PKG_VERSION").to_string()),
                    ("backend_set".to_string(), backends.join(",")),
                ],
                value: 1.0,
            }],
        );
        self.history.export_into(&mut snap);
        snap
    }

    /// The trace store's per-`(schema, shape-class)` phase profiles of
    /// its recent window, hottest first ([`TraceStore::profiles`]).
    pub fn phase_profiles(&self) -> Vec<PhaseProfile> {
        self.traces.profiles()
    }

    /// Render the phase profiles as a flame-style text tree.
    pub fn render_profile(&self) -> String {
        profile::render_flame(&self.phase_profiles())
    }

    /// The one store of per-request records: the recent window, the
    /// slowest records per bucket, lookup by trace id.
    pub fn trace_store(&self) -> &TraceStore<Arc<DecisionTrace>> {
        &self.traces
    }

    /// Lifetime SLO state (hit ratio and violations).
    pub fn slo_snapshot(&self) -> SloSnapshot {
        self.slo.snapshot()
    }

    /// Export metrics in Prometheus text exposition format.
    pub fn export_prometheus(&self) -> String {
        ttlg_obs::prom::render(&self.metrics_snapshot())
    }

    /// The `n` most recent traces of requests the service ran, newest
    /// first (the window also holds the gateway's sheds).
    pub fn recent_traces(&self, n: usize) -> Vec<RequestTrace> {
        self.traces
            .recent(usize::MAX)
            .iter()
            .filter(|r| !r.is_shed())
            .take(n)
            .map(|r| r.trace.clone())
            .collect()
    }

    // ---- the submission pipeline --------------------------------------

    /// Serve one request on the caller's thread. If an identical request
    /// is already in flight, wait for its run instead of starting
    /// another. A panic inside the run comes back as an error.
    pub fn submit(&self, req: &TransposeRequest<E>) -> ServeResult<E> {
        let submitted_ns = clock_ns();
        let key = req.plan_key();
        let flight = flight_key(req, &key);
        match self
            .flights
            .register(req, flight, submitted_ns, |_| Ok::<_, Infallible>(()))
        {
            Ok(Role::Lead(())) => self.lead(req, &key, flight, submitted_ns).result,
            Ok(Role::Follow(ticket)) => ticket.wait().result.clone(),
            Err(never) => match never {},
        }
    }

    /// Non-blocking submission: run `req` on the executor's workers and
    /// return a [`TicketHandle`] at once, to poll (never blocks) or wait
    /// on. If an identical request is in flight (same plan-key
    /// fingerprint, same input `Arc`), `req` joins its run without
    /// taking a queue slot, and the outcome is marked `coalesced`.
    /// Otherwise `req` joins the queue of its envelope's tenant and
    /// class; a full queue completes the ticket at once with an
    /// [`ErrorKind::QueueFull`] error instead of blocking. The trace's
    /// `queue_wait_ns` runs from this call to the start of execution.
    pub fn submit_async(self: &Arc<Self>, req: TransposeRequest<E>) -> TicketHandle<E> {
        let executor = self.executor.get_or_init(|| {
            Executor::start(Arc::downgrade(self), self.queue_capacity, self.workers)
        });
        let key = req.plan_key();
        let flight = flight_key(&req, &key);
        let submitted_ns = clock_ns();
        let queued = self.flights.register(req, flight, submitted_ns, |req| {
            let ticket = Ticket::new(submitted_ns, None);
            let job = Job {
                req,
                key,
                flight,
                ticket: Arc::clone(&ticket),
            };
            executor.submit(job).map(|()| ticket)
        });
        match queued {
            Ok(Role::Lead(ticket)) => ticket.into(),
            Ok(Role::Follow(handle)) => handle,
            Err(job) => {
                let e = ServeError {
                    kind: ErrorKind::QueueFull,
                    message: format!(
                        "queue full: {} requests of this tenant and class are queued",
                        self.queue_capacity.max(1)
                    ),
                };
                job.ticket.complete(Outcome::error(e, submitted_ns, false));
                job.ticket.into()
            }
        }
    }

    /// Occupancy of the executor's queues (empty before the first
    /// `submit_async`).
    pub fn queue_stats(&self) -> QueueStats {
        let (depth, fullest) = self.executor.get().map_or((0, 0), Executor::occupancy);
        QueueStats {
            depth,
            fullest,
            capacity: self.queue_capacity.max(1),
        }
    }

    /// Counters of the single-flight table, across both entry points.
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.flights.stats()
    }

    /// Run one leader inside the panic boundary, then complete the
    /// followers that joined it meanwhile. A leader never waits on a
    /// ticket, so no wait cycle can form.
    pub(crate) fn lead(
        &self,
        req: &TransposeRequest<E>,
        key: &PlanKey,
        flight: FlightKey,
        submitted_ns: u64,
    ) -> Outcome<E> {
        self.flights.note_run();
        let led = self.guarded(|| self.run(req, key, submitted_ns));
        for ticket in self.flights.land(flight) {
            let followed = match &led {
                Ok(leader) => self.guarded(|| self.follow(key, leader, &ticket)),
                Err(e) => Err(e.clone()),
            };
            ticket.complete(followed.unwrap_or_else(|e| {
                self.panicked(e, ticket.submitted_ns, true, key, ticket.envelope.clone())
            }));
        }
        led.unwrap_or_else(|e| self.panicked(e, submitted_ns, false, key, req.envelope.clone()))
    }

    /// The outcome of a request whose run panicked, recorded as a failed
    /// request that ran no stage of its own.
    fn panicked(
        &self,
        e: ServeError,
        submitted_ns: u64,
        coalesced: bool,
        key: &PlanKey,
        envelope: Option<Envelope>,
    ) -> Outcome<E> {
        let mut out = Outcome::error(e, submitted_ns, coalesced);
        self.record(&mut out, key, envelope, false);
        out
    }

    /// The panic boundary: a panic inside `stage` is counted in
    /// `ttlg_panics_total` and becomes the request's (or the tuning's)
    /// error. A run records its outcome last, so a stage that panics has
    /// recorded nothing; [`Self::panicked`] records the request.
    fn guarded<T>(&self, stage: impl FnOnce() -> T) -> Result<T, ServeError> {
        panic::catch_unwind(AssertUnwindSafe(stage)).map_err(|payload| {
            self.metrics.record_panic();
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            ServeError {
                kind: ErrorKind::Failed,
                message: format!("request panicked: {what}"),
            }
        })
    }

    /// One leader's stages: wait for an execution permit, fetch (or
    /// build, single-flight) the plan, execute, feed the measurement
    /// sink, and record the outcome.
    fn run(&self, req: &TransposeRequest<E>, key: &PlanKey, submitted_ns: u64) -> Outcome<E> {
        let permit = self.in_flight.acquire();
        let mut trace = RequestTrace {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: submitted_ns,
            queue_wait_ns: clock_ns().saturating_sub(submitted_ns),
            shape_class: Some(ShapeClass::of(req.input.shape().extents())),
            ..Default::default()
        };
        let t0 = Instant::now();
        let fetched = self.cache.get_or_plan_keyed_timed(
            &self.transposer,
            key,
            req.input.shape(),
            &req.perm,
            &req.opts,
        );
        trace.plan_fetch_ns = t0.elapsed().as_nanos() as u64;
        let mut out = match fetched {
            Ok((plan, hit, fetch)) => {
                trace.cache_hit = Some(hit);
                trace.lookup_ns = fetch.lookup_ns;
                trace.build_ns = fetch.build_ns;
                trace.sweep_ns = plan.sweep_wall_ns();
                trace.candidates = plan.candidates_evaluated();
                trace.warmed = plan.is_measured();
                let t1 = Instant::now();
                let executed = self.transposer.execute(&plan, &req.input);
                trace.execute_ns = t1.elapsed().as_nanos() as u64;
                drop(permit);
                let result = match executed {
                    Ok((output, report)) => {
                        // Every served request is also a (candidate,
                        // measured) training point, so cold keys refine
                        // the online model without waiting for the
                        // autotuner to measure them.
                        if let Some(sink) = &self.sink {
                            sink.observe_candidate(plan.candidate(), report.kernel_time_ns);
                        }
                        trace.ok = true;
                        trace.schema = report.schema.label();
                        trace.predicted_ns = report.predicted_ns;
                        trace.measured_ns = report.kernel_time_ns;
                        trace.dram_efficiency = report.stats.dram_efficiency(E::BYTES);
                        trace.smem_replay_rate = report.stats.smem_replay_rate();
                        trace.launch_ns = report.timing.launch_ns as u64;
                        Ok(Arc::new(TransposeResponse { output, report }))
                    }
                    Err(e) => {
                        trace.schema = plan.schema().label();
                        trace.error = Some(e.to_string());
                        Err(ServeError::from(e))
                    }
                };
                Outcome {
                    result,
                    trace,
                    coalesced: false,
                    sampled: None,
                    plan: Some(plan),
                }
            }
            Err(e) => {
                drop(permit);
                // The cache never answered, so `cache_hit` stays `None`.
                trace.error = Some(e.to_string());
                Outcome {
                    result: Err(e.into()),
                    trace,
                    coalesced: false,
                    sampled: None,
                    plan: None,
                }
            }
        };
        self.record(&mut out, key, req.envelope.clone(), true);
        out
    }

    /// One follower of a finished leader: a request served (or failed)
    /// by the leader's run. It leaves its own trace, marked `coalesced`,
    /// with the leader's measured numbers. The trace covers the
    /// follower's whole wait: its share of the leader's execute time,
    /// and queue wait before that. Its record carries the envelope its
    /// ticket brought.
    fn follow(&self, key: &PlanKey, leader: &Outcome<E>, ticket: &Ticket<E>) -> Outcome<E> {
        let submitted_ns = ticket.submitted_ns;
        let waited = clock_ns().saturating_sub(submitted_ns);
        let execute_ns = leader.trace.execute_ns.min(waited);
        let trace = RequestTrace {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: submitted_ns,
            cache_hit: leader.trace.cache_hit.map(|_| true),
            queue_wait_ns: waited - execute_ns,
            plan_fetch_ns: 0,
            lookup_ns: 0,
            build_ns: 0,
            execute_ns,
            coalesced: true,
            ..leader.trace.clone()
        };
        let mut out = Outcome {
            result: leader.result.clone(),
            trace,
            coalesced: true,
            sampled: None,
            plan: leader.plan.clone(),
        };
        self.record(&mut out, key, ticket.envelope.clone(), false);
        out
    }

    /// Record one request's outcome. Every per-request series, the SLO
    /// record and the trace-store write derive from the outcome here, and
    /// nowhere else, once per outcome after every stage that could panic
    /// has returned. `ran` marks a leader's own run: only it records
    /// stage latencies (a failed stage's too), the backend that executed,
    /// the prediction pair and the residual point the sink took. A
    /// follower or a panicked request ran no stage of its own.
    fn record(&self, out: &mut Outcome<E>, key: &PlanKey, envelope: Option<Envelope>, ran: bool) {
        let m = &self.metrics;
        let trace = &out.trace;
        match (&out.result, &out.plan) {
            (Ok(resp), Some(plan)) => {
                let report = &resp.report;
                if ran {
                    m.plan_latency.record_ns(trace.plan_fetch_ns);
                    m.exec_latency.record_ns(trace.execute_ns);
                    m.record_backend(plan.backend(), trace.execute_ns);
                    m.record_prediction(report.schema, report.predicted_ns, report.kernel_time_ns);
                    if self.sink.is_some() {
                        m.record_residual_point();
                    }
                }
                let bytes = 2 * resp.output.volume() as u64 * E::BYTES as u64;
                m.record_request(report.schema, bytes);
            }
            // Only a failure lacks a plan: planning failed, or the run
            // panicked.
            (_, None) => m.record_failure(ran.then_some((RequestPhase::Plan, trace.plan_fetch_ns))),
            (Err(_), Some(_)) => {
                if ran {
                    m.plan_latency.record_ns(trace.plan_fetch_ns);
                }
                m.record_failure(ran.then_some((RequestPhase::Execute, trace.execute_ns)));
            }
        }
        if out.coalesced {
            m.record_coalesced();
        }
        if out.plan.is_some() {
            self.note_request(key);
        }
        let slo_miss = self.slo.record(trace, envelope.as_ref());
        out.sampled = self
            .traces
            .write(&out.trace, envelope, out.decision(), slo_miss);
    }

    // ---- measure-mode autotuning -------------------------------------

    /// Count a planned request toward its key's hotness (a no-op, one
    /// branch, unless autotuning is on).
    fn note_request(&self, key: &PlanKey) {
        if self.autotune.is_none() {
            return;
        }
        let mut hot = self.hot.lock().expect("hot map poisoned");
        hot.entry(key.clone()).or_default().requests += 1;
    }

    /// Autotuner counters.
    pub fn autotune_stats(&self) -> AutotuneSnapshot {
        self.tuner_stats.snapshot()
    }

    /// Tune every key currently due (hot and not yet tuned) and return
    /// how many there were. Each key tunes inside the panic boundary: a
    /// panic (in the planner or the measurement sink) counts in
    /// `ttlg_panics_total` and as a failed tuning, like a planning error,
    /// and the pass goes on with the next key. The caller decides when
    /// tuning runs: between requests, from a thread of its own, or not
    /// at all.
    pub fn autotune_once(&self) -> usize {
        let Some(threshold) = self.autotune else {
            return 0;
        };
        let due: Vec<PlanKey> = {
            let mut hot = self.hot.lock().expect("hot map poisoned");
            hot.iter_mut()
                .filter(|(_, s)| !s.tuned && s.requests >= threshold)
                .map(|(k, s)| {
                    // Claim eagerly so concurrent tuners never double-tune.
                    s.tuned = true;
                    k.clone()
                })
                .collect()
        };
        for key in &due {
            let counter = match self.guarded(|| self.tune_key(key)) {
                Ok(Ok(())) => &self.tuner_stats.keys_tuned,
                Ok(Err(_)) | Err(_) => &self.tuner_stats.failures,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        due.len()
    }

    /// Measure one key's best-ranked candidates, stream every
    /// measurement to the sink, and install the measured-best plan.
    fn tune_key(&self, key: &PlanKey) -> Result<(), PlanError> {
        let (shape, perm, opts) = key.problem_parts();
        // One thread, so tuning never competes with foreground requests
        // for the whole machine.
        let (plan, timed) = parallel::with_thread_cap(1, || {
            self.transposer
                .plan_measured::<E>(&shape, &perm, &opts, TUNE_TOPK)
        })?;
        let stats = &self.tuner_stats;
        for (candidate, ns) in &timed {
            stats.candidates_measured.fetch_add(1, Ordering::Relaxed);
            if let Some(sink) = &self.sink {
                sink.observe_candidate(candidate, *ns);
                stats.points_streamed.fetch_add(1, Ordering::Relaxed);
            }
        }
        // The winner is the first fastest in rank order, so it is not
        // the model's pick exactly when the head ran slower.
        let swapped = timed[0].1 != plan.predicted_ns();
        if self.cache.warm(key, Arc::new(plan)) {
            stats.plans_warmed.fetch_add(1, Ordering::Relaxed);
            if swapped {
                stats.plans_swapped.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    // ------------------------------------------------- metrics history

    /// The metrics-history store fed by [`Self::scrape_history_once`].
    pub fn history(&self) -> &TimeSeriesStore {
        &self.history
    }

    /// The alert rules, stepped once per history ingest. Reading their
    /// state ([`AlertEngine::status`]) never advances them.
    pub fn alerts(&self) -> &AlertEngine {
        &self.alerts
    }

    /// Install (or clear) the snapshot source history scrapes ingest.
    /// The gateway installs one returning its merged snapshot so the
    /// store also sees `ttlg_gateway_*` families; `None` falls back to
    /// [`Self::metrics_snapshot`].
    pub fn set_history_source(&self, source: Option<HistorySource>) {
        *self.history_source.lock().expect("history source poisoned") = source;
    }

    /// Capture one snapshot, ingest it into the history store, step the
    /// alert engine over it, then persist the store if a history file is
    /// configured. Called by the background scraper at the configured
    /// cadence; callers (tests, studies) may also drive it manually for
    /// deterministic timelines. This is the only place alert rules
    /// advance, so their hysteresis counts scrapes.
    pub fn scrape_history_once(&self) {
        let source = self
            .history_source
            .lock()
            .expect("history source poisoned")
            .clone();
        let snap = match source {
            Some(f) => match f() {
                Some(snap) => snap,
                None => return,
            },
            None => self.metrics_snapshot(),
        };
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        self.history.ingest(&snap, now_ms);
        self.alerts.evaluate(&snap, &self.history);
        self.persist_history();
    }

    /// Configure history persistence. If `path` already holds a saved
    /// store, it is restored first (so a restarted `ttlg serve` keeps
    /// its history); the store is then re-saved after every scrape.
    /// Returns the number of series restored (0 for a fresh file).
    pub fn set_history_file(&self, path: impl Into<PathBuf>) -> Result<usize, String> {
        let path = path.into();
        let restored = match std::fs::read_to_string(&path) {
            Ok(text) => self
                .history
                .hydrate(&text)
                .map_err(|e| format!("history file {}: {e}", path.display()))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(format!("history file {}: {e}", path.display())),
        };
        *self.history_file.lock().expect("history file poisoned") = Some(path);
        Ok(restored)
    }

    /// Best-effort save of the store to the configured history file:
    /// written and synced to `<file name>.tmp` beside it, then renamed
    /// over it, so a crash leaves the old file or the new one, never a
    /// torn one.
    fn persist_history(&self) {
        let Some(path) = self
            .history_file
            .lock()
            .expect("history file poisoned")
            .clone()
        else {
            return;
        };
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let written = std::fs::File::create(&tmp).and_then(|mut f| {
            std::io::Write::write_all(&mut f, self.history.save().as_bytes())?;
            f.sync_all()
        });
        if written.is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    /// Start the background history scraper (idempotent; a no-op when
    /// the interval is zero). The thread holds only a [`Weak`]
    /// reference, so it never keeps the service alive; it stops on
    /// [`Self::stop_history_scraper`] or drop. A scrape that panics is
    /// counted in `ttlg_panics_total` and skipped; the next one runs on
    /// schedule.
    pub fn start_history_scraper(self: &Arc<Self>) {
        if self.scrape_interval_ms == 0 {
            return;
        }
        let mut slot = self.scraper.lock().expect("scraper poisoned");
        if slot.is_some() {
            return;
        }
        let stop: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = Arc::clone(&stop);
        let weak: Weak<Self> = Arc::downgrade(self);
        let interval = Duration::from_millis(self.scrape_interval_ms);
        let join = std::thread::Builder::new()
            .name("ttlg-history".into())
            .spawn(move || loop {
                let (lock, cvar) = &*flag;
                let mut stopped = lock.lock().expect("scraper stop poisoned");
                let deadline = Instant::now() + interval;
                while !*stopped {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    let (guard, _) = cvar
                        .wait_timeout(stopped, left)
                        .expect("scraper stop poisoned");
                    stopped = guard;
                }
                let done = *stopped;
                drop(stopped);
                if done {
                    return;
                }
                let Some(svc) = weak.upgrade() else {
                    return;
                };
                if panic::catch_unwind(AssertUnwindSafe(|| svc.scrape_history_once())).is_err() {
                    svc.metrics.record_panic();
                }
            })
            .expect("spawn history scraper thread");
        *slot = Some(ScraperHandle { stop, join });
    }

    /// Stop and join the background history scraper, if running.
    pub fn stop_history_scraper(&self) {
        let handle = self.scraper.lock().expect("scraper poisoned").take();
        if let Some(ScraperHandle { stop, join }) = handle {
            *stop.0.lock().expect("scraper stop poisoned") = true;
            stop.1.notify_all();
            // If the scraper thread itself holds the last Arc, drop runs
            // on that thread — joining would deadlock on self.
            if join.thread().id() != std::thread::current().id() {
                let _ = join.join();
            }
        }
    }
}

impl<E: Element> Drop for TransposeService<E> {
    fn drop(&mut self) {
        self.stop_history_scraper();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use ttlg_tensor::Shape;

    #[test]
    fn single_submit_round_trips() {
        let svc: TransposeService<u64> = TransposeService::new_k40c();
        let shape = Shape::new(&[16, 8, 4]).unwrap();
        let perm = Permutation::new(&[2, 0, 1]).unwrap();
        let input = Arc::new(DenseTensor::<u64>::iota(shape));
        let req = TransposeRequest::new(Arc::clone(&input), perm.clone());
        let resp = svc.submit(&req).unwrap();
        let expect = ttlg_tensor::reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(resp.output.data(), expect.data());
        assert_eq!(svc.cache_stats().misses, 1);
        assert_eq!(svc.metrics().total_requests(), 1);
        // Second submission hits the cache.
        svc.submit(&req).unwrap();
        assert_eq!(svc.cache_stats().hits, 1);
    }

    #[test]
    fn cpu_backend_requests_serve_and_count_per_backend() {
        let svc: TransposeService<f32> = TransposeService::new_k40c();
        let shape = Shape::new(&[24, 12, 10]).unwrap();
        let perm = Permutation::new(&[2, 0, 1]).unwrap();
        let input = Arc::new(DenseTensor::<f32>::iota(shape));
        let mut cpu_req = TransposeRequest::new(Arc::clone(&input), perm.clone());
        cpu_req.opts = TransposeOptions::for_backend(ttlg::Backend::Cpu);
        let gpu_req = TransposeRequest::new(Arc::clone(&input), perm.clone());

        let resp = svc.submit(&cpu_req).unwrap();
        let expect = ttlg_tensor::reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(resp.output.data(), expect.data());
        assert!(resp.report.kernel_time_ns > 0.0, "wall-clock timing");
        svc.submit(&gpu_req).unwrap();

        // The two requests plan under distinct keys (backend is part of
        // the fingerprint) and land on separate backend lanes.
        assert_eq!(svc.cache_stats().misses, 2);
        let m = svc.metrics();
        assert_eq!(m.requests_for_backend(ttlg::Backend::Cpu), 1);
        assert_eq!(m.requests_for_backend(ttlg::Backend::GpuSim), 1);
        assert_eq!(m.backend_exec_latency(ttlg::Backend::Cpu).count(), 1);
        let prom = svc.export_prometheus();
        assert!(
            prom.contains("ttlg_backend_requests_total{backend=\"cpu\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("ttlg_backend_requests_total{backend=\"gpu_sim\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("ttlg_backend_exec_latency_us_bucket"),
            "{prom}"
        );
    }

    #[test]
    fn outcome_builds_the_service_span_forest() {
        let svc: Arc<TransposeService<f64>> = Arc::new(TransposeService::new_k40c());
        let shape = Shape::new(&[16, 8, 4]).unwrap();
        let perm = Permutation::new(&[2, 0, 1]).unwrap();
        let input = Arc::new(DenseTensor::<f64>::iota(shape));
        let req = TransposeRequest::new(Arc::clone(&input), perm);

        // Cold: plan is built, so the forest carries plan-build with the
        // Alg. 3 sweep child, and the decision trace is retained.
        let cold = svc.submit_async(req.clone()).wait();
        assert!(cold.result.is_ok());
        assert!(
            cold.decision().is_some(),
            "cold plan retains decision trace"
        );
        let spans = cold.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["queue-wait", "plan", "execute"]);
        let plan = &spans[1];
        assert!(plan.find("cache-lookup").is_some());
        assert!(plan.find("plan-build").is_some());
        let sweep = plan.find("alg3-sweep").expect("cold plan swept candidates");
        assert!(sweep.duration_ns > 0);
        let exec = &spans[2];
        assert!(exec.find("kernel-launch").is_some());
        let kernel = exec
            .find("kernel")
            .expect("successful execute has kernel span");
        assert!(kernel.duration_ns > 0);
        // The stages are laid out back to back from submission.
        assert_eq!(spans[0].start_ns, cold.trace.start_ns);
        assert_eq!(plan.start_ns, spans[0].start_ns + spans[0].duration_ns);
        assert_eq!(exec.start_ns, plan.start_ns + plan.duration_ns);

        // Warm: the plan replays from cache — no build, no sweep.
        let warm = svc.submit_async(req).wait();
        assert!(warm.result.is_ok());
        let spans = warm.spans();
        let plan = &spans[1];
        assert!(plan.find("cache-lookup").is_some());
        assert!(plan.find("plan-build").is_none(), "cache hit never builds");
        assert_eq!(
            plan.attrs.iter().find(|(k, _)| k == "cache").unwrap().1,
            "hit"
        );
        assert_eq!(svc.cache_stats().hits, 1);
    }

    /// Twelve requests over three problems, one `submit` after another:
    /// each problem plans once, and the other nine hit its plan.
    #[test]
    fn batch_plans_each_distinct_problem_once() {
        let svc: TransposeService<u32> = TransposeService::new_k40c();
        let shape = Shape::new(&[8, 8, 8]).unwrap();
        let input = Arc::new(DenseTensor::<u32>::iota(shape));
        let perms = [[2usize, 1, 0], [1, 0, 2], [0, 2, 1]];
        for i in 0..12 {
            let perm = Permutation::new(&perms[i % perms.len()]).unwrap();
            svc.submit(&TransposeRequest::new(Arc::clone(&input), perm))
                .unwrap();
        }
        let cache = svc.cache_stats();
        assert_eq!(cache.misses, 3, "one plan per distinct problem");
        assert_eq!(cache.hits, 9);
        assert_eq!(svc.metrics().total_requests(), 12);
        assert!(svc.metrics().total_bytes() > 0);
        // Every request left a trace; 3 were misses, 9 reused the plans.
        let traces = svc.recent_traces(100);
        assert_eq!(traces.len(), 12);
        let misses = traces.iter().filter(|t| t.cache_hit == Some(false)).count();
        assert_eq!(misses, 3, "one miss per distinct plan");
        assert!(traces.iter().all(|t| t.ok && t.measured_ns > 0.0));
    }

    #[test]
    fn prometheus_mentions_schemas_and_latency() {
        let svc: TransposeService<f64> = TransposeService::new_k40c();
        let shape = Shape::new(&[16, 16]).unwrap();
        let input = Arc::new(DenseTensor::<f64>::iota(shape));
        let req = TransposeRequest::new(input, Permutation::new(&[1, 0]).unwrap());
        let resp = svc.submit(&req).unwrap();
        let prom = svc.export_prometheus();
        let schema = resp.report.schema.label();
        assert!(
            prom.contains(&format!("ttlg_requests_total{{schema=\"{schema}\"}} 1")),
            "{prom}"
        );
        assert!(prom.contains("ttlg_plan_latency_us_count 1"), "{prom}");
        assert!(prom.contains("ttlg_exec_latency_us_count 1"), "{prom}");
        assert!(prom.contains("ttlg_exec_latency_us_quantile{quantile=\"0.5\"}"));
    }

    #[test]
    fn traces_attribute_cache_and_decompose_phases() {
        let svc: TransposeService<f32> = TransposeService::new_k40c();
        let shape = Shape::new(&[32, 16, 8]).unwrap();
        let input = Arc::new(DenseTensor::<f32>::iota(shape));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());
        svc.submit(&req).unwrap();
        svc.submit(&req).unwrap();

        let traces = svc.recent_traces(10);
        assert_eq!(traces.len(), 2);
        // Newest first: the second request hit the cache.
        assert_eq!(traces[0].cache_hit, Some(true));
        assert_eq!(traces[1].cache_hit, Some(false));
        for t in &traces {
            assert!(t.ok);
            assert!(!t.schema.is_empty());
            assert!(t.execute_ns > 0);
            assert!(t.predicted_ns > 0.0 && t.measured_ns > 0.0);
            assert!(t.dram_efficiency > 0.0 && t.dram_efficiency <= 1.0);
            assert!(t.smem_replay_rate >= 0.0);
        }
        assert!(traces[0].id != traces[1].id);
    }

    #[test]
    fn failed_requests_record_latency_and_trace() {
        let svc: TransposeService<u32> = TransposeService::new_k40c();
        let input = Arc::new(DenseTensor::<u32>::iota(Shape::new(&[8, 8, 8]).unwrap()));
        // Forcing Copy on a non-identity permutation yields no admissible
        // candidate: planning must fail gracefully.
        let mut req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());
        req.opts.forced_schema = Some(ttlg::Schema::Copy);
        let err = svc.submit(&req).err().expect("forced Copy must fail");
        assert!(err.message.contains("no admissible"), "{}", err.message);
        // Satellite: the failure still left a latency sample.
        assert_eq!(svc.metrics().failures(), 1);
        assert_eq!(svc.metrics().plan_latency.count(), 1);
        assert_eq!(svc.metrics().total_requests(), 0);
        // And a trace with no cache attribution (the cache never answered).
        let traces = svc.recent_traces(10);
        assert_eq!(traces.len(), 1);
        assert!(!traces[0].ok);
        assert_eq!(traces[0].cache_hit, None);
        assert!(traces[0].error.is_some());
    }

    #[test]
    fn exporters_emit_live_metrics() {
        let svc: TransposeService<f64> = TransposeService::new_k40c();
        let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[16, 16, 4]).unwrap()));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());
        svc.submit(&req).unwrap();

        let prom = svc.export_prometheus();
        assert!(prom.contains("# TYPE ttlg_requests_total counter"));
        assert!(prom.contains("ttlg_backend_requests_total{backend=\"gpu_sim\"} 1"));
        assert!(prom.contains("ttlg_backend_requests_total{backend=\"cpu\"} 0"));
        assert!(prom.contains("ttlg_plan_latency_us_quantile{quantile=\"0.99\"}"));
        assert!(prom.contains("ttlg_prediction_samples_total"));
        assert!(prom.contains("ttlg_exec_latency_us_bucket"));
        // Every non-comment line is `name{labels} value`.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let (name_part, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name_part.is_empty());
            assert!(value.parse::<f64>().is_ok() || value == "+Inf", "{line}");
        }

        // The ratio histogram for the served schema is non-empty.
        let snap = svc.metrics_snapshot();
        let ratio: u64 = snap
            .histograms
            .iter()
            .filter(|h| h.name == "ttlg_prediction_ratio")
            .map(|h| h.count())
            .sum();
        assert_eq!(ratio, 1);
    }

    /// Ranks candidates *backwards* (fast-by-analysis looks slow and
    /// vice versa) while staying inside the analytic guard band — the
    /// modeled winner is then the worst guard-eligible candidate, so a
    /// measured pass must swap it out.
    struct Inverted(ttlg::AnalyticPredictor);

    impl ttlg::TimePredictor for Inverted {
        fn predict_ns(&self, c: &ttlg::Candidate) -> f64 {
            1.0e12 / self.0.predict_ns(c).max(1.0)
        }
        fn name(&self) -> &str {
            "inverted"
        }
    }

    fn autotuned_config() -> RuntimeConfig {
        RuntimeConfig {
            autotune: Some(2),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn autotuner_swaps_in_measured_best_plan_for_hot_keys() {
        let device = ttlg_gpu_sim::DeviceConfig::k40c();
        let transposer = Transposer::with_predictor(
            device.clone(),
            Arc::new(Inverted(ttlg::AnalyticPredictor::new(device))),
        );
        let svc: TransposeService<f64> =
            TransposeService::with_config(transposer, autotuned_config());
        let input = Arc::new(DenseTensor::<f64>::iota(
            ttlg_tensor::Shape::new(&[16, 16, 16, 16]).unwrap(),
        ));
        let req =
            TransposeRequest::new(Arc::clone(&input), Permutation::new(&[3, 1, 0, 2]).unwrap());

        // Not hot yet: one request is below the threshold.
        svc.submit(&req).unwrap();
        assert_eq!(svc.autotune_once(), 0);
        let before = svc.submit(&req).unwrap();
        assert_eq!(svc.autotune_once(), 1, "key is now hot");
        assert_eq!(svc.autotune_once(), 0, "tuned keys are not re-tuned");

        let stats = svc.autotune_stats();
        assert_eq!(stats.keys_tuned, 1);
        assert_eq!(stats.plans_warmed, 1);
        assert!(stats.candidates_measured >= 2);
        assert_eq!(stats.failures, 0);
        assert!(
            stats.plans_swapped >= 1,
            "inverted model's winner must lose the measured bake-off: {stats:?}"
        );

        // The warmed plan serves from the cache, still correct, and
        // predicts its own measured time.
        let hits_before = svc.cache_stats().hits;
        let after = svc.submit(&req).unwrap();
        assert_eq!(svc.cache_stats().hits, hits_before + 1);
        let expect = ttlg_tensor::reference::transpose_reference(&input, &req.perm).unwrap();
        assert_eq!(after.output.data(), expect.data());
        let rel = (after.report.predicted_ns - after.report.kernel_time_ns).abs()
            / after.report.kernel_time_ns;
        assert!(rel < 1e-9, "warmed plan predicts its measured time: {rel}");
        assert!(
            after.report.kernel_time_ns < before.report.kernel_time_ns,
            "measured-best plan beats the mis-modeled one: {} vs {}",
            after.report.kernel_time_ns,
            before.report.kernel_time_ns
        );
    }

    #[test]
    fn autotuner_kill_switch_disables_tracking_and_tuning() {
        let svc: TransposeService<u32> = TransposeService::new_k40c();
        let input = Arc::new(DenseTensor::<u32>::iota(
            ttlg_tensor::Shape::new(&[8, 8, 8]).unwrap(),
        ));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());
        for _ in 0..5 {
            svc.submit(&req).unwrap();
        }
        assert_eq!(svc.autotune_once(), 0);
        assert_eq!(
            svc.autotune_stats(),
            crate::autotune::AutotuneSnapshot::default()
        );
        assert!(svc.hot.lock().unwrap().is_empty(), "no hot-key bookkeeping");
    }

    #[test]
    fn autotuner_streams_measurements_to_the_sink() {
        #[derive(Default)]
        struct Counting(AtomicU64);
        impl MeasurementSink for Counting {
            fn observe_candidate(&self, _c: &ttlg::Candidate, measured_ns: f64) {
                assert!(measured_ns > 0.0);
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let sink = Arc::new(Counting::default());
        let svc: TransposeService<f32> =
            TransposeService::with_config(Transposer::new_k40c(), autotuned_config())
                .with_measurement_sink(Arc::clone(&sink) as Arc<dyn MeasurementSink>);
        let input = Arc::new(DenseTensor::<f32>::iota(
            ttlg_tensor::Shape::new(&[12, 10, 8, 6]).unwrap(),
        ));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 3, 1, 0]).unwrap());
        svc.submit(&req).unwrap();
        svc.submit(&req).unwrap();
        // Foreground residual stream: both served requests were also
        // training points for the sink, counted separately from the
        // autotuner's stream.
        assert_eq!(svc.metrics().residual_points(), 2);
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
        assert_eq!(svc.autotune_once(), 1);
        let stats = svc.autotune_stats();
        assert_eq!(
            stats.points_streamed + svc.metrics().residual_points(),
            sink.0.load(Ordering::Relaxed)
        );
        assert_eq!(stats.points_streamed, stats.candidates_measured);
        assert!(stats.points_streamed > 0);
        // The snapshot exports the foreground counter.
        let prom = svc.export_prometheus();
        assert!(prom.contains("ttlg_residual_points_total 2"), "{prom}");
    }

    #[test]
    fn background_autotuner_never_disturbs_foreground_batches() {
        // Hammer test: a tuner thread calls `autotune_once` in a loop
        // while four foreground threads `submit`; totals must come out
        // exact and failure-free (the tuner's one-thread cap keeps it
        // out of the way).
        let svc: TransposeService<u64> =
            TransposeService::with_config(Transposer::new_k40c(), autotuned_config());
        let input = Arc::new(DenseTensor::<u64>::iota(
            ttlg_tensor::Shape::new(&[8, 6, 5, 4]).unwrap(),
        ));
        const THREADS: usize = 4;
        const ROUNDS: usize = 3;
        let perms = [[3usize, 1, 0, 2], [2, 3, 1, 0], [1, 0, 3, 2]];
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    if svc.autotune_once() == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
            let clients: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..ROUNDS {
                            for p in &perms {
                                let perm = Permutation::new(p).unwrap();
                                svc.submit(&TransposeRequest::new(Arc::clone(&input), perm))
                                    .unwrap();
                            }
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        // Drain any keys that went hot after the tuner's last pass.
        while svc.autotune_once() > 0 {}
        assert_eq!(
            svc.metrics().total_requests(),
            (THREADS * ROUNDS * perms.len()) as u64,
            "foreground totals are exact"
        );
        assert_eq!(svc.metrics().failures(), 0);
        let stats = svc.autotune_stats();
        assert_eq!(stats.failures, 0);
        assert_eq!(
            stats.keys_tuned,
            perms.len() as u64,
            "every hot key tuned once"
        );
        assert_eq!(stats.plans_warmed, perms.len() as u64);
    }

    #[test]
    fn trace_ring_keeps_only_recent_requests() {
        let cfg = RuntimeConfig {
            traces: TraceStoreConfig {
                capacity: 4,
                ..TraceStoreConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let svc: TransposeService<u32> = TransposeService::with_config(Transposer::new_k40c(), cfg);
        let input = Arc::new(DenseTensor::<u32>::iota(Shape::new(&[8, 8]).unwrap()));
        let req = TransposeRequest::new(input, Permutation::new(&[1, 0]).unwrap());
        assert_eq!(svc.trace_store().evicted(), 0);
        for _ in 0..10 {
            svc.submit(&req).unwrap();
        }
        let traces = svc.recent_traces(100);
        assert_eq!(traces.len(), 4, "bounded by the window capacity");
        // Newest first and contiguous.
        assert_eq!(traces[0].id, 9);
        assert_eq!(traces[3].id, 6);
        // Records the window let go stay while their bucket keeps them;
        // the rest are evicted, and the count is exported.
        let store = svc.trace_store();
        assert_eq!(store.resident() as u64 + store.evicted(), 10);
        assert!(store.evicted() >= 2, "at most 4 + 4 resident");
        let prom = svc.export_prometheus();
        assert!(
            prom.contains(&format!(
                "ttlg_trace_store_evicted_total {}",
                store.evicted()
            )),
            "{prom}"
        );
    }

    #[test]
    fn tail_attribution_wires_through_the_service() {
        let svc: TransposeService<f64> = TransposeService::new_k40c();
        let big = Arc::new(DenseTensor::<f64>::iota(
            Shape::new(&[16, 16, 16, 16]).unwrap(),
        ));
        let small = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[8, 8]).unwrap()));
        let r1 = TransposeRequest::new(Arc::clone(&big), Permutation::new(&[3, 1, 0, 2]).unwrap());
        let r2 = TransposeRequest::new(small, Permutation::new(&[1, 0]).unwrap());
        for _ in 0..3 {
            svc.submit(&r1).unwrap();
            svc.submit(&r2).unwrap();
        }
        // Traces carry the new attribution fields.
        let traces = svc.recent_traces(10);
        assert!(traces.iter().all(|t| t.shape_class.is_some()));
        let r4v16 = ShapeClass::of(&[16, 16, 16, 16]); // 65536 elements
        assert_eq!(r4v16.to_string(), "r4v16");
        assert!(traces.iter().any(|t| t.shape_class == Some(r4v16)));
        assert!(traces.iter().all(|t| !t.warmed), "no autotuner ran");
        // Profiles group by (schema, shape-class) and attribute phases.
        let profiles = svc.phase_profiles();
        assert!(profiles.len() >= 2, "two shape classes: {profiles:?}");
        let top = &profiles[0];
        assert_eq!(top.requests, 3);
        assert!(top.shares_at(0.99).is_some());
        let flame = svc.render_profile();
        assert!(flame.contains("execute"), "{flame}");
        assert!(flame.contains(&top.shape_class), "{flame}");
        // The slowest records were kept per bucket, with the planner
        // decision attached (retention is on by default).
        let buckets = svc.trace_store().buckets();
        assert!(buckets.len() >= 2);
        for ((schema, class), entries) in &buckets {
            assert!(!entries.is_empty(), "{schema}/{class} retained nothing");
            for e in entries {
                assert_eq!(
                    e.trace.shape_class.map(|c| c.to_string()).as_ref(),
                    Some(class)
                );
                let d = e.decision.as_ref().expect("decision trace retained");
                assert!(d.chosen.is_some());
            }
        }
        // SLO tracker saw every request.
        let slo = svc.slo_snapshot();
        assert_eq!(slo.total, 6);
        assert!(slo.hit_ratio > 0.0);
    }

    #[test]
    fn warmed_plans_tag_their_requests() {
        let svc: TransposeService<f64> =
            TransposeService::with_config(Transposer::new_k40c(), autotuned_config());
        let input = Arc::new(DenseTensor::<f64>::iota(
            ttlg_tensor::Shape::new(&[16, 16, 16, 16]).unwrap(),
        ));
        let req = TransposeRequest::new(input, Permutation::new(&[3, 1, 0, 2]).unwrap());
        svc.submit(&req).unwrap();
        svc.submit(&req).unwrap();
        assert_eq!(svc.autotune_once(), 1);
        svc.submit(&req).unwrap();
        let traces = svc.recent_traces(3);
        assert!(traces[0].warmed, "post-warming request tagged");
        assert!(!traces[1].warmed && !traces[2].warmed, "pre-warming not");
        // Satellite: the warmed plan is pinned against LRU eviction and
        // the snapshot exposes the pin count.
        let prom = svc.export_prometheus();
        assert!(prom.contains("ttlg_cache_pinned_plans 1"), "{prom}");
        let profiles = svc.phase_profiles();
        assert_eq!(profiles[0].warmed_requests, 1);
        assert_eq!(profiles[0].requests, 3);
    }

    #[test]
    fn batch_duplicates_execute_once() {
        let gate = Arc::new(Gate::default());
        let svc = gated::<u32>(&gate);
        let shape = Shape::new(&[8, 8, 8]).unwrap();
        let input = Arc::new(DenseTensor::<u32>::iota(shape));
        let perms = [[2usize, 1, 0], [1, 0, 2], [0, 2, 1]];
        // 12 requests, but only 3 unique in-flight problems: the first
        // runs held in the gate, the other two leaders wait in the queue,
        // and every duplicate shares its problem's execution.
        let reqs: Vec<TransposeRequest<u32>> = (0..12)
            .map(|i| {
                TransposeRequest::new(
                    Arc::clone(&input),
                    Permutation::new(&perms[i % perms.len()]).unwrap(),
                )
            })
            .collect();
        let outcomes = behind_held_worker(&svc, &gate, reqs.clone());
        for (req, out) in reqs.iter().zip(&outcomes) {
            let out = &out.result.as_ref().unwrap().output;
            let expect =
                ttlg_tensor::reference::transpose_reference(&req.input, &req.perm).unwrap();
            assert_eq!(out.data(), expect.data(), "coalesced copies stay correct");
        }
        // Executions: one per unique problem. Requests: all twelve.
        assert_eq!(svc.metrics().exec_latency.count(), 3);
        assert_eq!(svc.metrics().total_requests(), 12);
        assert_eq!(svc.metrics().coalesced_requests(), 9);
        let traces = svc.recent_traces(100);
        assert_eq!(traces.len(), 12);
        assert_eq!(traces.iter().filter(|t| t.coalesced).count(), 9);
        assert!(traces.iter().all(|t| t.ok && t.measured_ns > 0.0));
        let prom = svc.export_prometheus();
        assert!(prom.contains("ttlg_coalesced_requests_total 9"), "{prom}");
        assert!(prom.contains("ttlg_coalesced_ratio 0.75"), "{prom}");
    }

    /// Holds the first sink call (since it was made or re-armed) until
    /// released, so a test can attach a follower to a running leader, or
    /// queue requests behind the one worker it holds. A panicking gate
    /// panics in every call, the held one once it is released.
    #[derive(Default)]
    struct Gate {
        entered: AtomicBool,
        release: AtomicBool,
        panics: bool,
    }

    impl Gate {
        fn panicking() -> Self {
            Gate {
                panics: true,
                ..Gate::default()
            }
        }

        fn wait_entered(&self) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.entered.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        /// Hold the next call again.
        fn rearm(&self) {
            self.release.store(false, Ordering::SeqCst);
            self.entered.store(false, Ordering::SeqCst);
        }
    }

    impl MeasurementSink for Gate {
        fn observe_candidate(&self, _c: &ttlg::Candidate, _measured_ns: f64) {
            if !self.entered.swap(true, Ordering::SeqCst) {
                let deadline = Instant::now() + Duration::from_secs(10);
                while !self.release.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            if self.panics {
                panic!("sink always panics");
            }
        }
    }

    /// A one-worker service whose measurement sink is `gate`.
    fn gated<E: Element>(gate: &Arc<Gate>) -> Arc<TransposeService<E>> {
        let cfg = RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        };
        Arc::new(
            TransposeService::with_config(Transposer::new_k40c(), cfg)
                .with_measurement_sink(Arc::clone(gate) as Arc<dyn MeasurementSink>),
        )
    }

    /// A request on an input of its own, so it coalesces with nothing.
    fn blocker<E: Element>() -> TransposeRequest<E> {
        let input = DenseTensor::<E>::iota(Shape::new(&[8, 4]).unwrap());
        TransposeRequest::new(Arc::new(input), Permutation::new(&[1, 0]).unwrap())
    }

    /// Send `reqs` through `submit_async` to a [`gated`] service: the
    /// first runs held in the gate until the rest have registered, so a
    /// request follows an identical earlier one deterministically.
    /// Returns the outcomes in request order.
    fn behind_held_worker<E: Element>(
        svc: &Arc<TransposeService<E>>,
        gate: &Gate,
        reqs: Vec<TransposeRequest<E>>,
    ) -> Vec<Arc<Outcome<E>>> {
        gate.rearm();
        let mut reqs = reqs.into_iter();
        let first = reqs.next().expect("a request to hold the worker");
        let mut tickets = vec![svc.submit_async(first)];
        gate.wait_entered();
        tickets.extend(reqs.map(|r| svc.submit_async(r)));
        gate.release.store(true, Ordering::SeqCst);
        tickets.iter().map(TicketHandle::wait).collect()
    }

    fn enveloped(
        req: &TransposeRequest<f64>,
        trace_id: u128,
        tenant: &str,
    ) -> TransposeRequest<f64> {
        TransposeRequest {
            envelope: Some(Envelope {
                ctx: ttlg_obs::TraceContext {
                    trace_id,
                    parent_span_id: 1,
                    flags: 1,
                },
                request_id: format!("req-{trace_id}"),
                tenant: tenant.into(),
                priority: ttlg_obs::Priority::Batch,
                network_ns: 5,
                shed: None,
            }),
            ..req.clone()
        }
    }

    /// Each request's one record carries its own envelope: a leader's
    /// rides on its request, a coalesced follower's on its ticket,
    /// whether it follows a running leader or a queued one.
    #[test]
    fn every_record_carries_its_own_envelope() {
        let gate = Arc::new(Gate::default());
        let svc = gated::<f64>(&gate);
        let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[8, 8, 8]).unwrap()));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());

        let leader = svc.submit_async(enveloped(&req, 1, "acme"));
        gate.wait_entered();
        let follower = svc.submit_async(enveloped(&req, 2, "acme"));
        gate.release.store(true, Ordering::SeqCst);
        assert!(!leader.wait().coalesced);
        assert!(
            follower.wait().sampled.is_some(),
            "rate 1 keeps every record"
        );
        let reqs = vec![
            blocker(),
            enveloped(&req, 3, "acme"),
            enveloped(&req, 4, "acme"),
        ];
        behind_held_worker(&svc, &gate, reqs);

        let store = svc.trace_store();
        for id in 1..=4u128 {
            let rec = store.get(id).expect("recorded");
            let e = rec.envelope.as_ref().unwrap();
            assert_eq!(e.request_id, format!("req-{id}"));
            assert_eq!(rec.total_ns(), rec.trace.total_ns() + 5);
            assert_eq!(rec.trace.coalesced, id % 2 == 0, "request {id}");
        }
    }

    /// One worker serves the queued requests of two tenants in turn,
    /// whatever order they arrived in.
    #[test]
    fn submit_async_serves_tenants_round_robin() {
        let gate = Arc::new(Gate::default());
        let svc = gated::<f64>(&gate);
        // Each request on its own input: nothing coalesces.
        let req = || {
            let input = DenseTensor::<f64>::iota(Shape::new(&[8, 8, 8]).unwrap());
            TransposeRequest::new(Arc::new(input), Permutation::new(&[2, 1, 0]).unwrap())
        };
        let blocker = svc.submit_async(req());
        gate.wait_entered();
        let tickets: Vec<_> = ["a", "a", "a", "b", "b"]
            .iter()
            .enumerate()
            .map(|(i, tenant)| {
                (
                    *tenant,
                    svc.submit_async(enveloped(&req(), i as u128, tenant)),
                )
            })
            .collect();
        assert_eq!(svc.queue_stats().depth, 5);
        assert_eq!(svc.queue_stats().fullest, 3);
        gate.release.store(true, Ordering::SeqCst);
        assert!(blocker.wait().result.is_ok());
        let mut served: Vec<(u64, &str)> = tickets
            .iter()
            .map(|(tenant, t)| (t.wait().trace.id, *tenant))
            .collect();
        served.sort_unstable();
        let order: Vec<&str> = served.into_iter().map(|(_, tenant)| tenant).collect();
        assert_eq!(order, ["a", "b", "a", "b", "a"]);
        assert_eq!(svc.queue_stats().depth, 0);
    }

    #[test]
    fn submit_async_round_trips_and_never_blocks_the_caller() {
        let cfg = RuntimeConfig {
            workers: 1,
            queue_capacity: 4,
            ..RuntimeConfig::default()
        };
        let svc: Arc<TransposeService<u64>> =
            Arc::new(TransposeService::with_config(Transposer::new_k40c(), cfg));
        let input = Arc::new(DenseTensor::<u64>::iota(Shape::new(&[16, 8, 4]).unwrap()));
        let perm = Permutation::new(&[2, 0, 1]).unwrap();

        // A single round trip delivers the correct output.
        let ticket = svc.submit_async(TransposeRequest::new(Arc::clone(&input), perm.clone()));
        let out = ticket.wait();
        let resp = out.result.as_ref().expect("async round trip");
        let expect = ttlg_tensor::reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(resp.output.data(), expect.data());
        assert!(!out.coalesced);
        assert!(out.trace.ok);
        assert!(!out.spans().is_empty(), "every outcome carries its spans");

        // Bounded-time guarantee: flooding far past the submission
        // queue's capacity must never block the caller — each call
        // either enqueues or completes the ticket inline with an
        // overload error, and poll() answers immediately either way.
        // Each request gets its own copy of the input, so none coalesce.
        let tickets: Vec<_> = (0..64)
            .map(|_| {
                let own = Arc::new((*input).clone());
                let t0 = Instant::now();
                let t = svc.submit_async(TransposeRequest::new(own, perm.clone()));
                let _ = t.poll();
                assert!(
                    t0.elapsed() < Duration::from_millis(250),
                    "submit_async + poll must be bounded-time: {:?}",
                    t0.elapsed()
                );
                t
            })
            .collect();
        let mut ok = 0u64;
        let mut overloaded = 0u64;
        for t in &tickets {
            let out = t
                .wait_timeout(Duration::from_secs(10))
                .expect("every ticket completes");
            match &out.result {
                Ok(resp) => {
                    ok += 1;
                    assert_eq!(resp.output.data(), expect.data());
                }
                Err(e) => {
                    overloaded += 1;
                    assert_eq!(e.kind, ErrorKind::QueueFull, "{}", e.message);
                }
            }
        }
        let stats = svc.pipeline_stats();
        assert_eq!(stats.submitted, 65);
        assert_eq!(ok + overloaded + 1, stats.submitted);
        assert_eq!(stats.rejected, overloaded);
        assert_eq!(stats.executed, ok + 1);
        assert_eq!(stats.coalesced, 0, "distinct inputs never coalesce");
    }

    /// Satellite: 16-thread coalescing hammer. A single async worker is
    /// first pinned down by slow CPU-backend blockers, so every
    /// duplicate submitted while the blockers drain attaches to its
    /// key's single in-flight leader — exactly one execution per unique
    /// in-flight key, deterministically.
    #[test]
    fn coalescing_hammer_executes_each_inflight_key_once() {
        let cfg = RuntimeConfig {
            workers: 1,
            queue_capacity: 4096,
            ..RuntimeConfig::default()
        };
        let svc: Arc<TransposeService<f64>> =
            Arc::new(TransposeService::with_config(Transposer::new_k40c(), cfg));

        // Blockers: distinct large CPU-backend problems that keep the
        // single worker busy while the hammer threads submit.
        const BLOCKERS: usize = 3;
        let big = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[96, 96, 48]).unwrap()));
        let blocker_perms = [[2usize, 1, 0], [1, 2, 0], [2, 0, 1]];
        let blockers: Vec<_> = (0..BLOCKERS)
            .map(|b| {
                let mut req = TransposeRequest::new(
                    Arc::clone(&big),
                    Permutation::new(&blocker_perms[b]).unwrap(),
                );
                req.opts = TransposeOptions::for_backend(ttlg::Backend::Cpu);
                svc.submit_async(req)
            })
            .collect();

        // Hammer: 16 threads x 4 rounds x 3 unique problems, all
        // sharing one input Arc — 192 submissions, 3 executions.
        const THREADS: usize = 16;
        const ROUNDS: usize = 4;
        let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[8, 6, 5]).unwrap()));
        let perms = [[2usize, 1, 0], [1, 0, 2], [0, 2, 1]];
        let coalesced_seen = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let svc = Arc::clone(&svc);
                let input = Arc::clone(&input);
                let coalesced_seen = &coalesced_seen;
                s.spawn(move || {
                    let tickets: Vec<_> = (0..ROUNDS)
                        .flat_map(|_| {
                            perms.iter().map(|p| {
                                svc.submit_async(TransposeRequest::new(
                                    Arc::clone(&input),
                                    Permutation::new(p).unwrap(),
                                ))
                            })
                        })
                        .collect();
                    for (t, p) in tickets.iter().zip((0..ROUNDS).flat_map(|_| perms.iter())) {
                        let out = t
                            .wait_timeout(Duration::from_secs(30))
                            .expect("hammer ticket completes");
                        let resp = out.result.as_ref().expect("hammer request ok");
                        let perm = Permutation::new(p).unwrap();
                        let expect =
                            ttlg_tensor::reference::transpose_reference(&input, &perm).unwrap();
                        assert_eq!(
                            resp.output.data(),
                            expect.data(),
                            "every waiter gets a correct result"
                        );
                        if out.coalesced {
                            assert!(out.trace.coalesced);
                            coalesced_seen.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        for b in &blockers {
            assert!(b
                .wait_timeout(Duration::from_secs(30))
                .expect("blocker completes")
                .result
                .is_ok());
        }

        let total = (THREADS * ROUNDS * perms.len() + BLOCKERS) as u64;
        let stats = svc.pipeline_stats();
        assert_eq!(stats.submitted, total);
        assert_eq!(stats.rejected, 0);
        // Exactly one execution per unique in-flight key: the blockers
        // plus one leader per hammer problem.
        assert_eq!(stats.executed, (BLOCKERS + perms.len()) as u64);
        assert_eq!(stats.coalesced, total - stats.executed);
        assert_eq!(coalesced_seen.load(Ordering::Relaxed), stats.coalesced);
        // Metrics reconcile: every submission is a served request, the
        // coalesced counter matches, and nothing failed.
        assert_eq!(svc.metrics().total_requests(), total);
        assert_eq!(svc.metrics().coalesced_requests(), stats.coalesced);
        assert_eq!(svc.metrics().failures(), 0);
        assert_eq!(
            svc.metrics().exec_latency.count(),
            stats.executed,
            "only leaders touch the execution histograms"
        );
        let prom = svc.export_prometheus();
        assert!(prom.contains("# TYPE ttlg_coalesced_requests_total counter"));
        assert!(prom.contains("ttlg_panics_total 0"), "{prom}");
    }

    /// Measurement sink that holds the first call until released, then
    /// panics; later calls pass.
    #[derive(Default)]
    struct PanicOnce {
        calls: AtomicU64,
        entered: AtomicBool,
        release: AtomicBool,
    }

    impl MeasurementSink for PanicOnce {
        fn observe_candidate(&self, _c: &ttlg::Candidate, _measured_ns: f64) {
            if self.calls.fetch_add(1, Ordering::SeqCst) > 0 {
                return;
            }
            self.entered.store(true, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !self.release.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("injected sink panic");
        }
    }

    /// The panic boundary: a panic in the served path fails the leader
    /// and every follower with an error, keeps the worker alive, leaves
    /// no stale single-flight entry behind, and is counted.
    #[test]
    fn a_panic_fails_leader_and_followers_and_the_service_recovers() {
        let sink = Arc::new(PanicOnce::default());
        let svc: Arc<TransposeService<f64>> = Arc::new(
            TransposeService::new_k40c()
                .with_measurement_sink(Arc::clone(&sink) as Arc<dyn MeasurementSink>),
        );
        let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[16, 8, 4]).unwrap()));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 0, 1]).unwrap());

        let leader = svc.submit_async(req.clone());
        let deadline = Instant::now() + Duration::from_secs(10);
        while !sink.entered.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            sink.entered.load(Ordering::SeqCst),
            "leader reached the sink"
        );
        let follower = svc.submit_async(req.clone());
        sink.release.store(true, Ordering::SeqCst);

        for (ticket, coalesced) in [(&leader, false), (&follower, true)] {
            let out = ticket
                .wait_timeout(Duration::from_secs(10))
                .expect("a panicked run still completes its tickets");
            let err = out.result.as_ref().err().expect("the panic is an error");
            assert!(
                err.message.contains("injected sink panic"),
                "{}",
                err.message
            );
            assert_eq!(out.coalesced, coalesced);
        }
        // The worker survived and the table entry is gone: the next
        // identical request runs afresh and succeeds.
        let next = svc
            .submit_async(req.clone())
            .wait_timeout(Duration::from_secs(10))
            .expect("next request completes");
        assert!(next.result.is_ok());
        assert!(!next.coalesced);
        assert_eq!(svc.pipeline_stats().executed, 2);
        assert!(svc.submit(&req).is_ok());
        let prom = svc.export_prometheus();
        assert!(prom.contains("ttlg_panics_total 1"), "{prom}");
    }

    /// `submit` returns a panic as an error instead of unwinding into the
    /// caller.
    #[test]
    fn sync_entry_points_return_a_panic_as_an_error() {
        struct AlwaysPanics;
        impl MeasurementSink for AlwaysPanics {
            fn observe_candidate(&self, _c: &ttlg::Candidate, _measured_ns: f64) {
                panic!("sink always panics");
            }
        }
        let svc: TransposeService<u32> =
            TransposeService::new_k40c().with_measurement_sink(Arc::new(AlwaysPanics));
        let input = Arc::new(DenseTensor::<u32>::iota(Shape::new(&[8, 8, 8]).unwrap()));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());
        let err = svc.submit(&req).err().expect("the panic is an error");
        assert!(
            err.message.contains("sink always panics"),
            "{}",
            err.message
        );
        assert!(svc.submit(&req).is_err());
        assert_eq!(svc.metrics().panics(), 2, "one leader run per call");
    }

    /// The sum of one metric family's samples.
    fn family_total(snap: &MetricsSnapshot, name: &str) -> f64 {
        snap.metrics
            .iter()
            .filter(|m| m.name == name)
            .flat_map(|m| &m.samples)
            .map(|s| s.value)
            .sum()
    }

    /// Every outcome counts once: served plus failed requests, SLO
    /// records and trace-store offers each equal the outcomes returned,
    /// and the coalesced counter equals the followers.
    fn assert_reconciles<E: Element>(svc: &TransposeService<E>, outcomes: u64, followers: u64) {
        let snap = svc.metrics_snapshot();
        let served = family_total(&snap, "ttlg_requests_total");
        let failed = family_total(&snap, "ttlg_failures_total");
        assert_eq!(
            served + failed,
            outcomes as f64,
            "served {served} + failed {failed}"
        );
        for family in ["ttlg_slo_requests_total", "ttlg_trace_store_offered_total"] {
            assert_eq!(family_total(&snap, family), outcomes as f64, "{family}");
        }
        let coalesced = family_total(&snap, "ttlg_coalesced_requests_total");
        assert_eq!(coalesced, followers as f64);
    }

    /// Metrics reconcile with outcomes when a run panics, when planning
    /// fails, and when all goes well. Each probe queues its requests
    /// behind a blocker held on the one worker, and the blocker's outcome
    /// counts too.
    #[test]
    fn every_outcome_is_recorded_exactly_once() {
        let input = Arc::new(DenseTensor::<u32>::iota(Shape::new(&[8, 8, 8]).unwrap()));
        let req = TransposeRequest::new(Arc::clone(&input), Permutation::new(&[2, 1, 0]).unwrap());

        // A leader whose sink panics, and its follower; the blocker's
        // sink call panics too.
        let gate = Arc::new(Gate::panicking());
        let svc = gated::<u32>(&gate);
        let outcomes = behind_held_worker(&svc, &gate, vec![blocker(), req.clone(), req.clone()]);
        assert!(outcomes.iter().all(|o| o.result.is_err()));
        assert_reconciles(&svc, 3, 1);
        let snap = svc.metrics_snapshot();
        assert_eq!(family_total(&snap, "ttlg_failures_total"), 3.0);
        assert_eq!(family_total(&snap, "ttlg_panics_total"), 2.0);
        assert_eq!(family_total(&snap, "ttlg_prediction_samples_total"), 0.0);
        assert_eq!(family_total(&snap, "ttlg_backend_requests_total"), 0.0);

        // A plan that fails, shared by two followers.
        let gate = Arc::new(Gate::default());
        let svc = gated::<u32>(&gate);
        let mut bad = req.clone();
        bad.opts.forced_schema = Some(ttlg::Schema::Copy);
        let outcomes =
            behind_held_worker(&svc, &gate, vec![blocker(), bad.clone(), bad.clone(), bad]);
        assert!(outcomes[1..].iter().all(|o| o.result.is_err()));
        assert_reconciles(&svc, 4, 2);
        assert_eq!(svc.metrics().failures(), 3);
        assert_eq!(
            svc.metrics().plan_latency.count(),
            2,
            "the blocker's plan stage and one failed one ran"
        );

        // A clean run on the same service: four requests, two problems.
        let other = TransposeRequest::new(input, Permutation::new(&[1, 0, 2]).unwrap());
        let reqs = vec![blocker(), req.clone(), other.clone(), req, other];
        let outcomes = behind_held_worker(&svc, &gate, reqs);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        assert_reconciles(&svc, 9, 4);
        assert_eq!(svc.metrics().total_requests(), 6);
    }

    /// `submit` and `submit_async` register in one table: a `submit`
    /// that arrives while an identical `submit_async` leader waits in the
    /// queue follows it, and a `submit_async` that arrives while an
    /// identical `submit` runs follows that. Each pair runs once.
    #[test]
    fn submit_and_submit_async_follow_each_other() {
        let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[8, 8, 8]).unwrap()));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());

        // A `submit` behind a `submit_async` leader queued behind a
        // blocker.
        let gate = Arc::new(Gate::default());
        let svc = gated::<f64>(&gate);
        let held = svc.submit_async(blocker());
        gate.wait_entered();
        let queued = svc.submit_async(req.clone());
        assert_eq!(svc.queue_stats().depth, 1, "the leader waits in the queue");
        std::thread::scope(|s| {
            let sync = s.spawn(|| svc.submit(&req));
            let deadline = Instant::now() + Duration::from_secs(10);
            while svc.pipeline_stats().coalesced == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            gate.release.store(true, Ordering::SeqCst);
            let followed = sync.join().unwrap().expect("the follower is served");
            let led = queued.wait();
            assert!(!led.coalesced);
            let led = led.result.as_ref().expect("the leader is served");
            assert!(Arc::ptr_eq(led, &followed), "one shared response");
        });
        assert!(held.wait().result.is_ok());
        let stats = svc.pipeline_stats();
        assert_eq!((stats.submitted, stats.executed), (3, 2));
        assert_eq!(stats.coalesced, 1);

        // A `submit_async` while an identical `submit` runs.
        let gate = Arc::new(Gate::default());
        let svc = gated::<f64>(&gate);
        std::thread::scope(|s| {
            let sync = s.spawn(|| svc.submit(&req));
            gate.wait_entered();
            let follower = svc.submit_async(req.clone());
            gate.release.store(true, Ordering::SeqCst);
            let led = sync.join().unwrap().expect("the leader is served");
            let followed = follower.wait();
            assert!(followed.coalesced);
            let followed = followed.result.as_ref().expect("the follower is served");
            assert!(Arc::ptr_eq(followed, &led), "one shared response");
        });
        let stats = svc.pipeline_stats();
        assert_eq!((stats.submitted, stats.executed), (2, 1));
        assert_eq!(stats.coalesced, 1);
        assert_eq!(
            svc.queue_stats().depth,
            0,
            "the follower took no queue slot"
        );
    }

    /// A panic inside a tuning pass fails that key's tuning and is
    /// counted as a caught panic; the pass goes on with the next key.
    #[test]
    fn a_panicking_tuning_fails_its_key_and_the_pass_goes_on() {
        /// Panics in its first call after it is armed.
        #[derive(Default)]
        struct ArmedPanic(AtomicBool);
        impl MeasurementSink for ArmedPanic {
            fn observe_candidate(&self, _c: &ttlg::Candidate, _measured_ns: f64) {
                if self.0.swap(false, Ordering::SeqCst) {
                    panic!("injected tuning panic");
                }
            }
        }
        let sink = Arc::new(ArmedPanic::default());
        let cfg = RuntimeConfig {
            autotune: Some(1),
            ..RuntimeConfig::default()
        };
        let svc: TransposeService<f64> = TransposeService::with_config(Transposer::new_k40c(), cfg)
            .with_measurement_sink(Arc::clone(&sink) as Arc<dyn MeasurementSink>);
        let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[16, 8, 4]).unwrap()));
        for perm in [[2, 0, 1], [1, 2, 0]] {
            let perm = Permutation::new(&perm).unwrap();
            svc.submit(&TransposeRequest::new(Arc::clone(&input), perm))
                .unwrap();
        }
        sink.0.store(true, Ordering::SeqCst);
        assert_eq!(svc.autotune_once(), 2, "both hot keys were due");
        let stats = svc.autotune_stats();
        assert_eq!(stats.keys_tuned, 1);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.plans_warmed, 1);
        let prom = svc.export_prometheus();
        assert!(prom.contains("ttlg_panics_total 1"), "{prom}");
        assert_eq!(svc.autotune_once(), 0, "a failed key is not claimed again");
    }

    /// Prometheus golden test for the new SLO/profile/tail families.
    #[test]
    fn prometheus_exports_slo_and_profile_families() {
        let svc: TransposeService<f64> = TransposeService::new_k40c();
        let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[16, 16, 4]).unwrap()));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());
        svc.submit(&req).unwrap();

        let prom = svc.export_prometheus();
        for family in [
            "# TYPE ttlg_trace_store_evicted_total counter",
            "# TYPE ttlg_trace_store_resident gauge",
            "# TYPE ttlg_slo_target_us gauge",
            "# TYPE ttlg_slo_goal gauge",
            "# TYPE ttlg_slo_requests_total counter",
            "# TYPE ttlg_slo_violations_total counter",
            "# TYPE ttlg_slo_hit_ratio gauge",
            "# TYPE ttlg_profile_requests gauge",
            "# TYPE ttlg_profile_phase_ns gauge",
            "# TYPE ttlg_profile_p99_us gauge",
            "# TYPE ttlg_residual_points_total counter",
        ] {
            assert!(prom.contains(family), "missing {family}\n{prom}");
        }
        assert!(prom.contains("ttlg_slo_requests_total 1"), "{prom}");
        assert!(prom.contains("ttlg_trace_store_resident 1"), "{prom}");
        assert!(
            prom.contains("ttlg_profile_phase_ns{schema=\"Orthogonal-Distinct\""),
            "{prom}"
        );
        assert!(prom.contains("phase=\"execute\""), "{prom}");
        // Every non-comment line still parses as `name{labels} value`,
        // including the NaN sentinel for empty quantiles.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let (name_part, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name_part.is_empty());
            assert!(value.parse::<f64>().is_ok() || value == "+Inf", "{line}");
        }
    }

    #[test]
    fn snapshot_carries_uptime_build_info_and_tsdb_health() {
        let svc: TransposeService<u64> = TransposeService::new_k40c();
        let snap = svc.metrics_snapshot();
        let uptime = snap
            .metrics
            .iter()
            .find(|m| m.name == "ttlg_uptime_seconds")
            .expect("uptime exported");
        assert!(uptime.samples[0].value >= 0.0);
        let build = snap
            .metrics
            .iter()
            .find(|m| m.name == "ttlg_build_info")
            .expect("build info exported");
        assert_eq!(build.samples[0].value, 1.0);
        let labels = &build.samples[0].labels;
        assert!(labels.iter().any(|(k, v)| k == "version" && !v.is_empty()));
        assert!(labels
            .iter()
            .any(|(k, v)| k == "backend_set" && v.contains("gpu_sim") && v.contains("cpu")));
        assert!(snap
            .metrics
            .iter()
            .any(|m| m.name == "ttlg_tsdb_scrapes_total"));
    }

    #[test]
    fn manual_history_scrapes_populate_the_store() {
        let svc: TransposeService<u64> = TransposeService::new_k40c();
        let input = Arc::new(DenseTensor::<u64>::iota(Shape::new(&[8, 8, 8]).unwrap()));
        let req = TransposeRequest::new(Arc::clone(&input), Permutation::new(&[2, 1, 0]).unwrap());
        svc.scrape_history_once();
        svc.submit(&req).unwrap();
        svc.submit(&req).unwrap();
        svc.scrape_history_once();
        assert_eq!(svc.history().scrapes(), 2);
        let data = svc.history().scalar_data("ttlg_requests_total");
        assert!(!data.is_empty(), "request counter retained");
        let total: f64 = data
            .iter()
            .flat_map(|s| s.points.iter().map(|(_, v)| *v))
            .sum();
        assert_eq!(total, 2.0, "two increments across the scrapes");
    }

    #[test]
    fn history_file_restores_across_service_restarts() {
        let dir = std::env::temp_dir().join("ttlg-runtime-history-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("hist-{}.ttlg", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let svc: TransposeService<u64> = TransposeService::new_k40c();
        assert_eq!(svc.set_history_file(&path).unwrap(), 0, "fresh file");
        let input = Arc::new(DenseTensor::<u64>::iota(Shape::new(&[8, 8, 8]).unwrap()));
        let req = TransposeRequest::new(Arc::clone(&input), Permutation::new(&[2, 1, 0]).unwrap());
        svc.submit(&req).unwrap();
        svc.scrape_history_once();
        let scrapes = svc.history().scrapes();
        assert!(scrapes > 0);
        drop(svc);

        // A restarted service restores the retained series.
        let svc2: TransposeService<u64> = TransposeService::new_k40c();
        let restored = svc2.set_history_file(&path).unwrap();
        assert!(restored > 0, "series restored from disk");
        assert_eq!(svc2.history().scrapes(), scrapes);
        assert!(!svc2.history().scalar_data("ttlg_requests_total").is_empty());
        let _ = std::fs::remove_file(&path);
    }

    /// A scrape that panics is counted and skipped: the scraper thread
    /// keeps ingesting, and each ingest steps the alert engine once.
    #[test]
    fn a_panicking_scrape_leaves_the_scraper_running() {
        let mut cfg = RuntimeConfig::default();
        cfg.history.scrape_interval_ms = 5;
        let svc: Arc<TransposeService<u64>> =
            Arc::new(TransposeService::with_config(Transposer::new_k40c(), cfg));
        let panicked = Arc::new(AtomicBool::new(false));
        let once = Arc::clone(&panicked);
        svc.set_history_source(Some(Arc::new(move || {
            if !once.swap(true, Ordering::SeqCst) {
                panic!("injected scrape panic");
            }
            Some(MetricsSnapshot::new())
        })));
        svc.start_history_scraper();
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.history().scrapes() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        svc.stop_history_scraper();
        assert!(panicked.load(Ordering::SeqCst));
        assert!(
            svc.history().scrapes() >= 3,
            "the scraper stopped after a panic"
        );
        assert_eq!(svc.metrics().panics(), 1);
        assert_eq!(svc.alerts().evaluations(), svc.history().scrapes());
    }

    #[test]
    fn background_scraper_starts_stops_and_drops_cleanly() {
        let mut cfg = RuntimeConfig::default();
        cfg.history.scrape_interval_ms = 5;
        let svc: Arc<TransposeService<u64>> =
            Arc::new(TransposeService::with_config(Transposer::new_k40c(), cfg));
        svc.start_history_scraper();
        svc.start_history_scraper(); // idempotent
        let deadline = Instant::now() + Duration::from_secs(5);
        while svc.history().scrapes() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(svc.history().scrapes() >= 2, "scraper ingested snapshots");
        svc.stop_history_scraper();
        let after = svc.history().scrapes();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(svc.history().scrapes(), after, "no scrapes after stop");
        // Drop with a previously running scraper is clean (Drop joins a
        // second time harmlessly).
        drop(svc);

        // And dropping a service whose scraper is still running joins it.
        let mut cfg = RuntimeConfig::default();
        cfg.history.scrape_interval_ms = 5;
        let svc: Arc<TransposeService<u64>> =
            Arc::new(TransposeService::with_config(Transposer::new_k40c(), cfg));
        svc.start_history_scraper();
        drop(svc);
    }
}
