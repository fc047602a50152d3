//! The gateway: routing, admission, scheduling, and metrics for the
//! network edge.
//!
//! A [`Gateway`] owns one [`TransposeService`] plus the machinery that
//! stands between it and the network:
//!
//! ```text
//!   connection threads (router)          scheduler workers
//!   ---------------------------          -----------------
//!   parse HTTP -> route                  weighted dequeue
//!     POST /v1/transpose                   -> input tensor (cached)
//!       validate problem                   -> service.submit_async
//!       quota gate      -> 429             -> wait on the ticket (an
//!       queue gate      -> 429                executor worker runs it;
//!       wait completion -> 200/500/503        identical in-flight
//!                                             problems coalesce)
//!                                          -> span tree -> trace store
//!                                          -> complete slot
//!     GET /v1/explain   -> planner decision trace
//!     GET /v1/query_range -> range queries over the metrics history
//!     GET /metrics      -> Prometheus text (service + gateway)
//!     GET /healthz      -> liveness
//! ```
//!
//! A scheduler worker stays busy until its request completes, so the
//! bounded per-tenant queues fill under overload and the queue gate
//! sheds. Every admitted request carries a four-phase decomposition in its
//! response body — `network` (bytes-on-wire to parsed request), `queue`
//! (admission to dequeue), `plan` (cache fetch/build) and `execute`
//! (kernel) — the same attribution the trace ring records, extended to
//! the network edge.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ttlg::TransposeOptions;
use ttlg_obs::{
    clock_ns, eval_range, next_id, AlertEngine, AlertStatus, MetricKind, Sample, SampleReason,
    SpanNode, StoredTrace, TraceContext, TraceStore, TraceStoreConfig,
};
use ttlg_runtime::{LatencyHistogram, Outcome, TransposeRequest, TransposeService, HIST_BUCKETS};
use ttlg_tensor::{DenseTensor, Permutation, Shape};

use crate::admission::{AdmissionController, Priority, QuotaConfig, Shed, ShedReason};
use crate::http::{HttpLimits, HttpRequest, HttpResponse};
use crate::json::{self, obj, Json};
use crate::scheduler::{Scheduler, SchedulerConfig, SchedulerWorkers};

/// Gateway configuration: the edge, admission, and scheduling knobs in
/// one place.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Scheduler worker threads executing admitted requests.
    pub workers: usize,
    /// Per-tenant, per-class queue bound.
    pub queue_capacity: usize,
    /// Interactive items served per batch item under contention.
    pub interactive_weight: u32,
    /// Per-tenant token-bucket quota.
    pub quota: QuotaConfig,
    /// Hard cap on concurrent connections; excess get 503 and close.
    pub max_connections: usize,
    /// Largest tensor volume (elements) a request may ask for.
    pub max_elements: usize,
    /// HTTP parser limits (head/body size).
    pub limits: HttpLimits,
    /// How long a connection thread waits for its queued request to
    /// complete before answering 503.
    pub request_timeout_ms: u64,
    /// Keep-alive idle timeout before the server closes a connection.
    pub idle_timeout_ms: u64,
    /// Trace-store geometry and head-sampling rate.
    pub trace: TraceStoreConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 4,
            queue_capacity: 64,
            interactive_weight: 4,
            quota: QuotaConfig::default(),
            max_connections: 128,
            max_elements: 1 << 22,
            limits: HttpLimits::default(),
            request_timeout_ms: 30_000,
            idle_timeout_ms: 5_000,
            trace: TraceStoreConfig::default(),
        }
    }
}

/// Completion slot a connection thread waits on while the scheduler
/// executes its request.
struct CompletionSlot {
    state: Mutex<Option<HttpResponse>>,
    done: Condvar,
}

impl CompletionSlot {
    fn new() -> Arc<Self> {
        Arc::new(CompletionSlot {
            state: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn complete(&self, resp: HttpResponse) {
        let mut st = self.state.lock().expect("slot poisoned");
        if st.is_none() {
            *st = Some(resp);
            self.done.notify_all();
        }
    }

    fn wait(&self, timeout: Duration) -> Option<HttpResponse> {
        let mut st = self.state.lock().expect("slot poisoned");
        let deadline = Instant::now() + timeout;
        while st.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (g, _) = self
                .done
                .wait_timeout(st, left)
                .expect("slot condvar poisoned");
            st = g;
        }
        st.take()
    }
}

/// One admitted transpose request queued for a scheduler worker.
struct Job {
    tenant: String,
    class: Priority,
    extents: Vec<usize>,
    perm: Vec<usize>,
    network_ns: u64,
    enqueued: Instant,
    slot: Arc<CompletionSlot>,
    /// The W3C trace context this request runs under (inbound
    /// `traceparent`, or a fresh root).
    ctx: TraceContext,
    /// The request id echoed on the response.
    request_id: String,
}

/// Tenant label cardinality cap for per-tenant metric families; tenants
/// beyond this are folded into `_other` so the per-tenant series still
/// sum to the unlabelled totals.
const MAX_TENANT_LABELS: usize = 32;

/// The aggregation label for tenants past the first `MAX_TENANT_LABELS`
/// (32).
pub const OVERFLOW_TENANT: &str = "_other";

/// Counters and histograms for the `ttlg_gateway_*` families.
#[derive(Default)]
pub struct GatewayMetrics {
    /// Requests routed, by endpoint.
    transpose_total: AtomicU64,
    explain_total: AtomicU64,
    traces_total: AtomicU64,
    alerts_total: AtomicU64,
    query_total: AtomicU64,
    metrics_total: AtomicU64,
    healthz_total: AtomicU64,
    not_found_total: AtomicU64,
    /// Requests refused at the edge before routing (parse errors).
    parse_errors_total: AtomicU64,
    /// Sheds, by reason.
    shed_quota_total: AtomicU64,
    shed_queue_total: AtomicU64,
    /// Admitted requests that timed out waiting for completion.
    timeouts_total: AtomicU64,
    /// Connections accepted / currently open / refused at the cap.
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    connections_rejected_total: AtomicU64,
    /// Network phase (first byte to parsed request), and gateway queue
    /// phase (admission to dequeue).
    network_hist: LatencyHistogram,
    queue_hist: LatencyHistogram,
    /// Per-tenant admitted/shed counts (bounded label set).
    tenants: Mutex<HashMap<String, (u64, u64)>>,
}

impl GatewayMetrics {
    fn tenant_label(&self, tenant: &str) -> String {
        let tenants = self.tenants.lock().expect("tenant metrics poisoned");
        if tenants.contains_key(tenant) || tenants.len() < MAX_TENANT_LABELS {
            tenant.to_string()
        } else {
            OVERFLOW_TENANT.to_string()
        }
    }

    fn record_tenant(&self, tenant: &str, admitted: bool) {
        let label = self.tenant_label(tenant);
        let mut tenants = self.tenants.lock().expect("tenant metrics poisoned");
        let entry = tenants.entry(label).or_insert((0, 0));
        if admitted {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }

    /// Connection opened; pair with [`Self::connection_closed`].
    pub fn connection_opened(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Connection closed.
    pub fn connection_closed(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connection refused because the connection cap was reached.
    pub fn connection_rejected(&self) {
        self.connections_rejected_total
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A request that failed HTTP parsing.
    pub fn parse_error(&self) {
        self.parse_errors_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total sheds so far (both reasons).
    pub fn sheds(&self) -> u64 {
        self.shed_quota_total.load(Ordering::Relaxed)
            + self.shed_queue_total.load(Ordering::Relaxed)
    }

    /// Append the `ttlg_gateway_*` families to a snapshot.
    fn export_into(
        &self,
        snap: &mut ttlg_runtime::MetricsSnapshot,
        queue_depth: usize,
        queue_capacity: usize,
    ) {
        snap.push_metric(
            "ttlg_gateway_requests_total",
            "HTTP requests routed, by endpoint.",
            MetricKind::Counter,
            vec![
                Sample::labelled(
                    "endpoint",
                    "transpose",
                    self.transpose_total.load(Ordering::Relaxed) as f64,
                ),
                Sample::labelled(
                    "endpoint",
                    "explain",
                    self.explain_total.load(Ordering::Relaxed) as f64,
                ),
                Sample::labelled(
                    "endpoint",
                    "traces",
                    self.traces_total.load(Ordering::Relaxed) as f64,
                ),
                Sample::labelled(
                    "endpoint",
                    "alerts",
                    self.alerts_total.load(Ordering::Relaxed) as f64,
                ),
                Sample::labelled(
                    "endpoint",
                    "query",
                    self.query_total.load(Ordering::Relaxed) as f64,
                ),
                Sample::labelled(
                    "endpoint",
                    "metrics",
                    self.metrics_total.load(Ordering::Relaxed) as f64,
                ),
                Sample::labelled(
                    "endpoint",
                    "healthz",
                    self.healthz_total.load(Ordering::Relaxed) as f64,
                ),
                Sample::labelled(
                    "endpoint",
                    "not_found",
                    self.not_found_total.load(Ordering::Relaxed) as f64,
                ),
            ],
        );
        snap.push_metric(
            "ttlg_gateway_shed_total",
            "Requests load-shed with 429, by reason.",
            MetricKind::Counter,
            vec![
                Sample::labelled(
                    "reason",
                    ShedReason::QuotaExceeded.as_str(),
                    self.shed_quota_total.load(Ordering::Relaxed) as f64,
                ),
                Sample::labelled(
                    "reason",
                    ShedReason::QueueFull.as_str(),
                    self.shed_queue_total.load(Ordering::Relaxed) as f64,
                ),
            ],
        );
        snap.push_metric(
            "ttlg_gateway_parse_errors_total",
            "Requests rejected by the HTTP parser.",
            MetricKind::Counter,
            vec![Sample::plain(
                self.parse_errors_total.load(Ordering::Relaxed) as f64,
            )],
        );
        snap.push_metric(
            "ttlg_gateway_timeouts_total",
            "Admitted requests that timed out awaiting completion.",
            MetricKind::Counter,
            vec![Sample::plain(
                self.timeouts_total.load(Ordering::Relaxed) as f64
            )],
        );
        snap.push_metric(
            "ttlg_gateway_connections_total",
            "TCP connections accepted.",
            MetricKind::Counter,
            vec![Sample::plain(
                self.connections_total.load(Ordering::Relaxed) as f64,
            )],
        );
        snap.push_metric(
            "ttlg_gateway_connections_active",
            "TCP connections currently open.",
            MetricKind::Gauge,
            vec![Sample::plain(
                self.connections_active.load(Ordering::Relaxed) as f64,
            )],
        );
        snap.push_metric(
            "ttlg_gateway_connections_rejected_total",
            "Connections refused at the connection cap.",
            MetricKind::Counter,
            vec![Sample::plain(
                self.connections_rejected_total.load(Ordering::Relaxed) as f64,
            )],
        );
        snap.push_metric(
            "ttlg_gateway_queue_depth",
            "Requests currently queued in the scheduler.",
            MetricKind::Gauge,
            vec![Sample::plain(queue_depth as f64)],
        );
        snap.push_metric(
            "ttlg_gateway_queue_capacity",
            "Per-tenant, per-class scheduler queue bound.",
            MetricKind::Gauge,
            vec![Sample::plain(queue_capacity as f64)],
        );
        {
            let tenants = self.tenants.lock().expect("tenant metrics poisoned");
            let mut admitted = Vec::new();
            let mut shed = Vec::new();
            let mut names: Vec<_> = tenants.keys().cloned().collect();
            names.sort();
            for name in names {
                let (a, s) = tenants[&name];
                admitted.push(Sample::labelled("tenant", &name, a as f64));
                shed.push(Sample::labelled("tenant", &name, s as f64));
            }
            snap.push_metric(
                "ttlg_gateway_tenant_admitted_total",
                "Requests admitted past both gates, by tenant.",
                MetricKind::Counter,
                admitted,
            );
            snap.push_metric(
                "ttlg_gateway_tenant_shed_total",
                "Requests shed, by tenant.",
                MetricKind::Counter,
                shed,
            );
        }
        let upper_bounds: Vec<f64> = (1..HIST_BUCKETS).map(|i| (1u64 << i) as f64).collect();
        for (hist, name, help) in [
            (
                &self.network_hist,
                "ttlg_gateway_network_us",
                "Network phase: first byte on the wire to parsed request, microseconds.",
            ),
            (
                &self.queue_hist,
                "ttlg_gateway_queue_us",
                "Gateway queue phase: admission to scheduler dequeue, microseconds.",
            ),
        ] {
            snap.push_histogram(
                name,
                help,
                Vec::new(),
                upper_bounds.clone(),
                hist.bucket_counts(),
                hist.total_ns() as f64 / 1e3,
            );
        }
    }
}

/// The network-facing gateway around a [`TransposeService`].
pub struct Gateway {
    cfg: GatewayConfig,
    service: Arc<TransposeService<f64>>,
    admission: AdmissionController,
    scheduler: Arc<Scheduler<Job>>,
    workers: Mutex<Option<SchedulerWorkers>>,
    metrics: GatewayMetrics,
    /// Sampled request span trees, bounded and queryable.
    traces: TraceStore,
    /// Declarative alert rules evaluated over the merged snapshot.
    alerts: AlertEngine,
    /// Input tensors cached by extents so repeated problems don't
    /// re-materialize (bounded; cleared wholesale when full).
    inputs: Mutex<HashMap<Vec<usize>, Arc<DenseTensor<f64>>>>,
}

const MAX_CACHED_INPUTS: usize = 32;

impl Gateway {
    /// Build a gateway around `service` and start its scheduler
    /// workers.
    pub fn start(service: Arc<TransposeService<f64>>, cfg: GatewayConfig) -> Arc<Gateway> {
        let scheduler = Arc::new(Scheduler::new(SchedulerConfig {
            workers: cfg.workers,
            queue_capacity: cfg.queue_capacity,
            interactive_weight: cfg.interactive_weight,
        }));
        let gw = Arc::new(Gateway {
            admission: AdmissionController::new(cfg.quota),
            scheduler: Arc::clone(&scheduler),
            workers: Mutex::new(None),
            metrics: GatewayMetrics::default(),
            traces: TraceStore::new(cfg.trace),
            alerts: AlertEngine::with_default_rules(),
            inputs: Mutex::new(HashMap::new()),
            service,
            cfg,
        });
        let worker_gw = Arc::clone(&gw);
        let workers = scheduler.start_workers(move |job| worker_gw.execute_job(job));
        *gw.workers.lock().expect("workers poisoned") = Some(workers);
        if gw.service.history_config().enabled {
            // Scrape the *merged* snapshot (service + gateway + trace
            // store) so the history covers the `ttlg_gateway_*`
            // families too, and seed the alert baselines from whatever
            // history survived a restart so the engine's first
            // evaluation doesn't treat all-time totals as fresh deltas.
            let scrape_gw = Arc::downgrade(&gw);
            gw.service.set_history_source(Some(Arc::new(move || {
                scrape_gw.upgrade().map(|gw| gw.merged_snapshot())
            })));
            gw.alerts.seed_from_history(gw.service.history());
            gw.service.start_history_scraper();
        }
        gw
    }

    /// The gateway's config.
    pub fn config(&self) -> &GatewayConfig {
        &self.cfg
    }

    /// The gateway's metric counters.
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.metrics
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<TransposeService<f64>> {
        &self.service
    }

    /// The sampled-trace store.
    pub fn trace_store(&self) -> &TraceStore {
        &self.traces
    }

    /// The alert engine.
    pub fn alerts(&self) -> &AlertEngine {
        &self.alerts
    }

    /// Advance the alert engine one evaluation over the current merged
    /// snapshot (service + gateway + trace store) and return the
    /// per-rule statuses.
    pub fn evaluate_alerts(&self) -> Vec<AlertStatus> {
        let snap = self.merged_snapshot();
        self.alerts
            .evaluate_with_history(&snap, Some(self.service.history()))
    }

    fn merged_snapshot(&self) -> ttlg_runtime::MetricsSnapshot {
        let mut snap = self.service.metrics_snapshot();
        self.metrics
            .export_into(&mut snap, self.scheduler.depth(), self.cfg.queue_capacity);
        self.traces.export_into(&mut snap);
        // Sampling loss must never be invisible: the trace-drop alert
        // rule sums over `ttlg_trace_dropped_total`, which the service
        // snapshot already carries for its trace-ring. Store evictions
        // join the same family as a second series rather than a
        // duplicate family (two `# TYPE` blocks would be invalid
        // exposition, and the rule only reads the first).
        let store = Sample::labelled("source", "trace-store", self.traces.evicted() as f64);
        if let Some(m) = snap
            .metrics
            .iter_mut()
            .find(|m| m.name == "ttlg_trace_dropped_total")
        {
            m.samples.push(store);
        } else {
            snap.push_metric(
                "ttlg_trace_dropped_total",
                "Sampled traces dropped before they could be read.",
                MetricKind::Counter,
                vec![store],
            );
        }
        snap
    }

    /// Stop the scheduler, fail anything still queued with 503, and
    /// join the workers. Idempotent.
    pub fn stop(&self) {
        self.service.stop_history_scraper();
        self.service.set_history_source(None);
        for job in self.scheduler.stop() {
            job.slot
                .complete(HttpResponse::error(503, "gateway shutting down"));
        }
        if let Some(mut workers) = self.workers.lock().expect("workers poisoned").take() {
            workers.join();
        }
    }

    /// Route one parsed request. `network_ns` is the edge's measured
    /// first-byte-to-parse time for this request.
    ///
    /// Every response — success, shed, or error — carries the request's
    /// `x-request-id` (inbound value echoed, or a fresh id) and a
    /// `traceparent` continuing the inbound W3C trace context (or a new
    /// root when none arrived).
    pub fn handle(&self, req: &HttpRequest, network_ns: u64) -> HttpResponse {
        self.metrics.network_hist.record_ns(network_ns);
        let ctx = req
            .header("traceparent")
            .and_then(TraceContext::parse)
            .unwrap_or_else(TraceContext::generate);
        let request_id = req
            .header("x-request-id")
            .and_then(sanitize_request_id)
            .unwrap_or_else(|| format!("{:016x}", next_id()));
        let resp = self.route(req, network_ns, ctx, &request_id);
        resp.with_header("x-request-id", request_id)
            .with_header("traceparent", ctx.traceparent(next_id()))
    }

    fn route(
        &self,
        req: &HttpRequest,
        network_ns: u64,
        ctx: TraceContext,
        request_id: &str,
    ) -> HttpResponse {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/transpose") => {
                self.metrics.transpose_total.fetch_add(1, Ordering::Relaxed);
                self.handle_transpose(req, network_ns, ctx, request_id)
            }
            ("GET", "/v1/explain") => {
                self.metrics.explain_total.fetch_add(1, Ordering::Relaxed);
                self.handle_explain(req)
            }
            ("GET", "/v1/traces") => {
                self.metrics.traces_total.fetch_add(1, Ordering::Relaxed);
                self.handle_traces_list(req)
            }
            ("GET", "/v1/alerts") => {
                self.metrics.alerts_total.fetch_add(1, Ordering::Relaxed);
                self.handle_alerts()
            }
            ("GET", "/v1/query_range") => {
                self.metrics.query_total.fetch_add(1, Ordering::Relaxed);
                self.handle_query_range(req)
            }
            ("GET", "/metrics") => {
                self.metrics.metrics_total.fetch_add(1, Ordering::Relaxed);
                HttpResponse::text(self.export_prometheus())
            }
            ("GET", "/healthz") => {
                self.metrics.healthz_total.fetch_add(1, Ordering::Relaxed);
                self.handle_healthz()
            }
            ("GET", path) if path.starts_with("/v1/trace/") => {
                self.metrics.traces_total.fetch_add(1, Ordering::Relaxed);
                self.handle_trace_get(&path["/v1/trace/".len()..], req)
            }
            _ => {
                self.metrics.not_found_total.fetch_add(1, Ordering::Relaxed);
                HttpResponse::error(404, format!("no route for {} {}", req.method, req.path))
            }
        }
    }

    /// Prometheus text: the service's full snapshot plus the
    /// `ttlg_gateway_*`, trace-store, and alert families. Each scrape
    /// also advances the alert engine one evaluation, so the exported
    /// `ttlg_alerts_firing` gauges are fresh at scrape cadence.
    pub fn export_prometheus(&self) -> String {
        let mut snap = self.merged_snapshot();
        self.alerts
            .evaluate_with_history(&snap, Some(self.service.history()));
        self.alerts.export_into(&mut snap);
        ttlg_obs::prom::render(&snap)
    }

    /// Liveness gated on readiness: 503 while any critical alert rule
    /// is firing (as of the last evaluation), naming the firing rules.
    fn handle_healthz(&self) -> HttpResponse {
        let firing: Vec<Json> = self
            .alerts
            .status()
            .into_iter()
            .filter(|s| s.critical && s.state == ttlg_obs::AlertState::Firing)
            .map(|s| Json::Str(s.name.to_string()))
            .collect();
        if firing.is_empty() {
            HttpResponse::json(obj(vec![("ok", Json::Bool(true))]).render())
        } else {
            HttpResponse::json(
                obj(vec![
                    ("ok", Json::Bool(false)),
                    ("critical_alerts", Json::Arr(firing)),
                ])
                .render(),
            )
            .with_status(503)
        }
    }

    fn handle_transpose(
        &self,
        req: &HttpRequest,
        network_ns: u64,
        ctx: TraceContext,
        request_id: &str,
    ) -> HttpResponse {
        // -- validate ---------------------------------------------------
        let body = match json::parse(&req.body) {
            Ok(v) => v,
            Err(e) => return HttpResponse::error(400, format!("bad JSON: {e}")),
        };
        let extents = match body.get("extents").and_then(|v| v.as_usize_array()) {
            Some(e) if !e.is_empty() => e,
            _ => return HttpResponse::error(400, "body needs a non-empty \"extents\" array"),
        };
        let perm = match body.get("perm").and_then(|v| v.as_usize_array()) {
            Some(p) => p,
            None => return HttpResponse::error(400, "body needs a \"perm\" array"),
        };
        if Shape::new(&extents).is_err() {
            return HttpResponse::error(400, "invalid extents");
        }
        if perm.len() != extents.len() || Permutation::new(&perm).is_err() {
            return HttpResponse::error(400, "perm must be a permutation of 0..rank");
        }
        let volume: usize = extents.iter().product();
        if volume > self.cfg.max_elements {
            return HttpResponse::error(
                413,
                format!(
                    "tensor volume {volume} exceeds gateway limit {}",
                    self.cfg.max_elements
                ),
            );
        }

        // -- classify ---------------------------------------------------
        let tenant = sanitize_tenant(
            req.header("x-ttlg-tenant")
                .or_else(|| body.get("tenant").and_then(|t| t.as_str()))
                .unwrap_or("anonymous"),
        );
        let class = match req.header("x-ttlg-priority") {
            None => Priority::Interactive,
            Some(v) => match Priority::parse(v) {
                Some(c) => c,
                None => {
                    return HttpResponse::error(
                        400,
                        "x-ttlg-priority must be \"interactive\" or \"batch\"",
                    )
                }
            },
        };

        // -- admit ------------------------------------------------------
        if let Err(shed) = self.admission.check_quota(&tenant) {
            return self.shed_response(&tenant, shed, ctx, request_id, network_ns);
        }
        let slot = CompletionSlot::new();
        let job = Job {
            tenant: tenant.clone(),
            class,
            extents,
            perm,
            network_ns,
            enqueued: Instant::now(),
            slot: Arc::clone(&slot),
            ctx,
            request_id: request_id.to_string(),
        };
        if self.scheduler.try_enqueue(&tenant, class, job).is_err() {
            return self.shed_response(
                &tenant,
                Shed {
                    reason: ShedReason::QueueFull,
                    retry_after_secs: 1,
                },
                ctx,
                request_id,
                network_ns,
            );
        }
        self.metrics.record_tenant(&tenant, true);

        // -- wait -------------------------------------------------------
        match slot.wait(Duration::from_millis(self.cfg.request_timeout_ms)) {
            Some(resp) => resp,
            None => {
                self.metrics.timeouts_total.fetch_add(1, Ordering::Relaxed);
                HttpResponse::error(503, "request timed out in the gateway")
            }
        }
    }

    /// Scheduler-worker side: materialize the input, hand the request
    /// to the service's executor, and wait for its outcome. The worker
    /// stays busy meanwhile, so the scheduler decides execution order and
    /// its bounded queues shed under overload. Identical in-flight
    /// problems coalesce onto one plan and one execution.
    fn execute_job(&self, job: Job) {
        let queue_ns = job.enqueued.elapsed().as_nanos() as u64;
        self.metrics.queue_hist.record_ns(queue_ns);
        let input = self.input_for(&job.extents);
        let perm = Permutation::new(&job.perm).expect("perm validated at admission");
        let out = self
            .service
            .submit_async(TransposeRequest::new(input, perm))
            .wait();
        self.finish_job(job, queue_ns, &out);
    }

    /// Build the HTTP response for a finished (possibly shared) run,
    /// offer the span tree to the trace store, and complete the
    /// connection thread's slot.
    fn finish_job(&self, job: Job, queue_ns: u64, out: &Outcome<f64>) {
        let trace = &out.trace;
        let result = &out.result;

        let total_ns = job.network_ns + queue_ns + trace.total_ns();
        let slo_target_ns = (self.service.slo_config().target_us * 1e3) as u64;
        let forced = if result.is_err() {
            Some(SampleReason::Error)
        } else if total_ns > slo_target_ns {
            Some(SampleReason::SloMiss)
        } else {
            None
        };
        // An unsampled inbound flag suppresses head sampling but never
        // tail forcing: errors and SLO misses are always kept.
        let reason = if job.ctx.sampled() || forced.is_some() {
            self.traces.sample_decision(job.ctx.trace_id, forced)
        } else {
            None
        };
        let sampled = reason.is_some();
        if let Some(reason) = reason {
            // Root starts when the first byte hit the wire; the service's
            // trace starts when the request was submitted after dequeue.
            let root_start = trace.start_ns.saturating_sub(job.network_ns + queue_ns);
            let mut root = SpanNode::new("request", root_start, total_ns)
                .with_attr("tenant", job.tenant.clone())
                .with_attr("priority", job.class.as_str())
                .with_child(SpanNode::new("network", root_start, job.network_ns))
                .with_child(SpanNode::new(
                    "gateway-queue",
                    root_start + job.network_ns,
                    queue_ns,
                ));
            for span in out.spans() {
                root = root.with_child(span);
            }
            self.traces.insert(StoredTrace {
                trace_id: job.ctx.trace_id_hex(),
                request_id: job.request_id.clone(),
                tenant: job.tenant.clone(),
                status: if result.is_ok() { 200 } else { 500 },
                reason,
                start_ns: root_start,
                total_ns,
                root,
                decision: out.decision().map(|d| d.render()),
            });
        }

        let resp = match result {
            Ok(r) => {
                let phases = obj(vec![
                    ("network_us", Json::Num(job.network_ns as f64 / 1e3)),
                    ("queue_us", Json::Num(queue_ns as f64 / 1e3)),
                    ("plan_us", Json::Num(trace.plan_fetch_ns as f64 / 1e3)),
                    (
                        "execute_us",
                        Json::Num((trace.queue_wait_ns + trace.execute_ns) as f64 / 1e3),
                    ),
                ]);
                HttpResponse::json(
                    obj(vec![
                        ("ok", Json::Bool(true)),
                        ("tenant", Json::Str(job.tenant.clone())),
                        ("priority", Json::Str(job.class.as_str().to_string())),
                        ("schema", Json::Str(r.report.schema.to_string())),
                        ("elements", Json::Num(r.output.volume() as f64)),
                        ("cache_hit", Json::Bool(trace.cache_hit == Some(true))),
                        ("warmed", Json::Bool(trace.warmed)),
                        ("coalesced", Json::Bool(out.coalesced)),
                        ("kernel_us", Json::Num(r.report.kernel_time_ns / 1e3)),
                        ("predicted_us", Json::Num(r.report.predicted_ns / 1e3)),
                        ("bandwidth_gbps", Json::Num(r.report.bandwidth_gbps)),
                        ("trace_id", Json::Str(job.ctx.trace_id_hex())),
                        ("request_id", Json::Str(job.request_id.clone())),
                        ("sampled", Json::Bool(sampled)),
                        ("phases", phases),
                    ])
                    .render(),
                )
            }
            Err(e) => HttpResponse::error(500, e.message.clone()),
        };
        job.slot.complete(resp);
    }

    fn shed_response(
        &self,
        tenant: &str,
        shed: Shed,
        ctx: TraceContext,
        request_id: &str,
        network_ns: u64,
    ) -> HttpResponse {
        match shed.reason {
            ShedReason::QuotaExceeded => self
                .metrics
                .shed_quota_total
                .fetch_add(1, Ordering::Relaxed),
            ShedReason::QueueFull => self
                .metrics
                .shed_queue_total
                .fetch_add(1, Ordering::Relaxed),
        };
        self.metrics.record_tenant(tenant, false);
        // Sheds are always trace-worthy: force-sample a minimal tree so
        // overload leaves evidence even at low head-sampling rates.
        if let Some(reason) = self
            .traces
            .sample_decision(ctx.trace_id, Some(SampleReason::Shed))
        {
            let now = clock_ns();
            let start = now.saturating_sub(network_ns);
            self.traces.insert(StoredTrace {
                trace_id: ctx.trace_id_hex(),
                request_id: request_id.to_string(),
                tenant: tenant.to_string(),
                status: 429,
                reason,
                start_ns: start,
                total_ns: network_ns,
                root: SpanNode::new("request", start, network_ns)
                    .with_attr("tenant", tenant)
                    .with_attr("shed", shed.reason.as_str())
                    .with_child(SpanNode::new("network", start, network_ns)),
                decision: None,
            });
        }
        HttpResponse::json(
            obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::Str("shed".to_string())),
                ("reason", Json::Str(shed.reason.as_str().to_string())),
                ("retry_after_secs", Json::Num(shed.retry_after_secs as f64)),
                ("trace_id", Json::Str(ctx.trace_id_hex())),
            ])
            .render(),
        )
        .with_status(429)
        .with_header("retry-after", shed.retry_after_secs.to_string())
    }

    /// `GET /v1/trace/:id` — one stored trace as a JSON span tree, or
    /// as the flame-style text rendering with `?format=flame`.
    fn handle_trace_get(&self, id: &str, req: &HttpRequest) -> HttpResponse {
        let Some(stored) = self.traces.get(id) else {
            return HttpResponse::error(404, format!("no sampled trace {id}"));
        };
        if req.query_param("format") == Some("flame") {
            let mut text = format!(
                "trace {} request {} tenant {} status {} reason {} total {:.1} us\n\n",
                stored.trace_id,
                stored.request_id,
                stored.tenant,
                stored.status,
                stored.reason.as_str(),
                stored.total_ns as f64 / 1e3,
            );
            text.push_str(&stored.root.render());
            if let Some(decision) = &stored.decision {
                text.push('\n');
                text.push_str(decision);
            }
            return HttpResponse::text(text);
        }
        HttpResponse::json(trace_json(&stored).render())
    }

    /// `GET /v1/traces?slowest=N` (or `?recent=N`) — stored-trace
    /// summaries, slowest-first or newest-first.
    fn handle_traces_list(&self, req: &HttpRequest) -> HttpResponse {
        let parse_n = |v: Option<&str>| v.and_then(|s| s.parse::<usize>().ok());
        let (traces, order) = if let Some(n) = parse_n(req.query_param("slowest")) {
            (self.traces.slowest(n), "slowest")
        } else {
            let n = parse_n(req.query_param("recent")).unwrap_or(10);
            (self.traces.recent(n), "recent")
        };
        let items: Vec<Json> = traces
            .iter()
            .map(|t| {
                obj(vec![
                    ("trace_id", Json::Str(t.trace_id.clone())),
                    ("request_id", Json::Str(t.request_id.clone())),
                    ("tenant", Json::Str(t.tenant.clone())),
                    ("status", Json::Num(t.status as f64)),
                    ("reason", Json::Str(t.reason.as_str().to_string())),
                    ("total_us", Json::Num(t.total_ns as f64 / 1e3)),
                    ("spans", Json::Num(t.root.span_count() as f64)),
                ])
            })
            .collect();
        HttpResponse::json(
            obj(vec![
                ("order", Json::Str(order.to_string())),
                ("resident", Json::Num(self.traces.resident() as f64)),
                ("sampled_total", Json::Num(self.traces.sampled() as f64)),
                ("traces", Json::Arr(items)),
            ])
            .render(),
        )
    }

    /// `GET /v1/alerts` — evaluate the rules now and report each rule's
    /// state machine.
    fn handle_alerts(&self) -> HttpResponse {
        let statuses = self.evaluate_alerts();
        let any_critical = statuses
            .iter()
            .any(|s| s.critical && s.state == ttlg_obs::AlertState::Firing);
        let rules: Vec<Json> = statuses
            .into_iter()
            .map(|s| {
                obj(vec![
                    ("rule", Json::Str(s.name.to_string())),
                    ("help", Json::Str(s.help.to_string())),
                    ("state", Json::Str(s.state.as_str().to_string())),
                    ("value", s.value.map(Json::Num).unwrap_or(Json::Null)),
                    ("threshold", Json::Num(s.threshold)),
                    ("critical", Json::Bool(s.critical)),
                    ("fired_count", Json::Num(s.fired_count as f64)),
                ])
            })
            .collect();
        HttpResponse::json(
            obj(vec![
                ("evaluations", Json::Num(self.alerts.evaluations() as f64)),
                ("any_critical_firing", Json::Bool(any_critical)),
                ("rules", Json::Arr(rules)),
            ])
            .render(),
        )
    }

    /// `GET /v1/query_range?series=EXPR&window=10m&step=10s` — evaluate
    /// a range query (`rate` / `increase` / `avg|max_over_time` /
    /// `quantile_over_time` / `sum`) over the service's retained
    /// metrics history and return the per-series point grids as JSON.
    fn handle_query_range(&self, req: &HttpRequest) -> HttpResponse {
        let Some(raw) = req.query_param("series") else {
            return HttpResponse::error(
                400,
                "query needs series=EXPR, e.g. series=rate(ttlg_requests_total)",
            );
        };
        let expr = percent_decode(raw);
        let window_ms = match req.query_param("window").map(parse_duration_ms) {
            None => 600_000,
            Some(Some(ms)) if ms > 0 => ms,
            _ => return HttpResponse::error(400, "window must be a duration like 500ms, 90s, 10m"),
        };
        let step_ms = match req.query_param("step").map(parse_duration_ms) {
            None => (window_ms / 60).max(1_000),
            Some(Some(ms)) if ms > 0 => ms,
            _ => return HttpResponse::error(400, "step must be a duration like 1s, 30s"),
        };
        if step_ms > window_ms {
            return HttpResponse::error(400, "step must not exceed window");
        }
        if window_ms / step_ms > 5_000 {
            return HttpResponse::error(400, "window/step asks for too many points (max 5000)");
        }
        let store = self.service.history();
        // Anchor the grid to the last scrape so queries stay stable
        // between scrapes; fall back to the wall clock before the first
        // scrape lands (the result is just empty series then).
        let end_ms = store.last_ingest_ms().unwrap_or_else(|| {
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0)
        });
        match eval_range(store, &expr, end_ms, window_ms, step_ms) {
            Ok(result) => {
                let series: Vec<Json> = result
                    .series
                    .iter()
                    .map(|s| {
                        obj(vec![
                            (
                                "labels",
                                Json::Obj(
                                    s.labels
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                        .collect(),
                                ),
                            ),
                            (
                                "points",
                                Json::Arr(
                                    s.points
                                        .iter()
                                        .map(|&(t, v)| {
                                            Json::Arr(vec![Json::Num(t as f64), Json::Num(v)])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                HttpResponse::json(
                    obj(vec![
                        ("query", Json::Str(expr)),
                        ("end_ms", Json::Num(end_ms as f64)),
                        ("window_ms", Json::Num(window_ms as f64)),
                        ("step_ms", Json::Num(step_ms as f64)),
                        ("series", Json::Arr(series)),
                    ])
                    .render(),
                )
            }
            Err(e) => HttpResponse::error(400, format!("bad query: {e}")),
        }
    }

    fn handle_explain(&self, req: &HttpRequest) -> HttpResponse {
        let extents = match req.query_param("extents").map(parse_usize_list) {
            Some(Some(e)) if !e.is_empty() => e,
            _ => return HttpResponse::error(400, "query needs extents=N,N,..."),
        };
        let perm = match req.query_param("perm").map(parse_usize_list) {
            Some(Some(p)) => p,
            _ => return HttpResponse::error(400, "query needs perm=N,N,..."),
        };
        let shape = match Shape::new(&extents) {
            Ok(s) => s,
            Err(e) => return HttpResponse::error(400, format!("invalid extents: {e}")),
        };
        let perm = match Permutation::new(&perm) {
            Ok(p) if p.rank() == shape.rank() => p,
            _ => return HttpResponse::error(400, "perm must be a permutation of 0..rank"),
        };
        match self.service.transposer().plan_traced::<f64>(
            &shape,
            &perm,
            &TransposeOptions::default(),
        ) {
            Ok((_, trace)) => HttpResponse::text(trace.render()),
            Err(e) => HttpResponse::error(422, format!("planning failed: {e}")),
        }
    }

    fn input_for(&self, extents: &[usize]) -> Arc<DenseTensor<f64>> {
        let mut inputs = self.inputs.lock().expect("input cache poisoned");
        if let Some(t) = inputs.get(extents) {
            return Arc::clone(t);
        }
        if inputs.len() >= MAX_CACHED_INPUTS {
            inputs.clear();
        }
        let shape = Shape::new(extents).expect("extents validated at admission");
        let t = Arc::new(DenseTensor::<f64>::iota(shape));
        inputs.insert(extents.to_vec(), Arc::clone(&t));
        t
    }
}

/// A stored trace as a JSON document (root span tree included).
fn trace_json(t: &StoredTrace) -> Json {
    obj(vec![
        ("trace_id", Json::Str(t.trace_id.clone())),
        ("request_id", Json::Str(t.request_id.clone())),
        ("tenant", Json::Str(t.tenant.clone())),
        ("status", Json::Num(t.status as f64)),
        ("reason", Json::Str(t.reason.as_str().to_string())),
        ("total_us", Json::Num(t.total_ns as f64 / 1e3)),
        ("root", span_json(&t.root)),
        (
            "decision",
            t.decision
                .as_ref()
                .map(|d| Json::Str(d.clone()))
                .unwrap_or(Json::Null),
        ),
    ])
}

/// One span node (recursive) as JSON.
fn span_json(s: &SpanNode) -> Json {
    obj(vec![
        ("name", Json::Str(s.name.clone())),
        ("start_ns", Json::Num(s.start_ns as f64)),
        ("duration_us", Json::Num(s.duration_ns as f64 / 1e3)),
        (
            "attrs",
            Json::Obj(
                s.attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "children",
            Json::Arr(s.children.iter().map(span_json).collect()),
        ),
    ])
}

/// Accept a client-supplied request id only if it is header-safe:
/// visible ASCII, no separators that could smuggle header lines, at
/// most 128 chars.
fn sanitize_request_id(raw: &str) -> Option<String> {
    let ok = !raw.is_empty()
        && raw.len() <= 128
        && raw
            .chars()
            .all(|c| c.is_ascii_graphic() && c != '"' && c != ',');
    ok.then(|| raw.to_string())
}

/// Clamp a tenant id to a safe label: ASCII alphanumerics, `-`, `_`,
/// `.`, at most 64 chars; anything else becomes `invalid`.
fn sanitize_tenant(raw: &str) -> String {
    let ok = !raw.is_empty()
        && raw.len() <= 64
        && raw
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if ok {
        raw.to_string()
    } else {
        "invalid".to_string()
    }
}

/// Parse `"500ms"` / `"90s"` / `"10m"` / `"4h"` into milliseconds;
/// bare numbers are seconds.
fn parse_duration_ms(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, scale) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1u64)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix('m') {
        (n, 60_000)
    } else if let Some(n) = s.strip_suffix('h') {
        (n, 3_600_000)
    } else {
        (s, 1_000)
    };
    let v: f64 = num.trim().parse().ok()?;
    (v.is_finite() && v >= 0.0).then_some((v * scale as f64) as u64)
}

/// Minimal percent-decoding for query expressions (`%7B` → `{`, `+` →
/// space); malformed escapes pass through literally.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse `"16,8,4"` into `[16, 8, 4]`.
fn parse_usize_list(s: &str) -> Option<Vec<usize>> {
    s.split(',')
        .map(|p| p.trim().parse::<usize>().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_request;
    use ttlg::Transposer;
    use ttlg_runtime::{RuntimeConfig, SloConfig};

    fn gateway(cfg: GatewayConfig) -> Arc<Gateway> {
        Gateway::start(Arc::new(TransposeService::new_k40c()), cfg)
    }

    fn header<'a>(resp: &'a HttpResponse, name: &str) -> Option<&'a str> {
        resp.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn post_transpose(body: &str, headers: &[(&str, &str)]) -> HttpRequest {
        let mut raw = format!(
            "POST /v1/transpose HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n",
            body.len()
        );
        for (k, v) in headers {
            raw.push_str(&format!("{k}: {v}\r\n"));
        }
        raw.push_str("\r\n");
        raw.push_str(body);
        parse_request(raw.as_bytes(), &HttpLimits::default())
            .unwrap()
            .unwrap()
            .0
    }

    fn get(path: &str) -> HttpRequest {
        let raw = format!("GET {path} HTTP/1.1\r\nhost: x\r\n\r\n");
        parse_request(raw.as_bytes(), &HttpLimits::default())
            .unwrap()
            .unwrap()
            .0
    }

    #[test]
    fn transpose_round_trip_reports_phases() {
        let gw = gateway(GatewayConfig::default());
        let req = post_transpose(r#"{"extents":[16,8,4],"perm":[2,0,1]}"#, &[]);
        let resp = gw.handle(&req, 1_000);
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let body = json::parse(&resp.body).unwrap();
        assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(body.get("elements").and_then(|v| v.as_usize()), Some(512));
        let phases = body.get("phases").expect("phases present");
        for key in ["network_us", "queue_us", "plan_us", "execute_us"] {
            assert!(phases.get(key).and_then(|v| v.as_f64()).is_some(), "{key}");
        }
        // A lone request has nothing to coalesce with, but the field is
        // always present so clients can tell shared executions apart.
        assert_eq!(body.get("coalesced"), Some(&Json::Bool(false)));
        gw.stop();
    }

    /// Duplicate identical problems pushed through the gateway while
    /// the async workers are saturated share one execution: the service
    /// reports fewer executions than requests and the coalesced counter
    /// makes up the difference.
    #[test]
    fn gateway_coalesces_duplicate_inflight_requests() {
        let cfg = GatewayConfig {
            workers: 2,
            queue_capacity: 256,
            quota: QuotaConfig {
                rate_per_sec: 100_000.0,
                burst: 100_000.0,
                ..QuotaConfig::default()
            },
            ..GatewayConfig::default()
        };
        let gw = gateway(cfg);
        const CLIENTS: usize = 8;
        const PER_CLIENT: usize = 16;
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                let gw = Arc::clone(&gw);
                s.spawn(move || {
                    for _ in 0..PER_CLIENT {
                        let req = post_transpose(r#"{"extents":[32,16,8],"perm":[2,0,1]}"#, &[]);
                        let resp = gw.handle(&req, 500);
                        assert_eq!(resp.status, 200);
                        let body = json::parse(&resp.body).unwrap();
                        assert!(body.get("coalesced").is_some());
                    }
                });
            }
        });
        let svc = gw.service();
        let total = (CLIENTS * PER_CLIENT) as u64;
        assert_eq!(svc.metrics().total_requests(), total);
        let stats = svc.pipeline_stats();
        assert_eq!(stats.submitted, total);
        assert_eq!(stats.executed + stats.coalesced, total);
        assert_eq!(svc.metrics().coalesced_requests(), stats.coalesced);
        // All 128 requests are the same problem on the same cached
        // input, so every overlap in flight coalesces.
        assert!(
            stats.executed < total,
            "expected some coalescing, executed={} of {}",
            stats.executed,
            total
        );
        let prom = gw.export_prometheus();
        assert!(prom.contains("# TYPE ttlg_coalesced_requests_total counter"));
        gw.stop();
    }

    /// The scheduler bounds admitted work: with one worker and a queue
    /// of one, while a request runs and one waits, every further request
    /// of the tenant is shed with 429 and `Retry-After`, never admitted
    /// and never a 500.
    #[test]
    fn queue_bound_sheds_while_the_worker_runs() {
        let gw = gateway(GatewayConfig {
            workers: 1,
            queue_capacity: 1,
            max_elements: 1 << 19,
            quota: QuotaConfig {
                rate_per_sec: 1e9,
                burst: 1e9,
                max_tenants: 8,
            },
            ..GatewayConfig::default()
        });
        // Distinct problems at the volume limit (2^19 elements): none
        // coalesce, and each runs for tens of milliseconds.
        let send = |p: &str| {
            let body = format!(r#"{{"extents":[128,64,64],"perm":[{p}]}}"#);
            gw.handle(&post_transpose(&body, &[("x-ttlg-tenant", "solo")]), 0)
        };
        // Build the gateway's input tensor for these extents first, so
        // the requests below spend their time in the service.
        assert_eq!(send("0,1,2").status, 200);
        let base = gw.service().pipeline_stats().submitted;
        let perms = ["2,1,0", "1,2,0", "2,0,1", "0,2,1", "1,0,2"];
        let wait_until = |done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
        };
        std::thread::scope(|s| {
            let running = s.spawn(|| send(perms[0]));
            wait_until(&|| gw.service().pipeline_stats().submitted == base + 1);
            let queued = s.spawn(|| send(perms[1]));
            wait_until(&|| gw.scheduler.depth() == 1);
            for p in &perms[2..] {
                let resp = send(p);
                assert_eq!(resp.status, 429, "{}", String::from_utf8_lossy(&resp.body));
                let retry = header(&resp, "retry-after").and_then(|v| v.parse::<u64>().ok());
                assert!(retry.is_some_and(|v| v >= 1), "429 carries Retry-After");
            }
            assert_eq!(
                gw.service().pipeline_stats().submitted,
                base + 1,
                "the first request was still running while the rest were shed"
            );
            for h in [running, queued] {
                let resp = h.join().unwrap();
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            }
        });
        assert_eq!(gw.metrics().sheds(), perms.len() as u64 - 2);
        gw.stop();
    }

    #[test]
    fn malformed_bodies_get_400_not_500() {
        let gw = gateway(GatewayConfig::default());
        for body in [
            "not json",
            r#"{"perm":[0]}"#,
            r#"{"extents":[4,4]}"#,
            r#"{"extents":[4,4],"perm":[0,0]}"#,
            r#"{"extents":[4,4],"perm":[0]}"#,
            r#"{"extents":[],"perm":[]}"#,
            r#"{"extents":[0,4],"perm":[1,0]}"#,
        ] {
            let resp = gw.handle(&post_transpose(body, &[]), 0);
            assert_eq!(resp.status, 400, "body {body:?}");
        }
        gw.stop();
    }

    #[test]
    fn oversized_volume_gets_413() {
        let gw = gateway(GatewayConfig {
            max_elements: 100,
            ..GatewayConfig::default()
        });
        let resp = gw.handle(
            &post_transpose(r#"{"extents":[16,16],"perm":[1,0]}"#, &[]),
            0,
        );
        assert_eq!(resp.status, 413);
        gw.stop();
    }

    #[test]
    fn quota_exhaustion_sheds_with_retry_after() {
        let gw = gateway(GatewayConfig {
            quota: QuotaConfig {
                rate_per_sec: 0.001,
                burst: 2.0,
                max_tenants: 8,
            },
            ..GatewayConfig::default()
        });
        let hdrs = [("x-ttlg-tenant", "acme")];
        for _ in 0..2 {
            let resp = gw.handle(
                &post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &hdrs),
                0,
            );
            assert_eq!(resp.status, 200);
        }
        let resp = gw.handle(
            &post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &hdrs),
            0,
        );
        assert_eq!(resp.status, 429);
        let retry = resp
            .headers
            .iter()
            .find(|(k, _)| k == "retry-after")
            .map(|(_, v)| v.clone())
            .expect("Retry-After present");
        assert!(retry.parse::<u64>().unwrap() >= 1);
        let body = json::parse(&resp.body).unwrap();
        assert_eq!(body.get("reason").and_then(|v| v.as_str()), Some("quota"));
        assert_eq!(gw.metrics().sheds(), 1);
        // Another tenant is unaffected.
        let resp = gw.handle(
            &post_transpose(
                r#"{"extents":[8,8],"perm":[1,0]}"#,
                &[("x-ttlg-tenant", "globex")],
            ),
            0,
        );
        assert_eq!(resp.status, 200);
        gw.stop();
    }

    #[test]
    fn unknown_priority_is_rejected() {
        let gw = gateway(GatewayConfig::default());
        let resp = gw.handle(
            &post_transpose(
                r#"{"extents":[8,8],"perm":[1,0]}"#,
                &[("x-ttlg-priority", "urgent")],
            ),
            0,
        );
        assert_eq!(resp.status, 400);
        gw.stop();
    }

    #[test]
    fn explain_and_healthz_and_metrics_routes() {
        let gw = gateway(GatewayConfig::default());
        let resp = gw.handle(&get("/healthz"), 0);
        assert_eq!(resp.status, 200);

        let resp = gw.handle(&get("/v1/explain?extents=16,8,4&perm=2,0,1"), 0);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8_lossy(&resp.body).to_string();
        assert!(
            text.contains("decision trace"),
            "decision trace rendered: {text}"
        );

        let resp = gw.handle(&get("/v1/explain?extents=16,8&perm=0"), 0);
        assert_eq!(resp.status, 400);

        // A transpose first so gateway counters are non-zero.
        gw.handle(&post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]), 0);
        let resp = gw.handle(&get("/metrics"), 0);
        assert_eq!(resp.status, 200);
        let prom = String::from_utf8_lossy(&resp.body).to_string();
        for family in [
            "ttlg_gateway_requests_total",
            "ttlg_gateway_shed_total",
            "ttlg_gateway_queue_depth",
            "ttlg_gateway_queue_capacity",
            "ttlg_gateway_network_us",
            "ttlg_gateway_queue_us",
            "ttlg_requests_total",
            "ttlg_cache_pinned_plans",
            "ttlg_trace_store_offered_total",
            "ttlg_trace_store_sampled_total",
            "ttlg_trace_store_evicted_total",
            "ttlg_trace_dropped_total",
            "ttlg_alerts_firing",
        ] {
            assert!(prom.contains(family), "{family} missing from:\n{prom}");
        }
        let resp = gw.handle(&get("/nope"), 0);
        assert_eq!(resp.status, 404);
        gw.stop();
    }

    #[test]
    fn traceparent_is_honored_and_trace_is_queryable() {
        let gw = gateway(GatewayConfig::default());
        let trace_id = "0123456789abcdef0123456789abcdef";
        let tp = format!("00-{trace_id}-00f067aa0ba902b7-01");
        let req = post_transpose(
            r#"{"extents":[16,8,4],"perm":[2,0,1]}"#,
            &[("traceparent", tp.as_str()), ("x-request-id", "req-42")],
        );
        let resp = gw.handle(&req, 1_000);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        assert_eq!(header(&resp, "x-request-id"), Some("req-42"));
        let echoed = header(&resp, "traceparent").expect("traceparent echoed");
        assert!(
            echoed.starts_with(&format!("00-{trace_id}-")),
            "echo continues the inbound trace: {echoed}"
        );
        let body = json::parse(&resp.body).unwrap();
        assert_eq!(
            body.get("trace_id").and_then(|v| v.as_str()),
            Some(trace_id)
        );
        assert_eq!(body.get("sampled"), Some(&Json::Bool(true)));

        // The stored trace comes back as a full span tree.
        let resp = gw.handle(&get(&format!("/v1/trace/{trace_id}")), 0);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(&resp.body).unwrap();
        assert_eq!(
            doc.get("request_id").and_then(|v| v.as_str()),
            Some("req-42")
        );
        let root = doc.get("root").expect("root span present");
        assert_eq!(root.get("name").and_then(|v| v.as_str()), Some("request"));
        let children: Vec<String> = match root.get("children") {
            Some(Json::Arr(c)) => c
                .iter()
                .filter_map(|s| s.get("name").and_then(|v| v.as_str()).map(String::from))
                .collect(),
            _ => panic!("root has children"),
        };
        for name in ["network", "gateway-queue", "plan", "queue-wait", "execute"] {
            assert!(
                children.contains(&name.to_string()),
                "{name} in {children:?}"
            );
        }

        // The flame rendering names the deepest spans.
        let resp = gw.handle(&get(&format!("/v1/trace/{trace_id}?format=flame")), 0);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8_lossy(&resp.body).to_string();
        for needle in ["request", "alg3-sweep", "kernel", "decision trace"] {
            assert!(text.contains(needle), "{needle} missing from:\n{text}");
        }

        // Unknown ids are 404, and the list endpoint sees the trace.
        assert_eq!(gw.handle(&get("/v1/trace/feedbeef"), 0).status, 404);
        let resp = gw.handle(&get("/v1/traces?slowest=5"), 0);
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8_lossy(&resp.body).contains(trace_id));
        gw.stop();
    }

    #[test]
    fn unsampled_inbound_flag_suppresses_head_sampling() {
        // A huge SLO target keeps tail forcing out of the picture.
        let svc = TransposeService::with_config(
            Transposer::new_k40c(),
            RuntimeConfig {
                slo: SloConfig {
                    target_us: 1e12,
                    ..SloConfig::default()
                },
                ..RuntimeConfig::default()
            },
        );
        let gw = Gateway::start(Arc::new(svc), GatewayConfig::default());
        let trace_id = "fedcba9876543210fedcba9876543210";
        let tp = format!("00-{trace_id}-00f067aa0ba902b7-00");
        let req = post_transpose(
            r#"{"extents":[8,8],"perm":[1,0]}"#,
            &[("traceparent", tp.as_str())],
        );
        let resp = gw.handle(&req, 0);
        assert_eq!(resp.status, 200);
        let body = json::parse(&resp.body).unwrap();
        assert_eq!(body.get("sampled"), Some(&Json::Bool(false)));
        assert_eq!(
            gw.handle(&get(&format!("/v1/trace/{trace_id}")), 0).status,
            404
        );
        gw.stop();
    }

    #[test]
    fn sheds_are_force_sampled() {
        let gw = gateway(GatewayConfig {
            quota: QuotaConfig {
                rate_per_sec: 0.001,
                burst: 1.0,
                max_tenants: 8,
            },
            ..GatewayConfig::default()
        });
        let trace_id = "abcdefabcdefabcdefabcdefabcdef01";
        let hdrs_body = r#"{"extents":[8,8],"perm":[1,0]}"#;
        assert_eq!(
            gw.handle(&post_transpose(hdrs_body, &[("x-ttlg-tenant", "acme")]), 0)
                .status,
            200
        );
        let tp = format!("00-{trace_id}-00f067aa0ba902b7-01");
        let resp = gw.handle(
            &post_transpose(
                hdrs_body,
                &[("x-ttlg-tenant", "acme"), ("traceparent", tp.as_str())],
            ),
            500,
        );
        assert_eq!(resp.status, 429);
        let stored = gw.trace_store().get(trace_id).expect("shed is sampled");
        assert_eq!(stored.status, 429);
        assert_eq!(stored.reason, SampleReason::Shed);
        assert_eq!(stored.tenant, "acme");
        assert!(stored.root.find("network").is_some());
        gw.stop();
    }

    #[test]
    fn critical_alert_gates_healthz() {
        // An impossible SLO: every request misses, so the short-window
        // burn rate saturates far past the slo-burn rule's threshold.
        let svc = TransposeService::with_config(
            Transposer::new_k40c(),
            RuntimeConfig {
                slo: SloConfig {
                    target_us: 0.001,
                    ..SloConfig::default()
                },
                ..RuntimeConfig::default()
            },
        );
        let gw = Gateway::start(Arc::new(svc), GatewayConfig::default());
        assert_eq!(
            gw.handle(&get("/healthz"), 0).status,
            200,
            "healthy at boot"
        );
        for _ in 0..3 {
            let resp = gw.handle(&post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]), 0);
            assert_eq!(resp.status, 200);
        }
        // slo-burn needs two consecutive breached evaluations to fire.
        gw.evaluate_alerts();
        gw.evaluate_alerts();
        let resp = gw.handle(&get("/healthz"), 0);
        assert_eq!(resp.status, 503);
        let text = String::from_utf8_lossy(&resp.body).to_string();
        assert!(text.contains("slo-burn"), "{text}");
        let resp = gw.handle(&get("/v1/alerts"), 0);
        assert_eq!(resp.status, 200);
        let doc = json::parse(&resp.body).unwrap();
        assert_eq!(
            doc.get("any_critical_firing"),
            Some(&Json::Bool(true)),
            "{}",
            String::from_utf8_lossy(&resp.body)
        );
        gw.stop();
    }

    #[test]
    fn tenant_overflow_folds_into_underscore_other() {
        let m = GatewayMetrics::default();
        for i in 0..40 {
            m.record_tenant(&format!("t{i}"), i % 2 == 0);
        }
        assert_eq!(m.tenant_label("brand-new"), OVERFLOW_TENANT);
        let tenants = m.tenants.lock().unwrap();
        assert_eq!(tenants.len(), MAX_TENANT_LABELS + 1, "32 real + _other");
        assert!(tenants.contains_key(OVERFLOW_TENANT));
        // Aggregation preserves totals: the series still sum to 40.
        let total: u64 = tenants.values().map(|(a, s)| a + s).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn tenant_sanitization() {
        assert_eq!(sanitize_tenant("acme-prod_1.2"), "acme-prod_1.2");
        assert_eq!(sanitize_tenant(""), "invalid");
        assert_eq!(sanitize_tenant("a b"), "invalid");
        assert_eq!(sanitize_tenant(&"x".repeat(65)), "invalid");
        assert_eq!(sanitize_tenant("evil\"} inject"), "invalid");
    }

    #[test]
    fn duration_and_percent_decode_helpers() {
        assert_eq!(parse_duration_ms("500ms"), Some(500));
        assert_eq!(parse_duration_ms("90s"), Some(90_000));
        assert_eq!(parse_duration_ms("10m"), Some(600_000));
        assert_eq!(parse_duration_ms("4h"), Some(14_400_000));
        assert_eq!(parse_duration_ms("2.5s"), Some(2_500));
        assert_eq!(parse_duration_ms("30"), Some(30_000), "bare = seconds");
        assert_eq!(parse_duration_ms("-1s"), None);
        assert_eq!(parse_duration_ms("soon"), None);
        assert_eq!(
            percent_decode("rate(ttlg_requests_total%7Bschema%3D%22x%22%7D)"),
            r#"rate(ttlg_requests_total{schema="x"})"#
        );
        assert_eq!(percent_decode("a+b%2"), "a b%2", "malformed escape kept");
    }

    /// End-to-end query_range: drive traffic, scrape the history twice,
    /// and check `increase(ttlg_requests_total)` comes back as a
    /// non-negative grid whose total matches the driven requests.
    #[test]
    fn query_range_serves_increase_over_scraped_history() {
        let gw = gateway(GatewayConfig::default());
        for _ in 0..3 {
            let resp = gw.handle(&post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]), 0);
            assert_eq!(resp.status, 200);
        }
        // Deterministic timeline: scrape manually rather than waiting
        // out the background cadence.
        gw.service().scrape_history_once();
        for _ in 0..2 {
            let resp = gw.handle(&post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]), 0);
            assert_eq!(resp.status, 200);
        }
        gw.service().scrape_history_once();

        let resp = gw.handle(
            &get("/v1/query_range?series=sum(increase(ttlg_requests_total))&window=60s&step=1s"),
            0,
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(&resp.body).unwrap();
        assert_eq!(
            doc.get("window_ms").and_then(|v| v.as_f64()),
            Some(60_000.0)
        );
        let series = match doc.get("series") {
            Some(Json::Arr(s)) => s,
            other => panic!("series array expected, got {other:?}"),
        };
        assert_eq!(series.len(), 1, "sum() folds to one series");
        let points = match series[0].get("points") {
            Some(Json::Arr(p)) => p,
            other => panic!("points array expected, got {other:?}"),
        };
        let total: f64 = points
            .iter()
            .map(|p| match p {
                Json::Arr(tv) => tv[1].as_f64().unwrap(),
                other => panic!("point pair expected, got {other:?}"),
            })
            .sum();
        // A new series starts from zero, so the first scrape's
        // cumulative value (3) counts as an increment, and the second
        // scrape adds the 2 requests driven between them.
        assert!(
            (total - 5.0).abs() < 1e-9,
            "increase total {total}, expected 5"
        );
        // The scraped history also carries the gateway's own families.
        let resp = gw.handle(
            &get("/v1/query_range?series=increase(ttlg_gateway_requests_total%7Bendpoint%3D%22transpose%22%7D)&window=60s"),
            0,
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        gw.stop();
    }

    #[test]
    fn query_range_rejects_bad_input_with_400() {
        let gw = gateway(GatewayConfig::default());
        gw.service().scrape_history_once();
        for (path, needle) in [
            ("/v1/query_range", "series="),
            ("/v1/query_range?series=rate(x)&window=abc", "window"),
            ("/v1/query_range?series=rate(x)&window=10s&step=30s", "step"),
            (
                "/v1/query_range?series=rate(x)&window=4h&step=1s",
                "too many points",
            ),
            ("/v1/query_range?series=bogus(((", "bad query"),
            (
                "/v1/query_range?series=rate(ttlg_cache_pinned_plans)",
                "bad query",
            ),
        ] {
            let resp = gw.handle(&get(path), 0);
            assert_eq!(resp.status, 400, "{path}");
            let text = String::from_utf8_lossy(&resp.body).to_string();
            assert!(text.contains(needle), "{path}: {text}");
        }
        let prom = gw.export_prometheus();
        assert!(
            prom.contains(r#"endpoint="query""#),
            "query counter exported"
        );
        gw.stop();
    }

    /// The gateway wires the windowed alert engine to the service's
    /// history store: a shed burst split across scrapes trips the
    /// windowed shed-spike rule even though each adjacent scrape pair
    /// stays under threshold.
    #[test]
    fn windowed_alerts_read_gateway_history() {
        let gw = gateway(GatewayConfig {
            quota: QuotaConfig {
                rate_per_sec: 0.001,
                burst: 4.0,
                max_tenants: 8,
            },
            ..GatewayConfig::default()
        });
        // 4 admits, then everything sheds: shed ratio over any window
        // spanning the burst far exceeds the 10% threshold.
        for _ in 0..16 {
            gw.handle(&post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]), 0);
            gw.service().scrape_history_once();
        }
        let statuses = gw.evaluate_alerts();
        let shed = statuses
            .iter()
            .find(|s| s.name == "shed-spike")
            .expect("shed-spike rule present");
        assert!(
            shed.value.unwrap_or(0.0) > 0.1,
            "windowed shed ratio {:?} over history of {} scrapes",
            shed.value,
            gw.service().history().scrapes()
        );
        gw.stop();
    }

    #[test]
    fn stop_fails_queued_requests_explicitly() {
        // Zero-worker config is clamped to one worker, so instead stop
        // first and verify enqueue after stop is refused.
        let gw = gateway(GatewayConfig::default());
        gw.stop();
        let resp = gw.handle(&post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]), 0);
        // After stop the scheduler refuses work -> queue-full shed.
        assert_eq!(resp.status, 429);
        gw.stop();
    }
}
