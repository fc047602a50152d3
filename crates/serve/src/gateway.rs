//! The gateway: routing, admission and metrics for the network edge.
//!
//! A [`Gateway`] owns one [`TransposeService`] plus the machinery that
//! stands between it and the network:
//!
//! ```text
//!   connection thread (router)            service executor
//!   --------------------------            ----------------
//!   parse HTTP -> route
//!     POST /v1/transpose
//!       validate problem -> 400/413
//!       stopped gate     -> 503
//!       quota gate       -> 429
//!       input tensor (cached)
//!       submit_async ----------------->   identical problem in flight:
//!                                           follow it (no queue slot)
//!                                         else its (tenant, class)
//!                                           queue, or refuse when full
//!       refused          -> 429 (queue)   a ttlg-async-N worker picks
//!       wait on the ticket <-----------     it (weighted, tenant-fair),
//!         -> 200/500, 503 on timeout        runs it, writes its record
//!     GET /v1/explain   -> planner decision trace
//!     GET /v1/query_range -> range queries over the metrics history
//!     GET /v1/alerts    -> alert rule states as of the last scrape
//!     GET /metrics      -> Prometheus text (service + gateway)
//!     GET /healthz      -> liveness, gated on critical alerts
//! ```
//!
//! The service's executor owns the only queue, so the edge adds no
//! worker pool of its own: the connection thread submits and waits.
//! Every admitted request carries a four-phase decomposition in its
//! response body — `network` (bytes-on-wire to parsed request), `queue`
//! (admission to the start of execution), `plan` (cache fetch/build)
//! and `execute` (kernel) — the service's trace extended to the network
//! edge. The edge's part of a request (trace id, request id, tenant,
//! priority, network time) travels to the service as an [`Envelope`] on
//! the request, so the request's one record is written once, by the
//! service; sheds never run in the service, so the gateway writes their
//! records itself. The trace endpoints build span trees and decision
//! text from those records when they are read.
//!
//! The service's history scraper ingests the gateway's merged snapshot
//! (service and `ttlg_gateway_*` families) and steps the service's alert
//! rules over it. `/metrics`, `/v1/alerts` and `/healthz` only read the
//! rules' state, so polling them never moves an alert.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use ttlg::DecisionTrace;
use ttlg::TransposeOptions;
use ttlg_obs::{
    clock_ns, eval_range, next_id, parse_trace_id, AlertState, Envelope, MetricKind, RequestTrace,
    Sample, SpanNode, TraceContext, TraceRecord,
};
use ttlg_runtime::{
    ErrorKind, LatencyHistogram, QueueStats, TransposeRequest, TransposeService, HIST_BUCKETS,
};
use ttlg_tensor::{DenseTensor, Permutation, Shape};

use crate::admission::{AdmissionController, Priority, QuotaConfig, Shed, ShedReason};
use crate::http::{HttpLimits, HttpRequest, HttpResponse};
use crate::json::{self, obj, Json};

/// Gateway configuration: the edge and admission knobs. The queue and
/// its workers are the service's
/// ([`ttlg_runtime::RuntimeConfig::workers`] and
/// [`ttlg_runtime::RuntimeConfig::queue_capacity`]).
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Per-tenant token-bucket quota.
    pub quota: QuotaConfig,
    /// Hard cap on concurrent connections; excess get 503 and close.
    pub max_connections: usize,
    /// Largest tensor volume (elements) a request may ask for.
    pub max_elements: usize,
    /// HTTP parser limits (head/body size).
    pub limits: HttpLimits,
    /// How long a connection thread waits for its request to complete
    /// before answering 503.
    pub request_timeout_ms: u64,
    /// Keep-alive idle timeout before the server closes a connection.
    pub idle_timeout_ms: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            quota: QuotaConfig::default(),
            max_connections: 128,
            max_elements: 1 << 22,
            limits: HttpLimits::default(),
            request_timeout_ms: 30_000,
            idle_timeout_ms: 5_000,
        }
    }
}

/// Tenant label cardinality cap for per-tenant metric families; tenants
/// beyond this are folded into `_other` so the per-tenant series still
/// sum to the unlabelled totals.
const MAX_TENANT_LABELS: usize = 32;

/// The aggregation label for tenants past the first `MAX_TENANT_LABELS`
/// (32).
pub const OVERFLOW_TENANT: &str = "_other";

/// What `route` counts a request under, in label order.
#[derive(Clone, Copy)]
enum Endpoint {
    Transpose,
    Explain,
    Traces,
    Alerts,
    Query,
    Metrics,
    Healthz,
    NotFound,
}

/// The `endpoint` label of each [`Endpoint`], indexed by it.
const ENDPOINT_LABELS: [&str; 8] = [
    "transpose",
    "explain",
    "traces",
    "alerts",
    "query",
    "metrics",
    "healthz",
    "not_found",
];

/// Counters and histograms for the `ttlg_gateway_*` families.
#[derive(Default)]
pub struct GatewayMetrics {
    /// Requests routed, indexed by [`Endpoint`].
    requests: [AtomicU64; ENDPOINT_LABELS.len()],
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
    /// Network phase (first byte to parsed request), and queue phase
    /// (the service's queue-wait: admission to the start of execution).
    network_hist: LatencyHistogram,
    queue_hist: LatencyHistogram,
    /// Per-tenant admitted/shed counts (bounded label set).
    tenants: Mutex<HashMap<String, (u64, u64)>>,
}

impl GatewayMetrics {
    /// Count one admitted or shed request under the tenant's label,
    /// picked and counted under one lock so the label set never passes
    /// the cap; only a new label allocates.
    fn record_tenant(&self, tenant: &str, admitted: bool) {
        let mut tenants = self.tenants.lock().expect("tenant metrics poisoned");
        let label = if tenants.contains_key(tenant) || tenants.len() < MAX_TENANT_LABELS {
            tenant
        } else {
            OVERFLOW_TENANT
        };
        let entry = match tenants.get_mut(label) {
            Some(entry) => entry,
            None => tenants.entry(label.to_string()).or_default(),
        };
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
    fn export_into(&self, snap: &mut ttlg_runtime::MetricsSnapshot, queue: QueueStats) {
        snap.push_metric(
            "ttlg_gateway_requests_total",
            "HTTP requests routed, by endpoint.",
            MetricKind::Counter,
            ENDPOINT_LABELS
                .iter()
                .zip(&self.requests)
                .map(|(label, n)| {
                    Sample::labelled("endpoint", label, n.load(Ordering::Relaxed) as f64)
                })
                .collect(),
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
        for (name, help, value) in [
            (
                "ttlg_gateway_queue_depth",
                "Requests queued in the service's executor, all tenants and classes.",
                queue.depth,
            ),
            (
                "ttlg_gateway_queue_fullest",
                "Requests in the executor's fullest (tenant, class) queue.",
                queue.fullest,
            ),
            (
                "ttlg_gateway_queue_capacity",
                "Bound of each (tenant, class) queue of the service's executor.",
                queue.capacity,
            ),
        ] {
            snap.push_metric(
                name,
                help,
                MetricKind::Gauge,
                vec![Sample::plain(value as f64)],
            );
        }
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
                "Queue phase: admission to the start of execution, microseconds.",
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
    /// Set by [`Gateway::stop`]: transposes are answered 503.
    stopped: AtomicBool,
    metrics: GatewayMetrics,
    /// Input tensors cached by extents so repeated problems don't
    /// re-materialize (bounded; cleared wholesale when full).
    inputs: Mutex<HashMap<Vec<usize>, Arc<DenseTensor<f64>>>>,
}

const MAX_CACHED_INPUTS: usize = 32;

impl Gateway {
    /// Build a gateway around `service` and start the service's history
    /// scraper.
    pub fn start(service: Arc<TransposeService<f64>>, cfg: GatewayConfig) -> Arc<Gateway> {
        let gw = Arc::new(Gateway {
            admission: AdmissionController::new(cfg.quota),
            stopped: AtomicBool::new(false),
            metrics: GatewayMetrics::default(),
            inputs: Mutex::new(HashMap::new()),
            service,
            cfg,
        });
        // Scrape the *merged* snapshot (service + gateway) so the
        // history, and the alert rules stepped over it, cover the
        // `ttlg_gateway_*` families too.
        let scrape_gw = Arc::downgrade(&gw);
        gw.service.set_history_source(Some(Arc::new(move || {
            scrape_gw.upgrade().map(|gw| gw.merged_snapshot())
        })));
        gw.service.start_history_scraper();
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

    fn merged_snapshot(&self) -> ttlg_runtime::MetricsSnapshot {
        let mut snap = self.service.metrics_snapshot();
        self.metrics
            .export_into(&mut snap, self.service.queue_stats());
        snap
    }

    /// Stop serving transposes (each is answered 503 from now on) and
    /// the history scraper. Requests already queued still finish on the
    /// service's workers, or fail with its shutdown error if the service
    /// is dropped first. Idempotent.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.service.stop_history_scraper();
        self.service.set_history_source(None);
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
        let trace_id = req.path.strip_prefix("/v1/trace/");
        let endpoint = match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/transpose") => Endpoint::Transpose,
            ("GET", "/v1/explain") => Endpoint::Explain,
            ("GET", "/v1/traces") => Endpoint::Traces,
            ("GET", _) if trace_id.is_some() => Endpoint::Traces,
            ("GET", "/v1/alerts") => Endpoint::Alerts,
            ("GET", "/v1/query_range") => Endpoint::Query,
            ("GET", "/metrics") => Endpoint::Metrics,
            ("GET", "/healthz") => Endpoint::Healthz,
            _ => Endpoint::NotFound,
        };
        // Counted before the handler runs, so a scrape counts itself.
        self.metrics.requests[endpoint as usize].fetch_add(1, Ordering::Relaxed);
        match endpoint {
            Endpoint::Transpose => self.handle_transpose(req, network_ns, ctx, request_id),
            Endpoint::Explain => self.handle_explain(req),
            Endpoint::Traces => match trace_id {
                Some(id) => self.handle_trace_get(id, req),
                None => self.handle_traces_list(req),
            },
            Endpoint::Alerts => self.handle_alerts(),
            Endpoint::Query => self.handle_query_range(req),
            Endpoint::Metrics => HttpResponse::text(self.export_prometheus()),
            Endpoint::Healthz => self.handle_healthz(),
            Endpoint::NotFound => {
                HttpResponse::error(404, format!("no route for {} {}", req.method, req.path))
            }
        }
    }

    /// Prometheus text: the service's full snapshot (trace-store and
    /// alert families included) plus the `ttlg_gateway_*` families.
    pub fn export_prometheus(&self) -> String {
        ttlg_obs::prom::render(&self.merged_snapshot())
    }

    /// Liveness gated on readiness: 503 while any critical alert rule
    /// is firing (as of the last history scrape), naming the firing
    /// rules.
    fn handle_healthz(&self) -> HttpResponse {
        let firing: Vec<Json> = self
            .service
            .alerts()
            .status()
            .into_iter()
            .filter(|s| s.critical && s.state == AlertState::Firing)
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
        let perm = match Permutation::new(&perm) {
            Ok(p) if p.rank() == extents.len() => p,
            _ => return HttpResponse::error(400, "perm must be a permutation of 0..rank"),
        };
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
        if self.stopped.load(Ordering::SeqCst) {
            return HttpResponse::error(503, "gateway shutting down");
        }
        let envelope = || Envelope {
            ctx,
            request_id: request_id.to_string(),
            tenant: tenant.clone(),
            priority: class,
            network_ns,
            shed: None,
        };
        if let Err(shed) = self.admission.check_quota(&tenant) {
            return self.shed_response(shed, envelope());
        }
        let req = TransposeRequest {
            envelope: Some(envelope()),
            ..TransposeRequest::new(self.input_for(&extents), perm)
        };
        // A worker of the service's executor runs the request; identical
        // in-flight problems coalesce onto one plan and one execution.
        let timeout = Duration::from_millis(self.cfg.request_timeout_ms);
        let out = self.service.submit_async(req).wait_timeout(timeout);
        if out
            .as_ref()
            .is_some_and(|o| matches!(&o.result, Err(e) if e.kind == ErrorKind::QueueFull))
        {
            let shed = Shed {
                reason: ShedReason::QueueFull,
                retry_after_secs: 1,
            };
            return self.shed_response(shed, envelope());
        }
        self.metrics.record_tenant(&tenant, true);
        let Some(out) = out else {
            self.metrics.timeouts_total.fetch_add(1, Ordering::Relaxed);
            return HttpResponse::error(503, "request timed out in the gateway");
        };
        let r = match &out.result {
            Ok(r) => r,
            Err(e) => return HttpResponse::error(500, e.message.clone()),
        };
        let trace = &out.trace;
        self.metrics.queue_hist.record_ns(trace.queue_wait_ns);
        let us = |ns: u64| Json::Num(ns as f64 / 1e3);
        let phases = obj(vec![
            ("network_us", us(network_ns)),
            ("queue_us", us(trace.queue_wait_ns)),
            ("plan_us", us(trace.plan_fetch_ns)),
            ("execute_us", us(trace.execute_ns)),
        ]);
        HttpResponse::json(
            obj(vec![
                ("ok", Json::Bool(true)),
                ("tenant", Json::Str(tenant)),
                ("priority", Json::Str(class.as_str().to_string())),
                ("schema", Json::Str(r.report.schema.label().into())),
                ("elements", Json::Num(r.output.volume() as f64)),
                ("cache_hit", Json::Bool(trace.cache_hit == Some(true))),
                ("warmed", Json::Bool(trace.warmed)),
                ("coalesced", Json::Bool(out.coalesced)),
                ("kernel_us", Json::Num(r.report.kernel_time_ns / 1e3)),
                ("predicted_us", Json::Num(r.report.predicted_ns / 1e3)),
                ("bandwidth_gbps", Json::Num(r.report.bandwidth_gbps)),
                ("trace_id", Json::Str(ctx.trace_id_hex())),
                ("request_id", Json::Str(request_id.to_string())),
                ("sampled", Json::Bool(out.sampled.is_some())),
                ("phases", phases),
            ])
            .render(),
        )
    }

    fn shed_response(&self, shed: Shed, envelope: Envelope) -> HttpResponse {
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
        self.metrics.record_tenant(&envelope.tenant, false);
        let trace_id = envelope.ctx.trace_id_hex();
        // A shed never runs in the service, so its record is written
        // here; the store always keeps it, so overload leaves evidence
        // even at low head-sampling rates.
        let at_shed = RequestTrace {
            start_ns: clock_ns(),
            ..RequestTrace::default()
        };
        let envelope = Envelope {
            shed: Some(shed.reason.as_str()),
            ..envelope
        };
        self.service
            .trace_store()
            .write(&at_shed, Some(envelope), None, false);
        HttpResponse::json(
            obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::Str("shed".to_string())),
                ("reason", Json::Str(shed.reason.as_str().to_string())),
                ("retry_after_secs", Json::Num(shed.retry_after_secs as f64)),
                ("trace_id", Json::Str(trace_id)),
            ])
            .render(),
        )
        .with_status(429)
        .with_header("retry-after", shed.retry_after_secs.to_string())
    }

    /// `GET /v1/trace/:id` — one retained request as a JSON span tree, or
    /// as the flame-style text rendering with `?format=flame`, both built
    /// from its record on read.
    fn handle_trace_get(&self, id: &str, req: &HttpRequest) -> HttpResponse {
        let Some(rec) = parse_trace_id(id).and_then(|id| self.service.trace_store().get(id)) else {
            return HttpResponse::error(404, format!("no sampled trace {id}"));
        };
        let e = rec
            .envelope
            .as_ref()
            .expect("records found by trace id have an envelope");
        if req.query_param("format") == Some("flame") {
            let mut text = format!(
                "trace {} request {} tenant {} status {} reason {} total {:.1} us\n\n",
                e.ctx.trace_id_hex(),
                e.request_id,
                e.tenant,
                status(&rec),
                rec.reason.as_str(),
                rec.total_ns() as f64 / 1e3,
            );
            text.push_str(&rec.root().render());
            if let Some(decision) = &rec.decision {
                text.push('\n');
                text.push_str(&decision.render());
            }
            return HttpResponse::text(text);
        }
        HttpResponse::json(trace_json(&rec, e).render())
    }

    /// `GET /v1/traces?slowest=N` (or `?recent=N`) — summaries of the
    /// retained gateway requests, slowest-first or newest-first.
    fn handle_traces_list(&self, req: &HttpRequest) -> HttpResponse {
        let store = self.service.trace_store();
        let parse_n = |v: Option<&str>| v.and_then(|s| s.parse::<usize>().ok());
        let (records, n, order) = if let Some(n) = parse_n(req.query_param("slowest")) {
            (store.slowest(usize::MAX), n, "slowest")
        } else {
            let n = parse_n(req.query_param("recent")).unwrap_or(10);
            (store.recent(usize::MAX), n, "recent")
        };
        let items: Vec<Json> = records
            .iter()
            .filter_map(|rec| Some((rec, rec.envelope.as_ref()?)))
            .take(n)
            .map(|(rec, e)| {
                obj(vec![
                    ("trace_id", Json::Str(e.ctx.trace_id_hex())),
                    ("request_id", Json::Str(e.request_id.clone())),
                    ("tenant", Json::Str(e.tenant.clone())),
                    ("status", Json::Num(status(rec) as f64)),
                    ("reason", Json::Str(rec.reason.as_str().to_string())),
                    ("total_us", Json::Num(rec.total_ns() as f64 / 1e3)),
                    ("spans", Json::Num(rec.root().span_count() as f64)),
                ])
            })
            .collect();
        HttpResponse::json(
            obj(vec![
                ("order", Json::Str(order.to_string())),
                ("resident", Json::Num(store.resident() as f64)),
                ("sampled_total", Json::Num(store.sampled() as f64)),
                ("traces", Json::Arr(items)),
            ])
            .render(),
        )
    }

    /// `GET /v1/alerts` — each rule's state machine as of the last
    /// history scrape.
    fn handle_alerts(&self) -> HttpResponse {
        let alerts = self.service.alerts();
        let statuses = alerts.status();
        let any_critical = statuses
            .iter()
            .any(|s| s.critical && s.state == AlertState::Firing);
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
                ("evaluations", Json::Num(alerts.evaluations() as f64)),
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

/// The HTTP status a retained request was answered with.
fn status(rec: &TraceRecord<Arc<DecisionTrace>>) -> u16 {
    if rec.is_shed() {
        429
    } else if rec.trace.ok {
        200
    } else {
        500
    }
}

/// A retained request as a JSON document (root span tree included).
fn trace_json(rec: &TraceRecord<Arc<DecisionTrace>>, e: &Envelope) -> Json {
    obj(vec![
        ("trace_id", Json::Str(e.ctx.trace_id_hex())),
        ("request_id", Json::Str(e.request_id.clone())),
        ("tenant", Json::Str(e.tenant.clone())),
        ("status", Json::Num(status(rec) as f64)),
        ("reason", Json::Str(rec.reason.as_str().to_string())),
        ("total_us", Json::Num(rec.total_ns() as f64 / 1e3)),
        ("root", span_json(&rec.root())),
        (
            "decision",
            rec.decision
                .as_ref()
                .map(|d| Json::Str(d.render()))
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
    use std::time::Instant;
    use ttlg::Transposer;
    use ttlg_obs::{SampleReason, Signal, TraceStoreConfig};
    use ttlg_runtime::{HistoryConfig, RuntimeConfig, SloConfig};

    fn gateway(cfg: GatewayConfig) -> Arc<Gateway> {
        Gateway::start(Arc::new(TransposeService::new_k40c()), cfg)
    }

    /// A gateway whose quota never sheds, over a service built from `rt`.
    fn open_gateway_over(rt: RuntimeConfig) -> Arc<Gateway> {
        let svc = TransposeService::with_config(Transposer::new_k40c(), rt);
        let cfg = GatewayConfig {
            quota: QuotaConfig {
                rate_per_sec: 1e9,
                burst: 1e9,
                max_tenants: 8,
            },
            ..GatewayConfig::default()
        };
        Gateway::start(Arc::new(svc), cfg)
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
        let gw = open_gateway_over(RuntimeConfig {
            workers: 2,
            queue_capacity: 256,
            ..RuntimeConfig::default()
        });
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

    /// A gateway over a service with one worker and a queue of one, and
    /// a sender of distinct problems at its volume limit (2^19
    /// elements): none coalesce, and each runs for tens of milliseconds.
    fn one_slot_gateway() -> (Arc<Gateway>, impl Fn(&str) -> HttpResponse) {
        let svc = TransposeService::with_config(
            Transposer::new_k40c(),
            RuntimeConfig {
                workers: 1,
                queue_capacity: 1,
                ..RuntimeConfig::default()
            },
        );
        let gw = Gateway::start(
            Arc::new(svc),
            GatewayConfig {
                max_elements: 1 << 19,
                quota: QuotaConfig {
                    rate_per_sec: 1e9,
                    burst: 1e9,
                    max_tenants: 8,
                },
                ..GatewayConfig::default()
            },
        );
        let sender = Arc::clone(&gw);
        let send = move |p: &str| {
            let body = format!(r#"{{"extents":[128,64,64],"perm":[{p}]}}"#);
            sender.handle(&post_transpose(&body, &[("x-ttlg-tenant", "solo")]), 0)
        };
        // Build the gateway's input tensor for these extents first, so
        // the requests that follow spend their time in the service.
        assert_eq!(send("0,1,2").status, 200);
        (gw, send)
    }

    fn wait_until(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The service's queue bounds admitted work: with one worker and a
    /// queue of one, while a request runs and one waits, every further
    /// request of the tenant is shed with 429 and `Retry-After`, never
    /// run and never a 500.
    #[test]
    fn queue_bound_sheds_while_the_worker_runs() {
        let (gw, send) = one_slot_gateway();
        let stats = || gw.service().pipeline_stats();
        let base = stats().executed;
        let perms = ["2,1,0", "1,2,0", "2,0,1", "0,2,1", "1,0,2"];
        std::thread::scope(|s| {
            let running = s.spawn(|| send(perms[0]));
            wait_until(|| stats().executed == base + 1);
            let queued = s.spawn(|| send(perms[1]));
            wait_until(|| gw.service().queue_stats().depth == 1);
            for p in &perms[2..] {
                let resp = send(p);
                assert_eq!(resp.status, 429, "{}", String::from_utf8_lossy(&resp.body));
                let retry = header(&resp, "retry-after").and_then(|v| v.parse::<u64>().ok());
                assert!(retry.is_some_and(|v| v >= 1), "429 carries Retry-After");
            }
            assert_eq!(
                (stats().executed, stats().rejected),
                (base + 1, 3),
                "the first request was still running while the rest were shed"
            );
            for h in [running, queued] {
                let resp = h.join().unwrap();
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            }
        });
        assert_eq!(gw.metrics().sheds(), perms.len() as u64 - 2);
        let prom = gw.export_prometheus();
        assert!(
            prom.contains("ttlg_gateway_shed_total{reason=\"queue\"} 3"),
            "{prom}"
        );
        gw.stop();
    }

    /// A duplicate of the queued request follows it: it takes no queue
    /// slot, so a full queue does not shed it.
    #[test]
    fn a_duplicate_of_a_queued_request_coalesces_instead_of_shedding() {
        let (gw, send) = one_slot_gateway();
        let stats = || gw.service().pipeline_stats();
        let base = stats();
        std::thread::scope(|s| {
            let running = s.spawn(|| send("2,1,0"));
            wait_until(|| stats().executed == base.executed + 1);
            let queued = s.spawn(|| send("1,2,0"));
            wait_until(|| gw.service().queue_stats().depth == 1);
            let duplicate = s.spawn(|| send("1,2,0"));
            wait_until(|| stats().coalesced == base.coalesced + 1);
            assert_eq!(send("2,0,1").status, 429, "the queue is full");
            let coalesced = |h: std::thread::ScopedJoinHandle<'_, HttpResponse>| {
                let resp = h.join().unwrap();
                assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                json::parse(&resp.body).unwrap().get("coalesced").cloned()
            };
            assert_eq!(coalesced(running), Some(Json::Bool(false)));
            assert_eq!(coalesced(queued), Some(Json::Bool(false)));
            assert_eq!(coalesced(duplicate), Some(Json::Bool(true)));
        });
        assert_eq!(stats().rejected, 1);
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
            "ttlg_gateway_queue_fullest",
            "ttlg_gateway_queue_capacity",
            "ttlg_gateway_network_us",
            "ttlg_gateway_queue_us",
            "ttlg_requests_total",
            "ttlg_cache_pinned_plans",
            "ttlg_trace_store_offered_total",
            "ttlg_trace_store_sampled_total",
            "ttlg_trace_store_evicted_total",
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
        // The four phases are the record's: the edge's network time and
        // the service's queue-wait, plan and execute.
        let rec = gw
            .service()
            .trace_store()
            .get(parse_trace_id(trace_id).unwrap());
        let rec = rec.expect("recorded");
        let phases = body.get("phases").expect("phases present");
        let us = |key: &str| phases.get(key).and_then(|v| v.as_f64()).unwrap();
        assert_eq!(us("network_us"), 1.0);
        assert_eq!(us("queue_us"), rec.trace.queue_wait_ns as f64 / 1e3);
        assert_eq!(us("plan_us"), rec.trace.plan_fetch_ns as f64 / 1e3);
        assert_eq!(us("execute_us"), rec.trace.execute_ns as f64 / 1e3);
        let sum: f64 = ["network_us", "queue_us", "plan_us", "execute_us"]
            .map(us)
            .iter()
            .sum();
        assert!((sum - rec.total_ns() as f64 / 1e3).abs() < 1e-6, "{sum}");

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
        for name in ["network", "queue-wait", "plan", "execute"] {
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
        let stored = gw
            .service()
            .trace_store()
            .get(parse_trace_id(trace_id).unwrap())
            .expect("shed is sampled");
        assert_eq!(status(&stored), 429);
        assert_eq!(stored.reason, SampleReason::Shed);
        assert_eq!(stored.envelope.as_ref().unwrap().tenant, "acme");
        assert!(stored.root().find("network").is_some());
        gw.stop();
    }

    #[test]
    fn critical_alert_gates_healthz() {
        // An impossible SLO: every request misses, so the windowed miss
        // fraction saturates far past the slo-burn rule's threshold.
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
        gw.service().scrape_history_once();
        gw.service().scrape_history_once();
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
        m.record_tenant("brand-new", true);
        let tenants = m.tenants.lock().unwrap();
        assert!(!tenants.contains_key("brand-new"));
        assert_eq!(tenants.len(), MAX_TENANT_LABELS + 1, "32 real + _other");
        assert!(tenants.contains_key(OVERFLOW_TENANT));
        // Aggregation preserves totals: the series still sum to 41.
        let total: u64 = tenants.values().map(|(a, s)| a + s).sum();
        assert_eq!(total, 41);
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
        let statuses = gw.service().alerts().status();
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

    /// After stop, a transpose is answered 503 and reaches no queue.
    #[test]
    fn stop_answers_new_transposes_with_503() {
        let gw = gateway(GatewayConfig::default());
        gw.stop();
        let resp = gw.handle(&post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]), 0);
        assert_eq!(resp.status, 503);
        assert_eq!(gw.service().pipeline_stats().submitted, 0);
        gw.stop();
    }

    /// A default gateway with an open quota over a service whose SLO no
    /// host can miss, so tail forcing and `slo-burn` stay out of the
    /// picture.
    fn open_gateway() -> Arc<Gateway> {
        open_gateway_over(RuntimeConfig {
            slo: SloConfig {
                target_us: 1e12,
                ..SloConfig::default()
            },
            ..RuntimeConfig::default()
        })
    }

    /// Steady traffic past the trace window's capacity trips no alert:
    /// a bounded window letting old records go is retention, not loss.
    #[test]
    fn steady_traffic_past_the_trace_window_trips_no_alert() {
        let gw = open_gateway();
        for _ in 0..4 {
            for _ in 0..300 {
                let req = post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]);
                assert_eq!(gw.handle(&req, 0).status, 200);
            }
            gw.service().scrape_history_once();
            let busy: Vec<(&str, AlertState)> = gw
                .service()
                .alerts()
                .status()
                .into_iter()
                .filter(|s| s.state != AlertState::Inactive)
                .map(|s| (s.name, s.state))
                .collect();
            assert!(busy.is_empty(), "rules pending or firing: {busy:?}");
        }
        gw.stop();
    }

    /// The slowest request of a bucket outlives the recent window: after
    /// twice the window's capacity of faster requests it is still
    /// fetchable by id and still leads `?slowest=1`.
    #[test]
    fn slow_request_outlives_the_window() {
        let gw = open_gateway();
        let body = r#"{"extents":[8,8],"perm":[1,0]}"#;
        let trace_id = "5105105105105105105105105105105a";
        let tp = format!("00-{trace_id}-00f067aa0ba902b7-01");
        // An hour on the wire makes it the slowest by far.
        let slow = gw.handle(
            &post_transpose(body, &[("traceparent", tp.as_str())]),
            3_600e9 as u64,
        );
        assert_eq!(slow.status, 200);
        for _ in 0..2 * TraceStoreConfig::default().capacity {
            assert_eq!(gw.handle(&post_transpose(body, &[]), 0).status, 200);
        }
        let resp = gw.handle(&get(&format!("/v1/trace/{trace_id}")), 0);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let resp = gw.handle(&get("/v1/traces?slowest=1"), 0);
        let doc = json::parse(&resp.body).unwrap();
        let first = match doc.get("traces") {
            Some(Json::Arr(t)) if t.len() == 1 => &t[0],
            other => panic!("one trace expected, got {other:?}"),
        };
        assert_eq!(
            first.get("trace_id").and_then(|v| v.as_str()),
            Some(trace_id)
        );
        gw.stop();
    }

    /// A gateway over a service with `slo` and no background scraper,
    /// so only the test's own scrapes step the alert rules.
    fn manual_gateway(slo: SloConfig, quota: QuotaConfig) -> Arc<Gateway> {
        let svc = TransposeService::with_config(
            Transposer::new_k40c(),
            RuntimeConfig {
                slo,
                history: HistoryConfig {
                    scrape_interval_ms: 0,
                },
                ..RuntimeConfig::default()
            },
        );
        Gateway::start(
            Arc::new(svc),
            GatewayConfig {
                quota,
                ..GatewayConfig::default()
            },
        )
    }

    /// The rule called `name` in a `/v1/alerts` response.
    fn alert_rule(gw: &Gateway, name: &str) -> Json {
        let resp = gw.handle(&get("/v1/alerts"), 0);
        assert_eq!(resp.status, 200);
        let doc = json::parse(&resp.body).unwrap();
        let Some(Json::Arr(rules)) = doc.get("rules") else {
            panic!("no rules in {}", String::from_utf8_lossy(&resp.body));
        };
        rules
            .iter()
            .find(|r| r.get("rule").and_then(|v| v.as_str()) == Some(name))
            .cloned()
            .expect("rule listed")
    }

    /// `shed-spike` divides sheds by transposes only: health and metrics
    /// polls between scrapes do not dilute the ratio.
    #[test]
    fn shed_spike_counts_transposes_not_polls() {
        let quota = QuotaConfig {
            rate_per_sec: 0.001,
            burst: 2.0,
            max_tenants: 8,
        };
        let gw = manual_gateway(SloConfig::default(), quota);
        for _ in 0..4 {
            gw.handle(&post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]), 0);
        }
        assert_eq!(gw.metrics().sheds(), 2);
        for _ in 0..100 {
            gw.handle(&get("/healthz"), 0);
        }
        gw.service().scrape_history_once();
        let value = alert_rule(&gw, "shed-spike")
            .get("value")
            .and_then(|v| v.as_f64());
        assert_eq!(value, Some(0.5));
        gw.stop();
    }

    /// The `state` of the rule called `name` in `/v1/alerts`.
    fn alert_state(gw: &Gateway, name: &str) -> String {
        let rule = alert_rule(gw, name);
        rule.get("state")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_string()
    }

    /// Only a history scrape advances a rule: polls of `/v1/alerts`,
    /// `/metrics` and `/healthz` between two scrapes change no state.
    #[test]
    fn alert_hysteresis_counts_scrapes_not_polls() {
        let impossible = SloConfig {
            target_us: 0.001,
            ..SloConfig::default()
        };
        let gw = manual_gateway(impossible, QuotaConfig::default());
        for _ in 0..3 {
            let resp = gw.handle(&post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]), 0);
            assert_eq!(resp.status, 200);
        }
        gw.service().scrape_history_once();
        assert_eq!(alert_state(&gw, "slo-burn"), "pending");
        for _ in 0..5 {
            assert_eq!(alert_state(&gw, "slo-burn"), "pending");
            assert_eq!(gw.handle(&get("/metrics"), 0).status, 200);
            assert_eq!(gw.handle(&get("/healthz"), 0).status, 200);
        }
        assert_eq!(gw.service().alerts().evaluations(), 1);
        gw.service().scrape_history_once();
        assert_eq!(alert_state(&gw, "slo-burn"), "firing");
        assert_eq!(gw.handle(&get("/healthz"), 0).status, 503);
        gw.stop();
    }

    /// A fired `slo-burn` resolves with no traffic: once its window
    /// holds no requests it reads 0, and two quiet scrapes clear it, so
    /// an instance pulled from rotation on the 503 turns ready again.
    #[test]
    fn slo_burn_resolves_after_a_quiet_window() {
        let impossible = SloConfig {
            target_us: 0.001,
            ..SloConfig::default()
        };
        let gw = manual_gateway(impossible, QuotaConfig::default());
        for _ in 0..3 {
            let resp = gw.handle(&post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]), 0);
            assert_eq!(resp.status, 200);
        }
        // Two scrapes of that traffic stamped 15 s and 14 s ago, past
        // the rule's 10 s window by the time of the next real scrape:
        // what `scrape_history_once` does, at an earlier clock.
        let svc = gw.service();
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_millis() as u64;
        for ago_ms in [15_000, 14_000] {
            let snap = gw.merged_snapshot();
            svc.history().ingest(&snap, now_ms - ago_ms);
            svc.alerts().evaluate(&snap, svc.history());
        }
        assert_eq!(alert_state(&gw, "slo-burn"), "firing");
        assert_eq!(gw.handle(&get("/healthz"), 0).status, 503);
        svc.scrape_history_once();
        let burn = alert_rule(&gw, "slo-burn");
        assert_eq!(burn.get("value").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(alert_state(&gw, "slo-burn"), "firing", "one clear of two");
        svc.scrape_history_once();
        assert_eq!(alert_state(&gw, "slo-burn"), "inactive");
        assert_eq!(gw.handle(&get("/healthz"), 0).status, 200);
        gw.stop();
    }

    /// One miss decision: a request whose edge time alone blows the
    /// target counts as an SLO violation and is kept as an SLO miss.
    #[test]
    fn edge_time_miss_counts_in_the_slo_and_the_trace_store() {
        let slo = SloConfig {
            target_us: 1e6,
            ..SloConfig::default()
        };
        let gw = manual_gateway(slo, QuotaConfig::default());
        let resp = gw.handle(
            &post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]),
            2_000_000_000,
        );
        assert_eq!(resp.status, 200);
        let prom = gw.export_prometheus();
        assert!(prom.contains("\nttlg_slo_violations_total 1\n"), "{prom}");
        assert!(
            prom.contains("\nttlg_trace_store_sampled_total{reason=\"slo_miss\"} 1\n"),
            "{prom}"
        );
        gw.stop();
    }

    /// Every windowed rule's value is the ratio of the two range-query
    /// points over its window, and every rule's state is what
    /// `ttlg_alerts_firing` exports.
    #[test]
    fn windowed_alert_values_reconcile_with_query_range_and_metrics() {
        let slo = SloConfig {
            target_us: 1e6,
            ..SloConfig::default()
        };
        let quota = QuotaConfig {
            rate_per_sec: 0.001,
            burst: 8.0,
            max_tenants: 8,
        };
        let gw = manual_gateway(slo, quota);
        // Two bursts of 6, each scraped; every other request spends 2 s
        // at the edge and misses the target. The second burst spends the
        // quota: 2 admitted, 4 shed.
        for _ in 0..2 {
            for i in 0..6 {
                let req = post_transpose(r#"{"extents":[8,8],"perm":[1,0]}"#, &[]);
                gw.handle(&req, i % 2 * 2_000_000_000);
            }
            gw.service().scrape_history_once();
        }
        assert!(gw.metrics().sheds() > 0);
        assert!(gw.service().slo_snapshot().violations > 0);
        let point = |series: &str, window_ms: u64| -> f64 {
            let path =
                format!("/v1/query_range?series={series}&window={window_ms}ms&step={window_ms}ms");
            let resp = gw.handle(&get(&path), 0);
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            let doc = json::parse(&resp.body).unwrap();
            let Some(Json::Arr(series)) = doc.get("series") else {
                panic!("no series for {path}");
            };
            match series[0].get("points") {
                Some(Json::Arr(points)) if points.len() == 1 => match &points[0] {
                    Json::Arr(tv) => tv[1].as_f64().unwrap(),
                    other => panic!("point pair expected, got {other:?}"),
                },
                other => panic!("one point expected for {path}, got {other:?}"),
            }
        };
        let mut windowed = 0;
        for rule in gw.service().alerts().rules() {
            let Signal::DeltaRatio {
                num,
                den,
                window_ms,
            } = rule.signal
            else {
                continue;
            };
            windowed += 1;
            let expected = point(&format!("sum(increase({num}))"), window_ms)
                / point(&format!("sum(increase({den}))"), window_ms);
            let value = alert_rule(&gw, rule.name)
                .get("value")
                .and_then(|v| v.as_f64());
            let value = value.expect("the rule has a value");
            assert!(
                (value - expected).abs() < 1e-12,
                "{}: alert {value} vs query_range {expected}",
                rule.name
            );
        }
        assert_eq!(windowed, 2, "slo-burn and shed-spike");
        let prom = gw.export_prometheus();
        let mut firing = 0;
        for rule in gw.service().alerts().rules() {
            let state = alert_rule(&gw, rule.name);
            let is_firing = state.get("state").and_then(|v| v.as_str()) == Some("firing");
            firing += is_firing as usize;
            let line = format!(
                "ttlg_alerts_firing{{rule=\"{}\"}} {}",
                rule.name,
                if is_firing { 1 } else { 0 }
            );
            assert!(prom.contains(&line), "{line} missing from:\n{prom}");
        }
        assert!(firing > 0, "the traffic fired no rule");
        gw.stop();
    }

    /// 64 first-seen tenants, released together, race past the label
    /// cap: the map ends with at most the cap plus `_other`, and every
    /// request is counted once.
    #[test]
    fn racing_new_tenants_stay_within_the_label_cap() {
        const THREADS: usize = 64;
        let metrics = GatewayMetrics::default();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (metrics, start) = (&metrics, &start);
                scope.spawn(move || {
                    let tenant = format!("tenant-{t}");
                    start.wait();
                    metrics.record_tenant(&tenant, t % 2 == 0);
                });
            }
        });
        let tenants = metrics.tenants.lock().unwrap();
        assert!(
            tenants.len() <= MAX_TENANT_LABELS + 1,
            "{} labels",
            tenants.len()
        );
        let counted: u64 = tenants.values().map(|(a, s)| a + s).sum();
        assert_eq!(counted, THREADS as u64);
        assert_eq!(tenants[OVERFLOW_TENANT].0 + tenants[OVERFLOW_TENANT].1, 32);
    }

    /// The Prometheus renderer before it wrote into one `String`: an
    /// escaped `String` and a `format!` per label pair, a `Vec` + `join`
    /// per sample and a `String` per value. Kept as the reference the
    /// current renderer's bytes must equal.
    mod reference_prom {
        use ttlg_obs::snapshot::{Histogram, Metric, MetricsSnapshot};

        fn escape_label_value(v: &str) -> String {
            let mut out = String::with_capacity(v.len());
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out
        }

        fn format_value(v: f64) -> String {
            if v.is_infinite() {
                if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
            } else if v == v.trunc() && v.abs() < 1e15 {
                format!("{}", v as i64)
            } else {
                format!("{v}")
            }
        }

        fn render_labels(pairs: &[(String, String)]) -> String {
            if pairs.is_empty() {
                return String::new();
            }
            let inner: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }

        fn render_metric(out: &mut String, m: &Metric) {
            use std::fmt::Write as _;
            writeln!(out, "# HELP {} {}", m.name, m.help).unwrap();
            writeln!(out, "# TYPE {} {}", m.name, m.kind.as_str()).unwrap();
            for s in &m.samples {
                writeln!(
                    out,
                    "{}{} {}",
                    m.name,
                    render_labels(&s.labels),
                    format_value(s.value)
                )
                .unwrap();
            }
        }

        fn render_histogram(out: &mut String, h: &Histogram) {
            use std::fmt::Write as _;
            writeln!(out, "# HELP {} {}", h.name, h.help).unwrap();
            writeln!(out, "# TYPE {} histogram", h.name).unwrap();
            let cum = h.cumulative();
            for (i, &c) in cum.iter().enumerate() {
                let le = if i < h.upper_bounds.len() {
                    format_value(h.upper_bounds[i])
                } else {
                    "+Inf".to_string()
                };
                let mut labels = h.labels.clone();
                labels.push(("le".to_string(), le));
                writeln!(out, "{}_bucket{} {}", h.name, render_labels(&labels), c).unwrap();
            }
            writeln!(
                out,
                "{}_sum{} {}",
                h.name,
                render_labels(&h.labels),
                format_value(h.sum)
            )
            .unwrap();
            writeln!(
                out,
                "{}_count{} {}",
                h.name,
                render_labels(&h.labels),
                h.count()
            )
            .unwrap();
        }

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
    }

    /// A full merged gateway snapshot (service, `ttlg_gateway_*` and
    /// `ttlg_profile_*` families, histograms) plus samples that need
    /// escaping, infinities, NaN and fractions renders to the same bytes
    /// as the reference renderer.
    #[test]
    fn prometheus_text_equals_the_reference_renderer() {
        use ttlg_obs::snapshot::{MetricKind, Sample};
        let gw = open_gateway_over(RuntimeConfig::default());
        let bodies = [
            r#"{"extents":[16,8,4],"perm":[2,0,1]}"#,
            r#"{"extents":[64,8,8],"perm":[0,2,1]}"#,
            r#"{"extents":[16,16,16,16],"perm":[3,2,1,0]}"#,
            r#"{"extents":[32,32],"perm":[0,1]}"#,
            r#"{"extents":[4,4],"perm":[0,0]}"#,
        ];
        for (i, body) in bodies.iter().enumerate() {
            let tenant = format!("tenant-{}", i % 2);
            let req = post_transpose(body, &[("x-ttlg-tenant", &tenant)]);
            gw.handle(&req, 1_000 + i as u64);
        }
        let mut snap = gw.merged_snapshot();
        let odd = |k: &str, v: &str, x: f64| Sample {
            labels: vec![("schema".into(), "Copy".into()), (k.into(), v.into())],
            value: x,
        };
        snap.push_metric(
            "ttlg_edge_cases",
            "Values and labels the text format must escape or spell out.",
            MetricKind::Gauge,
            vec![
                odd("path", "a\"b\\c\nd", 1.0),
                odd("v", "inf", f64::INFINITY),
                odd("v", "-inf", f64::NEG_INFINITY),
                odd("v", "nan", f64::NAN),
                odd("v", "fraction", 0.125),
                odd("v", "negative", -2.5e-7),
                odd("v", "huge", 3.0e21),
                odd("v", "negative zero", -0.0),
                Sample::plain(1e15),
            ],
        );
        snap.push_histogram(
            "ttlg_edge_latency_us",
            "Fractional bounds with a label that needs escaping.",
            vec![("tenant".into(), "q\"t".into())],
            vec![0.5, 1.5, 1e300],
            vec![1, 2, 3, 4],
            7.75,
        );
        let text = ttlg_obs::prom::render(&snap);
        for family in ["ttlg_requests_total", "ttlg_gateway_", "ttlg_profile_"] {
            assert!(text.contains(family), "snapshot lacks {family}");
        }
        assert!(snap.histograms.len() > 2, "snapshot lacks histograms");
        for spelled in ["+Inf", "-Inf", "NaN", r#"a\"b\\c\nd"#, "0.125"] {
            assert!(text.contains(spelled), "text lacks {spelled}");
        }
        assert_eq!(text, reference_prom::render(&snap));
        gw.stop();
    }
}
