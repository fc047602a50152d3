//! `ttlg-serve` — the network-facing gateway for TTLG-rs.
//!
//! Turns the in-process [`TransposeService`](ttlg_runtime::TransposeService)
//! into a multi-tenant network service without pulling in an async
//! runtime or any external crate: a blocking HTTP/1.1 edge over
//! `std::net`, a router/scheduler split behind it, and explicit
//! admission control in between.
//!
//! The pieces, edge inward:
//!
//! * [`http`] — incremental HTTP/1.1 parser and response writer with
//!   hard size limits (oversize heads are 431, oversize bodies 413,
//!   malformed input 400 — never a panic, never unbounded buffering);
//! * [`json`] — a minimal JSON value type, parser (depth-capped) and
//!   deterministic serializer for the request/response bodies;
//! * [`server`] — bounded accept loop + per-connection keep-alive
//!   threads over `TcpListener`;
//! * [`admission`] — per-tenant token-bucket quotas and the explicit
//!   [`Shed`] decision (HTTP 429 + `Retry-After`);
//! * [`scheduler`] — bounded per-tenant queues with class-weighted,
//!   tenant-fair dequeue feeding a fixed worker pool;
//! * [`gateway`] — the router: endpoint dispatch, request validation,
//!   the two admission gates, per-request network/queue/plan/execute
//!   phase attribution, and the `ttlg_gateway_*` metric families
//!   layered onto the service's Prometheus snapshot;
//! * [`client`] — a tiny blocking keep-alive client for loopback
//!   tests, the gateway benchmark, and CI smoke checks.
//!
//! Endpoints: `POST /v1/transpose`, `GET /v1/explain`, `GET /metrics`,
//! `GET /healthz`. Tenancy comes from the `x-ttlg-tenant` header,
//! priority class from `x-ttlg-priority: interactive|batch`.

pub mod admission;
pub mod client;
pub mod gateway;
pub mod http;
pub mod json;
pub mod scheduler;
pub mod server;

pub use admission::{AdmissionController, Priority, QuotaConfig, Shed, ShedReason};
pub use client::{ClientResponse, HttpClient};
pub use gateway::{Gateway, GatewayConfig, GatewayMetrics};
pub use http::{HttpLimits, HttpRequest, HttpResponse};
pub use scheduler::{Scheduler, SchedulerConfig};
pub use server::{spawn, ServerHandle};

#[cfg(test)]
mod e2e {
    use super::*;
    use std::sync::Arc;
    use ttlg_runtime::TransposeService;

    fn serve(cfg: GatewayConfig) -> ServerHandle {
        let gw = Gateway::start(Arc::new(TransposeService::new_k40c()), cfg);
        server::spawn(gw, "127.0.0.1:0").expect("bind loopback")
    }

    const BODY: &str = r#"{"extents":[16,8,4],"perm":[2,0,1]}"#;

    #[test]
    fn keep_alive_round_trips_over_tcp() {
        let mut h = serve(GatewayConfig::default());
        let mut c = HttpClient::connect(h.addr()).unwrap();
        // Same connection, several requests.
        for _ in 0..3 {
            let r = c
                .post_json("/v1/transpose", &[("x-ttlg-tenant", "acme")], BODY)
                .unwrap();
            assert_eq!(r.status, 200, "{}", r.body_text());
            assert!(r.body_text().contains("\"phases\""));
        }
        let r = c.get("/healthz").unwrap();
        assert_eq!(r.status, 200);
        let r = c.get("/metrics").unwrap();
        assert_eq!(r.status, 200);
        let prom = r.body_text();
        assert!(prom.contains("ttlg_gateway_requests_total"));
        assert!(prom.contains("ttlg_gateway_connections_active"));
        h.stop();
    }

    #[test]
    fn concurrent_connections_are_served() {
        let mut h = serve(GatewayConfig::default());
        let addr = h.addr();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(move || {
                    let mut c = HttpClient::connect(addr).unwrap();
                    for _ in 0..5 {
                        let r = c
                            .post_json("/v1/transpose", &[("x-ttlg-tenant", "many")], BODY)
                            .unwrap();
                        assert!(r.status == 200 || r.status == 429, "got {}", r.status);
                    }
                });
            }
        });
        h.stop();
    }

    /// The satellite-3 hammer: drive the gateway hard past its queue
    /// and quota bounds from many threads at once and prove the bounded
    /// queues never deadlock — every request gets *some* answer and the
    /// server still responds afterwards.
    #[test]
    fn shed_hammer_never_deadlocks() {
        let mut h = serve(GatewayConfig {
            workers: 2,
            queue_capacity: 2,
            quota: QuotaConfig {
                rate_per_sec: 50.0,
                burst: 5.0,
                max_tenants: 16,
            },
            ..GatewayConfig::default()
        });
        let addr = h.addr();
        let outcomes: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..12)
                .map(|i| {
                    s.spawn(move || {
                        let tenant = format!("t{}", i % 3);
                        let class = if i % 2 == 0 { "interactive" } else { "batch" };
                        let mut ok = 0u64;
                        let mut shed = 0u64;
                        let mut c = HttpClient::connect(addr).unwrap();
                        for _ in 0..20 {
                            let r = c
                                .post_json(
                                    "/v1/transpose",
                                    &[
                                        ("x-ttlg-tenant", tenant.as_str()),
                                        ("x-ttlg-priority", class),
                                    ],
                                    BODY,
                                )
                                .unwrap();
                            match r.status {
                                200 => ok += 1,
                                429 => {
                                    assert!(
                                        r.header("retry-after")
                                            .and_then(|v| v.parse::<u64>().ok())
                                            .is_some_and(|v| v >= 1),
                                        "429 without a usable Retry-After"
                                    );
                                    shed += 1;
                                }
                                other => panic!("unexpected status {other}"),
                            }
                        }
                        (ok, shed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total_ok: u64 = outcomes.iter().map(|(o, _)| o).sum();
        let total_shed: u64 = outcomes.iter().map(|(_, s)| s).sum();
        assert_eq!(total_ok + total_shed, 240, "every request was answered");
        assert!(total_ok > 0, "some requests were served");
        assert!(total_shed > 0, "overload actually triggered shedding");
        // The gateway is still alive and its shed counter is consistent.
        let mut c = HttpClient::connect(addr).unwrap();
        let prom = c.get("/metrics").unwrap().body_text();
        assert!(prom.contains("ttlg_gateway_shed_total"));
        assert_eq!(h.gateway().metrics().sheds(), total_shed);
        // Reconciliation: the per-tenant series sum to the totals, so
        // label-capped aggregation never loses requests.
        let series_sum = |family: &str| -> u64 {
            prom.lines()
                .filter(|l| l.starts_with(&format!("{family}{{")))
                .map(|l| {
                    l.rsplit(' ')
                        .next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .unwrap_or(0.0) as u64
                })
                .sum()
        };
        assert_eq!(
            series_sum("ttlg_gateway_tenant_shed_total"),
            total_shed,
            "tenant shed series sum to the shed total"
        );
        assert_eq!(
            series_sum("ttlg_gateway_tenant_admitted_total"),
            total_ok,
            "tenant admitted series sum to the served total"
        );
        h.stop();
    }

    /// Acceptance: a sampled request served over TCP yields its full
    /// span tree from `GET /v1/trace/:id`, with the trace context and
    /// request id echoed on the response.
    #[test]
    fn sampled_trace_is_queryable_over_tcp() {
        let mut h = serve(GatewayConfig::default());
        let mut c = HttpClient::connect(h.addr()).unwrap();
        let trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
        let tp = format!("00-{trace_id}-00f067aa0ba902b7-01");
        let r = c
            .post_json(
                "/v1/transpose",
                &[
                    ("x-ttlg-tenant", "acme"),
                    ("traceparent", tp.as_str()),
                    ("x-request-id", "e2e-1"),
                ],
                BODY,
            )
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert_eq!(r.header("x-request-id"), Some("e2e-1"));
        assert!(
            r.header("traceparent")
                .is_some_and(|v| v.starts_with(&format!("00-{trace_id}-"))),
            "traceparent continues the inbound context"
        );

        let r = c.get(&format!("/v1/trace/{trace_id}")).unwrap();
        assert_eq!(r.status, 200, "{}", r.body_text());
        let body = r.body_text();
        let doc = json::parse(body.as_bytes()).unwrap();
        assert_eq!(doc.get("trace_id").and_then(|v| v.as_str()), Some(trace_id));
        assert_eq!(
            doc.get("request_id").and_then(|v| v.as_str()),
            Some("e2e-1")
        );
        let root = doc.get("root").expect("span tree present");
        assert_eq!(root.get("name").and_then(|v| v.as_str()), Some("request"));
        for needle in ["\"plan\"", "\"execute\"", "\"kernel\""] {
            assert!(body.contains(needle), "{needle} missing from {body}");
        }

        let r = c.get("/v1/traces?slowest=3").unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body_text().contains(trace_id));

        let r = c.get("/v1/alerts").unwrap();
        assert_eq!(r.status, 200);
        assert!(
            r.body_text().contains("prediction-drift"),
            "{}",
            r.body_text()
        );

        let prom = c.get("/metrics").unwrap().body_text();
        assert!(prom.contains("ttlg_trace_store_sampled_total"));
        h.stop();
    }

    #[test]
    fn stalled_request_gets_408_with_request_id() {
        use std::io::{Read, Write};
        let mut h = serve(GatewayConfig {
            idle_timeout_ms: 200,
            ..GatewayConfig::default()
        });
        let mut s = std::net::TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"POST /v1/transpose HTTP/1.1\r\nhost: x\r\ncontent-length: 100\r\n\r\n{")
            .unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        assert!(text.contains("x-request-id:"), "{text}");
        assert!(text.contains("traceparent:"), "{text}");
        h.stop();
    }

    #[test]
    fn malformed_requests_get_400_over_tcp() {
        use std::io::{Read, Write};
        let mut h = serve(GatewayConfig::default());
        let mut s = std::net::TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"BOGUS nonsense\r\n\r\n").unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        h.stop();
    }

    #[test]
    fn stop_is_clean_and_idempotent() {
        let mut h = serve(GatewayConfig::default());
        let addr = h.addr();
        let mut c = HttpClient::connect(addr).unwrap();
        assert_eq!(c.get("/healthz").unwrap().status, 200);
        h.stop();
        h.stop();
        // New connections are refused (or reset) after stop.
        assert!(
            std::net::TcpStream::connect(addr)
                .map(|mut s| {
                    use std::io::{Read, Write};
                    let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
                    let mut buf = Vec::new();
                    s.read_to_end(&mut buf)
                        .map(|_| buf.is_empty())
                        .unwrap_or(true)
                })
                .unwrap_or(true),
            "stopped server must not answer"
        );
    }
}
