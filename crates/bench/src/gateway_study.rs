//! Gateway loopback study (`BENCH_gateway.json`).
//!
//! Stands up a real `ttlg-serve` gateway on an ephemeral loopback port
//! and drives it at an **overload factor** of [`OVERLOAD`]: every tenant
//! paces its keep-alive client at twice its own token-bucket rate, so
//! the offered load is twice what admission control will sustain. The study then reports what a
//! capacity review needs:
//!
//! * per-tenant offered/admitted/shed counts and client-side
//!   p50/p95/p99 (exact nearest-rank over every admitted request);
//! * per-class summaries with a **fairness ratio** (min/max admitted
//!   across the class's tenants — 1.0 is perfectly fair);
//! * the global shed rate, and whether the interactive-class p99 held
//!   its SLO while batch traffic was being shed alongside it;
//! * a final `/metrics` scrape, cross-checked against the client-side
//!   shed count so the exported `ttlg_gateway_shed_total` is proven
//!   consistent with what clients actually observed.
//!
//! Clients are closed-loop with pacing, so a response slower than the
//! pacing interval lowers the offered rate (coordinated omission); at
//! the microsecond-scale service times of the simulator this skew is
//! negligible.

use crate::study::{gate, p50_p95_p99, Gates, JsonObject, Study};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttlg::Transposer;
use ttlg_runtime::{RuntimeConfig, TransposeService};
use ttlg_serve::{client::HttpClient, Gateway, GatewayConfig, QuotaConfig, ServerHandle};

/// Outcome for one tenant's client loop.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant id sent in `x-ttlg-tenant`.
    pub tenant: String,
    /// Priority class sent in `x-ttlg-priority`.
    pub class: String,
    /// Requests issued.
    pub offered: u64,
    /// Requests answered 200.
    pub admitted: u64,
    /// Requests answered 429.
    pub shed: u64,
    /// Requests that failed any other way (transport errors, 5xx).
    pub errors: u64,
    /// Client-side latency quantiles over admitted requests, us.
    pub p50_us: f64,
    /// 95th percentile, us.
    pub p95_us: f64,
    /// 99th percentile, us.
    pub p99_us: f64,
}

/// Aggregate over one priority class.
#[derive(Debug, Clone)]
pub struct ClassSummary {
    /// Class label.
    pub class: String,
    /// Admitted requests across the class.
    pub admitted: u64,
    /// Shed requests across the class.
    pub shed: u64,
    /// min/max admitted across the class's tenants (1.0 = perfectly
    /// fair, 0 = a tenant was starved).
    pub fairness: f64,
    /// Client-side quantiles over the class's admitted requests, us.
    pub p50_us: f64,
    /// 95th percentile, us.
    pub p95_us: f64,
    /// 99th percentile, us.
    pub p99_us: f64,
}

/// The full study result.
#[derive(Debug, Clone)]
pub struct GatewayStudy {
    /// Wall-clock of the drive phase, seconds.
    pub wall_s: f64,
    /// Admitted requests per second of wall clock.
    pub throughput_rps: f64,
    /// Shed fraction of all offered requests.
    pub shed_rate: f64,
    /// Interactive-class p99 SLO target, us.
    pub slo_target_us: f64,
    /// Whether the interactive class's p99 met the target.
    pub interactive_slo_met: bool,
    /// Per-tenant outcomes.
    pub tenants: Vec<TenantOutcome>,
    /// Per-class rollups.
    pub classes: Vec<ClassSummary>,
    /// `ttlg_gateway_shed_total` summed from the final scrape.
    pub scraped_shed_total: f64,
    /// Whether the scrape agreed with the client-observed shed count.
    pub metrics_consistent: bool,
}

/// Per-tenant drive plan.
struct TenantPlan {
    tenant: &'static str,
    class: &'static str,
    body: &'static str,
}

const PLANS: [TenantPlan; 4] = [
    TenantPlan {
        tenant: "int-a",
        class: "interactive",
        body: r#"{"extents":[16,8,4],"perm":[2,0,1]}"#,
    },
    TenantPlan {
        tenant: "int-b",
        class: "interactive",
        body: r#"{"extents":[32,16],"perm":[1,0]}"#,
    },
    TenantPlan {
        tenant: "bat-a",
        class: "batch",
        body: r#"{"extents":[8,8,8],"perm":[2,1,0]}"#,
    },
    TenantPlan {
        tenant: "bat-b",
        class: "batch",
        body: r#"{"extents":[64,8],"perm":[1,0]}"#,
    },
];

/// Interactive p99 SLO for the study, us. Generous for CI boxes: the
/// point is that interactive stays orders of magnitude under the
/// request timeout even while batch floods are being shed.
pub const SLO_TARGET_US: f64 = 100_000.0;

/// Offered load as a multiple of each tenant's quota rate.
pub const OVERLOAD: f64 = 2.0;

/// Run the study: `seconds` of drive time at [`OVERLOAD`] times the
/// per-tenant quota rate.
pub fn run(seconds: f64) -> GatewayStudy {
    let quota_rate = 150.0;
    let rt = RuntimeConfig {
        queue_capacity: 16,
        ..RuntimeConfig::default()
    };
    let cfg = GatewayConfig {
        quota: QuotaConfig {
            rate_per_sec: quota_rate,
            burst: 10.0,
            max_tenants: 64,
        },
        ..GatewayConfig::default()
    };
    let svc = TransposeService::with_config(Transposer::new_k40c(), rt);
    let gw = Gateway::start(Arc::new(svc), cfg);
    let mut server: ServerHandle =
        ttlg_serve::server::spawn(gw, "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();

    // Each tenant offers `OVERLOAD * quota_rate` rps for `seconds`.
    let per_tenant = ((OVERLOAD * quota_rate * seconds).ceil() as u64).max(1);
    let interval = Duration::from_secs_f64(1.0 / (OVERLOAD * quota_rate));

    let t0 = Instant::now();
    let raw: Vec<(TenantOutcome, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = PLANS
            .iter()
            .map(|plan| {
                s.spawn(move || {
                    let mut c = HttpClient::connect(addr).expect("connect loopback");
                    let mut latencies_us: Vec<f64> = Vec::with_capacity(per_tenant as usize);
                    let (mut admitted, mut shed, mut errors) = (0u64, 0u64, 0u64);
                    let start = Instant::now();
                    for i in 0..per_tenant {
                        // Pace against the ideal schedule, not the last
                        // send, so a slow response doesn't shift every
                        // later send.
                        let due = start + interval * i as u32;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        match c.post_json(
                            "/v1/transpose",
                            &[
                                ("x-ttlg-tenant", plan.tenant),
                                ("x-ttlg-priority", plan.class),
                            ],
                            plan.body,
                        ) {
                            Ok(r) if r.status == 200 => {
                                admitted += 1;
                                latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                            }
                            Ok(r) if r.status == 429 => shed += 1,
                            _ => errors += 1,
                        }
                    }
                    (
                        TenantOutcome {
                            tenant: plan.tenant.to_string(),
                            class: plan.class.to_string(),
                            offered: per_tenant,
                            admitted,
                            shed,
                            errors,
                            p50_us: 0.0,
                            p95_us: 0.0,
                            p99_us: 0.0,
                        },
                        latencies_us,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant client"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let mut tenants = Vec::new();
    let mut class_latencies: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (mut outcome, mut lat) in raw {
        (outcome.p50_us, outcome.p95_us, outcome.p99_us) = p50_p95_p99(&mut lat);
        class_latencies
            .entry(outcome.class.clone())
            .or_default()
            .extend_from_slice(&lat);
        tenants.push(outcome);
    }

    let mut classes = Vec::new();
    for class in ["interactive", "batch"] {
        let members: Vec<&TenantOutcome> = tenants.iter().filter(|t| t.class == class).collect();
        let admitted: u64 = members.iter().map(|t| t.admitted).sum();
        let shed: u64 = members.iter().map(|t| t.shed).sum();
        let min = members.iter().map(|t| t.admitted).min().unwrap_or(0);
        let max = members.iter().map(|t| t.admitted).max().unwrap_or(0);
        let mut lat = class_latencies.remove(class).unwrap_or_default();
        let (p50_us, p95_us, p99_us) = p50_p95_p99(&mut lat);
        classes.push(ClassSummary {
            class: class.to_string(),
            admitted,
            shed,
            fairness: if max == 0 {
                0.0
            } else {
                min as f64 / max as f64
            },
            p50_us,
            p95_us,
            p99_us,
        });
    }

    // Final scrape: the exporter must agree with what clients saw.
    let client_shed: u64 = tenants.iter().map(|t| t.shed).sum();
    let scraped_shed_total = {
        let mut c = HttpClient::connect(addr).expect("connect for scrape");
        let prom = c.get("/metrics").expect("scrape /metrics").body_text();
        prom.lines()
            .filter(|l| l.starts_with("ttlg_gateway_shed_total{"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum::<f64>()
    };
    server.stop();

    let offered: u64 = tenants.iter().map(|t| t.offered).sum();
    let admitted: u64 = tenants.iter().map(|t| t.admitted).sum();
    let interactive_p99 = classes
        .iter()
        .find(|c| c.class == "interactive")
        .map(|c| c.p99_us)
        .unwrap_or(f64::NAN);
    GatewayStudy {
        wall_s,
        throughput_rps: admitted as f64 / wall_s.max(1e-9),
        shed_rate: client_shed as f64 / offered.max(1) as f64,
        slo_target_us: SLO_TARGET_US,
        interactive_slo_met: interactive_p99.is_finite() && interactive_p99 <= SLO_TARGET_US,
        tenants,
        classes,
        scraped_shed_total,
        metrics_consistent: scraped_shed_total == client_shed as f64,
    }
}

impl Study for GatewayStudy {
    fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(s, "== gateway loopback study ==").unwrap();
        writeln!(
            s,
            "overload {:.1}x  wall {:.2} s  throughput {:.0} req/s  shed rate {:.1}%",
            OVERLOAD,
            self.wall_s,
            self.throughput_rps,
            self.shed_rate * 100.0
        )
        .unwrap();
        writeln!(
            s,
            "interactive p99 SLO {} us: {}",
            self.slo_target_us,
            if self.interactive_slo_met {
                "met"
            } else {
                "MISSED"
            }
        )
        .unwrap();
        writeln!(
            s,
            "metrics scrape: shed_total={} ({})",
            self.scraped_shed_total,
            if self.metrics_consistent {
                "consistent with clients"
            } else {
                "INCONSISTENT"
            }
        )
        .unwrap();
        for c in &self.classes {
            writeln!(
                s,
                "class {:<12} admitted {:>6}  shed {:>6}  fairness {:.2}  p50 {:>8.0} us  p95 {:>8.0} us  p99 {:>8.0} us",
                c.class, c.admitted, c.shed, c.fairness, c.p50_us, c.p95_us, c.p99_us
            )
            .unwrap();
        }
        for t in &self.tenants {
            writeln!(
                s,
                "  {:<8} ({:<11}) offered {:>6}  admitted {:>6}  shed {:>6}  errors {:>3}  p99 {:>8.0} us",
                t.tenant, t.class, t.offered, t.admitted, t.shed, t.errors, t.p99_us
            )
            .unwrap();
        }
        s
    }

    fn to_json(&self) -> String {
        let quantiles = |o: JsonObject, p50: f64, p95: f64, p99: f64| {
            o.num("p50_us", p50).num("p95_us", p95).num("p99_us", p99)
        };
        JsonObject::study("gateway")
            .num("overload", OVERLOAD)
            .num("wall_s", self.wall_s)
            .num("throughput_rps", self.throughput_rps)
            .num("shed_rate", self.shed_rate)
            .obj(
                "slo",
                JsonObject::default()
                    .num("target_us", self.slo_target_us)
                    .val("interactive_met", self.interactive_slo_met),
            )
            .obj(
                "metrics",
                JsonObject::default()
                    .num("shed_total", self.scraped_shed_total)
                    .val("consistent", self.metrics_consistent),
            )
            .list(
                "classes",
                self.classes.iter().map(|c| {
                    let o = JsonObject::default()
                        .str("class", &c.class)
                        .val("admitted", c.admitted)
                        .val("shed", c.shed)
                        .num("fairness", c.fairness);
                    quantiles(o, c.p50_us, c.p95_us, c.p99_us)
                }),
            )
            .list(
                "tenants",
                self.tenants.iter().map(|t| {
                    let o = JsonObject::default()
                        .str("tenant", &t.tenant)
                        .str("class", &t.class)
                        .val("offered", t.offered)
                        .val("admitted", t.admitted)
                        .val("shed", t.shed)
                        .val("errors", t.errors);
                    quantiles(o, t.p50_us, t.p95_us, t.p99_us)
                }),
            )
            .document()
    }

    fn check(&self) -> Result<(), String> {
        let mut g = Gates::default();
        gate!(g, self.throughput_rps > 0.0);
        gate!(
            g,
            0.0 < self.shed_rate && self.shed_rate < 1.0,
            "{}",
            self.shed_rate
        );
        gate!(g, self.interactive_slo_met);
        gate!(
            g,
            self.metrics_consistent,
            "scraped {}",
            self.scraped_shed_total
        );
        let classes: Vec<&str> = self.classes.iter().map(|c| c.class.as_str()).collect();
        gate!(g, classes == ["interactive", "batch"], "{classes:?}");
        for c in &self.classes {
            gate!(
                g,
                c.p50_us <= c.p95_us && c.p95_us <= c.p99_us,
                "{}",
                c.class
            );
            gate!(g, (0.0..=1.0).contains(&c.fairness), "{}", c.class);
        }
        gate!(g, self.tenants.len() == 4);
        for t in &self.tenants {
            gate!(g, t.errors == 0, "{}", t.tenant);
        }
        g.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(p50_p95_p99(&mut v), (3.0, 5.0, 5.0));
        // A class whose every request was shed has no latencies.
        let (p50, p95, p99) = p50_p95_p99(&mut []);
        assert!(p50.is_nan() && p95.is_nan() && p99.is_nan());
    }

    #[test]
    fn short_overloaded_run_sheds_and_stays_consistent() {
        // A fraction of a second at 2x overload is enough to exercise
        // every path: admission, shedding, fairness, and the scrape.
        let study = run(0.3);
        let offered: u64 = study.tenants.iter().map(|t| t.offered).sum();
        let errors: u64 = study.tenants.iter().map(|t| t.errors).sum();
        assert!(offered > 0);
        assert_eq!(errors, 0, "no transport errors on loopback");
        assert!(study.shed_rate > 0.0, "2x overload must shed");
        assert!(study.shed_rate < 1.0, "but not everything");
        assert!(study.metrics_consistent, "exporter agrees with clients");
        assert!(study.interactive_slo_met, "interactive p99 within SLO");
        let json = study.to_json();
        assert!(json.contains("\"study\": \"gateway\""));
        assert!(json.contains("\"fairness\""));
        assert!(!study.render().is_empty());
        assert_eq!(study.check(), Ok(()));
        let mut broken = study.clone();
        broken.shed_rate = 1.0;
        broken.tenants.pop();
        let err = broken.check().unwrap_err();
        assert!(err.contains("self.shed_rate < 1.0 (1)"), "{err}");
        assert!(
            err.contains("failed gate: self.tenants.len() == 4"),
            "{err}"
        );
    }
}
