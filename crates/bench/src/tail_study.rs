//! Tail-latency attribution study (`BENCH_tail.json`).
//!
//! The paper evaluates *mean* bandwidth per permutation; a service built
//! on the library lives and dies by its *tail*. This study replays a
//! skewed workload — a few hot plan keys plus a cold tail spread across
//! shape classes — through a **real loopback gateway** (`ttlg-serve` on
//! an ephemeral port), lets the measure-mode autotuner warm the hot keys
//! mid-run, and then attributes the tail from the gateway's own
//! four-phase decomposition: every response body carries measured
//! `network` / `queue` / `plan` / `execute` microseconds, so the phase
//! shares reported here are the edge's real accounting, not a synthetic
//! re-derivation from stored traces. Per-schema p50/p95/p99, which phase
//! dominates at p99, the trace store's slowest records per bucket with
//! their planner decision traces, and the SLO hit ratio complete the
//! picture.
//!
//! Quantiles here are *exact* (nearest-rank over every response), unlike
//! the service's log2-bucketed online estimates — so the study doubles
//! as a sanity check on the bucketed exporter.

use crate::study::{gate, nearest_rank, p50_p95_p99, Gates, JsonObject, Study};
use std::sync::Arc;
use ttlg::Transposer;
use ttlg_runtime::{
    RuntimeConfig, SloSnapshot, TraceStoreConfig, TransposeRequest, TransposeService,
};
use ttlg_serve::{client::HttpClient, Gateway, GatewayConfig, QuotaConfig, ServerHandle};
use ttlg_tensor::rng::StdRng;
use ttlg_tensor::{DenseTensor, Permutation, Shape};

/// Phase shares (fractions of total latency, summing to ~1) over the
/// requests at or beyond a quantile cutoff, using the gateway's real
/// four-phase decomposition from the response bodies.
#[derive(Debug, Clone, Copy, Default)]
pub struct GatewayPhaseShares {
    /// Share of time on the wire (first byte to parsed request).
    pub network: f64,
    /// Share of time queued in the service (admission to the start of
    /// execution, the execution permit included).
    pub queue: f64,
    /// Share of time fetching or building the plan.
    pub plan: f64,
    /// Share of time executing the kernel.
    pub execute: f64,
}

impl GatewayPhaseShares {
    /// The phase with the largest share (ties favor `execute`).
    pub fn dominant(&self) -> &'static str {
        let mut best = ("execute", self.execute);
        for (name, share) in [
            ("network", self.network),
            ("queue", self.queue),
            ("plan", self.plan),
        ] {
            if share > best.1 {
                best = (name, share);
            }
        }
        best.0
    }
}

/// One request's worth of gateway-reported phase data, parsed from the
/// `/v1/transpose` response body.
#[derive(Debug, Clone)]
struct GatewaySample {
    schema: String,
    warmed: bool,
    network_us: f64,
    queue_us: f64,
    plan_us: f64,
    execute_us: f64,
}

impl GatewaySample {
    fn total_us(&self) -> f64 {
        self.network_us + self.queue_us + self.plan_us + self.execute_us
    }
}

/// One of the trace store's slowest records per bucket, flattened for
/// the report. Its phase split is the service-side three-phase view (no
/// network component).
#[derive(Debug, Clone)]
pub struct SlowRecord {
    /// Request id (joins against service logs / trace dumps).
    pub id: u64,
    /// Shape class of the request (e.g. `"r4v12"`).
    pub shape_class: String,
    /// Total latency, us.
    pub total_us: f64,
    /// Queue-wait share of the total, us.
    pub queue_wait_us: f64,
    /// Plan-fetch share of the total, us.
    pub plan_fetch_us: f64,
    /// Execute share of the total, us.
    pub execute_us: f64,
    /// Whether the request ran an autotuner-warmed plan.
    pub warmed: bool,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Candidate count in the retained planner decision trace
    /// (0 = no decision retained).
    pub decision_candidates: usize,
}

/// Tail summary for one schema.
#[derive(Debug, Clone)]
pub struct SchemaTail {
    /// Schema label.
    pub schema: String,
    /// Requests served under this schema.
    pub requests: usize,
    /// Exact nearest-rank quantiles over total latency, us.
    pub p50_us: f64,
    /// 95th percentile, us.
    pub p95_us: f64,
    /// 99th percentile, us.
    pub p99_us: f64,
    /// Gateway phase shares over the requests at or beyond p99.
    pub phase_at_p99: GatewayPhaseShares,
    /// The schema's slowest retained records (slowest first).
    pub slowest: Vec<SlowRecord>,
}

/// Before/after-warming tail comparison.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmthTail {
    /// Requests in this slice.
    pub requests: usize,
    /// Exact p99 over the slice, us.
    pub p99_us: f64,
}

/// Outcome of one tail study run.
#[derive(Debug, Clone)]
pub struct TailStudy {
    /// Passes over the workload (see [`workload_specs`]).
    pub rounds: usize,
    /// Total requests replayed.
    pub requests: usize,
    /// Requests that coalesced onto another identical in-flight
    /// request's execution (0 for this sequential replay; nonzero under
    /// concurrent duplicate load).
    pub coalesced_requests: u64,
    /// Records evicted from the trace store (0 — the window is sized to
    /// fit).
    pub trace_evicted: u64,
    /// Records retained across the slowest-per-bucket sets.
    pub slowest_records: usize,
    /// Per-schema tails, slowest p99 first.
    pub schemas: Vec<SchemaTail>,
    /// Requests served by autotuner-warmed plans.
    pub warmed: WarmthTail,
    /// Requests served by model-ranked (unwarmed) plans.
    pub unwarmed: WarmthTail,
    /// SLO view of the run (hit rate, violations).
    pub slo: SloSnapshot,
    /// Flame-style phase-profile tree of the trace store's recent window.
    pub flame: String,
}

/// Gateway phase shares over the samples with total latency >=
/// `cutoff_us`.
fn phase_at(samples: &[&GatewaySample], cutoff_us: f64) -> GatewayPhaseShares {
    let (mut n, mut q, mut p, mut e) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for s in samples.iter().filter(|s| s.total_us() >= cutoff_us) {
        n += s.network_us;
        q += s.queue_us;
        p += s.plan_us;
        e += s.execute_us;
    }
    let total = n + q + p + e;
    if total == 0.0 {
        return GatewayPhaseShares::default();
    }
    GatewayPhaseShares {
        network: n / total,
        queue: q / total,
        plan: p / total,
        execute: e / total,
    }
}

fn warmth_tail(samples: &[GatewaySample], warmed: bool) -> WarmthTail {
    let mut totals: Vec<f64> = samples
        .iter()
        .filter(|s| s.warmed == warmed)
        .map(|s| s.total_us())
        .collect();
    totals.sort_by(|a, b| a.total_cmp(b));
    WarmthTail {
        requests: totals.len(),
        p99_us: nearest_rank(&totals, 0.99),
    }
}

/// The skewed workload as `(extents, perm)` problem specs: `rounds`
/// passes over a mix of hot rank-4 permutations (repeated every round,
/// so the autotuner sees them as hot) plus a cold tail of one-off
/// problems across several shape classes.
pub fn workload_specs(rounds: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let hot_extents = vec![6usize, 5, 4, 3];
    let hot_perms: [[usize; 4]; 3] = [[3, 1, 0, 2], [2, 3, 1, 0], [1, 0, 3, 2]];
    let cold: [(&[usize], &[usize]); 4] = [
        (&[32, 32], &[1, 0]),
        (&[16, 16, 16], &[2, 1, 0]),
        (&[8, 8, 8, 8], &[2, 3, 0, 1]),
        (&[4, 4, 4, 4, 4], &[4, 3, 2, 1, 0]),
    ];
    let mut specs: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for _ in 0..rounds {
        for p in &hot_perms {
            specs.push((hot_extents.clone(), p.to_vec()));
        }
        for (e, p) in &cold {
            specs.push((e.to_vec(), p.to_vec()));
        }
    }
    let mut rng = StdRng::seed_from_u64(0x7A11_57D1);
    rng.shuffle(&mut specs);
    specs
}

/// The same workload materialized as service-level requests (used by
/// `ttlg profile --tail`, which replays in-process without a gateway).
/// Hot problems share one input tensor; cold problems get their own.
pub fn workload(rounds: usize) -> Vec<TransposeRequest<f64>> {
    let mut inputs: std::collections::HashMap<Vec<usize>, Arc<DenseTensor<f64>>> =
        std::collections::HashMap::new();
    workload_specs(rounds)
        .into_iter()
        .map(|(extents, perm)| {
            let input = Arc::clone(inputs.entry(extents.clone()).or_insert_with(|| {
                Arc::new(DenseTensor::<f64>::iota(Shape::new(&extents).unwrap()))
            }));
            TransposeRequest::new(input, Permutation::new(&perm).unwrap())
        })
        .collect()
}

/// Run the study: stand up a loopback gateway, warm half the workload
/// over real HTTP, autotune the hot keys, replay the other half, then
/// attribute the tail from the gateway's per-response phase
/// decomposition.
pub fn run(rounds: usize) -> TailStudy {
    let specs = workload_specs(rounds);
    let cfg = RuntimeConfig {
        // The trace window holds the whole run, so no record is evicted.
        traces: TraceStoreConfig {
            capacity: specs.len().next_power_of_two(),
            ..TraceStoreConfig::default()
        },
        autotune: Some(2),
        ..RuntimeConfig::default()
    };
    let svc = Arc::new(TransposeService::<f64>::with_config(
        Transposer::new_k40c(),
        cfg,
    ));
    let gw = Gateway::start(
        Arc::clone(&svc),
        GatewayConfig {
            quota: QuotaConfig {
                rate_per_sec: 1e6,
                burst: 1e6,
                ..QuotaConfig::default()
            },
            ..GatewayConfig::default()
        },
    );
    let mut server: ServerHandle =
        ttlg_serve::server::spawn(Arc::clone(&gw), "127.0.0.1:0").expect("bind loopback");
    let mut client = HttpClient::connect(server.addr()).expect("connect loopback");

    // First half establishes the pre-warming tail and marks keys hot;
    // one synchronous autotune pass then warms them, and the second
    // half runs against warmed plans where available.
    let mid = specs.len() / 2;
    let mut samples: Vec<GatewaySample> = Vec::with_capacity(specs.len());
    for (i, (extents, perm)) in specs.iter().enumerate() {
        if i == mid {
            svc.autotune_once();
        }
        let body = format!("{{\"extents\":{extents:?},\"perm\":{perm:?}}}");
        let resp = client
            .post_json("/v1/transpose", &[("x-ttlg-tenant", "tail-study")], &body)
            .expect("loopback request");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let json = ttlg_serve::json::parse(&resp.body).expect("response body is JSON");
        let phases = json.get("phases").expect("phases present");
        let us = |key: &str| {
            phases
                .get(key)
                .and_then(|v| v.as_f64())
                .expect("phase value")
        };
        samples.push(GatewaySample {
            schema: json
                .get("schema")
                .and_then(|v| v.as_str())
                .unwrap_or("unplanned")
                .to_string(),
            warmed: matches!(json.get("warmed"), Some(ttlg_serve::json::Json::Bool(true))),
            network_us: us("network_us"),
            queue_us: us("queue_us"),
            plan_us: us("plan_us"),
            execute_us: us("execute_us"),
        });
    }
    server.stop();

    // Group by schema and compute exact tails from the gateway samples.
    let mut by_schema: Vec<(String, Vec<&GatewaySample>)> = Vec::new();
    for s in &samples {
        match by_schema.iter_mut().find(|(k, _)| *k == s.schema) {
            Some((_, v)) => v.push(s),
            None => by_schema.push((s.schema.clone(), vec![s])),
        }
    }
    let buckets = svc.trace_store().buckets();
    let slowest_records = buckets.iter().map(|(_, recs)| recs.len()).sum();
    let mut schemas: Vec<SchemaTail> = by_schema
        .into_iter()
        .map(|(schema, ss)| {
            let mut totals: Vec<f64> = ss.iter().map(|s| s.total_us()).collect();
            let (p50_us, p95_us, p99_us) = p50_p95_p99(&mut totals);
            let mut slowest: Vec<SlowRecord> = buckets
                .iter()
                .filter(|((s, _), _)| *s == schema)
                .flat_map(|((_, class), entries)| entries.iter().map(move |e| (class, e)))
                .map(|(class, e)| SlowRecord {
                    id: e.trace.id,
                    shape_class: class.clone(),
                    total_us: e.trace.total_ns() as f64 * 1e-3,
                    queue_wait_us: e.trace.queue_wait_ns as f64 * 1e-3,
                    plan_fetch_us: e.trace.plan_fetch_ns as f64 * 1e-3,
                    execute_us: e.trace.execute_ns as f64 * 1e-3,
                    warmed: e.trace.warmed,
                    cache_hit: e.trace.cache_hit.unwrap_or(false),
                    decision_candidates: e.decision.as_ref().map_or(0, |d| d.candidates.len()),
                })
                .collect();
            slowest.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
            slowest.truncate(3);
            SchemaTail {
                requests: ss.len(),
                p50_us,
                p95_us,
                p99_us,
                phase_at_p99: phase_at(&ss, p99_us),
                slowest,
                schema,
            }
        })
        .collect();
    schemas.sort_by(|a, b| b.p99_us.total_cmp(&a.p99_us));

    TailStudy {
        rounds,
        requests: samples.len(),
        coalesced_requests: svc.metrics().coalesced_requests(),
        trace_evicted: svc.trace_store().evicted(),
        slowest_records,
        warmed: warmth_tail(&samples, true),
        unwarmed: warmth_tail(&samples, false),
        slo: svc.slo_snapshot(),
        flame: svc.render_profile(),
        schemas,
    }
}

impl Study for TailStudy {
    /// Render the human-readable report: per-schema tail table, the
    /// warming comparison, the SLO line, and the flame tree.
    fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("== tail-latency attribution (loopback gateway) ==\n");
        s.push_str(&format!(
            "workload: {} requests, {} coalesced; trace store: {} slowest records retained, {} evicted\n",
            self.requests, self.coalesced_requests, self.slowest_records, self.trace_evicted
        ));
        s.push_str(&format!(
            "{:<24} {:>6} {:>10} {:>10} {:>10}  {}\n",
            "schema", "n", "p50 us", "p95 us", "p99 us", "dominant @p99"
        ));
        for sc in &self.schemas {
            s.push_str(&format!(
                "{:<24} {:>6} {:>10.1} {:>10.1} {:>10.1}  {}\n",
                sc.schema,
                sc.requests,
                sc.p50_us,
                sc.p95_us,
                sc.p99_us,
                sc.phase_at_p99.dominant()
            ));
        }
        s.push_str(&format!(
            "warmed plans: {} requests p99 {:.1} us | unwarmed: {} requests p99 {:.1} us\n",
            self.warmed.requests, self.warmed.p99_us, self.unwarmed.requests, self.unwarmed.p99_us
        ));
        s.push_str(&format!(
            "slo: target {:.0} us goal {:.2} hit-ratio {:.4} ({} of {} missed)\n",
            self.slo.target_us,
            self.slo.goal,
            self.slo.hit_ratio,
            self.slo.violations,
            self.slo.total
        ));
        s.push('\n');
        s.push_str(&self.flame);
        s
    }

    fn to_json(&self) -> String {
        let warmth = |w: &WarmthTail| {
            JsonObject::default()
                .val("requests", w.requests)
                .num("p99_us", w.p99_us)
        };
        JsonObject::study("tail")
            .val("rounds", self.rounds)
            .val("requests", self.requests)
            .val("coalesced_requests", self.coalesced_requests)
            .val("trace_evicted", self.trace_evicted)
            .val("slowest_records", self.slowest_records)
            .obj("warmed", warmth(&self.warmed))
            .obj("unwarmed", warmth(&self.unwarmed))
            .obj(
                "slo",
                JsonObject::default()
                    .num("target_us", self.slo.target_us)
                    .num("goal", self.slo.goal)
                    .val("total", self.slo.total)
                    .val("violations", self.slo.violations)
                    .num("hit_ratio", self.slo.hit_ratio),
            )
            .list(
                "schemas",
                self.schemas.iter().map(|sc| {
                    let ph = sc.phase_at_p99;
                    JsonObject::default()
                        .str("schema", &sc.schema)
                        .val("requests", sc.requests)
                        .num("p50_us", sc.p50_us)
                        .num("p95_us", sc.p95_us)
                        .num("p99_us", sc.p99_us)
                        .str("dominant_phase_at_p99", ph.dominant())
                        .obj(
                            "phase_at_p99",
                            JsonObject::default()
                                .num("network", ph.network)
                                .num("queue", ph.queue)
                                .num("plan", ph.plan)
                                .num("execute", ph.execute),
                        )
                        .list(
                            "slowest",
                            sc.slowest.iter().map(|e| {
                                JsonObject::default()
                                    .val("id", e.id)
                                    .str("shape_class", &e.shape_class)
                                    .num("total_us", e.total_us)
                                    .num("queue_wait_us", e.queue_wait_us)
                                    .num("plan_fetch_us", e.plan_fetch_us)
                                    .num("execute_us", e.execute_us)
                                    .val("warmed", e.warmed)
                                    .val("cache_hit", e.cache_hit)
                                    .val("decision_candidates", e.decision_candidates)
                            }),
                        )
                }),
            )
            .document()
    }

    fn check(&self) -> Result<(), String> {
        let mut g = Gates::default();
        gate!(g, self.requests > 0);
        gate!(g, self.trace_evicted == 0, "{}", self.trace_evicted);
        gate!(g, self.slowest_records > 0);
        gate!(g, (0.0..=1.0).contains(&self.slo.hit_ratio));
        gate!(g, !self.schemas.is_empty());
        for sc in &self.schemas {
            let (name, ph) = (&sc.schema, sc.phase_at_p99);
            gate!(
                g,
                sc.p50_us <= sc.p95_us && sc.p95_us <= sc.p99_us,
                "{name}"
            );
            let sum = ph.network + ph.queue + ph.plan + ph.execute;
            gate!(g, (sum - 1.0).abs() < 1e-6, "{name}: {sum}");
            let phases = ["network", "queue", "plan", "execute"];
            gate!(g, phases.contains(&ph.dominant()), "{name}");
            gate!(g, !sc.slowest.is_empty(), "{name}");
        }
        g.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(nearest_rank(&sorted, 0.50), 50.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
        assert!(nearest_rank(&[], 0.5).is_nan());
    }

    #[test]
    fn dominant_phase_prefers_execute_on_ties() {
        let even = GatewayPhaseShares {
            network: 0.25,
            queue: 0.25,
            plan: 0.25,
            execute: 0.25,
        };
        assert_eq!(even.dominant(), "execute");
        let network_heavy = GatewayPhaseShares {
            network: 0.7,
            queue: 0.1,
            plan: 0.1,
            execute: 0.1,
        };
        assert_eq!(network_heavy.dominant(), "network");
    }

    #[test]
    fn tail_study_attributes_every_schema() {
        let study = run(4);
        assert_eq!(study.requests, 28);
        assert_eq!(study.check(), Ok(()));
        assert!(!study.schemas.is_empty());
        for sc in &study.schemas {
            assert!(sc.requests > 0);
            let ph = sc.phase_at_p99;
            let sum = ph.network + ph.queue + ph.plan + ph.execute;
            assert!((sum - 1.0).abs() < 1e-9, "{} shares sum {sum}", sc.schema);
            assert!(ph.network > 0.0, "gateway phases carry a network share");
            assert!(!ph.dominant().is_empty());
        }
        // The autotune pass warmed the hot keys, so the second half of
        // the run carries warmed requests.
        assert!(study.warmed.requests > 0, "no warmed requests observed");
        assert_eq!(
            study.warmed.requests + study.unwarmed.requests,
            study.requests
        );
        assert_eq!(study.slo.total as usize, study.requests);
        assert!(study.flame.contains("execute"));
    }

    /// The study runs the rounds it is asked for, and its artifact says
    /// how many.
    #[test]
    fn one_round_runs_one_pass_and_checks() {
        let study = run(1);
        assert_eq!(study.requests, workload_specs(1).len());
        assert_eq!(study.requests, 7);
        assert_eq!(study.check(), Ok(()));
        assert!(study.to_json().contains("\"rounds\": 1,"));
    }

    #[test]
    fn render_and_json_carry_the_attribution() {
        let study = run(2);
        let text = study.render();
        assert!(text.contains("tail-latency attribution"));
        assert!(text.contains("dominant @p99"));
        assert!(text.contains("slo:"));
        let json = study.to_json();
        assert!(json.contains("\"study\": \"tail\""));
        assert!(json.contains("\"coalesced_requests\""));
        assert!(json.contains("\"dominant_phase_at_p99\""));
        assert!(json.contains("\"phase_at_p99\": {\"network\":"));
        assert!(json.contains("\"slowest\": [{"));
        assert!(json.contains("\"hit_ratio\""));
        let mut broken = study.clone();
        broken.trace_evicted = 3;
        broken.schemas[0].slowest.clear();
        let err = broken.check().unwrap_err();
        assert!(err.contains("self.trace_evicted == 0 (3)"), "{err}");
        assert!(err.contains("!sc.slowest.is_empty()"), "{err}");
    }
}
