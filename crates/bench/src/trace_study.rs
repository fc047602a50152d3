//! Tracing, alerting and measure-mode study: drive the gateway over
//! loopback TCP with a deliberately mis-calibrated prediction model,
//! tune it, and watch the observability stack react end to end.
//!
//! Phase 1 serves a mixed-permutation workload through the full HTTP
//! path with [`skewed_models`]: the pretrained regression models with
//! their slice-dependent terms pointed the wrong way, so predictions
//! miss and the model ranks candidates within a key in the wrong order.
//! Every admitted request streams prediction residuals into the merged
//! snapshot and the [`OnlinePredictor`], so history scrapes walk the
//! `prediction-drift` rule Inactive → Pending → Firing, as
//! `GET /v1/alerts` reports. One synchronous autotune pass then measures
//! the top-ranked candidates of every key, warms the cache with the
//! measured-best plans and streams every measurement into the online
//! model, and phase 2 replays the workload until the lifetime geo-mean
//! error falls back under the rule threshold and the alert resolves.
//! Hot keys then run measured-best plans whose predicted time *is*
//! their measured time; the study reports each phase's simulated
//! execute-time p50/p99 from the responses. Throughout, a deliberately
//! tiny trace window with a fractional head-sampling rate exercises the
//! sampling and eviction accounting: the study ends by fetching the
//! slowest sampled trace back over TCP and reading the service trace
//! store's counters.

use crate::study::{gate, nearest_rank, Gates, JsonObject, Study, MAX_PERMS};
use std::sync::Arc;
use ttlg::{TimePredictor, Transposer};
use ttlg_gpu_sim::DeviceConfig;
use ttlg_perfmodel::online::OnlineConfig;
use ttlg_perfmodel::pretrained::model_pair_k40c;
use ttlg_perfmodel::{MeasurementSink, ModelPair, OnlinePredictor};
use ttlg_runtime::{AutotuneSnapshot, RuntimeConfig, TraceStoreConfig, TransposeService};
use ttlg_serve::json::Json;
use ttlg_serve::{client::HttpClient, Gateway, GatewayConfig, QuotaConfig};
use ttlg_tensor::Permutation;

/// Outcome of one tracing/alerting study run.
#[derive(Debug, Clone)]
pub struct TraceStudy {
    /// Distinct permutations (= distinct plan keys) in the workload.
    pub distinct_perms: usize,
    /// Passes over those permutations in phase 1.
    pub rounds: usize,
    /// Requests sent while the skewed model was serving.
    pub requests_phase1: u64,
    /// Requests replayed after the autotune pass.
    pub requests_phase2: u64,
    /// Geo-mean prediction error when the drift alert was checked.
    pub geo_error_before: f64,
    /// Lifetime geo-mean prediction error at the end of phase 2.
    pub geo_error_after: f64,
    /// Median simulated execute time of phase 1's responses, µs.
    pub p50_exec_us_before: f64,
    /// 99th-percentile simulated execute time of phase 1's responses, µs.
    pub p99_exec_us_before: f64,
    /// Median simulated execute time of phase 2's responses, µs.
    pub p50_exec_us_after: f64,
    /// 99th-percentile simulated execute time of phase 2's responses, µs.
    pub p99_exec_us_after: f64,
    /// Autotuner counters after the tuning pass.
    pub tuner: AutotuneSnapshot,
    /// Measured points the online model accepted.
    pub online_points: u64,
    /// Successful online refits.
    pub online_refits: u64,
    /// The `prediction-drift` rule reached Firing in phase 1.
    pub drift_fired: bool,
    /// Alert-engine evaluations consumed when firing was observed.
    pub drift_fired_after_evals: u64,
    /// The rule returned to Inactive after the autotune pass.
    pub drift_resolved: bool,
    /// Total alert-engine evaluations over the whole study.
    pub alert_evaluations: u64,
    /// Requests offered to the trace store.
    pub offered_traces: u64,
    /// Requests retained (head-sampled or tail-forced).
    pub sampled_traces: u64,
    /// Requests the head sampler declined.
    pub unsampled_traces: u64,
    /// Kept records that left both the window and their bucket.
    pub evicted_traces: u64,
    /// Records resident in the store at the end.
    pub resident_traces: usize,
    /// Span count of the slowest resident trace.
    pub slowest_trace_spans: usize,
    /// End-to-end duration of the slowest resident trace, µs.
    pub slowest_trace_total_us: f64,
    /// `GET /v1/traces?slowest=1` + `GET /v1/trace/:id` round-tripped
    /// the full span tree over TCP.
    pub trace_fetch_ok: bool,
    /// Snapshots ingested into the metrics history store (one per
    /// drive pass).
    pub history_scrapes: u64,
    /// Points retained across the store's series at the end.
    pub history_points: u64,
    /// Worst in-window per-schema geo-mean error read back from the
    /// store via `max_over_time(ttlg_prediction_geo_mean_error)` after
    /// phase 1 — the windowed signal the alert engine evaluates, which
    /// a two-snapshot diff cannot reconstruct once the skew is diluted.
    pub windowed_drift_value: f64,
}

/// Tenants the drive loop rotates through.
const TENANTS: [&str; 3] = ["acme", "globex", "initech"];

/// Upper bound on phase-2 replay passes while waiting for the drift
/// rule to resolve. The rule watches the *worst* per-schema lifetime
/// geo-mean, and the skew can push a single schema's phase-1 error to
/// 10^3-10^4x; diluting that below the 1.5x threshold takes dozens of
/// well-predicted passes. Requests are cache hits by then, so passes
/// are cheap; the loop breaks as soon as the rule goes inactive.
const MAX_REPLAY_PASSES: usize = 200;

/// The pretrained K40c models with their slice-dependent terms skewed
/// adversarially: predictions are biased *and* rank candidates within a
/// key in the wrong order, so measure mode has real mistakes to fix.
pub fn skewed_models() -> ModelPair {
    let mut pair = model_pair_k40c();
    pair.od.intercept *= 2.0;
    // OD features: Volume, NumBlocks, Input slice, Output slice, Cycles.
    pair.od.coefficients[2] *= -6.0;
    pair.od.coefficients[3] *= -6.0;
    pair.od.coefficients[4] *= 0.2;
    pair.oa.intercept *= 2.0;
    // OA features: Volume, NumThreads, Total Slice, Input Stride,
    // Output Stride, Special Instr, Cycles.
    pair.oa.coefficients[2] *= -6.0;
    pair.oa.coefficients[3] *= -4.0;
    pair.oa.coefficients[4] *= -4.0;
    pair.oa.coefficients[6] *= 0.2;
    pair
}

/// Request bodies for the first `distinct` rank-4 permutations in
/// lexicographic order.
fn perm_bodies(distinct: usize) -> Vec<String> {
    assert!(
        (1..=MAX_PERMS).contains(&distinct),
        "rank-4 has 24 permutations"
    );
    Permutation::all(4)
        .take(distinct)
        .map(|p| format!("{{\"extents\":[6,5,4,3],\"perm\":{:?}}}", p.as_slice()))
        .collect()
}

/// One pass over the workload: returns requests sent, and adds each
/// served response's simulated execute time (µs) to `kernel_us`.
fn drive_pass(client: &mut HttpClient, bodies: &[String], kernel_us: &mut Vec<f64>) -> u64 {
    let mut sent = 0u64;
    for (i, body) in bodies.iter().enumerate() {
        let r = client
            .post_json(
                "/v1/transpose",
                &[("x-ttlg-tenant", TENANTS[i % TENANTS.len()])],
                body,
            )
            .expect("study request");
        assert!(
            r.status == 200 || r.status == 429,
            "unexpected status {}: {}",
            r.status,
            r.body_text()
        );
        if r.status == 200 {
            let doc = ttlg_serve::json::parse(&r.body).expect("response json");
            kernel_us.push(
                doc.get("kernel_us")
                    .and_then(Json::as_f64)
                    .expect("kernel_us"),
            );
        }
        sent += 1;
    }
    sent
}

/// Current state of the `prediction-drift` rule as reported by
/// `GET /v1/alerts` (as of the last history scrape).
fn drift_state(client: &mut HttpClient) -> String {
    let body = client.get("/v1/alerts").expect("alerts").body_text();
    let doc = ttlg_serve::json::parse(body.as_bytes()).expect("alerts json");
    if let Some(Json::Arr(rules)) = doc.get("rules") {
        for rule in rules {
            if rule.get("rule").and_then(|v| v.as_str()) == Some("prediction-drift") {
                return rule
                    .get("state")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string();
            }
        }
    }
    "?".to_string()
}

/// Run the study: phase 1 with the skewed model until the drift rule
/// fires, one synchronous autotune pass, phase 2 until it resolves.
pub fn run(distinct: usize, rounds: usize) -> TraceStudy {
    let device = DeviceConfig::k40c();
    let online = Arc::new(OnlinePredictor::from_pair(
        &skewed_models(),
        device.clone(),
        OnlineConfig {
            forgetting: 1.0,
            min_points: 8,
            prior_strength: 1e-9,
        },
    ));
    let transposer =
        Transposer::with_predictor(device, Arc::clone(&online) as Arc<dyn TimePredictor>);
    let cfg = RuntimeConfig {
        autotune: Some(1),
        // A deliberately tiny window with fractional head sampling so
        // the sampling and eviction accounting has something to count.
        traces: TraceStoreConfig {
            capacity: 8,
            sample_rate: 0.5,
        },
        ..RuntimeConfig::default()
    };
    let svc = Arc::new(
        TransposeService::<f64>::with_config(transposer, cfg)
            .with_measurement_sink(Arc::clone(&online) as Arc<dyn MeasurementSink>),
    );
    let gw_cfg = GatewayConfig {
        quota: QuotaConfig {
            rate_per_sec: 1e9,
            burst: 1e9,
            max_tenants: 16,
        },
        ..GatewayConfig::default()
    };
    let gw = Gateway::start(Arc::clone(&svc), gw_cfg);
    let mut server = ttlg_serve::server::spawn(Arc::clone(&gw), "127.0.0.1:0").expect("bind");
    let mut client = HttpClient::connect(server.addr()).expect("connect loopback");

    let bodies = perm_bodies(distinct);

    // Phase 1: serve with the skewed model, then scrape and poll the
    // alert endpoint until the drift rule walks Pending -> Firing.
    let mut requests_phase1 = 0u64;
    let mut kernel_us_before = Vec::new();
    for _ in 0..rounds {
        requests_phase1 += drive_pass(&mut client, &bodies, &mut kernel_us_before);
        // One history scrape per pass: the store sees the drift build
        // up sample by sample instead of as one opaque total.
        svc.scrape_history_once();
    }
    let geo_before = svc.metrics().prediction().overall_geo_mean_error();
    // Read the drift back out of the history store the way the
    // windowed alert path does: worst per-schema geo-mean error across
    // every retained scrape.
    let windowed_drift_value = svc
        .history()
        .last_ingest_ms()
        .and_then(|end| {
            ttlg_runtime::eval_range(
                svc.history(),
                "max_over_time(ttlg_prediction_geo_mean_error)",
                end,
                600_000,
                1_000,
            )
            .ok()
        })
        .map(|r| {
            r.series
                .iter()
                .flat_map(|s| s.points.iter().map(|&(_, v)| v))
                .filter(|v| v.is_finite())
                .fold(0.0f64, f64::max)
        })
        .unwrap_or(0.0);
    let mut drift_fired = false;
    for _ in 0..6 {
        svc.scrape_history_once();
        if drift_state(&mut client) == "firing" {
            drift_fired = true;
            break;
        }
    }
    let drift_fired_after_evals = svc.alerts().evaluations();

    // One synchronous tuning pass: every key is already hot.
    while svc.autotune_once() > 0 {}

    // Phase 2: replay until the lifetime geo-mean falls back under the
    // rule threshold and two consecutive clean evaluations resolve it.
    let mut requests_phase2 = 0u64;
    let mut kernel_us_after = Vec::new();
    let mut drift_resolved = false;
    for _ in 0..MAX_REPLAY_PASSES {
        requests_phase2 += drive_pass(&mut client, &bodies, &mut kernel_us_after);
        svc.scrape_history_once();
        if drift_state(&mut client) == "inactive" {
            drift_resolved = true;
            break;
        }
    }
    let geo_after = svc.metrics().prediction().overall_geo_mean_error();

    // Fetch the slowest sampled trace back over the wire — the same
    // path an operator's tooling would take.
    let trace_fetch_ok = (|| {
        let list = client.get("/v1/traces?slowest=1").ok()?;
        let doc = ttlg_serve::json::parse(&list.body).ok()?;
        let traces = match doc.get("traces") {
            Some(Json::Arr(t)) if !t.is_empty() => t,
            _ => return None,
        };
        let id = traces[0].get("trace_id")?.as_str()?.to_string();
        let one = client.get(&format!("/v1/trace/{id}")).ok()?;
        if one.status != 200 {
            return None;
        }
        let tree = ttlg_serve::json::parse(&one.body).ok()?;
        (tree.get("root")?.get("name")?.as_str()? == "request").then_some(())
    })()
    .is_some();

    let store = svc.trace_store();
    let slowest = store.slowest(1);
    let (slowest_spans, slowest_us) = slowest
        .first()
        .map(|t| (t.root().span_count(), t.total_ns() as f64 / 1e3))
        .unwrap_or((0, 0.0));
    kernel_us_before.sort_by(f64::total_cmp);
    kernel_us_after.sort_by(f64::total_cmp);
    let study = TraceStudy {
        distinct_perms: distinct,
        rounds,
        requests_phase1,
        requests_phase2,
        geo_error_before: geo_before,
        geo_error_after: geo_after,
        p50_exec_us_before: nearest_rank(&kernel_us_before, 0.50),
        p99_exec_us_before: nearest_rank(&kernel_us_before, 0.99),
        p50_exec_us_after: nearest_rank(&kernel_us_after, 0.50),
        p99_exec_us_after: nearest_rank(&kernel_us_after, 0.99),
        tuner: svc.autotune_stats(),
        online_points: online.points_seen(),
        online_refits: online.refits(),
        drift_fired,
        drift_fired_after_evals,
        drift_resolved,
        alert_evaluations: svc.alerts().evaluations(),
        offered_traces: store.offered(),
        sampled_traces: store.sampled(),
        unsampled_traces: store.unsampled(),
        evicted_traces: store.evicted(),
        resident_traces: store.resident(),
        slowest_trace_spans: slowest_spans,
        slowest_trace_total_us: slowest_us,
        trace_fetch_ok,
        history_scrapes: svc.history().scrapes(),
        history_points: svc.history().point_count() as u64,
        windowed_drift_value,
    };
    server.stop();
    study
}

impl Study for TraceStudy {
    fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("== tracing & drift-alert study ==\n");
        s.push_str(&format!(
            "workload: {} distinct permutations, {} rounds skewed ({} reqs), {} reqs replayed tuned\n",
            self.distinct_perms, self.rounds, self.requests_phase1, self.requests_phase2
        ));
        s.push_str(&format!(
            "prediction geo-mean error: {:.3}x skewed -> {:.3}x after autotune\n",
            self.geo_error_before, self.geo_error_after
        ));
        s.push_str(&format!(
            "simulated execute p50/p99: {:.2}/{:.2} us skewed -> {:.2}/{:.2} us autotuned\n",
            self.p50_exec_us_before,
            self.p99_exec_us_before,
            self.p50_exec_us_after,
            self.p99_exec_us_after
        ));
        s.push_str(&format!(
            "tuner: {} keys, {} measurements, {} plans warmed ({} swapped from the modeled pick), {} failures\n",
            self.tuner.keys_tuned,
            self.tuner.candidates_measured,
            self.tuner.plans_warmed,
            self.tuner.plans_swapped,
            self.tuner.failures
        ));
        s.push_str(&format!(
            "online model: {} points streamed, {} refits\n",
            self.online_points, self.online_refits
        ));
        s.push_str(&format!(
            "prediction-drift rule: fired={} (after {} evaluations), resolved={} ({} evaluations total)\n",
            self.drift_fired,
            self.drift_fired_after_evals,
            self.drift_resolved,
            self.alert_evaluations
        ));
        s.push_str(&format!(
            "trace store: {} offered, {} sampled, {} unsampled, {} evicted, {} resident\n",
            self.offered_traces,
            self.sampled_traces,
            self.unsampled_traces,
            self.evicted_traces,
            self.resident_traces
        ));
        s.push_str(&format!(
            "slowest sampled trace: {} spans, {:.2} us end-to-end (fetched over TCP: {})\n",
            self.slowest_trace_spans, self.slowest_trace_total_us, self.trace_fetch_ok
        ));
        s.push_str(&format!(
            "metrics history: {} scrapes, {} points; windowed drift (max over history) {:.3}x\n",
            self.history_scrapes, self.history_points, self.windowed_drift_value
        ));
        s
    }

    fn to_json(&self) -> String {
        JsonObject::study("trace")
            .val("distinct_perms", self.distinct_perms)
            .val("rounds", self.rounds)
            .val("requests_phase1", self.requests_phase1)
            .val("requests_phase2", self.requests_phase2)
            .num("geo_error_before", self.geo_error_before)
            .num("geo_error_after", self.geo_error_after)
            .num("p50_exec_us_before", self.p50_exec_us_before)
            .num("p99_exec_us_before", self.p99_exec_us_before)
            .num("p50_exec_us_after", self.p50_exec_us_after)
            .num("p99_exec_us_after", self.p99_exec_us_after)
            .val("keys_tuned", self.tuner.keys_tuned)
            .val("candidates_measured", self.tuner.candidates_measured)
            .val("plans_warmed", self.tuner.plans_warmed)
            .val("plans_swapped", self.tuner.plans_swapped)
            .val("tuner_failures", self.tuner.failures)
            .val("online_points", self.online_points)
            .val("online_refits", self.online_refits)
            .val("drift_fired", self.drift_fired)
            .val("drift_fired_after_evals", self.drift_fired_after_evals)
            .val("drift_resolved", self.drift_resolved)
            .val("alert_evaluations", self.alert_evaluations)
            .val("offered_traces", self.offered_traces)
            .val("sampled_traces", self.sampled_traces)
            .val("unsampled_traces", self.unsampled_traces)
            .val("evicted_traces", self.evicted_traces)
            .val("resident_traces", self.resident_traces)
            .val("slowest_trace_spans", self.slowest_trace_spans)
            .num("slowest_trace_total_us", self.slowest_trace_total_us)
            .val("trace_fetch_ok", self.trace_fetch_ok)
            .val("history_scrapes", self.history_scrapes)
            .val("history_points", self.history_points)
            .num("windowed_drift_value", self.windowed_drift_value)
            .document()
    }

    fn check(&self) -> Result<(), String> {
        let mut g = Gates::default();
        gate!(g, self.drift_fired);
        gate!(g, self.drift_resolved);
        gate!(g, self.geo_error_before > self.geo_error_after);
        gate!(g, self.tuner.plans_warmed >= 1);
        gate!(g, self.tuner.failures == 0, "{}", self.tuner.failures);
        gate!(g, self.sampled_traces > 0);
        gate!(g, self.unsampled_traces > 0);
        gate!(g, self.evicted_traces > 0);
        gate!(g, self.trace_fetch_ok);
        gate!(g, self.slowest_trace_spans >= 4);
        g.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_alert_fires_under_skew_and_resolves_after_autotune() {
        let study = run(6, 2);
        assert_eq!(study.requests_phase1, 12);
        // Acceptance: the drift rule fires under the skewed model and
        // resolves once autotuned plans bring predictions back in line.
        assert!(study.drift_fired, "{study:?}");
        assert!(study.drift_resolved, "{study:?}");
        // Acceptance: sampling and drop accounting are live.
        assert!(study.sampled_traces > 0, "{study:?}");
        assert!(study.unsampled_traces > 0, "{study:?}");
        assert!(
            study.evicted_traces > 0,
            "an 8-deep ring must evict under this load: {study:?}"
        );
        assert!(study.trace_fetch_ok, "{study:?}");
        assert!(study.slowest_trace_spans >= 4, "{study:?}");
        // Acceptance: the history store consumed one scrape per pass
        // and the windowed drift signal read back from it exceeds the
        // alert threshold (1.5x) — the skewed phase stays visible in
        // the window even after phase-2 replay dilutes the lifetime
        // geo-mean, which the two-snapshot path cannot see.
        assert!(study.history_scrapes >= study.rounds as u64, "{study:?}");
        assert!(study.history_points > 0, "{study:?}");
        assert!(
            study.windowed_drift_value > 1.5,
            "windowed drift from the store must exceed the rule threshold: {study:?}"
        );

        let json = study.to_json();
        assert!(json.contains("\"drift_fired\": true"));
        assert!(json.contains("\"drift_resolved\": true"));
        assert!(json.contains("\"evicted_traces\""));
        let rendered = study.render();
        assert!(rendered.contains("prediction-drift rule"));
        assert!(rendered.contains("trace store"));
        assert_eq!(study.check(), Ok(()));
        let mut broken = study.clone();
        broken.drift_resolved = false;
        let err = broken.check().unwrap_err();
        assert_eq!(err, "failed gate: self.drift_resolved");
    }

    #[test]
    fn autotuning_reduces_prediction_error_and_warms_every_key() {
        let study = run(6, 2);
        // Acceptance: every key got a measured-best plan, and at least
        // one measured winner differed from the skewed model's pick.
        assert_eq!(study.tuner.keys_tuned, 6, "{study:?}");
        assert_eq!(study.tuner.plans_warmed, 6, "{study:?}");
        assert_eq!(study.tuner.failures, 0, "{study:?}");
        assert!(
            study.tuner.plans_swapped >= 1,
            "skewed model's pick must lose at least one bake-off: {study:?}"
        );
        assert_eq!(study.tuner.points_streamed, study.tuner.candidates_measured);
        assert!(study.online_points > 0, "{study:?}");
        // Acceptance: replaying on measured plans pulls the lifetime
        // geo-mean error down.
        assert!(
            study.geo_error_after < study.geo_error_before,
            "prediction error must drop: {} -> {}",
            study.geo_error_before,
            study.geo_error_after
        );
        // Each phase's execute times come from its served responses.
        assert!(study.p50_exec_us_before > 0.0 && study.p50_exec_us_after > 0.0);
        assert!(study.p50_exec_us_before <= study.p99_exec_us_before);
        assert!(study.p50_exec_us_after <= study.p99_exec_us_after);
        // The measured best of the top-ranked candidates includes the
        // modeled pick, so measured-best plans can only speed up the tail.
        assert!(study.p99_exec_us_after <= study.p99_exec_us_before * 1.0001);

        let json = study.to_json();
        assert!(json.contains("\"geo_error_before\""), "{json}");
        assert!(json.contains("\"geo_error_after\""), "{json}");
        assert!(json.contains("\"plans_warmed\": 6"), "{json}");
        assert!(json.contains("\"plans_swapped\""), "{json}");
        assert!(json.contains("\"p99_exec_us_after\""), "{json}");
        let rendered = study.render();
        assert!(rendered.contains("skewed"));
        assert!(rendered.contains("autotuned"));
        assert_eq!(study.check(), Ok(()));
        let mut broken = study.clone();
        broken.geo_error_after = broken.geo_error_before * 2.0;
        broken.tuner.failures = 1;
        let err = broken.check().unwrap_err();
        assert!(
            err.contains("failed gate: self.geo_error_before > self.geo_error_after"),
            "{err}"
        );
        assert!(
            err.contains("failed gate: self.tuner.failures == 0 (1)"),
            "{err}"
        );
    }

    #[test]
    fn perm_bodies_are_distinct_rank4_permutations() {
        let bodies = perm_bodies(24);
        assert_eq!(bodies.len(), 24);
        let unique: std::collections::BTreeSet<&String> = bodies.iter().collect();
        assert_eq!(unique.len(), 24);
        assert!(bodies[0].contains("\"extents\":[6,5,4,3]"));
    }
}
