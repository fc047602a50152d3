//! Autotuning study: model-only serving vs measure-mode autotuned
//! serving on the mixed-permutation workload of [`crate::serve_study`].
//!
//! The setup deliberately starts from a *mis-calibrated* regression
//! model (the pretrained K40c coefficients, skewed so slice-dependent
//! terms point the wrong way). Phase 1 serves the workload with that
//! model alone — plans are whatever the bad model picks, and its
//! predictions miss accordingly. The autotuner then measures the
//! top-ranked candidates for every hot key, warms the cache with the
//! measured-best plans, and streams every measurement into an
//! [`OnlinePredictor`] refining the coefficients. Phase 2 replays the
//! same workload: hot keys now run measured-best plans whose predicted
//! time *is* their measured time, so both the execute-time percentiles
//! and the geometric-mean prediction error must improve.

use crate::serve_study::workload;
use crate::study::{gate, Gates, JsonObject, Study};
use std::sync::Arc;
use ttlg::{TimePredictor, Transposer};
use ttlg_gpu_sim::DeviceConfig;
use ttlg_perfmodel::online::OnlineConfig;
use ttlg_perfmodel::pretrained::model_pair_k40c;
use ttlg_perfmodel::{MeasurementSink, ModelPair, OnlinePredictor};
use ttlg_runtime::{
    AutotuneConfig, AutotuneSnapshot, PredictionTracker, RuntimeConfig, TransposeRequest,
    TransposeService,
};

/// Outcome of one autotune study run.
#[derive(Debug, Clone)]
pub struct AutotuneStudy {
    /// Requests replayed in each phase.
    pub requests_per_phase: usize,
    /// Distinct permutations (= distinct plan keys) in the workload.
    pub distinct_perms: usize,
    /// Rounds over those permutations per phase.
    pub rounds: usize,
    /// Geo-mean prediction error before refinement (phase 1).
    pub geo_error_before: f64,
    /// Geo-mean prediction error after tuning + refinement (phase 2).
    pub geo_error_after: f64,
    /// Median simulated execute time per request, phase 1 (µs).
    pub p50_exec_us_before: f64,
    /// 99th-percentile simulated execute time, phase 1 (µs).
    pub p99_exec_us_before: f64,
    /// Median simulated execute time per request, phase 2 (µs).
    pub p50_exec_us_after: f64,
    /// 99th-percentile simulated execute time, phase 2 (µs).
    pub p99_exec_us_after: f64,
    /// Autotuner counters after the tuning pass.
    pub tuner: AutotuneSnapshot,
    /// Measured points accepted by the online model.
    pub online_points: u64,
    /// Successful online refits.
    pub online_refits: u64,
}

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

fn percentile_us(times_ns: &[f64], q: f64) -> f64 {
    let mut sorted = times_ns.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    (sorted[lo] + (sorted[hi] - sorted[lo]) * frac) * 1e-3
}

fn replay(svc: &TransposeService<f64>, reqs: &[TransposeRequest<f64>]) -> (f64, Vec<f64>) {
    let tracker = PredictionTracker::new(["serve"]);
    let mut times = Vec::with_capacity(reqs.len());
    for resp in svc.submit_batch(reqs) {
        let resp = resp.expect("study request failed");
        tracker.record(0, resp.report.predicted_ns, resp.report.kernel_time_ns);
        times.push(resp.report.kernel_time_ns);
    }
    (tracker.overall_geo_mean_error(), times)
}

/// Run the study: phase 1 with the skewed model, one full autotuning
/// pass, phase 2 on the tuned service.
pub fn run(distinct: usize, rounds: usize) -> AutotuneStudy {
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
        autotune: AutotuneConfig {
            enabled: true,
            hot_threshold: 1,
            topk: 4,
            budget_per_key: 8,
            threads: 1,
            poll_interval_ms: 1,
            ..AutotuneConfig::default()
        },
        ..RuntimeConfig::default()
    };
    let svc = TransposeService::<f64>::with_config(transposer, cfg)
        .with_measurement_sink(Arc::clone(&online) as Arc<dyn MeasurementSink>);

    let reqs = workload(distinct, rounds);
    let (geo_before, times_before) = replay(&svc, &reqs);

    // One synchronous tuning pass: every key is already hot.
    while svc.autotune_once() > 0 {}

    let (geo_after, times_after) = replay(&svc, &reqs);

    AutotuneStudy {
        requests_per_phase: reqs.len(),
        distinct_perms: distinct,
        rounds,
        geo_error_before: geo_before,
        geo_error_after: geo_after,
        p50_exec_us_before: percentile_us(&times_before, 0.50),
        p99_exec_us_before: percentile_us(&times_before, 0.99),
        p50_exec_us_after: percentile_us(&times_after, 0.50),
        p99_exec_us_after: percentile_us(&times_after, 0.99),
        tuner: svc.autotune_stats(),
        online_points: online.points_seen(),
        online_refits: online.refits(),
    }
}

impl Study for AutotuneStudy {
    /// Render a small comparison table.
    fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("== model-only vs autotuned serving ==\n");
        s.push_str(&format!(
            "workload: {} requests/phase over {} distinct permutations x {} rounds\n",
            self.requests_per_phase, self.distinct_perms, self.rounds
        ));
        s.push_str(&format!(
            "{:<22} {:>16} {:>14} {:>14}\n",
            "phase", "geo-mean error", "p50 exec us", "p99 exec us"
        ));
        s.push_str(&format!(
            "{:<22} {:>15.3}x {:>14.2} {:>14.2}\n",
            "model-only", self.geo_error_before, self.p50_exec_us_before, self.p99_exec_us_before
        ));
        s.push_str(&format!(
            "{:<22} {:>15.3}x {:>14.2} {:>14.2}\n",
            "autotuned", self.geo_error_after, self.p50_exec_us_after, self.p99_exec_us_after
        ));
        s.push_str(&format!(
            "tuner: {} keys, {} measurements, {} plans warmed ({} swapped from the modeled pick)\n",
            self.tuner.keys_tuned,
            self.tuner.candidates_measured,
            self.tuner.plans_warmed,
            self.tuner.plans_swapped
        ));
        s.push_str(&format!(
            "online model: {} points streamed, {} refits\n",
            self.online_points, self.online_refits
        ));
        s
    }

    fn to_json(&self) -> String {
        JsonObject::study("autotune")
            .val("requests_per_phase", self.requests_per_phase)
            .val("distinct_perms", self.distinct_perms)
            .val("rounds", self.rounds)
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
            .document()
    }

    fn check(&self) -> Result<(), String> {
        let (before, after) = (self.geo_error_before, self.geo_error_after);
        let mut g = Gates::default();
        gate!(g, before.is_finite() && after.is_finite());
        gate!(g, after <= before, "{before} -> {after}");
        gate!(g, self.tuner.plans_warmed >= 1);
        gate!(g, self.tuner.failures == 0, "{}", self.tuner.failures);
        g.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autotuning_reduces_prediction_error_and_warms_every_key() {
        let study = run(6, 2);
        assert_eq!(study.requests_per_phase, 12);
        // Acceptance: every hot key got a measured-best plan, and at
        // least one measured winner differed from the modeled one.
        assert_eq!(study.tuner.keys_tuned, 6);
        assert_eq!(study.tuner.plans_warmed, 6);
        assert_eq!(study.tuner.failures, 0);
        assert!(
            study.tuner.plans_swapped >= 1,
            "skewed model's pick must lose at least one bake-off: {study:?}"
        );
        // Acceptance: refinement strictly reduces the geo-mean error.
        assert!(
            study.geo_error_after < study.geo_error_before,
            "prediction error must drop: {} -> {}",
            study.geo_error_before,
            study.geo_error_after
        );
        // Warmed plans predict their own measured time exactly.
        assert!(
            study.geo_error_after < 1.001,
            "hot keys serve measured plans: {}",
            study.geo_error_after
        );
        // Measured-best plans can only speed up the tail.
        assert!(study.p99_exec_us_after <= study.p99_exec_us_before * 1.0001);
        assert!(study.online_points > 0);

        let json = study.to_json();
        assert!(json.contains("\"geo_error_before\""));
        assert!(json.contains("\"geo_error_after\""));
        assert!(json.contains("\"plans_swapped\""));
        let rendered = study.render();
        assert!(rendered.contains("model-only"));
        assert!(rendered.contains("autotuned"));
        assert_eq!(study.check(), Ok(()));
        let mut broken = study.clone();
        broken.geo_error_after = broken.geo_error_before * 2.0;
        broken.tuner.failures = 1;
        let err = broken.check().unwrap_err();
        assert!(err.contains("failed gate: after <= before"), "{err}");
        assert!(err.contains("self.tuner.failures == 0 (1)"), "{err}");
    }

    #[test]
    fn percentiles_interpolate() {
        let times = vec![1000.0, 2000.0, 3000.0, 4000.0];
        assert!((percentile_us(&times, 0.0) - 1.0).abs() < 1e-9);
        assert!((percentile_us(&times, 1.0) - 4.0).abs() < 1e-9);
        assert!((percentile_us(&times, 0.5) - 2.5).abs() < 1e-9);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }
}
