//! Throughput study: the batched `ttlg-runtime` service vs a naive
//! plan-per-call loop on a mixed-permutation workload.
//!
//! The naive loop is what a caller without the runtime would write:
//! every request plans from scratch (full model sweep) and executes
//! serially. The runtime groups the same workload by plan key, plans
//! each distinct problem exactly once (single-flight, cached), and
//! fans execution out over its worker pool. On a workload with
//! repeated permutations the runtime amortizes away almost all
//! planning, which dominates host-side cost.

use crate::study::{gate, Gates, JsonObject, Study, MAX_PERMS};
use std::sync::Arc;
use std::time::Instant;
use ttlg::{CacheStats, TransposeOptions, Transposer};
use ttlg_runtime::{RuntimeConfig, TransposeRequest, TransposeService};
use ttlg_tensor::rng::StdRng;
use ttlg_tensor::{DenseTensor, Permutation, Shape};

/// Outcome of one study run.
#[derive(Debug, Clone)]
pub struct ServeStudy {
    /// Total requests replayed through each path.
    pub requests: usize,
    /// Distinct permutations (= distinct plan keys) in the workload.
    pub distinct_perms: usize,
    /// Naive plan-per-call wall-clock, ns.
    pub naive_ns: f64,
    /// Batched runtime wall-clock, ns.
    pub batched_ns: f64,
    /// naive_ns / batched_ns.
    pub speedup: f64,
    /// Plan-cache counters after the batched run.
    pub cache: CacheStats,
    /// The runtime's plain-text metrics report after the batched run.
    pub metrics_report: String,
    /// Per-schema prediction-accuracy table (signed residuals and the
    /// paper's Table II geometric-mean error) from the batched run.
    pub prediction_summary: String,
    /// Prediction samples recorded during the batched run.
    pub prediction_samples: u64,
    /// The paper's Table II geometric-mean prediction error over the
    /// batched run (1.0 = exact).
    pub geo_mean_error: f64,
}

impl ServeStudy {
    /// Requests per second for the naive loop.
    pub fn naive_rps(&self) -> f64 {
        self.requests as f64 / (self.naive_ns * 1e-9)
    }

    /// Requests per second for the batched runtime.
    pub fn batched_rps(&self) -> f64 {
        self.requests as f64 / (self.batched_ns * 1e-9)
    }
}

impl Study for ServeStudy {
    /// The comparison table, then the runtime's metrics report.
    fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("== batched runtime vs plan-per-call ==\n");
        s.push_str(&format!(
            "workload: {} requests over {} distinct permutations\n",
            self.requests, self.distinct_perms
        ));
        s.push_str(&format!(
            "{:<22} {:>14} {:>14}\n",
            "path", "wall-clock ms", "requests/s"
        ));
        s.push_str(&format!(
            "{:<22} {:>14.2} {:>14.0}\n",
            "plan-per-call",
            self.naive_ns * 1e-6,
            self.naive_rps()
        ));
        s.push_str(&format!(
            "{:<22} {:>14.2} {:>14.0}\n",
            "batched runtime",
            self.batched_ns * 1e-6,
            self.batched_rps()
        ));
        s.push_str(&format!(
            "speedup: {:.2}x (cache: {} hits / {} misses)\n",
            self.speedup, self.cache.hits, self.cache.misses
        ));
        if self.prediction_samples > 0 {
            s.push_str(&format!(
                "prediction accuracy ({} samples):\n{}",
                self.prediction_samples, self.prediction_summary
            ));
        }
        s.push('\n');
        s.push_str(&self.metrics_report);
        s
    }

    fn to_json(&self) -> String {
        JsonObject::study("serve")
            .val("requests", self.requests)
            .val("distinct_perms", self.distinct_perms)
            .num("naive_ms", self.naive_ns * 1e-6)
            .num("batched_ms", self.batched_ns * 1e-6)
            .num("speedup", self.speedup)
            .num("naive_rps", self.naive_rps())
            .num("batched_rps", self.batched_rps())
            .val("cache_hits", self.cache.hits)
            .val("cache_misses", self.cache.misses)
            .val("cache_evictions", self.cache.evictions)
            .val("prediction_samples", self.prediction_samples)
            .num("geo_mean_error", self.geo_mean_error)
            .document()
    }

    fn check(&self) -> Result<(), String> {
        let mut g = Gates::default();
        gate!(g, self.requests > 0);
        gate!(g, self.geo_mean_error.is_finite());
        g.finish()
    }
}

/// Build the mixed-permutation workload: `rounds` passes over
/// `distinct` permutations of a rank-4 tensor, shuffled so repeats of
/// the same key are interleaved rather than adjacent.
pub fn workload(distinct: usize, rounds: usize) -> Vec<TransposeRequest<f64>> {
    assert!(
        (1..=MAX_PERMS).contains(&distinct),
        "rank-4 has 24 permutations"
    );
    // Small enough that planning (what the runtime amortizes) is a
    // meaningful share of per-request cost; the simulator's execute
    // path scales with volume and would otherwise drown it out.
    let shape = Shape::new(&[6, 5, 4, 3]).unwrap();
    let input = Arc::new(DenseTensor::<f64>::iota(shape));

    let perms: Vec<Permutation> = Permutation::all(4).take(distinct).collect();

    let mut reqs: Vec<TransposeRequest<f64>> = (0..rounds)
        .flat_map(|_| {
            perms
                .iter()
                .map(|p| TransposeRequest::new(Arc::clone(&input), p.clone()))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0x5E4E_57D1);
    rng.shuffle(&mut reqs);
    reqs
}

/// Run the study: replay the workload through both paths and compare.
pub fn run(distinct: usize, rounds: usize) -> ServeStudy {
    let reqs = workload(distinct, rounds);

    // Naive: plan from scratch and execute, one request at a time.
    let naive = Transposer::new_k40c();
    let t0 = Instant::now();
    for req in &reqs {
        let plan = naive
            .plan::<f64>(req.input.shape(), &req.perm, &TransposeOptions::default())
            .expect("naive plan");
        let _ = naive.execute(&plan, &req.input).expect("naive execute");
    }
    let naive_ns = t0.elapsed().as_nanos() as f64;

    // Batched: one service, one submit_batch call.
    let service =
        TransposeService::<f64>::with_config(Transposer::new_k40c(), RuntimeConfig::default());
    let t0 = Instant::now();
    let responses = service.submit_batch(&reqs);
    let batched_ns = t0.elapsed().as_nanos() as f64;
    assert!(
        responses.iter().all(|r| r.is_ok()),
        "batched run had failures"
    );

    let cache = service.cache_stats();
    ServeStudy {
        requests: reqs.len(),
        distinct_perms: distinct,
        naive_ns,
        batched_ns,
        speedup: naive_ns / batched_ns,
        cache,
        metrics_report: service.metrics_report(),
        prediction_summary: service.metrics().prediction().render(),
        prediction_samples: service.metrics().prediction().total_count(),
        geo_mean_error: service.metrics().prediction().overall_geo_mean_error(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttlg_tensor::reference::transpose_reference;

    #[test]
    fn batched_runtime_beats_plan_per_call() {
        // The acceptance workload: >= 16 distinct permutations,
        // repeated. The cached+parallel path must not lose to the
        // serial plan-per-call loop. Wall-clock under a loaded test
        // harness is noisy, so allow one retry before declaring a loss.
        let mut study = run(16, 4);
        if study.speedup < 1.0 {
            study = run(16, 4);
        }
        assert_eq!(study.requests, 64);
        assert!(
            study.speedup >= 1.0,
            "batched runtime slower than plan-per-call: {:.3}x",
            study.speedup
        );
        // One plan per distinct problem; repeats inside the batch share
        // the planned Arc directly, without re-touching the cache.
        assert_eq!(study.cache.misses, 16);
        assert!(study.metrics_report.contains("requests"));
        // Duplicates inside the batch coalesce onto one execution per
        // unique problem, so only the 16 real executions feed the
        // prediction tracker.
        assert_eq!(study.prediction_samples, 16);
        let rendered = study.render();
        assert!(rendered.contains("speedup"));
        assert!(rendered.contains("prediction accuracy (16 samples)"));
        assert!(rendered.contains("geo-mean error"));
        let json = study.to_json();
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"prediction_samples\": 16"));
        assert!(json.contains("\"geo_mean_error\""));
        assert_eq!(study.check(), Ok(()));
    }

    #[test]
    fn check_rejects_an_empty_run_and_a_missing_error() {
        let mut study = run(2, 1);
        assert_eq!(study.check(), Ok(()));
        study.requests = 0;
        study.geo_mean_error = f64::NAN;
        let err = study.check().unwrap_err();
        assert_eq!(
            err,
            "failed gate: self.requests > 0\nfailed gate: self.geo_mean_error.is_finite()"
        );
    }

    #[test]
    fn workload_takes_the_first_rank4_permutations_in_lexicographic_order() {
        let perms: std::collections::BTreeSet<Vec<usize>> = workload(3, 2)
            .iter()
            .map(|r| r.perm.as_slice().to_vec())
            .collect();
        let expect = [[0, 1, 2, 3], [0, 1, 3, 2], [0, 2, 1, 3]].map(|p| p.to_vec());
        assert!(perms.iter().eq(expect.iter()), "{perms:?}");
    }

    #[test]
    fn second_batch_is_all_cache_hits() {
        let reqs = workload(8, 1);
        let service = TransposeService::<f64>::new_k40c();
        assert!(service.submit_batch(&reqs).iter().all(|r| r.is_ok()));
        assert_eq!(service.cache_stats().misses, 8);
        assert!(service.submit_batch(&reqs).iter().all(|r| r.is_ok()));
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 8, "replayed batch must not re-plan");
        assert_eq!(stats.hits, 8);
    }

    #[test]
    fn workload_outputs_match_reference() {
        let reqs = workload(6, 1);
        let service = TransposeService::<f64>::new_k40c();
        for (req, resp) in reqs.iter().zip(service.submit_batch(&reqs)) {
            let got = resp.expect("serve ok");
            let expect = transpose_reference(&req.input, &req.perm).unwrap();
            assert_eq!(got.output.data(), expect.data());
        }
    }
}
