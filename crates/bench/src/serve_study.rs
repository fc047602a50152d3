//! Throughput study: one `ttlg-runtime` service's `submit` vs a naive
//! plan-per-call loop on a mixed-permutation workload.
//!
//! The naive loop is what a caller without the runtime would write:
//! every request plans from scratch (full model sweep) and executes.
//! The service path sends the same requests, on the same thread and in
//! the same order, through one service's `submit`, which plans each
//! distinct problem once and replays the plan from its cache. The
//! difference is plan caching alone; on a workload with repeated
//! permutations it amortizes away almost all planning, which dominates
//! host-side cost.

use crate::study::{gate, Gates, JsonObject, Study, MAX_PERMS};
use std::sync::Arc;
use std::time::Instant;
use ttlg::{CacheStats, TransposeOptions, Transposer};
use ttlg_runtime::{TransposeRequest, TransposeService};
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
    /// Cached-service wall-clock, ns.
    pub service_ns: f64,
    /// naive_ns / service_ns.
    pub speedup: f64,
    /// Plan-cache counters after the service run.
    pub cache: CacheStats,
    /// Per-schema prediction-accuracy table (signed residuals and the
    /// paper's Table II geometric-mean error) from the service run.
    pub prediction_summary: String,
    /// Prediction samples recorded during the service run.
    pub prediction_samples: u64,
    /// The paper's Table II geometric-mean prediction error over the
    /// service run (1.0 = exact).
    pub geo_mean_error: f64,
}

impl ServeStudy {
    /// Requests per second for the naive loop.
    pub fn naive_rps(&self) -> f64 {
        self.requests as f64 / (self.naive_ns * 1e-9)
    }

    /// Requests per second for the cached service.
    pub fn service_rps(&self) -> f64 {
        self.requests as f64 / (self.service_ns * 1e-9)
    }
}

impl Study for ServeStudy {
    /// The comparison table, then the per-schema prediction table.
    fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("== cached service vs plan-per-call ==\n");
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
            "cached service",
            self.service_ns * 1e-6,
            self.service_rps()
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
        s
    }

    fn to_json(&self) -> String {
        JsonObject::study("serve")
            .val("requests", self.requests)
            .val("distinct_perms", self.distinct_perms)
            .num("naive_ms", self.naive_ns * 1e-6)
            .num("service_ms", self.service_ns * 1e-6)
            .num("speedup", self.speedup)
            .num("naive_rps", self.naive_rps())
            .num("service_rps", self.service_rps())
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

    // Cached: the same requests, in the same order, through one service.
    let service = TransposeService::<f64>::new_k40c();
    let t0 = Instant::now();
    for req in &reqs {
        service.submit(req).expect("service run");
    }
    let service_ns = t0.elapsed().as_nanos() as f64;

    let prediction = service.metrics().prediction();
    ServeStudy {
        requests: reqs.len(),
        distinct_perms: distinct,
        naive_ns,
        service_ns,
        speedup: naive_ns / service_ns,
        cache: service.cache_stats(),
        prediction_summary: prediction.render(),
        prediction_samples: prediction.total_count(),
        geo_mean_error: prediction.overall_geo_mean_error(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttlg_tensor::reference::transpose_reference;

    #[test]
    fn batched_runtime_beats_plan_per_call() {
        // The acceptance workload: >= 16 distinct permutations,
        // repeated. The cached service must not lose to the
        // plan-per-call loop. Wall-clock under a loaded test harness is
        // noisy, so allow one retry before declaring a loss.
        let mut study = run(16, 4);
        if study.speedup < 1.0 {
            study = run(16, 4);
        }
        assert_eq!(study.requests, 64);
        assert!(
            study.speedup >= 1.0,
            "cached service slower than plan-per-call: {:.3}x",
            study.speedup
        );
        // One plan per distinct problem; every repeat hits it.
        assert_eq!(study.cache.misses, 16);
        assert_eq!(study.cache.hits, 48);
        // Every request executes, so each feeds the prediction tracker.
        assert_eq!(study.prediction_samples, 64);
        let rendered = study.render();
        assert!(rendered.contains("cached service vs plan-per-call"));
        assert!(rendered.contains("speedup"));
        assert!(rendered.contains("prediction accuracy (64 samples)"));
        assert!(rendered.contains("geo-mean error"));
        let json = study.to_json();
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"service_ms\""));
        assert!(json.contains("\"prediction_samples\": 64"));
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
        let replay = || reqs.iter().all(|r| service.submit(r).is_ok());
        assert!(replay());
        assert_eq!(service.cache_stats().misses, 8);
        assert!(replay());
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 8, "a replayed workload must not re-plan");
        assert_eq!(stats.hits, 8);
    }

    #[test]
    fn workload_outputs_match_reference() {
        let reqs = workload(6, 1);
        let service = TransposeService::<f64>::new_k40c();
        for req in &reqs {
            let got = service.submit(req).expect("serve ok");
            let expect = transpose_reference(&req.input, &req.perm).unwrap();
            assert_eq!(got.output.data(), expect.data());
        }
    }
}
