//! Pretrained Table II models for the simulated K40c, so downstream users
//! get the regression-backed predictor without paying for training.
//!
//! Coefficients come from the full-fidelity offline training run of this
//! repository (`reproduce -- table2 --full`: ranks 3-6, volumes 2M-32M
//! elements, 8 permutations per configuration, 16 slice configurations
//! per case, relative-error weighted least squares; precision 7.0% train
//! / 6.8% test for Orthogonal-Distinct and 11.1% / 12.1% for
//! Orthogonal-Arbitrary — the paper reports 4.16%/4.16% and
//! 11.08%/10.75%). Retrain with [`crate::train::train_models`] for other
//! devices or datasets.

use crate::dataset::{CPU_FEATURES, OA_FEATURES, OD_FEATURES};
use crate::linreg::LinearModel;
use crate::persist::ModelPair;
use crate::predictor::TrainedPredictor;
use ttlg_gpu_sim::DeviceConfig;

/// The pretrained Orthogonal-Distinct model (5 features of Table II).
pub fn od_model_k40c() -> LinearModel {
    LinearModel {
        feature_names: OD_FEATURES.iter().map(|s| s.to_string()).collect(),
        intercept: 7.0093e3,
        coefficients: vec![
            6.2562e-2,  // Volume
            -6.3913e-1, // NumBlocks
            8.3940e0,   // Input slice
            2.4219e1,   // Output slice
            5.2538e-1,  // Cycles
        ],
    }
}

/// The pretrained Orthogonal-Arbitrary model (7 features of Table II).
pub fn oa_model_k40c() -> LinearModel {
    LinearModel {
        feature_names: OA_FEATURES.iter().map(|s| s.to_string()).collect(),
        intercept: -1.0256e4,
        coefficients: vec![
            1.7481e-2,  // Volume
            -3.0364e-2, // NumThreads
            2.8512e1,   // Total Slice
            -1.1231e1,  // Input Stride
            3.5617e-1,  // Output Stride
            5.3459e-3,  // Special Instr
            6.6086e-1,  // Cycles
        ],
    }
}

/// Seed coefficients for the CPU-backend model (4 features of
/// `CPU_FEATURES`). Unlike the GPU pair these are not fitted offline
/// against the simulator — they linearize the closed-form
/// `ttlg::cpu_analytic_ns` bandwidth model around mid-size problems and
/// exist to give the online refiner ([`crate::OnlinePredictor`]) a sane
/// starting point; real wall-clock measurements streamed by the
/// autotuner take over from there.
pub fn cpu_model_default() -> LinearModel {
    LinearModel {
        feature_names: CPU_FEATURES.iter().map(|s| s.to_string()).collect(),
        intercept: 1.5e4,
        coefficients: vec![
            1.2e-1, // Bytes Moved (~8 GB/s effective single-thread)
            2.0e0,  // Tile Blocks (per-block dispatch)
            -8.0e0, // Run Elems (longer contiguous runs stream faster)
            -2.0e3, // Threads (parallel speedup)
        ],
    }
}

/// Both models as a persistable pair.
pub fn model_pair_k40c() -> ModelPair {
    ModelPair {
        od: od_model_k40c(),
        oa: oa_model_k40c(),
    }
}

/// A ready-to-use regression predictor for the simulated K40c, with the
/// seed CPU-backend model attached, so it also ranks the candidates of
/// a plan for the CPU backend.
pub fn predictor_k40c() -> TrainedPredictor {
    TrainedPredictor::from_models(od_model_k40c(), oa_model_k40c(), DeviceConfig::k40c())
        .with_cpu_model(cpu_model_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ttlg::{TimePredictor, TransposeOptions, Transposer};
    use ttlg_tensor::{reference, DenseTensor, Permutation, Shape};

    #[test]
    fn pretrained_predictor_plans_correctly() {
        let pred = Arc::new(predictor_k40c());
        let t = Transposer::with_predictor(DeviceConfig::k40c(), pred);
        let shape = Shape::new(&[16, 16, 16, 16]).unwrap();
        let perm = Permutation::new(&[3, 1, 2, 0]).unwrap();
        let input: DenseTensor<f64> = DenseTensor::iota(shape.clone());
        let plan = t
            .plan::<f64>(
                &shape,
                &perm,
                &TransposeOptions {
                    check_disjoint_writes: true,
                    ..Default::default()
                },
            )
            .unwrap();
        let (out, report) = t.execute(&plan, &input).unwrap();
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(out.data(), expect.data());
        assert!(report.kernel_time_ns > 0.0);
    }

    #[test]
    fn pretrained_predictions_are_sane() {
        // The regression should land within a factor of ~2 of the
        // simulator on mid-size OD problems.
        let pred = predictor_k40c();
        let t = Transposer::new_k40c();
        let shape = Shape::new(&[32, 32, 32, 8]).unwrap();
        let perm = Permutation::new(&[3, 2, 1, 0]).unwrap();
        let p = ttlg::Problem::new(&shape, &perm).unwrap();
        let c = ttlg::features::od_candidate::<f64>(
            &p,
            ttlg::kernels::OdChoice::default_for(&p).unwrap(),
        );
        let predicted = pred.predict_ns(&c);
        let actual = t.measure_candidate::<f64>(&p, &c).unwrap().timing.time_ns;
        let ratio = predicted / actual;
        assert!(
            (0.4..2.5).contains(&ratio),
            "predicted {predicted} actual {actual}"
        );
    }

    #[test]
    fn pair_roundtrips_through_persistence() {
        let pair = model_pair_k40c();
        let text = crate::persist::to_text(&pair);
        assert_eq!(crate::persist::from_text(&text).unwrap(), pair);
    }
}
