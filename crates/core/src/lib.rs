//! # ttlg — Tensor Transposition Library (for simulated GPUs)
//!
//! A from-scratch Rust reproduction of **TTLG** (Vedurada et al., IPDPS
//! 2018): out-of-place tensor index permutation with a taxonomy of four
//! data-movement schemas, model-driven kernel/parameter selection, and a
//! queryable performance-prediction interface.
//!
//! The hardware substrate is the transaction-level GPU model of
//! [`ttlg_gpu_sim`] (see DESIGN.md for the substitution rationale).
//!
//! ## Quick start
//!
//! ```
//! use ttlg::{Transposer, TransposeOptions};
//! use ttlg_tensor::{DenseTensor, Permutation, Shape};
//!
//! let shape = Shape::new(&[16, 16, 16]).unwrap();
//! let perm = Permutation::new(&[2, 1, 0]).unwrap();
//! let input: DenseTensor<f64> = DenseTensor::iota(shape);
//!
//! let transposer = Transposer::new_k40c();
//! let plan = transposer.plan::<f64>(input.shape(), &perm, &TransposeOptions::default()).unwrap();
//! let (output, report) = transposer.execute(&plan, &input).unwrap();
//!
//! assert_eq!(output.shape().extents(), &[16, 16, 16]);
//! assert!(report.kernel_time_ns > 0.0);
//! ```

pub mod analysis;
pub mod backend;
pub mod cache;
pub mod features;
pub mod kernels;
pub mod model;
pub mod plan;
pub mod problem;
pub mod schema;
pub mod slice;
pub mod trace;

pub use backend::Backend;
pub use cache::{CacheStats, FetchTiming, PlanKey, ShardedPlanCache};
pub use model::{cpu_analytic_ns, AnalyticPredictor, Candidate, TimePredictor};
pub use plan::{
    CandidateMeasurement, Plan, PlanError, TransposeOptions, TransposeReport, Transposer,
};
pub use problem::Problem;
pub use schema::{applicable_schemas, Schema};
pub use trace::{CandidateTrace, DecisionTrace, RejectReason, SweepRejection};
