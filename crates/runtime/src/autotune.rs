//! Measure-mode autotuning (the paper's cuTT-style "measure" regime,
//! Sec. VI) as a synchronous pass of the service.
//!
//! The model-driven planner picks a candidate per problem without ever
//! running one — right for the single-use regime. For *hot* problems the
//! service sees again and again, spending a few measured runs is
//! amortised almost immediately. The autotuner closes that loop:
//!
//! 1. with [`crate::RuntimeConfig::autotune`] set to `Some(n)`, the
//!    service counts requests per [`ttlg::PlanKey`]; a key that has
//!    served `n` requests becomes due for tuning;
//! 2. [`crate::TransposeService::autotune_once`] tunes every due key once
//!    with one [`ttlg::Transposer::plan_measured`] call, which times the
//!    model's four best-ranked candidates under a one-thread
//!    [`ttlg_tensor::parallel::with_thread_cap`] (so it never steals
//!    cores from foreground requests) and builds the fastest. Each key
//!    tunes inside the service's panic boundary: a panic fails that
//!    key's tuning, counted in `failures` and `ttlg_panics_total`, and
//!    the pass goes on;
//! 3. that plan, whose `predicted_ns` *is* its measured time, is swapped
//!    into the shared cache pinned ([`ttlg::ShardedPlanCache::warm`]) —
//!    subsequent requests for that key run the measured winner;
//! 4. every `(candidate, measured)` pair is streamed to an optional
//!    [`ttlg_perfmodel::MeasurementSink`] (e.g. an
//!    [`ttlg_perfmodel::OnlinePredictor`]), so the measurements also
//!    refine the regression models for *cold* keys.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free autotuner counters.
#[derive(Debug, Default)]
pub struct AutotuneStats {
    pub(crate) keys_tuned: AtomicU64,
    pub(crate) candidates_measured: AtomicU64,
    pub(crate) plans_warmed: AtomicU64,
    pub(crate) plans_swapped: AtomicU64,
    pub(crate) points_streamed: AtomicU64,
    pub(crate) failures: AtomicU64,
}

impl AutotuneStats {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> AutotuneSnapshot {
        AutotuneSnapshot {
            keys_tuned: self.keys_tuned.load(Ordering::Relaxed),
            candidates_measured: self.candidates_measured.load(Ordering::Relaxed),
            plans_warmed: self.plans_warmed.load(Ordering::Relaxed),
            plans_swapped: self.plans_swapped.load(Ordering::Relaxed),
            points_streamed: self.points_streamed.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of [`AutotuneStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutotuneSnapshot {
    /// Hot keys fully tuned.
    pub keys_tuned: u64,
    /// Candidate measurements executed.
    pub candidates_measured: u64,
    /// Measured-best plans installed into the cache.
    pub plans_warmed: u64,
    /// Tunings where the measured winner differed from the modeled one.
    pub plans_swapped: u64,
    /// Measured points streamed to the model sink.
    pub points_streamed: u64,
    /// Keys whose tuning failed (planning or measurement error, or a
    /// caught panic).
    pub failures: u64,
}
