//! Execution backends the planner can target.
//!
//! The original library drives everything through the simulated GPU
//! ([`ttlg_gpu_sim`]); the CPU backend (`ttlg-cpu`) moves host bytes for
//! real and is timed by the wall clock. A plan targets one backend
//! ([`crate::TransposeOptions::backend`]): the Alg. 3 sweep ranks only
//! that backend's candidates under one analytic guard band, so a
//! simulated nanosecond is never ranked against a wall-clock one.

/// Which executor a plan runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Backend {
    /// The transaction-level K40c simulator (synthetic time).
    GpuSim,
    /// Blocked, cache-tiled host loops (real wall-clock time).
    Cpu,
}

impl Backend {
    /// Every backend, in metrics/index order.
    pub const ALL: [Backend; 2] = [Backend::GpuSim, Backend::Cpu];

    /// Stable label for metrics and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::GpuSim => "gpu_sim",
            Backend::Cpu => "cpu",
        }
    }

    /// Dense index into per-backend metric arrays (matches [`Self::ALL`]).
    pub fn index(&self) -> usize {
        match self {
            Backend::GpuSim => 0,
            Backend::Cpu => 1,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for (i, b) in Backend::ALL.into_iter().enumerate() {
            assert_eq!(b.index(), i);
            assert_eq!(b.to_string(), b.label());
        }
        assert_eq!(Backend::GpuSim.label(), "gpu_sim");
        assert_eq!(Backend::Cpu.label(), "cpu");
    }
}
