//! # ttlg-gpu-sim
//!
//! A transaction-level GPU execution model: the hardware substrate on which
//! TTLG-rs runs its "kernels".
//!
//! The original TTLG is a CUDA library evaluated on a Tesla K40c. This
//! workspace has no GPU, so — per the substitution policy in DESIGN.md — we
//! model the machine at the level the paper itself reasons about:
//!
//! * **Global memory**: warp-wide accesses are grouped into 128-byte
//!   transactions by the coalescing analyzer ([`coalesce`]); the paper's
//!   Sec. IV-C accounts data movement in exactly these units.
//! * **Shared memory**: 32 banks x 4-byte words, with per-warp conflict
//!   degree (serialization factor) detection ([`smem`]); the 32x33 padding
//!   trick falls out naturally.
//! * **Texture memory**: read-only offset arrays with a >99% hit-rate cache
//!   model.
//! * **Execution**: a kernel is a block-structured program
//!   ([`kernel::BlockKernel`]) that [`executor::Executor`] runs two ways:
//!   `Analyze` mode (representative-block sampling: times plans for the
//!   large evaluation sweeps, and once per plan supplies the statistics
//!   serving reports) and `Execute` mode (move real host bytes and count
//!   every transaction of every block: the exhaustive reference for
//!   tests, the verify path of plans built with `check_disjoint_writes`,
//!   and the baselines' executor). A served plan's bytes are moved by the
//!   host's tiled CPU kernel, not by simulated blocks.
//! * **Timing**: [`timing::TimingModel`] converts transaction counts plus
//!   grid geometry into nanoseconds via a calibrated bandwidth / occupancy
//!   model of the K40c, and into the paper's "bandwidth usage" metric
//!   `2 * volume * 8 / time`.

pub mod coalesce;
pub mod device;
pub mod executor;
pub mod kernel;
pub mod profile;
pub mod smem;
pub mod stats;
pub mod timing;

pub use device::DeviceConfig;
pub use executor::{ExecMode, Executor, RunOutcome};
pub use kernel::{Accounting, BlockIo, BlockKernel, IoMode, Launch};
pub use profile::{ProfileReport, Profiler};
pub use smem::SmemSim;
pub use stats::TransactionStats;
pub use timing::{KernelTiming, TimingModel};

/// Bytes per global-memory transaction on every architecture the paper
/// considers.
pub const TRANSACTION_BYTES: usize = 128;

/// Number of shared-memory banks.
pub const SMEM_BANKS: usize = 32;

/// Bytes per shared-memory bank word.
pub const SMEM_WORD_BYTES: usize = 4;
