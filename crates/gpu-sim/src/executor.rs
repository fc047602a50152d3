//! The block executor: runs a [`BlockKernel`] over its grid.
//!
//! Two uses of one kernel body:
//!
//! * **Analyze** ([`ExecMode::Analyze`]) — blocks are grouped into the
//!   kernel-declared equivalence classes; one representative per class
//!   runs (moving no data) and its statistics are scaled by the class
//!   size. Wide analyses run their representatives across worker
//!   threads. This times plans (the paper's 720-permutation sweeps, model
//!   training) and supplies the per-plan statistics a served plan
//!   reports.
//! * **Execute** ([`ExecMode::Execute`]) — every block runs, moves real
//!   data and records its transactions, summed over all blocks: the
//!   exhaustive reference that tests hold `Analyze` to, the verify path
//!   of a plan built with `check_disjoint_writes`, and the path the
//!   cuTT, TTC and naive baselines execute with.
//!
//! An `Execute` run distributes blocks over host worker threads
//! (`std::thread::scope`), mirroring the GPU's block-level parallelism,
//! and can verify that every output element is written exactly once.
//! Every run sums `u64` counters, so its statistics do not depend on how
//! the blocks were spread over workers.

use crate::device::DeviceConfig;
use crate::kernel::{Accounting, BlockIo, BlockKernel, IoMode, Launch, SharedOutput};
use crate::stats::TransactionStats;
use std::sync::atomic::{AtomicU8, Ordering};
use ttlg_tensor::{parallel, Element};

/// Class count from which [`Executor::analyze`] runs its representatives
/// across workers. Starting two workers takes 45-65 µs on a 2-vCPU VM,
/// as long as ten or more representatives of the sweep's cheaper kernels
/// (2.5-7 µs each for Orthogonal-Distinct at extent 17). Over the
/// sweep's 216 plans on 2 vCPUs, workers made analyses of 2 to 25
/// classes 2-16x slower on average, and those of 31 classes and more
/// 1.1-1.3x faster.
pub const PARALLEL_ANALYZE_MIN_CLASSES: usize = 32;

/// Execution mode for [`Executor::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run every block, moving real data and recording every access.
    Execute {
        /// Verify that every output element is written exactly once
        /// (slower; for tests and debugging).
        check_disjoint_writes: bool,
    },
    /// Sampled analysis: representative block per class, no data movement.
    Analyze,
}

/// Result of a kernel run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Machine-wide transaction statistics (scaled to the full grid in
    /// `Analyze` mode).
    pub stats: TransactionStats,
    /// The launch geometry used.
    pub launch: Launch,
    /// Number of blocks actually executed on the host.
    pub blocks_executed: usize,
    /// Number of distinct block classes (Analyze mode only).
    pub classes: Option<usize>,
}

/// Errors the executor can report before running anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// Requested more shared memory per block than one SM has.
    SharedMemExceeded {
        /// Bytes requested per block.
        requested: usize,
        /// Bytes available per SM.
        available: usize,
    },
    /// threads_per_block outside 1..=1024.
    BadBlockSize {
        /// The offending thread count.
        threads: usize,
    },
    /// Empty grid.
    EmptyGrid,
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::SharedMemExceeded {
                requested,
                available,
            } => {
                write!(
                    f,
                    "shared memory per block {requested} B exceeds SM capacity {available} B"
                )
            }
            LaunchError::BadBlockSize { threads } => {
                write!(f, "threads per block must be in 1..=1024, got {threads}")
            }
            LaunchError::EmptyGrid => write!(f, "kernel launched with an empty grid"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Executes kernels against a device configuration.
#[derive(Debug, Clone)]
pub struct Executor {
    device: DeviceConfig,
}

impl Executor {
    /// Build an executor for the given device.
    pub fn new(device: DeviceConfig) -> Self {
        Executor { device }
    }

    /// The device this executor models.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    fn validate(&self, launch: &Launch) -> Result<(), LaunchError> {
        if launch.grid_blocks == 0 {
            return Err(LaunchError::EmptyGrid);
        }
        if launch.threads_per_block == 0 || launch.threads_per_block > 1024 {
            return Err(LaunchError::BadBlockSize {
                threads: launch.threads_per_block,
            });
        }
        if launch.smem_bytes_per_block > self.device.smem_per_sm {
            return Err(LaunchError::SharedMemExceeded {
                requested: launch.smem_bytes_per_block,
                available: self.device.smem_per_sm,
            });
        }
        Ok(())
    }

    /// Run a kernel in the given mode. `Analyze` ignores both buffers.
    /// `Execute` validates the launch, runs every block over real buffers
    /// (moving `input` into `output`) and returns the summed statistics;
    /// with `check_disjoint_writes` it panics unless every output element
    /// is written exactly once: a second write panics where it happens, a
    /// missed element after the run.
    pub fn run<E: Element, K: BlockKernel<E> + ?Sized>(
        &self,
        kernel: &K,
        input: &[E],
        output: &mut [E],
        mode: ExecMode,
    ) -> Result<RunOutcome, LaunchError> {
        let ExecMode::Execute {
            check_disjoint_writes,
        } = mode
        else {
            return self.analyze(kernel);
        };
        let launch = kernel.launch();
        self.validate(&launch)?;
        let tracker: Option<Vec<AtomicU8>> =
            check_disjoint_writes.then(|| (0..output.len()).map(|_| AtomicU8::new(0)).collect());
        let shared = SharedOutput::new(output, tracker.as_deref());
        let blocks = launch.grid_blocks;
        let stats = parallel::parallel_map_reduce(
            blocks,
            1.max(blocks / (parallel::default_threads() * 8)),
            TransactionStats::default,
            |mut acc, b| {
                let io = BlockIo::new(input, &shared, IoMode::Execute);
                let mut acct = Accounting::new();
                kernel.run_block(b, &io, &mut acct);
                acc.merge(&acct.stats);
                acc
            },
            |mut a, b| {
                a.merge(&b);
                a
            },
        );
        if let Some(slots) = &tracker {
            // The workers are joined, so every write is visible here.
            for (off, slot) in slots.iter().enumerate() {
                let writes = slot.load(Ordering::Relaxed);
                assert!(writes == 1, "output element {off} written {writes} times");
            }
        }
        Ok(RunOutcome {
            stats,
            launch,
            blocks_executed: blocks,
            classes: None,
        })
    }

    /// Run a kernel in `Analyze` mode (no data buffers needed). From
    /// [`PARALLEL_ANALYZE_MIN_CLASSES`] classes up the representatives run
    /// across [`parallel::default_threads`] workers, so a
    /// [`parallel::with_thread_cap`] scope bounds them.
    pub fn analyze<E: Element, K: BlockKernel<E> + ?Sized>(
        &self,
        kernel: &K,
    ) -> Result<RunOutcome, LaunchError> {
        let launch = kernel.launch();
        self.validate(&launch)?;
        // Group blocks by class: (class, count, representative block id).
        // Insertion order is kept so results are deterministic.
        let mut class_index: std::collections::HashMap<u32, usize> =
            std::collections::HashMap::new();
        let mut classes: Vec<(u32, u64, usize)> = Vec::new();
        for b in 0..launch.grid_blocks {
            let c = kernel.block_class(b);
            match class_index.get(&c) {
                Some(&i) => classes[i].1 += 1,
                None => {
                    class_index.insert(c, classes.len());
                    classes.push((c, 1, b));
                }
            }
        }
        let mut empty_out: [E; 0] = [];
        let shared = SharedOutput::new(&mut empty_out, None);
        let run_class = |mut acc: TransactionStats, i: usize| {
            let (_, count, rep) = classes[i];
            let io = BlockIo::new(&[], &shared, IoMode::Analyze);
            let mut acct = Accounting::new();
            kernel.run_block(rep, &io, &mut acct);
            acc.merge(&acct.stats.scaled(count));
            acc
        };
        // Wide analyses run their representatives across workers, one
        // class per claim. The counters are u64 sums, so the total does
        // not depend on which worker ran which class or in what order the
        // partials merge.
        let stats = if classes.len() < PARALLEL_ANALYZE_MIN_CLASSES {
            (0..classes.len()).fold(TransactionStats::default(), run_class)
        } else {
            parallel::parallel_map_reduce(
                classes.len(),
                1,
                TransactionStats::default,
                run_class,
                |mut a, b| {
                    a.merge(&b);
                    a
                },
            )
        };
        Ok(RunOutcome {
            stats,
            launch,
            blocks_executed: classes.len(),
            classes: Some(classes.len()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy kernel: block b copies elements [b*64, (b+1)*64) contiguously,
    /// one warp access per 32 elements.
    struct CopyKernel {
        n: usize,
    }

    impl BlockKernel<u32> for CopyKernel {
        fn name(&self) -> &str {
            "copy"
        }

        fn launch(&self) -> Launch {
            Launch {
                grid_blocks: self.n.div_ceil(64),
                threads_per_block: 64,
                smem_bytes_per_block: 0,
            }
        }

        fn run_block(&self, block: usize, io: &BlockIo<'_, u32>, acct: &mut Accounting) {
            let start = block * 64;
            let end = (start + 64).min(self.n);
            let mut w = start;
            while w < end {
                let lanes = (end - w).min(32);
                acct.global_load_contiguous(w, lanes, 4);
                acct.global_store_contiguous(w, lanes, 4);
                for off in w..w + lanes {
                    let v = io.load(off);
                    io.store(off, v);
                }
                acct.elements(lanes as u64);
                w += lanes;
            }
        }

        fn block_class(&self, block: usize) -> u32 {
            // last block may be partial
            u32::from((block + 1) * 64 > self.n)
        }
    }

    #[test]
    fn execute_copies_and_counts() {
        let n = 1000;
        let input: Vec<u32> = (0..n as u32).collect();
        let mut output = vec![0u32; n];
        let ex = Executor::new(DeviceConfig::test_tiny());
        let k = CopyKernel { n };
        let out = ex
            .run(
                &k,
                &input,
                &mut output,
                ExecMode::Execute {
                    check_disjoint_writes: true,
                },
            )
            .unwrap();
        assert_eq!(output, input);
        assert_eq!(out.stats.elements_moved, n as u64);
        // 1000 elements = 31 full warps + one 8-lane tail = 32 loads; last
        // partial access still 1 tx.
        assert_eq!(out.stats.dram_load_tx, out.stats.dram_store_tx);
        assert_eq!(out.stats.dram_load_tx, 32);
        assert_eq!(out.blocks_executed, 16);
        assert_eq!(out.classes, None);
        // Unchecked, the run moves the same elements and counts the same.
        let mut unchecked = vec![0u32; n];
        let mode = ExecMode::Execute {
            check_disjoint_writes: false,
        };
        let again = ex.run(&k, &input, &mut unchecked, mode).unwrap();
        assert_eq!(unchecked, input);
        assert_eq!(again.stats, out.stats);
    }

    #[test]
    fn analyze_matches_execute_stats() {
        let n = 4096; // divides evenly: one class
        let input: Vec<u32> = (0..n as u32).collect();
        let mut output = vec![0u32; n];
        let ex = Executor::new(DeviceConfig::test_tiny());
        let k = CopyKernel { n };
        let exec = ex
            .run(
                &k,
                &input,
                &mut output,
                ExecMode::Execute {
                    check_disjoint_writes: false,
                },
            )
            .unwrap();
        let ana = ex.analyze(&k).unwrap();
        assert_eq!(exec.stats, ana.stats);
        assert_eq!(ana.classes, Some(1));
        assert!(ana.blocks_executed < exec.blocks_executed);
    }

    #[test]
    fn analyze_handles_partial_class() {
        let n = 1000; // 64 does not divide 1000: two classes
        let ex = Executor::new(DeviceConfig::test_tiny());
        let k = CopyKernel { n };
        let ana = ex.analyze(&k).unwrap();
        assert_eq!(ana.classes, Some(2));
        let input: Vec<u32> = (0..n as u32).collect();
        let mut output = vec![0u32; n];
        let exec = ex
            .run(
                &k,
                &input,
                &mut output,
                ExecMode::Execute {
                    check_disjoint_writes: false,
                },
            )
            .unwrap();
        assert_eq!(exec.stats, ana.stats);
    }

    #[test]
    fn write_check_catches_a_missed_element() {
        /// [`CopyKernel`] that never stores element `skip`.
        struct SkipOne {
            n: usize,
            skip: usize,
        }
        impl BlockKernel<u32> for SkipOne {
            fn name(&self) -> &str {
                "skip-one"
            }
            fn launch(&self) -> Launch {
                CopyKernel { n: self.n }.launch()
            }
            fn run_block(&self, block: usize, io: &BlockIo<'_, u32>, _: &mut Accounting) {
                for off in block * 64..((block + 1) * 64).min(self.n) {
                    if off != self.skip {
                        io.store(off, io.load(off));
                    }
                }
            }
        }
        let n = 1000;
        let k = SkipOne { n, skip: 777 };
        let input: Vec<u32> = (0..n as u32).collect();
        let ex = Executor::new(DeviceConfig::test_tiny());
        let res = std::panic::catch_unwind(|| {
            let mut output = vec![0u32; n];
            let mode = ExecMode::Execute {
                check_disjoint_writes: true,
            };
            ex.run(&k, &input, &mut output, mode).map(|_| ())
        });
        let payload = res.expect_err("a missed output element must panic");
        let msg = payload.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("output element 777 written 0 times"), "{msg}");
        // Unchecked, the same kernel runs silently.
        let mut output = vec![0u32; n];
        let mode = ExecMode::Execute {
            check_disjoint_writes: false,
        };
        ex.run(&k, &input, &mut output, mode).unwrap();
        assert_eq!(output[777], 0);
        assert_eq!(output[776], 776);
    }

    #[test]
    fn validates_launch() {
        let ex = Executor::new(DeviceConfig::test_tiny());
        struct Bad(Launch);
        impl BlockKernel<u32> for Bad {
            fn name(&self) -> &str {
                "bad"
            }
            fn launch(&self) -> Launch {
                self.0
            }
            fn run_block(&self, _: usize, _: &BlockIo<'_, u32>, _: &mut Accounting) {}
        }
        let e = ex.analyze(&Bad(Launch {
            grid_blocks: 0,
            threads_per_block: 32,
            smem_bytes_per_block: 0,
        }));
        assert_eq!(e.unwrap_err(), LaunchError::EmptyGrid);
        let e = ex.analyze(&Bad(Launch {
            grid_blocks: 1,
            threads_per_block: 2048,
            smem_bytes_per_block: 0,
        }));
        assert!(matches!(e.unwrap_err(), LaunchError::BadBlockSize { .. }));
        let e = ex.analyze(&Bad(Launch {
            grid_blocks: 1,
            threads_per_block: 32,
            smem_bytes_per_block: 1 << 30,
        }));
        assert!(matches!(
            e.unwrap_err(),
            LaunchError::SharedMemExceeded { .. }
        ));
    }

    #[test]
    fn launch_error_messages() {
        let e = LaunchError::SharedMemExceeded {
            requested: 100,
            available: 50,
        };
        assert!(e.to_string().contains("100"));
        assert!(!LaunchError::EmptyGrid.to_string().is_empty());
    }
}
