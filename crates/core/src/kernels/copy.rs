//! Degenerate kernel for permutations that fuse to the identity: a
//! grid-strided, fully coalesced device copy.

use std::marker::PhantomData;
use ttlg_gpu_sim::{Accounting, BlockIo, BlockKernel, IoMode, Launch};
use ttlg_tensor::Element;

/// Elements handled per thread (grid-stride loop unroll quantum).
const ELEMS_PER_THREAD: usize = 2;
/// Threads per block.
const THREADS: usize = 256;

/// Elements processed per block — shared with the candidate estimator so
/// the planner's grid math matches the kernel.
pub const ELEMS_PER_BLOCK: usize = THREADS * ELEMS_PER_THREAD;

/// Grid-strided copy kernel.
#[derive(Debug, Clone)]
pub struct CopyKernel<E> {
    volume: usize,
    _elem: PhantomData<E>,
}

impl<E: Element> CopyKernel<E> {
    /// Build a copy kernel over `volume` elements.
    pub fn new(volume: usize) -> Self {
        CopyKernel {
            volume,
            _elem: PhantomData,
        }
    }

    fn elems_per_block(&self) -> usize {
        ELEMS_PER_BLOCK
    }
}

impl<E: Element> BlockKernel<E> for CopyKernel<E> {
    fn name(&self) -> &str {
        "Copy"
    }

    fn launch(&self) -> Launch {
        Launch {
            grid_blocks: self.volume.div_ceil(self.elems_per_block()).max(1),
            threads_per_block: THREADS,
            smem_bytes_per_block: 0,
        }
    }

    fn run_block(&self, block: usize, io: &BlockIo<'_, E>, acct: &mut Accounting) {
        let start = block * self.elems_per_block();
        let end = (start + self.elems_per_block()).min(self.volume);
        let moves_data = io.mode() == IoMode::Execute;
        let mut off = start;
        while off < end {
            let lanes = (end - off).min(32);
            acct.global_load_contiguous(off, lanes, E::BYTES);
            acct.global_store_contiguous(off, lanes, E::BYTES);
            if moves_data {
                for k in off..off + lanes {
                    io.store(k, io.load(k));
                }
            }
            acct.elements(lanes as u64);
            off += lanes;
        }
        acct.index_instr(((end - start) / 8).max(1) as u64);
    }

    fn block_class(&self, block: usize) -> u32 {
        u32::from((block + 1) * self.elems_per_block() > self.volume)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttlg_gpu_sim::{DeviceConfig, ExecMode, Executor};

    #[test]
    fn copies_exactly() {
        let n = 5000;
        let input: Vec<u64> = (0..n as u64).collect();
        let mut out = vec![0u64; n];
        let ex = Executor::new(DeviceConfig::test_tiny());
        let k = CopyKernel::<u64>::new(n);
        let res = ex
            .run(
                &k,
                &input,
                &mut out,
                ExecMode::Execute {
                    check_disjoint_writes: true,
                },
            )
            .unwrap();
        assert_eq!(out, input);
        assert_eq!(res.stats.elements_moved, n as u64);
    }

    #[test]
    fn transactions_are_minimal() {
        // Aligned full-warp copies: tx = ceil(vol * 8 / 128) each way.
        let n = 4096;
        let ex = Executor::new(DeviceConfig::test_tiny());
        let k = CopyKernel::<u64>::new(n);
        let res = ex.analyze(&k).unwrap();
        assert_eq!(res.stats.dram_load_tx, (n * 8 / 128) as u64);
        assert_eq!(res.stats.dram_store_tx, (n * 8 / 128) as u64);
    }

    #[test]
    fn analyze_matches_execute() {
        let n = 3000; // not a multiple of the block quantum
        let input: Vec<u32> = (0..n as u32).collect();
        let mut out = vec![0u32; n];
        let ex = Executor::new(DeviceConfig::test_tiny());
        let k = CopyKernel::<u32>::new(n);
        let e = ex
            .run(
                &k,
                &input,
                &mut out,
                ExecMode::Execute {
                    check_disjoint_writes: false,
                },
            )
            .unwrap();
        let a = ex.analyze(&k).unwrap();
        assert_eq!(e.stats, a.stats);
    }
}
