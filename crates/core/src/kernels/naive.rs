//! The naive "d-nested loop" transposition kernel of the paper's
//! introduction: one thread per output element, a mod/div chain to decode
//! the index, a strided (uncoalesced) read on the input side. Used as the
//! ablation baseline — the taxonomy never selects it.

use crate::problem::Problem;
use std::marker::PhantomData;
use ttlg_gpu_sim::{Accounting, BlockIo, BlockKernel, IoMode, Launch};
use ttlg_tensor::Element;

/// Threads per block.
const THREADS: usize = 256;

/// Naive elementwise kernel (output-linear thread order).
#[derive(Debug, Clone)]
pub struct NaiveKernel<E> {
    volume: usize,
    rank: usize,
    /// Output-shape extents (mixed radix of the decode chain).
    out_extents: Vec<usize>,
    /// Input stride of each *output* dimension.
    perm_strides: Vec<usize>,
    _elem: PhantomData<E>,
}

impl<E: Element> NaiveKernel<E> {
    /// Build from a problem (works on the fused form — fusing only helps
    /// the naive kernel, which keeps the comparison honest).
    pub fn new(p: &Problem) -> Self {
        let rank = p.rank();
        let out_extents: Vec<usize> = p.out_shape.extents().to_vec();
        let perm_strides: Vec<usize> = (0..rank)
            .map(|od| p.in_strides[p.perm.output_dim_source(od)])
            .collect();
        NaiveKernel {
            volume: p.volume(),
            rank,
            out_extents,
            perm_strides,
            _elem: PhantomData,
        }
    }
}

impl<E: Element> BlockKernel<E> for NaiveKernel<E> {
    fn name(&self) -> &str {
        "Naive"
    }

    fn launch(&self) -> Launch {
        Launch {
            grid_blocks: self.volume.div_ceil(THREADS).max(1),
            threads_per_block: THREADS,
            smem_bytes_per_block: 0,
        }
    }

    fn run_block(&self, block: usize, io: &BlockIo<'_, E>, acct: &mut Accounting) {
        let start = block * THREADS;
        let end = (start + THREADS).min(self.volume);
        let mut in_addrs = [0usize; 32];
        let moves_data = io.mode() == IoMode::Execute;
        let mut off = start;
        while off < end {
            let lanes = (end - off).min(32);
            for (l, slot) in in_addrs.iter_mut().enumerate().take(lanes) {
                let mut rem = off + l;
                let mut in_off = 0usize;
                for d in 0..self.rank {
                    let e = self.out_extents[d];
                    in_off += (rem % e) * self.perm_strides[d];
                    rem /= e;
                }
                *slot = in_off;
            }
            // The decode chain: one mod + one div per dimension per thread.
            acct.special_instr(2 * self.rank as u64 * lanes as u64);
            acct.global_access_lanes(&in_addrs[..lanes], E::BYTES, true);
            acct.global_store_contiguous(off, lanes, E::BYTES);
            if moves_data {
                for (l, &a) in in_addrs.iter().enumerate().take(lanes) {
                    io.store(off + l, io.load(a));
                }
            }
            acct.elements(lanes as u64);
            off += lanes;
        }
    }

    fn block_class(&self, block: usize) -> u32 {
        // The gather pattern, and with it the load count, varies with the
        // block's position, so no two blocks are known to match: one class
        // per block makes the analysis exhaustive and exact, a cost this
        // ablation kernel can bear.
        u32::try_from(block).expect("naive grid has fewer than 2^32 blocks")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttlg_gpu_sim::{DeviceConfig, ExecMode, Executor};
    use ttlg_tensor::{reference, DenseTensor, Permutation, Shape};

    fn run_case(extents: &[usize], perm: &[usize]) -> ttlg_gpu_sim::TransactionStats {
        let shape = Shape::new(extents).unwrap();
        let perm = Permutation::new(perm).unwrap();
        let p = Problem::new(&shape, &perm).unwrap();
        let k = NaiveKernel::<u64>::new(&p);
        let input: DenseTensor<u64> = DenseTensor::iota(shape.clone());
        let mut out = vec![0u64; p.volume()];
        let ex = Executor::new(DeviceConfig::k40c());
        let res = ex
            .run(
                &k,
                input.data(),
                &mut out,
                ExecMode::Execute {
                    check_disjoint_writes: true,
                },
            )
            .unwrap();
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(out, expect.data(), "case {extents:?} perm {perm}");
        res.stats
    }

    #[test]
    fn correctness_various() {
        run_case(&[8, 8, 8], &[2, 1, 0]);
        run_case(&[7, 5, 3, 2], &[3, 0, 2, 1]);
        run_case(&[64, 32], &[1, 0]);
    }

    #[test]
    fn input_side_is_uncoalesced() {
        // Matrix transpose: input reads stride by 64 elements -> every lane
        // its own transaction.
        let stats = run_case(&[64, 64], &[1, 0]);
        // loads far exceed the coalesced minimum (64*64*8/128 = 256).
        assert!(
            stats.dram_load_tx > 4 * 256,
            "loads: {}",
            stats.dram_load_tx
        );
        // stores are output-linear, fully coalesced.
        assert_eq!(stats.dram_store_tx, 256);
    }

    #[test]
    fn pays_mod_div_per_element() {
        let stats = run_case(&[16, 16, 16], &[2, 1, 0]);
        assert_eq!(stats.special_instr, 2 * 3 * 16u64.pow(3));
    }
}
