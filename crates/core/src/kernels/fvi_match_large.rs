//! FVI-Match-Large (paper Alg. 7): the fastest-varying index is the same in
//! input and output and its extent is at least the warp size, so rows of
//! `N0` contiguous elements are copied directly — coalesced on both sides,
//! no shared memory.
//!
//! Thread coarsening (Sec. IV-A) lets one block process all indices of one
//! outer dimension, paying the mod/div `decode` only for the first
//! sub-slice and advancing by strides afterwards.

use crate::kernels::common::{pick_coarsening_dim, round_up, GridDim, OuterGrid};
use crate::problem::Problem;
use std::marker::PhantomData;
use ttlg_gpu_sim::{Accounting, BlockIo, BlockKernel, IoMode, Launch};
use ttlg_tensor::Element;

/// Direct-copy kernel for matching large FVI.
#[derive(Debug, Clone)]
pub struct FviMatchLargeKernel<E> {
    n0: usize,
    grid: OuterGrid,
    /// Index into `grid.dims()` of the dimension a block iterates over
    /// (either the coarsened dim or the rows-per-block packing dim).
    multi: Option<usize>,
    /// Whether `multi` came from the coarsening heuristic (affects only
    /// instruction accounting: coarsening saves the decode).
    coarsened: bool,
    threads: usize,
    _elem: PhantomData<E>,
}

impl<E: Element> FviMatchLargeKernel<E> {
    /// Build the kernel for a fused problem. Requires `perm[0] == 0` and
    /// `extent(0) >= warp size`.
    pub fn new(p: &Problem) -> Self {
        assert!(
            p.perm.fvi_matches(),
            "FVI-Match-Large requires matching FVI"
        );
        let n0 = p.extent(0);
        assert!(
            n0 >= ttlg_tensor::WARP_SIZE,
            "FVI-Match-Large requires extent(0) >= warp size"
        );

        let coarsen_dim =
            pick_coarsening_dim(p.shape.extents(), &[0], p.bytes::<E>()).filter(|&d| d != 0);
        // Rows per block: short rows are packed so blocks keep ~8 warps
        // resident (pure one-warp blocks starve memory-level parallelism).
        let row_threads = round_up(n0, 32).min(256);
        let rows_per_block = (256 / row_threads).max(1);
        let mut grid = OuterGrid::new();
        let mut multi = None;
        let mut coarsened = false;
        for d in 1..p.rank() {
            let chunk = if Some(d) == coarsen_dim {
                multi = Some(grid.dims().len());
                coarsened = true;
                p.extent(d) // entire dimension handled by one block
            } else if coarsen_dim.is_none() && multi.is_none() && rows_per_block > 1 {
                multi = Some(grid.dims().len());
                rows_per_block.min(p.extent(d))
            } else {
                1
            };
            grid.push(GridDim {
                dim: d,
                extent: p.extent(d),
                chunk,
                in_stride: p.in_strides[d],
                out_stride: p.out_stride_of_in_dim(d),
            });
        }
        let threads = if coarsened {
            row_threads
        } else {
            (row_threads * rows_per_block).min(256).max(row_threads)
        };
        FviMatchLargeKernel {
            n0,
            grid,
            multi,
            coarsened,
            threads,
            _elem: PhantomData,
        }
    }

    /// The coarsened grid dimension, if the heuristic engaged.
    pub fn coarsened(&self) -> Option<usize> {
        self.coarsened.then_some(self.multi).flatten()
    }

    fn copy_row(
        &self,
        in_base: usize,
        out_base: usize,
        io: &BlockIo<'_, E>,
        acct: &mut Accounting,
    ) {
        let moves_data = io.mode() == IoMode::Execute;
        let mut off = 0usize;
        while off < self.n0 {
            let lanes = (self.n0 - off).min(32);
            acct.global_load_contiguous(in_base + off, lanes, E::BYTES);
            acct.global_store_contiguous(out_base + off, lanes, E::BYTES);
            if moves_data {
                for k in 0..lanes {
                    let v = io.load(in_base + off + k);
                    io.store(out_base + off + k, v);
                }
            }
            acct.elements(lanes as u64);
            off += lanes;
        }
    }
}

impl<E: Element> BlockKernel<E> for FviMatchLargeKernel<E> {
    fn name(&self) -> &str {
        "FVI-Match-Large"
    }

    fn launch(&self) -> Launch {
        Launch {
            grid_blocks: self.grid.blocks(),
            threads_per_block: self.threads,
            smem_bytes_per_block: 0,
        }
    }

    fn run_block(&self, block: usize, io: &BlockIo<'_, E>, acct: &mut Accounting) {
        let d = self.grid.decode(block);
        // Every thread performs the decode divmods once per block launch.
        acct.special_instr(2 * d.decode_divmods as u64 * self.threads as u64);
        match self.multi {
            None => self.copy_row(d.in_base, d.out_base, io, acct),
            Some(ci) => {
                let dim = self.grid.dims()[ci];
                let count = d.chunk_extents[ci];
                for c in 0..count {
                    // Coarsened sub-slices add strides instead of decoding;
                    // packed rows run concurrently in other warps.
                    if c > 0 && self.coarsened {
                        acct.index_instr(2 * self.threads as u64);
                    }
                    self.copy_row(
                        d.in_base + c * dim.in_stride,
                        d.out_base + c * dim.out_stride,
                        io,
                        acct,
                    );
                }
            }
        }
    }

    fn block_class(&self, block: usize) -> u32 {
        let epb = (128 / E::BYTES).min(32);
        self.grid.block_class(block, epb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttlg_gpu_sim::{DeviceConfig, ExecMode, Executor};
    use ttlg_tensor::{reference, DenseTensor, Permutation, Shape};

    fn run_case(extents: &[usize], perm: &[usize]) {
        let shape = Shape::new(extents).unwrap();
        let perm = Permutation::new(perm).unwrap();
        let p = Problem::new(&shape, &perm).unwrap();
        let k = FviMatchLargeKernel::<u64>::new(&p);
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
        assert_eq!(res.stats.elements_moved as usize, p.volume());
        // Analyze mode must agree exactly with execute mode.
        let ana = ex.analyze(&k).unwrap();
        assert_eq!(ana.stats, res.stats);
    }

    #[test]
    fn correctness_basic() {
        run_case(&[64, 4, 5, 6], &[0, 3, 2, 1]);
    }

    #[test]
    fn correctness_unaligned_row() {
        run_case(&[37, 5, 7], &[0, 2, 1]);
    }

    #[test]
    fn correctness_exact_warp() {
        run_case(&[32, 3, 4, 2], &[0, 2, 1, 3]);
    }

    #[test]
    fn coarsening_engages_on_big_tensors() {
        // 64 * 8 * 64 * 32 doubles = 8 MB > 2 MB; dim 1 extent 8 in [4,32].
        let p = Problem::new(
            &Shape::new(&[64, 8, 64, 32]).unwrap(),
            &Permutation::new(&[0, 3, 2, 1]).unwrap(),
        )
        .unwrap();
        let k = FviMatchLargeKernel::<f64>::new(&p);
        assert!(k.coarsened().is_some());
        // Grid shrinks by the coarsening factor.
        assert_eq!(k.launch().grid_blocks, 64 * 32);
    }

    #[test]
    fn coarsening_correctness() {
        // 64*8*32*18 u64 = 2.25 MiB > 2 MiB, so coarsening engages.
        run_case(&[64, 8, 32, 18], &[0, 3, 2, 1]);
    }

    #[test]
    fn transaction_count_matches_c2() {
        // Paper Table I: C2 = ceil(size(i0)/32) * prod(other extents)
        // transaction-equivalents; for doubles each 32-wide access is 2 tx.
        let shape = Shape::new(&[64, 5, 7]).unwrap();
        let perm = Permutation::new(&[0, 2, 1]).unwrap();
        let p = Problem::new(&shape, &perm).unwrap();
        let k = FviMatchLargeKernel::<f64>::new(&p);
        let ex = Executor::new(DeviceConfig::k40c());
        let res = ex.analyze(&k).unwrap();
        // 64 doubles per row = 4 tx per row each way; 35 rows.
        assert_eq!(res.stats.dram_load_tx, 4 * 35);
        assert_eq!(res.stats.dram_store_tx, 4 * 35);
        assert_eq!(res.stats.smem_load_acc + res.stats.smem_store_acc, 0);
    }

    #[test]
    #[should_panic(expected = "matching FVI")]
    fn rejects_non_matching_fvi() {
        let p = Problem::new(
            &Shape::new(&[64, 64]).unwrap(),
            &Permutation::new(&[1, 0]).unwrap(),
        )
        .unwrap();
        let _ = FviMatchLargeKernel::<f64>::new(&p);
    }
}
