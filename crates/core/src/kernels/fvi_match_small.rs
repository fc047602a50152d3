//! FVI-Match-Small (paper Alg. 6 / Fig. 4): input and output share a small
//! fastest-varying index (`N0 < 32`). Data moves in `b x b x N0` slices:
//! each warp copies `b` consecutive rows along `i1` (a contiguous chunk of
//! `b*N0` input elements), staged through a padded shared-memory buffer,
//! and warps then write contiguous `b*N0`-element chunks of the output,
//! gathering "pencils" along the orthogonal dimension.
//!
//! The row length of the 2D buffer view is padded so that element 0 of row
//! 1 maps to bank `N0`, which makes the gather conflict-free (the paper's
//! Fig. 4 discussion).

use crate::kernels::common::{pick_coarsening_dim, GridDim, OuterGrid};
use crate::problem::Problem;
use std::marker::PhantomData;
use ttlg_gpu_sim::{Accounting, BlockIo, BlockKernel, IoMode, Launch, SmemSim};
use ttlg_tensor::{Element, WARP_SIZE};

/// Shared-memory staging kernel for matching small FVI.
#[derive(Debug, Clone)]
pub struct FviMatchSmallKernel<E> {
    n0: usize,
    /// Blocking factor on `i1` (input side) and `ik` (output side).
    b: usize,
    /// Padded row length of the 2D shared-buffer view, elements.
    row_len: usize,
    /// Input dim serving as the output's second-fastest index.
    dim_ik: usize,
    grid: OuterGrid,
    /// Position of the `i1` / `ik` dimensions within the grid dims.
    i1_grid_pos: usize,
    ik_grid_pos: usize,
    /// Grid position of the coarsened dimension, if any.
    coarsen_pos: Option<usize>,
    out_stride_i1: usize,
    in_stride_ik: usize,
    threads: usize,
    _elem: PhantomData<E>,
}

impl<E: Element> FviMatchSmallKernel<E> {
    /// Admissible blocking factors for a problem: `b` warps per block,
    /// shared buffer within `smem_limit` bytes.
    pub fn candidate_bs(n0: usize, smem_limit: usize) -> Vec<usize> {
        (1..=32usize)
            .filter(|&b| {
                let row_len = Self::padded_row_len(n0, b);
                b * row_len * E::BYTES <= smem_limit && b * n0 <= 4096
            })
            .collect()
    }

    /// Default blocking factor: the smallest `b` with `b * N0 >=` warp
    /// size (full warp efficiency on the contiguous chunks).
    pub fn default_b(n0: usize, smem_limit: usize) -> usize {
        let want = WARP_SIZE.div_ceil(n0);
        Self::candidate_bs(n0, smem_limit)
            .into_iter()
            .find(|&b| b >= want)
            .unwrap_or(1)
    }

    /// Row length (elements) of the 2D buffer view, padded so that
    /// `row_len ≡ N0 (mod 32)` — banks then stagger exactly as Fig. 4
    /// requires (bank of row `r`, column 0 is `r * N0`).
    pub fn padded_row_len(n0: usize, b: usize) -> usize {
        let base = b * n0;
        let want = n0 % 32;
        let have = base % 32;
        base + (want + 32 - have) % 32
    }

    /// Build the kernel with blocking factor `b`.
    pub fn with_b(p: &Problem, b: usize) -> Self {
        assert!(
            p.perm.fvi_matches(),
            "FVI-Match-Small requires matching FVI"
        );
        let n0 = p.extent(0);
        assert!(
            n0 < WARP_SIZE,
            "FVI-Match-Small requires extent(0) < warp size"
        );
        assert!(p.rank() >= 3);
        let dim_ik = p.perm.output_dim_source(1);
        assert!(dim_ik >= 2, "fusion guarantees ik >= 2");
        assert!((1..=32).contains(&b));

        let row_len = Self::padded_row_len(n0, b);
        let tensor_bytes = p.bytes::<E>();
        let slice_dims = [0usize, 1, dim_ik];
        let coarsen_dim = pick_coarsening_dim(p.shape.extents(), &slice_dims, tensor_bytes);

        let mut grid = OuterGrid::new();
        // i1 first (fastest decode), then ik, then the rest.
        grid.push(GridDim {
            dim: 1,
            extent: p.extent(1),
            chunk: b,
            in_stride: p.in_strides[1],
            out_stride: p.out_stride_of_in_dim(1),
        });
        let i1_grid_pos = 0;
        grid.push(GridDim {
            dim: dim_ik,
            extent: p.extent(dim_ik),
            chunk: b,
            in_stride: p.in_strides[dim_ik],
            out_stride: p.out_stride_of_in_dim(dim_ik),
        });
        let ik_grid_pos = 1;
        let mut coarsen_pos = None;
        for d in 2..p.rank() {
            if d == dim_ik {
                continue;
            }
            let chunk = if Some(d) == coarsen_dim {
                coarsen_pos = Some(grid.dims().len());
                p.extent(d)
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

        FviMatchSmallKernel {
            n0,
            b,
            row_len,
            dim_ik,
            grid,
            i1_grid_pos,
            ik_grid_pos,
            coarsen_pos,
            out_stride_i1: p.out_stride_of_in_dim(1),
            in_stride_ik: p.in_strides[dim_ik],
            threads: WARP_SIZE * b,
            _elem: PhantomData,
        }
    }

    /// Build the kernel with the default blocking factor.
    pub fn new(p: &Problem, smem_limit: usize) -> Self {
        let b = Self::default_b(p.extent(0), smem_limit);
        Self::with_b(p, b)
    }

    /// The blocking factor in use.
    pub fn blocking(&self) -> usize {
        self.b
    }

    /// The input dim serving as the output's second-fastest index.
    pub fn ik_dim(&self) -> usize {
        self.dim_ik
    }
}

impl<E: Element> BlockKernel<E> for FviMatchSmallKernel<E> {
    fn name(&self) -> &str {
        "FVI-Match-Small"
    }

    fn launch(&self) -> Launch {
        Launch {
            grid_blocks: self.grid.blocks(),
            threads_per_block: self.threads,
            smem_bytes_per_block: self.b * self.row_len * E::BYTES,
        }
    }

    fn run_block(&self, block: usize, io: &BlockIo<'_, E>, acct: &mut Accounting) {
        let d = self.grid.decode(block);
        acct.special_instr(2 * d.decode_divmods as u64 * self.threads as u64);
        let b1 = d.chunk_extents[self.i1_grid_pos];
        let bk = d.chunk_extents[self.ik_grid_pos];
        let mut sm: SmemSim<E> = SmemSim::for_block(io.mode(), self.b * self.row_len);
        match self.coarsen_pos {
            None => self.run_slice(d.in_base, d.out_base, b1, bk, io, acct, &mut sm),
            Some(ci) => {
                let dim = self.grid.dims()[ci];
                for c in 0..d.chunk_extents[ci] {
                    if c > 0 {
                        acct.index_instr(2 * self.threads as u64);
                    }
                    self.run_slice(
                        d.in_base + c * dim.in_stride,
                        d.out_base + c * dim.out_stride,
                        b1,
                        bk,
                        io,
                        acct,
                        &mut sm,
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

impl<E: Element> FviMatchSmallKernel<E> {
    /// Transpose one `b1 x bk x N0` sub-slice.
    #[allow(clippy::too_many_arguments)]
    fn run_slice(
        &self,
        in_base: usize,
        out_base: usize,
        b1: usize,
        bk: usize,
        io: &BlockIo<'_, E>,
        acct: &mut Accounting,
        sm: &mut SmemSim<E>,
    ) {
        let n0 = self.n0;
        let moves_data = io.mode() == IoMode::Execute;
        // Copy-in: warp w handles ik offset w; b1 rows along i1 are one
        // contiguous chunk of b1*N0 input elements.
        for w in 0..bk {
            let base_in = in_base + w * self.in_stride_ik;
            let run = b1 * n0;
            let mut off = 0;
            while off < run {
                let lanes = (run - off).min(32);
                acct.global_load_contiguous(base_in + off, lanes, E::BYTES);
                acct.smem_access_strided(w * self.row_len + off, lanes, 1, E::BYTES, false);
                if moves_data {
                    for l in 0..lanes {
                        sm.write(w * self.row_len + off + l, io.load(base_in + off + l));
                    }
                }
                acct.elements(lanes as u64);
                off += lanes;
            }
        }
        acct.barrier();

        // Write-out: warp w handles i1 offset w; the output chunk of
        // bk*N0 elements is contiguous (out dims: i0 then ik).
        let mut gather = [0usize; 32];
        for w in 0..b1 {
            let base_out = out_base + w * self.out_stride_i1;
            let run = bk * n0;
            let mut off = 0;
            while off < run {
                let lanes = (run - off).min(32);
                acct.global_store_contiguous(base_out + off, lanes, E::BYTES);
                for (l, g) in gather.iter_mut().enumerate().take(lanes) {
                    let pos = off + l;
                    let ik_off = pos / n0;
                    let i0 = pos % n0;
                    *g = ik_off * self.row_len + w * n0 + i0;
                }
                // pos/n0, pos%n0 per lane: the mod/div pair.
                acct.special_instr(2 * lanes as u64);
                acct.smem_access_lanes(&gather[..lanes], E::BYTES, true);
                if moves_data {
                    for (l, &g) in gather.iter().enumerate().take(lanes) {
                        io.store(base_out + off + l, sm.read(g));
                    }
                }
                off += lanes;
            }
        }
        acct.barrier();
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
        let k = FviMatchSmallKernel::<u64>::new(&p, 48 * 1024);
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
        let ana = ex.analyze(&k).unwrap();
        assert_eq!(ana.stats, res.stats);
    }

    #[test]
    fn paper_example_abcd_to_adcb() {
        run_case(&[8, 8, 8, 8], &[0, 3, 2, 1]);
    }

    #[test]
    fn awkward_extents() {
        run_case(&[7, 9, 5, 11], &[0, 3, 2, 1]);
        run_case(&[3, 10, 6, 4], &[0, 2, 1, 3]);
    }

    #[test]
    fn rank3() {
        run_case(&[16, 20, 24], &[0, 2, 1]);
    }

    #[test]
    fn rank6_16s() {
        run_case(&[16, 16, 16, 16, 16, 16], &[0, 2, 5, 1, 4, 3]);
    }

    #[test]
    fn padding_makes_gather_conflict_free() {
        let shape = Shape::new(&[8, 32, 32]).unwrap();
        let perm = Permutation::new(&[0, 2, 1]).unwrap();
        let p = Problem::new(&shape, &perm).unwrap();
        let k = FviMatchSmallKernel::<f32>::new(&p, 48 * 1024);
        assert_eq!(k.blocking(), 4); // 4 * 8 = 32 = warp size
                                     // row_len = 4*8 + pad with row_len % 32 == 8 -> 40.
        assert_eq!(FviMatchSmallKernel::<f32>::padded_row_len(8, 4), 40);
        let ex = Executor::new(DeviceConfig::k40c());
        let res = ex.analyze(&k).unwrap();
        assert_eq!(
            res.stats.smem_conflict_replays, 0,
            "padding must kill conflicts"
        );
    }

    #[test]
    fn unpadded_row_would_conflict() {
        // Sanity check of the model: b*n0 = 32 with no padding gives a
        // 4-way conflict on the gather (four rows collide per bank).
        let mut gather = [0usize; 32];
        for (pos, g) in gather.iter_mut().enumerate() {
            *g = (pos / 8) * 32 + pos % 8;
        }
        let mut acct = ttlg_gpu_sim::Accounting::new();
        acct.smem_access_lanes(&gather, 4, true);
        assert_eq!(acct.stats.smem_conflict_replays, 3);
    }

    #[test]
    fn candidates_respect_smem() {
        let c = FviMatchSmallKernel::<f64>::candidate_bs(16, 48 * 1024);
        assert!(!c.is_empty());
        for b in c {
            assert!(b * FviMatchSmallKernel::<f64>::padded_row_len(16, b) * 8 <= 48 * 1024);
        }
    }

    #[test]
    fn default_b_reaches_warp_width() {
        assert_eq!(FviMatchSmallKernel::<f64>::default_b(8, 48 * 1024), 4);
        assert_eq!(FviMatchSmallKernel::<f64>::default_b(16, 48 * 1024), 2);
        assert_eq!(FviMatchSmallKernel::<f64>::default_b(31, 48 * 1024), 2);
        assert_eq!(FviMatchSmallKernel::<f64>::default_b(2, 48 * 1024), 16);
    }

    #[test]
    fn coarsening_correctness_large_tensor() {
        // 8*16*16*8*18 u64 = 2.25 MiB: coarsening kicks in on a spare dim.
        run_case(&[8, 16, 16, 8, 18], &[0, 3, 2, 1, 4]);
    }
}
