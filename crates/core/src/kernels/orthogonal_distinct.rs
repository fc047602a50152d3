//! Orthogonal-Distinct (paper Alg. 2): non-matching FVI where the combined
//! leading input dims and combined leading output dims are disjoint sets.
//!
//! The slice is a 2D `A x B` space: the A-axis is the combined input FVI
//! (contiguous in the input tensor), the B-axis the combined output FVI
//! (contiguous in the output tensor). Each thread block transposes one
//! slice through a fixed `32 x 33` padded shared-memory tile, in phases of
//! `32 x 32` elements (thread coarsening over the slice). Offset arrays —
//! `in_offset[r]` (input offset of B-axis position `r`) and `out_offset[a]`
//! (output offset of A-axis position `a`) — are precomputed on the host and
//! read through texture memory, replacing per-element mod/div chains.

use crate::kernels::common::{GridDim, OuterGrid};
use crate::problem::Problem;
use std::marker::PhantomData;
use ttlg_gpu_sim::{Accounting, BlockIo, BlockKernel, IoMode, Launch, SmemSim};
use ttlg_tensor::{Element, WARP_SIZE};

/// Slice-shape choice for the Orthogonal-Distinct kernel (the output of
/// Alg. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OdChoice {
    /// Number of leading input dims in the slice (the last one is blocked).
    pub in_dims: usize,
    /// Blocking factor on input dim `in_dims - 1`.
    pub block_a: usize,
    /// Number of leading output dims in the slice (the last one is blocked).
    pub out_dims: usize,
    /// Blocking factor on the output-side blocked dim.
    pub block_b: usize,
}

impl OdChoice {
    /// The A-axis volume (combined input slice length).
    pub fn a_vol(&self, p: &Problem) -> usize {
        p.shape.prefix_volume(self.in_dims - 1) * self.block_a
    }

    /// The B-axis volume (combined output slice length).
    pub fn b_vol(&self, p: &Problem) -> usize {
        p.out_shape.prefix_volume(self.out_dims - 1) * self.block_b
    }

    /// Whether this choice is admissible for the problem: the slice dim
    /// sets must be disjoint and the blocking factors in range.
    pub fn is_valid(&self, p: &Problem) -> bool {
        if self.in_dims == 0
            || self.out_dims == 0
            || self.in_dims > p.rank()
            || self.out_dims > p.rank()
        {
            return false;
        }
        let in_set: Vec<usize> = (0..self.in_dims).collect();
        let out_set: Vec<usize> = (0..self.out_dims)
            .map(|od| p.perm.output_dim_source(od))
            .collect();
        if in_set.iter().any(|d| out_set.contains(d)) {
            return false;
        }
        self.block_a >= 1
            && self.block_a <= p.extent(self.in_dims - 1)
            && self.block_b >= 1
            && self.block_b <= p.extent(p.perm.output_dim_source(self.out_dims - 1))
    }

    /// The flow-chart default: grow each combined side toward the warp
    /// size, blocking the terminal dim so the combined length is the least
    /// reachable multiple of 32 — but *truncate* a side rather than let the
    /// two sides share a dimension (the paper's Fig. 5 case, where the
    /// output slice stays at 27 < 32 because growing it would absorb a dim
    /// already in the input slice). Returns `None` only when the FVI
    /// matches (Orthogonal-Distinct does not apply at all).
    pub fn default_for(p: &Problem) -> Option<OdChoice> {
        if p.perm.fvi_matches() || p.rank() < 2 {
            return None;
        }
        let ws = WARP_SIZE;
        // Input side: grow until >= WS.
        let mut in_dims = 1;
        let mut vol = p.extent(0);
        while vol < ws && in_dims < p.rank() {
            in_dims += 1;
            vol *= p.extent(in_dims - 1);
        }
        // The output FVI's source dim must stay outside the input slice.
        let j0 = p.perm.output_dim_source(0);
        if j0 < in_dims {
            in_dims = j0; // j0 >= 1 because the FVI does not match
        }
        let prefix = p.shape.prefix_volume(in_dims - 1);
        let block_a = p.extent(in_dims - 1).min(ws.div_ceil(prefix)).max(1);
        // Output side: grow while the source dims stay disjoint from the
        // input slice.
        let mut out_dims = 0;
        let mut ovol = 1usize;
        while ovol < ws && out_dims < p.rank() {
            let j = p.perm.output_dim_source(out_dims);
            if j < in_dims {
                break;
            }
            out_dims += 1;
            ovol *= p.extent(j);
        }
        if out_dims == 0 {
            return None;
        }
        let oprefix = p.out_shape.prefix_volume(out_dims - 1);
        let jlast = p.perm.output_dim_source(out_dims - 1);
        let block_b = p.extent(jlast).min(ws.div_ceil(oprefix)).max(1);
        let c = OdChoice {
            in_dims,
            block_a,
            out_dims,
            block_b,
        };
        c.is_valid(p).then_some(c)
    }
}

/// Padded tile row length (the 33 of the 32x33 buffer).
const TILE_ROW: usize = WARP_SIZE + 1;
/// Unpadded tile row length (for the bank-conflict ablation and the
/// TTC-style baseline).
const TILE_ROW_UNPADDED: usize = WARP_SIZE;
/// Threads per block (8 warps; each warp copies 4 row-segments per tile,
/// exactly the Fig. 1/2 description).
const THREADS: usize = 256;

/// The Orthogonal-Distinct kernel.
#[derive(Debug, Clone)]
pub struct OrthogonalDistinctKernel<E> {
    choice: OdChoice,
    a_vol: usize,
    b_vol: usize,
    /// Input offset of each B-axis position (texture-resident).
    in_offset: Vec<usize>,
    /// Output offset of each A-axis position (texture-resident).
    out_offset: Vec<usize>,
    grid: OuterGrid,
    /// grid position of the blocked input dim (None if unblocked/full).
    a_grid_pos: Option<usize>,
    b_grid_pos: Option<usize>,
    /// A-axis volume of a partial block (prefix * remainder of block_a).
    a_prefix: usize,
    b_prefix: usize,
    /// Row length of the shared tile (33 padded, 32 unpadded ablation).
    tile_row: usize,
    _elem: PhantomData<E>,
}

impl<E: Element> OrthogonalDistinctKernel<E> {
    /// Build the kernel for a problem and a slice choice (padded tile).
    pub fn new(p: &Problem, choice: OdChoice) -> Self {
        Self::new_with_padding(p, choice, true)
    }

    /// Build with explicit control over tile padding. `padded = false`
    /// reproduces the bank-conflicted naive tile (ablation / TTC-style
    /// baseline).
    pub fn new_with_padding(p: &Problem, choice: OdChoice, padded: bool) -> Self {
        assert!(
            choice.is_valid(p),
            "invalid Orthogonal-Distinct slice choice {choice:?}"
        );
        let a_vol = choice.a_vol(p);
        let b_vol = choice.b_vol(p);
        let a_prefix = p.shape.prefix_volume(choice.in_dims - 1);
        let b_prefix = p.out_shape.prefix_volume(choice.out_dims - 1);

        // in_offset[r]: decompose r over output dims 0..out_dims (radix
        // block_b on the last) and accumulate *input* strides.
        let mut in_offset = vec![0usize; b_vol];
        for (r, slot) in in_offset.iter_mut().enumerate() {
            let mut rem = r;
            let mut off = 0usize;
            for od in 0..choice.out_dims {
                let radix = if od + 1 == choice.out_dims {
                    choice.block_b
                } else {
                    p.out_shape.extent(od)
                };
                let idx = rem % radix;
                rem /= radix;
                let j = p.perm.output_dim_source(od);
                off += idx * p.in_strides[j];
            }
            *slot = off;
        }

        // out_offset[a]: decompose a over input dims 0..in_dims (radix
        // block_a on the last) and accumulate *output* strides.
        let mut out_offset = vec![0usize; a_vol];
        for (a, slot) in out_offset.iter_mut().enumerate() {
            let mut rem = a;
            let mut off = 0usize;
            for j in 0..choice.in_dims {
                let radix = if j + 1 == choice.in_dims {
                    choice.block_a
                } else {
                    p.extent(j)
                };
                let idx = rem % radix;
                rem /= radix;
                off += idx * p.out_stride_of_in_dim(j);
            }
            *slot = off;
        }

        // Grid: blocked remainders of the two slice-terminal dims plus all
        // dims outside the slice.
        let in_set: Vec<usize> = (0..choice.in_dims).collect();
        let out_set: Vec<usize> = (0..choice.out_dims)
            .map(|od| p.perm.output_dim_source(od))
            .collect();
        let mut grid = OuterGrid::new();
        let mut a_grid_pos = None;
        let mut b_grid_pos = None;
        let xa = choice.in_dims - 1;
        if choice.block_a < p.extent(xa) {
            a_grid_pos = Some(grid.dims().len());
            grid.push(GridDim {
                dim: xa,
                extent: p.extent(xa),
                chunk: choice.block_a,
                in_stride: p.in_strides[xa],
                out_stride: p.out_stride_of_in_dim(xa),
            });
        }
        let jb = p.perm.output_dim_source(choice.out_dims - 1);
        if choice.block_b < p.extent(jb) {
            b_grid_pos = Some(grid.dims().len());
            grid.push(GridDim {
                dim: jb,
                extent: p.extent(jb),
                chunk: choice.block_b,
                in_stride: p.in_strides[jb],
                out_stride: p.out_stride_of_in_dim(jb),
            });
        }
        for d in 0..p.rank() {
            if in_set.contains(&d) || out_set.contains(&d) {
                continue;
            }
            grid.push(GridDim {
                dim: d,
                extent: p.extent(d),
                chunk: 1,
                in_stride: p.in_strides[d],
                out_stride: p.out_stride_of_in_dim(d),
            });
        }

        OrthogonalDistinctKernel {
            choice,
            a_vol,
            b_vol,
            in_offset,
            out_offset,
            grid,
            a_grid_pos,
            b_grid_pos,
            a_prefix,
            b_prefix,
            tile_row: if padded { TILE_ROW } else { TILE_ROW_UNPADDED },
            _elem: PhantomData,
        }
    }

    /// Build with the flow-chart default slice choice.
    pub fn with_default_choice(p: &Problem) -> Option<Self> {
        OdChoice::default_for(p).map(|c| Self::new(p, c))
    }

    /// The slice choice in use.
    pub fn choice(&self) -> OdChoice {
        self.choice
    }

    /// Full-slice A and B volumes.
    pub fn slice_vols(&self) -> (usize, usize) {
        (self.a_vol, self.b_vol)
    }

    /// Bytes of offset arrays held in texture memory.
    pub fn offset_array_bytes(&self) -> usize {
        (self.in_offset.len() + self.out_offset.len()) * 4
    }
}

impl<E: Element> BlockKernel<E> for OrthogonalDistinctKernel<E> {
    fn name(&self) -> &str {
        "Orthogonal-Distinct"
    }

    fn launch(&self) -> Launch {
        Launch {
            grid_blocks: self.grid.blocks(),
            threads_per_block: THREADS,
            smem_bytes_per_block: WARP_SIZE * self.tile_row * E::BYTES,
        }
    }

    fn run_block(&self, block: usize, io: &BlockIo<'_, E>, acct: &mut Accounting) {
        let d = self.grid.decode(block);
        acct.special_instr(2 * d.decode_divmods as u64 * THREADS as u64);
        // Current (possibly partial) slice extents.
        let a_cur = match self.a_grid_pos {
            Some(i) => self.a_prefix * d.chunk_extents[i],
            None => self.a_vol,
        };
        let b_cur = match self.b_grid_pos {
            Some(i) => self.b_prefix * d.chunk_extents[i],
            None => self.b_vol,
        };
        let mut sm: SmemSim<E> = SmemSim::for_block(io.mode(), WARP_SIZE * self.tile_row);
        let moves_data = io.mode() == IoMode::Execute;

        let ws = WARP_SIZE;
        for bt in 0..b_cur.div_ceil(ws) {
            let rows = (b_cur - bt * ws).min(ws);
            for at in 0..a_cur.div_ceil(ws) {
                let cols = (a_cur - at * ws).min(ws);
                // Copy-in: row r is one warp-wide contiguous input access.
                for r_loc in 0..rows {
                    let r = bt * ws + r_loc;
                    acct.tex_load_contiguous(r, 1); // broadcast in_offset[r]
                    let addr = d.in_base + self.in_offset[r] + at * ws;
                    acct.global_load_contiguous(addr, cols, E::BYTES);
                    acct.smem_access_strided(r_loc * self.tile_row, cols, 1, E::BYTES, false);
                    if moves_data {
                        for c in 0..cols {
                            sm.write(r_loc * self.tile_row + c, io.load(addr + c));
                        }
                    }
                    acct.elements(cols as u64);
                }
                acct.barrier();
                // Write-out: column a is one warp-wide contiguous output
                // access; the shared read walks the padded column.
                for a_loc in 0..cols {
                    let a = at * ws + a_loc;
                    acct.tex_load_contiguous(a, 1); // broadcast out_offset[a]
                    let addr = d.out_base + self.out_offset[a] + bt * ws;
                    acct.global_store_contiguous(addr, rows, E::BYTES);
                    acct.smem_access_strided(a_loc, rows, self.tile_row, E::BYTES, true);
                    if moves_data {
                        for r_loc in 0..rows {
                            io.store(addr + r_loc, sm.read(r_loc * self.tile_row + a_loc));
                        }
                    }
                }
                acct.barrier();
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

    fn run_case(extents: &[usize], perm: &[usize]) -> ttlg_gpu_sim::TransactionStats {
        let shape = Shape::new(extents).unwrap();
        let perm = Permutation::new(perm).unwrap();
        let p = Problem::new(&shape, &perm).unwrap();
        let k = OrthogonalDistinctKernel::<u64>::with_default_choice(&p)
            .expect("OD must apply to this case");
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
        res.stats
    }

    #[test]
    fn matrix_transpose_128() {
        let stats = run_case(&[128, 128], &[1, 0]);
        // Fully coalesced: load tx = 128*128*8/128 = 1024 each way.
        assert_eq!(stats.dram_load_tx, 1024);
        assert_eq!(stats.dram_store_tx, 1024);
        assert_eq!(stats.smem_conflict_replays, 0);
    }

    #[test]
    fn matrix_transpose_non_multiple() {
        run_case(&[100, 60], &[1, 0]);
        run_case(&[33, 65], &[1, 0]);
    }

    #[test]
    fn paper_fig2_rank3_reversal() {
        run_case(&[9, 7, 64], &[2, 1, 0]);
    }

    #[test]
    fn paper_sec3_combined_dims() {
        // [a,b,c,d] => [d,c,b,a], extents 16,2,32,32: I={a,b}, O={d}.
        run_case(&[16, 2, 32, 32], &[3, 2, 1, 0]);
    }

    #[test]
    fn rank5_mixed() {
        run_case(&[8, 6, 5, 7, 9], &[4, 2, 3, 0, 1]);
    }

    #[test]
    fn default_choice_truncates_on_overlap() {
        // [a,b,c,d] => [c,b,d,a] extents 8,2,8,8: growing either side to 32
        // would make the sets overlap; the default truncates instead
        // (I = {a,b}, O = {c}: A = 16, B = 8), leaving OD valid but small —
        // the planner's predictor then prefers Orthogonal-Arbitrary.
        let p = Problem::new(
            &Shape::new(&[8, 2, 8, 8]).unwrap(),
            &Permutation::new(&[2, 1, 3, 0]).unwrap(),
        )
        .unwrap();
        let c = OdChoice::default_for(&p).unwrap();
        assert!(c.is_valid(&p));
        assert_eq!((c.a_vol(&p), c.b_vol(&p)), (16, 8));
        // Matching-FVI problems have no OD choice at all.
        let pm = Problem::new(
            &Shape::new(&[8, 8, 8]).unwrap(),
            &Permutation::new(&[0, 2, 1]).unwrap(),
        )
        .unwrap();
        assert!(OdChoice::default_for(&pm).is_none());
    }

    #[test]
    fn default_choice_fig5_shape() {
        // 27^5 with perm 4 1 2 0 3 (the paper's Fig. 5 example): output
        // slice truncates at 27 because output dim 1's source (dim 1) is in
        // the input slice.
        let p = Problem::new(
            &Shape::new(&[27, 27, 27, 27, 27]).unwrap(),
            &Permutation::new(&[4, 1, 2, 0, 3]).unwrap(),
        )
        .unwrap();
        let c = OdChoice::default_for(&p).unwrap();
        assert_eq!(c.in_dims, 2);
        assert_eq!(c.out_dims, 1);
        assert_eq!(c.b_vol(&p), 27);
        assert_eq!(c.a_vol(&p), 54);
    }

    #[test]
    fn fig5_case_correctness_small() {
        // Same permutation structure as Fig. 5 at a testable size.
        run_case(&[9, 9, 9, 9, 9], &[4, 1, 2, 0, 3]);
    }

    #[test]
    fn choice_volumes() {
        let p = Problem::new(
            &Shape::new(&[16, 2, 32, 32]).unwrap(),
            &Permutation::new(&[3, 2, 1, 0]).unwrap(),
        )
        .unwrap();
        let c = OdChoice::default_for(&p).unwrap();
        assert_eq!(c.a_vol(&p), 32); // {a, b}
        assert_eq!(c.b_vol(&p), 32); // {d}
        assert_eq!(c.in_dims, 2);
        assert_eq!(c.out_dims, 1);
    }

    #[test]
    fn wider_slices_also_correct() {
        let shape = Shape::new(&[27, 27, 27]).unwrap();
        let perm = Permutation::new(&[2, 1, 0]).unwrap();
        let p = Problem::new(&shape, &perm).unwrap();
        // A = 27*3 = 81 (block 3 of dim 1... dim 1 is in neither side's
        // default), B = 27 * 2: use explicit wider choice.
        let c = OdChoice {
            in_dims: 2,
            block_a: 3,
            out_dims: 1,
            block_b: 27,
        };
        assert!(c.is_valid(&p));
        let k = OrthogonalDistinctKernel::<u64>::new(&p, c);
        let input: DenseTensor<u64> = DenseTensor::iota(shape.clone());
        let mut out = vec![0u64; p.volume()];
        let ex = Executor::new(DeviceConfig::k40c());
        ex.run(
            &k,
            input.data(),
            &mut out,
            ExecMode::Execute {
                check_disjoint_writes: true,
            },
        )
        .unwrap();
        let expect = reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(out, expect.data());
    }

    #[test]
    fn no_bank_conflicts_thanks_to_padding() {
        let stats = run_case(&[64, 5, 64], &[2, 1, 0]);
        assert_eq!(stats.smem_conflict_replays, 0);
    }

    #[test]
    fn offset_arrays_sized_by_slice() {
        let p = Problem::new(
            &Shape::new(&[128, 128]).unwrap(),
            &Permutation::new(&[1, 0]).unwrap(),
        )
        .unwrap();
        let k = OrthogonalDistinctKernel::<f32>::with_default_choice(&p).unwrap();
        let (a, b) = k.slice_vols();
        assert_eq!((a, b), (32, 32));
        assert_eq!(k.offset_array_bytes(), (32 + 32) * 4);
    }

    #[test]
    fn unpadded_tile_conflicts_but_stays_correct() {
        let shape = Shape::new(&[64, 64]).unwrap();
        let perm = Permutation::new(&[1, 0]).unwrap();
        let p = Problem::new(&shape, &perm).unwrap();
        let c = OdChoice::default_for(&p).unwrap();
        let k = OrthogonalDistinctKernel::<f64>::new_with_padding(&p, c, false);
        let input: DenseTensor<f64> = DenseTensor::iota(shape);
        let mut out = vec![0.0f64; p.volume()];
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
        assert_eq!(out, expect.data());
        // Unpadded column reads serialize 32-ways: massive replay count.
        assert!(res.stats.smem_conflict_replays > 0);
        let kp = OrthogonalDistinctKernel::<f64>::new(&p, c);
        let padded = ex.analyze(&kp).unwrap();
        assert_eq!(padded.stats.smem_conflict_replays, 0);
    }

    #[test]
    fn invalid_choice_detection() {
        let p = Problem::new(
            &Shape::new(&[16, 16, 16]).unwrap(),
            &Permutation::new(&[2, 1, 0]).unwrap(),
        )
        .unwrap();
        // in: {0,1}, out: {2,1}: overlap on dim 1.
        assert!(!OdChoice {
            in_dims: 2,
            block_a: 16,
            out_dims: 2,
            block_b: 16
        }
        .is_valid(&p));
        // zero dims invalid
        assert!(!OdChoice {
            in_dims: 0,
            block_a: 1,
            out_dims: 1,
            block_b: 1
        }
        .is_valid(&p));
        // block too large
        assert!(!OdChoice {
            in_dims: 1,
            block_a: 17,
            out_dims: 1,
            block_b: 16
        }
        .is_valid(&p));
    }
}
