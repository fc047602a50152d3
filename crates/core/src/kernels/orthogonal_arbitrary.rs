//! Orthogonal-Arbitrary (paper Algs. 4 + 5): the general schema, used when
//! the combined input and output index sets overlap (and as a fallback for
//! awkward matching-FVI shapes).
//!
//! The slice is `IS x OOS` where `IS` is a set of leading input dims
//! (contiguous in the input, combined length `ilimit`) and
//! `OOS = OS - IS` the output-slice dims not already in `IS` (combined
//! length `olimit`). The whole `ilimit * olimit`-element slice lives in
//! shared memory ("the shared memory size is proportional to the slice
//! volume"). Copy-in is contiguous on the input; write-out walks the
//! output-linear order of the slice through two precomputed indirection
//! arrays (Alg. 4): `output_offset[p]` (global target) and
//! `sm_out_offset[p]` (shared-memory source), both texture-resident.
//! Unlike Orthogonal-Distinct, the buffer is unpadded, so the gather *can*
//! suffer bank conflicts — the paper says as much — and the conflict model
//! measures them.

use crate::kernels::common::{pick_coarsening_dim, pick_threads, GridDim, OuterGrid};
use crate::problem::Problem;
use std::marker::PhantomData;
use ttlg_gpu_sim::{Accounting, BlockIo, BlockKernel, IoMode, Launch, SmemSim};
use ttlg_tensor::{Element, WARP_SIZE};

/// Slice choice for the Orthogonal-Arbitrary kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OaChoice {
    /// Number of leading input dims in `IS` (last one blocked by
    /// `block_a`).
    pub in_dims: usize,
    /// Blocking factor on input dim `in_dims - 1`.
    pub block_a: usize,
    /// Number of leading *output* dims covered by the slice.
    pub out_dims: usize,
    /// Blocking factor on the source dim of output dim `out_dims - 1`
    /// (meaningful only when that source is not already in `IS`; must
    /// equal the full extent otherwise).
    pub block_b: usize,
}

impl OaChoice {
    /// Combined input-slice length.
    pub fn ilimit(&self, p: &Problem) -> usize {
        p.shape.prefix_volume(self.in_dims - 1) * self.block_a
    }

    /// The `OOS` dims (output-position order) with their chunk extents.
    pub fn oos_dims(&self, p: &Problem) -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for od in 0..self.out_dims {
            let j = p.perm.output_dim_source(od);
            if j < self.in_dims {
                continue; // already covered by IS
            }
            let chunk = if od + 1 == self.out_dims {
                self.block_b.min(p.extent(j))
            } else {
                p.extent(j)
            };
            v.push((j, chunk));
        }
        v
    }

    /// Combined `OOS` length.
    pub fn olimit(&self, p: &Problem) -> usize {
        self.oos_dims(p).iter().map(|&(_, c)| c).product()
    }

    /// Whole-slice element count (the shared-memory footprint).
    pub fn slice_vol(&self, p: &Problem) -> usize {
        self.ilimit(p) * self.olimit(p)
    }

    /// Structural validity (see module docs for the constraints).
    pub fn is_valid(&self, p: &Problem) -> bool {
        if self.in_dims == 0
            || self.in_dims > p.rank()
            || self.out_dims == 0
            || self.out_dims > p.rank()
        {
            return false;
        }
        let xa = self.in_dims - 1;
        if self.block_a == 0 || self.block_a > p.extent(xa) {
            return false;
        }
        let jb = p.perm.output_dim_source(self.out_dims - 1);
        for od in 0..self.out_dims {
            let j = p.perm.output_dim_source(od);
            if j < self.in_dims {
                // A dim shared with IS must be fully covered there if it is
                // the input-blocked dim.
                if j == xa && self.block_a != p.extent(xa) {
                    return false;
                }
            } else if od + 1 < self.out_dims {
                // Intermediate OOS dims are always fully covered; nothing
                // to check (chunk = extent by construction).
            }
        }
        if jb >= self.in_dims {
            if self.block_b == 0 || self.block_b > p.extent(jb) {
                return false;
            }
        } else if self.block_b != p.extent(jb) {
            // Convention: when the terminal output dim lives in IS, block_b
            // must record its full extent.
            return false;
        }
        true
    }

    /// Whether the slice fits the shared-memory budget for elements of
    /// `elem_bytes`.
    pub fn fits_smem(&self, p: &Problem, elem_bytes: usize, smem_limit: usize) -> bool {
        self.slice_vol(p) * elem_bytes <= smem_limit
    }

    /// Default choice: grow `IS` toward the warp size (blocking the
    /// terminal dim), then cover leading output dims until the combined
    /// output length reaches the warp size, blocking the last added `OOS`
    /// dim. When an output dim demands full coverage of a huge
    /// input-blocked dim (blowing shared memory), the input side retreats
    /// one dim and retries. Returns `None` if nothing fits shared memory.
    pub fn default_for<E: Element>(p: &Problem, smem_limit: usize) -> Option<OaChoice> {
        let ws = WARP_SIZE;
        let mut init = 1usize;
        let mut vol = p.extent(0);
        while vol < ws && init < p.rank() {
            init += 1;
            vol *= p.extent(init - 1);
        }
        (1..=init)
            .rev()
            .find_map(|in_dims| Self::default_with_in_dims::<E>(p, in_dims, smem_limit))
    }

    /// The default construction for a fixed `in_dims`; see
    /// [`OaChoice::default_for`].
    fn default_with_in_dims<E: Element>(
        p: &Problem,
        in_dims: usize,
        smem_limit: usize,
    ) -> Option<OaChoice> {
        let ws = WARP_SIZE;
        let xa = in_dims - 1;
        let prefix = p.shape.prefix_volume(xa);
        let mut block_a = p.extent(xa).min(ws.div_ceil(prefix)).max(1);
        // Output side.
        let mut out_dims = 0;
        let mut ovol = 1usize;
        while ovol < ws && out_dims < p.rank() {
            let j = p.perm.output_dim_source(out_dims);
            out_dims += 1;
            if j == xa {
                block_a = p.extent(xa); // output needs the dim in full
            }
            ovol *= if j == xa { block_a } else { p.extent(j) };
        }
        if out_dims == 0 {
            return None;
        }
        // Block the terminal output dim down to what the warp needs.
        let jb = p.perm.output_dim_source(out_dims - 1);
        let before: usize = (0..out_dims - 1)
            .map(|od| {
                let j = p.perm.output_dim_source(od);
                if j == xa {
                    block_a
                } else {
                    p.extent(j)
                }
            })
            .product();
        let block_b = if jb >= in_dims {
            p.extent(jb).min(ws.div_ceil(before.max(1))).max(1)
        } else {
            p.extent(jb)
        };
        let mut c = OaChoice {
            in_dims,
            block_a,
            out_dims,
            block_b,
        };
        if !c.is_valid(p) {
            return None;
        }
        // Shrink blockings until the slice fits shared memory.
        while !c.fits_smem(p, E::BYTES, smem_limit) {
            if c.block_b > 1 && jb >= in_dims {
                c.block_b = c.block_b.div_ceil(2);
            } else if c.block_a > 1 {
                // Only shrinkable if no output dim requires full coverage.
                if (0..c.out_dims).any(|od| p.perm.output_dim_source(od) == xa) {
                    return None;
                }
                c.block_a = c.block_a.div_ceil(2);
            } else {
                return None;
            }
        }
        c.is_valid(p).then_some(c)
    }
}

/// One `OOS` dimension as used at run time.
#[derive(Debug, Clone, Copy)]
struct OosDim {
    /// Chunk extent (block_b for the terminal dim, full extent otherwise).
    chunk: usize,
    /// Input stride of one index.
    in_stride: usize,
}

/// The Orthogonal-Arbitrary kernel.
#[derive(Debug, Clone)]
pub struct OrthogonalArbitraryKernel<E> {
    choice: OaChoice,
    ilimit: usize,
    olimit: usize,
    a_prefix: usize,
    oos: Vec<OosDim>,
    /// Input offset of each OOS position (texture-resident; Alg. 4
    /// `input_offset`).
    in_offset: Vec<usize>,
    /// Global output offset of each slice position in output-linear order
    /// (Alg. 4 `output_offset`).
    out_offset: Vec<usize>,
    /// Shared-memory source of each slice position (Alg. 4
    /// `sm_out_offset`).
    sm_offset: Vec<u32>,
    /// Within-chunk index of the blocked input dim at each slice position
    /// (empty when unblocked) — used for partial-block boundary checks.
    idx_a: Vec<u16>,
    /// Same for the blocked OOS dim.
    idx_b: Vec<u16>,
    grid: OuterGrid,
    a_grid_pos: Option<usize>,
    b_grid_pos: Option<usize>,
    /// Grid position of the coarsened dim, if any.
    coarsen_pos: Option<usize>,
    threads: usize,
    _elem: PhantomData<E>,
}

impl<E: Element> OrthogonalArbitraryKernel<E> {
    /// Build the kernel for a problem and slice choice.
    pub fn new(p: &Problem, choice: OaChoice, smem_limit: usize) -> Self {
        assert!(
            choice.is_valid(p),
            "invalid Orthogonal-Arbitrary choice {choice:?}"
        );
        assert!(
            choice.fits_smem(p, E::BYTES, smem_limit),
            "slice does not fit shared memory: {choice:?}"
        );
        let ilimit = choice.ilimit(p);
        let a_prefix = p.shape.prefix_volume(choice.in_dims - 1);
        let oos_pairs = choice.oos_dims(p);
        let oos: Vec<OosDim> = oos_pairs
            .iter()
            .map(|&(j, chunk)| OosDim {
                chunk,
                in_stride: p.in_strides[j],
            })
            .collect();
        let olimit: usize = oos.iter().map(|d| d.chunk).product();
        let slice_vol = ilimit * olimit;

        // in_offset[r]: decompose r over the OOS chunks (output-position
        // order) and accumulate input strides.
        let mut in_offset = vec![0usize; olimit];
        for (r, slot) in in_offset.iter_mut().enumerate() {
            let mut rem = r;
            let mut off = 0usize;
            for d in &oos {
                let idx = rem % d.chunk;
                rem /= d.chunk;
                off += idx * d.in_stride;
            }
            *slot = off;
        }

        // The slice dims in output-position order, with for each: chunk,
        // output stride, contribution strides toward the smem (r, a)
        // coordinates, and whether it is one of the two blocked dims.
        let xa = choice.in_dims - 1;
        let jb_src = p.perm.output_dim_source(choice.out_dims - 1);
        let blocked_a = choice.block_a < p.extent(xa);
        let blocked_b = jb_src >= choice.in_dims && choice.block_b < p.extent(jb_src);

        struct SeqDim {
            chunk: usize,
            out_stride: usize,
            a_stride: usize,
            r_stride: usize,
            is_a: bool,
            is_b: bool,
        }
        // a-coordinate radix strides for IS dims (input order).
        let mut a_strides = vec![0usize; choice.in_dims];
        {
            let mut acc = 1usize;
            for (j, s) in a_strides.iter_mut().enumerate() {
                *s = acc;
                acc *= if j == xa { choice.block_a } else { p.extent(j) };
            }
        }
        // r-coordinate radix strides for OOS dims (their enumeration order).
        let mut r_strides = vec![0usize; oos.len()];
        {
            let mut acc = 1usize;
            for (k, s) in r_strides.iter_mut().enumerate() {
                *s = acc;
                acc *= oos[k].chunk;
            }
        }
        // Assemble the output-linear sequence: slice dims sorted by output
        // position.
        let mut seq: Vec<SeqDim> = Vec::new();
        {
            // map: input dim -> OOS enumeration index
            let mut oos_index = std::collections::HashMap::new();
            let mut k = 0usize;
            for od in 0..choice.out_dims {
                let j = p.perm.output_dim_source(od);
                if j >= choice.in_dims {
                    oos_index.insert(j, k);
                    k += 1;
                }
            }
            let mut dims_with_outpos: Vec<(usize, usize)> = Vec::new(); // (out_pos, in_dim)
            for j in 0..choice.in_dims {
                dims_with_outpos.push((p.out_pos_of_in[j], j));
            }
            for &(j, _) in &oos_pairs {
                dims_with_outpos.push((p.out_pos_of_in[j], j));
            }
            dims_with_outpos.sort_unstable();
            for (_, j) in dims_with_outpos {
                let in_is = j < choice.in_dims;
                let chunk = if in_is {
                    if j == xa {
                        choice.block_a
                    } else {
                        p.extent(j)
                    }
                } else if j == jb_src {
                    choice.block_b.min(p.extent(j))
                } else {
                    p.extent(j)
                };
                seq.push(SeqDim {
                    chunk,
                    out_stride: p.out_stride_of_in_dim(j),
                    a_stride: if in_is { a_strides[j] } else { 0 },
                    r_stride: if in_is { 0 } else { r_strides[oos_index[&j]] },
                    is_a: in_is && j == xa && blocked_a,
                    is_b: !in_is && j == jb_src && blocked_b,
                });
            }
        }
        debug_assert_eq!(seq.iter().map(|d| d.chunk).product::<usize>(), slice_vol);

        // Walk the output-linear slice space once, filling the indirection
        // arrays (this is Alg. 4, done host-side at plan time).
        let mut out_offset = vec![0usize; slice_vol];
        let mut sm_offset = vec![0u32; slice_vol];
        let mut idx_a = if blocked_a {
            vec![0u16; slice_vol]
        } else {
            Vec::new()
        };
        let mut idx_b = if blocked_b {
            vec![0u16; slice_vol]
        } else {
            Vec::new()
        };
        {
            let mut idxs = vec![0usize; seq.len()];
            for pos in 0..slice_vol {
                let mut out = 0usize;
                let mut a = 0usize;
                let mut r = 0usize;
                let mut ia = 0usize;
                let mut ib = 0usize;
                for (k, d) in seq.iter().enumerate() {
                    let i = idxs[k];
                    out += i * d.out_stride;
                    a += i * d.a_stride;
                    r += i * d.r_stride;
                    if d.is_a {
                        ia = i;
                    }
                    if d.is_b {
                        ib = i;
                    }
                }
                out_offset[pos] = out;
                sm_offset[pos] = (r * ilimit + a) as u32;
                if blocked_a {
                    idx_a[pos] = ia as u16;
                }
                if blocked_b {
                    idx_b[pos] = ib as u16;
                }
                // odometer
                for (k, d) in seq.iter().enumerate() {
                    idxs[k] += 1;
                    if idxs[k] < d.chunk {
                        break;
                    }
                    idxs[k] = 0;
                }
            }
        }

        // Grid.
        let mut slice_set: Vec<usize> = (0..choice.in_dims).collect();
        slice_set.extend(oos_pairs.iter().map(|&(j, _)| j));
        let coarsen_dim = pick_coarsening_dim(p.shape.extents(), &slice_set, p.bytes::<E>());
        let mut grid = OuterGrid::new();
        let mut a_grid_pos = None;
        let mut b_grid_pos = None;
        let mut coarsen_pos = None;
        if blocked_a {
            a_grid_pos = Some(grid.dims().len());
            grid.push(GridDim {
                dim: xa,
                extent: p.extent(xa),
                chunk: choice.block_a,
                in_stride: p.in_strides[xa],
                out_stride: p.out_stride_of_in_dim(xa),
            });
        }
        if blocked_b {
            b_grid_pos = Some(grid.dims().len());
            grid.push(GridDim {
                dim: jb_src,
                extent: p.extent(jb_src),
                chunk: choice.block_b,
                in_stride: p.in_strides[jb_src],
                out_stride: p.out_stride_of_in_dim(jb_src),
            });
        }
        for d in 0..p.rank() {
            if slice_set.contains(&d) {
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

        let threads = pick_threads(slice_vol, 256);
        OrthogonalArbitraryKernel {
            choice,
            ilimit,
            olimit,
            a_prefix,
            oos,
            in_offset,
            out_offset,
            sm_offset,
            idx_a,
            idx_b,
            grid,
            a_grid_pos,
            b_grid_pos,
            coarsen_pos,
            threads,
            _elem: PhantomData,
        }
    }

    /// Build with the default slice choice; `None` when nothing fits.
    pub fn with_default_choice(p: &Problem, smem_limit: usize) -> Option<Self> {
        OaChoice::default_for::<E>(p, smem_limit).map(|c| Self::new(p, c, smem_limit))
    }

    /// The slice choice in use.
    pub fn choice(&self) -> OaChoice {
        self.choice
    }

    /// `(ilimit, olimit)` — the slice's input-combined and OOS-combined
    /// lengths.
    pub fn limits(&self) -> (usize, usize) {
        (self.ilimit, self.olimit)
    }

    /// Bytes of indirection arrays held in texture memory.
    pub fn offset_array_bytes(&self) -> usize {
        (self.in_offset.len() + self.out_offset.len() + self.sm_offset.len()) * 4
    }

    /// Transpose one sub-slice whose bases are given.
    #[allow(clippy::too_many_arguments)]
    fn run_slice(
        &self,
        in_base: usize,
        out_base: usize,
        cur_a: usize,
        cur_b: usize,
        io: &BlockIo<'_, E>,
        acct: &mut Accounting,
        sm: &mut SmemSim<E>,
    ) {
        let ilimit_cur = self.a_prefix * cur_a;
        let moves_data = io.mode() == IoMode::Execute;
        let partial = cur_a * self.a_prefix != self.ilimit
            || self
                .b_grid_pos
                .map(|_| cur_b != self.choice.block_b)
                .unwrap_or(false);

        // ---- Copy-in: odometer over current OOS extents. ----
        let mut idxs = vec![0usize; self.oos.len()];
        loop {
            // r in the full-radix enumeration + input offset.
            let mut r_full = 0usize;
            {
                let mut acc = 1usize;
                for (k, d) in self.oos.iter().enumerate() {
                    r_full += idxs[k] * acc;
                    acc *= d.chunk;
                }
            }
            acct.tex_load_contiguous(r_full, 1); // broadcast in_offset[r]
            let base = in_base + self.in_offset[r_full];
            let row = r_full * self.ilimit;
            let mut off = 0usize;
            while off < ilimit_cur {
                let lanes = (ilimit_cur - off).min(32);
                acct.global_load_contiguous(base + off, lanes, E::BYTES);
                acct.smem_access_strided(row + off, lanes, 1, E::BYTES, false);
                if moves_data {
                    for l in 0..lanes {
                        sm.write(row + off + l, io.load(base + off + l));
                    }
                }
                acct.elements(lanes as u64);
                off += lanes;
            }
            // odometer over OOS with *current* extents
            let mut done = true;
            for (k, d) in self.oos.iter().enumerate() {
                let lim = if Some(k) == self.blocked_oos_index() {
                    cur_b
                } else {
                    d.chunk
                };
                idxs[k] += 1;
                if idxs[k] < lim {
                    done = false;
                    break;
                }
                idxs[k] = 0;
            }
            if done {
                break;
            }
        }
        acct.barrier();

        // ---- Write-out: output-linear order through the indirection
        // arrays, skipping positions outside the current (partial) chunk
        // extents. ----
        let slice_vol = self.out_offset.len();
        let mut out_lanes = [0usize; 32];
        let mut sm_lanes = [0usize; 32];
        let mut chunk = 0usize;
        while chunk < slice_vol {
            let span = (slice_vol - chunk).min(32);
            let mut n = 0usize;
            for l in 0..span {
                let pos = chunk + l;
                if !self.idx_a.is_empty() && (self.idx_a[pos] as usize) >= cur_a {
                    continue;
                }
                if !self.idx_b.is_empty() && (self.idx_b[pos] as usize) >= cur_b {
                    continue;
                }
                out_lanes[n] = out_base + self.out_offset[pos];
                sm_lanes[n] = self.sm_offset[pos] as usize;
                n += 1;
            }
            if n > 0 {
                acct.tex_load_contiguous(chunk, span); // output_offset
                acct.tex_load_contiguous(chunk, span); // sm_out_offset
                if partial {
                    // boundary checks: the remainder-code mod/div pair
                    acct.special_instr(2 * span as u64);
                }
                acct.global_access_lanes(&out_lanes[..n], E::BYTES, false);
                acct.smem_access_lanes(&sm_lanes[..n], E::BYTES, true);
                if moves_data {
                    for l in 0..n {
                        io.store(out_lanes[l], sm.read(sm_lanes[l]));
                    }
                }
            }
            chunk += span;
        }
        acct.barrier();
    }

    /// Index (within `self.oos`) of the blocked OOS dim, if any.
    fn blocked_oos_index(&self) -> Option<usize> {
        // The blocked dim is always the terminal output dim, which is the
        // *last* entry in OOS enumeration order — but only when blocking is
        // active (b_grid_pos set).
        self.b_grid_pos.map(|_| self.oos.len() - 1)
    }
}

impl<E: Element> BlockKernel<E> for OrthogonalArbitraryKernel<E> {
    fn name(&self) -> &str {
        "Orthogonal-Arbitrary"
    }

    fn launch(&self) -> Launch {
        Launch {
            grid_blocks: self.grid.blocks(),
            threads_per_block: self.threads,
            smem_bytes_per_block: self.ilimit * self.olimit * E::BYTES,
        }
    }

    fn run_block(&self, block: usize, io: &BlockIo<'_, E>, acct: &mut Accounting) {
        let d = self.grid.decode(block);
        acct.special_instr(2 * d.decode_divmods as u64 * self.threads as u64);
        let cur_a = match self.a_grid_pos {
            Some(i) => d.chunk_extents[i],
            None => self.choice.block_a,
        };
        let cur_b = match self.b_grid_pos {
            Some(i) => d.chunk_extents[i],
            None => self.choice.block_b,
        };
        let mut sm: SmemSim<E> = SmemSim::for_block(io.mode(), self.ilimit * self.olimit);
        match self.coarsen_pos {
            None => self.run_slice(d.in_base, d.out_base, cur_a, cur_b, io, acct, &mut sm),
            Some(ci) => {
                let dim = self.grid.dims()[ci];
                for c in 0..d.chunk_extents[ci] {
                    if c > 0 {
                        acct.index_instr(2 * self.threads as u64);
                    }
                    self.run_slice(
                        d.in_base + c * dim.in_stride,
                        d.out_base + c * dim.out_stride,
                        cur_a,
                        cur_b,
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

#[cfg(test)]
mod tests {
    use super::*;
    use ttlg_gpu_sim::{DeviceConfig, ExecMode, Executor};
    use ttlg_tensor::{reference, DenseTensor, Permutation, Shape};

    const SMEM: usize = 48 * 1024;

    fn run_case(extents: &[usize], perm: &[usize]) -> ttlg_gpu_sim::TransactionStats {
        let shape = Shape::new(extents).unwrap();
        let perm = Permutation::new(perm).unwrap();
        let p = Problem::new(&shape, &perm).unwrap();
        let k =
            OrthogonalArbitraryKernel::<u64>::with_default_choice(&p, SMEM).expect("OA must apply");
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
    fn paper_overlap_example() {
        // Sec. III: [a,b,c,d] => [c,b,d,a], extents 8,2,8,8.
        run_case(&[8, 2, 8, 8], &[2, 1, 3, 0]);
    }

    #[test]
    fn matrix_transpose_via_oa() {
        run_case(&[64, 48], &[1, 0]);
    }

    #[test]
    fn awkward_extents() {
        run_case(&[7, 3, 5, 11], &[2, 1, 3, 0]);
        run_case(&[5, 4, 3, 2, 6], &[3, 0, 4, 2, 1]);
    }

    #[test]
    fn matching_fvi_fallback() {
        // OA as the fallback for tiny matching FVI: [2,2,c,d] => [a,d,c,b].
        run_case(&[2, 2, 16, 16], &[0, 3, 2, 1]);
    }

    #[test]
    fn rank6_all16() {
        run_case(&[16, 16, 16, 16, 16, 16], &[4, 1, 2, 5, 3, 0]);
    }

    #[test]
    fn partial_blocks_correct() {
        // extents that force partial chunks on both blocked dims
        run_case(&[10, 3, 7, 9], &[2, 1, 3, 0]);
        run_case(&[33, 9, 34], &[2, 0, 1]);
    }

    #[test]
    fn default_choice_respects_smem() {
        let p = Problem::new(
            &Shape::new(&[64, 64, 64]).unwrap(),
            &Permutation::new(&[2, 1, 0]).unwrap(),
        )
        .unwrap();
        let c = OaChoice::default_for::<f64>(&p, SMEM).unwrap();
        assert!(c.fits_smem(&p, 8, SMEM));
        assert!(c.is_valid(&p));
    }

    #[test]
    fn choice_volume_math() {
        let p = Problem::new(
            &Shape::new(&[8, 2, 8, 8]).unwrap(),
            &Permutation::new(&[2, 1, 3, 0]).unwrap(),
        )
        .unwrap();
        // Paper Sec. III: combine {a,b,c} on input and {c,b,d} on output.
        let c = OaChoice {
            in_dims: 3,
            block_a: 8,
            out_dims: 3,
            block_b: 8,
        };
        assert!(c.is_valid(&p));
        assert_eq!(c.ilimit(&p), 128);
        assert_eq!(c.olimit(&p), 8); // OOS = {d}
        assert_eq!(c.slice_vol(&p), 1024);
    }

    #[test]
    fn explicit_wide_choice_correct() {
        let shape = Shape::new(&[8, 2, 8, 8]).unwrap();
        let perm = Permutation::new(&[2, 1, 3, 0]).unwrap();
        let p = Problem::new(&shape, &perm).unwrap();
        let c = OaChoice {
            in_dims: 3,
            block_a: 8,
            out_dims: 3,
            block_b: 8,
        };
        let k = OrthogonalArbitraryKernel::<u64>::new(&p, c, SMEM);
        let input: DenseTensor<u64> = DenseTensor::iota(shape);
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
    fn invalid_choices_rejected() {
        let p = Problem::new(
            &Shape::new(&[8, 2, 8, 8]).unwrap(),
            &Permutation::new(&[2, 1, 3, 0]).unwrap(),
        )
        .unwrap();
        // in_dims 0
        assert!(!OaChoice {
            in_dims: 0,
            block_a: 1,
            out_dims: 1,
            block_b: 8
        }
        .is_valid(&p));
        // block_a exceeding extent
        assert!(!OaChoice {
            in_dims: 1,
            block_a: 9,
            out_dims: 1,
            block_b: 8
        }
        .is_valid(&p));
        // output dim covering the blocked input dim requires full block_a:
        // out dim 1 source is b (dim 1): in_dims = 2 blocks dim 1 with 1 < 2.
        assert!(!OaChoice {
            in_dims: 2,
            block_a: 1,
            out_dims: 2,
            block_b: 2
        }
        .is_valid(&p));
    }

    #[test]
    fn coarsening_engages_and_stays_correct() {
        // 16*2*16*16*24 u64 = 1.5 MiB — too small; scale up to 3 MiB.
        run_case(&[16, 2, 16, 16, 24, 2], &[2, 1, 3, 0, 4, 5]);
    }

    #[test]
    fn offset_arrays_exist() {
        let p = Problem::new(
            &Shape::new(&[8, 2, 8, 8]).unwrap(),
            &Permutation::new(&[2, 1, 3, 0]).unwrap(),
        )
        .unwrap();
        let k = OrthogonalArbitraryKernel::<f64>::with_default_choice(&p, SMEM).unwrap();
        assert!(k.offset_array_bytes() > 0);
        let (il, ol) = k.limits();
        assert!(il >= 1 && ol >= 1);
    }
}
