//! The executor: real data movement driven by a [`CpuPlan`].
//!
//! A tiled plan runs in one of two regimes, chosen per call:
//!
//! - **Cached** (calls that move at most [`STREAM_MIN_BYTES`], input
//!   plus output, and every layout the streaming regime cannot take):
//!   tile blocks are visited `b`-fastest so consecutive blocks fill
//!   neighbouring output lines, and every store is an ordinary one.
//!   Scalar planes use the generic 8x8 register-staged micro-tile, runs
//!   of at most 16 elements the staged 8x8 run block, longer runs one
//!   `memcpy` each.
//! - **Streaming** (larger calls, on x86-64): the output will not be
//!   reread while it is still cached, so stores skip the cache with
//!   non-temporal writes of whole lines, which needs no
//!   read-for-ownership. Writes then need no locality, so blocks are
//!   visited in input-memory order (`a` first, then the other
//!   dimensions by input stride) to suit the reads. Scalar planes of
//!   8-byte elements shift the `b` tile grid by the output buffer's
//!   cache-line phase so every full 8x8 micro-tile row is one aligned
//!   line, transpose it in AVX-512F registers and stream it out; edge
//!   rows use ordinary stores. Run planes copy each run with 16-byte
//!   streamed stores, writing each tile's output rows front to back.
//!   Every block ends with a store fence on its own thread.
//!
//! The streaming regime needs rows it can line-align: a scalar plane of
//! 8-byte elements whose output rows all share one cache-line phase, on
//! a host with AVX-512F; or a run plane whose runs are a multiple of 16
//! bytes into a 16-byte aligned output. Anything else (4-byte scalar
//! planes, other layouts, scalar planes on hosts without AVX-512F, other
//! targets) runs the cached regime whatever its size. AVX-512F is
//! detected at run time ([`crate::simd`]) and the size threshold is a
//! constant; no option selects the regime.

use crate::plan::{CpuPlan, PlanKind};
use crate::raw::Raw;
use crate::simd::{self, LINE};
use std::mem::size_of;
use ttlg_tensor::{parallel, Element};

/// Below this volume the thread-spawn cost outweighs any split: run
/// sequentially regardless of the plan's thread count.
const PARALLEL_MIN_VOLUME: usize = 1 << 15;

/// A tiled call that moves more bytes than this (input plus output)
/// asks for the streaming regime. Set where the cached regime falls off
/// on a 2-vCPU AVX-512 host: 10-18 GB/s up to 31 MiB moved, 4-10 GB/s
/// at 48-54 MiB, while streamed calls of those sizes run at 11-27 GB/s.
/// Smaller calls keep ordinary stores, so their output stays cached for
/// whoever reads it next.
const STREAM_MIN_BYTES: usize = 32 << 20;

/// Execute the plan with its own thread setting.
pub fn execute<E: Element>(plan: &CpuPlan, src: &[E], dst: &mut [E]) {
    execute_threads(plan, src, dst, plan.threads);
}

/// Execute with an explicit worker count (still capped by the machine
/// and any enclosing [`parallel::with_thread_cap`] scope).
pub fn execute_threads<E: Element>(plan: &CpuPlan, src: &[E], dst: &mut [E], threads: usize) {
    assert_eq!(src.len(), plan.volume, "input length != plan volume");
    assert_eq!(dst.len(), plan.volume, "output length != plan volume");
    let threads = if plan.volume < PARALLEL_MIN_VOLUME {
        1
    } else {
        threads.max(1).min(parallel::default_threads())
    };
    match plan.kind {
        PlanKind::Copy => copy_blocks(src, dst, threads),
        PlanKind::Tiled => {
            let regime = if plan.bytes_moved(E::BYTES) > STREAM_MIN_BYTES {
                Regime::streaming(plan, dst, true)
            } else {
                Regime::Cached
            };
            tiled(plan, src, dst, threads, regime)
        }
    }
}

/// Identity after normalization: split the output into per-thread
/// contiguous ranges and memcpy each.
fn copy_blocks<E: Element>(src: &[E], dst: &mut [E], threads: usize) {
    if threads <= 1 {
        dst.copy_from_slice(src);
        return;
    }
    parallel::parallel_fill(dst, threads, |_, off, chunk| {
        chunk.copy_from_slice(&src[off..off + chunk.len()]);
    });
}

/// How the tiled core walks its blocks and stores its output (see the
/// module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Regime {
    /// `b`-fastest walk, ordinary stores.
    Cached,
    /// Input-order walk over a scalar plane of 8-byte elements whose `b`
    /// grid starts `shift` elements in, so full micro-tile rows are
    /// whole lines; AVX-512F 8x8 register transposes, streamed.
    StreamScalar { shift: usize },
    /// Input-order walk over a run plane; runs copied with streamed
    /// stores.
    StreamRuns,
}

impl Regime {
    /// The streaming regime `dst`'s layout allows, or
    /// [`Regime::Cached`] when its rows cannot be line-aligned. Scalar
    /// planes stream only if `avx512` allows it and the host has
    /// AVX-512F.
    fn streaming<E>(plan: &CpuPlan, dst: &[E], avx512: bool) -> Regime {
        let addr = dst.as_ptr() as usize;
        if !cfg!(target_arch = "x86_64") {
            Regime::Cached
        } else if plan.run == 1 {
            // Every output row (fixed `a` and outer indices) starts at
            // the same line phase iff `a`'s and the outer dimensions'
            // output strides are whole lines.
            let lines = |stride: usize| stride.is_multiple_of(MICRO);
            let aligned = size_of::<E>() * MICRO == LINE
                && lines(plan.sa_out)
                && plan.outer_out.iter().all(|&s| lines(s));
            if aligned && avx512 && simd::avx512() {
                let phase = addr / size_of::<E>() % MICRO;
                let shift = (MICRO - phase) % MICRO;
                Regime::StreamScalar { shift }
            } else {
                Regime::Cached
            }
        } else if (plan.run * size_of::<E>()).is_multiple_of(16) && addr.is_multiple_of(16) {
            Regime::StreamRuns
        } else {
            Regime::Cached
        }
    }
}

/// Edge of the register-blocked micro-tile used for scalar (`run == 1`)
/// planes: 8x8 fully unrolls, so the staging array lives in registers
/// and both memory streams are contiguous 8-element rows.
const MICRO: usize = 8;

/// The 8x8 register-staged transpose at the heart of the scalar plane.
/// Loads are contiguous along `a` (input rows), stores contiguous along
/// `b` (output rows); the transposition itself happens in the staging
/// array, which the optimizer keeps in registers once the constant-
/// bound loops unroll.
///
/// # Safety
/// The caller guarantees every `s_base + bb*sb_in + aa` is in bounds of
/// the source and every `d_base + aa*sa_out + bb` is an output offset
/// owned exclusively by this block.
#[inline]
unsafe fn micro8x8<E: Element>(
    sp: Raw<E>,
    dp: Raw<E>,
    s_base: usize,
    d_base: usize,
    sb_in: usize,
    sa_out: usize,
) {
    let mut buf = [E::zero(); MICRO * MICRO];
    for bb in 0..MICRO {
        let s = s_base + bb * sb_in;
        for aa in 0..MICRO {
            // SAFETY: in bounds per the caller.
            buf[aa * MICRO + bb] = unsafe { sp.read(s + aa) };
        }
    }
    for aa in 0..MICRO {
        let d = d_base + aa * sa_out;
        for bb in 0..MICRO {
            // SAFETY: in bounds and this block's alone per the caller.
            unsafe { dp.write(d + bb, buf[aa * MICRO + bb]) };
        }
    }
}

/// Staging capacity for the short-run micro-tile: 8x8 runs of up to
/// [`STAGE_MAX_RUN`] elements.
const STAGE_CAP: usize = MICRO * MICRO * STAGE_MAX_RUN;

/// Longest run the staged short-run micro-tile handles; longer runs go
/// straight through `memcpy`, which amortizes its call cost past this.
const STAGE_MAX_RUN: usize = 16;

/// The short-run analogue of [`micro8x8`]: an 8x8 block of `run`-element
/// super-elements, staged so both memory streams move `8 * run`
/// contiguous elements at a time (one block-copy per input row in, one
/// row of eight runs per output row out) instead of `run`-sized pieces.
///
/// # Safety
/// As for [`micro8x8`]: the caller guarantees all eight input rows
/// (`s_base + bb*sb`, `8 * run` elements each) are in bounds and all
/// eight output rows (`d_base + aa*sa`) are this block's alone.
#[inline]
unsafe fn micro8x8_runs<E: Element>(
    sp: Raw<E>,
    dp: Raw<E>,
    s_base: usize,
    d_base: usize,
    sb: usize,
    sa: usize,
    run: usize,
) {
    debug_assert!(run <= STAGE_MAX_RUN);
    let mut buf = [E::zero(); STAGE_CAP];
    let stage = Raw::of_mut(&mut buf);
    for bb in 0..MICRO {
        // SAFETY: the input row is in bounds per the caller; the staging
        // row fits because `run <= STAGE_MAX_RUN`.
        unsafe {
            std::ptr::copy_nonoverlapping(
                sp.span(s_base + bb * sb, MICRO * run),
                stage.span(bb * MICRO * run, MICRO * run),
                MICRO * run,
            );
        }
    }
    for aa in 0..MICRO {
        let d = d_base + aa * sa;
        for bb in 0..MICRO {
            let s = (bb * MICRO + aa) * run;
            for r in 0..run {
                // SAFETY: in bounds and this block's alone per the caller.
                unsafe { dp.write(d + bb * run + r, buf[s + r]) };
            }
        }
    }
}

/// One tile block: its `a` and `b` ranges and the offsets (R units) of
/// its outer combination.
struct Tile {
    a0: usize,
    a1: usize,
    b0: usize,
    b1: usize,
    in_base: usize,
    out_base: usize,
}

/// A digit of the mixed-radix block index.
#[derive(Clone, Copy)]
enum Axis {
    A,
    B,
    Outer(usize),
}

/// Walk a tile in 8x8 micro-tiles of `run`-element super-elements,
/// `b` rows outside: `full(s_base, d_base)` moves each full micro-tile,
/// ordinary element copies move the edges. Offsets are in elements.
/// Forced inline: out of line, the call per block and the runtime `run`
/// cost small in-cache scalar planes a few percent.
#[inline(always)]
fn micro_tiles<E: Element>(
    plan: &CpuPlan,
    t: &Tile,
    run: usize,
    sp: Raw<E>,
    dp: Raw<E>,
    full: impl Fn(usize, usize),
) {
    // Offsets in R units: input = in_base + b*sb_in + a (a has input
    // stride 1), output = out_base + b + a*sa_out.
    let (sb, sa) = (plan.sb_in * run, plan.sa_out * run);
    let mut b = t.b0;
    while b < t.b1 {
        let hb = (t.b1 - b).min(MICRO);
        let mut a = t.a0;
        while a < t.a1 {
            let wa = (t.a1 - a).min(MICRO);
            let s_base = (t.in_base + b * plan.sb_in + a) * run;
            let d_base = (t.out_base + b + a * plan.sa_out) * run;
            if hb == MICRO && wa == MICRO {
                full(s_base, d_base);
            } else {
                for bb in 0..hb {
                    let s = s_base + bb * sb;
                    let d = d_base + bb * run;
                    for aa in 0..wa {
                        for r in 0..run {
                            // SAFETY: the tile lies inside the plane, and
                            // its output offsets are this block's alone.
                            unsafe { dp.write(d + aa * sa + r, sp.read(s + aa * run + r)) };
                        }
                    }
                }
            }
            a += wa;
        }
        b += hb;
    }
}

/// Walk a run plane's tile one output row (fixed `a`) at a time, front
/// to back: `copy(s, d)` moves the run at input offset `s` to output
/// offset `d` (elements).
fn run_rows(plan: &CpuPlan, t: &Tile, copy: impl Fn(usize, usize)) {
    let run = plan.run;
    let sb = plan.sb_in * run;
    for a in t.a0..t.a1 {
        let mut s = (t.in_base + t.b0 * plan.sb_in + a) * run;
        let mut d = (t.out_base + t.b0 + a * plan.sa_out) * run;
        for _ in t.b0..t.b1 {
            copy(s, d);
            s += sb;
            d += run;
        }
    }
}

/// The tiled 2D core. Blocks are `(outer combination, a-tile, b-tile)`
/// triples, visited in the order `regime` asks for. Scalar planes
/// (`run == 1`) walk each tile in 8x8 micro-tiles; short-run planes
/// (`run <= 16`) in the cached regime use the staged run-block variant
/// so both streams stay `8 * run` elements wide; other run planes keep
/// the write stream contiguous (`b` innermost) with one copy per run.
/// Either way the tile working set stays L1-resident. `regime` must
/// come from [`Regime::streaming`] on this `dst`, or be
/// [`Regime::Cached`].
fn tiled<E: Element>(plan: &CpuPlan, src: &[E], dst: &mut [E], threads: usize, regime: Regime) {
    let run = plan.run;
    let (na, nb) = (plan.na, plan.nb);
    let ta = plan.tile_a;
    // The `b` grid: tile k covers [k*tb + lead - tb, k*tb + lead), so
    // `lead == tb` is the plain grid and a smaller `lead` shifts it.
    let (tb, lead) = match regime {
        Regime::StreamScalar { shift } => {
            let tb = plan.tile_b.next_multiple_of(MICRO);
            (tb, if shift == 0 { tb } else { shift })
        }
        _ => (plan.tile_b, plan.tile_b),
    };
    let nta = na.div_ceil(ta);
    let ntb = (nb + tb - lead).div_ceil(tb);
    let outer = (0..plan.outer_ext.len()).map(|d| (plan.outer_ext[d], Axis::Outer(d)));
    let mut walk: Vec<(usize, Axis)> = [(ntb, Axis::B), (nta, Axis::A)]
        .into_iter()
        .chain(outer)
        .collect();
    if regime != Regime::Cached {
        // Input-memory order: `a` (stride 1), then `b` and the outer
        // dimensions by input stride.
        walk.sort_by_key(|&(_, axis)| match axis {
            Axis::A => 1,
            Axis::B => plan.sb_in,
            Axis::Outer(d) => plan.outer_in[d],
        });
    }
    let blocks: usize = walk.iter().map(|&(n, _)| n).product();
    let (sp, dp) = (Raw::of(src), Raw::of_mut(dst));

    let body = |block: usize| {
        // Odometer-free decode of the block index (it runs once per
        // block, not per element).
        let mut rest = block;
        let (mut ta_i, mut tb_i, mut in_base, mut out_base) = (0, 0, 0, 0);
        for &(n, axis) in &walk {
            let i = rest % n;
            rest /= n;
            match axis {
                Axis::A => ta_i = i,
                Axis::B => tb_i = i,
                Axis::Outer(d) => {
                    in_base += i * plan.outer_in[d];
                    out_base += i * plan.outer_out[d];
                }
            }
        }
        let a0 = ta_i * ta;
        let b_end = tb_i * tb + lead;
        let t = Tile {
            a0,
            a1: (a0 + ta).min(na),
            b0: b_end.saturating_sub(tb),
            b1: b_end.min(nb),
            in_base,
            out_base,
        };
        // Every kernel call below relies on two facts. The tile lies
        // inside the plane, so every offset it forms is inside its slice
        // (the shim asserts this in debug builds). Its output offsets are
        // this block's alone (see `Raw`).
        let (sb, sa) = (plan.sb_in * run, plan.sa_out * run);
        match regime {
            Regime::Cached if run == 1 => micro_tiles(plan, &t, 1, sp, dp, |s, d| {
                // SAFETY: see above.
                unsafe { micro8x8(sp, dp, s, d, sb, sa) }
            }),
            Regime::Cached if run <= STAGE_MAX_RUN => micro_tiles(plan, &t, run, sp, dp, |s, d| {
                // SAFETY: see above.
                unsafe { micro8x8_runs(sp, dp, s, d, sb, sa, run) }
            }),
            Regime::Cached => run_rows(plan, &t, |s, d| {
                // SAFETY: see above.
                unsafe { std::ptr::copy_nonoverlapping(sp.span(s, run), dp.span(d, run), run) }
            }),
            Regime::StreamScalar { .. } => {
                let (s8, d8) = (sp.cast::<f64>(), dp.cast::<f64>());
                micro_tiles(plan, &t, 1, sp, dp, |s, d| {
                    // SAFETY: see above; `streaming` checked that the
                    // host has AVX-512F, and the shifted `b` grid starts
                    // every full micro-tile's output rows on a line.
                    unsafe { simd::stream8x8(s8, s, sb, d8, d, sa) }
                });
                simd::sfence();
            }
            Regime::StreamRuns => {
                run_rows(plan, &t, |s, d| {
                    // SAFETY: see above; `streaming` checked that runs are
                    // whole 16-byte units into a 16-byte aligned output.
                    unsafe { simd::stream_run(sp, s, dp, d, run) }
                });
                simd::sfence();
            }
        }
    };

    if threads <= 1 || blocks == 1 {
        for b in 0..blocks {
            body(b);
        }
    } else {
        // Claim a handful of blocks per atomic fetch to amortize the
        // counter traffic without starving the tail.
        let chunk = (blocks / (threads * 8)).clamp(1, 64);
        parallel::parallel_for_threads(blocks, chunk, threads, body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::pick_tile;
    use ttlg_tensor::reference::{first_mismatch, transpose_reference};
    use ttlg_tensor::rng::StdRng;
    use ttlg_tensor::{DenseTensor, Element, Permutation, Shape};

    fn check<E: Element>(extents: &[usize], perm: &[usize], tile: usize, threads: usize) {
        let shape = Shape::new(extents).unwrap();
        let p = Permutation::new(perm).unwrap();
        let input: DenseTensor<E> = DenseTensor::iota(shape.clone());
        let expect = transpose_reference(&input, &p).unwrap();
        let plan = CpuPlan::new(extents, perm, tile, threads);
        let mut out = DenseTensor::<E>::zeros(p.apply_to_shape(&shape).unwrap());
        execute(&plan, input.data(), out.data_mut());
        assert_eq!(
            first_mismatch(&out, &expect),
            None,
            "extents {extents:?} perm {perm:?} tile {tile} threads {threads}"
        );
    }

    #[test]
    fn all_rank2_and_rank3_perms_exact() {
        for p in Permutation::all(2) {
            check::<u32>(&[37, 19], p.as_slice(), 32, 2);
        }
        for p in Permutation::all(3) {
            check::<u64>(&[13, 7, 11], p.as_slice(), 16, 2);
        }
    }

    #[test]
    fn all_rank4_perms_awkward_extents() {
        for p in Permutation::all(4) {
            check::<u32>(&[9, 1, 6, 5], p.as_slice(), 8, 2);
        }
    }

    #[test]
    fn randomized_ranks_2_to_6_all_dtypes_bit_equal() {
        // The satellite contract: bit-equality with the reference across
        // randomized shapes (degenerate 1-extents included), every
        // Element impl, identity permutations included.
        let mut rng = StdRng::seed_from_u64(0xC0DE_0C9D ^ 0x9E37);
        for case in 0..40 {
            let rank = rng.gen_range(2..7usize);
            let extents: Vec<usize> = (0..rank)
                .map(|_| {
                    if rng.gen_range(0..5usize) == 0 {
                        1 // degenerate dimension
                    } else {
                        rng.gen_range(2..9usize)
                    }
                })
                .collect();
            let mut perm: Vec<usize> = (0..rank).collect();
            if case % 7 != 0 {
                rng.shuffle(&mut perm); // case % 7 == 0 keeps the identity
            }
            let tile = [8, 16, 32][rng.gen_range(0..3usize)];
            let threads = rng.gen_range(1..5usize);
            check::<f32>(&extents, &perm, tile, threads);
            check::<f64>(&extents, &perm, tile, threads);
            check::<u32>(&extents, &perm, tile, threads);
            check::<u64>(&extents, &perm, tile, threads);
        }
    }

    /// One forced-streaming case: a problem and its plan's settings.
    struct Case {
        extents: Vec<usize>,
        perm: Vec<usize>,
        tile: usize,
        threads: usize,
    }

    /// Run `c` through the tiled core with streaming forced on (the
    /// AVX-512F kernel allowed if `avx512`), into the output slice at
    /// element phase `phase` (within an 8-element group) of a
    /// sentinel-filled buffer. Asserts bit-equality with the reference
    /// and untouched sentinels, and returns the regime the layout took.
    fn check_streamed<E: Element>(c: &Case, avx512: bool, phase: usize) -> Regime {
        let input: DenseTensor<E> = DenseTensor::iota(Shape::new(&c.extents).unwrap());
        let perm = Permutation::new(&c.perm).unwrap();
        let expect = transpose_reference(&input, &perm).unwrap();
        let plan = CpuPlan::new(&c.extents, &c.perm, c.tile, c.threads);
        let v = plan.volume;
        let sentinel = E::from_index(usize::MAX);
        let mut buf = vec![sentinel; v + 2 * MICRO];
        let group = buf.as_ptr() as usize / size_of::<E>() % MICRO;
        let start = (phase + MICRO - group) % MICRO;
        let out = &mut buf[start..start + v];
        let regime = Regime::streaming(&plan, out, avx512);
        tiled(&plan, input.data(), out, c.threads, regime);
        let case = format!(
            "extents {:?} perm {perm} tile {} threads {} {regime:?} phase {phase} {}B",
            c.extents,
            c.tile,
            c.threads,
            size_of::<E>()
        );
        let (before, rest) = buf.split_at(start);
        let (out, after) = rest.split_at(v);
        assert!(out == expect.data(), "{case}: wrong output");
        let untouched = before.iter().chain(after).all(|x| *x == sentinel);
        assert!(untouched, "{case}: wrote outside its slice");
        regime
    }

    #[test]
    fn forced_streaming_matches_the_reference_at_every_phase_and_isa() {
        // The AVX-512F kernel where the host has it, and the fallback
        // a host without it takes.
        let isas: &[bool] = if simd::avx512() {
            &[true, false]
        } else {
            &[false]
        };
        let case = |extents: &[usize], perm: &[usize], tile, threads| Case {
            extents: extents.to_vec(),
            perm: perm.to_vec(),
            tile,
            threads,
        };
        // A few fixed cases that take each path, then seeded random ones.
        let mut cases = vec![
            case(&[24, 16], &[1, 0], 8, 1),
            case(&[40, 48], &[1, 0], 12, 2),
            case(&[16, 8, 8, 8], &[2, 0, 3, 1], 32, 2),
            case(&[2, 2, 2, 2, 3, 8], &[5, 4, 3, 2, 1, 0], 32, 1),
            case(&[4, 16, 24], &[0, 2, 1], 32, 2),
            case(&[32, 8, 8], &[0, 2, 1], 32, 1),
        ];
        let mut rng = StdRng::seed_from_u64(0x5EED_57E4);
        while cases.len() < 100 {
            let rank = rng.gen_range(2..7usize);
            let extents: Vec<usize> = (0..rank)
                .map(|_| [1, 2, 3, 5, 8, 8, 16, 24][rng.gen_range(0..8usize)])
                .collect();
            if extents.iter().product::<usize>() > 6144 {
                continue;
            }
            let mut perm: Vec<usize> = (0..rank).collect();
            rng.shuffle(&mut perm);
            let tile = [4, 8, 12, 16, 32][rng.gen_range(0..5usize)];
            cases.push(case(&extents, &perm, tile, rng.gen_range(1..3usize)));
        }
        let mut seen = Vec::new();
        for c in &cases {
            if CpuPlan::new(&c.extents, &c.perm, c.tile, 1).kind != PlanKind::Tiled {
                continue;
            }
            for &avx512 in isas {
                for phase in 0..MICRO {
                    seen.extend([
                        check_streamed::<f64>(c, avx512, phase),
                        check_streamed::<u64>(c, avx512, phase),
                        check_streamed::<f32>(c, avx512, phase),
                        check_streamed::<u32>(c, avx512, phase),
                    ]);
                }
            }
        }
        // Every regime this host can take ran: the scalar kernel at
        // every grid shift (AVX-512F hosts), the run copy (x86-64), and
        // the cached fallback.
        if simd::avx512() {
            for shift in 0..MICRO {
                let regime = Regime::StreamScalar { shift };
                assert!(seen.contains(&regime), "no case ran {regime:?}");
            }
        }
        if cfg!(target_arch = "x86_64") {
            assert!(seen.contains(&Regime::StreamRuns), "no streamed run plane");
        }
        assert!(seen.contains(&Regime::Cached), "no cached fallback");
    }

    #[test]
    fn parallel_path_matches_sequential() {
        // Big enough to cross PARALLEL_MIN_VOLUME so real workers spawn.
        let extents = [64, 48, 16];
        let perm = [2, 0, 1];
        let shape = Shape::new(&extents).unwrap();
        let p = Permutation::new(&perm).unwrap();
        let input: DenseTensor<u64> = DenseTensor::iota(shape.clone());
        let plan = CpuPlan::new(&extents, &perm, 32, 4);
        let out_shape = p.apply_to_shape(&shape).unwrap();
        let mut seq = DenseTensor::<u64>::zeros(out_shape.clone());
        let mut par = DenseTensor::<u64>::zeros(out_shape);
        execute_threads(&plan, input.data(), seq.data_mut(), 1);
        execute_threads(&plan, input.data(), par.data_mut(), 4);
        assert_eq!(first_mismatch(&seq, &par), None);
    }

    #[test]
    fn identity_large_uses_copy_path() {
        let extents = [128, 32, 16];
        check::<f64>(&extents, &[0, 1, 2], pick_tile(8), 4);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn rejects_wrong_input_length() {
        let plan = CpuPlan::new(&[4, 4], &[1, 0], 32, 1);
        let src = vec![0.0f64; 15];
        let mut dst = vec![0.0f64; 16];
        execute(&plan, &src, &mut dst);
    }
}
