//! # ttlg-cpu
//!
//! A real (wall-clock) CPU transposition backend, in the style of HPTT
//! (Springer et al., see PAPERS.md): blocked, cache-tiled loops with an
//! explicit square macro-kernel for the transposed-2D base case, and
//! multithreading over outer tile blocks with per-thread disjoint output
//! ranges.
//!
//! Unlike every other executor in this workspace, nothing here is
//! simulated — [`execute`] moves host bytes and its cost is the time it
//! takes. The planner (`ttlg::Transposer` with `Backend::Cpu`) builds a
//! [`CpuPlan`] once per problem and replays it per request.
//!
//! ## Plan shape
//!
//! Planning normalizes the permutation before any loop runs
//! ([`CpuPlan::new`]):
//!
//! 1. **Drop** extent-1 dimensions (they contribute nothing to layout).
//! 2. **Fuse** input dimensions that stay consecutive in the output into
//!    one wider dimension (dense strides make every such pair contiguous
//!    on both sides).
//! 3. **Peel** the leading fused dimension when it is fixed by the
//!    permutation (`perm[0] == 0`) into a contiguous *run* of `R`
//!    elements — the unit every inner loop moves whole.
//!
//! What remains is either the identity (a parallel block copy) or a
//! reduced permutation with `perm[0] != 0`, executed as a 2D tiling over
//! the plane spanned by the fastest-varying **input** dimension and the
//! fastest-varying **output** dimension — exactly the two axes the
//! paper's schemas fight to keep innermost — with all other dimensions
//! walked by an odometer around the tiles. Tiles are sized so the
//! working set (`2 * tile_a * tile_b * R * elem_bytes`) stays inside L1;
//! the default edge of 32 keeps an 8-byte-element tile at 16 KiB.
//!
//! ## Two regimes
//!
//! In-cache and out-of-cache transposes want opposite things, so each
//! call of a tiled plan picks one of two regimes by a property of the
//! call, never by an option:
//!
//! - **Cached**, for calls that move at most 32 MiB (input plus
//!   output): tiles are visited `b`-fastest for output locality and
//!   every store is an ordinary one.
//! - **Streaming**, for larger calls on x86-64: the output is written
//!   with non-temporal stores of whole cache lines, which skip the
//!   read-for-ownership (TTLG's coalesced global writes, on a CPU), and
//!   tiles are visited in input-memory order to suit the reads. Scalar
//!   planes of 8-byte elements shift the tile grid so every full 8x8
//!   micro-tile row is one aligned line, transpose it in AVX-512F
//!   registers, and stream it; run planes copy each run with 16-byte
//!   streamed stores.
//!
//! Calls the streaming regime cannot take (4-byte scalar planes,
//! misaligned rows or runs, scalar planes on hosts without AVX-512F,
//! other targets) run the cached regime at any size. AVX-512F is
//! detected at run time and the 32 MiB threshold is a constant, set
//! where the cached regime's bandwidth falls off on the measured host;
//! neither is a plan field. Every raw-pointer access goes through one
//! shim that checks bounds and streamed-store alignment in debug
//! builds.

mod exec;
mod plan;
mod raw;
mod simd;

pub use exec::{execute, execute_threads};
pub use plan::{pick_tile, CpuPlan, PlanKind, DEFAULT_TILE};
