//! The kernel abstraction: a block-structured program plus the accounting
//! hooks it uses to report its warp-level memory behaviour.
//!
//! A kernel implements [`BlockKernel`]: a launch geometry and a
//! `run_block` body. The body does two things at once:
//!
//! 1. moves real elements through [`BlockIo`] (input tensor -> shared
//!    memory simulation -> output tensor) so correctness is testable, and
//! 2. reports each warp-wide memory access to [`Accounting`], which feeds
//!    the coalescing/bank models and ultimately the timing model.
//!
//! In `Analyze` mode the executor runs only representative blocks, and
//! kernels skip their per-element load/store loops when
//! [`BlockIo::mode`] is [`IoMode::Analyze`] (the accounting calls stay),
//! so the same kernel code doubles as a fast analytical model of itself.
//! In the data-only run ([`crate::Executor::copy`]) the executor hands
//! every block an `Accounting` with recording switched off, so the same
//! code moves data without paying for the coalescing and bank models.

use crate::coalesce;
use crate::smem;
use crate::stats::TransactionStats;
use ttlg_tensor::Element;

/// Launch geometry for a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    /// Number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block (a multiple of the warp size in practice).
    pub threads_per_block: usize,
    /// Shared memory footprint per block, in bytes.
    pub smem_bytes_per_block: usize,
}

impl Launch {
    /// Warps per block (rounded up).
    pub fn warps_per_block(&self, warp_size: usize) -> usize {
        self.threads_per_block.div_ceil(warp_size)
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> usize {
        self.grid_blocks * self.threads_per_block
    }
}

/// Execution mode chosen by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// Move real data (whether transactions are counted is up to the
    /// block's [`Accounting`]).
    Execute,
    /// Count transactions only. Kernels skip their element loops; a load
    /// that still happens returns zero and a store is discarded.
    Analyze,
}

/// Accounting sink passed to `run_block`. All counters are per-block and
/// merged by the executor.
#[derive(Debug)]
pub struct Accounting {
    /// Accumulated counters for this block.
    pub stats: TransactionStats,
    /// Whether accesses are recorded. Only the executor's data-only run
    /// turns it off; every accounting a kernel can build records.
    record: bool,
}

impl Accounting {
    /// Fresh accounting for one block.
    pub fn new() -> Self {
        Self::recording(true)
    }

    /// Fresh accounting that records accesses only when `record` is set;
    /// with it off every method returns at once and `stats` stays zero.
    pub(crate) fn recording(record: bool) -> Self {
        Accounting {
            stats: TransactionStats::default(),
            record,
        }
    }

    /// A warp loads `lanes` consecutive elements from global memory
    /// starting at element offset `start_elem`.
    #[inline]
    pub fn global_load_contiguous(&mut self, start_elem: usize, lanes: usize, elem_bytes: usize) {
        if !self.record {
            return;
        }
        self.stats.dram_load_tx +=
            coalesce::transactions_for_contiguous(start_elem * elem_bytes, lanes, elem_bytes);
    }

    /// A warp stores `lanes` consecutive elements to global memory.
    #[inline]
    pub fn global_store_contiguous(&mut self, start_elem: usize, lanes: usize, elem_bytes: usize) {
        if !self.record {
            return;
        }
        self.stats.dram_store_tx +=
            coalesce::transactions_for_contiguous(start_elem * elem_bytes, lanes, elem_bytes);
    }

    /// A warp loads with constant element stride from global memory.
    #[inline]
    pub fn global_load_strided(
        &mut self,
        start_elem: usize,
        lanes: usize,
        stride_elems: usize,
        elem_bytes: usize,
    ) {
        if !self.record {
            return;
        }
        self.stats.dram_load_tx += coalesce::transactions_for_strided(
            start_elem * elem_bytes,
            lanes,
            stride_elems * elem_bytes,
            elem_bytes,
        );
    }

    /// A warp stores with constant element stride to global memory.
    #[inline]
    pub fn global_store_strided(
        &mut self,
        start_elem: usize,
        lanes: usize,
        stride_elems: usize,
        elem_bytes: usize,
    ) {
        if !self.record {
            return;
        }
        self.stats.dram_store_tx += coalesce::transactions_for_strided(
            start_elem * elem_bytes,
            lanes,
            stride_elems * elem_bytes,
            elem_bytes,
        );
    }

    /// A warp access with arbitrary per-lane element offsets (used by the
    /// indirection-array kernels); `load` selects load vs store.
    ///
    /// # Panics
    ///
    /// If more than 32 lanes are given.
    pub fn global_access_lanes(&mut self, elem_offsets: &[usize], elem_bytes: usize, load: bool) {
        if !self.record {
            return;
        }
        let n = elem_offsets.len();
        assert!(n <= 32, "a warp access has at most 32 lanes, got {n}");
        // Each lane's first and last byte, so wide elements straddling a
        // segment count both segments.
        let mut bytes = [0usize; 64];
        for (pair, &e) in bytes.chunks_exact_mut(2).zip(elem_offsets) {
            pair[0] = e * elem_bytes;
            pair[1] = pair[0] + elem_bytes - 1;
        }
        let tx = coalesce::transactions_for_lanes(&bytes[..n * 2]);
        if load {
            self.stats.dram_load_tx += tx;
        } else {
            self.stats.dram_store_tx += tx;
        }
    }

    /// A warp-wide shared-memory access with constant element stride;
    /// records the base access plus any conflict replays.
    #[inline]
    pub fn smem_access_strided(
        &mut self,
        start_elem: usize,
        lanes: usize,
        stride_elems: usize,
        elem_bytes: usize,
        load: bool,
    ) {
        if !self.record || lanes == 0 {
            return;
        }
        let degree = smem::conflict_degree_strided(start_elem, lanes, stride_elems, elem_bytes);
        if load {
            self.stats.smem_load_acc += 1;
        } else {
            self.stats.smem_store_acc += 1;
        }
        self.stats.smem_conflict_replays += degree.saturating_sub(1);
    }

    /// A warp-wide shared-memory access with arbitrary per-lane element
    /// offsets.
    ///
    /// # Panics
    ///
    /// If more than 32 lanes are given.
    pub fn smem_access_lanes(&mut self, elem_offsets: &[usize], elem_bytes: usize, load: bool) {
        if !self.record || elem_offsets.is_empty() {
            return;
        }
        let n = elem_offsets.len();
        assert!(n <= 32, "a warp access has at most 32 lanes, got {n}");
        let mut addrs = [0usize; 32];
        for (slot, &e) in addrs.iter_mut().zip(elem_offsets) {
            *slot = e * elem_bytes;
        }
        let degree =
            smem::conflict_degree_with_banks(&addrs[..n], smem::bank_word_for_elem(elem_bytes));
        if load {
            self.stats.smem_load_acc += 1;
        } else {
            self.stats.smem_store_acc += 1;
        }
        self.stats.smem_conflict_replays += degree.saturating_sub(1);
    }

    /// A warp reads `lanes` consecutive 4-byte entries of an offset array
    /// bound to texture memory.
    #[inline]
    pub fn tex_load_contiguous(&mut self, start_idx: usize, lanes: usize) {
        if !self.record {
            return;
        }
        self.stats.tex_load_tx += coalesce::transactions_for_contiguous(start_idx * 4, lanes, 4);
    }

    /// `n` special (mod/div) instructions executed (thread-level count).
    #[inline]
    pub fn special_instr(&mut self, n: u64) {
        if !self.record {
            return;
        }
        self.stats.special_instr += n;
    }

    /// `n` ordinary index/address instructions (thread-level count).
    #[inline]
    pub fn index_instr(&mut self, n: u64) {
        if !self.record {
            return;
        }
        self.stats.index_instr += n;
    }

    /// One `__syncthreads()` barrier.
    #[inline]
    pub fn barrier(&mut self) {
        if !self.record {
            return;
        }
        self.stats.barriers += 1;
    }

    /// `n` elements moved input->output (bookkeeping/sanity).
    #[inline]
    pub fn elements(&mut self, n: u64) {
        if !self.record {
            return;
        }
        self.stats.elements_moved += n;
    }
}

impl Default for Accounting {
    fn default() -> Self {
        Self::new()
    }
}

/// Shared, write-disjoint output buffer. Blocks of a transposition kernel
/// write disjoint element sets, which the executor can optionally verify.
pub struct SharedOutput<'a, E> {
    ptr: *mut E,
    len: usize,
    /// Optional double-write detector (test/debug aid).
    tracker: Option<&'a [std::sync::atomic::AtomicU8]>,
}

// SAFETY: all mutation goes through `write`, and the kernel contract is
// that distinct blocks write distinct offsets; the optional tracker turns
// violations into panics in tests.
unsafe impl<E: Send> Sync for SharedOutput<'_, E> {}
unsafe impl<E: Send> Send for SharedOutput<'_, E> {}

impl<'a, E: Element> SharedOutput<'a, E> {
    /// Wrap a mutable slice for disjoint parallel writes.
    pub fn new(out: &'a mut [E], tracker: Option<&'a [std::sync::atomic::AtomicU8]>) -> Self {
        if let Some(t) = tracker {
            assert_eq!(t.len(), out.len());
        }
        SharedOutput {
            ptr: out.as_mut_ptr(),
            len: out.len(),
            tracker,
        }
    }

    /// Write one element. Panics on out-of-bounds, and on double writes
    /// when tracking is enabled.
    #[inline]
    pub fn write(&self, off: usize, v: E) {
        assert!(
            off < self.len,
            "output write out of bounds: {off} >= {}",
            self.len
        );
        if let Some(t) = self.tracker {
            let prev = t[off].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            assert_eq!(prev, 0, "output element {off} written more than once");
        }
        // SAFETY: bounds checked above; disjointness is the kernel contract
        // (verified by the tracker when enabled).
        unsafe { self.ptr.add(off).write(v) };
    }

    /// Buffer length in elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Per-block I/O handle: the input tensor, the shared output, and the mode.
pub struct BlockIo<'a, E: Element> {
    /// Read-only input tensor storage (linearized).
    input: &'a [E],
    output: &'a SharedOutput<'a, E>,
    mode: IoMode,
}

impl<'a, E: Element> BlockIo<'a, E> {
    /// Build the I/O handle for one block.
    pub fn new(input: &'a [E], output: &'a SharedOutput<'a, E>, mode: IoMode) -> Self {
        BlockIo {
            input,
            output,
            mode,
        }
    }

    /// The execution mode.
    #[inline]
    pub fn mode(&self) -> IoMode {
        self.mode
    }

    /// Load one element from the input tensor (zero in `Analyze` mode).
    #[inline]
    pub fn load(&self, off: usize) -> E {
        match self.mode {
            IoMode::Execute => self.input[off],
            IoMode::Analyze => E::zero(),
        }
    }

    /// Store one element to the output tensor (discarded in `Analyze`).
    #[inline]
    pub fn store(&self, off: usize, v: E) {
        if self.mode == IoMode::Execute {
            self.output.write(off, v);
        }
    }

    /// Input length in elements.
    #[inline]
    pub fn input_len(&self) -> usize {
        self.input.len()
    }

    /// Output length in elements.
    #[inline]
    pub fn output_len(&self) -> usize {
        self.output.len()
    }
}

/// A block-structured GPU kernel.
pub trait BlockKernel<E: Element>: Sync {
    /// Kernel name for reports (e.g. `"OrthogonalDistinct"`).
    fn name(&self) -> &str;

    /// Launch geometry.
    fn launch(&self) -> Launch;

    /// Run one block: move data through `io` and report accesses to `acct`.
    fn run_block(&self, block: usize, io: &BlockIo<'_, E>, acct: &mut Accounting);

    /// Equivalence class of a block for sampled analysis: blocks in the
    /// same class must have identical transaction statistics. This
    /// contract decides every statistic a plan reports, because serving
    /// reports the plan's cached analysis rather than counting the
    /// data-only run; a kernel that cannot class its blocks exactly must
    /// give each block its own class. The default (one class) is only
    /// correct for kernels with fully uniform blocks.
    fn block_class(&self, _block: usize) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU8;

    #[test]
    fn launch_math() {
        let l = Launch {
            grid_blocks: 10,
            threads_per_block: 96,
            smem_bytes_per_block: 0,
        };
        assert_eq!(l.warps_per_block(32), 3);
        assert_eq!(l.total_threads(), 960);
    }

    #[test]
    fn accounting_contiguous_access() {
        let mut a = Accounting::new();
        a.global_load_contiguous(0, 32, 4);
        a.global_store_contiguous(0, 32, 8);
        assert_eq!(a.stats.dram_load_tx, 1);
        assert_eq!(a.stats.dram_store_tx, 2);
    }

    #[test]
    fn accounting_smem_conflicts() {
        let mut a = Accounting::new();
        a.smem_access_strided(0, 32, 33, 4, true); // padded column
        assert_eq!(a.stats.smem_load_acc, 1);
        assert_eq!(a.stats.smem_conflict_replays, 0);
        a.smem_access_strided(0, 32, 32, 4, false); // unpadded column
        assert_eq!(a.stats.smem_store_acc, 1);
        assert_eq!(a.stats.smem_conflict_replays, 31);
    }

    #[test]
    fn accounting_lane_access() {
        let mut a = Accounting::new();
        a.global_access_lanes(&[0, 1, 2, 3], 8, true);
        assert_eq!(a.stats.dram_load_tx, 1);
        a.global_access_lanes(&[0, 100, 200], 8, false);
        assert!(a.stats.dram_store_tx >= 2);
    }

    #[test]
    #[should_panic(expected = "at most 32 lanes, got 33")]
    fn global_lane_access_wider_than_a_warp_panics() {
        let offsets: Vec<usize> = (0..33).collect();
        Accounting::new().global_access_lanes(&offsets, 4, true);
    }

    #[test]
    #[should_panic(expected = "at most 32 lanes, got 33")]
    fn smem_lane_access_wider_than_a_warp_panics() {
        let offsets: Vec<usize> = (0..33).collect();
        Accounting::new().smem_access_lanes(&offsets, 4, true);
    }

    #[test]
    fn accounting_with_recording_off_stays_zero() {
        let mut a = Accounting::recording(false);
        a.global_load_contiguous(0, 32, 4);
        a.global_access_lanes(&[0, 100, 200], 8, false);
        a.smem_access_strided(0, 32, 32, 4, true);
        a.tex_load_contiguous(0, 32);
        a.special_instr(5);
        a.barrier();
        a.elements(32);
        assert_eq!(a.stats, TransactionStats::default());
    }

    #[test]
    fn shared_output_tracks_double_writes() {
        let mut buf = vec![0u32; 8];
        let tracker: Vec<AtomicU8> = (0..8).map(|_| AtomicU8::new(0)).collect();
        let out = SharedOutput::new(&mut buf, Some(&tracker));
        out.write(3, 7);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| out.write(3, 8)));
        assert!(res.is_err(), "double write must panic under tracking");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shared_output_bounds_checked() {
        let mut buf = vec![0u32; 4];
        let out = SharedOutput::new(&mut buf, None);
        out.write(4, 1);
    }

    #[test]
    fn block_io_modes() {
        let input = vec![5u32, 6, 7];
        let mut outbuf = vec![0u32; 3];
        {
            let out = SharedOutput::new(&mut outbuf, None);
            let io = BlockIo::new(&input, &out, IoMode::Execute);
            assert_eq!(io.load(1), 6);
            io.store(2, 9);
            let io2 = BlockIo::new(&input, &out, IoMode::Analyze);
            assert_eq!(io2.load(1), 0);
            io2.store(0, 99); // discarded
        }
        assert_eq!(outbuf, vec![0, 0, 9]);
    }

    #[test]
    fn tex_load_counts_like_global() {
        let mut a = Accounting::new();
        a.tex_load_contiguous(0, 32); // 32 ints = 128B = 1 tx
        assert_eq!(a.stats.tex_load_tx, 1);
    }
}
