//! Shared-memory bank-conflict model.
//!
//! Shared memory is divided into 32 banks of 4-byte words; successive words
//! map to successive banks. A warp access in which `d` lanes hit *different
//! words in the same bank* is serialized `d`-fold ("conflict degree `d`").
//! Lanes reading the *same* word broadcast with no penalty. The 32x33
//! padded buffer of the paper exists precisely to keep the write-out column
//! accesses conflict-free; this model lets tests demonstrate that.

use crate::kernel::IoMode;
use crate::{SMEM_BANKS, SMEM_WORD_BYTES};

/// Conflict degree of a warp access given each active lane's shared-memory
/// *byte* address, under a configurable bank word size (Kepler exposes
/// `cudaSharedMemBankSizeEightByte`, which TTLG relies on for
/// conflict-free double-precision column accesses through the 32x33
/// buffer; `bank_word_bytes` is 4 or 8). The degree is the maximum, over
/// banks, of the number of distinct words accessed in that bank; degree 1
/// means conflict-free.
///
/// The lanes' words are sorted on the stack, so each distinct word is
/// counted once, against its bank.
///
/// # Panics
///
/// If more than 32 addresses are given: a warp has 32 lanes.
pub fn conflict_degree_with_banks(byte_addrs: &[usize], bank_word_bytes: usize) -> u64 {
    assert!(
        byte_addrs.len() <= 32,
        "a warp access has at most 32 lanes, got {}",
        byte_addrs.len()
    );
    let mut words = [0usize; 32];
    let words = &mut words[..byte_addrs.len()];
    for (w, &a) in words.iter_mut().zip(byte_addrs) {
        *w = a / bank_word_bytes;
    }
    words.sort_unstable();
    let mut per_bank = [0u8; SMEM_BANKS];
    let mut degree = 0;
    let mut prev = None;
    for &w in words.iter() {
        if prev != Some(w) {
            let n = &mut per_bank[w % SMEM_BANKS];
            *n += 1;
            degree = degree.max(*n);
            prev = Some(w);
        }
    }
    u64::from(degree)
}

/// Conflict degree for a strided warp access over *element* indices into a
/// shared buffer: lane `l` touches element `start + l * stride`, each
/// element `elem_bytes` wide. The bank word size follows the element size
/// (8-byte bank mode for doubles, 4-byte otherwise), matching how TTLG
/// configures the hardware.
///
/// When the bank word is the element (4- and 8-byte elements), the degree
/// has a closed form. Lane `l` touches word `start + l * stride`, in bank
/// `(start + l * stride) mod 32`. Stride 0 is a broadcast: one word,
/// degree 1. Otherwise every lane touches its own word, and lanes `l` and
/// `l'` share a bank exactly when `(l - l') * stride ≡ 0 (mod 32)`, that
/// is when `l ≡ l' (mod p)` for the period `p = 32 / gcd(stride mod 32,
/// 32)`. The busiest bank then holds `ceil(lanes / p)` lanes, whatever
/// `start` is. Other widths go through the lane-set count.
///
/// # Panics
///
/// If `lanes` exceeds 32.
pub fn conflict_degree_strided(
    start_elem: usize,
    lanes: usize,
    stride_elems: usize,
    elem_bytes: usize,
) -> u64 {
    assert!(
        lanes <= 32,
        "a warp access has at most 32 lanes, got {lanes}"
    );
    if lanes == 0 {
        return 0;
    }
    if bank_word_for_elem(elem_bytes) != elem_bytes {
        return strided_lane_set(start_elem, lanes, stride_elems, elem_bytes);
    }
    if stride_elems == 0 {
        return 1;
    }
    let period = SMEM_BANKS / gcd(stride_elems % SMEM_BANKS, SMEM_BANKS);
    lanes.div_ceil(period) as u64
}

/// [`conflict_degree_strided`] by listing each lane's address.
fn strided_lane_set(
    start_elem: usize,
    lanes: usize,
    stride_elems: usize,
    elem_bytes: usize,
) -> u64 {
    let mut addrs = [0usize; 32];
    for (l, slot) in addrs[..lanes].iter_mut().enumerate() {
        *slot = (start_elem + l * stride_elems) * elem_bytes;
    }
    conflict_degree_with_banks(&addrs[..lanes], bank_word_for_elem(elem_bytes))
}

/// Greatest common divisor (`gcd(0, b) = b`).
fn gcd(mut a: usize, mut b: usize) -> usize {
    while a != 0 {
        (a, b) = (b % a, a);
    }
    b
}

/// Bank word size used for an element width: 8-byte banks for 8-byte
/// elements, 4-byte banks otherwise.
#[inline]
pub fn bank_word_for_elem(elem_bytes: usize) -> usize {
    if elem_bytes >= 8 {
        8
    } else {
        SMEM_WORD_BYTES
    }
}

/// A simulated shared-memory buffer for one thread block: flat storage of
/// `E` plus the conflict accounting hooks. Kernels index it in *elements*.
#[derive(Debug)]
pub struct SmemSim<E> {
    data: Vec<E>,
}

impl<E: ttlg_tensor::Element> SmemSim<E> {
    /// Allocate a buffer of `elems` elements (the executor checks the byte
    /// footprint against the device's per-SM capacity at launch).
    pub fn new(elems: usize) -> Self {
        SmemSim {
            data: vec![E::zero(); elems],
        }
    }

    /// The buffer for one block run in `mode`: `elems` elements when the
    /// block moves data, none in `Analyze` mode, where kernels skip their
    /// element loops and only count accesses (so a stray element access
    /// panics instead of costing a zero-filled buffer per block).
    pub fn for_block(mode: IoMode, elems: usize) -> Self {
        Self::new(if mode == IoMode::Execute { elems } else { 0 })
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `i`.
    #[inline]
    pub fn read(&self, i: usize) -> E {
        self.data[i]
    }

    /// Write element `i`.
    #[inline]
    pub fn write(&mut self, i: usize, v: E) {
        self.data[i] = v;
    }

    /// Reset contents to zero (reused across phases within a block).
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|e| *e = E::zero());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_access_is_conflict_free() {
        // 32 consecutive 4-byte words: each lane its own bank.
        let addrs: Vec<usize> = (0..32).map(|l| l * 4).collect();
        assert_eq!(conflict_degree_with_banks(&addrs, SMEM_WORD_BYTES), 1);
    }

    #[test]
    fn unpadded_column_access_is_32_way_conflict() {
        // Column of a 32x32 float buffer: lane l touches word l*32 -> all
        // in bank 0. This is the paper's "severe slowdown" case.
        assert_eq!(conflict_degree_strided(0, 32, 32, 4), 32);
    }

    #[test]
    fn padded_column_access_is_conflict_free() {
        // Column of a 32x33 float buffer: lane l touches word l*33 ->
        // staggered over all banks. The padding trick.
        assert_eq!(conflict_degree_strided(0, 32, 33, 4), 1);
    }

    #[test]
    fn broadcast_is_free() {
        let addrs = vec![64usize; 32];
        assert_eq!(conflict_degree_with_banks(&addrs, SMEM_WORD_BYTES), 1);
    }

    #[test]
    fn partial_warp() {
        assert_eq!(conflict_degree_strided(0, 16, 32, 4), 16);
        assert_eq!(conflict_degree_strided(5, 1, 32, 4), 1);
        assert_eq!(conflict_degree_strided(0, 0, 32, 4), 0);
    }

    #[test]
    fn two_way_conflict() {
        // stride 16 words: lanes 0 and 16 share bank 0 on different words...
        // lane l -> word 16l, bank (16l) % 32: degree 2.
        assert_eq!(conflict_degree_strided(0, 32, 16, 4), 16);
        // stride 2 words: lanes l and l+16 share a bank -> degree 2.
        assert_eq!(conflict_degree_strided(0, 32, 2, 4), 2);
    }

    #[test]
    fn fvi_match_small_padding_example() {
        // Paper Fig. 4: N0 = 8 pencils; pad chosen so "element 0 in row 1
        // of the 2D view maps to memory bank N0": row length must be
        // congruent to N0 mod 32. With b = 4, N0 = 8: bN0 + pad = 40 words
        // (pad = 8). Write-out gathers lane l -> word (l % 8) + (l / 8)*40,
        // so row r covers banks 8r..8r+7 — disjoint, conflict-free.
        let addrs: Vec<usize> = (0..32).map(|l| ((l % 8) + (l / 8) * 40) * 4).collect();
        assert_eq!(conflict_degree_with_banks(&addrs, SMEM_WORD_BYTES), 1);
        // Without padding (row length 32), degree is 4 (4 rows collide).
        let bad: Vec<usize> = (0..32).map(|l| ((l % 8) + (l / 8) * 32) * 4).collect();
        assert_eq!(conflict_degree_with_banks(&bad, SMEM_WORD_BYTES), 4);
    }

    #[test]
    fn padded_column_access_is_conflict_free_for_doubles() {
        // 32x33 doubles, column access, 8-byte bank mode: stride 33
        // elements -> bank l*33 % 32 = l: conflict-free.
        assert_eq!(conflict_degree_strided(0, 32, 33, 8), 1);
        // unpadded doubles column: all one bank.
        assert_eq!(conflict_degree_strided(0, 32, 32, 8), 32);
    }

    #[test]
    fn bank_word_selection() {
        assert_eq!(bank_word_for_elem(4), 4);
        assert_eq!(bank_word_for_elem(8), 8);
    }

    /// Independent reference: the distinct `(bank, word)` pairs in a
    /// `BTreeSet`, then the busiest bank.
    fn reference_degree(byte_addrs: &[usize], bank_word_bytes: usize) -> u64 {
        let pairs: std::collections::BTreeSet<(usize, usize)> = byte_addrs
            .iter()
            .map(|&a| {
                let word = a / bank_word_bytes;
                (word % SMEM_BANKS, word)
            })
            .collect();
        let mut per_bank = [0u64; SMEM_BANKS];
        for &(bank, _) in &pairs {
            per_bank[bank] += 1;
        }
        per_bank.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn closed_form_strided_matches_lane_set() {
        for elem_bytes in [4usize, 8] {
            for start in 0..64 {
                for stride in 0..=96 {
                    for lanes in 0..=32 {
                        let addrs: Vec<usize> = (0..lanes)
                            .map(|l| (start + l * stride) * elem_bytes)
                            .collect();
                        let lane_set = strided_lane_set(start, lanes, stride, elem_bytes);
                        assert_eq!(
                            conflict_degree_strided(start, lanes, stride, elem_bytes),
                            lane_set,
                            "start {start} stride {stride} lanes {lanes} elem {elem_bytes}"
                        );
                        assert_eq!(lane_set, reference_degree(&addrs, elem_bytes));
                    }
                }
            }
        }
    }

    #[test]
    fn other_widths_take_the_lane_set() {
        // 2-byte elements in 4-byte banks: lanes 2k and 2k+1 share a word.
        assert_eq!(conflict_degree_strided(0, 32, 1, 2), 1);
        // 16-byte elements in 8-byte banks: each element spans two banks.
        assert_eq!(conflict_degree_strided(0, 32, 1, 16), 2);
        for (start, lanes, stride, eb) in [(3, 32, 5, 1), (7, 17, 12, 2), (1, 32, 3, 16)] {
            let addrs: Vec<usize> = (0..lanes).map(|l| (start + l * stride) * eb).collect();
            assert_eq!(
                conflict_degree_strided(start, lanes, stride, eb),
                reference_degree(&addrs, bank_word_for_elem(eb))
            );
        }
    }

    #[test]
    fn sorted_count_matches_reference() {
        let mut rng = ttlg_tensor::rng::StdRng::seed_from_u64(0x5EED_BA4C);
        for case in 0..20_000 {
            let bank_word = if case % 2 == 0 { 4 } else { 8 };
            let lanes = if case % 5 == 0 {
                32
            } else {
                rng.gen_range(0usize..=32)
            };
            // A small word pool forces repeated words (broadcast) and
            // many distinct words per bank; a wide one spreads them.
            let pool = if case % 3 == 0 { 8 } else { 4096 };
            let addrs: Vec<usize> = (0..lanes)
                .map(|_| rng.gen_range(0usize..pool) * bank_word + rng.gen_range(0..bank_word))
                .collect();
            assert_eq!(
                conflict_degree_with_banks(&addrs, bank_word),
                reference_degree(&addrs, bank_word),
                "addrs {addrs:?} bank word {bank_word}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at most 32 lanes")]
    fn lane_list_longer_than_a_warp_panics() {
        let addrs: Vec<usize> = (0..33).map(|l| l * 4).collect();
        conflict_degree_with_banks(&addrs, SMEM_WORD_BYTES);
    }

    #[test]
    #[should_panic(expected = "at most 32 lanes")]
    fn strided_access_wider_than_a_warp_panics() {
        conflict_degree_strided(0, 33, 1, 4);
    }

    #[test]
    fn smem_sim_read_write_clear() {
        let mut s: SmemSim<u32> = SmemSim::new(16);
        assert_eq!(s.len(), 16);
        assert!(!s.is_empty());
        s.write(3, 77);
        assert_eq!(s.read(3), 77);
        s.clear();
        assert_eq!(s.read(3), 0);
    }
}
