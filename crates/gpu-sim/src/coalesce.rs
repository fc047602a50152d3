//! Global-memory coalescing analysis.
//!
//! A warp-wide global access touches some set of byte addresses (one per
//! active lane). The memory system services the access with one 128-byte
//! transaction per distinct 128-byte-aligned segment touched — this is the
//! accounting unit of the paper's Sec. IV-C analysis.

use crate::TRANSACTION_BYTES;

/// Transactions needed for an arbitrary warp access given the byte
/// addresses it touches: the number of distinct 128-byte segments among
/// them. Callers pass one address per lane, or two (an element's first and
/// last byte) when elements may straddle a segment, so at most 64. The
/// segments are sorted on the stack and the distinct ones counted.
///
/// # Panics
///
/// If more than 64 addresses are given (two for each of 32 lanes).
pub fn transactions_for_lanes(byte_addrs: &[usize]) -> u64 {
    assert!(
        byte_addrs.len() <= 64,
        "a warp access touches at most 64 byte addresses (two per lane), got {}",
        byte_addrs.len()
    );
    if byte_addrs.is_empty() {
        return 0;
    }
    let mut segs = [0usize; 64];
    let segs = &mut segs[..byte_addrs.len()];
    for (s, &a) in segs.iter_mut().zip(byte_addrs) {
        *s = a / TRANSACTION_BYTES;
    }
    segs.sort_unstable();
    1 + segs.windows(2).filter(|w| w[0] != w[1]).count() as u64
}

/// Transactions for a warp access where `lanes` consecutive lanes read
/// consecutive elements of `elem_bytes` each, starting at `start_byte`.
///
/// This is the common fast path: a contiguous run of `lanes * elem_bytes`
/// bytes spans `ceil` over the 128-byte segments it straddles.
#[inline]
pub fn transactions_for_contiguous(start_byte: usize, lanes: usize, elem_bytes: usize) -> u64 {
    if lanes == 0 {
        return 0;
    }
    let first = start_byte / TRANSACTION_BYTES;
    let last = (start_byte + lanes * elem_bytes - 1) / TRANSACTION_BYTES;
    (last - first + 1) as u64
}

/// Transactions for a strided warp access: lane `l` touches
/// `start_byte + l * stride_bytes`, for `lanes` active lanes, each element
/// `elem_bytes` wide.
pub fn transactions_for_strided(
    start_byte: usize,
    lanes: usize,
    stride_bytes: usize,
    elem_bytes: usize,
) -> u64 {
    if lanes == 0 {
        return 0;
    }
    if stride_bytes == elem_bytes {
        return transactions_for_contiguous(start_byte, lanes, elem_bytes);
    }
    let mut count = 0u64;
    let mut prev_first = usize::MAX;
    let mut prev_last = usize::MAX;
    for l in 0..lanes {
        let b = start_byte + l * stride_bytes;
        let first = b / TRANSACTION_BYTES;
        let last = (b + elem_bytes - 1) / TRANSACTION_BYTES;
        // Strided addresses are monotonically increasing, so only compare
        // against the previous lane's segments.
        if first != prev_first && first != prev_last {
            count += 1;
        }
        if last != first {
            count += 1;
        }
        prev_first = first;
        prev_last = last;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_coalesced_float_warp_is_one_transaction() {
        // 32 floats = 128 bytes starting at an aligned address.
        assert_eq!(transactions_for_contiguous(0, 32, 4), 1);
        assert_eq!(transactions_for_contiguous(256, 32, 4), 1);
    }

    #[test]
    fn fully_coalesced_double_warp_is_two_transactions() {
        // "two transactions in case of double" (Sec. IV).
        assert_eq!(transactions_for_contiguous(0, 32, 8), 2);
    }

    #[test]
    fn misaligned_contiguous_access_spills_a_transaction() {
        // 32 floats starting 4 bytes past a segment boundary touch 2 segments.
        assert_eq!(transactions_for_contiguous(4, 32, 4), 2);
    }

    #[test]
    fn strided_access_is_fully_uncoalesced_at_large_stride() {
        // Each lane in its own segment: 32 transactions.
        assert_eq!(transactions_for_strided(0, 32, 1024, 8), 32);
    }

    #[test]
    fn strided_small_stride_coalesces_partially() {
        // stride 32 B with 8-byte elements: 4 lanes per 128-byte segment.
        assert_eq!(transactions_for_strided(0, 32, 32, 8), 8);
    }

    #[test]
    fn strided_matches_generic_lane_analysis() {
        for &(stride, eb) in &[
            (8usize, 8usize),
            (16, 8),
            (24, 8),
            (128, 4),
            (260, 4),
            (4, 4),
        ] {
            for &start in &[0usize, 4, 100, 124] {
                for lanes in [1usize, 7, 31, 32] {
                    let addrs: Vec<usize> = (0..lanes).map(|l| start + l * stride).collect();
                    // Generic path counts distinct segments of the first
                    // byte only; expand to cover elem width.
                    let mut expanded = Vec::new();
                    for &a in &addrs {
                        expanded.push(a);
                        expanded.push(a + eb - 1);
                    }
                    assert_eq!(
                        transactions_for_strided(start, lanes, stride, eb),
                        transactions_for_lanes(&expanded),
                        "stride {stride} eb {eb} start {start} lanes {lanes}"
                    );
                }
            }
        }
    }

    #[test]
    fn lanes_dedup_and_empty() {
        assert_eq!(transactions_for_lanes(&[]), 0);
        assert_eq!(transactions_for_lanes(&[0, 4, 8, 12]), 1);
        assert_eq!(transactions_for_lanes(&[0, 128, 256]), 3);
        assert_eq!(transactions_for_lanes(&[0, 0, 0]), 1);
    }

    #[test]
    fn sorted_count_matches_reference() {
        let mut rng = ttlg_tensor::rng::StdRng::seed_from_u64(0xC0A1_E5CE);
        for case in 0..20_000 {
            let elem_bytes = if case % 2 == 0 { 4 } else { 8 };
            let lanes = if case % 5 == 0 {
                32
            } else {
                rng.gen_range(0usize..=32)
            };
            // Element offsets from a small pool repeat (several lanes in
            // one element); from a wide one they scatter. Odd offsets put
            // some 8-byte elements across a segment boundary.
            let pool = if case % 3 == 0 { 40 } else { 100_000 };
            let mut addrs = Vec::with_capacity(2 * lanes);
            for _ in 0..lanes {
                let first = rng.gen_range(0usize..pool) * 4;
                addrs.push(first);
                addrs.push(first + elem_bytes - 1);
            }
            let reference: std::collections::BTreeSet<usize> =
                addrs.iter().map(|a| a / TRANSACTION_BYTES).collect();
            assert_eq!(
                transactions_for_lanes(&addrs),
                reference.len() as u64,
                "addrs {addrs:?}"
            );
        }
        // An 8-byte element starting 4 bytes before a boundary spans two
        // segments; a full warp of repeats is one.
        assert_eq!(transactions_for_lanes(&[124, 131]), 2);
        assert_eq!(transactions_for_lanes(&[64; 64]), 1);
    }

    #[test]
    #[should_panic(expected = "at most 64 byte addresses")]
    fn more_than_two_addresses_per_lane_panics() {
        transactions_for_lanes(&[0; 65]);
    }

    #[test]
    fn zero_lanes() {
        assert_eq!(transactions_for_contiguous(0, 0, 8), 0);
        assert_eq!(transactions_for_strided(0, 0, 64, 8), 0);
    }

    #[test]
    fn paper_c2_formula_for_a_row() {
        // FVI-Match-Large: a row of size(i0) contiguous doubles needs
        // ceil(size(i0) * 8 / 128) transactions when aligned.
        for n0 in [16usize, 32, 48, 100] {
            let want = (n0 * 8).div_ceil(128) as u64;
            // sum over warps of the row
            let mut got = 0;
            let mut off = 0;
            while off < n0 {
                let lanes = (n0 - off).min(32);
                got += transactions_for_contiguous(off * 8, lanes, 8);
                off += lanes;
            }
            assert_eq!(got, want, "n0 = {n0}");
        }
    }
}
