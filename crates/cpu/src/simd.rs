//! The streaming regime's x86-64 kernels.
//!
//! The kernels move data only: an AVX-512F 8x8 register transpose of
//! 8-byte elements whose output rows leave as whole cache lines through
//! non-temporal stores ([`stream8x8`]), an SSE2 run copy through 16-byte
//! non-temporal stores ([`stream_run`]), and the store fence that ends
//! every block that used them ([`sfence`]). Whether the host can run the
//! 8x8 kernel is detected at run time ([`avx512`]).

use crate::raw::Raw;

/// Bytes in a cache line: one full output row of an 8x8 tile of 8-byte
/// elements.
pub(crate) const LINE: usize = 64;

/// Whether this host has AVX-512F, which [`stream8x8`] needs.
pub(crate) fn avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Transpose the 8x8 tile whose input row `i` is the 8 elements at
/// `src[s + i * sb..]` into output rows `dst[d + j * sa..]` (row `j`
/// holds input column `j`), storing each output row as one non-temporal
/// cache-line write.
///
/// # Safety
/// The host has AVX-512F ([`avx512`]). All sixteen rows lie inside
/// their slices, the output rows are this block's alone, and each
/// starts on a [`LINE`] boundary.
#[inline]
pub(crate) unsafe fn stream8x8(
    src: Raw<f64>,
    s: usize,
    sb: usize,
    dst: Raw<f64>,
    d: usize,
    sa: usize,
) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: forwarded from the caller.
    unsafe {
        x86::stream8x8(src, s, sb, dst, d, sa)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (src, s, sb, dst, d, sa);
        unreachable!("streaming kernels are x86-64 only");
    }
}

/// Copy the `n` elements at `src[s..]` to `dst[d..]` with 16-byte
/// non-temporal stores.
///
/// # Safety
/// Both ranges lie inside their slices, the output range is this
/// block's alone, `n` elements are a multiple of 16 bytes, and `dst[d]`
/// is 16-byte aligned.
#[inline]
pub(crate) unsafe fn stream_run<E>(src: Raw<E>, s: usize, dst: Raw<E>, d: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_stream_si128};
        let bytes = n * std::mem::size_of::<E>();
        // SAFETY: the caller keeps both ranges in bounds and `dst[d]`
        // 16-byte aligned; SSE2 is part of the x86-64 baseline.
        unsafe {
            let from = src.span(s, n).cast::<u8>();
            let to = dst.stream_span(d, n, 16).cast::<u8>();
            for k in (0..bytes).step_by(16) {
                let v = _mm_loadu_si128(from.add(k).cast::<__m128i>());
                _mm_stream_si128(to.add(k).cast::<__m128i>(), v);
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (src, s, dst, d, n);
        unreachable!("streaming kernels are x86-64 only");
    }
}

/// Order this thread's non-temporal stores before whatever it does
/// next: the contract of the streaming store intrinsics, kept by every
/// block that used them before it returns.
#[inline]
pub(crate) fn sfence() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE is part of the x86-64 baseline.
    unsafe {
        std::arch::x86_64::_mm_sfence()
    };
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::LINE;
    use crate::raw::Raw;
    use std::arch::x86_64::*;

    /// A `permutex2var` index vector, lane 0 first.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn lanes(i: [i64; 8]) -> __m512i {
        _mm512_set_epi64(i[7], i[6], i[5], i[4], i[3], i[2], i[1], i[0])
    }

    /// [`super::stream8x8`]: eight zmm rows, `unpack`, then two
    /// `permutex2var` stages.
    ///
    /// # Safety
    /// As for [`super::stream8x8`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn stream8x8(
        src: Raw<f64>,
        s: usize,
        sb: usize,
        dst: Raw<f64>,
        d: usize,
        sa: usize,
    ) {
        let mut r = [_mm512_setzero_pd(); 8];
        for (i, row) in r.iter_mut().enumerate() {
            // SAFETY: the caller keeps input row `i` in bounds.
            *row = unsafe { _mm512_loadu_pd(src.span(s + i * sb, 8)) };
        }
        // t[2k] pairs rows 2k and 2k+1 on even columns, t[2k+1] on odd.
        let mut t = [_mm512_setzero_pd(); 8];
        for k in 0..4 {
            t[2 * k] = _mm512_unpacklo_pd(r[2 * k], r[2 * k + 1]);
            t[2 * k + 1] = _mm512_unpackhi_pd(r[2 * k], r[2 * k + 1]);
        }
        // u[h + c] holds columns c and c + 4 of rows h..h + 4.
        let (lo2, hi2) = (
            lanes([0, 1, 8, 9, 4, 5, 12, 13]),
            lanes([2, 3, 10, 11, 6, 7, 14, 15]),
        );
        let mut u = [_mm512_setzero_pd(); 8];
        for h in [0, 4] {
            u[h] = _mm512_permutex2var_pd(t[h], lo2, t[h + 2]);
            u[h + 1] = _mm512_permutex2var_pd(t[h + 1], lo2, t[h + 3]);
            u[h + 2] = _mm512_permutex2var_pd(t[h], hi2, t[h + 2]);
            u[h + 3] = _mm512_permutex2var_pd(t[h + 1], hi2, t[h + 3]);
        }
        let (lo4, hi4) = (
            lanes([0, 1, 2, 3, 8, 9, 10, 11]),
            lanes([4, 5, 6, 7, 12, 13, 14, 15]),
        );
        for c in 0..4 {
            let col = _mm512_permutex2var_pd(u[c], lo4, u[c + 4]);
            let col4 = _mm512_permutex2var_pd(u[c], hi4, u[c + 4]);
            // SAFETY: the caller keeps output rows `c` and `c + 4` in
            // bounds, owned by this block and line-aligned.
            unsafe {
                _mm512_stream_pd(dst.stream_span(d + c * sa, 8, LINE), col);
                _mm512_stream_pd(dst.stream_span(d + (c + 4) * sa, 8, LINE), col4);
            }
        }
    }
}
