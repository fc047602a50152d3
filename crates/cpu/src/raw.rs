//! The bounds and alignment shim every kernel pointer goes through.
//!
//! The tiled core's workers share one output slice, so the kernels read
//! and write through raw pointers. Each access names the element range
//! it touches. Debug builds assert that the range lies inside the slice
//! and that a streamed store's address has the alignment its
//! instruction needs; release builds compile each helper to the bare
//! pointer arithmetic.

/// A slice's base pointer and length, shared by the workers of one
/// call.
pub(crate) struct Raw<T> {
    ptr: *mut T,
    len: usize,
}

impl<T> Clone for Raw<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Raw<T> {}

// SAFETY: a `Raw` is built only from a slice that the executing call
// borrows for as long as its workers run, so `ptr` stays valid and `len`
// stays true while other threads hold it. Workers read an input `Raw`
// as a shared slice (`T: Sync`) and write `T` values into disjoint
// offsets of an output `Raw` (`T: Send`): the tile blocks partition the
// output index space, each output element belonging to exactly one
// `(outer, a, b)` triple.
unsafe impl<T: Send + Sync> Send for Raw<T> {}
// SAFETY: as for `Send` above.
unsafe impl<T: Send + Sync> Sync for Raw<T> {}

impl<T> Raw<T> {
    /// View of a slice the kernels only read.
    pub(crate) fn of(s: &[T]) -> Raw<T> {
        Raw {
            ptr: s.as_ptr().cast_mut(),
            len: s.len(),
        }
    }

    /// View of a slice the kernels write.
    pub(crate) fn of_mut(s: &mut [T]) -> Raw<T> {
        Raw {
            ptr: s.as_mut_ptr(),
            len: s.len(),
        }
    }

    /// The same memory seen as elements of another type of the same
    /// size.
    pub(crate) fn cast<U>(self) -> Raw<U> {
        assert_eq!(
            std::mem::size_of::<T>(),
            std::mem::size_of::<U>(),
            "a cast view keeps the element size"
        );
        Raw {
            ptr: self.ptr.cast(),
            len: self.len,
        }
    }

    /// Pointer to element `off`, for an access of the `n` elements
    /// starting there.
    ///
    /// # Safety
    /// `off + n <= len` (asserted in debug builds). A write through the
    /// pointer must go to elements no other worker accesses.
    #[inline(always)]
    pub(crate) unsafe fn span(self, off: usize, n: usize) -> *mut T {
        debug_assert!(
            off.checked_add(n).is_some_and(|end| end <= self.len),
            "access to elements [{off}, {off} + {n}) is out of bounds of a {}-element slice",
            self.len
        );
        // SAFETY: the caller keeps `off + n` within the slice.
        unsafe { self.ptr.add(off) }
    }

    /// [`Raw::span`] for a streamed store whose instruction needs an
    /// `align`-byte aligned address.
    ///
    /// # Safety
    /// As for [`Raw::span`], and the address of element `off` is a
    /// multiple of `align` (asserted in debug builds).
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    pub(crate) unsafe fn stream_span(self, off: usize, n: usize, align: usize) -> *mut T {
        // SAFETY: forwarded from the caller.
        let p = unsafe { self.span(off, n) };
        debug_assert!(
            (p as usize).is_multiple_of(align),
            "streamed store at {p:p} is not {align}-byte aligned"
        );
        p
    }

    /// Element `off`.
    ///
    /// # Safety
    /// `off < len` (asserted in debug builds).
    #[inline(always)]
    pub(crate) unsafe fn read(self, off: usize) -> T
    where
        T: Copy,
    {
        // SAFETY: the caller keeps `off` within the slice.
        unsafe { *self.span(off, 1) }
    }

    /// Store `v` at element `off`.
    ///
    /// # Safety
    /// As for [`Raw::span`] with `n == 1`.
    #[inline(always)]
    pub(crate) unsafe fn write(self, off: usize, v: T) {
        // SAFETY: the caller keeps `off` within the slice and owns it.
        unsafe { *self.span(off, 1) = v }
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::Raw;

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_span_panics() {
        let v = [0u64; 8];
        // SAFETY: none needed: the debug shim panics before any pointer
        // is formed, which is what this test checks.
        unsafe { Raw::of(&v).span(7, 2) };
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    #[should_panic(expected = "not 64-byte aligned")]
    fn misaligned_stream_span_panics() {
        let mut v = [0u64; 24];
        let base = v.as_ptr() as usize;
        let line = (0..8)
            .find(|i| (base + i * 8).is_multiple_of(64))
            .expect("a 64-byte boundary within 8 elements");
        // SAFETY: in bounds; the element after a 64-byte boundary sits
        // 8 bytes past it, which the debug shim must reject.
        unsafe { Raw::of_mut(&mut v).stream_span(line + 1, 8, 64) };
    }
}
