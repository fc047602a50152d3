//! Pinning the benchmark process to one CPU.

/// Words of a glibc `cpu_set_t` (1024 CPUs).
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it starts afterwards,
/// to the highest-numbered CPU it may run on now. Returns that CPU, or
/// `None` when the mask cannot be read or set.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the size of a
    // `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    #[test]
    fn pinning_leaves_one_cpu_for_new_threads() {
        // A thread of its own, so the test harness's threads keep their
        // mask.
        std::thread::spawn(|| {
            let cpu = super::pin_to_one_cpu().expect("pinned");
            let inner = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get())
                .join()
                .unwrap();
            assert_eq!(inner, 1, "pinned to CPU {cpu}");
        })
        .join()
        .unwrap();
    }
}
