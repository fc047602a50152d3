//! The process-relative clock every request record reads.

use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic nanoseconds since the first call in this process. Anchoring
/// to a process-local epoch keeps timestamps small, strictly comparable,
/// and independent of wall-clock adjustments.
pub fn clock_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = clock_ns();
        let b = clock_ns();
        assert!(b >= a);
    }
}
