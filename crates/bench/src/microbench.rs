//! A minimal wall-clock micro-benchmark harness.
//!
//! The workspace builds fully offline, so the `[[bench]]` targets use
//! this hand-rolled harness (`harness = false`) instead of an external
//! framework. Each target is a plain `fn main()` that calls [`bench()`]
//! per case and prints one line per result; they are smoke-level
//! benchmarks meant to keep the hot paths honest, not a statistics
//! suite — the scientific outputs come from the `reproduce` binary.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How long one [`bench`] call is allowed to measure for.
const MEASURE_BUDGET: Duration = Duration::from_millis(200);
/// Warm-up budget before measurement starts.
const WARMUP_BUDGET: Duration = Duration::from_millis(30);
/// Hard cap on measured iterations (keeps cheap bodies bounded).
const MAX_ITERS: u64 = 10_000;

/// One measured benchmark case.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Case label, as printed.
    pub name: String,
    /// Iterations measured.
    pub iters: u64,
    /// Mean wall-clock time per iteration, ns.
    pub mean_ns: f64,
    /// Fastest single iteration, ns.
    pub min_ns: f64,
}

impl std::fmt::Display for BenchResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<40} {:>12.0} ns/iter (min {:>12.0} ns, {} iters)",
            self.name, self.mean_ns, self.min_ns, self.iters
        )
    }
}

/// Time `body` under the fixed warm-up/measure budgets and print the
/// result line. Returns the measurement for callers that post-process.
pub fn bench<R>(name: &str, mut body: impl FnMut() -> R) -> BenchResult {
    // Warm up.
    let warm_start = Instant::now();
    while warm_start.elapsed() < WARMUP_BUDGET {
        black_box(body());
    }

    // Measure.
    let mut iters = 0u64;
    let mut min_ns = f64::INFINITY;
    let measure_start = Instant::now();
    while measure_start.elapsed() < MEASURE_BUDGET && iters < MAX_ITERS {
        let t0 = Instant::now();
        black_box(body());
        let dt = t0.elapsed().as_nanos() as f64;
        min_ns = min_ns.min(dt);
        iters += 1;
    }
    let total_ns = measure_start.elapsed().as_nanos() as f64;
    let result = BenchResult {
        name: name.to_string(),
        iters,
        mean_ns: total_ns / iters.max(1) as f64,
        min_ns: if min_ns.is_finite() { min_ns } else { 0.0 },
    };
    println!("{result}");
    result
}

/// Print a group header, mirroring criterion-style grouping in output.
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let r = bench("noop-ish", || std::hint::black_box(3u64).wrapping_mul(7));
        assert!(r.iters > 0);
        assert!(r.mean_ns >= 0.0);
        assert!(r.min_ns <= r.mean_ns * 10.0 + 1.0);
    }
}
