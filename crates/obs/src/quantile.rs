//! Quantile estimation over log2 latency histograms.
//!
//! The runtime buckets latencies as: bucket 0 = `[0, 2)` µs, bucket `i`
//! = `[2^i, 2^{i+1})` µs, last bucket = `[2^{n-1}, ∞)` µs. A quantile is
//! estimated by locating the bucket holding the target rank and
//! interpolating linearly inside it — the standard Prometheus
//! `histogram_quantile` scheme, so the text exporter and the in-process
//! numbers agree.

/// The bucket, of `n`, that a sample of `ns` nanoseconds lands in: a
/// sample of `us` whole microseconds with highest set bit `i` lands in
/// bucket `i` = `[2^i, 2^{i+1})` µs, below 2 µs in bucket 0, and from
/// `2^{n-1}` µs on in the last bucket.
pub fn log2_bucket(ns: u64, n: usize) -> usize {
    let us = ns / 1_000;
    if us == 0 {
        return 0;
    }
    ((u64::BITS - 1 - us.leading_zeros()) as usize).min(n - 1)
}

/// Lower bound of bucket `i` in microseconds (0 for bucket 0).
pub fn log2_bucket_lower_us(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        (1u64 << i) as f64
    }
}

/// Upper bound of bucket `i` (of `n` buckets) in microseconds. The
/// overflow bucket has no real upper bound; it reports twice its lower
/// bound so interpolation stays finite.
pub fn log2_bucket_upper_us(i: usize, n: usize) -> f64 {
    debug_assert!(i < n);
    (1u64 << (i + 1).min(n)) as f64
}

/// Estimate quantile `q` (in `[0, 1]`) from log2 bucket counts. Returns
/// microseconds.
///
/// **Empty-histogram contract:** when `counts` is empty or every count
/// is zero there is no sample to estimate from, and the function returns
/// `f64::NAN` as an explicit "no data" sentinel. Returning a bucket
/// bound (or `0.0`) here would be indistinguishable from a real
/// sub-microsecond estimate and has misled dashboards before. Both
/// exporters handle the sentinel uniformly: the Prometheus text format
/// prints `NaN` (a legal sample value that still parses as `f64`), and
/// the JSON renderer maps non-finite values to `null`. Callers that want
/// a plain number should test `is_nan()` and substitute their own
/// default.
pub fn log2_bucket_quantile_us(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 || counts.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    // Rank of the target sample (1-based, rounded up; the Prometheus
    // convention of `q * total` landing inside the covering bucket).
    let rank = (q * total as f64).max(1.0);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let next = cum + c;
        if (next as f64) >= rank {
            let lo = log2_bucket_lower_us(i);
            let hi = log2_bucket_upper_us(i, counts.len());
            let within = (rank - cum as f64) / c as f64;
            return lo + (hi - lo) * within;
        }
        cum = next;
    }
    // Numerically unreachable; fall back to the top bucket's bound.
    log2_bucket_upper_us(counts.len() - 1, counts.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_nan_sentinel() {
        // "No data" must be distinguishable from a real 0 us estimate.
        assert!(log2_bucket_quantile_us(&[], 0.5).is_nan());
        assert!(log2_bucket_quantile_us(&[0, 0, 0], 0.99).is_nan());
        // One sample is enough to leave the sentinel regime.
        assert!(log2_bucket_quantile_us(&[1], 0.99).is_finite());
    }

    #[test]
    fn single_bucket_interpolates() {
        // 100 samples all in bucket 3 = [8, 16) us.
        let mut counts = [0u64; 16];
        counts[3] = 100;
        let p50 = log2_bucket_quantile_us(&counts, 0.5);
        let p99 = log2_bucket_quantile_us(&counts, 0.99);
        assert!((8.0..16.0).contains(&p50), "p50 {p50}");
        assert!((8.0..=16.0).contains(&p99), "p99 {p99}");
        assert!(p99 > p50);
    }

    #[test]
    fn quantiles_are_ordered_across_buckets() {
        // 90 fast samples in [2,4), 10 slow in [1024, 2048).
        let mut counts = [0u64; 16];
        counts[1] = 90;
        counts[10] = 10;
        let p50 = log2_bucket_quantile_us(&counts, 0.50);
        let p95 = log2_bucket_quantile_us(&counts, 0.95);
        let p99 = log2_bucket_quantile_us(&counts, 0.99);
        assert!((2.0..4.0).contains(&p50), "p50 {p50}");
        assert!((1024.0..2048.0).contains(&p95), "p95 {p95}");
        assert!(p99 >= p95 && p95 > p50);
    }

    #[test]
    fn bucket_bounds() {
        assert_eq!(log2_bucket_lower_us(0), 0.0);
        assert_eq!(log2_bucket_lower_us(1), 2.0);
        assert_eq!(log2_bucket_lower_us(10), 1024.0);
        assert_eq!(log2_bucket_upper_us(0, 16), 2.0);
        assert_eq!(log2_bucket_upper_us(9, 16), 1024.0);
        // Overflow bucket: finite pseudo-bound at 2x its lower bound.
        assert_eq!(log2_bucket_upper_us(15, 16), 65536.0);
    }

    #[test]
    fn overflow_bucket_quantile_is_finite() {
        let mut counts = [0u64; 16];
        counts[15] = 5;
        let p99 = log2_bucket_quantile_us(&counts, 0.99);
        assert!(p99.is_finite());
        assert!(p99 >= 32768.0);
    }

    #[test]
    fn single_sample_every_quantile_lands_in_its_bucket() {
        // With exactly one sample every quantile must interpolate inside
        // that sample's bucket — never NaN, never a neighbouring bucket.
        for bucket in [0usize, 1, 7, 15] {
            let mut counts = [0u64; 16];
            counts[bucket] = 1;
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                let est = log2_bucket_quantile_us(&counts, q);
                let lo = log2_bucket_lower_us(bucket);
                let hi = log2_bucket_upper_us(bucket, 16);
                assert!(
                    (lo..=hi).contains(&est),
                    "bucket {bucket} q {q}: {est} not in [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn all_in_top_bucket_saturates_at_its_pseudo_bound() {
        // Everything in the overflow bucket: estimates stay pinned to
        // [2^15, 2^16] regardless of quantile or count, and p99 cannot
        // exceed the finite pseudo-bound.
        for n in [1u64, 10, 1_000_000] {
            let mut counts = [0u64; 16];
            counts[15] = n;
            let p50 = log2_bucket_quantile_us(&counts, 0.50);
            let p99 = log2_bucket_quantile_us(&counts, 0.99);
            assert!(p50 >= 32768.0, "p50 {p50} below the overflow floor");
            assert!(p99 <= 65536.0, "p99 {p99} above the pseudo-bound");
            assert!(p50 <= p99);
        }
    }

    #[test]
    fn quantiles_are_monotone_under_random_fills() {
        // Property: for any histogram, p50 <= p95 <= p99, and every
        // estimate stays within the histogram's overall bounds. Plain
        // xorshift here — this crate deliberately has no dependencies.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let buckets = 2 + (next() % 15) as usize;
            let mut counts = vec![0u64; buckets];
            let filled = 1 + (next() % buckets as u64) as usize;
            for _ in 0..filled {
                let i = (next() % buckets as u64) as usize;
                counts[i] += next() % 1_000;
            }
            if counts.iter().all(|&c| c == 0) {
                assert!(log2_bucket_quantile_us(&counts, 0.5).is_nan());
                continue;
            }
            let p50 = log2_bucket_quantile_us(&counts, 0.50);
            let p95 = log2_bucket_quantile_us(&counts, 0.95);
            let p99 = log2_bucket_quantile_us(&counts, 0.99);
            assert!(
                p50 <= p95 && p95 <= p99,
                "monotonicity violated: {p50} {p95} {p99} for {counts:?}"
            );
            let lowest = counts.iter().position(|&c| c > 0).unwrap();
            let highest = counts.iter().rposition(|&c| c > 0).unwrap();
            assert!(p50 >= log2_bucket_lower_us(lowest), "{counts:?}");
            assert!(p99 <= log2_bucket_upper_us(highest, buckets), "{counts:?}");
        }
    }
}
