//! Order statistics and means over measured samples.

use std::collections::HashMap;

/// Nearest-rank quantile of `samples` (sorted in place); NaN when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Geometric mean of the positive values; NaN when there are none.
pub fn geo_mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for x in xs {
        if x > 0.0 && x.is_finite() {
            sum += x.ln();
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        (sum / n as f64).exp()
    }
}

/// Bytes a transposition moves: every f64 element read once and
/// written once.
pub fn transpose_bytes(volume: usize) -> f64 {
    (2 * volume * 8) as f64
}

/// One timed operation: which problem it ran (`key`), that problem's
/// volume, and its wall time.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub key: u64,
    pub volume: usize,
    pub ns: f64,
}

/// Geo-mean over distinct problems of `2 * V * 8` bytes divided by the
/// problem's median operation time, in GB/s.
pub fn bandwidth_gbps(samples: &[OpSample]) -> f64 {
    let mut by_key: HashMap<u64, (usize, Vec<f64>)> = HashMap::new();
    for s in samples {
        by_key
            .entry(s.key)
            .or_insert((s.volume, Vec::new()))
            .1
            .push(s.ns);
    }
    geo_mean(
        by_key
            .into_values()
            .map(|(volume, mut ns)| transpose_bytes(volume) / quantile(&mut ns, 0.5)),
    )
}

/// The high-water mark of this process's resident set, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.9), 5.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn bandwidth_uses_per_problem_medians() {
        let s = |key, ns| OpSample {
            key,
            volume: 1000,
            ns,
        };
        // Problem 0 has median 1000 ns (16 GB/s), problem 1 has 4000 ns
        // (4 GB/s): the geo-mean is 8 GB/s.
        let samples = [s(0, 1000.0), s(0, 900.0), s(0, 5000.0), s(1, 4000.0)];
        assert!((bandwidth_gbps(&samples) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
