//! Small numeric and reporting helpers: medians, tail percentiles,
//! the seeded replay sample, metric-name checks, and peak memory.

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest and largest of `values`.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// The tail percentile a sample of `n` calls supports: p99 once at
/// least 1,000 calls exist, otherwise the highest percentile that still
/// has ten samples beyond it, and the maximum for fewer than 11 calls.
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else if n > 10 {
        1.0 - 10.0 / n as f64
    } else {
        1.0
    }
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// p50 and tail percentile of `samples` (see [`tail_quantile`]).
pub fn p50_tail(samples: &[f64]) -> (f64, f64) {
    (percentile(samples, 0.5), percentile(samples, tail_quantile(samples.len())))
}

/// Sum of `samples`; `+0.0` when empty (an empty `f64` sum is `-0.0`).
pub fn total(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0, |a, b| a + b)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        total(samples) / samples.len() as f64
    }
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// SplitMix64: a tiny, fully specified generator, so a replay sample
/// depends on the seed alone and never on a library's algorithm.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `k` distinct indices out of `0..n` chosen by `seed` (all of them
/// when `k >= n`), in ascending order.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    let mut rng = SplitMix64::new(seed);
    for i in 0..k {
        let j = i + (rng.next_u64() % (n - i) as u64) as usize;
        pool.swap(i, j);
    }
    let mut picked = pool[..k].to_vec();
    picked.sort_unstable();
    picked
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable VmHWM line `{line}`"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for ok in ["tune_s", "model.probe.p50_us", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".lead", "_lead", "has space", "slash/no", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn replay_sample_is_reproducible_and_seed_dependent() {
        let a = sample_indices(5000, 300, 7);
        assert_eq!(a, sample_indices(5000, 300, 7));
        assert_ne!(a, sample_indices(5000, 300, 8));
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(a.iter().all(|&i| i < 5000));
        assert_eq!(sample_indices(10, 50, 1), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(5000), 0.99);
        assert_eq!(tail_quantile(1000), 0.99);
        assert!((tail_quantile(200) - 0.95).abs() < 1e-12);
        assert_eq!(tail_quantile(10), 1.0);
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p50_tail(&samples), (100.0, 190.0));
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
