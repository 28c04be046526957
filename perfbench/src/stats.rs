//! Percentiles from raw samples.
//!
//! Latencies are kept as raw per-request samples, never folded into a
//! bucketed histogram: log2 buckets cannot resolve a 10% change.

/// Percentile summary of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest percentile of [`TAIL_PERCENTILES`] that has at least
    /// ten samples beyond it (50 when there are fewer than 20 samples).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

/// Candidate tail percentiles, highest first.
pub const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0];

/// 1-based nearest rank of percentile `pct` among `n` samples, in exact
/// integer arithmetic on tenths of a percent.
fn rank(n: usize, pct: f64) -> usize {
    let permille = (pct * 10.0).round() as usize;
    (n * permille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of sorted samples (`0 < pct <= 100`).
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// The highest tail percentile with at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n >= 10 && n - rank(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Summarize `samples` (any order). Empty input gives zeros.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary {
            n: 0,
            p50: 0.0,
            tail_pct: 50.0,
            tail: 0.0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len());
    Summary {
        n: sorted.len(),
        p50: percentile_sorted(&sorted, 50.0),
        tail_pct,
        tail: percentile_sorted(&sorted, tail_pct),
    }
}

/// Percentile `pct` of `samples` (any order); 0 for no samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, pct)
}

/// Median of `values` (mean of the middle two for an even count); 0
/// for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 98.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(5), 50.0);
        let s = summarize(&(0..2000).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.n, s.tail_pct), (2000, 99.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
