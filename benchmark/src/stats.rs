//! Estimators: median, quartiles, and the tail percentile a sample can
//! support.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method), because that is what the driver applies to the
//! per-run values this program prints; using the same rule inside a run
//! keeps `hopbench aa` and the driver in agreement.

/// Summary of one metric's samples within a run (or across runs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile distance as a share of the median — the spread the
    /// driver compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `p`-quantile (0..=1) of an ascending slice under the exclusive
/// method: position `p·(n+1)` (1-based), linearly interpolated and
/// clamped to the sample range.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of an empty sample");
    if n == 1 {
        return sorted[0];
    }
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        sorted[n - 1]
    } else {
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    }
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples when even).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted_copy(values), 0.5)
}

/// Count, quartiles and median of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let sorted = sorted_copy(values);
    Summary {
        count: sorted.len(),
        q1: quantile_sorted(&sorted, 0.25),
        median: quantile_sorted(&sorted, 0.5),
        q3: quantile_sorted(&sorted, 0.75),
    }
}

/// Percentiles a latency report may quote, highest first, each with the
/// share of samples beyond it in parts per thousand.
const TAILS: [(f64, usize); 4] = [(99.9, 1), (99.0, 10), (90.0, 100), (50.0, 500)];

/// The highest of p99.9 / p99 / p90 / p50 that still has at least ten
/// samples beyond it in a sample of `count`; a tail quoted from fewer
/// is one or two outliers, not a percentile.
pub fn supported_tail(count: usize) -> f64 {
    TAILS.into_iter().find(|&(_, beyond)| count * beyond >= 10_000).map_or(50.0, |(pct, _)| pct)
}

/// The `pct`-th percentile (0..=100) of `values`, nearest-rank.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let sorted = sorted_copy(values);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        let s = summarize(&[30.0, 10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert!((s.spread() - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(5), 50.0);
        assert_eq!(supported_tail(20), 50.0);
        assert_eq!(supported_tail(99), 50.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(999), 90.0);
        assert_eq!(supported_tail(1_000), 99.0);
        assert_eq!(supported_tail(9_999), 99.0);
        assert_eq!(supported_tail(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }
}
