//! Order statistics used by every metric the benchmark reports.

/// Nearest-rank percentile (`⌈p/100·n⌉`-th smallest) of an ascending slice.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly above the nearest-rank `p`-th percentile's
/// position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// 1-based nearest rank `⌈p/100·n⌉`, clamped to `1..=n`. The small
/// tolerance keeps `99.9 / 100 · 10000` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` when even the median has fewer.
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartiles, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method,
/// which extrapolates beyond the data for very small samples).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        // Python: j = i·m // n clamped to [1, len-1]; delta = i·m − j·n.
        let (m, n) = (len as i64 + 1, 4i64);
        let j = (i as i64 * m / n).clamp(1, len as i64 - 1);
        let delta = (i as i64 * m - j * n) as f64;
        let j = j as usize;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (at(1), at(3))
}

fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, ten beyond; p99.9 has one.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_reportable_percentile(1000), Some(99.0));
        assert_eq!(highest_reportable_percentile(999), Some(95.0));
        assert_eq!(highest_reportable_percentile(10_000), Some(99.9));
        assert_eq!(highest_reportable_percentile(100_000), Some(99.99));
        assert_eq!(highest_reportable_percentile(20), Some(50.0));
        assert_eq!(highest_reportable_percentile(19), None);
        for n in [20, 57, 999, 1000, 12_345] {
            let p = highest_reportable_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[5.0, 9.0]), (4.0, 10.0));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]), (1.0, 5.0));
    }
}
