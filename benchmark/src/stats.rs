//! Order statistics over small samples: medians and quartiles of the
//! repetitions, exact percentiles of per-job records, and the tail rule.

/// Sorts a sample ascending (values must not be NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    values
}

/// Linearly interpolated quantile `q` in `[0, 1]` of an ascending sample.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// `(q1, median, q3)` of an unsorted sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values.to_vec());
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// Exact nearest-rank percentile `p` in `(0, 100]` of an ascending sample:
/// the smallest element with at least `p` percent of the sample at or
/// below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p75/p90/p99 that still has at least ten samples beyond
/// it in a sample of `n`, or `None` when even p75 has fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 90, 75].into_iter().find(|&p| {
        let rank = (p as f64 / 100.0 * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
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
    fn quartiles_interpolate() {
        let (q1, q2, q3) = quartiles(&[5.0, 1.0, 2.0, 4.0, 3.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
        let (q1, _, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q1, q3), (1.75, 3.25));
    }

    #[test]
    fn percentile_is_nearest_rank_on_sorted_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.5), 1.0);
        let odd = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&odd, 50.0), 3.0);
        assert_eq!(percentile(&odd, 75.0), 4.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(8), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(48), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(7000), Some(99));
    }
}
