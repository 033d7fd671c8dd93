//! Result statistics: approximation ratios (the paper's Eq. 3) and the
//! box-plot summaries its distribution figures report.

/// Approximation ratio `E_optimized / E_ground` for negative-energy problems
/// (Eq. 3), clamped into `[0, 1]`.
///
/// # Panics
///
/// Panics if `ground_energy` is not strictly negative (the convention every
/// workload in this repository follows).
pub fn approximation_ratio(optimized_energy: f64, ground_energy: f64) -> f64 {
    assert!(
        ground_energy < 0.0,
        "ground energy must be negative (got {ground_energy})"
    );
    (optimized_energy / ground_energy).clamp(0.0, 1.0)
}

/// Five-number summary plus mean, as drawn by the paper's box plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl BoxStats {
    /// Computes the summary of a sample.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        BoxStats {
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean,
        }
    }
}

/// Linear-interpolation quantile of an already-sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Sample mean.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "need at least one sample");
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_of_ground_is_one() {
        assert_eq!(approximation_ratio(-6.89, -6.89), 1.0);
    }

    #[test]
    fn ratio_clamps_positive_energies() {
        assert_eq!(approximation_ratio(0.5, -2.0), 0.0);
    }

    #[test]
    fn ratio_linear_in_energy() {
        assert!((approximation_ratio(-3.0, -6.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be negative")]
    fn positive_ground_rejected() {
        approximation_ratio(-1.0, 1.0);
    }

    #[test]
    fn box_stats_of_known_sample() {
        let s = BoxStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }

    #[test]
    fn box_stats_single_sample() {
        let s = BoxStats::from_samples(&[7.0]);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.q1, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
