//! The adaptive convergence checker (Sec. IV-F/IV-G of the paper).
//!
//! Qoncord terminates a training phase only when **both** the expectation
//! value and the Shannon entropy of the output distribution have saturated:
//! either signal alone can plateau while the other still shows headroom
//! (Fig. 10's entropy arc), so single-metric checks terminate prematurely.
//!
//! Two tiers exist (Sec. IV-G): a *relaxed* checker (shorter patience window)
//! for every device before the last — further fine-tuning downstream can
//! still improve the solution — and a *strict* checker on the final device.

use qoncord_vqa::restart::IterationRecord;

/// Whether training should continue or has saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergenceStatus {
    /// Keep iterating.
    Continue,
    /// Both metrics are flat; terminate the phase.
    Saturated,
}

/// Tuning of a [`ConvergenceChecker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceConfig {
    /// Number of trailing iterations that must be flat.
    pub(crate) window: usize,
    /// Maximum expectation-value range within the window to count as flat.
    pub(crate) expectation_tolerance: f64,
    /// Maximum entropy range (bits) within the window to count as flat.
    pub(crate) entropy_tolerance: f64,
    /// Minimum iterations before saturation may be declared.
    pub(crate) min_iterations: usize,
    /// When `false`, only the expectation is checked (the ablation of
    /// DESIGN.md item 1; the paper argues this terminates prematurely).
    pub(crate) joint: bool,
}

impl ConvergenceConfig {
    /// The strict (final-device) configuration: long patience window.
    pub fn strict() -> Self {
        ConvergenceConfig {
            window: 10,
            expectation_tolerance: 0.05,
            entropy_tolerance: 0.08,
            min_iterations: 15,
            joint: true,
        }
    }

    /// The relaxed (non-final device) configuration: half the patience, per
    /// the paper's example of triggering at five instead of ten stale
    /// iterations.
    pub fn relaxed() -> Self {
        ConvergenceConfig {
            window: 5,
            expectation_tolerance: 0.08,
            entropy_tolerance: 0.12,
            min_iterations: 8,
            joint: true,
        }
    }

    /// Returns a copy with joint checking disabled (expectation only).
    pub fn expectation_only(mut self) -> Self {
        self.joint = false;
        self
    }
}

/// Streaming saturation detector over (expectation, entropy) pairs.
///
/// # Examples
///
/// ```
/// use qoncord_core::convergence::{ConvergenceChecker, ConvergenceConfig, ConvergenceStatus};
///
/// let mut checker = ConvergenceChecker::new(ConvergenceConfig::relaxed());
/// // A flat signal saturates once min_iterations and the window are filled.
/// let mut status = ConvergenceStatus::Continue;
/// for _ in 0..20 {
///     status = checker.observe(-5.0, 2.0);
/// }
/// assert_eq!(status, ConvergenceStatus::Saturated);
/// ```
#[derive(Debug, Clone)]
pub struct ConvergenceChecker {
    config: ConvergenceConfig,
    history: Vec<(f64, f64)>,
}

impl ConvergenceChecker {
    /// Creates a checker with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero or tolerances are negative.
    pub fn new(config: ConvergenceConfig) -> Self {
        assert!(config.window > 0, "window must be positive");
        assert!(
            config.expectation_tolerance >= 0.0 && config.entropy_tolerance >= 0.0,
            "tolerances must be non-negative"
        );
        ConvergenceChecker {
            config,
            history: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ConvergenceConfig {
        &self.config
    }

    /// Number of observations so far.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Returns `true` if nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Feeds one iteration's metrics and reports the status.
    pub fn observe(&mut self, expectation: f64, entropy: f64) -> ConvergenceStatus {
        self.history.push((expectation, entropy));
        self.status()
    }

    /// Feeds an [`IterationRecord`] (convenience for training loops).
    pub fn observe_record(&mut self, record: &IterationRecord) -> ConvergenceStatus {
        self.observe(record.expectation, record.entropy)
    }

    /// The current status without adding an observation.
    pub fn status(&self) -> ConvergenceStatus {
        let n = self.history.len();
        if n < self.config.min_iterations || n < self.config.window {
            return ConvergenceStatus::Continue;
        }
        let window = &self.history[n - self.config.window..];
        let (mut e_min, mut e_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut s_min, mut s_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(e, s) in window {
            e_min = e_min.min(e);
            e_max = e_max.max(e);
            s_min = s_min.min(s);
            s_max = s_max.max(s);
        }
        let expectation_flat = e_max - e_min <= self.config.expectation_tolerance;
        let entropy_flat = s_max - s_min <= self.config.entropy_tolerance;
        let saturated = if self.config.joint {
            expectation_flat && entropy_flat
        } else {
            expectation_flat
        };
        if saturated {
            ConvergenceStatus::Saturated
        } else {
            ConvergenceStatus::Continue
        }
    }

    /// Best (minimum) expectation observed.
    pub fn best_expectation(&self) -> Option<f64> {
        self.history
            .iter()
            .map(|&(e, _)| e)
            .min_by(|a, b| a.partial_cmp(b).expect("finite expectations"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(checker: &mut ConvergenceChecker, pairs: &[(f64, f64)]) -> ConvergenceStatus {
        let mut status = ConvergenceStatus::Continue;
        for &(e, s) in pairs {
            status = checker.observe(e, s);
        }
        status
    }

    #[test]
    fn flat_signal_saturates() {
        let mut c = ConvergenceChecker::new(ConvergenceConfig::strict());
        let status = feed(&mut c, &vec![(-3.0, 2.0); 20]);
        assert_eq!(status, ConvergenceStatus::Saturated);
    }

    #[test]
    fn improving_expectation_keeps_going() {
        let mut c = ConvergenceChecker::new(ConvergenceConfig::strict());
        let pairs: Vec<(f64, f64)> = (0..30).map(|i| (-(i as f64) * 0.2, 2.0)).collect();
        assert_eq!(feed(&mut c, &pairs), ConvergenceStatus::Continue);
    }

    #[test]
    fn moving_entropy_blocks_saturation_in_joint_mode() {
        // Expectation plateaus but entropy still falls: the paper's case for
        // joint checking — optimization is still making progress.
        let mut c = ConvergenceChecker::new(ConvergenceConfig::strict());
        let pairs: Vec<(f64, f64)> = (0..30).map(|i| (-3.0, 4.0 - 0.1 * i as f64)).collect();
        assert_eq!(feed(&mut c, &pairs), ConvergenceStatus::Continue);
    }

    #[test]
    fn expectation_only_ablation_terminates_prematurely() {
        // Same trajectory as above, but the ablated checker fires — the
        // premature termination DESIGN.md's ablation 1 documents.
        let cfg = ConvergenceConfig::strict().expectation_only();
        let mut c = ConvergenceChecker::new(cfg);
        let pairs: Vec<(f64, f64)> = (0..30).map(|i| (-3.0, 4.0 - 0.1 * i as f64)).collect();
        assert_eq!(feed(&mut c, &pairs), ConvergenceStatus::Saturated);
    }

    #[test]
    fn min_iterations_gate() {
        let mut c = ConvergenceChecker::new(ConvergenceConfig::relaxed());
        for _ in 0..7 {
            assert_eq!(c.observe(-1.0, 1.0), ConvergenceStatus::Continue);
        }
        assert_eq!(c.observe(-1.0, 1.0), ConvergenceStatus::Saturated);
    }

    #[test]
    fn relaxed_fires_before_strict() {
        let mut relaxed = ConvergenceChecker::new(ConvergenceConfig::relaxed());
        let mut strict = ConvergenceChecker::new(ConvergenceConfig::strict());
        let mut relaxed_at = None;
        let mut strict_at = None;
        for i in 0..40 {
            // Noisy-but-flat signal after iteration 5.
            let e = if i < 5 { -(i as f64) } else { -5.0 };
            if relaxed.observe(e, 2.0) == ConvergenceStatus::Saturated && relaxed_at.is_none() {
                relaxed_at = Some(i);
            }
            if strict.observe(e, 2.0) == ConvergenceStatus::Saturated && strict_at.is_none() {
                strict_at = Some(i);
            }
        }
        assert!(relaxed_at.unwrap() < strict_at.unwrap());
    }

    #[test]
    fn best_expectation_tracks_minimum() {
        let mut c = ConvergenceChecker::new(ConvergenceConfig::relaxed());
        feed(&mut c, &[(-1.0, 1.0), (-4.0, 1.5), (-2.0, 1.2)]);
        assert_eq!(c.best_expectation(), Some(-4.0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A monotone-improving expectation never saturates the strict checker
        /// when improvements exceed the tolerance each step.
        #[test]
        fn improving_signal_never_saturates(start in -1.0..0.0f64, n in 20..60usize) {
            let cfg = ConvergenceConfig::strict();
            let step = cfg.expectation_tolerance * 1.5;
            let mut checker = ConvergenceChecker::new(cfg);
            let mut status = ConvergenceStatus::Continue;
            for i in 0..n {
                status = checker.observe(start - step * i as f64, 2.0);
            }
            proptest::prop_assert_eq!(status, ConvergenceStatus::Continue);
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let cfg = ConvergenceConfig {
            window: 0,
            ..ConvergenceConfig::strict()
        };
        let _ = ConvergenceChecker::new(cfg);
    }
}
