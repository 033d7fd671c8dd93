//! Closed-loop calibration of admission-time feasibility projections.
//!
//! The admission controller compares a job's projected completion against
//! its deadline with a safety margin. A *static* margin has to be guessed
//! once for the whole fleet: set it low and systematically optimistic
//! projections admit jobs that then miss their SLAs; set it high and every
//! tier pays the worst tier's penalty in false rejections. The
//! [`MarginModel`] closes the loop instead: every completed job contributes
//! one *estimate error* sample — realized completion minus the projection
//! recorded at admission — keyed by the job's device tier and service
//! class, and the margin applied to the next arrival of that key is the
//! P90 of the key's last 64 errors. Tiers whose projections run hot earn a
//! positive margin; tiers whose projections run cold (e.g. because restart
//! triage prunes most of the projected work) earn a *negative* one, which
//! is what eliminates false rejections.
//!
//! Denied jobs never realize a completion, so they contribute no error
//! sample — but each one still yields a [`MarginSnapshot`], which the
//! engine emits as a calibration-update trace event. The report's
//! calibration history is folded from those events, which is how telemetry
//! exposes the margin trajectory that produced each denial. The model
//! itself keeps only its error windows.
//!
//! Each window is also kept sorted as samples enter and leave it, so a
//! key's own margin — what every warmed-up admission and every completion
//! snapshot reads — is one index, not a sort. Only the pooled fallbacks,
//! read while a key has fewer than `min_samples` samples, still collect and
//! sort. Either way the result is bitwise the nearest-rank `quantile` of
//! the samples in arrival order.
//!
//! [`AdmissionMode::Calibrated`](crate::admission::AdmissionMode::Calibrated)
//! switches the engine from the static margin of zero to this model.

use std::cmp::Ordering;
use std::collections::VecDeque;

use crate::admission::Deadline;

/// The error quantile a margin tracks: it absorbs the 90th-percentile
/// estimate error of the key's recent jobs.
const QUANTILE: f64 = 0.9;

/// Sliding-window length per key: only the most recent `WINDOW` error
/// samples of a key inform its margin, so the model tracks drift instead of
/// averaging over the whole run.
const WINDOW: usize = 64;

/// Tuning of the [`MarginModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Samples a key needs before its learned margin is trusted. Below
    /// this, the model falls back to the tier's pooled samples, then to
    /// all samples, then to a margin of zero.
    pub min_samples: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig { min_samples: 4 }
    }
}

/// The service class a job's deadline shape sorts it into — one axis of
/// the calibration key (estimate error differs systematically between,
/// say, interactive jobs that run at high priority and batch jobs that
/// get evicted for them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceClass {
    /// [`DeadlineClass::Interactive`](crate::admission::DeadlineClass).
    Interactive,
    /// [`DeadlineClass::Standard`](crate::admission::DeadlineClass).
    Standard,
    /// [`DeadlineClass::Batch`](crate::admission::DeadlineClass).
    Batch,
    /// An absolute [`Deadline::At`] deadline.
    Absolute,
    /// No deadline at all. Best-effort jobs are never denied, which makes
    /// them unbiased error probes: their samples keep a key learning even
    /// while the controller is rejecting everything else in it.
    BestEffort,
}

impl ServiceClass {
    /// Stable machine-readable name (trace serializations key on it).
    pub fn as_str(&self) -> &'static str {
        match self {
            ServiceClass::Interactive => "interactive",
            ServiceClass::Standard => "standard",
            ServiceClass::Batch => "batch",
            ServiceClass::Absolute => "absolute",
            ServiceClass::BestEffort => "best_effort",
        }
    }

    /// The class of a job submitted with `deadline`.
    pub fn of(deadline: Option<Deadline>) -> Self {
        use crate::admission::DeadlineClass;
        match deadline {
            None => ServiceClass::BestEffort,
            Some(Deadline::At(_)) => ServiceClass::Absolute,
            Some(Deadline::Class(DeadlineClass::Interactive)) => ServiceClass::Interactive,
            Some(Deadline::Class(DeadlineClass::Standard)) => ServiceClass::Standard,
            Some(Deadline::Class(DeadlineClass::Batch)) => ServiceClass::Batch,
        }
    }
}

/// The calibration key: which error population a job's outcome feeds and
/// which learned margin its admission uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MarginKey {
    /// Device tier of the job's ladder entry device (tiers rank the
    /// fleet's distinct advertised fidelities, 0 = lowest). Estimates are
    /// tier-dependent — a QuSplit-style LF tier drains restarts it will
    /// later prune, an HF tier serves evicting interactive traffic — so
    /// margins must be too.
    pub tier: usize,
    /// Deadline shape of the job.
    pub class: ServiceClass,
}

/// What the model reports for one ingested outcome: the outcome and the
/// margin its key carries *after* ingesting it. The report's calibration
/// history is these snapshots in ingestion order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginSnapshot {
    /// Virtual time of the outcome (completion or denial).
    pub time: f64,
    /// The key the outcome fed.
    pub key: MarginKey,
    /// Realized-minus-projected completion seconds, `None` for a denial
    /// (denied jobs never realize a completion).
    pub error: Option<f64>,
    /// The margin [`MarginModel::margin_for`] returns for this key after
    /// the outcome.
    pub margin: f64,
    /// Error samples in the key's window after the outcome.
    pub samples: usize,
}

/// Per-tier/per-class estimate-error quantiles that replace the static
/// admission safety margin.
///
/// # Examples
///
/// ```
/// use qoncord_orchestrator::calibration::{
///     CalibrationConfig, MarginKey, MarginModel, ServiceClass,
/// };
///
/// let key = MarginKey { tier: 0, class: ServiceClass::Batch };
/// let mut model = MarginModel::new(CalibrationConfig::default());
/// // Until enough outcomes arrive, the margin is zero.
/// assert_eq!(model.margin_for(key), 0.0);
/// // Ten jobs complete ~40s *earlier* than projected: the estimates are
/// // systematically pessimistic, and the learned margin goes negative.
/// for job in 0..10 {
///     let projected = 100.0 * job as f64;
///     model.record_completion(projected, key, projected, projected - 40.0);
/// }
/// assert!(model.margin_for(key) < -35.0);
/// assert_eq!(model.samples(key), 10);
/// ```
#[derive(Debug, Clone)]
pub struct MarginModel {
    config: CalibrationConfig,
    /// One window per key, in the order the keys were first fed (a handful
    /// of tiers times five classes: a scan beats a hash).
    windows: Vec<(MarginKey, Window)>,
}

/// One key's last [`WINDOW`] error samples, in arrival order and sorted.
#[derive(Debug, Clone)]
struct Window {
    arrivals: VecDeque<f64>,
    /// `arrivals` in the order a stable sort by `partial_cmp` puts them:
    /// ascending, and samples that compare equal (`-0.0` and `0.0`
    /// included) in arrival order.
    sorted: Vec<f64>,
}

fn cmp(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b).expect("finite errors")
}

impl Window {
    fn new() -> Self {
        Window {
            arrivals: VecDeque::with_capacity(WINDOW),
            sorted: Vec::with_capacity(WINDOW),
        }
    }

    fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Adds `error`, dropping the oldest sample once the window is full.
    fn push(&mut self, error: f64) {
        if self.arrivals.len() == WINDOW {
            let oldest = self.arrivals.pop_front().expect("a full window");
            // The oldest sample arrived before every sample that compares
            // equal to it, so it is the first of them in `sorted`.
            let at = self
                .sorted
                .partition_point(|x| cmp(x, &oldest) == Ordering::Less);
            self.sorted.remove(at);
        }
        self.arrivals.push_back(error);
        // The newest sample goes after every sample that compares equal.
        let at = self
            .sorted
            .partition_point(|x| cmp(x, &error) != Ordering::Greater);
        self.sorted.insert(at, error);
    }

    /// [`quantile`] of the window, read off `sorted`.
    fn quantile(&self, q: f64) -> f64 {
        self.sorted[nearest_rank(self.sorted.len(), q)]
    }
}

impl MarginModel {
    /// Creates a model that answers a margin of zero until a key has
    /// accumulated enough samples.
    ///
    /// # Panics
    ///
    /// Panics if `min_samples` is zero.
    pub fn new(config: CalibrationConfig) -> Self {
        assert!(config.min_samples > 0, "min_samples must be positive");
        MarginModel {
            config,
            windows: Vec::new(),
        }
    }

    fn window(&self, key: MarginKey) -> Option<&Window> {
        self.windows.iter().find(|(k, _)| *k == key).map(|(_, w)| w)
    }

    /// The safety margin (seconds, possibly negative) admission should
    /// apply to a job of `key` right now: the P90 of the key's error
    /// window, falling back to the tier's pooled windows, then to all
    /// windows, then to zero — whichever first holds at least
    /// [`CalibrationConfig::min_samples`] samples.
    pub fn margin_for(&self, key: MarginKey) -> f64 {
        if let Some(exact) = self.window(key) {
            if exact.len() >= self.config.min_samples {
                return exact.quantile(QUANTILE);
            }
        }
        let tier: Vec<f64> = self
            .windows
            .iter()
            .filter(|(k, _)| k.tier == key.tier)
            .flat_map(|(_, w)| w.arrivals.iter().copied())
            .collect();
        if tier.len() >= self.config.min_samples {
            return quantile(tier, QUANTILE);
        }
        let all: Vec<f64> = self
            .windows
            .iter()
            .flat_map(|(_, w)| w.arrivals.iter().copied())
            .collect();
        if all.len() >= self.config.min_samples {
            return quantile(all, QUANTILE);
        }
        0.0
    }

    /// Ingests a completed job: `projected` is the completion the admission
    /// estimate promised, `realized` the virtual time it actually finished
    /// (SLA misses arrive through here too — a late completion *is* the
    /// miss signal, as a large positive error). `time` stamps the snapshot.
    ///
    /// Returns the snapshot the outcome produced (the flight recorder emits
    /// it as a calibration-update event).
    ///
    /// # Panics
    ///
    /// Panics if `projected` or `realized` is not finite.
    pub fn record_completion(
        &mut self,
        time: f64,
        key: MarginKey,
        projected: f64,
        realized: f64,
    ) -> MarginSnapshot {
        assert!(
            projected.is_finite() && realized.is_finite(),
            "completions must be finite times"
        );
        let at = match self.windows.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                self.windows.push((key, Window::new()));
                self.windows.len() - 1
            }
        };
        self.windows[at].1.push(realized - projected);
        self.snapshot(time, key, Some(realized - projected))
    }

    /// Ingests a denied job. Denials carry no realized completion and feed
    /// no error window; the returned snapshot lets telemetry correlate each
    /// denial with the margin that produced it, like
    /// [`record_completion`](Self::record_completion)'s.
    pub fn record_denial(&self, time: f64, key: MarginKey) -> MarginSnapshot {
        self.snapshot(time, key, None)
    }

    /// Error samples currently in `key`'s window.
    pub fn samples(&self, key: MarginKey) -> usize {
        self.window(key).map_or(0, Window::len)
    }

    fn snapshot(&self, time: f64, key: MarginKey, error: Option<f64>) -> MarginSnapshot {
        MarginSnapshot {
            time,
            key,
            error,
            margin: self.margin_for(key),
            samples: self.samples(key),
        }
    }
}

/// Nearest-rank quantile of `values` (sorted internally, so callers may
/// pass pooled samples in any order).
fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    debug_assert!(!values.is_empty(), "quantile of an empty sample set");
    values.sort_by(cmp);
    values[nearest_rank(values.len(), q)]
}

/// Index of the nearest-rank `q` quantile among `len` sorted samples.
fn nearest_rank(len: usize, q: f64) -> usize {
    let rank = (q * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::DeadlineClass;

    fn key(tier: usize, class: ServiceClass) -> MarginKey {
        MarginKey { tier, class }
    }

    #[test]
    fn fallback_until_min_samples_then_quantile() {
        let k = key(0, ServiceClass::Batch);
        let mut model = MarginModel::new(CalibrationConfig::default());
        assert_eq!(model.margin_for(k), 0.0);
        for i in 0..3 {
            model.record_completion(i as f64, k, 10.0, 15.0 + i as f64);
        }
        assert_eq!(model.margin_for(k), 0.0, "3 samples < min_samples=4");
        model.record_completion(3.0, k, 10.0, 18.0);
        // Errors {5, 6, 7, 8}: P90 nearest-rank = 8.
        assert_eq!(model.margin_for(k), 8.0);
    }

    #[test]
    fn margins_are_per_key_with_tier_and_global_fallback() {
        let lf = key(0, ServiceClass::Batch);
        let lf_probe = key(0, ServiceClass::BestEffort);
        let hf = key(1, ServiceClass::Interactive);
        let mut model = MarginModel::new(CalibrationConfig::default());
        for i in 0..8 {
            model.record_completion(i as f64, lf, 100.0, 130.0); // +30 hot
            model.record_completion(i as f64, hf, 100.0, 90.0); // -10 cold
        }
        assert_eq!(model.margin_for(lf), 30.0);
        assert_eq!(model.margin_for(hf), -10.0);
        // A fresh class on the LF tier pools the tier's samples...
        assert_eq!(model.margin_for(lf_probe), 30.0);
        // ...and a fresh tier pools everything (P90 of {+30×8, −10×8}).
        assert_eq!(model.margin_for(key(9, ServiceClass::Standard)), 30.0);
    }

    #[test]
    fn sliding_window_forgets_old_bias() {
        let k = key(0, ServiceClass::Absolute);
        let mut model = MarginModel::new(CalibrationConfig::default());
        for i in 0..WINDOW + 6 {
            model.record_completion(i as f64, k, 50.0, 90.0); // +40 era
        }
        assert_eq!(model.samples(k), WINDOW, "the window holds 64 samples");
        assert_eq!(model.margin_for(k), 40.0);
        for i in 0..WINDOW - 1 {
            model.record_completion(i as f64, k, 50.0, 45.0); // -5 era
        }
        // One +40 sample is left: P90 of {−5×63, +40} is still −5.
        assert_eq!(model.margin_for(k), -5.0);
        model.record_completion(0.0, k, 50.0, 45.0);
        assert_eq!(model.samples(k), WINDOW);
        let window = &model.window(k).expect("a fed key").arrivals;
        assert!(
            window.iter().all(|&e| e == -5.0),
            "the +40 era has aged out"
        );
    }

    #[test]
    fn history_tracks_completions_and_denials() {
        let k = key(1, ServiceClass::Batch);
        let mut model = MarginModel::new(CalibrationConfig::default());
        let completion = model.record_completion(5.0, k, 10.0, 16.0);
        let denial = model.record_denial(6.0, k);
        assert_eq!((completion.time, denial.time), (5.0, 6.0));
        assert_eq!(completion.error, Some(6.0));
        assert_eq!(completion.samples, 1);
        assert_eq!(denial.error, None, "denials carry no error sample");
        assert_eq!(denial.samples, 1, "denials feed no window");
        assert_eq!(denial.margin, 0.0, "still on the zero fallback");
    }

    #[test]
    fn service_class_of_every_deadline_shape() {
        assert_eq!(ServiceClass::of(None), ServiceClass::BestEffort);
        assert_eq!(
            ServiceClass::of(Some(Deadline::At(5.0))),
            ServiceClass::Absolute
        );
        for (class, expected) in [
            (DeadlineClass::Interactive, ServiceClass::Interactive),
            (DeadlineClass::Standard, ServiceClass::Standard),
            (DeadlineClass::Batch, ServiceClass::Batch),
        ] {
            assert_eq!(ServiceClass::of(Some(Deadline::Class(class))), expected);
        }
    }

    #[test]
    fn quantile_is_nearest_rank() {
        assert_eq!(quantile(vec![3.0, 1.0, 2.0], 1.0), 3.0);
        assert_eq!(quantile(vec![3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(vec![5.0], 0.9), 5.0);
        assert_eq!(quantile(vec![1.0, 2.0], 0.01), 1.0);
    }

    /// The sort-based margin, recomputed from plain arrival-order windows
    /// (keys in first-fed order): the oracle for `margin_for`.
    fn oracle_margin(windows: &[(MarginKey, VecDeque<f64>)], key: MarginKey, min: usize) -> f64 {
        let pooled = |keep: &dyn Fn(&MarginKey) -> bool| -> Vec<f64> {
            windows
                .iter()
                .filter(|(k, _)| keep(k))
                .flat_map(|(_, w)| w.iter().copied())
                .collect()
        };
        for values in [
            pooled(&|k| *k == key),
            pooled(&|k| k.tier == key.tier),
            pooled(&|_| true),
        ] {
            if values.len() >= min {
                return quantile(values, QUANTILE);
            }
        }
        0.0
    }

    fn error_strategy() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::prelude::*;
        // Mostly non-positive, so the P90 often lands among the zeros of
        // both signs, where a sort's tie order shows in the bits.
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            (-3..1i32).prop_map(f64::from),
            -50.0..5.0f64,
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Completions that cross the 64-sample window, repeat errors and
        /// mix `0.0` with `-0.0`: after every one, every key's margin is
        /// bitwise the sort-based quantile of its window or fallback pool.
        #[test]
        fn sorted_windows_match_the_sort_based_quantile(
            min_samples in 1..9usize,
            steps in proptest::collection::vec((0..8usize, error_strategy()), 1..400),
        ) {
            // Key 0 takes half the completions, so it wraps its window.
            let keys = [
                key(0, ServiceClass::Batch),
                key(0, ServiceClass::BestEffort),
                key(1, ServiceClass::Interactive),
                key(1, ServiceClass::Batch),
            ];
            let probes = [keys[0], keys[1], keys[2], keys[3], key(0, ServiceClass::Standard), key(7, ServiceClass::Absolute)];
            let mut model = MarginModel::new(CalibrationConfig { min_samples });
            let mut oracle: Vec<(MarginKey, VecDeque<f64>)> = Vec::new();
            for (i, &(pick, error)) in steps.iter().enumerate() {
                let k = keys[pick.saturating_sub(4)];
                let snapshot = model.record_completion(i as f64, k, 0.0, error);
                proptest::prop_assert_eq!(snapshot.error.map(f64::to_bits), Some(error.to_bits()));
                let at = match oracle.iter().position(|(o, _)| *o == k) {
                    Some(at) => at,
                    None => {
                        oracle.push((k, VecDeque::new()));
                        oracle.len() - 1
                    }
                };
                let window = &mut oracle[at].1;
                window.push_back(error);
                if window.len() > WINDOW {
                    window.pop_front();
                }
                for probe in probes {
                    let expected = oracle_margin(&oracle, probe, min_samples);
                    proptest::prop_assert_eq!(
                        model.margin_for(probe).to_bits(),
                        expected.to_bits(),
                        "step {}: margin of {:?}",
                        i,
                        probe
                    );
                    let samples = oracle.iter().find(|(o, _)| *o == probe).map_or(0, |(_, w)| w.len());
                    proptest::prop_assert_eq!(model.samples(probe), samples);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_completion_rejected() {
        let mut model = MarginModel::new(CalibrationConfig::default());
        model.record_completion(0.0, key(0, ServiceClass::Batch), f64::NAN, 1.0);
    }
}
