//! Deadline-aware admission control.
//!
//! Before a job is admitted to the fleet, the orchestrator projects its
//! completion time from the current fleet load using the cloud layer's cost
//! model ([`qoncord_cloud::policy::estimate_feasibility`] over the same
//! placements the dispatch policy chose). The [`AdmissionController`] then
//! compares the projection against the job's service-level deadline and
//! either admits the job or *rejects* it outright, so an unkeepable promise
//! is refused instead of silently broken — EFaaS-style QoS for the
//! fair-share queue.
//!
//! Deadlines are absolute virtual times, specified either directly
//! ([`Deadline::At`]) or as a [`DeadlineClass`] resolved at admission
//! against the job's own projected service time.
//!
//! Decay-aware projections
//! ([`qoncord_cloud::policy::estimate_feasibility_decayed`]) rank the
//! queued work ahead of the job analytically over the fair-share queue's
//! indexes — the engine no longer clones and drains the queue per
//! admission decision, so this controller stays cheap at fleet scale (see
//! the `fleet_scale` experiment's admission-throughput trajectory).

use qoncord_cloud::policy::FeasibilityEstimate;

/// A service-level tier mapping a job's projected service time to a
/// relative deadline. Resolved at admission: the concrete deadline is
/// `arrival + multiplier × projected service seconds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadlineClass {
    /// Latency-sensitive: at most 2× its own service time end to end.
    Interactive,
    /// Ordinary work: 6× its service time.
    Standard,
    /// Throughput work: 20× its service time — effectively "eventually".
    Batch,
}

impl DeadlineClass {
    /// Allowed turnaround as a multiple of the job's service time.
    fn multiplier(&self) -> f64 {
        match self {
            DeadlineClass::Interactive => 2.0,
            DeadlineClass::Standard => 6.0,
            DeadlineClass::Batch => 20.0,
        }
    }

    /// The absolute deadline for a job of this class arriving at `arrival`
    /// with `service_seconds` of projected device time.
    fn deadline_for(&self, arrival: f64, service_seconds: f64) -> f64 {
        arrival + self.multiplier() * service_seconds
    }
}

/// A job's service-level deadline, as submitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deadline {
    /// An absolute virtual time the job must complete by.
    At(f64),
    /// A class resolved against the job's projected service time at
    /// admission.
    Class(DeadlineClass),
}

impl Deadline {
    /// The absolute deadline, given the job's arrival and projected service
    /// seconds.
    pub fn resolve(&self, arrival: f64, service_seconds: f64) -> f64 {
        match *self {
            Deadline::At(t) => t,
            Deadline::Class(class) => class.deadline_for(arrival, service_seconds),
        }
    }
}

/// What the admission controller does with jobs whose deadline cannot be
/// met.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionMode {
    /// Admit everything; deadlines are recorded but never enforced
    /// (the pre-admission-control behavior).
    #[default]
    AdmitAll,
    /// Refuse infeasible jobs outright; they never run.
    Reject,
    /// Like [`Reject`](AdmissionMode::Reject), but the static margin of
    /// zero is replaced by the per-tier/per-class margin a
    /// [`MarginModel`](crate::calibration::MarginModel) has learned from
    /// realized estimate errors (zero remains the fallback until the model
    /// has samples).
    Calibrated,
}

/// Tuning of the admission controller.
///
/// All margins in this module are **seconds of virtual time**: a margin of
/// `m` demands the projected completion beat the deadline by at least `m`
/// seconds (negative `m` tolerates projections up to `-m` seconds past it).
/// Outside [`AdmissionMode::Calibrated`] the margin is zero: the projection
/// need only meet the deadline.
///
/// The default is admit-all with backlog-only (decay-blind) projections.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmissionConfig {
    /// What to do with jobs whose deadline the projection says will be
    /// missed.
    pub mode: AdmissionMode,
    /// Whether feasibility projections model the fair-share queue under
    /// virtual-time usage decay
    /// ([`estimate_feasibility_decayed`](qoncord_cloud::policy::estimate_feasibility_decayed)):
    /// queued work the job outranks no longer counts against it, and decay
    /// epochs projected to pass before its start re-rank the queue the way
    /// dispatch will. Off, projections charge every device's whole backlog
    /// (the pre-calibration behavior).
    ///
    /// Both projections stay because each is better somewhere. Decay-aware
    /// under every mode made the admit-all `engine_churn` workload ~20 %
    /// slower (2-vCPU host). Following the mode would loosen a static
    /// `Reject` controller: under `admission_calibration --paper` its SLA
    /// attainment drops 1.000 → 0.688, with 4 jobs denied instead of 21.
    pub decay_aware: bool,
}

impl AdmissionConfig {
    /// A controller in the given mode with the default projection model.
    pub fn with_mode(mode: AdmissionMode) -> Self {
        AdmissionConfig {
            mode,
            ..AdmissionConfig::default()
        }
    }

    /// The calibrated closed loop: learned margins and decay-aware
    /// projections.
    pub fn calibrated() -> Self {
        AdmissionConfig {
            mode: AdmissionMode::Calibrated,
            decay_aware: true,
        }
    }
}

/// The controller's verdict on one arriving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Run with the resolved deadline (or no deadline at all).
    Admit,
    /// Do not run.
    Reject,
}

impl AdmissionDecision {
    /// Stable machine-readable name (trace serializations key on it).
    pub fn as_str(&self) -> &'static str {
        match self {
            AdmissionDecision::Admit => "admit",
            AdmissionDecision::Reject => "reject",
        }
    }
}

/// The full outcome: decision, the deadline that survives it, the
/// feasibility projection that justified it, and the margin it was judged
/// under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionOutcome {
    /// The verdict.
    pub decision: AdmissionDecision,
    /// The deadline the job carries forward: the resolved deadline when
    /// admitted with one, `None` when the job had none or was rejected.
    pub deadline: Option<f64>,
    /// The resolved deadline that was assessed, regardless of verdict
    /// (`None` only for deadline-free jobs).
    pub assessed_deadline: Option<f64>,
    /// The load projection the verdict was based on.
    pub estimate: FeasibilityEstimate,
    /// The margin (seconds) the feasibility check applied — zero, or the
    /// learned per-tier margin under [`AdmissionMode::Calibrated`].
    pub margin: f64,
}

/// Deadline-aware admission control over fleet-load projections.
///
/// # Examples
///
/// ```
/// use qoncord_cloud::policy::FeasibilityEstimate;
/// use qoncord_orchestrator::admission::{
///     AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionMode, Deadline,
/// };
///
/// let ctl = AdmissionController::new(AdmissionConfig::with_mode(AdmissionMode::Reject));
/// let estimate = FeasibilityEstimate {
///     queue_seconds: 10.0,
///     service_seconds: 20.0,
///     completion: 30.0,
/// };
/// // Projected to finish at t=30: a t=40 deadline admits, t=25 rejects.
/// let ok = ctl.assess(0.0, Some(Deadline::At(40.0)), estimate);
/// assert_eq!(ok.decision, AdmissionDecision::Admit);
/// assert_eq!(ok.deadline, Some(40.0));
/// let late = ctl.assess(0.0, Some(Deadline::At(25.0)), estimate);
/// assert_eq!(late.decision, AdmissionDecision::Reject);
/// // A learned margin overrides the zero one per assessment: −10s of
/// // margin (projections known to run 10s cold) admits the t=25 deadline.
/// let relearned = ctl.assess_with_margin(0.0, Some(Deadline::At(25.0)), estimate, -10.0);
/// assert_eq!(relearned.decision, AdmissionDecision::Admit);
/// assert_eq!(relearned.margin, -10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmissionController {
    config: AdmissionConfig,
}

impl AdmissionController {
    /// Creates a controller with the given configuration.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController { config }
    }

    /// Assesses one arriving job: `deadline` is the job's submitted SLA (if
    /// any), `arrival` its submission time, and `estimate` the fleet-load
    /// projection of its placements. Feasibility uses a margin of zero.
    pub fn assess(
        &self,
        arrival: f64,
        deadline: Option<Deadline>,
        estimate: FeasibilityEstimate,
    ) -> AdmissionOutcome {
        self.assess_with_margin(arrival, deadline, estimate, 0.0)
    }

    /// Assesses one arriving job under an explicit safety `margin`
    /// (seconds; negative loosens the check). This is the entry point for
    /// [`AdmissionMode::Calibrated`]: the engine passes the margin its
    /// [`MarginModel`](crate::calibration::MarginModel) has learned for the
    /// job's tier and service class.
    pub fn assess_with_margin(
        &self,
        arrival: f64,
        deadline: Option<Deadline>,
        estimate: FeasibilityEstimate,
        margin: f64,
    ) -> AdmissionOutcome {
        let Some(deadline) = deadline.map(|d| d.resolve(arrival, estimate.service_seconds)) else {
            return AdmissionOutcome {
                decision: AdmissionDecision::Admit,
                deadline: None,
                assessed_deadline: None,
                estimate,
                margin,
            };
        };
        let feasible = estimate.meets(deadline, margin);
        let decision = match self.config.mode {
            AdmissionMode::AdmitAll => AdmissionDecision::Admit,
            _ if feasible => AdmissionDecision::Admit,
            AdmissionMode::Reject | AdmissionMode::Calibrated => AdmissionDecision::Reject,
        };
        AdmissionOutcome {
            decision,
            deadline: (decision == AdmissionDecision::Admit).then_some(deadline),
            assessed_deadline: Some(deadline),
            estimate,
            margin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(queue: f64, service: f64, now: f64) -> FeasibilityEstimate {
        FeasibilityEstimate {
            queue_seconds: queue,
            service_seconds: service,
            completion: now + queue + service,
        }
    }

    #[test]
    fn classes_order_strictest_first() {
        assert!(DeadlineClass::Interactive.multiplier() < DeadlineClass::Standard.multiplier());
        assert!(DeadlineClass::Standard.multiplier() < DeadlineClass::Batch.multiplier());
        assert_eq!(DeadlineClass::Interactive.deadline_for(10.0, 5.0), 20.0);
    }

    #[test]
    fn deadline_free_jobs_always_admit() {
        let ctl = AdmissionController::new(AdmissionConfig::with_mode(AdmissionMode::Reject));
        let out = ctl.assess(0.0, None, estimate(1e9, 1.0, 0.0));
        assert_eq!(out.decision, AdmissionDecision::Admit);
        assert_eq!(out.deadline, None);
        assert_eq!(out.assessed_deadline, None);
    }

    #[test]
    fn feasible_deadlines_admit_in_every_mode() {
        for mode in [
            AdmissionMode::AdmitAll,
            AdmissionMode::Reject,
            AdmissionMode::Calibrated,
        ] {
            let ctl = AdmissionController::new(AdmissionConfig::with_mode(mode));
            let out = ctl.assess(0.0, Some(Deadline::At(100.0)), estimate(10.0, 20.0, 0.0));
            assert_eq!(out.decision, AdmissionDecision::Admit, "{mode:?}");
            assert_eq!(out.deadline, Some(100.0));
        }
    }

    #[test]
    fn infeasible_deadline_admits_or_rejects_by_mode() {
        let hopeless = estimate(50.0, 20.0, 0.0); // completes at 70
        let deadline = Some(Deadline::At(60.0));
        let admit_all = AdmissionController::default().assess(0.0, deadline, hopeless);
        assert_eq!(admit_all.decision, AdmissionDecision::Admit);
        assert_eq!(
            admit_all.deadline,
            Some(60.0),
            "AdmitAll keeps the SLA on record"
        );

        let reject = AdmissionController::new(AdmissionConfig::with_mode(AdmissionMode::Reject))
            .assess(0.0, deadline, hopeless);
        assert_eq!(reject.decision, AdmissionDecision::Reject);
        assert_eq!(reject.deadline, None, "a rejected job carries no SLA");
        assert_eq!(reject.assessed_deadline, Some(60.0));
    }

    #[test]
    fn margin_tightens_feasibility() {
        let ctl = AdmissionController::new(AdmissionConfig::with_mode(AdmissionMode::Reject));
        let est = estimate(10.0, 10.0, 0.0); // completes at 20
        let deadline = Some(Deadline::At(25.0));
        let assess = |margin| ctl.assess_with_margin(0.0, deadline, est, margin);
        assert_eq!(assess(0.0).decision, AdmissionDecision::Admit);
        assert_eq!(
            assess(0.0),
            ctl.assess(0.0, deadline, est),
            "assess is margin 0"
        );
        assert_eq!(assess(10.0).decision, AdmissionDecision::Reject);
    }

    #[test]
    fn class_deadlines_resolve_against_projected_service() {
        let ctl = AdmissionController::new(AdmissionConfig::with_mode(AdmissionMode::Reject));
        // Interactive allows 2× service: 20s of service admits only if the
        // queue delay stays within another 20s.
        let ok = ctl.assess(
            5.0,
            Some(Deadline::Class(DeadlineClass::Interactive)),
            estimate(10.0, 20.0, 5.0),
        );
        assert_eq!(ok.decision, AdmissionDecision::Admit);
        assert_eq!(ok.deadline, Some(45.0));
        let late = ctl.assess(
            5.0,
            Some(Deadline::Class(DeadlineClass::Interactive)),
            estimate(25.0, 20.0, 5.0),
        );
        assert_eq!(late.decision, AdmissionDecision::Reject);
    }
}
