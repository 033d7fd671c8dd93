//! # qoncord-orchestrator
//!
//! Multi-tenant job orchestration for the Qoncord reproduction: a stream of
//! *real* VQA jobs — QAOA/VQE training runs with restarts, triage, and
//! progressive fine-tuning from `qoncord-core` — executed concurrently
//! against a shared device fleet on a discrete-event virtual clock.
//!
//! This crate bridges the repo's two previously separate layers:
//!
//! - `qoncord-core` trains one job at a time against private device lanes;
//! - `qoncord-cloud` simulates queues over abstract job durations.
//!
//! Here every optimizer batch of every tenant becomes a preemptible device
//! lease, so low-fidelity exploration, cluster triage, and high-fidelity
//! fine-tuning from different tenants interleave on real shared hardware
//! models. The pieces:
//!
//! - [`job`] — tenant job specs (arrival, priority, deadline, restarts,
//!   workload).
//! - [`fleet`] — the shared fleet: calibrations + market metadata.
//! - [`lease`] — explicit device leases: holder, duration, checkpointed
//!   optimizer state, and the one-active-lease-per-device ledger that
//!   grants, completes and evicts them.
//! - [`admission`] — deadline-aware admission control: feasibility
//!   projections from fleet load decide whether a job's SLA is keepable,
//!   rejecting it otherwise. Projections can be *decay-aware*: queue
//!   position is modeled the way fair-share dispatch under virtual-time
//!   usage decay will actually order it.
//! - [`calibration`] — the closed loop behind
//!   [`AdmissionMode::Calibrated`](admission::AdmissionMode):
//!   realized-vs-projected completion errors per device tier and service
//!   class, distilled into sliding-window quantile margins that replace
//!   the static safety margin.
//! - [`engine`] — the event loop: fair-share lease dispatch (reusing
//!   [`qoncord_cloud::fairshare`]), ladder selection per arrival (reusing
//!   [`qoncord_cloud::policy::place_job`]), urgency-based lease preemption
//!   bounded by an anti-starvation eviction budget, virtual-time usage
//!   decay, and pruning-aware cancellation of reservations when restart
//!   triage kills work mid-flight. One thread pops events in
//!   `(time, seq)` order, and the simulator below it is single-threaded
//!   too.
//! - [`split`] — QuSplit-style restart splitting: one job's restarts
//!   fanned across same-tier devices as concurrent sub-leases (fan-out
//!   width chosen from live load), with merges bit-identical to the
//!   unsplit run on twin devices.
//! - [`replay`] — adapts [`qoncord_cloud::workload`] arrival traces into
//!   tenant jobs so the paper's pseudo-workload drives the orchestrator.
//! - [`telemetry`] — per-job wait/makespan/device-seconds/cost, eviction
//!   and wasted-work accounting, per-tenant SLA attainment, and fleet
//!   utilization.
//! - [`trace`] — the flight recorder: every engine decision as a typed
//!   [`TraceEvent`] through pluggable sinks, with
//!   latency histograms on the report, a Perfetto/Chrome timeline
//!   exporter, and a replayer that rebuilds the report's telemetry from
//!   the event stream alone.
//!
//! Per-job numeric results are **identical** to the closed-loop
//! [`qoncord_core::scheduler::QoncordScheduler`] given the same ladder and
//! seeds — multi-tenancy *and preemption* change only the timing, which is
//! the point: the fleet makespan of N concurrent jobs is strictly below the
//! sum of their solo makespans, and an evicted job resumes from its
//! checkpoint bit-identically.
//!
//! ## Example
//!
//! Run one deadline-carrying job under calibrated admission control:
//!
//! ```
//! use qoncord_core::executor::QaoaFactory;
//! use qoncord_core::scheduler::QoncordConfig;
//! use qoncord_orchestrator::{
//!     two_lf_one_hf_fleet, AdmissionConfig, Orchestrator, OrchestratorConfig, TenantJob,
//! };
//! use qoncord_vqa::{graph::Graph, maxcut::MaxCut};
//!
//! let factory = QaoaFactory {
//!     problem: MaxCut::new(Graph::paper_graph_7()),
//!     layers: 1,
//! };
//! let job = TenantJob::new(0, "alice", 0.0, Box::new(factory))
//!     .with_config(QoncordConfig {
//!         exploration_max_iterations: 4,
//!         finetune_max_iterations: 5,
//!         ..QoncordConfig::default()
//!     })
//!     .with_restarts(2)
//!     .with_deadline(1e6);
//! let orchestrator = Orchestrator::new(
//!     OrchestratorConfig {
//!         admission: AdmissionConfig::calibrated(),
//!         ..OrchestratorConfig::default()
//!     },
//!     two_lf_one_hf_fleet(),
//! );
//! let report = orchestrator.run(&[job]);
//! assert_eq!(report.completed(), 1);
//! assert_eq!(report.sla_attainment(), Some(1.0));
//! // The realized outcome fed the margin model: the learning history is
//! // visible in telemetry.
//! assert!(!report.calibration.is_empty());
//! ```

#![warn(missing_docs)]

mod driver;
mod events;

pub mod admission;
pub mod calibration;
pub mod engine;
pub mod fleet;
pub mod job;
pub mod lease;
pub mod replay;
pub mod split;
pub mod telemetry;
pub mod trace;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionMode, AdmissionOutcome,
    Deadline, DeadlineClass,
};
pub use calibration::{CalibrationConfig, MarginKey, MarginModel, MarginSnapshot, ServiceClass};
pub use engine::{Orchestrator, OrchestratorConfig, PreemptionConfig, UsageDecayConfig};
pub use fleet::{two_lf_one_hf_fleet, two_lf_two_hf_fleet, FleetDevice, FleetDeviceError};
pub use job::TenantJob;
pub use lease::{EvictedLease, Lease, LeaseLedger, LeaseTerms, Urgency};
pub use replay::{replay_workload, ReplayConfig};
pub use split::SplitConfig;
pub use telemetry::{
    DeviceTelemetry, FleetTelemetry, JobRecord, JobStatus, JobTelemetry, OrchestratorReport,
    TenantSla, TenantUsage,
};
pub use trace::{
    chrome_export, chrome_export_with_profile, validate_chrome_trace, JsonlSink, LogHistogram,
    MemorySink, TraceEvent, TraceHandle, TraceRecord, TraceSink, TraceSummary, CHROME_FLEET_PID,
    CHROME_JOBS_PID, CHROME_PROF_PID,
};

#[cfg(test)]
mod tests {
    use super::*;
    use qoncord_cloud::policy::Policy;
    use qoncord_core::executor::QaoaFactory;
    use qoncord_core::scheduler::QoncordConfig;
    use qoncord_vqa::graph::Graph;
    use qoncord_vqa::maxcut::MaxCut;

    fn quick_config(seed: u64) -> QoncordConfig {
        QoncordConfig {
            exploration_max_iterations: 6,
            finetune_max_iterations: 8,
            seed,
            ..QoncordConfig::default()
        }
    }

    fn job(id: usize, arrival: f64, seed: u64) -> TenantJob {
        let factory = QaoaFactory {
            problem: MaxCut::new(Graph::paper_graph_7()),
            layers: 1,
        };
        TenantJob::new(id, format!("tenant-{id}"), arrival, Box::new(factory))
            .with_restarts(2)
            .with_config(quick_config(seed))
    }

    fn orchestrator(policy: Policy) -> Orchestrator {
        Orchestrator::new(
            OrchestratorConfig {
                policy,
                ..OrchestratorConfig::default()
            },
            two_lf_one_hf_fleet(),
        )
    }

    #[test]
    fn solo_job_makespan_equals_its_busy_seconds() {
        // A single tenant never waits: its makespan is exactly the sum of
        // its batch durations — the identity sequential_makespan() rests on.
        let report = orchestrator(Policy::Qoncord).run(&[job(0, 0.0, 5)]);
        assert_eq!(report.completed(), 1);
        let t = &report.jobs[0].telemetry;
        assert_eq!(t.wait_time(), Some(0.0));
        assert!((report.makespan() - t.busy_seconds()).abs() < 1e-9);
        assert!((report.speedup_vs_sequential() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_tenants_beat_back_to_back_execution() {
        let jobs: Vec<TenantJob> = (0..4).map(|i| job(i, 0.0, 40 + i as u64)).collect();
        let report = orchestrator(Policy::Qoncord).run(&jobs);
        assert_eq!(report.completed(), 4);
        assert!(
            report.makespan() < report.sequential_makespan(),
            "sharing the fleet must beat serial execution: {} vs {}",
            report.makespan(),
            report.sequential_makespan()
        );
        assert!(report.speedup_vs_sequential() > 1.0);
        // Work conservation: fleet busy time equals the jobs' leased time.
        let fleet_busy: f64 = report.fleet.devices.iter().map(|d| d.busy_seconds).sum();
        assert!((fleet_busy - report.sequential_makespan()).abs() < 1e-6);
        for u in report.fleet.utilization() {
            assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
    }

    #[test]
    fn best_fidelity_policy_uses_only_the_hf_device() {
        let jobs: Vec<TenantJob> = (0..2).map(|i| job(i, 0.0, 7 + i as u64)).collect();
        let report = orchestrator(Policy::BestFidelity).run(&jobs);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.fleet.devices[0].executions, 0, "lf_east idle");
        assert_eq!(report.fleet.devices[1].executions, 0, "lf_west idle");
        assert!(report.fleet.devices[2].executions > 0, "hf_core busy");
    }

    #[test]
    fn qoncord_policy_is_cheaper_than_hf_only() {
        // The cost claim in miniature: exploration on cheap LF devices
        // lowers the lease bill relative to the HF-only baseline.
        let jobs =
            |n: usize| -> Vec<TenantJob> { (0..n).map(|i| job(i, 0.0, 90 + i as u64)).collect() };
        let q = orchestrator(Policy::Qoncord).run(&jobs(3));
        let hf = orchestrator(Policy::BestFidelity).run(&jobs(3));
        assert!(
            q.total_cost() < hf.total_cost(),
            "Qoncord {} vs HF-only {}",
            q.total_cost(),
            hf.total_cost()
        );
    }

    #[test]
    fn triage_releases_provisional_reservations() {
        let factory = QaoaFactory {
            problem: MaxCut::new(Graph::paper_graph_7()),
            layers: 1,
        };
        let cfg = QoncordConfig {
            selection: qoncord_core::SelectionPolicy::TopK(2),
            ..quick_config(3)
        };
        let spec = TenantJob::new(0, "pruner", 0.0, Box::new(factory))
            .with_restarts(6)
            .with_config(cfg);
        let report = orchestrator(Policy::Qoncord).run(&[spec]);
        let t = &report.jobs[0].telemetry;
        assert_eq!(t.released_reservations, 4, "TopK(2) of 6 releases 4 holds");
        assert!(t.released_seconds > 0.0);
    }

    #[test]
    fn higher_priority_job_is_dispatched_first() {
        // Three tenants contend for the single HF device: job 0 is granted
        // the idle device on arrival, jobs 1 and 2 queue behind its first
        // batch; the high-priority one must be granted before the other.
        let fleet = vec![two_lf_one_hf_fleet().remove(2)];
        let orch = Orchestrator::new(
            OrchestratorConfig {
                policy: Policy::BestFidelity,
                ..OrchestratorConfig::default()
            },
            fleet,
        );
        let jobs = vec![
            job(0, 0.0, 1),
            job(1, 0.0, 2),
            job(2, 0.0, 3).with_priority(4),
        ];
        let report = orch.run(&jobs);
        assert_eq!(report.completed(), 3);
        let start = |i: usize| report.jobs[i].telemetry.first_start.unwrap();
        assert!(
            start(2) < start(1),
            "priority 4 job must start before the earlier priority 0 job: {} vs {}",
            start(2),
            start(1)
        );
    }

    #[test]
    fn rejected_priority_job_grants_no_lasting_credit() {
        // A high-priority job whose admission fails must not leave usage
        // credit behind for its tenant: the tenant's later normal job has
        // to queue behind an earlier request on plain FIFO terms.
        let fleet = vec![two_lf_one_hf_fleet().remove(2)];
        let orch = Orchestrator::new(
            OrchestratorConfig {
                policy: Policy::BestFidelity,
                ..OrchestratorConfig::default()
            },
            fleet,
        );
        let rejected_factory = QaoaFactory {
            problem: MaxCut::new(Graph::paper_graph_7()),
            layers: 1,
        };
        let rejected_cfg = QoncordConfig {
            min_fidelity: 0.999,
            ..quick_config(9)
        };
        let mut filler = job(0, 0.0, 1);
        filler.tenant = "w".into();
        let mut first_in_line = job(1, 0.0, 2);
        first_in_line.tenant = "u".into();
        let rejected = TenantJob::new(2, "t", 0.0, Box::new(rejected_factory))
            .with_priority(9)
            .with_config(rejected_cfg);
        let mut latecomer = job(3, 0.001, 3);
        latecomer.tenant = "t".into();
        let report = orch.run(&[filler, first_in_line, rejected, latecomer]);
        assert!(!report.jobs[2].status.is_completed());
        let start = |i: usize| report.jobs[i].telemetry.first_start.unwrap();
        assert!(
            start(1) < start(3),
            "tenant t must not inherit credit from its rejected priority job: {} vs {}",
            start(1),
            start(3)
        );
    }

    #[test]
    fn rejected_jobs_are_reported_not_run() {
        let factory = QaoaFactory {
            problem: MaxCut::new(Graph::paper_graph_7()),
            layers: 1,
        };
        let cfg = QoncordConfig {
            min_fidelity: 0.999,
            ..quick_config(1)
        };
        let spec = TenantJob::new(0, "unlucky", 0.0, Box::new(factory)).with_config(cfg);
        let report = orchestrator(Policy::Qoncord).run(&[spec]);
        assert_eq!(report.completed(), 0);
        assert!(!report.jobs[0].status.is_completed());
        assert_eq!(report.jobs[0].telemetry.executions, 0);
        assert_eq!(report.makespan(), 0.0);
    }

    #[test]
    fn run_is_deterministic() {
        let mk = || -> Vec<TenantJob> { (0..3).map(|i| job(i, i as f64, 60 + i as u64)).collect() };
        let a = orchestrator(Policy::Qoncord).run(&mk());
        let b = orchestrator(Policy::Qoncord).run(&mk());
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.total_cost(), b.total_cost());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(
                x.status.report().map(|r| r.best_expectation()),
                y.status.report().map(|r| r.best_expectation())
            );
        }
    }

    /// A single-HF-device arena where job 1 arrives an instant after job 0
    /// has been granted the device, so it lands mid-lease.
    fn contended_pair(preempt: bool, shape: impl Fn(TenantJob) -> TenantJob) -> OrchestratorReport {
        let fleet = vec![two_lf_one_hf_fleet().remove(2)];
        let orch = Orchestrator::new(
            OrchestratorConfig {
                policy: Policy::BestFidelity,
                preemption: if preempt {
                    PreemptionConfig::enabled()
                } else {
                    PreemptionConfig::default()
                },
                ..OrchestratorConfig::default()
            },
            fleet,
        );
        orch.run(&[job(0, 0.0, 1), shape(job(1, 1e-4, 2))])
    }

    #[test]
    fn preemption_cuts_a_priority_arrivals_wait() {
        let np = contended_pair(false, |j| j.with_priority(3));
        let p = contended_pair(true, |j| j.with_priority(3));
        assert_eq!(np.completed(), 2);
        assert_eq!(p.completed(), 2);
        let wait = |r: &OrchestratorReport, i: usize| r.jobs[i].telemetry.wait_time().unwrap();
        assert!(
            wait(&np, 1) > 0.0,
            "without preemption the arrival waits out the running lease"
        );
        assert_eq!(wait(&p, 1), 0.0, "eviction grants the device immediately");
        assert!(p.total_evictions() >= 1);
        assert!(p.jobs[0].telemetry.evictions >= 1, "job 0 was the victim");
        assert!(p.jobs[0].telemetry.wasted_seconds > 0.0);
        assert!(p.total_wasted_seconds() > 0.0);
        // The victim's training outcome is untouched by the eviction.
        let best = |r: &OrchestratorReport, i: usize| {
            r.jobs[i].status.report().unwrap().best_expectation()
        };
        assert_eq!(best(&p, 0), best(&np, 0));
        assert_eq!(best(&p, 1), best(&np, 1));
        // Useful work is still conserved; only wasted occupancy is extra.
        let fleet_busy: f64 = p.fleet.devices.iter().map(|d| d.busy_seconds).sum();
        assert!((fleet_busy - p.sequential_makespan()).abs() < 1e-6);
    }

    #[test]
    fn deadline_pressure_preempts_equal_priority_leases() {
        // Both jobs are priority 0; the arrival's absurdly tight (but
        // formally valid) deadline makes it deadline-imminent on arrival,
        // which outranks a deadline-free holder of equal priority.
        let np = contended_pair(false, |j| j.with_deadline(2e-4));
        let p = contended_pair(true, |j| j.with_deadline(2e-4));
        assert!(p.total_evictions() >= 1, "imminence alone must evict");
        let wait = |r: &OrchestratorReport, i: usize| r.jobs[i].telemetry.wait_time().unwrap();
        assert!(wait(&p, 1) < wait(&np, 1));
        assert_eq!(
            p.jobs[1].telemetry.sla_met(),
            Some(false),
            "the impossible deadline is still missed — admission, not preemption, owns that"
        );
    }

    #[test]
    fn preemption_disabled_never_evicts() {
        let np = contended_pair(false, |j| j.with_priority(9).with_deadline(2e-4));
        assert_eq!(np.total_evictions(), 0);
        assert_eq!(np.total_wasted_seconds(), 0.0);
    }

    #[test]
    fn admission_reject_denies_infeasible_deadlines() {
        let orch = Orchestrator::new(
            OrchestratorConfig {
                admission: AdmissionConfig::with_mode(AdmissionMode::Reject),
                ..OrchestratorConfig::default()
            },
            two_lf_one_hf_fleet(),
        );
        let report = orch.run(&[job(0, 0.0, 1).with_deadline(1e-9), job(1, 0.0, 2)]);
        assert_eq!(report.denied(), 1);
        assert_eq!(report.completed(), 1, "the deadline-free job still runs");
        assert!(report.jobs[0].status.is_denied());
        assert_eq!(
            report.jobs[0].telemetry.executions, 0,
            "denied jobs never run"
        );
        match &report.jobs[0].status {
            JobStatus::Denied { estimate, deadline } => {
                assert_eq!(*deadline, 1e-9);
                assert!(estimate.completion > *deadline);
            }
            other => panic!("expected Denied, got {other:?}"),
        }
        let sla = report.tenant_sla();
        assert_eq!(sla[0].denied, 1);
    }

    #[test]
    fn feasible_deadlines_are_admitted_and_attained() {
        let orch = Orchestrator::new(
            OrchestratorConfig {
                admission: AdmissionConfig::with_mode(AdmissionMode::Reject),
                ..OrchestratorConfig::default()
            },
            two_lf_one_hf_fleet(),
        );
        let report = orch.run(&[job(0, 0.0, 1).with_deadline(1e9)]);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.jobs[0].telemetry.sla_met(), Some(true));
        assert_eq!(report.sla_attainment(), Some(1.0));
        let estimate = report.jobs[0].telemetry.admission_estimate.unwrap();
        assert!(estimate.service_seconds > 0.0);
    }

    #[test]
    fn both_lf_devices_absorb_exploration_under_load() {
        // With several tenants, the load-aware LF placement must spread
        // exploration over both cheap devices.
        let jobs: Vec<TenantJob> = (0..6).map(|i| job(i, i as f64 * 0.5, i as u64)).collect();
        let report = orchestrator(Policy::Qoncord).run(&jobs);
        assert_eq!(report.completed(), 6);
        assert!(report.fleet.devices[0].executions > 0, "lf_east used");
        assert!(report.fleet.devices[1].executions > 0, "lf_west used");
    }
}
