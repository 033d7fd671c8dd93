//! Per-job and fleet-level telemetry of an orchestration run: wait times,
//! makespans, device-seconds, lease cost, released reservations, eviction
//! counts, wasted-work seconds, SLA attainment, and the admission
//! calibration trail (margin applied, realized estimate error, and the
//! margin model's per-tier learning history).
//!
//! # Examples
//!
//! Derived job metrics are pure functions of the recorded fields:
//!
//! ```
//! use qoncord_orchestrator::telemetry::JobTelemetry;
//!
//! let mut t = JobTelemetry::new(5.0, 2);
//! t.first_start = Some(7.0);
//! t.completion = Some(19.0);
//! t.deadline = Some(20.0);
//! t.device_seconds = vec![4.0, 6.0];
//! assert_eq!(t.wait_time(), Some(2.0));
//! assert_eq!(t.turnaround(), Some(14.0));
//! assert_eq!(t.busy_seconds(), 10.0);
//! assert_eq!(t.sla_met(), Some(true));
//! ```

use crate::calibration::MarginSnapshot;
use qoncord_cloud::policy::FeasibilityEstimate;
use qoncord_core::executor::RejectedDevice;
use qoncord_core::scheduler::QoncordReport;

/// Timing and resource accounting of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTelemetry {
    /// Submission time.
    pub arrival: f64,
    /// When the first batch started (None if the job never ran).
    pub first_start: Option<f64>,
    /// When the last batch completed (None if the job never finished).
    pub completion: Option<f64>,
    /// Absolute deadline the job ran under, post-admission (None for
    /// best-effort jobs).
    pub deadline: Option<f64>,
    /// Always `false`: admission no longer strips a deadline. Kept only
    /// because the end-to-end benchmark still reads it.
    pub downgraded: bool,
    /// The admission-time projection of the job's completion from fleet
    /// load (recorded for every job that reached admission).
    pub admission_estimate: Option<FeasibilityEstimate>,
    /// The safety margin (seconds) admission judged the job's deadline
    /// under — the static configuration value, or the learned per-tier
    /// margin in calibrated mode (`None` for deadline-free jobs, which are
    /// never judged).
    pub admission_margin: Option<f64>,
    /// Realized estimate error, seconds: completion minus the projected
    /// completion (positive = the projection was optimistic). `None` until
    /// the job completes.
    pub estimate_error: Option<f64>,
    /// Device-seconds leased, per fleet device index.
    pub device_seconds: Vec<f64>,
    /// Circuit executions consumed across the fleet.
    pub executions: u64,
    /// Lease cost: device-seconds × each device's price.
    pub cost: f64,
    /// Provisional reservations released when triage pruned their restarts.
    pub released_reservations: usize,
    /// Device-seconds those released reservations had claimed.
    pub released_seconds: f64,
    /// Times one of the job's leases was evicted by a more urgent tenant.
    pub evictions: usize,
    /// Device-seconds of lease occupancy those evictions wasted.
    pub wasted_seconds: f64,
    /// Number of shards the job's restarts were fanned into (1 = unsplit).
    pub shards: usize,
}

impl JobTelemetry {
    /// An empty record for a job submitted at `arrival` against an
    /// `n_devices`-device fleet (all counters zero, nothing started).
    pub fn new(arrival: f64, n_devices: usize) -> Self {
        JobTelemetry {
            arrival,
            first_start: None,
            completion: None,
            deadline: None,
            downgraded: false,
            admission_estimate: None,
            admission_margin: None,
            estimate_error: None,
            device_seconds: vec![0.0; n_devices],
            executions: 0,
            cost: 0.0,
            released_reservations: 0,
            released_seconds: 0.0,
            evictions: 0,
            wasted_seconds: 0.0,
            shards: 1,
        }
    }

    /// Seconds between submission and the first granted batch.
    pub fn wait_time(&self) -> Option<f64> {
        self.first_start.map(|s| s - self.arrival)
    }

    /// Seconds between submission and completion.
    pub fn turnaround(&self) -> Option<f64> {
        self.completion.map(|c| c - self.arrival)
    }

    /// Total device-seconds leased. Because a job is internally sequential,
    /// this is also its solo (uncontended) makespan.
    pub fn busy_seconds(&self) -> f64 {
        self.device_seconds.iter().sum()
    }

    /// Whether the job met its deadline: `Some(true/false)` when it ran
    /// under one and completed, `None` for best-effort or unfinished jobs.
    pub fn sla_met(&self) -> Option<bool> {
        match (self.deadline, self.completion) {
            (Some(deadline), Some(completion)) => Some(completion <= deadline),
            _ => None,
        }
    }
}

/// How a job ended.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// The job ran to completion; `report` is identical in structure (and,
    /// for the same ladder, in content) to the closed-loop scheduler's.
    Completed {
        /// The training outcome.
        report: QoncordReport,
    },
    /// No fleet device passed the job's fidelity filter.
    Rejected {
        /// The rejected devices and reasons.
        rejected: Vec<RejectedDevice>,
    },
    /// Admission control declined the job: the fleet-load projection said
    /// its deadline could not be met.
    Denied {
        /// The projection that condemned it.
        estimate: FeasibilityEstimate,
        /// The deadline it could not meet.
        deadline: f64,
    },
}

impl JobStatus {
    /// Whether the job completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobStatus::Completed { .. })
    }

    /// Whether admission control denied the job.
    pub fn is_denied(&self) -> bool {
        matches!(self, JobStatus::Denied { .. })
    }

    /// The training report, if the job completed.
    pub fn report(&self) -> Option<&QoncordReport> {
        match self {
            JobStatus::Completed { report } => Some(report),
            JobStatus::Rejected { .. } | JobStatus::Denied { .. } => None,
        }
    }
}

/// One job's record in the orchestration report.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id (as submitted).
    pub id: usize,
    /// Submitting tenant.
    pub tenant: String,
    /// Dispatch priority, as submitted.
    pub priority: u32,
    /// How the job ended.
    pub status: JobStatus,
    /// Timing and resource telemetry.
    pub telemetry: JobTelemetry,
}

/// One fleet device's aggregate accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTelemetry {
    /// Device name.
    pub name: String,
    /// Seconds the device spent executing leased batches.
    pub busy_seconds: f64,
    /// Seconds of lease occupancy evictions wasted on this device.
    pub wasted_seconds: f64,
    /// Leases recalled from this device by preemption.
    pub evictions: u64,
    /// Circuit executions completed.
    pub executions: u64,
}

/// Fleet-level accounting of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTelemetry {
    /// Per-device accounting, fleet order.
    pub devices: Vec<DeviceTelemetry>,
    /// Virtual time of the last batch completion (0 when nothing ran).
    pub makespan: f64,
}

impl FleetTelemetry {
    /// Per-device utilization: busy seconds over the fleet makespan.
    pub fn utilization(&self) -> Vec<f64> {
        let busy: Vec<f64> = self.devices.iter().map(|d| d.busy_seconds).collect();
        qoncord_cloud::sim::utilization(&busy, self.makespan)
    }

    /// Mean utilization across the fleet.
    pub fn mean_utilization(&self) -> f64 {
        let busy: Vec<f64> = self.devices.iter().map(|d| d.busy_seconds).collect();
        qoncord_cloud::sim::mean_utilization(&busy, self.makespan)
    }

    /// Leases recalled by preemption across the fleet.
    pub fn total_evictions(&self) -> u64 {
        self.devices.iter().map(|d| d.evictions).sum()
    }

    /// Device-seconds evictions wasted across the fleet.
    pub fn total_wasted_seconds(&self) -> f64 {
        self.devices.iter().map(|d| d.wasted_seconds).sum()
    }
}

/// A tenant's fair-share balance when the run ended: real consumption
/// minus whatever decay erased, with every job-scoped credit already
/// charged back. This is the number the next run's dispatch priorities
/// would start from — the decay/credit regression tests pin it.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantUsage {
    /// The tenant.
    pub tenant: String,
    /// Fair-share consumed-seconds balance at the end of the run.
    pub consumed_seconds: f64,
}

/// The orchestrator's full output.
#[derive(Debug, Clone)]
pub struct OrchestratorReport {
    /// Per-job records, in submission order.
    pub jobs: Vec<JobRecord>,
    /// Fleet-level accounting.
    pub fleet: FleetTelemetry,
    /// End-of-run fair-share balances, sorted by tenant.
    pub tenant_usage: Vec<TenantUsage>,
    /// Queue-operation counters of the run's fair-share dispatch queue
    /// (pushes, pops, cancels, amortized index rebuilds, incremental
    /// backlog refreshes) — the observability hook for spotting an
    /// "O(log n)" path that regressed to rescans.
    pub queue_ops: qoncord_cloud::fairshare::QueueOpStats,
    /// The margin model's learning history, in ingestion order: one entry
    /// per completed (error sample) or denied (no sample) job, carrying the
    /// per-tier margin in force after the outcome, folded from the stream's
    /// calibration-update events. Empty when no job reached admission.
    pub calibration: Vec<MarginSnapshot>,
    /// Aggregates of the run's event stream, from the same fold as the
    /// telemetry: event counts, log-scale histograms of wait / turnaround /
    /// queue depth / per-device backlog — populated whether or not a
    /// [`TraceSink`](crate::trace::TraceSink) was attached.
    pub trace: crate::trace::TraceSummary,
    /// Wall-clock cost attribution of the run: a snapshot of the
    /// [`Profiler`](qoncord_prof::Profiler) installed on the running thread
    /// (empty when none was), with folded span paths from the engine event
    /// loop down through queue ops, transpilation, and sim kernels. Export
    /// with [`qoncord_prof::folded_export`] or merge into the Perfetto
    /// timeline via [`chrome_export_with_profile`](crate::trace::chrome_export_with_profile).
    pub perf: qoncord_prof::ProfileReport,
}

impl OrchestratorReport {
    /// A tenant's end-of-run fair-share balance (0.0 for unknown tenants).
    pub fn tenant_balance(&self, tenant: &str) -> f64 {
        self.tenant_usage
            .iter()
            .find(|t| t.tenant == tenant)
            .map_or(0.0, |t| t.consumed_seconds)
    }

    /// Virtual time of the last batch completion.
    pub fn makespan(&self) -> f64 {
        self.fleet.makespan
    }

    /// What running the same jobs back-to-back on the fleet would take:
    /// each job is internally sequential, so its solo makespan equals its
    /// leased device-seconds, and a serial schedule is their sum.
    pub fn sequential_makespan(&self) -> f64 {
        self.jobs.iter().map(|j| j.telemetry.busy_seconds()).sum()
    }

    /// Multi-tenant speedup over back-to-back execution (1.0 when nothing
    /// ran).
    pub fn speedup_vs_sequential(&self) -> f64 {
        if self.fleet.makespan <= 0.0 {
            return 1.0;
        }
        self.sequential_makespan() / self.fleet.makespan
    }

    /// Total lease cost across jobs.
    pub fn total_cost(&self) -> f64 {
        self.jobs.iter().map(|j| j.telemetry.cost).sum()
    }

    /// Mean wait time over the jobs that ran.
    pub fn mean_wait(&self) -> f64 {
        let waits: Vec<f64> = self
            .jobs
            .iter()
            .filter_map(|j| j.telemetry.wait_time())
            .collect();
        if waits.is_empty() {
            return 0.0;
        }
        waits.iter().sum::<f64>() / waits.len() as f64
    }

    /// Number of jobs that completed.
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.status.is_completed()).count()
    }

    /// Number of jobs admission control denied.
    pub fn denied(&self) -> usize {
        self.jobs.iter().filter(|j| j.status.is_denied()).count()
    }

    /// Lease evictions across the run.
    pub fn total_evictions(&self) -> u64 {
        self.fleet.total_evictions()
    }

    /// Device-seconds of occupancy evictions wasted across the run.
    pub fn total_wasted_seconds(&self) -> f64 {
        self.fleet.total_wasted_seconds()
    }

    /// Mean absolute realized estimate error over completed jobs (`None`
    /// when nothing completed with a recorded projection).
    pub fn mean_abs_estimate_error(&self) -> Option<f64> {
        let errors: Vec<f64> = self
            .jobs
            .iter()
            .filter_map(|j| j.telemetry.estimate_error)
            .collect();
        (!errors.is_empty())
            .then(|| errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len() as f64)
    }

    /// Fraction of deadline-carrying completed jobs that met their deadline
    /// (`None` when no job ran under a deadline).
    pub fn sla_attainment(&self) -> Option<f64> {
        let verdicts: Vec<bool> = self
            .jobs
            .iter()
            .filter_map(|j| j.telemetry.sla_met())
            .collect();
        (!verdicts.is_empty())
            .then(|| verdicts.iter().filter(|&&m| m).count() as f64 / verdicts.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_telemetry_derived_metrics() {
        let mut t = JobTelemetry::new(5.0, 2);
        assert_eq!(t.wait_time(), None);
        assert_eq!(t.sla_met(), None);
        t.first_start = Some(7.5);
        t.completion = Some(20.0);
        t.device_seconds = vec![3.0, 4.0];
        assert_eq!(t.wait_time(), Some(2.5));
        assert_eq!(t.turnaround(), Some(15.0));
        assert_eq!(t.busy_seconds(), 7.0);
        assert_eq!(t.sla_met(), None, "no deadline, no verdict");
        t.deadline = Some(25.0);
        assert_eq!(t.sla_met(), Some(true));
        t.deadline = Some(19.0);
        assert_eq!(t.sla_met(), Some(false));
    }

    #[test]
    fn fleet_utilization_bounds() {
        let fleet = FleetTelemetry {
            devices: vec![
                DeviceTelemetry {
                    name: "a".into(),
                    busy_seconds: 5.0,
                    wasted_seconds: 0.0,
                    evictions: 0,
                    executions: 10,
                },
                DeviceTelemetry {
                    name: "b".into(),
                    busy_seconds: 10.0,
                    wasted_seconds: 2.5,
                    evictions: 3,
                    executions: 20,
                },
            ],
            makespan: 10.0,
        };
        assert_eq!(fleet.utilization(), vec![0.5, 1.0]);
        assert!((fleet.mean_utilization() - 0.75).abs() < 1e-12);
        assert_eq!(fleet.total_evictions(), 3);
        assert!((fleet.total_wasted_seconds() - 2.5).abs() < 1e-12);
        let idle = FleetTelemetry {
            devices: fleet.devices.clone(),
            makespan: 0.0,
        };
        assert_eq!(idle.utilization(), vec![0.0, 0.0]);
    }

    #[test]
    fn tenant_rollups_group_and_count() {
        let record = |tenant: &str, deadline, completion| {
            let mut telemetry = JobTelemetry::new(0.0, 1);
            telemetry.deadline = deadline;
            telemetry.completion = completion;
            JobRecord {
                id: 0,
                tenant: tenant.into(),
                priority: 0,
                status: JobStatus::Completed {
                    report: QoncordReport {
                        restarts: vec![],
                        devices: vec![],
                        rejected: vec![],
                        ground_energy: 0.0,
                    },
                },
                telemetry,
            }
        };
        let report = OrchestratorReport {
            jobs: vec![
                record("a", Some(10.0), Some(8.0)),
                record("b", None, Some(5.0)),
                record("a", Some(10.0), Some(12.0)),
            ],
            fleet: FleetTelemetry {
                devices: vec![],
                makespan: 12.0,
            },
            tenant_usage: vec![TenantUsage {
                tenant: "a".into(),
                consumed_seconds: 13.0,
            }],
            queue_ops: qoncord_cloud::fairshare::QueueOpStats::default(),
            calibration: Vec::new(),
            trace: crate::trace::TraceSummary::default(),
            perf: qoncord_prof::ProfileReport::default(),
        };
        assert_eq!(report.tenant_balance("a"), 13.0);
        assert_eq!(report.tenant_balance("zzz"), 0.0);
        assert_eq!(report.sla_attainment(), Some(0.5));
    }

    /// Derived report metrics stay well-defined (never NaN) on degenerate
    /// inputs: an empty run, and a run where nothing ever executed.
    #[test]
    fn derived_metrics_are_nan_free_on_empty_and_zero_makespan_runs() {
        let empty = OrchestratorReport {
            jobs: vec![],
            fleet: FleetTelemetry {
                devices: vec![],
                makespan: 0.0,
            },
            tenant_usage: vec![],
            queue_ops: qoncord_cloud::fairshare::QueueOpStats::default(),
            calibration: Vec::new(),
            trace: crate::trace::TraceSummary::default(),
            perf: qoncord_prof::ProfileReport::default(),
        };
        assert_eq!(empty.speedup_vs_sequential(), 1.0);
        assert_eq!(empty.mean_wait(), 0.0);
        assert_eq!(empty.fleet.mean_utilization(), 0.0);
        assert_eq!(empty.mean_abs_estimate_error(), None);
        assert_eq!(empty.sla_attainment(), None);
        assert_eq!(empty.sequential_makespan(), 0.0);
        assert_eq!(empty.total_cost(), 0.0);
        assert!(empty.fleet.utilization().is_empty());

        // Devices exist but nothing ran: makespan 0 must not divide.
        let idle = OrchestratorReport {
            jobs: vec![],
            fleet: FleetTelemetry {
                devices: vec![DeviceTelemetry {
                    name: "a".into(),
                    busy_seconds: 0.0,
                    wasted_seconds: 0.0,
                    evictions: 0,
                    executions: 0,
                }],
                makespan: 0.0,
            },
            ..empty.clone()
        };
        assert_eq!(idle.speedup_vs_sequential(), 1.0);
        assert_eq!(idle.fleet.mean_utilization(), 0.0);
        assert_eq!(idle.fleet.utilization(), vec![0.0]);
        assert!(!idle.fleet.mean_utilization().is_nan());
    }
}
