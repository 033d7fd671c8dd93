//! The run's accounting: [`ReportFold`] turns the event stream into the
//! report's per-job, fleet, calibration and summary numbers, live inside
//! the engine and over a captured slice in [`reconstruct_report`].

use super::{TraceEvent, TraceRecord, TraceSummary};
use crate::admission::AdmissionDecision;
use crate::calibration::MarginSnapshot;
use crate::telemetry::{
    DeviceTelemetry, FleetTelemetry, JobRecord, JobStatus, JobTelemetry, OrchestratorReport,
};
use qoncord_cloud::policy::FeasibilityEstimate;
use std::collections::HashMap;
use std::fmt;

/// How a replayed job ended (the trace does not carry training numerics or
/// per-device rejection reasons, so the payloads of
/// [`JobStatus`](crate::telemetry::JobStatus) reduce to these).
#[derive(Debug, Clone, PartialEq)]
pub enum ReconstructedOutcome {
    /// Ran to completion.
    Completed,
    /// The fidelity filter rejected every placement.
    FilterRejected {
        /// Devices the filter rejected.
        devices: usize,
    },
    /// Admission control denied the job.
    Denied {
        /// The projection that condemned it.
        estimate: FeasibilityEstimate,
        /// The deadline it could not meet.
        deadline: f64,
    },
}

/// One job rebuilt from the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructedJob {
    /// The id the submitter gave the job.
    pub id: usize,
    /// Submitting tenant.
    pub tenant: String,
    /// Requested priority.
    pub priority: u32,
    /// How it ended.
    pub outcome: ReconstructedOutcome,
    /// The rebuilt timing/resource record — field-for-field the engine's.
    pub telemetry: JobTelemetry,
}

/// A run's telemetry rebuilt from its event stream alone.
///
/// [`diff`](ReconstructedReport::diff) against the engine's own report is
/// the instrumentation-losslessness check: an empty diff proves every
/// number on the report is derivable from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructedReport {
    /// Per-job records, submission order.
    pub jobs: Vec<ReconstructedJob>,
    /// Fleet accounting, rebuilt from lease completions and evictions.
    pub fleet: FleetTelemetry,
    /// The calibration history, rebuilt from
    /// [`TraceEvent::CalibrationUpdate`] snapshots.
    pub calibration: Vec<MarginSnapshot>,
    /// Event counts and histograms of the stream. Every record is counted,
    /// orphaned ones included.
    pub trace: TraceSummary,
    /// Events skipped because they name a job or device whose `Arrival` /
    /// `DeviceDefined` the stream does not carry (0 for a complete capture;
    /// such jobs are absent from [`jobs`](Self::jobs)).
    pub orphaned: u64,
}

impl ReconstructedReport {
    /// Comparison against an engine report. Every discrepancy is one
    /// human-readable line; an empty result means the rebuild matches
    /// bit-for-bit (telemetry, fleet accounting, status kinds and denial
    /// payloads, calibration history, trace summary). Each engine job is
    /// first reduced to what its events carry; jobs are compared pair by
    /// pair only when the job counts match, the run-wide fields always.
    pub fn diff(&self, report: &OrchestratorReport) -> Vec<String> {
        let engine: Vec<ReconstructedJob> = report.jobs.iter().map(ReconstructedJob::of).collect();
        let mut diffs: Vec<String> = if self.jobs.len() == engine.len() {
            let pairs = self.jobs.iter().zip(&engine).enumerate();
            pairs
                .filter_map(|(i, (mine, theirs))| differs(&format!("job {i}"), mine, theirs))
                .collect()
        } else {
            vec![format!(
                "job count: rebuilt {} vs engine {}",
                self.jobs.len(),
                engine.len()
            )]
        };
        diffs.extend(differs("fleet", &self.fleet, &report.fleet));
        diffs.extend(differs(
            "calibration history",
            &self.calibration,
            &report.calibration,
        ));
        diffs.extend(differs("trace summary", &self.trace, &report.trace));
        diffs
    }
}

/// The discrepancy line of `what`, `None` when the two sides are equal.
fn differs<T: PartialEq + fmt::Debug>(what: &str, rebuilt: &T, engine: &T) -> Option<String> {
    (rebuilt != engine).then(|| format!("{what}:\n  rebuilt {rebuilt:?}\n  engine  {engine:?}"))
}

impl ReconstructedJob {
    /// The engine's record of a job, reduced to what its events carry.
    fn of(job: &JobRecord) -> Self {
        ReconstructedJob {
            id: job.id,
            tenant: job.tenant.clone(),
            priority: job.priority,
            outcome: match &job.status {
                JobStatus::Completed { .. } => ReconstructedOutcome::Completed,
                JobStatus::Rejected { rejected } => ReconstructedOutcome::FilterRejected {
                    devices: rejected.len(),
                },
                JobStatus::Denied { estimate, deadline } => ReconstructedOutcome::Denied {
                    estimate: *estimate,
                    deadline: *deadline,
                },
            },
            telemetry: job.telemetry.clone(),
        }
    }
}

/// Rebuilds per-job and fleet telemetry from a captured event stream
/// alone: the engine's own accounting fold run over `records` — the same
/// additions in the same order, so every rebuilt float is bit-identical to
/// the engine's.
///
/// A capture that lost its head (any suffix of a full capture) still
/// replays: events naming a job or device whose `Arrival` /
/// `DeviceDefined` is not in `records` are skipped and counted in
/// [`ReconstructedReport::orphaned`].
pub fn reconstruct_report(records: &[TraceRecord]) -> ReconstructedReport {
    let mut fold = ReportFold::default();
    for record in records {
        fold.apply(record);
    }
    fold.finish()
}

/// The run's accounting as a fold over its event stream — the only writer
/// of [`JobTelemetry`], [`FleetTelemetry`], the calibration history and the
/// [`TraceSummary`]. The engine's [`Tracer`](super::Tracer) feeds it every
/// event as it is emitted, reads its decision inputs back from it and
/// builds the report from it; [`reconstruct_report`] feeds it a captured
/// slice.
#[derive(Debug, Default)]
pub(super) struct ReportFold {
    /// Per fleet index: the lease price, `None` until its `DeviceDefined`.
    device_cost: Vec<Option<f64>>,
    devices: Vec<DeviceTelemetry>,
    makespan: f64,
    /// Per submission index: `None` until its `Arrival`.
    jobs: Vec<Option<ReconstructedJob>>,
    calibration: Vec<MarginSnapshot>,
    summary: TraceSummary,
    /// Queued reservations (batch requests and holds) → (device, seconds).
    queued: HashMap<usize, (usize, f64)>,
    /// Per fleet index: the queued seconds of `queued`.
    backlog: Vec<f64>,
    orphaned: u64,
}

impl ReportFold {
    pub(super) fn apply(&mut self, record: &TraceRecord) {
        self.summary.events.count(&record.event);
        if self.account(record).is_none() {
            self.orphaned += 1;
        }
    }

    pub(super) fn job(&self, job: usize) -> Option<&ReconstructedJob> {
        self.jobs.get(job)?.as_ref()
    }

    /// The lease price of a declared device.
    fn cost_per_second(&self, device: usize) -> Option<f64> {
        self.device_cost.get(device).copied().flatten()
    }

    fn sample_queue(&mut self, device: usize) {
        self.summary.queue_depth.record(self.queued.len() as f64);
        self.summary.device_backlog.record(self.backlog[device]);
    }

    fn enqueue(&mut self, reservation: usize, device: usize, seconds: f64) {
        if self.backlog.len() <= device {
            self.backlog.resize(device + 1, 0.0);
        }
        self.backlog[device] += seconds;
        self.queued.insert(reservation, (device, seconds));
        self.sample_queue(device);
    }

    fn dequeue(&mut self, reservation: usize) {
        if let Some((device, seconds)) = self.queued.remove(&reservation) {
            self.backlog[device] = (self.backlog[device] - seconds).max(0.0);
            self.sample_queue(device);
        }
    }

    /// Accounts one event; `None` when it names a job or device the stream
    /// has not declared. Queue samples need neither, so they are taken
    /// regardless; nothing else is touched.
    fn account(&mut self, record: &TraceRecord) -> Option<()> {
        match &record.event {
            TraceEvent::DeviceDefined {
                device,
                name,
                cost_per_second,
                ..
            } => {
                if self.devices.len() <= *device {
                    let n = device + 1;
                    self.device_cost.resize(n, None);
                    self.devices.resize_with(n, || DeviceTelemetry {
                        name: String::new(),
                        busy_seconds: 0.0,
                        wasted_seconds: 0.0,
                        evictions: 0,
                        executions: 0,
                    });
                    for job in self.jobs.iter_mut().flatten() {
                        job.telemetry.device_seconds.resize(n, 0.0);
                    }
                }
                self.devices[*device].name = name.clone();
                self.device_cost[*device] = Some(*cost_per_second);
            }
            TraceEvent::Arrival {
                job,
                id,
                tenant,
                priority,
            } => {
                if self.jobs.len() <= *job {
                    self.jobs.resize(job + 1, None);
                }
                self.jobs[*job] = Some(ReconstructedJob {
                    id: *id,
                    tenant: tenant.clone(),
                    priority: *priority,
                    // What a job still running when the stream ends reads as.
                    outcome: ReconstructedOutcome::Completed,
                    telemetry: JobTelemetry::new(record.time, self.devices.len()),
                });
            }
            TraceEvent::ShardPlan { job, shards, .. } => {
                self.jobs.get_mut(*job)?.as_mut()?.telemetry.shards = *shards;
            }
            TraceEvent::FilterRejected { job, devices } => {
                self.jobs.get_mut(*job)?.as_mut()?.outcome =
                    ReconstructedOutcome::FilterRejected { devices: *devices };
            }
            TraceEvent::AdmissionVerdict {
                job,
                decision,
                estimate,
                margin,
                deadline,
                assessed_deadline,
            } => {
                let s = self.jobs.get_mut(*job)?.as_mut()?;
                match decision {
                    AdmissionDecision::Reject => {
                        s.outcome = ReconstructedOutcome::Denied {
                            estimate: *estimate,
                            // The engine only denies deadline jobs; a
                            // captured denial without the deadline it was
                            // assessed against is malformed and skipped
                            // whole (nothing is written before this `?`).
                            deadline: (*assessed_deadline)?,
                        };
                    }
                    AdmissionDecision::Admit => {
                        s.telemetry.deadline = *deadline;
                    }
                }
                s.telemetry.admission_estimate = Some(*estimate);
                s.telemetry.admission_margin = *margin;
            }
            TraceEvent::QueuePush {
                reservation,
                device,
                seconds,
                ..
            }
            | TraceEvent::HoldPush {
                reservation,
                device,
                seconds,
                ..
            } => self.enqueue(*reservation, *device, *seconds),
            TraceEvent::LeaseGrant { reservation, .. } => self.dequeue(*reservation),
            TraceEvent::HoldRelease {
                reservation,
                job,
                seconds,
                pruned,
                ..
            } => {
                self.dequeue(*reservation);
                let s = self.jobs.get_mut(*job)?.as_mut()?;
                if *pruned {
                    s.telemetry.released_reservations += 1;
                    s.telemetry.released_seconds += seconds;
                }
            }
            TraceEvent::LeaseComplete {
                job,
                device,
                granted_at,
                seconds,
                executions,
                ..
            } => {
                let cost_per_second = self.cost_per_second(*device)?;
                let s = self.jobs.get_mut(*job)?.as_mut()?;
                // Time-to-first-service: the grant that actually delivered
                // compute, not a grant preemption later revoked.
                if s.telemetry.first_start.is_none() {
                    s.telemetry.first_start = Some(*granted_at);
                    self.summary.wait.record(granted_at - s.telemetry.arrival);
                }
                s.telemetry.device_seconds[*device] += seconds;
                s.telemetry.executions += executions;
                s.telemetry.cost += seconds * cost_per_second;
                self.makespan = self.makespan.max(record.time);
                self.devices[*device].busy_seconds += seconds;
                self.devices[*device].executions += executions;
            }
            TraceEvent::Eviction {
                job,
                device,
                burned_seconds,
                ..
            } => {
                self.cost_per_second(*device)?;
                let s = self.jobs.get_mut(*job)?.as_mut()?;
                s.telemetry.evictions += 1;
                s.telemetry.wasted_seconds += burned_seconds;
                self.devices[*device].wasted_seconds += burned_seconds;
                self.devices[*device].evictions += 1;
            }
            TraceEvent::CalibrationUpdate { snapshot, .. } => {
                self.calibration.push(*snapshot);
            }
            TraceEvent::JobComplete { job } => {
                let s = self.jobs.get_mut(*job)?.as_mut()?;
                s.telemetry.completion = Some(record.time);
                self.summary
                    .turnaround
                    .record(record.time - s.telemetry.arrival);
                // The realized completion against the admission-time
                // projection: an SLA miss reads as a large positive error.
                if let Some(estimate) = s.telemetry.admission_estimate {
                    s.telemetry.estimate_error = Some(record.time - estimate.completion);
                }
                s.outcome = ReconstructedOutcome::Completed;
            }
            TraceEvent::DecayEpoch { .. }
            | TraceEvent::PriorityCredit { .. }
            | TraceEvent::StaleExpiry { .. } => {}
        }
        Some(())
    }

    pub(super) fn finish(self) -> ReconstructedReport {
        ReconstructedReport {
            jobs: self.jobs.into_iter().flatten().collect(),
            fleet: FleetTelemetry {
                devices: self.devices,
                makespan: self.makespan,
            },
            calibration: self.calibration,
            trace: self.summary,
            orphaned: self.orphaned,
        }
    }
}
