//! Flight recorder for the orchestration engine: a typed event stream of
//! every scheduling decision, pluggable sinks to capture it, and consumers
//! that turn a captured run into a Perfetto timeline or rebuild the run's
//! telemetry from the events alone.
//!
//! # Event contract
//!
//! The engine emits one [`TraceRecord`] per *decision*, not per internal
//! queue operation: a request is pushed once ([`TraceEvent::QueuePush`])
//! and granted once ([`TraceEvent::LeaseGrant`]) even when the dispatcher
//! internally re-ranks candidates (the urgent-override pop/re-push inside
//! dispatch is invisible, by design — it does not change any reservation's
//! lifecycle). Records carry the virtual clock and a per-run sequence
//! number; within one run, `seq` is the total order of decisions.
//!
//! The stream is **complete and lossless** by construction: the engine
//! keeps no telemetry accumulators of its own — the per-job and fleet
//! telemetry, the calibration history and the [`TraceSummary`] on its
//! [`OrchestratorReport`](crate::telemetry::OrchestratorReport) are one
//! fold of the events it emits, and [`reconstruct_report`] is that same
//! fold over a captured slice (the integration suite pins the two
//! bit-for-bit, whatever sink is attached). It is also **deterministic**:
//! the same configuration and seed produce a byte-identical JSONL
//! serialization (see [`JsonlSink`]).
//!
//! This module holds the events, the sinks and the engine's emitter; the
//! JSON reader and writer live in [`json`], the counts and histograms in
//! `summary`, the Perfetto export in `chrome` and the accounting in `fold`.
//!
//! # Sinks
//!
//! [`TraceSink`] is the pluggable consumer interface. Provided sinks:
//!
//! - [`MemorySink`] — in-memory capture, for export and replay.
//! - [`JsonlSink`] — one JSON object per record, byte-deterministic.
//!
//! Attach a sink through [`TraceHandle`] on
//! [`OrchestratorConfig::trace`](crate::engine::OrchestratorConfig):
//!
//! ```
//! use qoncord_core::executor::QaoaFactory;
//! use qoncord_core::scheduler::QoncordConfig;
//! use qoncord_orchestrator::trace::{self, MemorySink, TraceHandle};
//! use qoncord_orchestrator::{
//!     two_lf_one_hf_fleet, Orchestrator, OrchestratorConfig, TenantJob,
//! };
//! use qoncord_vqa::{graph::Graph, maxcut::MaxCut};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let sink = Rc::new(RefCell::new(MemorySink::new()));
//! let config = OrchestratorConfig {
//!     trace: TraceHandle::to(sink.clone()),
//!     ..OrchestratorConfig::default()
//! };
//! let factory = QaoaFactory {
//!     problem: MaxCut::new(Graph::new(3, &[(0, 1, 1.0), (1, 2, 1.0)])),
//!     layers: 1,
//! };
//! let job = TenantJob::new(0, "alice", 0.0, Box::new(factory))
//!     .with_restarts(1)
//!     .with_config(QoncordConfig {
//!         exploration_max_iterations: 4,
//!         finetune_max_iterations: 5,
//!         ..QoncordConfig::default()
//!     });
//! let report = Orchestrator::new(config, two_lf_one_hf_fleet()).run(&[job]);
//!
//! // The captured stream replays into the exact same telemetry...
//! let records = sink.borrow().records().to_vec();
//! let rebuilt = trace::reconstruct_report(&records);
//! assert!(rebuilt.diff(&report).is_empty());
//! // ...and exports to a Chrome/Perfetto trace with one track per device.
//! let chrome = trace::chrome_export(&records);
//! let summary = trace::validate_chrome_trace(&chrome).unwrap();
//! assert!(summary.tracks.iter().any(|t| t.duration_events > 0));
//! ```

mod chrome;
mod fold;
pub mod json;
mod summary;

pub use chrome::{
    chrome_export, chrome_export_with_profile, validate_chrome_trace, ChromeTraceSummary,
    ChromeTrack, CHROME_FLEET_PID, CHROME_JOBS_PID, CHROME_PROF_PID,
};
pub use fold::{reconstruct_report, ReconstructedJob, ReconstructedOutcome, ReconstructedReport};
pub use summary::{EventCounts, LogHistogram, TraceSummary};

use crate::admission::AdmissionDecision;
use crate::calibration::MarginSnapshot;
use crate::telemetry::JobTelemetry;
use fold::ReportFold;
use qoncord_cloud::policy::FeasibilityEstimate;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One engine decision: the event, stamped with the virtual clock and the
/// run-wide decision sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of the decision (seconds).
    pub time: f64,
    /// Position in the run's total decision order (0-based, dense).
    pub seq: u64,
    /// The decision.
    pub event: TraceEvent,
}

/// Every decision the orchestration engine makes, as a typed event.
///
/// Job, device, shard, and lease identifiers match the ones on the
/// engine's report: `job` is the submission index (position in the `jobs`
/// slice handed to [`Orchestrator::run`](crate::engine::Orchestrator::run)),
/// `device` the fleet index, `lease` the
/// [`Lease::id`](crate::lease::Lease::id).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Run preamble: one fleet device's identity and market metadata
    /// (emitted once per device before any job event, so every consumer
    /// can resolve device indices without the fleet at hand).
    DeviceDefined {
        /// Fleet index.
        device: usize,
        /// Device name.
        name: String,
        /// Quality tier (rank of advertised fidelity; the calibration key
        /// axis).
        tier: usize,
        /// Relative speed.
        speed: f64,
        /// Lease price per device-second.
        cost_per_second: f64,
    },
    /// A job arrived and entered placement.
    Arrival {
        /// Submission index.
        job: usize,
        /// The id the submitter gave the job.
        id: usize,
        /// Submitting tenant.
        tenant: String,
        /// Requested dispatch priority.
        priority: u32,
    },
    /// Placement fanned the job into shards (1 = unsplit); `devices[s]` is
    /// the fleet device shard `s` runs its exploration on.
    ShardPlan {
        /// Submission index.
        job: usize,
        /// Shard count.
        shards: usize,
        /// Per-shard entry device, indexed by shard.
        devices: Vec<usize>,
    },
    /// No fleet device passed the job's fidelity filter; it never reached
    /// admission.
    FilterRejected {
        /// Submission index.
        job: usize,
        /// How many devices the filter rejected.
        devices: usize,
    },
    /// The admission verdict, with the feasibility projection and margin
    /// that produced it. `estimate.queue_seconds` is the backlog-ahead
    /// input: the queueing delay the projection charged the job for.
    AdmissionVerdict {
        /// Submission index.
        job: usize,
        /// Admit or reject.
        decision: AdmissionDecision,
        /// The completion projection the deadline was judged against.
        estimate: FeasibilityEstimate,
        /// Safety margin (seconds) the deadline was judged under — the
        /// learned per-tier margin in calibrated mode (`None` for
        /// deadline-free jobs, which are never judged).
        margin: Option<f64>,
        /// The deadline the job carries forward (`None` for best-effort
        /// and rejected jobs).
        deadline: Option<f64>,
        /// The resolved deadline the verdict assessed (`None` for
        /// deadline-free jobs).
        assessed_deadline: Option<f64>,
    },
    /// Fair-share usage credit granted for the job's priority, scoped to
    /// its lifetime.
    PriorityCredit {
        /// Submission index.
        job: usize,
        /// Device-seconds of credit.
        credit: f64,
    },
    /// A batch request entered the fair-share queue for a device.
    QueuePush {
        /// Reservation id (unique per run).
        reservation: usize,
        /// Submission index.
        job: usize,
        /// Shard the batch serves.
        shard: usize,
        /// Target fleet device.
        device: usize,
        /// Estimated batch seconds.
        seconds: f64,
        /// Whether this is an evicted batch re-entering the queue.
        requeued: bool,
    },
    /// A provisional fine-tuning hold entered the queue for a restart.
    HoldPush {
        /// Reservation id.
        reservation: usize,
        /// Submission index.
        job: usize,
        /// Restart the hold reserves capacity for.
        restart: usize,
        /// Target fleet device.
        device: usize,
        /// Held device-seconds.
        seconds: f64,
    },
    /// Triage resolved a provisional hold: released outright when its
    /// restart was pruned, superseded by real batch requests otherwise.
    HoldRelease {
        /// Reservation id.
        reservation: usize,
        /// Submission index.
        job: usize,
        /// The restart whose hold this was.
        restart: usize,
        /// The device whose capacity is freed.
        device: usize,
        /// Held device-seconds returned.
        seconds: f64,
        /// Whether the restart was pruned (a released reservation in the
        /// job's telemetry) or survived into real batches.
        pruned: bool,
    },
    /// Dispatch converted a queued batch request into a device lease.
    LeaseGrant {
        /// Lease id.
        lease: u64,
        /// The granted reservation.
        reservation: usize,
        /// Submission index.
        job: usize,
        /// Shard the lease serves.
        shard: usize,
        /// Leased fleet device.
        device: usize,
        /// Leased device-seconds.
        seconds: f64,
        /// Virtual time the batch completes if not evicted.
        expires_at: f64,
    },
    /// A lease expired with its batch intact: the deferred compute ran and
    /// the device-seconds were charged.
    LeaseComplete {
        /// Lease id.
        lease: u64,
        /// Submission index.
        job: usize,
        /// Shard the lease served.
        shard: usize,
        /// Fleet device.
        device: usize,
        /// Virtual time the lease was granted.
        granted_at: f64,
        /// Realized batch duration (device-seconds charged).
        seconds: f64,
        /// Circuit executions the batch consumed.
        executions: u64,
        /// Whether this batch finished the whole job.
        finished: bool,
    },
    /// The expiry event of an already-evicted lease fired; the device had
    /// moved on, so the expiry was a no-op.
    StaleExpiry {
        /// The evicted lease whose expiry fired.
        lease: u64,
        /// The device it used to occupy.
        device: usize,
    },
    /// Preemption recalled a running lease; the victim's batch re-enters
    /// the queue (as the `requeued` [`TraceEvent::QueuePush`] that follows)
    /// with fair-share credit for the burned occupancy.
    Eviction {
        /// The recalled lease.
        lease: u64,
        /// The victim job.
        job: usize,
        /// The victim shard.
        shard: usize,
        /// The freed device.
        device: usize,
        /// Device-seconds of occupancy the eviction wasted.
        burned_seconds: f64,
        /// Fair-share usage credit granted to the victim for the burn.
        credit: f64,
    },
    /// The margin model ingested an outcome: a completion's
    /// realized-vs-projected error sample, or a denial (no sample). The
    /// snapshot is exactly the entry appended to the report's calibration
    /// history.
    CalibrationUpdate {
        /// The job whose outcome fed the model.
        job: usize,
        /// The history entry the outcome produced.
        snapshot: MarginSnapshot,
    },
    /// The virtual clock crossed one or more usage-decay epochs and every
    /// fair-share balance (and outstanding job credit) was multiplied by
    /// `factor`.
    DecayEpoch {
        /// Epochs crossed since the last application.
        crossed: u64,
        /// The applied multiplier (per-epoch factor raised to `crossed`).
        factor: f64,
    },
    /// The job's last batch completed and its credits were charged back.
    JobComplete {
        /// Submission index.
        job: usize,
    },
}

impl TraceEvent {
    /// Stable machine-readable name of the event kind (the `"ev"` field of
    /// the JSONL serialization).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::DeviceDefined { .. } => "device_defined",
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::ShardPlan { .. } => "shard_plan",
            TraceEvent::FilterRejected { .. } => "filter_rejected",
            TraceEvent::AdmissionVerdict { .. } => "admission_verdict",
            TraceEvent::PriorityCredit { .. } => "priority_credit",
            TraceEvent::QueuePush { .. } => "queue_push",
            TraceEvent::HoldPush { .. } => "hold_push",
            TraceEvent::HoldRelease { .. } => "hold_release",
            TraceEvent::LeaseGrant { .. } => "lease_grant",
            TraceEvent::LeaseComplete { .. } => "lease_complete",
            TraceEvent::StaleExpiry { .. } => "stale_expiry",
            TraceEvent::Eviction { .. } => "eviction",
            TraceEvent::CalibrationUpdate { .. } => "calibration_update",
            TraceEvent::DecayEpoch { .. } => "decay_epoch",
            TraceEvent::JobComplete { .. } => "job_complete",
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// A consumer of the engine's event stream.
///
/// The engine calls [`record`](TraceSink::record) once per decision, in
/// decision order, with strictly increasing `seq`. Implementations must
/// not panic on any well-formed record.
pub trait TraceSink {
    /// Ingests one record.
    fn record(&mut self, record: &TraceRecord);
}

/// In-memory capture of every record, for post-run export and replay.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    records: Vec<TraceRecord>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The captured records, in decision order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, record: &TraceRecord) {
        self.records.push(record.clone());
    }
}

/// Serializes each record as one JSON object per line.
///
/// The serialization is **byte-deterministic**: field order is fixed, and
/// floats are written with Rust's shortest round-trip formatting, so the
/// same run produces the same bytes and every value parses back exactly.
/// Optional fields are written as `null` rather than omitted, keeping each
/// event kind's schema fixed.
#[derive(Debug, Clone, Default)]
pub struct JsonlSink {
    out: String,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// The serialized lines so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, record: &TraceRecord) {
        write_record_json(record, &mut self.out);
        self.out.push('\n');
    }
}

/// One record as a single-line JSON object (no trailing newline).
fn write_record_json(record: &TraceRecord, out: &mut String) {
    json::object(out, |o| {
        o.field("t", record.time)
            .field("seq", record.seq)
            .field("ev", record.event.kind());
        match &record.event {
            TraceEvent::DeviceDefined {
                device,
                name,
                tier,
                speed,
                cost_per_second,
            } => o
                .field("device", device)
                .field("name", name.as_str())
                .field("tier", tier)
                .field("speed", speed)
                .field("cost_per_second", cost_per_second),
            TraceEvent::Arrival {
                job,
                id,
                tenant,
                priority,
            } => o
                .field("job", job)
                .field("id", id)
                .field("tenant", tenant.as_str())
                .field("priority", priority),
            TraceEvent::ShardPlan {
                job,
                shards,
                devices,
            } => o
                .field("job", job)
                .field("shards", shards)
                .field("devices", &devices[..]),
            TraceEvent::FilterRejected { job, devices } => {
                o.field("job", job).field("devices", devices)
            }
            TraceEvent::AdmissionVerdict {
                job,
                decision,
                estimate,
                margin,
                deadline,
                assessed_deadline,
            } => o
                .field("job", job)
                .field("decision", decision.as_str())
                .field("queue_seconds", estimate.queue_seconds)
                .field("service_seconds", estimate.service_seconds)
                .field("projected_completion", estimate.completion)
                .field("margin", margin)
                .field("deadline", deadline)
                .field("assessed_deadline", assessed_deadline),
            TraceEvent::PriorityCredit { job, credit } => {
                o.field("job", job).field("credit", credit)
            }
            TraceEvent::QueuePush {
                reservation,
                job,
                shard,
                device,
                seconds,
                requeued,
            } => o
                .field("reservation", reservation)
                .field("job", job)
                .field("shard", shard)
                .field("device", device)
                .field("seconds", seconds)
                .field("requeued", requeued),
            TraceEvent::HoldPush {
                reservation,
                job,
                restart,
                device,
                seconds,
            } => o
                .field("reservation", reservation)
                .field("job", job)
                .field("restart", restart)
                .field("device", device)
                .field("seconds", seconds),
            TraceEvent::HoldRelease {
                reservation,
                job,
                restart,
                device,
                seconds,
                pruned,
            } => o
                .field("reservation", reservation)
                .field("job", job)
                .field("restart", restart)
                .field("device", device)
                .field("seconds", seconds)
                .field("pruned", pruned),
            TraceEvent::LeaseGrant {
                lease,
                reservation,
                job,
                shard,
                device,
                seconds,
                expires_at,
            } => o
                .field("lease", lease)
                .field("reservation", reservation)
                .field("job", job)
                .field("shard", shard)
                .field("device", device)
                .field("seconds", seconds)
                .field("expires_at", expires_at),
            TraceEvent::LeaseComplete {
                lease,
                job,
                shard,
                device,
                granted_at,
                seconds,
                executions,
                finished,
            } => o
                .field("lease", lease)
                .field("job", job)
                .field("shard", shard)
                .field("device", device)
                .field("granted_at", granted_at)
                .field("seconds", seconds)
                .field("executions", executions)
                .field("finished", finished),
            TraceEvent::StaleExpiry { lease, device } => {
                o.field("lease", lease).field("device", device)
            }
            TraceEvent::Eviction {
                lease,
                job,
                shard,
                device,
                burned_seconds,
                credit,
            } => o
                .field("lease", lease)
                .field("job", job)
                .field("shard", shard)
                .field("device", device)
                .field("burned_seconds", burned_seconds)
                .field("credit", credit),
            TraceEvent::CalibrationUpdate { job, snapshot } => o
                .field("job", job)
                .field("tier", snapshot.key.tier)
                .field("class", snapshot.key.class.as_str())
                .field("error", snapshot.error)
                .field("margin", snapshot.margin)
                .field("samples", snapshot.samples),
            TraceEvent::DecayEpoch { crossed, factor } => {
                o.field("crossed", crossed).field("factor", factor)
            }
            TraceEvent::JobComplete { job } => o.field("job", job),
        };
    });
}

// ---------------------------------------------------------------------------
// Handle (what the engine config threads through)
// ---------------------------------------------------------------------------

/// A shareable, optional handle to a [`TraceSink`], threaded through
/// [`OrchestratorConfig::trace`](crate::engine::OrchestratorConfig).
///
/// Cloning the handle shares the sink: keep one clone outside the config
/// to read the capture back after the run. The default handle is detached
/// (events go only to the engine's own accounting fold).
#[derive(Clone, Default)]
pub struct TraceHandle {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl TraceHandle {
    /// A detached handle (no sink; the engine still accounts the report).
    pub fn none() -> Self {
        TraceHandle::default()
    }

    /// A handle feeding `sink`. The `Rc<RefCell<…>>` coerces from any
    /// concrete sink, so callers keep a typed clone for after the run.
    pub fn to(sink: Rc<RefCell<dyn TraceSink>>) -> Self {
        TraceHandle { sink: Some(sink) }
    }

    fn emit(&self, record: &TraceRecord) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(record);
        }
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHandle")
            .field("attached", &self.sink.is_some())
            .finish()
    }
}

impl PartialEq for TraceHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.sink, &other.sink) {
            (None, None) => true,
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// The engine's internal emitter: stamps records with the decision
/// sequence, feeds the report's accounting fold, and forwards to the
/// attached handle.
pub(crate) struct Tracer {
    handle: TraceHandle,
    report: ReportFold,
    seq: u64,
}

impl Tracer {
    /// A tracer for a run of `n_jobs` jobs, forwarding to `handle`.
    pub(crate) fn new(handle: TraceHandle, n_jobs: usize) -> Self {
        Tracer {
            handle,
            report: ReportFold::for_jobs(n_jobs),
            seq: 0,
        }
    }

    pub(crate) fn emit(&mut self, time: f64, event: TraceEvent) {
        let record = TraceRecord {
            time,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.report.apply(&record);
        self.handle.emit(&record);
    }

    /// The telemetry accounted to `job` so far.
    ///
    /// # Panics
    ///
    /// Panics if the job's `Arrival` has not been emitted.
    pub(crate) fn job(&self, job: usize) -> &JobTelemetry {
        &self
            .report
            .job(job)
            .expect("the engine emits a job's arrival before anything else about it")
            .telemetry
    }

    /// The report accounted from the stream.
    pub(crate) fn finish(self) -> ReconstructedReport {
        self.report.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, time: f64, event: TraceEvent) -> TraceRecord {
        TraceRecord { time, seq, event }
    }

    #[test]
    fn histogram_buckets_mean_and_quantiles() {
        let mut h = LogHistogram::new();
        assert_eq!(h.mean(), 0.0, "empty histogram mean is defined");
        assert_eq!(h.quantile(0.5), None);
        for v in [0.0, 0.5, 1.0, 2.0, 4.0, 1e12] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.max(), Some(1e12));
        assert!((h.mean() - (7.5 + 1e12) / 6.0).abs() < 1e-3);
        // Rank 1 of 6 at q≈0.16 is the underflow (zero) bucket.
        assert_eq!(h.quantile(0.16), Some(0.0));
        // The median sample (1.0) lives in the [1,2) bucket → upper bound 2.
        assert_eq!(h.quantile(0.5), Some(2.0));
        // The top quantile clamps to the recorded max, not the bucket edge.
        assert_eq!(h.quantile(1.0), Some(1e12));
    }

    #[test]
    fn histogram_never_panics_on_hostile_samples() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(-5.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert!(h.mean().is_finite());
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let mut sink = JsonlSink::new();
        sink.record(&record(
            0,
            0.0,
            TraceEvent::DeviceDefined {
                device: 0,
                name: "lf \"east\"\n".into(),
                tier: 0,
                speed: 1.5,
                cost_per_second: 1.0,
            },
        ));
        sink.record(&record(
            1,
            0.25,
            TraceEvent::AdmissionVerdict {
                job: 0,
                decision: AdmissionDecision::Admit,
                estimate: FeasibilityEstimate {
                    queue_seconds: 0.0,
                    service_seconds: 2.5,
                    completion: 2.75,
                },
                margin: Some(1.0),
                deadline: None,
                assessed_deadline: Some(10.0),
            },
        ));
        for line in sink.as_str().lines() {
            let parsed = json::parse(line).expect("every line parses");
            let obj = parsed.as_object().expect("every line is an object");
            assert!(obj.iter().any(|(k, _)| k == "ev"));
        }
    }

    #[test]
    fn metrics_sink_tracks_depth_and_backlog() {
        let events = vec![
            record(
                0,
                0.0,
                TraceEvent::DeviceDefined {
                    device: 0,
                    name: "dev".into(),
                    tier: 0,
                    speed: 1.0,
                    cost_per_second: 1.0,
                },
            ),
            record(
                1,
                0.0,
                TraceEvent::Arrival {
                    job: 0,
                    id: 0,
                    tenant: "t".into(),
                    priority: 0,
                },
            ),
            record(
                2,
                0.0,
                TraceEvent::QueuePush {
                    reservation: 0,
                    job: 0,
                    shard: 0,
                    device: 0,
                    seconds: 4.0,
                    requeued: false,
                },
            ),
            record(
                3,
                1.0,
                TraceEvent::LeaseGrant {
                    lease: 0,
                    reservation: 0,
                    job: 0,
                    shard: 0,
                    device: 0,
                    seconds: 4.0,
                    expires_at: 5.0,
                },
            ),
            record(
                4,
                5.0,
                TraceEvent::LeaseComplete {
                    lease: 0,
                    job: 0,
                    shard: 0,
                    device: 0,
                    granted_at: 1.0,
                    seconds: 4.0,
                    executions: 10,
                    finished: true,
                },
            ),
            record(5, 5.0, TraceEvent::JobComplete { job: 0 }),
        ];
        let summary = reconstruct_report(&events).trace;
        assert_eq!(summary.events.queue_pushes, 1);
        assert_eq!(summary.events.total(), 6);
        assert_eq!(summary.wait.count(), 1);
        assert_eq!(summary.wait.max(), Some(1.0));
        assert_eq!(summary.turnaround.max(), Some(5.0));
        // Depth sampled at 1 after the push, 0 after the grant.
        assert_eq!(summary.queue_depth.count(), 2);
        assert_eq!(summary.queue_depth.max(), Some(1.0));
        assert_eq!(summary.device_backlog.max(), Some(4.0));
    }

    /// A capture cut mid-preamble: device 0 and job 0 lost their
    /// declarations, device 1 and job 1 kept theirs.
    #[test]
    fn reconstruction_skips_and_counts_events_on_undeclared_jobs_and_devices() {
        let complete = |job, device| TraceEvent::LeaseComplete {
            lease: 0,
            job,
            shard: 0,
            device,
            granted_at: 1.0,
            seconds: 4.0,
            executions: 10,
            finished: false,
        };
        let events = [
            TraceEvent::DeviceDefined {
                device: 1,
                name: "kept".into(),
                tier: 0,
                speed: 1.0,
                cost_per_second: 2.0,
            },
            TraceEvent::Arrival {
                job: 1,
                id: 41,
                tenant: "t".into(),
                priority: 0,
            },
            complete(1, 1),
            complete(0, 1),
            complete(1, 0),
            TraceEvent::Eviction {
                lease: 1,
                job: 1,
                shard: 0,
                device: 5,
                burned_seconds: 1.0,
                credit: 1.0,
            },
            TraceEvent::JobComplete { job: 0 },
            // A hand-edited denial of a declared job that lost the deadline
            // it was assessed against: skipped whole, not a panic.
            TraceEvent::AdmissionVerdict {
                job: 1,
                decision: AdmissionDecision::Reject,
                estimate: FeasibilityEstimate {
                    queue_seconds: 0.0,
                    service_seconds: 2.5,
                    completion: 2.75,
                },
                margin: Some(1.0),
                deadline: None,
                assessed_deadline: None,
            },
        ];
        let records: Vec<TraceRecord> = events
            .into_iter()
            .enumerate()
            .map(|(i, event)| record(i as u64, 5.0, event))
            .collect();
        let rebuilt = reconstruct_report(&records);
        assert_eq!(rebuilt.orphaned, 5);
        assert_eq!(rebuilt.jobs.len(), 1, "undeclared jobs are absent");
        let job = &rebuilt.jobs[0];
        assert_eq!(job.outcome, ReconstructedOutcome::Completed);
        assert_eq!(job.telemetry.admission_estimate, None);
        assert_eq!((job.id, job.telemetry.executions), (41, 10));
        assert_eq!(job.telemetry.device_seconds, [0.0, 4.0]);
        assert_eq!(job.telemetry.cost, 8.0);
        assert_eq!(job.telemetry.evictions, 0);
        assert_eq!(rebuilt.fleet.devices.len(), 2);
        assert_eq!(rebuilt.fleet.devices[0].busy_seconds, 0.0);
        assert_eq!(rebuilt.fleet.devices[1].busy_seconds, 4.0);
        assert_eq!(rebuilt.fleet.makespan, 5.0);
    }

    #[test]
    fn chrome_export_round_trips_through_the_validator() {
        let records = vec![
            record(
                0,
                0.0,
                TraceEvent::DeviceDefined {
                    device: 0,
                    name: "lf_east".into(),
                    tier: 0,
                    speed: 1.0,
                    cost_per_second: 1.0,
                },
            ),
            record(
                1,
                0.0,
                TraceEvent::Arrival {
                    job: 0,
                    id: 7,
                    tenant: "alice".into(),
                    priority: 2,
                },
            ),
            record(
                2,
                3.0,
                TraceEvent::LeaseComplete {
                    lease: 0,
                    job: 0,
                    shard: 0,
                    device: 0,
                    granted_at: 0.5,
                    seconds: 2.5,
                    executions: 5,
                    finished: true,
                },
            ),
            record(3, 3.0, TraceEvent::JobComplete { job: 0 }),
        ];
        let chrome = chrome_export(&records);
        let summary = validate_chrome_trace(&chrome).expect("export parses");
        let fleet = summary.tracks_of(CHROME_FLEET_PID);
        assert!(!fleet.is_empty());
        let device = fleet
            .iter()
            .find(|t| t.name.as_deref() == Some("lf_east"))
            .expect("device track is named");
        assert_eq!(device.duration_events, 1);
        let jobs = summary.tracks_of(CHROME_JOBS_PID);
        assert!(jobs
            .iter()
            .any(|t| t.name.as_deref() == Some("alice · job 7") && t.duration_events == 1));
    }

    #[test]
    fn chrome_export_with_profile_adds_a_validated_wall_clock_track() {
        let records = vec![
            record(
                0,
                0.0,
                TraceEvent::Arrival {
                    job: 0,
                    id: 1,
                    tenant: "alice".into(),
                    priority: 0,
                },
            ),
            record(1, 2.0, TraceEvent::JobComplete { job: 0 }),
        ];
        let profiler = qoncord_prof::Profiler::new();
        {
            let _installed = profiler.install();
            let _outer = qoncord_prof::span("outer");
            let _inner = qoncord_prof::span("inner");
        }
        let perf = profiler.report();
        assert_eq!(perf.spans.len(), 2);
        let chrome = chrome_export_with_profile(&records, &perf);
        let summary = validate_chrome_trace(&chrome).expect("merged export parses");
        let prof_tracks = summary.tracks_of(CHROME_PROF_PID);
        assert_eq!(prof_tracks.len(), 1);
        assert_eq!(prof_tracks[0].duration_events, 2);
        assert!(
            chrome.contains("\"path\":\"outer;inner\""),
            "slices carry their folded path"
        );
        assert!(
            chrome.contains("wall-clock profiler"),
            "the track group is named"
        );
        // The virtual-time tracks are untouched by the merge.
        assert!(summary
            .tracks_of(CHROME_JOBS_PID)
            .iter()
            .any(|t| t.duration_events == 1));
        // Without a profile the track group must not exist at all.
        let plain = validate_chrome_trace(&chrome_export(&records)).expect("plain export parses");
        assert!(plain.tracks_of(CHROME_PROF_PID).is_empty());
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\", \"pid\": 1}]}").is_err(),
            "an X event without dur is structurally invalid"
        );
    }

    #[test]
    fn json_reader_rejects_numbers_outside_the_grammar() {
        for text in [
            "+1", ".5", "1.", "01", "-.5", "-", "1e", "1e+", "--1", "1.e3", "0x1", "[01]",
        ] {
            assert!(json::parse(text).is_err(), "{text:?} is not JSON");
        }
    }

    #[test]
    fn json_reader_rejects_raw_control_characters_and_bad_escapes() {
        for text in [
            "\"a\nb\"",
            "\"\t\"",
            "\"\u{0}\"",
            "\"\u{1f}\"",
            "\"\\u+abc\"",
        ] {
            assert!(json::parse(text).is_err(), "{text:?} is not JSON");
        }
    }

    #[test]
    fn json_reader_accepts_the_grammars_edge_forms() {
        for (text, value) in [
            ("-0", -0.0),
            ("0", 0.0),
            ("0.5", 0.5),
            ("1e-3", 1e-3),
            ("2E+10", 2e10),
            ("-12.25e2", -1225.0),
        ] {
            assert_eq!(json::parse(text), Ok(json::Value::Number(value)), "{text}");
        }
        assert_eq!(
            json::parse("\"é\\n\\u00e9\""),
            Ok(json::Value::String("é\né".to_owned()))
        );
        assert_eq!(
            json::parse("\"日本🚀\\\"x\""),
            Ok(json::Value::String("日本🚀\"x".to_owned()))
        );
        assert_eq!(
            json::parse("[0,-1,2.5e0]"),
            Ok(json::Value::Array(vec![
                json::Value::Number(0.0),
                json::Value::Number(-1.0),
                json::Value::Number(2.5),
            ]))
        );
    }

    /// One record of each of the 16 event kinds, with a string that needs
    /// escaping, `None`s written as `null` and non-integer floats.
    fn one_record_per_event_kind() -> Vec<TraceRecord> {
        use crate::calibration::{MarginKey, ServiceClass};
        let estimate = FeasibilityEstimate {
            queue_seconds: 0.5,
            service_seconds: 2.25,
            completion: 3.125,
        };
        let events = vec![
            TraceEvent::DeviceDefined {
                device: 0,
                name: "lf \"east\"\\\n\t\u{1}é".into(),
                tier: 1,
                speed: 1.5,
                cost_per_second: 0.1,
            },
            TraceEvent::Arrival {
                job: 3,
                id: 41,
                tenant: "alice".into(),
                priority: 2,
            },
            TraceEvent::ShardPlan {
                job: 3,
                shards: 2,
                devices: vec![0, 2],
            },
            TraceEvent::FilterRejected { job: 4, devices: 3 },
            TraceEvent::AdmissionVerdict {
                job: 3,
                decision: AdmissionDecision::Reject,
                estimate,
                margin: Some(1.5),
                deadline: None,
                assessed_deadline: Some(10.0),
            },
            TraceEvent::PriorityCredit {
                job: 3,
                credit: 100.0,
            },
            TraceEvent::QueuePush {
                reservation: 7,
                job: 3,
                shard: 1,
                device: 2,
                seconds: 4.5,
                requeued: true,
            },
            TraceEvent::HoldPush {
                reservation: 8,
                job: 3,
                restart: 1,
                device: 0,
                seconds: 0.3,
            },
            TraceEvent::HoldRelease {
                reservation: 8,
                job: 3,
                restart: 1,
                device: 0,
                seconds: 0.3,
                pruned: false,
            },
            TraceEvent::LeaseGrant {
                lease: 5,
                reservation: 7,
                job: 3,
                shard: 1,
                device: 2,
                seconds: 4.5,
                expires_at: 1e21,
            },
            TraceEvent::LeaseComplete {
                lease: 5,
                job: 3,
                shard: 1,
                device: 2,
                granted_at: 6.0,
                seconds: 4.5,
                executions: 30,
                finished: false,
            },
            TraceEvent::StaleExpiry {
                lease: 4,
                device: 1,
            },
            TraceEvent::Eviction {
                lease: 6,
                job: 3,
                shard: 0,
                device: 1,
                burned_seconds: 0.75,
                credit: 1e-7,
            },
            TraceEvent::CalibrationUpdate {
                job: 3,
                snapshot: MarginSnapshot {
                    time: 12.0,
                    key: MarginKey {
                        tier: 1,
                        class: ServiceClass::Interactive,
                    },
                    error: None,
                    margin: 2.5,
                    samples: 4,
                },
            },
            TraceEvent::DecayEpoch {
                crossed: 2,
                factor: 0.81,
            },
            TraceEvent::JobComplete { job: 3 },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| record(i as u64, i as f64 * 0.75, event))
            .collect()
    }

    #[test]
    fn jsonl_lines_are_pinned_per_event_kind() {
        let mut sink = JsonlSink::new();
        for r in one_record_per_event_kind() {
            sink.record(&r);
        }
        let expected = [
            r#"{"t":0,"seq":0,"ev":"device_defined","device":0,"name":"lf \"east\"\\\n\t\u0001é","tier":1,"speed":1.5,"cost_per_second":0.1}"#,
            r#"{"t":0.75,"seq":1,"ev":"arrival","job":3,"id":41,"tenant":"alice","priority":2}"#,
            r#"{"t":1.5,"seq":2,"ev":"shard_plan","job":3,"shards":2,"devices":[0,2]}"#,
            r#"{"t":2.25,"seq":3,"ev":"filter_rejected","job":4,"devices":3}"#,
            r#"{"t":3,"seq":4,"ev":"admission_verdict","job":3,"decision":"reject","queue_seconds":0.5,"service_seconds":2.25,"projected_completion":3.125,"margin":1.5,"deadline":null,"assessed_deadline":10}"#,
            r#"{"t":3.75,"seq":5,"ev":"priority_credit","job":3,"credit":100}"#,
            r#"{"t":4.5,"seq":6,"ev":"queue_push","reservation":7,"job":3,"shard":1,"device":2,"seconds":4.5,"requeued":true}"#,
            r#"{"t":5.25,"seq":7,"ev":"hold_push","reservation":8,"job":3,"restart":1,"device":0,"seconds":0.3}"#,
            r#"{"t":6,"seq":8,"ev":"hold_release","reservation":8,"job":3,"restart":1,"device":0,"seconds":0.3,"pruned":false}"#,
            r#"{"t":6.75,"seq":9,"ev":"lease_grant","lease":5,"reservation":7,"job":3,"shard":1,"device":2,"seconds":4.5,"expires_at":1000000000000000000000}"#,
            r#"{"t":7.5,"seq":10,"ev":"lease_complete","lease":5,"job":3,"shard":1,"device":2,"granted_at":6,"seconds":4.5,"executions":30,"finished":false}"#,
            r#"{"t":8.25,"seq":11,"ev":"stale_expiry","lease":4,"device":1}"#,
            r#"{"t":9,"seq":12,"ev":"eviction","lease":6,"job":3,"shard":0,"device":1,"burned_seconds":0.75,"credit":0.0000001}"#,
            r#"{"t":9.75,"seq":13,"ev":"calibration_update","job":3,"tier":1,"class":"interactive","error":null,"margin":2.5,"samples":4}"#,
            r#"{"t":10.5,"seq":14,"ev":"decay_epoch","crossed":2,"factor":0.81}"#,
            r#"{"t":11.25,"seq":15,"ev":"job_complete","job":3}"#,
        ];
        let lines: Vec<&str> = sink.as_str().lines().collect();
        assert_eq!(lines, expected);
        assert!(sink.as_str().ends_with('\n'));
    }

    /// A run touching every Chrome emitter: device and job metadata, the
    /// admission verdict, both queue-depth counters, a lease completion, an
    /// eviction's slice and instant, a filter rejection, a job completion,
    /// and a lease of a job the capture never declared.
    fn one_record_per_chrome_emitter() -> Vec<TraceRecord> {
        let estimate = FeasibilityEstimate {
            queue_seconds: 0.0,
            service_seconds: 2.5,
            completion: 2.75,
        };
        let events = [
            (
                0.0,
                TraceEvent::DeviceDefined {
                    device: 0,
                    name: "lf \"east\"".into(),
                    tier: 0,
                    speed: 1.0,
                    cost_per_second: 1.0,
                },
            ),
            (
                0.0,
                TraceEvent::DeviceDefined {
                    device: 1,
                    name: "hf".into(),
                    tier: 1,
                    speed: 2.0,
                    cost_per_second: 3.0,
                },
            ),
            (
                0.0,
                TraceEvent::Arrival {
                    job: 0,
                    id: 7,
                    tenant: "ali\\ce".into(),
                    priority: 0,
                },
            ),
            (
                0.125,
                TraceEvent::Arrival {
                    job: 1,
                    id: 8,
                    tenant: "bob".into(),
                    priority: 2,
                },
            ),
            (
                0.25,
                TraceEvent::Arrival {
                    job: 2,
                    id: 9,
                    tenant: "carol".into(),
                    priority: 0,
                },
            ),
            (0.25, TraceEvent::FilterRejected { job: 2, devices: 2 }),
            (
                0.0,
                TraceEvent::AdmissionVerdict {
                    job: 0,
                    decision: AdmissionDecision::Admit,
                    estimate,
                    margin: None,
                    deadline: None,
                    assessed_deadline: None,
                },
            ),
            (
                0.125,
                TraceEvent::AdmissionVerdict {
                    job: 1,
                    decision: AdmissionDecision::Reject,
                    estimate,
                    margin: Some(1.0),
                    deadline: None,
                    assessed_deadline: Some(2.0),
                },
            ),
            (
                0.125,
                TraceEvent::QueuePush {
                    reservation: 0,
                    job: 0,
                    shard: 0,
                    device: 0,
                    seconds: 2.5,
                    requeued: false,
                },
            ),
            (
                0.125,
                TraceEvent::HoldPush {
                    reservation: 1,
                    job: 1,
                    restart: 0,
                    device: 1,
                    seconds: 1.5,
                },
            ),
            (
                0.5,
                TraceEvent::LeaseGrant {
                    lease: 0,
                    reservation: 0,
                    job: 0,
                    shard: 0,
                    device: 0,
                    seconds: 2.5,
                    expires_at: 3.0,
                },
            ),
            (
                0.5,
                TraceEvent::HoldRelease {
                    reservation: 1,
                    job: 1,
                    restart: 0,
                    device: 1,
                    seconds: 1.5,
                    pruned: true,
                },
            ),
            (
                0.5,
                TraceEvent::QueuePush {
                    reservation: 2,
                    job: 1,
                    shard: 1,
                    device: 1,
                    seconds: 1.0,
                    requeued: false,
                },
            ),
            (
                0.75,
                TraceEvent::LeaseGrant {
                    lease: 1,
                    reservation: 2,
                    job: 1,
                    shard: 1,
                    device: 1,
                    seconds: 1.0,
                    expires_at: 1.75,
                },
            ),
            (
                1.0,
                TraceEvent::Eviction {
                    lease: 1,
                    job: 1,
                    shard: 1,
                    device: 1,
                    burned_seconds: 0.25,
                    credit: 0.25,
                },
            ),
            (
                1.0,
                TraceEvent::QueuePush {
                    reservation: 3,
                    job: 1,
                    shard: 1,
                    device: 1,
                    seconds: 1.0,
                    requeued: true,
                },
            ),
            (
                1.75,
                TraceEvent::StaleExpiry {
                    lease: 1,
                    device: 1,
                },
            ),
            (
                2.0,
                TraceEvent::DecayEpoch {
                    crossed: 1,
                    factor: 0.5,
                },
            ),
            (
                3.0,
                TraceEvent::LeaseComplete {
                    lease: 0,
                    job: 0,
                    shard: 0,
                    device: 0,
                    granted_at: 0.5,
                    seconds: 2.5,
                    executions: 5,
                    finished: true,
                },
            ),
            (3.0, TraceEvent::JobComplete { job: 0 }),
            (
                3.5,
                TraceEvent::LeaseComplete {
                    lease: 9,
                    job: 5,
                    shard: 0,
                    device: 1,
                    granted_at: 3.25,
                    seconds: 0.25,
                    executions: 1,
                    finished: false,
                },
            ),
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(i, (time, event))| record(i as u64, time, event))
            .collect()
    }

    #[test]
    fn chrome_export_is_pinned_per_emitter() {
        let records = one_record_per_chrome_emitter();
        assert_eq!(
            chrome_export(&records),
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/chrome_export.json"
            ))
        );
        let entry = |path: Vec<&'static str>| qoncord_prof::ProfileEntry {
            path,
            count: 1,
            total_ns: 2_000,
            min_ns: 2_000,
            max_ns: 2_000,
            child_ns: 0,
        };
        let perf = qoncord_prof::ProfileReport {
            entries: vec![
                entry(vec!["engine::run"]),
                entry(vec!["engine::run", "sim::\"sv\"::apply_1q"]),
            ],
            spans: vec![
                qoncord_prof::ProfileSpan {
                    entry: 0,
                    start_ns: 1_500,
                    dur_ns: 2_000_250,
                },
                qoncord_prof::ProfileSpan {
                    entry: 1,
                    start_ns: 2_000,
                    dur_ns: 7,
                },
            ],
            dropped_spans: 3,
        };
        assert_eq!(
            chrome_export_with_profile(&records, &perf),
            include_str!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/chrome_export_with_profile.json"
            ))
        );
    }
}
