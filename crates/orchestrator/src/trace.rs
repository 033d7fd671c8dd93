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
//! [`OrchestratorReport`] are one fold of the events it emits, and
//! [`reconstruct_report`] is that same fold over a captured slice (the
//! integration suite pins the two bit-for-bit, whatever sink is
//! attached). It is also **deterministic**: the
//! same configuration and seed produce a byte-identical JSONL serialization
//! (see [`JsonlSink`]).
//!
//! # Sinks
//!
//! [`TraceSink`] is the pluggable consumer interface. Provided sinks:
//!
//! - [`MemorySink`] — unbounded capture, for export and replay.
//! - [`RingBufferSink`] — bounded capture that drops oldest-first.
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

use crate::admission::AdmissionDecision;
use crate::calibration::MarginSnapshot;
use crate::telemetry::{DeviceTelemetry, FleetTelemetry, JobTelemetry, OrchestratorReport};
use qoncord_cloud::policy::FeasibilityEstimate;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
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
        /// Admit, downgrade, or reject.
        decision: AdmissionDecision,
        /// The completion projection the deadline was judged against.
        estimate: FeasibilityEstimate,
        /// Safety margin (seconds) the deadline was judged under — the
        /// learned per-tier margin in calibrated mode (`None` for
        /// deadline-free jobs, which are never judged).
        margin: Option<f64>,
        /// The deadline the job carries forward (`None` for best-effort
        /// and downgraded jobs).
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

/// Unbounded in-memory capture, for post-run export and replay.
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

/// Bounded in-memory capture: keeps the most recent `capacity` records,
/// dropping oldest-first once full — the black-box flight recorder for
/// long runs where only the tail matters.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    buffer: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBufferSink {
            buffer: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buffer.iter().cloned().collect()
    }

    /// Records evicted to make room (total over the sink's lifetime).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, record: &TraceRecord) {
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
            self.dropped += 1;
        }
        self.buffer.push_back(record.clone());
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

fn push_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes a finite `f64` as a JSON number (shortest round-trip decimal).
fn push_json_f64(v: f64, out: &mut String) {
    debug_assert!(v.is_finite(), "trace events never carry non-finite values");
    let _ = write!(out, "{v}");
}

fn push_json_opt_f64(v: Option<f64>, out: &mut String) {
    match v {
        Some(v) => push_json_f64(v, out),
        None => out.push_str("null"),
    }
}

/// One record as a single-line JSON object (no trailing newline).
fn write_record_json(record: &TraceRecord, out: &mut String) {
    out.push_str("{\"t\":");
    push_json_f64(record.time, out);
    let _ = write!(
        out,
        ",\"seq\":{},\"ev\":\"{}\"",
        record.seq,
        record.event.kind()
    );
    match &record.event {
        TraceEvent::DeviceDefined {
            device,
            name,
            tier,
            speed,
            cost_per_second,
        } => {
            let _ = write!(out, ",\"device\":{device},\"name\":");
            push_json_string(name, out);
            let _ = write!(out, ",\"tier\":{tier},\"speed\":");
            push_json_f64(*speed, out);
            out.push_str(",\"cost_per_second\":");
            push_json_f64(*cost_per_second, out);
        }
        TraceEvent::Arrival {
            job,
            id,
            tenant,
            priority,
        } => {
            let _ = write!(out, ",\"job\":{job},\"id\":{id},\"tenant\":");
            push_json_string(tenant, out);
            let _ = write!(out, ",\"priority\":{priority}");
        }
        TraceEvent::ShardPlan {
            job,
            shards,
            devices,
        } => {
            let _ = write!(out, ",\"job\":{job},\"shards\":{shards},\"devices\":[");
            for (i, d) in devices.iter().enumerate() {
                let _ = write!(out, "{}{d}", if i > 0 { "," } else { "" });
            }
            out.push(']');
        }
        TraceEvent::FilterRejected { job, devices } => {
            let _ = write!(out, ",\"job\":{job},\"devices\":{devices}");
        }
        TraceEvent::AdmissionVerdict {
            job,
            decision,
            estimate,
            margin,
            deadline,
            assessed_deadline,
        } => {
            let _ = write!(
                out,
                ",\"job\":{job},\"decision\":\"{}\",\"queue_seconds\":",
                decision.as_str()
            );
            push_json_f64(estimate.queue_seconds, out);
            out.push_str(",\"service_seconds\":");
            push_json_f64(estimate.service_seconds, out);
            out.push_str(",\"projected_completion\":");
            push_json_f64(estimate.completion, out);
            out.push_str(",\"margin\":");
            push_json_opt_f64(*margin, out);
            out.push_str(",\"deadline\":");
            push_json_opt_f64(*deadline, out);
            out.push_str(",\"assessed_deadline\":");
            push_json_opt_f64(*assessed_deadline, out);
        }
        TraceEvent::PriorityCredit { job, credit } => {
            let _ = write!(out, ",\"job\":{job},\"credit\":");
            push_json_f64(*credit, out);
        }
        TraceEvent::QueuePush {
            reservation,
            job,
            shard,
            device,
            seconds,
            requeued,
        } => {
            let _ = write!(
                out,
                ",\"reservation\":{reservation},\"job\":{job},\"shard\":{shard},\"device\":{device},\"seconds\":"
            );
            push_json_f64(*seconds, out);
            let _ = write!(out, ",\"requeued\":{requeued}");
        }
        TraceEvent::HoldPush {
            reservation,
            job,
            restart,
            device,
            seconds,
        } => {
            let _ = write!(
                out,
                ",\"reservation\":{reservation},\"job\":{job},\"restart\":{restart},\"device\":{device},\"seconds\":"
            );
            push_json_f64(*seconds, out);
        }
        TraceEvent::HoldRelease {
            reservation,
            job,
            restart,
            device,
            seconds,
            pruned,
        } => {
            let _ = write!(
                out,
                ",\"reservation\":{reservation},\"job\":{job},\"restart\":{restart},\"device\":{device},\"seconds\":"
            );
            push_json_f64(*seconds, out);
            let _ = write!(out, ",\"pruned\":{pruned}");
        }
        TraceEvent::LeaseGrant {
            lease,
            reservation,
            job,
            shard,
            device,
            seconds,
            expires_at,
        } => {
            let _ = write!(
                out,
                ",\"lease\":{lease},\"reservation\":{reservation},\"job\":{job},\"shard\":{shard},\"device\":{device},\"seconds\":"
            );
            push_json_f64(*seconds, out);
            out.push_str(",\"expires_at\":");
            push_json_f64(*expires_at, out);
        }
        TraceEvent::LeaseComplete {
            lease,
            job,
            shard,
            device,
            granted_at,
            seconds,
            executions,
            finished,
        } => {
            let _ = write!(
                out,
                ",\"lease\":{lease},\"job\":{job},\"shard\":{shard},\"device\":{device},\"granted_at\":"
            );
            push_json_f64(*granted_at, out);
            out.push_str(",\"seconds\":");
            push_json_f64(*seconds, out);
            let _ = write!(out, ",\"executions\":{executions},\"finished\":{finished}");
        }
        TraceEvent::StaleExpiry { lease, device } => {
            let _ = write!(out, ",\"lease\":{lease},\"device\":{device}");
        }
        TraceEvent::Eviction {
            lease,
            job,
            shard,
            device,
            burned_seconds,
            credit,
        } => {
            let _ = write!(
                out,
                ",\"lease\":{lease},\"job\":{job},\"shard\":{shard},\"device\":{device},\"burned_seconds\":"
            );
            push_json_f64(*burned_seconds, out);
            out.push_str(",\"credit\":");
            push_json_f64(*credit, out);
        }
        TraceEvent::CalibrationUpdate { job, snapshot } => {
            let _ = write!(
                out,
                ",\"job\":{job},\"tier\":{},\"class\":\"{}\",\"error\":",
                snapshot.key.tier,
                snapshot.key.class.as_str()
            );
            push_json_opt_f64(snapshot.error, out);
            out.push_str(",\"margin\":");
            push_json_f64(snapshot.margin, out);
            let _ = write!(out, ",\"samples\":{}", snapshot.samples);
        }
        TraceEvent::DecayEpoch { crossed, factor } => {
            let _ = write!(out, ",\"crossed\":{crossed},\"factor\":");
            push_json_f64(*factor, out);
        }
        TraceEvent::JobComplete { job } => {
            let _ = write!(out, ",\"job\":{job}");
        }
    }
    out.push('}');
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
    pub(crate) fn new(handle: TraceHandle) -> Self {
        Tracer {
            handle,
            report: ReportFold::default(),
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

// ---------------------------------------------------------------------------
// Histograms and the stream summary
// ---------------------------------------------------------------------------

/// Number of log-scale buckets in a [`LogHistogram`].
const HISTOGRAM_BUCKETS: usize = 64;
/// Exponent of the lowest bucket bound: bucket `i` covers
/// `[2^(i-30), 2^(i-29))` seconds.
const HISTOGRAM_MIN_EXP: i32 = -30;

/// A fixed-bucket base-2 log-scale histogram of non-negative samples.
///
/// Bucket `i` covers `[2^(i-30), 2^(i-29))`; values below `2^-30`
/// (including exact zeros — a priority arrival's zero wait) land in a
/// dedicated underflow bucket, values at or above the top bound clamp into
/// the last bucket. Exact count, sum, min, and max are kept alongside, so
/// [`mean`](LogHistogram::mean) is exact and only
/// [`quantile`](LogHistogram::quantile) is bucket-resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    underflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; HISTOGRAM_BUCKETS],
            underflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one sample. Non-finite or negative samples are clamped to
    /// the underflow bucket (the engine never produces them; a sink must
    /// not panic).
    pub fn record(&mut self, value: f64) {
        let v = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < (HISTOGRAM_MIN_EXP as f64).exp2() {
            self.underflow += 1;
        } else {
            let idx = (v.log2().floor() as i32 - HISTOGRAM_MIN_EXP)
                .clamp(0, HISTOGRAM_BUCKETS as i32 - 1) as usize;
            self.counts[idx] += 1;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (0.0 when empty — never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank quantile at bucket resolution: the upper bound of the
    /// bucket holding the rank-`q` sample (0.0 for underflow), `None` when
    /// empty or `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(0.0);
        }
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                // The top bucket also holds clamped outliers, so its
                // effective upper bound is the recorded max.
                let upper = if i == HISTOGRAM_BUCKETS - 1 {
                    f64::INFINITY
                } else {
                    ((i as i32 + HISTOGRAM_MIN_EXP + 1) as f64).exp2()
                };
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }
}

/// Event-stream volume by kind, one counter per [`TraceEvent`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    /// [`TraceEvent::DeviceDefined`] records.
    pub devices_defined: u64,
    /// [`TraceEvent::Arrival`] records.
    pub arrivals: u64,
    /// [`TraceEvent::ShardPlan`] records.
    pub shard_plans: u64,
    /// [`TraceEvent::FilterRejected`] records.
    pub filter_rejections: u64,
    /// [`TraceEvent::AdmissionVerdict`] records.
    pub admission_verdicts: u64,
    /// [`TraceEvent::PriorityCredit`] records.
    pub priority_credits: u64,
    /// [`TraceEvent::QueuePush`] records.
    pub queue_pushes: u64,
    /// [`TraceEvent::HoldPush`] records.
    pub hold_pushes: u64,
    /// [`TraceEvent::HoldRelease`] records.
    pub hold_releases: u64,
    /// [`TraceEvent::LeaseGrant`] records.
    pub lease_grants: u64,
    /// [`TraceEvent::LeaseComplete`] records.
    pub lease_completions: u64,
    /// [`TraceEvent::StaleExpiry`] records.
    pub stale_expiries: u64,
    /// [`TraceEvent::Eviction`] records.
    pub evictions: u64,
    /// [`TraceEvent::CalibrationUpdate`] records.
    pub calibration_updates: u64,
    /// [`TraceEvent::DecayEpoch`] records (one may cover several crossed
    /// epochs).
    pub decay_epochs: u64,
    /// [`TraceEvent::JobComplete`] records.
    pub job_completions: u64,
}

impl EventCounts {
    /// Total records counted.
    pub fn total(&self) -> u64 {
        self.devices_defined
            + self.arrivals
            + self.shard_plans
            + self.filter_rejections
            + self.admission_verdicts
            + self.priority_credits
            + self.queue_pushes
            + self.hold_pushes
            + self.hold_releases
            + self.lease_grants
            + self.lease_completions
            + self.stale_expiries
            + self.evictions
            + self.calibration_updates
            + self.decay_epochs
            + self.job_completions
    }

    fn count(&mut self, event: &TraceEvent) {
        let slot = match event {
            TraceEvent::DeviceDefined { .. } => &mut self.devices_defined,
            TraceEvent::Arrival { .. } => &mut self.arrivals,
            TraceEvent::ShardPlan { .. } => &mut self.shard_plans,
            TraceEvent::FilterRejected { .. } => &mut self.filter_rejections,
            TraceEvent::AdmissionVerdict { .. } => &mut self.admission_verdicts,
            TraceEvent::PriorityCredit { .. } => &mut self.priority_credits,
            TraceEvent::QueuePush { .. } => &mut self.queue_pushes,
            TraceEvent::HoldPush { .. } => &mut self.hold_pushes,
            TraceEvent::HoldRelease { .. } => &mut self.hold_releases,
            TraceEvent::LeaseGrant { .. } => &mut self.lease_grants,
            TraceEvent::LeaseComplete { .. } => &mut self.lease_completions,
            TraceEvent::StaleExpiry { .. } => &mut self.stale_expiries,
            TraceEvent::Eviction { .. } => &mut self.evictions,
            TraceEvent::CalibrationUpdate { .. } => &mut self.calibration_updates,
            TraceEvent::DecayEpoch { .. } => &mut self.decay_epochs,
            TraceEvent::JobComplete { .. } => &mut self.job_completions,
        };
        *slot += 1;
    }
}

/// The aggregates the report's accounting fold distills from the event
/// stream, surfaced as
/// [`OrchestratorReport::trace`](crate::telemetry::OrchestratorReport) and
/// [`ReconstructedReport::trace`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Event-stream volume by kind.
    pub events: EventCounts,
    /// Wait times (submission → first delivered grant), one sample per job
    /// that ran.
    pub wait: LogHistogram,
    /// Turnaround times (submission → completion), one sample per
    /// completed job.
    pub turnaround: LogHistogram,
    /// Queue depth (outstanding batch requests + holds), sampled after
    /// every queue-mutating decision.
    pub queue_depth: LogHistogram,
    /// The affected device's queued backlog seconds (batch requests +
    /// holds), sampled after every queue-mutating decision.
    pub device_backlog: LogHistogram,
}

// ---------------------------------------------------------------------------
// Consumer 1: Chrome / Perfetto trace-event export
// ---------------------------------------------------------------------------

/// Process id of the fleet-devices track group in the exported trace.
pub const CHROME_FLEET_PID: u64 = 1;
/// Process id of the jobs-by-tenant track group.
pub const CHROME_JOBS_PID: u64 = 2;
/// Process id of the wall-clock profiler track group emitted by
/// [`chrome_export_with_profile`]. Unlike the virtual-time tracks above,
/// its timestamps are real microseconds since the profiler was created.
pub const CHROME_PROF_PID: u64 = 3;

/// Renders a captured run as Chrome trace-event JSON, openable directly in
/// `ui.perfetto.dev` (or `chrome://tracing`).
///
/// Two track groups:
///
/// - **fleet devices** (pid 1): one track per device (named from
///   [`TraceEvent::DeviceDefined`]) carrying a duration slice per lease —
///   completed batches and, in a separate category, evicted (burned)
///   occupancy — plus a fleet-wide queue-depth counter track.
/// - **jobs by tenant** (pid 2): one track per job (named
///   `tenant · job N`) spanning submission to completion, with instant
///   markers for the admission verdict and each eviction the job suffered.
///
/// Timestamps are microseconds of virtual time.
pub fn chrome_export(records: &[TraceRecord]) -> String {
    chrome_export_impl(records, None)
}

/// Like [`chrome_export`], plus a third **wall-clock profiler** track
/// group ([`CHROME_PROF_PID`]) carrying one duration slice per retained
/// [`ProfileSpan`](qoncord_prof::ProfileSpan) of `perf` — typically the
/// [`OrchestratorReport::perf`](crate::telemetry::OrchestratorReport::perf)
/// snapshot of the same run whose `records` are being exported.
///
/// Slices are named by their leaf span label and carry the full folded
/// path in `args.path`, so hovering a `sim::sv::apply_2q` slice shows the
/// `engine::run;engine::lease_done;…` chain it was reached through. The
/// profiler track's timestamps are real microseconds since the profiler
/// epoch, while the fleet and jobs tracks remain virtual time; Perfetto
/// renders the groups side by side, which is exactly the point — virtual
/// schedule above, real CPU cost below.
pub fn chrome_export_with_profile(
    records: &[TraceRecord],
    perf: &qoncord_prof::ProfileReport,
) -> String {
    chrome_export_impl(records, Some(perf))
}

fn chrome_export_impl(
    records: &[TraceRecord],
    profile: Option<&qoncord_prof::ProfileReport>,
) -> String {
    let us = |t: f64| t * 1e6;
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, body: &str| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(body);
    };
    let mut line = String::new();
    let mut meta =
        |out: &mut String, line: &mut String, pid: u64, tid: u64, which: &str, name: &str| {
            line.clear();
            let _ = write!(
            line,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{which}\",\"args\":{{\"name\":"
        );
            push_json_string(name, line);
            line.push_str("}}");
            push(out, line);
        };
    meta(
        &mut out,
        &mut line,
        CHROME_FLEET_PID,
        0,
        "process_name",
        "fleet devices",
    );
    meta(
        &mut out,
        &mut line,
        CHROME_JOBS_PID,
        0,
        "process_name",
        "jobs by tenant",
    );
    if profile.is_some() {
        meta(
            &mut out,
            &mut line,
            CHROME_PROF_PID,
            0,
            "process_name",
            "wall-clock profiler",
        );
        meta(
            &mut out,
            &mut line,
            CHROME_PROF_PID,
            0,
            "thread_name",
            "profiled thread",
        );
    }

    // Job identity (tenant, submitted id) from the arrival events, and
    // queue depth recomputed from the reservation lifecycle.
    let mut job_label: HashMap<usize, String> = HashMap::new();
    let mut depth: i64 = 0;
    for record in records {
        line.clear();
        match &record.event {
            TraceEvent::DeviceDefined { device, name, .. } => {
                meta(
                    &mut out,
                    &mut line,
                    CHROME_FLEET_PID,
                    *device as u64,
                    "thread_name",
                    name,
                );
            }
            TraceEvent::Arrival {
                job, id, tenant, ..
            } => {
                let label = format!("{tenant} · job {id}");
                meta(
                    &mut out,
                    &mut line,
                    CHROME_JOBS_PID,
                    *job as u64,
                    "thread_name",
                    &label,
                );
                job_label.insert(*job, label);
            }
            _ => {}
        }
    }

    let mut job_span_start: HashMap<usize, f64> = HashMap::new();
    for record in records {
        line.clear();
        match &record.event {
            TraceEvent::Arrival { job, .. } => {
                job_span_start.insert(*job, record.time);
            }
            TraceEvent::AdmissionVerdict { job, decision, .. } => {
                let _ = write!(
                    line,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{CHROME_JOBS_PID},\"tid\":{job},\"ts\":{},\"name\":\"admission: {}\"}}",
                    us(record.time),
                    decision.as_str()
                );
                push(&mut out, &line);
            }
            TraceEvent::QueuePush { device, .. } | TraceEvent::HoldPush { device, .. } => {
                depth += 1;
                let _ = write!(
                    line,
                    "{{\"ph\":\"C\",\"pid\":{CHROME_FLEET_PID},\"ts\":{},\"name\":\"queue depth\",\"args\":{{\"requests\":{depth}}}}}",
                    us(record.time)
                );
                push(&mut out, &line);
                let _ = device;
            }
            TraceEvent::LeaseGrant { .. } | TraceEvent::HoldRelease { .. } => {
                depth -= 1;
                let _ = write!(
                    line,
                    "{{\"ph\":\"C\",\"pid\":{CHROME_FLEET_PID},\"ts\":{},\"name\":\"queue depth\",\"args\":{{\"requests\":{depth}}}}}",
                    us(record.time)
                );
                push(&mut out, &line);
            }
            TraceEvent::LeaseComplete {
                lease,
                job,
                shard,
                device,
                granted_at,
                executions,
                ..
            } => {
                let label = job_label
                    .get(job)
                    .cloned()
                    .unwrap_or_else(|| format!("job {job}"));
                let _ = write!(
                    line,
                    "{{\"ph\":\"X\",\"pid\":{CHROME_FLEET_PID},\"tid\":{device},\"ts\":{},\"dur\":{},\"cat\":\"lease\",\"name\":",
                    us(*granted_at),
                    us(record.time - granted_at)
                );
                push_json_string(&label, &mut line);
                let _ = write!(
                    line,
                    ",\"args\":{{\"lease\":{lease},\"shard\":{shard},\"executions\":{executions}}}}}"
                );
                push(&mut out, &line);
            }
            TraceEvent::Eviction {
                lease,
                job,
                shard,
                device,
                burned_seconds,
                ..
            } => {
                let label = job_label
                    .get(job)
                    .cloned()
                    .unwrap_or_else(|| format!("job {job}"));
                let _ = write!(
                    line,
                    "{{\"ph\":\"X\",\"pid\":{CHROME_FLEET_PID},\"tid\":{device},\"ts\":{},\"dur\":{},\"cat\":\"evicted\",\"name\":",
                    us(record.time - burned_seconds),
                    us(*burned_seconds)
                );
                push_json_string(&format!("evicted: {label}"), &mut line);
                let _ = write!(line, ",\"args\":{{\"lease\":{lease},\"shard\":{shard}}}}}");
                push(&mut out, &line);
                line.clear();
                let _ = write!(
                    line,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{CHROME_JOBS_PID},\"tid\":{job},\"ts\":{},\"name\":\"evicted from device {device}\"}}",
                    us(record.time)
                );
                push(&mut out, &line);
            }
            TraceEvent::JobComplete { job } => {
                if let Some(start) = job_span_start.remove(job) {
                    let label = job_label
                        .get(job)
                        .cloned()
                        .unwrap_or_else(|| format!("job {job}"));
                    let _ = write!(
                        line,
                        "{{\"ph\":\"X\",\"pid\":{CHROME_JOBS_PID},\"tid\":{job},\"ts\":{},\"dur\":{},\"cat\":\"job\",\"name\":",
                        us(start),
                        us(record.time - start)
                    );
                    push_json_string(&label, &mut line);
                    line.push('}');
                    push(&mut out, &line);
                }
            }
            TraceEvent::FilterRejected { job, .. } => {
                let _ = write!(
                    line,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{CHROME_JOBS_PID},\"tid\":{job},\"ts\":{},\"name\":\"rejected by fidelity filter\"}}",
                    us(record.time)
                );
                push(&mut out, &line);
            }
            _ => {}
        }
    }
    if let Some(perf) = profile {
        for span in &perf.spans {
            let entry = &perf.entries[span.entry];
            line.clear();
            let _ = write!(
                line,
                "{{\"ph\":\"X\",\"pid\":{CHROME_PROF_PID},\"tid\":0,\"ts\":{},\"dur\":{},\"cat\":\"prof\",\"name\":",
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3
            );
            push_json_string(entry.label(), &mut line);
            line.push_str(",\"args\":{\"path\":");
            push_json_string(&entry.folded_path(), &mut line);
            line.push_str("}}");
            push(&mut out, &line);
        }
        if perf.dropped_spans > 0 {
            line.clear();
            let _ = write!(
                line,
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{CHROME_PROF_PID},\"tid\":0,\"ts\":0,\"name\":\"{} spans dropped past the retention cap\"}}",
                perf.dropped_spans
            );
            push(&mut out, &line);
        }
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------------
// Chrome trace validation (hand-rolled JSON, no serde in this workspace)
// ---------------------------------------------------------------------------

/// One `(pid, tid)` track of a parsed Chrome trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeTrack {
    /// Process id.
    pub pid: u64,
    /// Thread id.
    pub tid: u64,
    /// The `thread_name` metadata, if any.
    pub name: Option<String>,
    /// Complete (`"ph":"X"`) duration slices on the track.
    pub duration_events: usize,
    /// Instant (`"ph":"i"`) markers on the track.
    pub instant_events: usize,
}

/// Summary of a parsed Chrome trace: proof the export is well-formed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeTraceSummary {
    /// Entries in `traceEvents`.
    pub total_events: usize,
    /// Every `(pid, tid)` track seen, ordered by `(pid, tid)`.
    pub tracks: Vec<ChromeTrack>,
}

impl ChromeTraceSummary {
    /// The named duration tracks of one process group (e.g. the fleet
    /// group's device tracks), ordered by tid.
    pub fn tracks_of(&self, pid: u64) -> Vec<&ChromeTrack> {
        self.tracks.iter().filter(|t| t.pid == pid).collect()
    }
}

/// Parses `json` as Chrome trace-event JSON and summarizes its tracks.
///
/// # Errors
///
/// Returns a description of the first syntax or structural problem: the
/// trace must be a JSON object with a `traceEvents` array of objects.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceSummary, String> {
    let value = json::parse(json)?;
    let top = value.as_object().ok_or("top level is not an object")?;
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut tracks: HashMap<(u64, u64), ChromeTrack> = HashMap::new();
    for (i, event) in events.iter().enumerate() {
        let obj = event
            .as_object()
            .ok_or_else(|| format!("traceEvents[{i}] is not an object"))?;
        let field = |name: &str| obj.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let ph = field("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("traceEvents[{i}] has no ph"))?
            .to_owned();
        let pid = field("pid").and_then(|v| v.as_u64()).unwrap_or(0);
        let tid = field("tid").and_then(|v| v.as_u64()).unwrap_or(0);
        let track = tracks.entry((pid, tid)).or_insert_with(|| ChromeTrack {
            pid,
            tid,
            name: None,
            duration_events: 0,
            instant_events: 0,
        });
        match ph.as_str() {
            "X" => {
                if field("dur").and_then(|v| v.as_f64()).is_none() {
                    return Err(format!("traceEvents[{i}]: X event without dur"));
                }
                track.duration_events += 1;
            }
            "i" => track.instant_events += 1,
            "M" => {
                let is_thread_name = field("name").and_then(|v| v.as_str()) == Some("thread_name");
                if is_thread_name {
                    let name = field("args")
                        .and_then(|v| v.as_object())
                        .and_then(|args| {
                            args.iter()
                                .find(|(k, _)| k == "name")
                                .map(|(_, v)| v.clone())
                        })
                        .and_then(|v| v.as_str().map(str::to_owned));
                    track.name = name;
                }
            }
            _ => {}
        }
    }
    let mut tracks: Vec<ChromeTrack> = tracks.into_values().collect();
    tracks.sort_by_key(|t| (t.pid, t.tid));
    Ok(ChromeTraceSummary {
        total_events: events.len(),
        tracks,
    })
}

/// A minimal recursive-descent JSON reader, enough to validate the JSON
/// this workspace emits (which deliberately has no serde): Chrome traces
/// here, and the `BENCH_*.json` artifacts via
/// `qoncord_bench::require_keys`. It is a *reader*, not a general JSON
/// library — object keys stay in document order and numbers are `f64`.
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` or `false`.
        Bool(bool),
        /// Any number; JSON does not distinguish integers from floats.
        Number(f64),
        /// A string, with escapes decoded.
        String(String),
        /// An array of values.
        Array(Vec<Value>),
        /// An object as `(key, value)` pairs in document order
        /// (duplicate keys are kept, callers take the first match).
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// The object's fields, or `None` for non-objects.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(fields) => Some(fields),
                _ => None,
            }
        }

        /// The array's items, or `None` for non-arrays.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        /// The string's contents, or `None` for non-strings.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        /// The number, or `None` for non-numbers.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The number as an unsigned integer, `None` unless it is a
        /// non-negative whole number (or for non-numbers).
        pub(super) fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }
    }

    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset description of the first syntax error, or of
    /// trailing non-whitespace after the document.
    pub fn parse(input: &str) -> Result<Value, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if bytes.get(*pos) != Some(&c) {
            return Err(format!("expected '{}' at byte {}", c as char, *pos));
        }
        *pos += 1;
        Ok(())
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".to_owned()),
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
            Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
            Some(_) => parse_number(bytes, pos),
        }
    }

    fn parse_literal(
        bytes: &[u8],
        pos: &mut usize,
        literal: &str,
        value: Value,
    ) -> Result<Value, String> {
        if !bytes[*pos..].starts_with(literal.as_bytes()) {
            return Err(format!("invalid literal at byte {}", *pos));
        }
        *pos += literal.len();
        Ok(value)
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        std::str::from_utf8(&bytes[start..*pos])
            .ok()
            .filter(|s| is_number(s))
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    /// JSON's number grammar, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn is_number(s: &str) -> bool {
        let digits = |d: &str| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit());
        let s = s.strip_prefix('-').unwrap_or(s);
        let (mantissa, exp) = s.split_once(['e', 'E']).unwrap_or((s, "0"));
        let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
        digits(int)
            && (int == "0" || !int.starts_with('0'))
            && digits(frac)
            && digits(exp.strip_prefix(['+', '-']).unwrap_or(exp))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => out.push(c as char),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", *pos))
                }
                Some(_) => {
                    // The run to the next quote, backslash or control byte:
                    // ASCII bounds it, so it is whole characters of `input`.
                    let run = *pos;
                    let plain = |b: &u8| *b >= 0x20 && *b != b'"' && *b != b'\\';
                    while bytes.get(*pos).is_some_and(plain) {
                        *pos += 1;
                    }
                    let text = std::str::from_utf8(&bytes[run..*pos]).map_err(|_| "bad utf-8")?;
                    out.push_str(text);
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            fields.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Consumer 2: report reconstruction (the losslessness proof)
// ---------------------------------------------------------------------------

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
    /// Field-by-field comparison against an engine report. Every
    /// discrepancy is one human-readable line; an empty result means the
    /// rebuild matches bit-for-bit (telemetry, fleet accounting, status
    /// kinds and denial payloads, calibration history, trace summary).
    /// Jobs are compared pair by pair only when the job counts match; the
    /// run-wide fields are compared always.
    pub fn diff(&self, report: &OrchestratorReport) -> Vec<String> {
        use crate::telemetry::JobStatus;
        let mut diffs = Vec::new();
        let paired: &[_] = if self.jobs.len() == report.jobs.len() {
            &report.jobs
        } else {
            diffs.push(format!(
                "job count: rebuilt {} vs engine {}",
                self.jobs.len(),
                report.jobs.len()
            ));
            &[]
        };
        for (i, (mine, theirs)) in self.jobs.iter().zip(paired).enumerate() {
            if mine.id != theirs.id {
                diffs.push(format!("job {i} id: {} vs {}", mine.id, theirs.id));
            }
            if mine.tenant != theirs.tenant {
                diffs.push(format!(
                    "job {i} tenant: {} vs {}",
                    mine.tenant, theirs.tenant
                ));
            }
            if mine.priority != theirs.priority {
                diffs.push(format!(
                    "job {i} priority: {} vs {}",
                    mine.priority, theirs.priority
                ));
            }
            let status_matches = match (&mine.outcome, &theirs.status) {
                (ReconstructedOutcome::Completed, JobStatus::Completed { .. }) => true,
                (
                    ReconstructedOutcome::FilterRejected { devices },
                    JobStatus::Rejected { rejected },
                ) => *devices == rejected.len(),
                (
                    ReconstructedOutcome::Denied { estimate, deadline },
                    JobStatus::Denied {
                        estimate: their_estimate,
                        deadline: their_deadline,
                    },
                ) => estimate == their_estimate && deadline == their_deadline,
                _ => false,
            };
            if !status_matches {
                diffs.push(format!(
                    "job {i} status: rebuilt {:?} vs engine {:?}",
                    mine.outcome, theirs.status
                ));
            }
            if mine.telemetry != theirs.telemetry {
                diffs.push(format!(
                    "job {i} telemetry:\n  rebuilt {:?}\n  engine  {:?}",
                    mine.telemetry, theirs.telemetry
                ));
            }
        }
        if self.fleet != report.fleet {
            diffs.push(format!(
                "fleet:\n  rebuilt {:?}\n  engine  {:?}",
                self.fleet, report.fleet
            ));
        }
        if self.calibration != report.calibration {
            diffs.push(format!(
                "calibration history: rebuilt {} entries vs engine {}",
                self.calibration.len(),
                report.calibration.len()
            ));
        }
        if self.trace != report.trace {
            diffs.push(format!(
                "trace summary:\n  rebuilt {:?}\n  engine  {:?}",
                self.trace, report.trace
            ));
        }
        diffs
    }
}

/// Rebuilds per-job and fleet telemetry from a captured event stream
/// alone: the engine's own accounting fold run over `records` — the same
/// additions in the same order, so every rebuilt float is bit-identical to
/// the engine's.
///
/// A capture that lost its head (the tail of a [`RingBufferSink`]) still
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
/// [`TraceSummary`]. The engine's [`Tracer`] feeds it every event as it is
/// emitted, reads its decision inputs back from it and builds the report
/// from it; [`reconstruct_report`] feeds it a captured slice.
#[derive(Debug, Default)]
struct ReportFold {
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
    fn apply(&mut self, record: &TraceRecord) {
        self.summary.events.count(&record.event);
        if self.account(record).is_none() {
            self.orphaned += 1;
        }
    }

    fn job(&self, job: usize) -> Option<&ReconstructedJob> {
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
                    AdmissionDecision::Downgrade => {
                        s.telemetry.downgraded = true;
                        s.telemetry.deadline = *deadline;
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
                shard,
                device,
                burned_seconds,
                ..
            } => {
                self.cost_per_second(*device)?;
                let s = self.jobs.get_mut(*job)?.as_mut()?;
                s.telemetry.evictions += 1;
                s.telemetry.wasted_seconds += burned_seconds;
                s.telemetry.record_shard_waste(*shard, *burned_seconds);
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

    fn finish(self) -> ReconstructedReport {
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
    fn ring_buffer_drops_oldest_first_and_keeps_the_tail_intact() {
        let mut sink = RingBufferSink::with_capacity(3);
        for seq in 0..10u64 {
            sink.record(&record(seq, seq as f64, TraceEvent::JobComplete { job: 0 }));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 7);
        let seqs: Vec<u64> = sink.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9], "tail survives in order");
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
}
