//! What the report keeps of the stream besides its per-job numbers: event
//! volume by kind and log-scale histograms of wait, turnaround, queue depth
//! and device backlog.

use super::TraceEvent;

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

    pub(super) fn count(&mut self, event: &TraceEvent) {
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
/// [`ReconstructedReport::trace`](super::ReconstructedReport::trace).
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
