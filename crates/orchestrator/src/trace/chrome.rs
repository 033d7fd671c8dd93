//! The Chrome / Perfetto consumer: a captured run as trace-event JSON, and
//! the validator that proves an export well-formed.

use super::json::{self, ToJson};
use super::{TraceEvent, TraceRecord};
use std::collections::HashMap;

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
    let mut events = Events {
        out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
        empty: true,
    };
    events.metadata(CHROME_FLEET_PID, 0, "process_name", "fleet devices");
    events.metadata(CHROME_JOBS_PID, 0, "process_name", "jobs by tenant");
    if profile.is_some() {
        events.metadata(CHROME_PROF_PID, 0, "process_name", "wall-clock profiler");
        events.metadata(CHROME_PROF_PID, 0, "thread_name", "profiled thread");
    }

    // Job identity (tenant, submitted id) from the arrival events, and
    // queue depth recomputed from the reservation lifecycle.
    let mut job_label: HashMap<usize, String> = HashMap::new();
    let mut depth: i64 = 0;
    for record in records {
        match &record.event {
            TraceEvent::DeviceDefined { device, name, .. } => {
                events.metadata(CHROME_FLEET_PID, *device, "thread_name", name);
            }
            TraceEvent::Arrival {
                job, id, tenant, ..
            } => {
                let label = format!("{tenant} · job {id}");
                events.metadata(CHROME_JOBS_PID, *job, "thread_name", &label);
                job_label.insert(*job, label);
            }
            _ => {}
        }
    }
    let label = |job: &usize| {
        job_label
            .get(job)
            .cloned()
            .unwrap_or_else(|| format!("job {job}"))
    };

    let mut job_span_start: HashMap<usize, f64> = HashMap::new();
    for record in records {
        let ts = us(record.time);
        match &record.event {
            TraceEvent::Arrival { job, .. } => {
                job_span_start.insert(*job, record.time);
            }
            TraceEvent::AdmissionVerdict { job, decision, .. } => {
                let name = format!("admission: {}", decision.as_str());
                events.instant((CHROME_JOBS_PID, *job), ts, &name);
            }
            TraceEvent::QueuePush { .. } | TraceEvent::HoldPush { .. } => {
                depth += 1;
                events.counter(CHROME_FLEET_PID, ts, "queue depth", &[("requests", &depth)]);
            }
            TraceEvent::LeaseGrant { .. } | TraceEvent::HoldRelease { .. } => {
                depth -= 1;
                events.counter(CHROME_FLEET_PID, ts, "queue depth", &[("requests", &depth)]);
            }
            TraceEvent::LeaseComplete {
                lease,
                job,
                shard,
                device,
                granted_at,
                executions,
                ..
            } => events.slice(
                (CHROME_FLEET_PID, *device),
                (us(*granted_at), us(record.time - granted_at)),
                ("lease", &label(job)),
                &[
                    ("lease", lease),
                    ("shard", shard),
                    ("executions", executions),
                ],
            ),
            TraceEvent::Eviction {
                lease,
                job,
                shard,
                device,
                burned_seconds,
                ..
            } => {
                events.slice(
                    (CHROME_FLEET_PID, *device),
                    (us(record.time - burned_seconds), us(*burned_seconds)),
                    ("evicted", &format!("evicted: {}", label(job))),
                    &[("lease", lease), ("shard", shard)],
                );
                let name = format!("evicted from device {device}");
                events.instant((CHROME_JOBS_PID, *job), ts, &name);
            }
            TraceEvent::JobComplete { job } => {
                if let Some(start) = job_span_start.remove(job) {
                    events.slice(
                        (CHROME_JOBS_PID, *job),
                        (us(start), us(record.time - start)),
                        ("job", &label(job)),
                        &[],
                    );
                }
            }
            TraceEvent::FilterRejected { job, .. } => {
                events.instant((CHROME_JOBS_PID, *job), ts, "rejected by fidelity filter")
            }
            _ => {}
        }
    }
    if let Some(perf) = profile {
        for span in &perf.spans {
            let entry = &perf.entries[span.entry];
            events.slice(
                (CHROME_PROF_PID, 0),
                (span.start_ns as f64 / 1e3, span.dur_ns as f64 / 1e3),
                ("prof", entry.label()),
                &[("path", &entry.folded_path().as_str())],
            );
        }
        let dropped = perf.dropped_spans;
        if dropped > 0 {
            let name = format!("{dropped} spans dropped past the retention cap");
            events.instant((CHROME_PROF_PID, 0), 0.0, &name);
        }
    }
    events.out.push_str("\n]}\n");
    events.out
}

/// The `traceEvents` array being written, one event object per line.
struct Events {
    out: String,
    empty: bool,
}

/// The `args` of an event, in order.
type Args<'a> = &'a [(&'a str, &'a dyn ToJson)];

impl Events {
    fn push(&mut self, body: impl FnOnce(&mut json::Object<'_>)) {
        if !std::mem::take(&mut self.empty) {
            self.out.push_str(",\n");
        }
        json::object(&mut self.out, body);
    }

    /// Names a track group (`which` = `process_name`) or one track of it
    /// (`thread_name`).
    fn metadata(&mut self, pid: u64, tid: usize, which: &str, name: &str) {
        self.push(|e| {
            e.field("ph", "M").field("pid", pid).field("tid", tid);
            e.field("name", which);
            e.object("args", |a| fields(a, &[("name", &name)]));
        });
    }

    /// A duration slice on track `(pid, tid)` over `(ts, dur)` µs, labelled
    /// `(category, name)`; an empty `args` writes no `args` object.
    fn slice(
        &mut self,
        (pid, tid): (u64, usize),
        (ts, dur): (f64, f64),
        (cat, name): (&str, &str),
        args: Args<'_>,
    ) {
        self.push(|e| {
            e.field("ph", "X").field("pid", pid).field("tid", tid);
            e.field("ts", ts).field("dur", dur);
            e.field("cat", cat).field("name", name);
            if !args.is_empty() {
                e.object("args", |a| fields(a, args));
            }
        });
    }

    /// A thread-scoped instant marker on track `(pid, tid)` at `ts` µs.
    fn instant(&mut self, (pid, tid): (u64, usize), ts: f64, name: &str) {
        self.push(|e| {
            e.field("ph", "i").field("s", "t");
            e.field("pid", pid).field("tid", tid);
            e.field("ts", ts).field("name", name);
        });
    }

    /// One sample of the process-wide counter track `name` at `ts` µs.
    fn counter(&mut self, pid: u64, ts: f64, name: &str, args: Args<'_>) {
        self.push(|e| {
            e.field("ph", "C").field("pid", pid);
            e.field("ts", ts).field("name", name);
            e.object("args", |a| fields(a, args));
        });
    }
}

fn fields(object: &mut json::Object<'_>, args: Args<'_>) {
    for (key, value) in args {
        object.field(key, value);
    }
}

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
