//! Flight-recorder guarantees, end to end: on the contended preemption
//! trace and the restart-splitting trace, the captured event stream must be
//! *lossless* (replaying it rebuilds the engine's report bit-for-bit),
//! *deterministic* (two identical runs serialize to byte-identical JSONL),
//! and *consumable* (the Chrome/Perfetto export validates with one busy
//! track per fleet device; the report's histograms cover every job).

use qoncord::cloud::policy::Policy;
use qoncord::core::executor::QaoaFactory;
use qoncord::core::scheduler::QoncordConfig;
use qoncord::core::SelectionPolicy;
use qoncord::device::catalog;
use qoncord::orchestrator::trace::json::Value;
use qoncord::orchestrator::trace::{
    self, JsonlSink, MemorySink, TraceHandle, CHROME_FLEET_PID, CHROME_JOBS_PID,
};
use qoncord::orchestrator::{
    two_lf_one_hf_fleet, two_lf_two_hf_fleet, DeadlineClass, FleetDevice, Orchestrator,
    OrchestratorConfig, OrchestratorReport, PreemptionConfig, SplitConfig, TenantJob,
};
use qoncord::vqa::{graph::Graph, maxcut::MaxCut};
use std::cell::RefCell;
use std::rc::Rc;

fn factory() -> QaoaFactory {
    QaoaFactory {
        problem: MaxCut::new(Graph::paper_graph_7()),
        layers: 1,
    }
}

/// The `orchestrator_preemption` trace: seven batch tenants at t=0 plus an
/// urgent interactive arrival at t=1, preemption on, 2-LF/1-HF fleet.
fn preemption_jobs() -> Vec<TenantJob> {
    (0..8)
        .map(|i| {
            let cfg = QoncordConfig {
                exploration_max_iterations: 8,
                finetune_max_iterations: 10,
                seed: 0xBEE5 + i as u64,
                ..QoncordConfig::default()
            };
            let job = TenantJob::new(i, format!("tenant-{i}"), 0.0, Box::new(factory()))
                .with_restarts(3)
                .with_config(cfg);
            if i == 7 {
                let mut job = job
                    .with_priority(4)
                    .with_deadline_class(DeadlineClass::Interactive);
                job.arrival = 1.0;
                job
            } else {
                job
            }
        })
        .collect()
}

fn run_preemption(trace: TraceHandle) -> OrchestratorReport {
    let config = OrchestratorConfig {
        policy: Policy::Qoncord,
        preemption: PreemptionConfig::enabled(),
        trace,
        ..OrchestratorConfig::default()
    };
    Orchestrator::new(config, two_lf_one_hf_fleet()).run(&preemption_jobs())
}

/// The `orchestrator_split` trace: eight restart-heavy jobs staggered by
/// half a solo run's busy time, splitting on, twin 2-LF/2-HF fleet.
fn split_jobs(gap: f64) -> Vec<TenantJob> {
    (0..8)
        .map(|i| {
            let cfg = QoncordConfig {
                exploration_max_iterations: 8,
                finetune_max_iterations: 6,
                selection: SelectionPolicy::TopK(2),
                seed: 100 + i as u64,
                ..QoncordConfig::default()
            };
            TenantJob::new(
                i,
                format!("tenant-{i}"),
                i as f64 * gap,
                Box::new(factory()),
            )
            .with_restarts(6)
            .with_config(cfg)
        })
        .collect()
}

fn run_split(trace: TraceHandle) -> OrchestratorReport {
    let solo = Orchestrator::new(OrchestratorConfig::default(), two_lf_two_hf_fleet())
        .run(&split_jobs(0.0)[..1]);
    let gap = solo.jobs[0].telemetry.busy_seconds() * 0.5;
    let config = OrchestratorConfig {
        split: SplitConfig::enabled(),
        trace,
        ..OrchestratorConfig::default()
    };
    Orchestrator::new(config, two_lf_two_hf_fleet()).run(&split_jobs(gap))
}

#[test]
fn reconstruction_matches_the_engine_report_on_the_preemption_trace() {
    let sink = Rc::new(RefCell::new(MemorySink::new()));
    let report = run_preemption(TraceHandle::to(sink.clone()));
    assert_eq!(report.completed(), 8);
    assert!(report.total_evictions() > 0, "trace must exercise eviction");

    let records = sink.borrow().records().to_vec();
    let rebuilt = trace::reconstruct_report(&records);
    let diff = rebuilt.diff(&report);
    assert!(
        diff.is_empty(),
        "replayed telemetry must match the engine bit-for-bit:\n{}",
        diff.join("\n")
    );

    // The stream is internally consistent with the report's own counters.
    let counts = &report.trace.events;
    assert_eq!(counts.evictions, report.total_evictions());
    assert_eq!(counts.job_completions, report.completed() as u64);
    assert_eq!(counts.devices_defined, 3);
    assert!(counts.lease_grants >= counts.lease_completions);
    assert_eq!(counts.total(), records.len() as u64);
    // seq is dense and strictly increasing.
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64);
    }
}

#[test]
fn reconstruction_matches_the_engine_report_on_the_split_trace() {
    let sink = Rc::new(RefCell::new(MemorySink::new()));
    let report = run_split(TraceHandle::to(sink.clone()));
    assert_eq!(report.completed(), 8);
    assert!(
        report.jobs.iter().any(|j| j.telemetry.shards > 2),
        "trace must exercise splitting"
    );

    let records = sink.borrow().records().to_vec();
    let rebuilt = trace::reconstruct_report(&records);
    let diff = rebuilt.diff(&report);
    assert!(
        diff.is_empty(),
        "replayed telemetry must match the engine bit-for-bit:\n{}",
        diff.join("\n")
    );
}

/// Six `ibmq_toronto` twins, twelve identical two-restart jobs at t = 0:
/// every device's lease expires at the same virtual instant, the densest
/// same-instant traffic in the suite — what would expose a hash-iteration
/// order leaking into `(time, seq)` replay.
fn run_lockstep(trace: TraceHandle) -> OrchestratorReport {
    let fleet: Vec<FleetDevice> = (0..6)
        .map(|i| FleetDevice::new(catalog::ibmq_toronto().renamed(format!("twin_{i}"))))
        .collect();
    let jobs: Vec<TenantJob> = (0..12)
        .map(|i| {
            let cfg = QoncordConfig {
                exploration_max_iterations: 6,
                finetune_max_iterations: 4,
                seed: 0x51AD + i as u64,
                ..QoncordConfig::default()
            };
            TenantJob::new(i, format!("tenant-{i}"), 0.0, Box::new(factory()))
                .with_restarts(2)
                .with_config(cfg)
        })
        .collect();
    let config = OrchestratorConfig {
        trace,
        ..OrchestratorConfig::default()
    };
    Orchestrator::new(config, fleet).run(&jobs)
}

#[test]
fn jsonl_capture_is_byte_identical_across_identical_runs() {
    for run in [run_preemption, run_lockstep] {
        let capture = || {
            let sink = Rc::new(RefCell::new(JsonlSink::new()));
            run(TraceHandle::to(sink.clone()));
            let jsonl = sink.borrow().as_str().to_owned();
            jsonl
        };
        let first = capture();
        let second = capture();
        assert!(!first.is_empty());
        assert_eq!(
            first.as_bytes(),
            second.as_bytes(),
            "same config + seed must serialize byte-identically"
        );
    }

    // The lockstep scenario must stay lockstep: completions share instants.
    let sink = Rc::new(RefCell::new(MemorySink::new()));
    run_lockstep(TraceHandle::to(sink.clone()));
    let sink = sink.borrow();
    let completions: Vec<f64> = sink
        .records()
        .iter()
        .filter(|r| matches!(r.event, trace::TraceEvent::LeaseComplete { .. }))
        .map(|r| r.time)
        .collect();
    assert!(
        completions.windows(2).any(|w| w[0] == w[1]),
        "no two lease completions share a timestamp: the scenario stopped being lockstep"
    );
}

#[test]
fn chrome_export_validates_with_a_busy_track_per_device() {
    let sink = Rc::new(RefCell::new(MemorySink::new()));
    let report = run_split(TraceHandle::to(sink.clone()));
    let json = trace::chrome_export(sink.borrow().records());
    let summary = trace::validate_chrome_trace(&json).expect("export must be valid JSON");

    let device_tracks: Vec<_> = summary
        .tracks_of(CHROME_FLEET_PID)
        .into_iter()
        .filter(|t| t.name.is_some())
        .collect();
    assert_eq!(device_tracks.len(), report.fleet.devices.len());
    for track in &device_tracks {
        assert!(
            track.duration_events > 0,
            "device track {:?} must carry at least one lease slice",
            track.name
        );
    }
    // Every job gets a span on the tenant side.
    let job_tracks = summary.tracks_of(CHROME_JOBS_PID);
    assert_eq!(
        job_tracks.iter().filter(|t| t.duration_events > 0).count(),
        report.jobs.len()
    );
}

#[test]
fn report_histograms_and_chrome_slices_cover_every_job_and_device() {
    let sink = Rc::new(RefCell::new(MemorySink::new()));
    let report = run_preemption(TraceHandle::to(sink.clone()));
    let trace = &report.trace;
    let completed = report.completed() as u64;
    assert_eq!(trace.wait.count(), completed);
    assert_eq!(trace.turnaround.count(), completed);
    assert!(trace.wait.mean().is_finite());
    assert!(trace.turnaround.mean() >= trace.wait.mean());
    assert!(trace.queue_depth.count() > 0);
    assert!(trace.device_backlog.count() > 0);

    // The two views of device occupancy — the report's fleet accounting and
    // the Chrome export's device tracks — must agree second for second.
    let json = trace::chrome_export(sink.borrow().records());
    let parsed = trace::json::parse(&json).expect("export must be valid JSON");
    fn field<'a>(object: &'a Value, key: &str) -> Option<&'a Value> {
        let fields = object.as_object().expect("trace events are objects");
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    let events = field(&parsed, "traceEvents").expect("traceEvents present");
    let mut occupied = vec![0.0; report.fleet.devices.len()];
    for event in events.as_array().expect("traceEvents is an array") {
        let number = |key| field(event, key).and_then(Value::as_f64);
        if field(event, "ph").and_then(Value::as_str) == Some("X")
            && number("pid") == Some(CHROME_FLEET_PID as f64)
        {
            let (tid, dur) = (number("tid").expect("tid"), number("dur").expect("dur"));
            occupied[tid as usize] += dur / 1e6;
        }
    }
    assert!(report.total_wasted_seconds() > 0.0, "the scenario evicts");
    for (device, occupied) in report.fleet.devices.iter().zip(occupied) {
        let accounted = device.busy_seconds + device.wasted_seconds;
        assert!(
            (occupied - accounted).abs() < 1e-6,
            "{}: chrome slices {occupied} vs report {accounted}",
            device.name
        );
    }
}
