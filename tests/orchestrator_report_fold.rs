//! The report is a fold of the engine's own event stream: it must not
//! depend on which sink (if any) is attached, the captured stream must
//! replay into it bit-for-bit, and a capture that lost its head must still
//! replay — skipping, and counting, what it can no longer attribute.

use qoncord::cloud::policy::Policy;
use qoncord::core::executor::QaoaFactory;
use qoncord::core::scheduler::QoncordConfig;
use qoncord::core::SelectionPolicy;
use qoncord::orchestrator::trace::{self, JsonlSink, MemorySink, TraceHandle, TraceRecord};
use qoncord::orchestrator::{
    two_lf_one_hf_fleet, two_lf_two_hf_fleet, DeadlineClass, Orchestrator, OrchestratorConfig,
    OrchestratorReport, PreemptionConfig, SplitConfig, TenantJob,
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
fn run_preemption(trace: TraceHandle) -> OrchestratorReport {
    let jobs: Vec<TenantJob> = (0..8)
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
        .collect();
    let config = OrchestratorConfig {
        policy: Policy::Qoncord,
        preemption: PreemptionConfig::enabled(),
        trace,
        ..OrchestratorConfig::default()
    };
    Orchestrator::new(config, two_lf_one_hf_fleet()).run(&jobs)
}

/// The `orchestrator_split` trace: eight restart-heavy jobs 20 s apart,
/// splitting on, twin 2-LF/2-HF fleet.
fn run_split(trace: TraceHandle) -> OrchestratorReport {
    let jobs: Vec<TenantJob> = (0..8)
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
                i as f64 * 20.0,
                Box::new(factory()),
            )
            .with_restarts(6)
            .with_config(cfg)
        })
        .collect();
    let config = OrchestratorConfig {
        split: SplitConfig::enabled(),
        trace,
        ..OrchestratorConfig::default()
    };
    Orchestrator::new(config, two_lf_two_hf_fleet()).run(&jobs)
}

/// The whole report except `perf` (wall-clock). `Debug` for `f64` prints
/// the shortest round-trip representation, so equal strings mean equal bits.
fn fingerprint(report: &OrchestratorReport) -> String {
    format!(
        "jobs:{:?}\nfleet:{:?}\ntenants:{:?}\nqueue:{:?}\ncalibration:{:?}\nsummary:{:?}",
        report.jobs,
        report.fleet,
        report.tenant_usage,
        report.queue_ops,
        report.calibration,
        report.trace
    )
}

fn captured(run: fn(TraceHandle) -> OrchestratorReport) -> Vec<TraceRecord> {
    let sink = Rc::new(RefCell::new(MemorySink::new()));
    run(TraceHandle::to(sink.clone()));
    let records = sink.borrow().records().to_vec();
    records
}

#[test]
fn report_does_not_depend_on_the_attached_sink() {
    for run in [run_preemption, run_split] {
        let detached = run(TraceHandle::none());
        assert_eq!(detached.completed(), 8);
        let memory = Rc::new(RefCell::new(MemorySink::new()));
        let jsonl = Rc::new(RefCell::new(JsonlSink::new()));
        let on_memory = run(TraceHandle::to(memory.clone()));
        let on_jsonl = run(TraceHandle::to(jsonl.clone()));
        assert_eq!(
            jsonl.borrow().as_str().lines().count(),
            memory.borrow().records().len(),
            "both sinks saw the whole stream"
        );
        assert_eq!(fingerprint(&detached), fingerprint(&on_memory));
        assert_eq!(fingerprint(&detached), fingerprint(&on_jsonl));
    }
}

#[test]
fn captured_stream_replays_into_the_report() {
    for run in [run_preemption, run_split] {
        let sink = Rc::new(RefCell::new(MemorySink::new()));
        let report = run(TraceHandle::to(sink.clone()));
        let records = sink.borrow().records().to_vec();
        let rebuilt = trace::reconstruct_report(&records);
        assert_eq!(rebuilt.orphaned, 0);
        let diff = rebuilt.diff(&report);
        assert!(diff.is_empty(), "{}", diff.join("\n"));

        // A lost push moves nothing but the stream summary: the diff must
        // still see it.
        let without = |kind: &str| {
            let at = records
                .iter()
                .position(|r| r.event.kind() == kind)
                .expect("the run emits this event kind");
            let mut lossy = records.clone();
            lossy.remove(at);
            trace::reconstruct_report(&lossy).diff(&report)
        };
        let diff = without("queue_push");
        assert!(
            diff.iter().any(|d| d.starts_with("trace summary")),
            "{diff:?}"
        );
        // A lost arrival drops a job; the run-wide fields are still compared.
        let diff = without("arrival");
        assert!(diff.iter().any(|d| d.starts_with("job count")), "{diff:?}");
        assert!(diff.iter().any(|d| d.starts_with("fleet")), "{diff:?}");
    }
}

/// A capture that lost its head, as a bounded flight recorder would keep
/// it: the last 64 records of the preemption trace, long after the
/// `DeviceDefined` / `Arrival` preamble.
#[test]
fn ring_buffer_tail_replays_with_its_unattributable_events_counted() {
    let full = captured(run_preemption);
    let tail = &full[full.len() - 64..];
    assert!(
        !tail.iter().any(|r| matches!(
            r.event,
            trace::TraceEvent::DeviceDefined { .. } | trace::TraceEvent::Arrival { .. }
        )),
        "the tail must have lost the preamble"
    );
    let completions = tail
        .iter()
        .filter(|r| matches!(r.event, trace::TraceEvent::LeaseComplete { .. }))
        .count() as u64;
    assert!(completions > 0);

    let rebuilt = trace::reconstruct_report(tail);
    assert!(rebuilt.orphaned >= completions);
    assert!(rebuilt.jobs.is_empty() && rebuilt.fleet.devices.is_empty());
    assert_eq!(rebuilt.fleet.makespan, 0.0);
    assert_eq!(trace::reconstruct_report(&full).orphaned, 0);
}
