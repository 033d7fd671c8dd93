//! Wall-clock profiler guards: profiling is an observer, not a
//! participant. On the contended eight-tenant preemption scenario, a run
//! with a profiler installed must produce a bit-identical
//! [`OrchestratorReport`] and event stream versus an unprofiled run (the
//! determinism guard), and the unprofiled run's snapshot must be empty.

use qoncord::cloud::policy::Policy;
use qoncord::core::executor::QaoaFactory;
use qoncord::core::prof::{folded_export, Profiler};
use qoncord::core::scheduler::QoncordConfig;
use qoncord::orchestrator::trace::{MemorySink, TraceHandle, TraceRecord};
use qoncord::orchestrator::{
    two_lf_one_hf_fleet, DeadlineClass, Orchestrator, OrchestratorConfig, OrchestratorReport,
    PreemptionConfig, TenantJob,
};
use qoncord::vqa::{graph::Graph, maxcut::MaxCut};
use std::cell::RefCell;
use std::rc::Rc;

const N_TENANTS: usize = 8;
const N_RESTARTS: usize = 3;
/// Index of the latency-sensitive tenant.
const URGENT: usize = 7;

fn factory() -> QaoaFactory {
    QaoaFactory {
        problem: MaxCut::new(Graph::paper_graph_7()),
        layers: 1,
    }
}

fn training_config(tenant: usize) -> QoncordConfig {
    QoncordConfig {
        exploration_max_iterations: 8,
        finetune_max_iterations: 10,
        seed: 0xBEE5 + tenant as u64,
        ..QoncordConfig::default()
    }
}

/// The contended preemption scenario: seven batch tenants at t=0, one
/// urgent interactive arrival at t=1 — evictions, admission assessments,
/// and calibration updates all fire, so every instrumented engine path
/// runs under the profiler.
fn jobs() -> Vec<TenantJob> {
    (0..N_TENANTS)
        .map(|i| {
            let job = TenantJob::new(i, format!("tenant-{i}"), 0.0, Box::new(factory()))
                .with_restarts(N_RESTARTS)
                .with_config(training_config(i));
            if i == URGENT {
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

fn run(profiler: Option<&Profiler>) -> (OrchestratorReport, Vec<TraceRecord>) {
    let sink = Rc::new(RefCell::new(MemorySink::new()));
    let orchestrator = Orchestrator::new(
        OrchestratorConfig {
            policy: Policy::Qoncord,
            preemption: PreemptionConfig::enabled(),
            trace: TraceHandle::to(sink.clone()),
            ..OrchestratorConfig::default()
        },
        two_lf_one_hf_fleet(),
    );
    let report = match profiler {
        Some(p) => {
            let _installed = p.install();
            orchestrator.run(&jobs())
        }
        None => orchestrator.run(&jobs()),
    };
    let records = sink.borrow().records().to_vec();
    (report, records)
}

#[test]
fn profiling_changes_nothing_but_the_perf_snapshot() {
    let (plain, plain_records) = run(None);
    let profiler = Profiler::new();
    let (profiled, profiled_records) = run(Some(&profiler));

    // The profiler observed the run...
    assert!(plain.perf.is_empty(), "unprofiled runs carry no snapshot");
    assert!(folded_export(&plain.perf).is_empty());
    assert!(!profiled.perf.is_empty(), "profiled runs must attribute");
    assert!(profiled.perf.entry(&["engine::run"]).is_some());
    assert!(!folded_export(&profiled.perf).is_empty());

    // ...without perturbing it: the complete event stream is
    // bit-identical, which pins every admission verdict, lease grant,
    // eviction, and virtual timestamp of the run.
    assert_eq!(
        profiled_records, plain_records,
        "the flight-recorder streams must match event for event"
    );
    assert_eq!(profiled.trace, plain.trace);
    assert_eq!(profiled.calibration, plain.calibration);
    assert_eq!(profiled.fleet, plain.fleet);
    assert_eq!(profiled.tenant_usage, plain.tenant_usage);
    assert_eq!(profiled.queue_ops, plain.queue_ops);

    // And every job's training outcome is numerically identical, down to
    // the per-restart parameters.
    assert_eq!(profiled.jobs.len(), plain.jobs.len());
    for (a, b) in profiled.jobs.iter().zip(&plain.jobs) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.tenant, b.tenant);
        assert_eq!(a.telemetry, b.telemetry);
        let (ra, rb) = (
            a.status.report().expect("job completed"),
            b.status.report().expect("job completed"),
        );
        assert_eq!(ra.best_expectation(), rb.best_expectation());
        assert_eq!(ra.total_executions(), rb.total_executions());
        for (x, y) in ra.restarts.iter().zip(&rb.restarts) {
            assert_eq!(x.final_expectation, y.final_expectation);
            assert_eq!(x.final_params, y.final_params);
        }
    }
}
