//! End-to-end determinism regression for the fast simulator kernels: the
//! contended eight-tenant preemption scenario must produce the same
//! training outcomes whether it runs on the fast kernels or the preserved
//! scalar seed kernels (`qoncord_sim::reference`), and the same bits every
//! time it runs.
//!
//! Two guarantees, at two strengths:
//!
//! * fast vs reference — *within tolerance*: the fast evaluation pipeline
//!   batches Pauli sweeps, which reorders floating-point reductions, so
//!   per-restart parameters and energies agree to 1e-9 but not bit-for-bit;
//! * run vs run — *bit-identical*: nothing in the stack depends on the
//!   host (one engine thread, one simulator thread, seeded RNGs, ordered
//!   maps), so the entire report (params, energies, event stream) repeats.

use qoncord::cloud::policy::Policy;
use qoncord::core::executor::QaoaFactory;
use qoncord::core::scheduler::QoncordConfig;
use qoncord::orchestrator::trace::{MemorySink, TraceHandle, TraceRecord};
use qoncord::orchestrator::{
    two_lf_one_hf_fleet, DeadlineClass, Orchestrator, OrchestratorConfig, OrchestratorReport,
    PreemptionConfig, TenantJob,
};
use qoncord::sim::reference::ScopedReference;
use qoncord::vqa::{graph::Graph, maxcut::MaxCut};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};

const N_TENANTS: usize = 8;
const N_RESTARTS: usize = 3;
const URGENT: usize = 7;

/// The first test flips the process-global reference switch; serialize them.
static GLOBAL: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

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

fn run() -> (OrchestratorReport, Vec<TraceRecord>) {
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
    let report = orchestrator.run(&jobs());
    let records = sink.borrow().records().to_vec();
    (report, records)
}

#[test]
fn fast_kernels_track_the_scalar_seed_run_within_tolerance() {
    let _lock = exclusive();
    let (fast, _) = run();
    let (seed, _) = {
        let _guard = ScopedReference::new();
        run()
    };

    assert_eq!(fast.jobs.len(), seed.jobs.len());
    for (a, b) in fast.jobs.iter().zip(&seed.jobs) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.tenant, b.tenant);
        let (ra, rb) = (
            a.status.report().expect("job completed"),
            b.status.report().expect("job completed"),
        );
        assert_eq!(ra.total_executions(), rb.total_executions());
        assert!(
            (ra.best_expectation() - rb.best_expectation()).abs() < 1e-9,
            "tenant {}: best energy {} vs seed {}",
            a.tenant,
            ra.best_expectation(),
            rb.best_expectation()
        );
        assert_eq!(ra.restarts.len(), rb.restarts.len());
        for (x, y) in ra.restarts.iter().zip(&rb.restarts) {
            assert!(
                (x.final_expectation - y.final_expectation).abs() < 1e-9,
                "tenant {}: restart energy {} vs seed {}",
                a.tenant,
                x.final_expectation,
                y.final_expectation
            );
            assert_eq!(x.final_params.len(), y.final_params.len());
            for (p, q) in x.final_params.iter().zip(&y.final_params) {
                assert!(
                    (p - q).abs() < 1e-9,
                    "tenant {}: param {p} vs seed {q}",
                    a.tenant
                );
            }
        }
    }
}

#[test]
fn running_twice_never_changes_a_single_bit_of_the_run() {
    let _lock = exclusive();
    let (base, base_records) = run();
    let (report, records) = run();
    assert_eq!(records, base_records, "event stream diverged between runs");
    assert_eq!(report.trace, base.trace);
    assert_eq!(report.queue_ops, base.queue_ops);
    assert_eq!(report.jobs.len(), base.jobs.len());
    for (a, b) in report.jobs.iter().zip(&base.jobs) {
        assert_eq!(a.telemetry, b.telemetry);
        let (ra, rb) = (
            a.status.report().expect("job completed"),
            b.status.report().expect("job completed"),
        );
        assert_eq!(
            ra.best_expectation().to_bits(),
            rb.best_expectation().to_bits(),
            "tenant {}: best energy changed between runs",
            a.tenant
        );
        for (x, y) in ra.restarts.iter().zip(&rb.restarts) {
            assert_eq!(x.final_expectation.to_bits(), y.final_expectation.to_bits());
            let bits_a: Vec<u64> = x.final_params.iter().map(|p| p.to_bits()).collect();
            let bits_b: Vec<u64> = y.final_params.iter().map(|p| p.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "tenant {} params drifted", a.tenant);
        }
    }
}
