//! End-to-end preemptive leasing: eight tenants on the 2-LF/1-HF fleet,
//! seven of them batch tenants and one latency-sensitive arrival. With
//! preemption on, the urgent arrival must be served strictly sooner than
//! the non-preemptive engine manages on the same trace — and every
//! preempted-and-resumed job's final energy and parameters must be
//! bit-identical to running it alone on the same ladder, because an evicted
//! lease resumes from its `PhaseRunner` checkpoint without losing a batch.

use qoncord::cloud::policy::Policy;
use qoncord::core::executor::QaoaFactory;
use qoncord::core::scheduler::{QoncordConfig, QoncordScheduler};
use qoncord::device::catalog;
use qoncord::device::noise_model::SimulatedBackend;
use qoncord::orchestrator::trace::{MemorySink, TraceEvent, TraceHandle};
use qoncord::orchestrator::{
    two_lf_one_hf_fleet, DeadlineClass, FleetDevice, Orchestrator, OrchestratorConfig,
    OrchestratorReport, PreemptionConfig, TenantJob,
};
use qoncord::vqa::evaluator::{CostEvaluator, QaoaEvaluator};
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

/// Seven batch tenants arrive at t=0; the urgent one arrives at t=1, deep
/// in the contended exploration phase when both LF devices are mid-lease.
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

fn run(preemptive: bool) -> OrchestratorReport {
    let config = OrchestratorConfig {
        policy: Policy::Qoncord,
        preemption: if preemptive {
            PreemptionConfig::enabled()
        } else {
            PreemptionConfig::default()
        },
        ..OrchestratorConfig::default()
    };
    Orchestrator::new(config, two_lf_one_hf_fleet()).run(&jobs())
}

#[test]
fn preempted_jobs_resume_bit_identically_and_urgent_arrivals_wait_less() {
    let baseline = run(false);
    let preemptive = run(true);
    assert_eq!(baseline.completed(), N_TENANTS);
    assert_eq!(preemptive.completed(), N_TENANTS);

    // (a) The urgent arrival's queueing delay drops strictly versus the
    // non-preemptive engine on the same trace.
    let wait = |r: &OrchestratorReport| r.jobs[URGENT].telemetry.wait_time().unwrap();
    assert!(
        wait(&baseline) > 0.0,
        "trace must be contended: the urgent arrival queues without preemption"
    );
    assert!(
        wait(&preemptive) < wait(&baseline),
        "preemption must cut the urgent arrival's wait: {} vs {}",
        wait(&preemptive),
        wait(&baseline)
    );
    assert!(
        preemptive.total_evictions() > 0,
        "the win must come from actual evictions"
    );
    assert_eq!(baseline.total_evictions(), 0);
    let victims: Vec<usize> = preemptive
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.telemetry.evictions > 0)
        .map(|(i, _)| i)
        .collect();
    assert!(!victims.is_empty(), "someone lost a lease");
    assert!(
        preemptive.total_wasted_seconds() > 0.0,
        "evictions burn occupancy and the ledger must say so"
    );

    // (b) Every job — the preempted-and-resumed victims above all — ends
    // bit-identical to sequential closed-loop scheduling with the same
    // seeds on the same (LF, HF) ladder: eviction recalls a lease before
    // its batch runs, so the resumed run replays the exact same trajectory.
    let sequential_devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
    for (i, job) in preemptive.jobs.iter().enumerate() {
        let sequential = QoncordScheduler::new(training_config(i))
            .run(&sequential_devices, &factory(), N_RESTARTS)
            .unwrap();
        let shared = job.status.report().expect("job completed");
        assert_eq!(
            shared.best_expectation(),
            sequential.best_expectation(),
            "tenant {i}: preempted run must match sequential energy exactly"
        );
        assert_eq!(
            shared.total_executions(),
            sequential.total_executions(),
            "tenant {i}: no batch may be lost or repeated"
        );
        for (a, b) in shared.restarts.iter().zip(&sequential.restarts) {
            assert_eq!(a.final_expectation, b.final_expectation);
            assert_eq!(
                a.final_params, b.final_params,
                "tenant {i}: parameters differ"
            );
        }
    }

    // Useful work is conserved despite evictions; wasted occupancy is
    // tracked separately and never counted as busy time.
    let fleet_busy: f64 = preemptive
        .fleet
        .devices
        .iter()
        .map(|d| d.busy_seconds)
        .sum();
    assert!((fleet_busy - preemptive.sequential_makespan()).abs() < 1e-6);

    // The urgent tenant ran under a resolved Interactive deadline.
    assert!(preemptive.jobs[URGENT].telemetry.deadline.is_some());
    assert!(preemptive.sla_attainment().is_some());
}

/// The override's tie-break, by hand, on one device. Every job is one
/// batch of three executions, and the device is slowed so each execution
/// takes exactly 8 s (a power-of-two scaling, so every balance below is
/// exact): a batch lasts 24 s. Priority 3 grants 150 s of credit, priority
/// 5 grants 250 s; both are charged back, with the batch's 24 s, when the
/// job completes. The six jobs share three tenants:
///
/// * H — tenant `hb`, priority 5: arrives first and is granted the idle
///   device at a priority nobody below can evict;
/// * W — tenant `wc`, priority 3, deadline far off (not imminent);
/// * Z — tenant `za`, priority 0, no deadline;
/// * A — tenant `za`, priority 3, deadline far off;
/// * B — tenant `hb`, priority 3, deadline far off;
/// * C — tenant `wc`, priority 3, deadline all but due (imminent).
///
/// W to C arrive together while H runs and queue in push order. At H's
/// expiry `wc` carries two credits and is lightest, so W (its earlier
/// request) is the fair-share winner; only C may preempt it, so C runs and
/// W is pushed again — to the back of the queue. C's completion charges
/// its credit back to `wc`, which leaves `za` (one credit, two requests)
/// lightest: Z is the winner, and the equally urgent A, B and W all
/// outrank it. The earliest in push order takes the device, and that is A,
/// because W's second push is the one that counts. Then `hb` and `wc`
/// balance to the bit, so B, queued before W's second push, goes first,
/// and W follows; Z is last.
#[test]
fn an_overridden_winner_requeues_behind_its_equally_urgent_peers() {
    let [h, w, z, a, b, c] = [0, 1, 2, 3, 4, 5];
    let problem = MaxCut::new(Graph::new(3, &[(0, 1, 1.0), (1, 2, 1.0)]));
    let job = |id: usize, tenant: &str, arrival: f64| {
        let factory = QaoaFactory {
            problem: problem.clone(),
            layers: 1,
        };
        let mut job = TenantJob::new(id, tenant, 0.0, Box::new(factory))
            .with_restarts(1)
            .with_config(QoncordConfig {
                // One rung, so one phase of the combined budget: one batch.
                exploration_max_iterations: 1,
                finetune_max_iterations: 0,
                seed: 0x71E + id as u64,
                ..QoncordConfig::default()
            });
        job.arrival = arrival;
        job
    };
    let far = 1e6;
    let jobs = vec![
        job(h, "hb", 0.0).with_priority(5),
        job(w, "wc", 1e-6).with_priority(3).with_deadline(far),
        job(z, "za", 1e-6),
        job(a, "za", 1e-6).with_priority(3).with_deadline(far),
        job(b, "hb", 1e-6).with_priority(3).with_deadline(far),
        job(c, "wc", 1e-6).with_priority(3).with_deadline(2e-6),
    ];
    let sink = Rc::new(RefCell::new(MemorySink::new()));
    let config = OrchestratorConfig {
        preemption: PreemptionConfig::enabled(),
        trace: TraceHandle::to(sink.clone()),
        ..OrchestratorConfig::default()
    };
    let kolkata = catalog::ibmq_kolkata();
    let evaluator = QaoaEvaluator::new(
        &problem,
        1,
        SimulatedBackend::from_calibration(kolkata.clone()),
        0,
    );
    let execution_seconds = kolkata.execution_time_s(&evaluator.circuit_stats(), 1000);
    let fleet = vec![FleetDevice::new(kolkata)
        .with_speed(execution_seconds / 8.0)
        .expect("positive speed")];
    let report = Orchestrator::new(config, fleet).run(&jobs);
    assert_eq!(report.completed(), jobs.len());
    assert_eq!(report.total_evictions(), 0, "nobody outranks a holder");
    for job in &report.jobs {
        assert_eq!(job.telemetry.busy_seconds(), 24.0);
    }

    let grants: Vec<usize> = sink
        .borrow()
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::LeaseGrant { job, .. } => Some(job),
            _ => None,
        })
        .collect();
    assert_eq!(grants, [h, c, a, b, w, z]);
    // Two grants (C's and A's) overrode the fair-share winner: each popped
    // it, pushed it back and popped the challenger.
    assert_eq!(report.queue_ops.pops, 6 + 2);
    assert_eq!(report.queue_ops.pushes, 6 + 2);
}
