//! The dispatch path's queue-scan oracle, run engine-shaped.
//!
//! `Sim::urgent_override` picks the request that may take a freed device
//! from the fair-share winner out of a per-device *urgent index* — the
//! queued requests of jobs with a priority or a deadline, in push order. In
//! debug builds it asserts, on every grant, that the index is exactly what
//! a walk of the whole queue finds for the device, and `debug_assert_eq!`s
//! its pick (including "none") against the same ranking rule run over every
//! request that walk finds; `Sim::grant` asserts a granted request has left
//! every index. This test drives all three with an `engine_churn`-shaped
//! run: bursts that outrun the fleet, so devices free up onto deep queues;
//! every seventh job priority 3, so overrides, evictions and requeues fire;
//! half of those due on arrival, so they override priority-3 *winners* that
//! are not yet imminent, which go to the back of the queue; a few
//! priority-0 jobs with deadlines, which outrank only through
//! `deadline_imminent`; multi-restart jobs, so holds sit in the queue the
//! oracle walks; and a decay epoch. An index that kept a re-pushed winner's
//! old place, or left out the deadline-only jobs, panics here (both tried).

mod common;

use common::bowl_factory;
use qoncord_core::scheduler::QoncordConfig;
use qoncord_orchestrator::trace::{JsonlSink, TraceHandle};
use qoncord_orchestrator::{
    two_lf_two_hf_fleet, Orchestrator, OrchestratorConfig, OrchestratorReport, PreemptionConfig,
    TenantJob, UsageDecayConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

const JOBS: usize = 600;
const TENANTS: usize = 100;

/// 600 jobs from 100 tenants, 40 every half simulated second onto four
/// devices that drain about 30 a second; `1 + id % 3` restarts; every
/// seventh job priority 3 with a deadline alternately two simulated seconds
/// out and all but due; every 45th priority 0 with a deadline it will come
/// to miss.
fn churn() -> Vec<TenantJob> {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    (0..JOBS)
        .map(|id| {
            let arrival = (id / 40) as f64 * 0.5;
            let config = QoncordConfig {
                exploration_max_iterations: 3,
                finetune_max_iterations: 3,
                seed: rng.random::<u64>(),
                ..QoncordConfig::default()
            };
            let minimum = [rng.random::<f64>() * 3.0, rng.random::<f64>() * 3.0];
            let job = TenantJob::new(
                id,
                format!("t{}", rng.random_range(0..TENANTS)),
                arrival,
                bowl_factory(minimum),
            )
            .with_restarts(1 + id % 3)
            .with_config(config);
            if id % 7 == 0 {
                let slack = if id % 14 == 0 { 0.05 } else { 2.0 };
                job.with_priority(3).with_deadline(arrival + slack)
            } else if id % 45 == 1 {
                job.with_deadline(arrival + 4.0)
            } else {
                job
            }
        })
        .collect()
}

fn run() -> (OrchestratorReport, String) {
    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let config = OrchestratorConfig {
        preemption: PreemptionConfig::enabled(),
        decay: UsageDecayConfig::every(20.0, 0.9),
        trace: TraceHandle::to(sink.clone()),
        ..OrchestratorConfig::default()
    };
    // Any override the index and the queue scan disagree on panics in here.
    let report = Orchestrator::new(config, two_lf_two_hf_fleet()).run(&churn());
    let jsonl = sink.borrow().as_str().to_owned();
    (report, jsonl)
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the queue-scan oracle is a debug_assert"
)]
fn queue_scan_oracle_agrees_with_every_dispatch_of_a_churn() {
    let (report, jsonl) = run();

    // The run must have taken the paths it is here to cross-check.
    let events = report.trace.events;
    let ops = report.queue_ops;
    assert_eq!(report.completed(), JOBS, "every job completes");
    // A grant pops once; an override pops the winner, re-pushes it and pops
    // the challenger — so pops beyond grants are overrides.
    let overrides = ops.pops - events.lease_grants;
    assert!(overrides > 0, "no override fired: {ops:?}");
    assert!(events.evictions > 0, "no eviction, so no requeue");
    assert!(events.hold_pushes > 0, "no hold in the scanned queue");
    assert!(events.decay_epochs >= 1, "no decay epoch inside the run");
    println!(
        "dispatch oracle: {} grants, {overrides} overrides, {} evictions",
        events.lease_grants, events.evictions
    );

    let (_, again) = run();
    assert!(jsonl == again, "two runs must trace byte-identically");
}
