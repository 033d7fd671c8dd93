//! The admission projection's exact-replay oracle, run engine-shaped.
//!
//! `FairShareQueue::projected_backlog_for` `debug_assert`s every answer of the
//! drain-order index bitwise against a heap replay of the whole drain. The
//! queue's own property tests drive that check with synthetic requests; this
//! test drives it with the engine's: a burst of deadline jobs through
//! rejecting, decay-aware admission, so every arrival projects over a
//! backlog of real lease-sized (non-dyadic) requests, with every write path
//! the engine has in play between projections — pushes and pops, priority
//! credit on the probe, eviction requeues with credit, usage charges at
//! lease completion, and decay epochs. A write that failed to mark its
//! tenant dirty would leave a stale key in the index and trip the oracle.
//!
//! The jobs train on an analytic surface (`common::bowl_factory`), so the
//! debug build stays fast.

mod common;

use common::bowl_factory;
use qoncord_core::scheduler::QoncordConfig;
use qoncord_orchestrator::{
    two_lf_two_hf_fleet, AdmissionConfig, AdmissionMode, Orchestrator, OrchestratorConfig,
    PreemptionConfig, TenantJob, UsageDecayConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const JOBS: usize = 320;
const TENANTS: usize = 600;

/// 320 jobs, tenants drawn from 600 names (so some repeat), arriving 160 per
/// simulated second onto a fleet that drains about 30, each with a deadline
/// 0.5 to 6.5 simulated seconds out; every seventh is priority 3 with a tight
/// one, which is what gives probes a credit and makes batches urgent enough
/// to evict.
fn burst() -> Vec<TenantJob> {
    let mut rng = StdRng::seed_from_u64(0xD4A1);
    let mut clock = 0.0f64;
    (0..JOBS)
        .map(|id| {
            clock += -(1.0 / 160.0) * rng.random::<f64>().max(1e-12).ln();
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
                clock,
                bowl_factory(minimum),
            )
            .with_restarts(1 + id % 2)
            .with_config(config);
            if id % 7 == 0 {
                job.with_priority(3).with_deadline(clock + 1.5)
            } else {
                job.with_deadline(clock + 0.5 + 6.0 * rng.random::<f64>())
            }
        })
        .collect()
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "the replay oracle is a debug_assert")]
fn replay_oracle_agrees_with_every_admission_of_a_burst() {
    let jobs = burst();
    let tenants: HashSet<&str> = jobs.iter().map(|j| j.tenant.as_str()).collect();
    assert!(tenants.len() >= 200, "{} tenants", tenants.len());
    let config = OrchestratorConfig {
        admission: AdmissionConfig {
            mode: AdmissionMode::Reject,
            decay_aware: true,
        },
        preemption: PreemptionConfig::enabled(),
        decay: UsageDecayConfig::every(1.5, 0.9),
        ..OrchestratorConfig::default()
    };
    // Any projection that disagrees with the replay panics inside `run`.
    let report = Orchestrator::new(config, two_lf_two_hf_fleet()).run(&jobs);

    // The run must have taken the paths it is here to cross-check.
    let events = report.trace.events;
    let ops = report.queue_ops;
    assert_eq!(events.admission_verdicts, JOBS as u64);
    assert!(report.completed() >= 50, "{} completed", report.completed());
    assert!(report.denied() >= 5, "{} denied", report.denied());
    assert!(events.priority_credits > 0, "no probe carried a credit");
    assert!(events.evictions > 0, "no requeue with credit");
    assert!(events.decay_epochs >= 2, "no decay epoch inside the run");
    assert!(ops.projection_walked > 0, "no projection found work ahead");
    // Lazy refresh: writes that land between two projections share one
    // re-key, so there are fewer re-keys than pushes; a rebuild per
    // admission would re-key the standing backlog 320 times over.
    assert!(ops.drain_rekeys > 0, "{ops:?}");
    assert!(ops.drain_rekeys < ops.pushes, "{ops:?}");
}
