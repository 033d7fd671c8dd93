//! Fair-share starvation regressions: virtual-time usage decay in the
//! production dispatch path (previously only the fig12 queue simulator ever
//! aged usage) and the anti-starvation preemption budget (previously a
//! stream of urgent arrivals could re-evict the same victim without bound).
//!
//! Timing in these tests is made exact by normalizing device speed so one
//! circuit execution costs exactly 1 virtual second (an SPSA batch = 3 s),
//! and by keeping every restart shorter than the convergence checker's
//! patience, so no job saturates early.

use qoncord_core::executor::QaoaFactory;
use qoncord_core::scheduler::QoncordConfig;
use qoncord_device::catalog;
use qoncord_device::noise_model::SimulatedBackend;
use qoncord_orchestrator::{
    FleetDevice, Orchestrator, OrchestratorConfig, OrchestratorReport, PreemptionConfig, TenantJob,
    UsageDecayConfig,
};
use qoncord_vqa::evaluator::{CostEvaluator, QaoaEvaluator};
use qoncord_vqa::graph::Graph;
use qoncord_vqa::maxcut::MaxCut;

const SHOTS: u64 = 1000;

fn problem() -> MaxCut {
    MaxCut::new(Graph::paper_graph_7())
}

fn factory() -> Box<QaoaFactory> {
    Box::new(QaoaFactory {
        problem: problem(),
        layers: 1,
    })
}

/// A single-device fleet whose speed makes one execution take exactly 1 s.
fn normalized_single_lf_fleet() -> Vec<FleetDevice> {
    let calibration = catalog::ibmq_toronto();
    let evaluator = QaoaEvaluator::new(
        &problem(),
        1,
        SimulatedBackend::from_calibration(calibration.clone()),
        0,
    );
    let base_seconds = calibration.execution_time_s(&evaluator.circuit_stats(), SHOTS);
    vec![FleetDevice::new(calibration)
        .with_speed(base_seconds)
        .expect("positive normalization speed")]
}

/// The longest phase the default (strict) convergence checker never ends
/// early: it declares nothing before its 15th iteration. A single-device
/// ladder runs each restart as one phase, so a job made of restarts this
/// short runs exactly its batch budget.
const MAX_PHASE_ITERATIONS: usize = 14;

/// A job running exactly `iterations` SPSA batches (3 s each) on the
/// single-device ladder, as the fewest equal restarts of at most
/// [`MAX_PHASE_ITERATIONS`] batches.
fn timed_job(id: usize, tenant: &str, arrival: f64, iterations: usize) -> TenantJob {
    let restarts = iterations.div_ceil(MAX_PHASE_ITERATIONS);
    assert_eq!(
        iterations % restarts,
        0,
        "restarts split the batches evenly"
    );
    let per_restart = iterations / restarts;
    assert!(per_restart >= 2, "split across the two phase budgets");
    let cfg = QoncordConfig {
        exploration_max_iterations: per_restart / 2,
        finetune_max_iterations: per_restart - per_restart / 2,
        seed: 7 + id as u64,
        ..QoncordConfig::default()
    };
    TenantJob::new(id, tenant, arrival, factory())
        .with_restarts(restarts)
        .with_config(cfg)
}

/// Checks that job `i` of `report` ran all `iterations[i]` of its batches.
fn assert_full_budgets(report: &OrchestratorReport, iterations: &[usize]) {
    for (job, &n) in report.jobs.iter().zip(iterations) {
        assert_eq!(
            job.telemetry.busy_seconds(),
            3.0 * n as f64,
            "job {}",
            job.id
        );
    }
}

/// The decay arena: tenant "heavy" burns 60 s of device time early, tenant
/// "light" burns 6 s shortly before the contest, and at t ≈ 208 both submit
/// identical jobs while a filler occupies the device. Whoever is granted
/// first when the filler's batch expires reveals the fair-share ranking.
fn decay_contest(decay: UsageDecayConfig) -> OrchestratorReport {
    let config = OrchestratorConfig {
        decay,
        ..OrchestratorConfig::default()
    };
    let jobs = vec![
        timed_job(0, "heavy", 0.0, 20),  // busy [0, 60)
        timed_job(1, "light", 201.0, 2), // busy [201, 207)
        timed_job(2, "filler", 207.5, 4),
        timed_job(3, "heavy", 208.0, 4),
        timed_job(4, "light", 208.3, 4),
    ];
    let report = Orchestrator::new(config, normalized_single_lf_fleet()).run(&jobs);
    assert_eq!(report.completed(), 5);
    assert_full_budgets(&report, &[20, 2, 4, 4, 4]);
    report
}

#[test]
fn usage_decay_restores_a_past_heavy_tenants_priority() {
    let start = |r: &OrchestratorReport, i: usize| r.jobs[i].telemetry.first_start.unwrap();

    // Without decay the regression stands: the heavy tenant's long-finished
    // work still outweighs the light tenant's recent sliver, so the light
    // tenant's request is granted first.
    let frozen = decay_contest(UsageDecayConfig::default());
    assert!(
        start(&frozen, 4) < start(&frozen, 3),
        "without decay the light tenant outranks: light {} vs heavy {}",
        start(&frozen, 4),
        start(&frozen, 3)
    );

    // With usage decayed every 50 virtual seconds, the heavy tenant's old
    // consumption has aged to nearly nothing by the contest while the light
    // tenant's recent usage has not — the previously heavy tenant's next
    // request now outranks the light tenant's.
    let decayed = decay_contest(UsageDecayConfig::every(50.0, 0.02));
    assert!(
        start(&decayed, 3) < start(&decayed, 4),
        "after decay the heavy tenant outranks: heavy {} vs light {}",
        start(&decayed, 3),
        start(&decayed, 4)
    );

    // Decay reorders grants; it must not change anyone's training numbers.
    for i in 0..5 {
        assert_eq!(
            frozen.jobs[i].status.report().unwrap().best_expectation(),
            decayed.jobs[i].status.report().unwrap().best_expectation()
        );
    }
}

/// The engine's anti-starvation budget: evictions a job absorbs before its
/// remaining leases gain eviction immunity.
const EVICTION_CAP: usize = 8;

/// Urgent arrivals in the storm: more than the budget, so the last two meet
/// an immune victim. (A third would arrive exactly as a victim batch ends,
/// which takes no eviction either way.)
const URGENT_ARRIVALS: usize = EVICTION_CAP + 2;

/// The starvation arena: one long victim plus a stream of short urgent
/// arrivals timed to land mid-way through whichever batch the victim has
/// just been re-granted.
fn eviction_storm(preemption: PreemptionConfig) -> OrchestratorReport {
    let config = OrchestratorConfig {
        preemption,
        ..OrchestratorConfig::default()
    };
    let mut jobs = vec![timed_job(0, "victim", 0.0, 42)];
    for k in 0..URGENT_ARRIVALS {
        jobs.push(
            timed_job(1 + k, &format!("urgent-{k}"), 1.0 + 10.0 * k as f64, 2).with_priority(2),
        );
    }
    let report = Orchestrator::new(config, normalized_single_lf_fleet()).run(&jobs);
    assert_eq!(report.completed(), 1 + URGENT_ARRIVALS);
    assert_full_budgets(&report, &[42, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]);
    report
}

#[test]
fn eviction_cap_stops_unbounded_re_eviction_of_the_same_victim() {
    let storm = eviction_storm(PreemptionConfig::enabled());
    let victim = &storm.jobs[0].telemetry;
    let wait = |k: usize| storm.jobs[1 + k].telemetry.wait_time().unwrap();

    // The first `EVICTION_CAP` urgent arrivals each evict the victim and
    // take the device at once; the budget then grants it immunity.
    assert_eq!(
        victim.evictions, EVICTION_CAP,
        "evictions stop exactly at the budget"
    );
    assert_eq!(storm.total_evictions(), EVICTION_CAP as u64);
    for k in 0..EVICTION_CAP {
        assert_eq!(wait(k), 0.0, "urgent arrival {k} evicts on arrival");
    }
    // Later urgent arrivals wait out the running batch instead of burning
    // it: every batch lasts 3 s, so none waits longer than that.
    for k in EVICTION_CAP..URGENT_ARRIVALS {
        assert!(
            wait(k) > 0.0 && wait(k) <= 3.0,
            "urgent arrival {k} waits for the victim's batch: {}",
            wait(k)
        );
    }
    assert!(victim.wasted_seconds > 0.0);

    // Evictions never touch the numbers, only the timing.
    let calm = eviction_storm(PreemptionConfig::default());
    assert_eq!(calm.total_evictions(), 0);
    for (stormy, calm) in storm.jobs.iter().zip(&calm.jobs) {
        assert_eq!(
            stormy.status.report().unwrap().best_expectation(),
            calm.status.report().unwrap().best_expectation()
        );
    }
}

#[test]
fn decayed_priority_credit_unwinds_exactly() {
    // A priority job whose lifetime crosses a decay epoch: the admission
    // credit is decayed inside the fair-share balance, so the completion
    // charge-back must return only what remains of it. If the undecayed
    // grant were charged back, the tenant would end the run owing phantom
    // consumption it never incurred — here the job's end-of-run balance
    // must match an identically timed priority-0 run to the bit.
    let run = |priority: u32| {
        let config = OrchestratorConfig {
            decay: UsageDecayConfig::every(50.0, 0.5),
            ..OrchestratorConfig::default()
        };
        let jobs = vec![timed_job(0, "tenant", 0.0, 20).with_priority(priority)];
        let report = Orchestrator::new(config, normalized_single_lf_fleet()).run(&jobs);
        assert_eq!(report.completed(), 1);
        assert_full_budgets(&report, &[20]);
        report
    };
    let boosted = run(2);
    let plain = run(0);
    assert!(
        (boosted.tenant_balance("tenant") - plain.tenant_balance("tenant")).abs() < 1e-9,
        "the decayed priority credit must unwind exactly: boosted {} vs plain {}",
        boosted.tenant_balance("tenant"),
        plain.tenant_balance("tenant")
    );
    // Sanity: the balance reflects real decayed consumption (60 s of work,
    // the first 48 s decayed once at the t=50 epoch: 48*0.5 + 12 = 36).
    assert!((plain.tenant_balance("tenant") - 36.0).abs() < 1e-9);
}
