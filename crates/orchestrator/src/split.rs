//! QuSplit-style restart splitting: one job's restarts fanned out across
//! several fleet devices of the same quality tier.
//!
//! An unsplit job pins every batch to one device per ladder rung, so a
//! 50-restart exploration serializes on a single low-fidelity machine even
//! when its twin sits idle next to it. Splitting gives the job's runner
//! (the private `driver` module) one shard per same-tier device instead
//! (fan-out width chosen from live load by
//! [`qoncord_cloud::policy::split_restarts`]): each shard's SPSA batches
//! run independently — the engine grants each shard its own preemptible
//! lease — and the runner's tier barrier merges shard results back into
//! restart order with [`qoncord_cloud::policy::merge_shard_results`].
//!
//! # Bit-identical merges
//!
//! Every per-restart quantity is derived from job-level seeds addressed by
//! restart index ([`qoncord_vqa::restart::random_initial_points`],
//! [`qoncord_core::scheduler::exploration_seed`],
//! [`qoncord_core::scheduler::finetune_seed`]), never from shard-local
//! state, and restart triage
//! runs on the merged, index-ordered exploration results. When the devices
//! of a tier share a calibration model (the twin fleets of
//! [`crate::fleet`]), a split run therefore reproduces the unsplit run's
//! final energy and parameters for every restart bit for bit — only the
//! timing (and therefore the fleet makespan) changes. A tier is the
//! engine's one definition of it — devices of exactly equal advertised
//! fidelity, the same rank the calibration key uses — so a job never splits
//! across devices of different quality.

use crate::driver::{Runner, SelectedDevice, TierPlan};
use crate::fleet::FleetDevice;
use crate::job::TenantJob;
use qoncord_cloud::device::CloudDevice;
use qoncord_cloud::policy::split_restarts;
use qoncord_core::executor::RejectedDevice;

/// Widest fan-out of one tier: the live-load planner may choose fewer
/// shards, never more.
const MAX_FANOUT: usize = 4;

/// Tuning of QuSplit-style restart splitting.
///
/// # Examples
///
/// ```
/// use qoncord_orchestrator::SplitConfig;
///
/// assert!(!SplitConfig::default().enabled, "splitting is opt-in");
/// assert!(SplitConfig::enabled().enabled);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SplitConfig {
    /// Whether multi-device jobs may fan their restarts across same-tier
    /// devices at all. Disabled, every job runs as a single shard, one
    /// lease at a time.
    pub enabled: bool,
}

impl SplitConfig {
    /// Splitting switched on.
    pub fn enabled() -> Self {
        SplitConfig { enabled: true }
    }
}

/// Builds the execution state machine for an admitted job: the unsplit
/// ladder runner, fanned out into one shard per planned device when
/// splitting is enabled and the live-load plan fans at least one tier wider
/// than a single device.
///
/// `tiers` ranks each fleet device's advertised fidelity (the engine's
/// `device_tiers`); a tier's shards go only to devices of its rank.
///
/// Returns the rejected-device list when no device survives the fidelity
/// filter (same contract as [`Runner::new`]).
pub(crate) fn build_runner(
    spec: &TenantJob,
    selected: &[SelectedDevice],
    fleet: &[FleetDevice],
    views: &[CloudDevice],
    tiers: &[usize],
    split: bool,
    now: f64,
) -> Result<Box<Runner>, Vec<RejectedDevice>> {
    let _prof = qoncord_prof::span("engine::build_runner");
    let runner = Box::new(Runner::new(
        spec.config.clone(),
        spec.n_restarts,
        spec.factory.as_ref(),
        selected,
    )?);
    if !split || spec.n_restarts < 2 {
        return Ok(runner);
    }
    let Some([explore, finetune]) = runner.restart_seconds() else {
        return Ok(runner);
    };
    let explore_plan = plan_tier(views, tiers, explore, spec.n_restarts, now);
    // Only triage survivors ever fine-tune, so the fine-tuning tier is
    // fanned for the selection policy's survivor bound, not the raw
    // restart count — a TopK(2) job must not build shards that can never
    // receive work.
    let max_survivors = spec.config.selection.max_survivors(spec.n_restarts);
    let finetune_plan = plan_tier(views, tiers, finetune, max_survivors, now);
    if explore_plan.len() < 2 && finetune_plan.len() < 2 {
        return Ok(runner);
    }
    let plans = [&explore_plan, &finetune_plan];
    Ok(runner
        .fan_out(plans, spec.factory.as_ref(), fleet)
        .unwrap_or_else(|unsplit| unsplit))
}

/// Plans one tier's shard devices from live load: candidates are the fleet
/// devices of the primary device's tier, and
/// [`qoncord_cloud::policy::split_restarts`] deals the restarts across the
/// least-loaded of them at `seconds_per_restart` each. Returns `(fleet
/// device, restart indices)` pairs — never empty, because the primary is in
/// its own tier.
fn plan_tier(
    views: &[CloudDevice],
    tiers: &[usize],
    (primary, seconds_per_restart): (usize, f64),
    n_restarts: usize,
    now: f64,
) -> TierPlan {
    let candidates: Vec<CloudDevice> = views
        .iter()
        .enumerate()
        .filter(|(i, _)| tiers[*i] == tiers[primary])
        .map(|(_, v)| v.clone())
        .collect();
    let tier_fidelity = views[primary].fidelity();
    split_restarts(
        &candidates,
        tier_fidelity,
        n_restarts,
        seconds_per_restart,
        MAX_FANOUT,
        now,
    )
    .into_iter()
    .map(|p| (p.device, p.restarts))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::two_lf_two_hf_fleet;
    use qoncord_core::executor::{EvaluatorFactory, QaoaFactory};
    use qoncord_core::scheduler::{QoncordConfig, QoncordReport, QoncordScheduler};
    use qoncord_device::catalog;
    use qoncord_vqa::graph::Graph;
    use qoncord_vqa::maxcut::MaxCut;

    fn factory() -> Box<dyn EvaluatorFactory> {
        Box::new(QaoaFactory {
            problem: MaxCut::new(Graph::paper_graph_7()),
            layers: 1,
        })
    }

    fn spec(n_restarts: usize) -> TenantJob {
        let cfg = QoncordConfig {
            exploration_max_iterations: 8,
            finetune_max_iterations: 10,
            seed: 23,
            ..QoncordConfig::default()
        };
        TenantJob::new(0, "splitter", 0.0, factory())
            .with_restarts(n_restarts)
            .with_config(cfg)
    }

    /// The twin fleet's split runner: the ladder over its primary devices
    /// (lf_east + hf_north) fanned out over `plans`.
    fn split_driver(spec: &TenantJob) -> Box<Runner> {
        let fleet = two_lf_two_hf_fleet();
        let selected = [0, 2]
            .map(|i| SelectedDevice {
                fleet_index: i,
                calibration: fleet[i].calibration(),
                speed: fleet[i].speed(),
            })
            .to_vec();
        let ladder = Runner::new(
            spec.config.clone(),
            spec.n_restarts,
            spec.factory.as_ref(),
            &selected,
        )
        .expect("twin fleet passes the fidelity filter");
        let (explore, finetune) = plans(spec.n_restarts);
        Box::new(ladder)
            .fan_out([&explore, &finetune], spec.factory.as_ref(), &fleet)
            .ok()
            .unwrap()
    }

    /// Fully fanned plans over the twin reference fleet: restarts dealt
    /// round-robin-ish over both LF twins, fine-tuning over both HF twins.
    fn plans(n_restarts: usize) -> (TierPlan, TierPlan) {
        let explore: Vec<usize> = (0..n_restarts).collect();
        let (left, right) = explore.split_at(n_restarts / 2);
        (
            vec![(0, left.to_vec()), (1, right.to_vec())],
            vec![(2, Vec::new()), (3, Vec::new())],
        )
    }

    fn drain(mut driver: Box<Runner>) -> QoncordReport {
        let mut batches = 0;
        loop {
            let ready = driver.ready_shards();
            if ready.is_empty() {
                break;
            }
            // Round-robin over the ready shards, interleaving them the way
            // concurrent leases would.
            for shard in ready {
                let result = driver.execute_batch(shard);
                assert!(result.duration > 0.0);
                assert!(result.executions > 0);
            }
            batches += 1;
            assert!(batches < 100_000, "runaway split driver");
        }
        driver.into_report()
    }

    #[test]
    fn split_execution_matches_closed_loop_scheduler_per_restart() {
        let spec = spec(5);
        let driver = split_driver(&spec);
        assert_eq!(driver.shard_count(), 4);
        let split = drain(driver);

        // The twins share calibration models with the unsplit ladder, so
        // every restart's numbers must match the closed loop bit for bit.
        let closed = QoncordScheduler::new(spec.config.clone())
            .run(
                &[catalog::ibmq_toronto(), catalog::ibmq_kolkata()],
                spec.factory.as_ref(),
                5,
            )
            .unwrap();
        assert_eq!(split.restarts.len(), closed.restarts.len());
        for (a, b) in split.restarts.iter().zip(&closed.restarts) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.survived, b.survived);
            assert_eq!(a.initial_params, b.initial_params);
            assert_eq!(a.exploration_expectation, b.exploration_expectation);
            assert_eq!(a.final_expectation, b.final_expectation);
            assert_eq!(a.final_params, b.final_params);
        }
        assert_eq!(split.best_expectation(), closed.best_expectation());
        assert_eq!(split.total_executions(), closed.total_executions());
    }

    #[test]
    fn every_shard_of_both_tiers_works() {
        let spec = spec(6);
        let driver = split_driver(&spec);
        let report = drain(driver);
        assert_eq!(report.devices.len(), 4);
        for usage in &report.devices {
            assert!(
                usage.executions > 0,
                "shard device {} never ran",
                usage.device
            );
        }
    }

    #[test]
    fn shard_checkpoints_name_their_coordinates() {
        let spec = spec(4);
        let mut driver = split_driver(&spec);
        let ready = driver.ready_shards();
        assert_eq!(ready, vec![0, 1], "both exploration shards start ready");
        let ckpt = driver.shard_checkpoint(1);
        assert_eq!(ckpt.shard, 1);
        assert_eq!(ckpt.restart, 2, "shard 1 owns the back half of restarts");
        assert_eq!(ckpt.phase.iteration, 0);
        driver.execute_batch(1);
        assert_eq!(driver.shard_checkpoint(1).phase.iteration, 1);
    }
}
