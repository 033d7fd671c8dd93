//! The per-job state machine: replays the closed-loop Qoncord scheduler
//! (`qoncord_core::scheduler::QoncordScheduler::run`) one device batch at a
//! time, so the engine can interleave many tenants on a shared fleet.
//!
//! Every classical decision — triage, rung transitions — happens between
//! batches and costs zero virtual time; every quantum batch (one SPSA
//! iteration) is surfaced to the engine as a device reservation.
//!
//! The engine's placements name at most two devices, so a ladder has one
//! rung (exploration and fine-tuning on one device) or two (exploration,
//! then fine-tuning). The closed loop's entropy gate sits between the
//! middle rungs of a deeper ladder, so no job the engine runs reaches it.
//!
//! One [`Runner`] serves every job; jobs differ only in the data it holds.
//! `lanes` bind ladder rungs to fleet devices, and each lane belongs to one
//! `worker` — a *shard* of the job, the unit the engine leases devices to:
//!
//! ```text
//!            unsplit           split (k0 + k1 twins)
//!            rung 0  rung 1    rung 0     rung 1
//! worker 0   lane 0  lane 1    lane 0     —
//! worker 1                     lane 1     —
//! worker k0                    —          lane k0
//! worker k0+1                  —          lane k0+1
//! ```
//!
//! A rung's restarts are dealt over the workers holding a lane on it; when
//! the rung drains, the tier barrier slots the results by restart index,
//! runs triage after rung 0, and deals the survivors over the next rung's
//! workers. With one worker per rung that is the closed loop's sequential
//! order, and the per-lane evaluator call order is the closed loop's — so an
//! unsplit job's results match it bit for bit. A split job does too when
//! the devices of a rung share a calibration model (the twin fleets of
//! [`crate::fleet`]): every per-restart quantity is derived from job-level
//! seeds addressed by restart index, never from worker-local state.

use crate::fleet::FleetDevice;
use qoncord_cloud::policy::merge_shard_results;
use qoncord_core::executor::{
    bind_rungs, build_lanes, DeviceLane, EvaluatorFactory, RejectedDevice,
};
use qoncord_core::phase::{PhaseRunner, ShardCheckpoint};
use qoncord_core::scheduler::{
    exploration_seed, finetune_seed, DeviceUsage, QoncordConfig, QoncordReport, RestartReport,
};
use qoncord_core::select_restarts;
use qoncord_device::calibration::Calibration;
use qoncord_vqa::evaluator::CostEvaluator;
use qoncord_vqa::restart::{
    executions_for_iterations, random_initial_points, SPSA_EXECUTIONS_PER_ITERATION,
};
use std::collections::VecDeque;

/// Shots per circuit execution, used to price batch durations.
const SHOTS: u64 = 1000;

/// The circuit executions placement sizes an `n_restarts` job by before any
/// device is chosen: every restart runs both phases' full budgets, an upper
/// bound that triage and early convergence only shrink.
pub(crate) fn circuit_estimate(cfg: &QoncordConfig, n_restarts: usize) -> u64 {
    n_restarts as u64
        * executions_for_iterations(cfg.exploration_max_iterations + cfg.finetune_max_iterations)
}

/// A fleet device handed to a job's ladder construction.
#[derive(Debug, Clone)]
pub(crate) struct SelectedDevice<'a> {
    /// Index of the device in the engine's fleet.
    pub fleet_index: usize,
    /// Its calibration.
    pub calibration: &'a Calibration,
    /// Its relative speed.
    pub speed: f64,
}

/// One rung's shard plan: `(fleet device, restart indices)` per shard.
pub(crate) type TierPlan = Vec<(usize, Vec<usize>)>;

/// A ladder rung bound to a fleet device, run by one worker.
pub(crate) struct Lane {
    /// Ladder rung (0 = exploration, last = final fine-tuning).
    tier: usize,
    /// The worker (job shard) whose batches on this rung run here.
    worker: usize,
    /// Index of the device in the engine's fleet.
    fleet_index: usize,
    /// The device name (report attribution).
    device_name: String,
    /// The workload evaluator bound to this device.
    evaluator: Box<dyn CostEvaluator>,
    /// Estimated execution fidelity (Eq. 1).
    p_correct: f64,
    /// Wall-clock seconds one circuit execution occupies on the device.
    secs_per_execution: f64,
}

impl Lane {
    fn bind(lane: DeviceLane, tier: usize, worker: usize, fleet_index: usize, speed: f64) -> Self {
        let stats = lane.evaluator.circuit_stats();
        Lane {
            tier,
            worker,
            fleet_index,
            device_name: lane.calibration.name().to_owned(),
            secs_per_execution: lane.calibration.execution_time_s(&stats, SHOTS) / speed,
            evaluator: lane.evaluator,
            p_correct: lane.p_correct,
        }
    }

    /// Device-seconds of `executions` circuit executions on this lane: the
    /// one price of every estimate (lease, admission probe, holds, split
    /// plans) and of the charge. Known divergence: estimates count
    /// [`SPSA_EXECUTIONS_PER_ITERATION`] per iteration, but a VQE evaluation
    /// runs and is charged `n_groups()` executions, so its batch costs more
    /// than its lease (`vqe_batches_are_charged_per_group_but_priced_per_evaluation`).
    fn seconds(&self, executions: u64) -> f64 {
        executions as f64 * self.secs_per_execution
    }
}

/// One schedulable shard of a job.
struct Worker {
    /// Restart indices dealt to this worker on the current rung and not
    /// yet started, front first.
    queue: VecDeque<usize>,
    /// The restart whose batch is pending: `(restart, lane, phase)`; the
    /// batch is the phase's next optimizer iteration.
    active: Option<(usize, usize, PhaseRunner)>,
}

/// What one granted batch did, as the engine sees it.
#[derive(Debug, Clone)]
pub(crate) struct BatchResult {
    /// Fleet device the batch ran on.
    pub fleet_index: usize,
    /// Device-seconds the batch occupies.
    pub duration: f64,
    /// Circuit executions consumed.
    pub executions: u64,
    /// `Some(pruned restart indices)` when restart triage ran inside this
    /// batch's classical epilogue (empty vector = triage kept everything).
    pub pruned: Option<Vec<usize>>,
    /// Whether the job has no further batches.
    pub finished: bool,
}

/// A job's resumable execution state (see the module docs).
pub(crate) struct Runner {
    cfg: QoncordConfig,
    /// Rung-major; within a rung, shard order.
    lanes: Vec<Lane>,
    workers: Vec<Worker>,
    n_tiers: usize,
    /// The rung being drained (`n_tiers` once the job is done).
    tier: usize,
    /// Per restart: its initial point, moved into its report once explored.
    initials: Vec<Vec<f64>>,
    /// Exploration results in completion order, until the rung-0 barrier.
    explored: Vec<(usize, RestartReport)>,
    /// Index-ordered reports, populated at the rung-0 barrier.
    reports: Vec<RestartReport>,
    rejected: Vec<RejectedDevice>,
    ground_energy: f64,
}

impl Runner {
    /// Builds the job's device ladder over the one or two `selected` fleet
    /// devices (a placement's) as one worker with a lane on every rung,
    /// positioned at the first exploration batch.
    ///
    /// Returns the rejected-device list if no device survives the fidelity
    /// filter.
    ///
    /// # Panics
    ///
    /// Panics if `n_restarts` is zero or an iteration budget is zero (a
    /// zero-budget phase has no batch to reserve).
    pub(crate) fn new(
        cfg: QoncordConfig,
        n_restarts: usize,
        factory: &dyn EvaluatorFactory,
        selected: &[SelectedDevice],
    ) -> Result<Self, Vec<RejectedDevice>> {
        debug_assert!(selected.len() <= 2, "a placement names at most two devices");
        assert!(n_restarts > 0, "need at least one restart");
        assert!(
            cfg.exploration_max_iterations > 0,
            "exploration budget must be positive"
        );
        let cals = selected.iter().map(|s| s.calibration);
        let (ladder, rejected) = build_lanes(cals, factory, cfg.min_fidelity, cfg.seed);
        if ladder.is_empty() {
            return Err(rejected);
        }
        // Exact capacity: an in-place `collect` would keep `ladder`'s
        // larger buffer alive for the job's whole life.
        let mut lanes = Vec::with_capacity(ladder.len());
        lanes.extend(ladder.into_iter().enumerate().map(|(tier, lane)| {
            let device = selected
                .iter()
                .find(|s| s.calibration.name() == lane.calibration.name())
                .expect("every ladder lane was built from a selected device");
            Lane::bind(lane, tier, 0, device.fleet_index, device.speed)
        }));
        assert!(
            lanes.len() == 1 || cfg.finetune_max_iterations > 0,
            "fine-tuning budget must be positive on a multi-device ladder"
        );
        let evaluator = &lanes[0].evaluator;
        let mut runner = Runner {
            initials: random_initial_points(evaluator.n_params(), n_restarts, cfg.seed),
            ground_energy: evaluator.ground_energy(),
            cfg,
            n_tiers: lanes.len(),
            lanes,
            workers: vec![Worker {
                queue: (0..n_restarts).collect(),
                active: None,
            }],
            tier: 0,
            explored: Vec::new(),
            reports: Vec::new(),
            rejected,
        };
        runner.start_next_restart(0);
        Ok(runner)
    }

    /// Re-shapes a fresh two-rung runner into one worker per planned shard:
    /// `plans[t]` lists rung `t`'s `(fleet device, restarts)` shards. The
    /// rung's already-built lane serves the shard planned on its device;
    /// every other shard gets a fresh lane, seeded like the rung it twins.
    /// The twins bind the way the ladder's rungs did ([`bind_rungs`]), so
    /// twins that share a coupling map share one route.
    /// Fine-tuning shards start empty — the rung-0 barrier deals them the
    /// survivors.
    ///
    /// Returns the runner untouched when any planned twin fails the
    /// fidelity filter or cannot host the workload: a shard plan must be
    /// honored in full or not at all, because silently dropping a shard
    /// would orphan the restarts it owns.
    pub(crate) fn fan_out(
        mut self: Box<Self>,
        plans: [&TierPlan; 2],
        factory: &dyn EvaluatorFactory,
        fleet: &[FleetDevice],
    ) -> Result<Box<Self>, Box<Self>> {
        debug_assert_eq!(self.n_tiers, 2, "splitting plans two-rung ladders");
        // Bind every twin first, so a failure hands the runner back intact.
        let seed = self.cfg.seed;
        let rungs = plans.iter().zip(&self.lanes).flat_map(|(plan, primary)| {
            let seed = seed.wrapping_add(primary.tier as u64 * 1009);
            plan.iter()
                .filter(|(d, _)| *d != primary.fleet_index)
                .map(move |&(device, _)| (fleet[device].calibration(), seed))
        });
        let twins: Result<Vec<DeviceLane>, _> =
            bind_rungs(rungs, factory, self.cfg.min_fidelity).collect();
        let Ok(twins) = twins else {
            return Err(self);
        };
        let mut twins = twins.into_iter();
        self.workers.clear();
        for (plan, primary) in plans.iter().zip(std::mem::take(&mut self.lanes)) {
            let tier = primary.tier;
            let mut primary = Some(primary);
            for (device, restarts) in plan.iter() {
                let worker = self.workers.len();
                let lane = match primary.take_if(|p| p.fleet_index == *device) {
                    Some(primary) => Lane { worker, ..primary },
                    None => Lane::bind(
                        twins.next().expect("one twin built per non-primary shard"),
                        tier,
                        worker,
                        *device,
                        fleet[*device].speed(),
                    ),
                };
                self.lanes.push(lane);
                self.workers.push(Worker {
                    queue: if tier == 0 {
                        restarts.iter().copied().collect()
                    } else {
                        VecDeque::new()
                    },
                    active: None,
                });
            }
        }
        for worker in 0..plans[0].len() {
            self.start_next_restart(worker);
        }
        Ok(self)
    }

    pub(crate) fn is_multi_device(&self) -> bool {
        self.n_tiers > 1
    }

    /// Total number of shards the job runs as (1 for unsplit jobs). While
    /// it is 1, at most one batch of the job is in the system.
    pub(crate) fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// The ladder's entry device (where the first batch runs).
    pub(crate) fn entry_device(&self) -> usize {
        self.lanes[0].fleet_index
    }

    /// Every shard's first fleet device, indexed by shard — the shard-plan
    /// layout the flight recorder emits at admission.
    pub(crate) fn shard_devices(&self) -> Vec<usize> {
        (0..self.workers.len())
            .map(|worker| {
                let lane = self.lanes.iter().find(|l| l.worker == worker);
                lane.expect("every worker holds a lane").fleet_index
            })
            .collect()
    }

    /// Per-shard `(fleet device, estimated seconds)` of one restart's full
    /// fine-tuning block on the final rung — the provisional hold targets;
    /// restart `r`'s hold is booked on target `r % len`, mirroring how the
    /// tier barrier deals survivors across the rung's shards.
    pub(crate) fn finetune_hold_targets(&self) -> Vec<(usize, f64)> {
        let executions = executions_for_iterations(self.cfg.finetune_max_iterations);
        self.lanes
            .iter()
            .filter(|l| l.tier == self.n_tiers - 1)
            .map(|l| (l.fleet_index, l.seconds(executions)))
            .collect()
    }

    /// `(fleet device, seconds of one restart's full phase)` on the
    /// exploration and the fine-tuning rung, what a split deals restarts by;
    /// `None` unless the ladder has exactly the two rungs a job splits over.
    pub(crate) fn restart_seconds(&self) -> Option<[(usize, f64); 2]> {
        let lanes: &[Lane; 2] = self.lanes.as_slice().try_into().ok()?;
        let cfg = &self.cfg;
        let budgets = [cfg.exploration_max_iterations, cfg.finetune_max_iterations];
        Some(std::array::from_fn(|t| {
            let executions = executions_for_iterations(budgets[t]);
            (lanes[t].fleet_index, lanes[t].seconds(executions))
        }))
    }

    /// Wall-clock seconds one circuit execution takes per fleet device (0.0
    /// for devices outside the job's ladder) — the per-circuit cost vector
    /// feasibility projections price the job's placements with.
    pub(crate) fn seconds_per_execution_by_fleet(&self, n_devices: usize) -> Vec<f64> {
        let mut secs = vec![0.0; n_devices];
        for lane in &self.lanes {
            secs[lane.fleet_index] = lane.seconds(1);
        }
        secs
    }

    /// Shards that currently have a pending batch to schedule.
    #[cfg(test)]
    pub(crate) fn ready_shards(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&w| self.shard_ready(w))
            .collect()
    }

    /// Whether `shard` currently has a pending batch to schedule.
    pub(crate) fn shard_ready(&self, shard: usize) -> bool {
        self.workers[shard].active.is_some()
    }

    /// `shard`'s pending batch: `(restart, lane, phase)`.
    fn pending(&self, shard: usize) -> (usize, &Lane, &PhaseRunner) {
        let (restart, lane, phase) = self.workers[shard]
            .active
            .as_ref()
            .expect("shard has a pending batch");
        (*restart, &self.lanes[*lane], phase)
    }

    /// Fleet device `shard`'s pending batch needs.
    pub(crate) fn shard_device(&self, shard: usize) -> usize {
        self.pending(shard).1.fleet_index
    }

    /// Estimated device-seconds of `shard`'s pending batch (for fair-share
    /// scoring): SPSA's fixed per-iteration cost.
    pub(crate) fn estimated_next_seconds(&self, shard: usize) -> f64 {
        self.pending(shard).1.seconds(SPSA_EXECUTIONS_PER_ITERATION)
    }

    /// The optimizer state `shard` would resume from if its pending batch
    /// were granted and then recalled: the active phase's checkpoint.
    pub(crate) fn shard_checkpoint(&self, shard: usize) -> ShardCheckpoint {
        let (restart, _, phase) = self.pending(shard);
        ShardCheckpoint {
            shard,
            restart,
            phase: phase.checkpoint(),
        }
    }

    /// Runs `shard`'s pending batch and advances through any classical
    /// epilogue (phase completion, the shard's next restart, the tier
    /// barrier) to the next batch.
    ///
    /// # Panics
    ///
    /// Panics if the shard has no pending batch.
    pub(crate) fn execute_batch(&mut self, shard: usize) -> BatchResult {
        let (restart, lane_idx, mut phase) = self.workers[shard]
            .active
            .take()
            .expect("shard has a pending batch");
        let lane = &mut self.lanes[lane_idx];
        let out = phase.step(lane.evaluator.as_mut());
        let mut pruned = None;
        if !out.finished {
            self.workers[shard].active = Some((restart, lane_idx, phase));
        } else {
            let (params, phase) = phase.finish(lane.device_name.clone());
            if lane.tier == 0 {
                let exploration_expectation =
                    phase.trace.final_expectation().unwrap_or(f64::INFINITY);
                // Sized at the first result, not at admission: a queued job
                // holds no slots.
                if self.explored.is_empty() {
                    self.explored.reserve_exact(self.initials.len());
                }
                self.explored.push((
                    restart,
                    RestartReport {
                        index: restart,
                        initial_params: std::mem::take(&mut self.initials[restart]),
                        final_params: params,
                        phases: vec![phase],
                        survived: true,
                        exploration_expectation,
                        final_expectation: exploration_expectation,
                    },
                ));
            } else {
                let report = &mut self.reports[restart];
                report.final_params = params;
                if let Some(e) = phase.trace.final_expectation() {
                    report.final_expectation = e;
                }
                report.phases.push(phase);
            }
            self.start_next_restart(shard);
            pruned = self.tier_barrier();
        }
        let lane = &self.lanes[lane_idx];
        BatchResult {
            fleet_index: lane.fleet_index,
            duration: lane.seconds(out.executions),
            executions: out.executions,
            pruned,
            finished: self.tier == self.n_tiers,
        }
    }

    /// Consumes the runner into the same report the closed-loop scheduler
    /// produces (devices in lane order).
    pub(crate) fn into_report(self) -> QoncordReport {
        QoncordReport {
            restarts: self.reports,
            devices: self
                .lanes
                .iter()
                .map(|l| DeviceUsage {
                    device: l.device_name.clone(),
                    p_correct: l.p_correct,
                    executions: l.evaluator.executions(),
                })
                .collect(),
            rejected: self.rejected,
            ground_energy: self.ground_energy,
        }
    }

    /// The phase of `restart` on rung `tier` — checker tier, budget, and
    /// seeding exactly as the closed loop picks them: the final rung checks
    /// strictly, a one-rung ladder explores with the combined budget.
    fn phase(&self, tier: usize, restart: usize) -> PhaseRunner {
        let cfg = &self.cfg;
        let checker = if tier == self.n_tiers - 1 {
            cfg.strict
        } else {
            cfg.relaxed
        };
        let (params, budget, seed) = if tier > 0 {
            (
                &self.reports[restart].final_params,
                cfg.finetune_max_iterations,
                finetune_seed(cfg.seed, restart, tier),
            )
        } else {
            let budget = if self.n_tiers > 1 {
                cfg.exploration_max_iterations
            } else {
                cfg.exploration_max_iterations + cfg.finetune_max_iterations
            };
            (
                &self.initials[restart],
                budget,
                exploration_seed(cfg.seed, restart),
            )
        };
        PhaseRunner::new(params.clone(), checker, budget, seed)
    }

    /// Pops `worker`'s next queued restart into a pending batch on its lane
    /// of the current rung.
    fn start_next_restart(&mut self, worker: usize) {
        let Some(restart) = self.workers[worker].queue.pop_front() else {
            return;
        };
        let tier = self.tier;
        let lane = self
            .lanes
            .iter()
            .position(|l| l.worker == worker && l.tier == tier)
            .expect("restarts are dealt only to workers with a lane on the rung");
        self.workers[worker].active = Some((restart, lane, self.phase(tier, restart)));
    }

    /// The tier barrier: once the current rung has drained, slot rung 0's
    /// results by restart index and (on a multi-rung ladder) triage them,
    /// then deal the survivors round-robin over the next rung's workers.
    /// Returns the pruned restart indices when triage ran.
    fn tier_barrier(&mut self) -> Option<Vec<usize>> {
        let mut pruned = None;
        while self.workers.iter().all(|w| w.active.is_none()) {
            if self.tier == 0 {
                let explored = std::mem::take(&mut self.explored);
                self.reports = merge_shard_results(explored, self.initials.len())
                    .expect("every restart explored exactly once across the shards");
                if self.n_tiers > 1 {
                    let intermediates: Vec<f64> = self
                        .reports
                        .iter()
                        .map(|r| r.exploration_expectation)
                        .collect();
                    let keep = select_restarts(&intermediates, self.cfg.selection);
                    for report in &mut self.reports {
                        report.survived = keep.contains(&report.index);
                    }
                    let pruned_reports = self.reports.iter().filter(|r| !r.survived);
                    pruned = Some(pruned_reports.map(|r| r.index).collect());
                }
            }
            self.tier += 1;
            if self.tier == self.n_tiers {
                break;
            }
            let workers: Vec<usize> = self
                .lanes
                .iter()
                .filter(|l| l.tier == self.tier)
                .map(|l| l.worker)
                .collect();
            let survivors = self.reports.iter().filter(|r| r.survived);
            for (pos, report) in survivors.enumerate() {
                self.workers[workers[pos % workers.len()]]
                    .queue
                    .push_back(report.index);
            }
            for worker in workers {
                self.start_next_restart(worker);
            }
        }
        pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoncord_core::executor::QaoaFactory;
    use qoncord_core::scheduler::QoncordScheduler;
    use qoncord_device::catalog;
    use qoncord_vqa::graph::Graph;
    use qoncord_vqa::maxcut::MaxCut;

    fn factory() -> QaoaFactory {
        QaoaFactory {
            problem: MaxCut::new(Graph::paper_graph_7()),
            layers: 1,
        }
    }

    fn small_config() -> QoncordConfig {
        QoncordConfig {
            exploration_max_iterations: 10,
            finetune_max_iterations: 12,
            seed: 23,
            ..QoncordConfig::default()
        }
    }

    fn selected() -> Vec<SelectedDevice<'static>> {
        // Leaked so the helper can hand out borrows: two small values per
        // call, in a test process.
        let leak = |calibration| &*Box::leak(Box::new(calibration));
        vec![
            SelectedDevice {
                fleet_index: 4,
                calibration: leak(catalog::ibmq_toronto()),
                speed: 1.0,
            },
            SelectedDevice {
                fleet_index: 9,
                calibration: leak(catalog::ibmq_kolkata()),
                speed: 1.0,
            },
        ]
    }

    /// Drives the job to completion in one go and returns its report.
    fn drain(mut driver: Runner) -> QoncordReport {
        let mut batches = 0;
        while !driver.ready_shards().is_empty() {
            // What a lease on this batch would carry and be sized by.
            assert!(!driver.shard_checkpoint(0).phase.params.is_empty());
            let estimate = driver.estimated_next_seconds(0);
            let result = driver.execute_batch(0);
            assert_eq!(
                result.duration, estimate,
                "a QAOA batch is charged its price"
            );
            assert!(result.duration > 0.0);
            assert!(result.executions > 0);
            batches += 1;
            assert!(batches < 100_000, "runaway driver");
        }
        driver.into_report()
    }

    #[test]
    fn batchwise_execution_matches_closed_loop_scheduler() {
        let cfg = small_config();
        let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
        let closed = QoncordScheduler::new(cfg.clone())
            .run(&devices, &factory(), 5)
            .unwrap();

        let driver = Runner::new(cfg, 5, &factory(), &selected()).unwrap();
        assert!(driver.is_multi_device());
        assert_eq!(driver.shard_count(), 1, "an unsplit job is one shard");
        let batched = drain(driver);

        assert_eq!(batched.restarts.len(), closed.restarts.len());
        for (a, b) in batched.restarts.iter().zip(&closed.restarts) {
            assert_eq!(a.survived, b.survived);
            assert_eq!(a.exploration_expectation, b.exploration_expectation);
            assert_eq!(a.final_expectation, b.final_expectation);
            assert_eq!(a.final_params, b.final_params);
        }
        assert_eq!(batched.best_expectation(), closed.best_expectation());
        assert_eq!(batched.total_executions(), closed.total_executions());
        for (a, b) in batched.devices.iter().zip(&closed.devices) {
            assert_eq!(a.device, b.device);
            assert_eq!(a.executions, b.executions);
        }
    }

    #[test]
    fn single_device_job_matches_closed_loop() {
        let cfg = small_config();
        let closed = QoncordScheduler::new(cfg.clone())
            .run(&[catalog::ibmq_kolkata()], &factory(), 3)
            .unwrap();
        let kolkata = catalog::ibmq_kolkata();
        let one = vec![SelectedDevice {
            fleet_index: 0,
            calibration: &kolkata,
            speed: 1.0,
        }];
        let driver = Runner::new(cfg, 3, &factory(), &one).unwrap();
        assert!(!driver.is_multi_device());
        let batched = drain(driver);
        assert_eq!(batched.best_expectation(), closed.best_expectation());
        assert_eq!(batched.total_executions(), closed.total_executions());
    }

    #[test]
    fn triage_surfaces_pruned_restarts_once() {
        let cfg = QoncordConfig {
            selection: qoncord_core::SelectionPolicy::TopK(2),
            ..small_config()
        };
        let mut driver = Runner::new(cfg, 6, &factory(), &selected()).unwrap();
        let mut triages = 0;
        let mut pruned_total = 0;
        while !driver.ready_shards().is_empty() {
            if let Some(pruned) = driver.execute_batch(0).pruned {
                triages += 1;
                pruned_total = pruned.len();
            }
        }
        assert_eq!(triages, 1, "triage runs exactly once");
        assert_eq!(pruned_total, 4, "TopK(2) of 6 restarts prunes 4");
    }

    #[test]
    fn checkpoint_advances_with_batches() {
        let mut driver = Runner::new(small_config(), 2, &factory(), &selected()).unwrap();
        assert_eq!(driver.shard_checkpoint(0).phase.iteration, 0);
        driver.execute_batch(0);
        let ckpt = driver.shard_checkpoint(0).phase;
        assert_eq!(ckpt.iteration, 1);
        assert_eq!(ckpt.executions, SPSA_EXECUTIONS_PER_ITERATION);
        assert!(!ckpt.params.is_empty());
    }

    #[test]
    fn per_fleet_execution_times_follow_the_ladder() {
        let driver = Runner::new(small_config(), 2, &factory(), &selected()).unwrap();
        let secs = driver.seconds_per_execution_by_fleet(12);
        assert!(secs[4] > 0.0, "exploration device priced");
        assert!(secs[9] > 0.0, "fine-tune device priced");
        assert_eq!(secs.iter().filter(|&&s| s > 0.0).count(), 2);
    }

    #[test]
    fn all_devices_rejected_reports_reasons() {
        let cfg = QoncordConfig {
            min_fidelity: 0.999,
            ..small_config()
        };
        let err = match Runner::new(cfg, 2, &factory(), &selected()) {
            Err(rejected) => rejected,
            Ok(_) => panic!("expected every device to be rejected"),
        };
        assert_eq!(err.len(), 2);
    }

    #[test]
    fn vqe_batches_are_charged_per_group_but_priced_per_evaluation() {
        // The one known divergence of the price (`Lane::seconds`): a VQE
        // evaluation runs one circuit per measurement group, so a training
        // batch charges `n_groups()` times the executions its lease was
        // priced at. Pricing an evaluation by its circuits flips this test.
        use qoncord_core::executor::VqeFactory;
        use qoncord_device::SimulatedBackend;
        use qoncord_vqa::{uccsd, vqe, VqeEvaluator};

        let h2 = VqeFactory {
            hamiltonian: vqe::h2_hamiltonian(),
            ansatz: uccsd::uccsd_h2_ansatz(vqe::h2_hartree_fock_state()),
        };
        let toronto = SimulatedBackend::from_calibration(catalog::ibmq_toronto());
        let groups = VqeEvaluator::new(&h2.hamiltonian, &h2.ansatz, toronto, 0).n_groups() as u64;
        assert_eq!(groups, 5, "H2 measures five qubit-wise commuting groups");
        let cfg = QoncordConfig {
            min_fidelity: 0.0,
            ..small_config()
        };
        let mut driver = Runner::new(cfg, 2, &h2, &selected()).unwrap();
        assert!(driver.is_multi_device(), "both devices pass a zero floor");
        let estimate = driver.estimated_next_seconds(0);
        let result = driver.execute_batch(0);
        let price = |executions| driver.lanes[0].seconds(executions);
        assert_eq!(estimate, price(SPSA_EXECUTIONS_PER_ITERATION));
        assert_eq!(result.executions, groups * SPSA_EXECUTIONS_PER_ITERATION);
        assert_eq!(result.duration, price(result.executions));
        // 15·s and 5·(3·s) round an ulp apart, so the ratio is not exact.
        assert!((result.duration / estimate - groups as f64).abs() < 1e-12);
    }

    #[test]
    fn speed_scales_batch_duration() {
        let cfg = small_config();
        let mut fast = selected();
        fast[0].speed = 2.0;
        let mut a = Runner::new(cfg.clone(), 2, &factory(), &selected()).unwrap();
        let mut b = Runner::new(cfg, 2, &factory(), &fast).unwrap();
        let da = a.execute_batch(0).duration;
        let db = b.execute_batch(0).duration;
        assert!((da / db - 2.0).abs() < 1e-9, "2x speed halves duration");
    }
}
