//! The Qoncord scheduler (Fig. 7 of the paper): fidelity-ranked device
//! ladder, exploration on the cheapest device, cluster-based restart triage,
//! and progressive fine-tuning with relaxed/strict convergence tiers.

use crate::cluster::{select_restarts, SelectionPolicy};
use crate::convergence::ConvergenceConfig;
use crate::executor::{build_lanes, DeviceLane, EvaluatorFactory, RejectedDevice};
use crate::phase::PhaseRunner;
use qoncord_device::calibration::Calibration;
use qoncord_device::fidelity::MIN_FIDELITY_THRESHOLD;
use qoncord_vqa::restart::{random_initial_points, Trace};
use std::fmt;

/// Error returned when scheduling cannot proceed.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// Every candidate device was filtered out (too small or below the
    /// minimum fidelity threshold).
    NoViableDevice {
        /// The rejected devices and reasons.
        rejected: Vec<RejectedDevice>,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoViableDevice { rejected } => {
                write!(f, "no device passed the fidelity filter (")?;
                for (i, r) in rejected.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Tuning of the Qoncord scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct QoncordConfig {
    /// Minimum P_correct for a device to participate (Sec. IV-E; 0.1).
    pub min_fidelity: f64,
    /// Iteration budget of the exploration phase per restart.
    pub exploration_max_iterations: usize,
    /// Iteration budget of each fine-tuning phase per restart.
    pub finetune_max_iterations: usize,
    /// Convergence tier on non-final devices (Sec. IV-G).
    pub relaxed: ConvergenceConfig,
    /// Convergence tier on the final device.
    pub strict: ConvergenceConfig,
    /// Restart triage policy after exploration (Sec. IV-H).
    pub selection: SelectionPolicy,
    /// Extra entropy a middle tier may add before being skipped, in bits:
    /// the entropy gate (Sec. IV-F's device-transition test) probes every
    /// tier but the first and last and skips one that looks noisier.
    pub entropy_gate_slack: f64,
    /// Base RNG seed (initial points, SPSA perturbations, trajectory noise).
    pub seed: u64,
}

impl Default for QoncordConfig {
    fn default() -> Self {
        QoncordConfig {
            min_fidelity: MIN_FIDELITY_THRESHOLD,
            exploration_max_iterations: 40,
            finetune_max_iterations: 60,
            relaxed: ConvergenceConfig::relaxed(),
            strict: ConvergenceConfig::strict(),
            selection: SelectionPolicy::TopCluster,
            entropy_gate_slack: 0.15,
            seed: 0xC0C0,
        }
    }
}

/// RNG seed of a restart's exploration phase, derived from the scheduler's
/// base seed. Shared with the multi-tenant orchestrator so batch-wise
/// execution reproduces the closed loop exactly.
pub fn exploration_seed(base: u64, restart: usize) -> u64 {
    base ^ (restart as u64).wrapping_mul(0x9E37_79B9)
}

/// RNG seed of a restart's fine-tuning phase on ladder rung `lane`, derived
/// from the scheduler's base seed (see [`exploration_seed`]).
pub fn finetune_seed(base: u64, restart: usize, lane: usize) -> u64 {
    base ^ ((restart as u64) << 8) ^ (lane as u64)
}

/// One phase (device visit) of a restart's execution.
#[derive(Debug, Clone)]
pub struct PhaseTrace {
    /// The device the phase ran on.
    pub device: String,
    /// Per-iteration trace.
    pub trace: Trace,
    /// Circuit executions this phase consumed.
    pub executions: u64,
}

/// Full record of one restart under Qoncord.
#[derive(Debug, Clone)]
pub struct RestartReport {
    /// Restart index.
    pub index: usize,
    /// Initial parameter vector.
    pub initial_params: Vec<f64>,
    /// Final parameter vector (post last phase it ran).
    pub final_params: Vec<f64>,
    /// The phases the restart went through, in order.
    pub phases: Vec<PhaseTrace>,
    /// Whether the restart survived triage and was fine-tuned.
    pub survived: bool,
    /// The intermediate (exploration) expectation used for triage.
    pub exploration_expectation: f64,
    /// Final expectation value.
    pub final_expectation: f64,
}

/// Per-device usage accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceUsage {
    /// Device name.
    pub device: String,
    /// P_correct estimate for this workload.
    pub p_correct: f64,
    /// Total circuit executions on the device.
    pub executions: u64,
}

/// The scheduler's full output.
#[derive(Debug, Clone)]
pub struct QoncordReport {
    /// Per-restart records.
    pub restarts: Vec<RestartReport>,
    /// Per-device usage, ladder order (ascending fidelity).
    pub devices: Vec<DeviceUsage>,
    /// Devices excluded by the fidelity filter.
    pub rejected: Vec<RejectedDevice>,
    /// Ground-truth minimum of the observable.
    pub ground_energy: f64,
}

impl QoncordReport {
    /// The best (minimum) final expectation across restarts.
    pub fn best_expectation(&self) -> f64 {
        self.restarts
            .iter()
            .map(|r| r.final_expectation)
            .min_by(|a, b| a.partial_cmp(b).expect("finite expectations"))
            .expect("at least one restart")
    }

    /// Approximation ratio of the best restart (Eq. 3).
    pub fn best_approximation_ratio(&self) -> f64 {
        qoncord_vqa::metrics::approximation_ratio(self.best_expectation(), self.ground_energy)
    }

    /// Approximation ratios of the restarts that survived triage.
    pub fn survivor_ratios(&self) -> Vec<f64> {
        self.restarts
            .iter()
            .filter(|r| r.survived)
            .map(|r| {
                qoncord_vqa::metrics::approximation_ratio(r.final_expectation, self.ground_energy)
            })
            .collect()
    }

    /// Total circuit executions across devices.
    pub fn total_executions(&self) -> u64 {
        self.devices.iter().map(|d| d.executions).sum()
    }

    /// Number of restarts terminated at triage.
    pub fn terminated_restarts(&self) -> usize {
        self.restarts.iter().filter(|r| !r.survived).count()
    }
}

/// The Qoncord multi-device job scheduler.
///
/// # Examples
///
/// ```
/// use qoncord_core::scheduler::{QoncordConfig, QoncordScheduler};
/// use qoncord_core::executor::QaoaFactory;
/// use qoncord_core::cluster::SelectionPolicy;
/// use qoncord_device::catalog;
/// use qoncord_vqa::{graph::Graph, maxcut::MaxCut};
///
/// let factory = QaoaFactory { problem: MaxCut::new(Graph::paper_graph_7()), layers: 1 };
/// let mut config = QoncordConfig::default();
/// config.exploration_max_iterations = 10;
/// config.finetune_max_iterations = 10;
/// config.selection = SelectionPolicy::All;
/// let scheduler = QoncordScheduler::new(config);
/// let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
/// let report = scheduler.run(&devices, &factory, 2).unwrap();
/// assert_eq!(report.restarts.len(), 2);
/// assert_eq!(report.devices.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct QoncordScheduler {
    config: QoncordConfig,
}

impl QoncordScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: QoncordConfig) -> Self {
        QoncordScheduler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &QoncordConfig {
        &self.config
    }

    /// Runs a multi-restart VQA task across `devices`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoViableDevice`] if every device is filtered
    /// out by the minimum-fidelity check.
    ///
    /// # Panics
    ///
    /// Panics if `n_restarts == 0`.
    pub fn run(
        &self,
        devices: &[Calibration],
        factory: &dyn EvaluatorFactory,
        n_restarts: usize,
    ) -> Result<QoncordReport, ScheduleError> {
        assert!(n_restarts > 0, "need at least one restart");
        let cfg = &self.config;
        let (mut lanes, rejected) = build_lanes(devices, factory, cfg.min_fidelity, cfg.seed);
        if lanes.is_empty() {
            return Err(ScheduleError::NoViableDevice { rejected });
        }
        let n_params = lanes[0].evaluator.n_params();
        let ground_energy = lanes[0].evaluator.ground_energy();
        let initials = random_initial_points(n_params, n_restarts, cfg.seed);

        // ---- Phase 1: exploration of every restart on the cheapest lane ----
        let multi_device = lanes.len() > 1;
        let mut reports: Vec<RestartReport> = Vec::with_capacity(n_restarts);
        for (index, initial) in initials.iter().enumerate() {
            let checker_cfg = if multi_device {
                cfg.relaxed
            } else {
                cfg.strict
            };
            let max_iters = if multi_device {
                cfg.exploration_max_iterations
            } else {
                cfg.exploration_max_iterations + cfg.finetune_max_iterations
            };
            let phase = run_phase(
                &mut lanes[0],
                initial.clone(),
                checker_cfg,
                max_iters,
                exploration_seed(cfg.seed, index),
            );
            let exploration_expectation =
                phase.1.trace.final_expectation().unwrap_or(f64::INFINITY);
            reports.push(RestartReport {
                index,
                initial_params: initial.clone(),
                final_params: phase.0,
                phases: vec![phase.1],
                survived: true,
                exploration_expectation,
                final_expectation: exploration_expectation,
            });
        }

        // ---- Phase 2: triage (not all restarts are equal) ----
        if multi_device {
            let intermediates: Vec<f64> =
                reports.iter().map(|r| r.exploration_expectation).collect();
            let keep = select_restarts(&intermediates, cfg.selection);
            for (i, report) in reports.iter_mut().enumerate() {
                report.survived = keep.contains(&i);
            }
        }

        // ---- Phase 3: progressive fine-tuning up the ladder ----
        for lane_idx in 1..lanes.len() {
            let is_final = lane_idx == lanes.len() - 1;
            let checker_cfg = if is_final { cfg.strict } else { cfg.relaxed };
            for report in reports.iter_mut().filter(|r| r.survived) {
                // Entropy gate: a higher tier must look *less* noisy at the
                // current iterate, else skip it (Sec. IV-F); the final tier
                // always runs so the strict check happens somewhere.
                if !is_final {
                    let prev_entropy = report
                        .phases
                        .last()
                        .and_then(|p| p.trace.records.last())
                        .map(|r| r.entropy);
                    let probe = lanes[lane_idx].evaluator.evaluate(&report.final_params);
                    if let Some(prev) = prev_entropy {
                        if probe.entropy > prev + cfg.entropy_gate_slack {
                            continue;
                        }
                    }
                }
                let phase = run_phase(
                    &mut lanes[lane_idx],
                    report.final_params.clone(),
                    checker_cfg,
                    cfg.finetune_max_iterations,
                    finetune_seed(cfg.seed, report.index, lane_idx),
                );
                report.final_params = phase.0;
                if let Some(e) = phase.1.trace.final_expectation() {
                    report.final_expectation = e;
                }
                report.phases.push(phase.1);
            }
        }

        let devices_usage = lanes
            .iter()
            .map(|lane| DeviceUsage {
                device: lane.calibration.name().to_owned(),
                p_correct: lane.p_correct,
                executions: lane.evaluator.executions(),
            })
            .collect();
        Ok(QoncordReport {
            restarts: reports,
            devices: devices_usage,
            rejected,
            ground_energy,
        })
    }
}

/// Runs one training phase on a lane until the convergence checker fires or
/// the iteration budget is exhausted. Returns `(final_params, phase_trace)`.
///
/// This is the closed-loop driver over [`PhaseRunner`]; the multi-tenant
/// orchestrator drives the same runner batch-by-batch.
fn run_phase(
    lane: &mut DeviceLane,
    params: Vec<f64>,
    checker_cfg: ConvergenceConfig,
    max_iterations: usize,
    seed: u64,
) -> (Vec<f64>, PhaseTrace) {
    let mut runner = PhaseRunner::new(params, checker_cfg, max_iterations, seed);
    while !runner.is_finished() {
        runner.step(lane.evaluator.as_mut());
    }
    runner.finish(lane.calibration.name().to_owned())
}

/// Baseline: runs every restart end-to-end on one device with the strict
/// checker (the paper's LF-only / HF-only modes).
pub fn run_single_device(
    device: &Calibration,
    factory: &dyn EvaluatorFactory,
    n_restarts: usize,
    max_iterations: usize,
    seed: u64,
) -> QoncordReport {
    let backend = qoncord_device::noise_model::SimulatedBackend::from_calibration(device.clone());
    let evaluator = factory.make(backend, seed);
    let stats = evaluator.circuit_stats();
    let p_correct = qoncord_device::fidelity::p_correct(device, &stats);
    let n_params = evaluator.n_params();
    let ground_energy = evaluator.ground_energy();
    let initials = random_initial_points(n_params, n_restarts, seed);
    let mut lane = DeviceLane {
        calibration: device.clone(),
        evaluator,
        p_correct,
    };
    let mut reports = Vec::with_capacity(n_restarts);
    for (index, initial) in initials.iter().enumerate() {
        let phase = run_phase(
            &mut lane,
            initial.clone(),
            ConvergenceConfig::strict(),
            max_iterations,
            exploration_seed(seed, index),
        );
        let final_expectation = phase.1.trace.final_expectation().unwrap_or(f64::INFINITY);
        reports.push(RestartReport {
            index,
            initial_params: initial.clone(),
            final_params: phase.0,
            phases: vec![phase.1],
            survived: true,
            exploration_expectation: final_expectation,
            final_expectation,
        });
    }
    QoncordReport {
        restarts: reports,
        devices: vec![DeviceUsage {
            device: lane.calibration.name().to_owned(),
            p_correct: lane.p_correct,
            executions: lane.evaluator.executions(),
        }],
        rejected: Vec::new(),
        ground_energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::QaoaFactory;
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
            exploration_max_iterations: 12,
            finetune_max_iterations: 15,
            seed: 11,
            ..QoncordConfig::default()
        }
    }

    #[test]
    fn two_device_run_produces_full_report() {
        let scheduler = QoncordScheduler::new(small_config());
        let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
        let report = scheduler.run(&devices, &factory(), 6).unwrap();
        assert_eq!(report.restarts.len(), 6);
        assert_eq!(report.devices.len(), 2);
        // Ladder order: LF first.
        assert_eq!(report.devices[0].device, "ibmq_toronto");
        assert!(report.devices[0].p_correct <= report.devices[1].p_correct);
        // Everyone explored on the LF device.
        assert!(report.devices[0].executions > 0);
        // At least one survivor fine-tuned on the HF device.
        assert!(report.devices[1].executions > 0);
        let ratio = report.best_approximation_ratio();
        assert!((0.0..=1.0).contains(&ratio));
    }

    #[test]
    fn survivors_have_multiple_phases() {
        let scheduler = QoncordScheduler::new(small_config());
        let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
        let report = scheduler.run(&devices, &factory(), 5).unwrap();
        for r in &report.restarts {
            if r.survived {
                assert!(
                    !r.phases.is_empty(),
                    "survivor must have at least the exploration phase"
                );
                if r.phases.len() > 1 {
                    assert_eq!(r.phases[0].device, "ibmq_toronto");
                    assert_eq!(r.phases.last().unwrap().device, "ibmq_kolkata");
                }
            } else {
                assert_eq!(r.phases.len(), 1, "terminated restarts stop at exploration");
            }
        }
    }

    #[test]
    fn single_device_fallback_uses_strict_checker() {
        let scheduler = QoncordScheduler::new(small_config());
        let devices = [catalog::ibmq_kolkata()];
        let report = scheduler.run(&devices, &factory(), 3).unwrap();
        assert_eq!(report.devices.len(), 1);
        assert!(report.restarts.iter().all(|r| r.survived));
    }

    #[test]
    fn all_devices_filtered_is_an_error() {
        let cfg = QoncordConfig {
            min_fidelity: 0.999, // nothing passes
            ..small_config()
        };
        let scheduler = QoncordScheduler::new(cfg);
        let err = scheduler
            .run(&[catalog::ibmq_toronto()], &factory(), 2)
            .unwrap_err();
        let ScheduleError::NoViableDevice { rejected } = err;
        assert_eq!(rejected.len(), 1);
    }

    #[test]
    fn schedule_error_display_is_human_readable() {
        let cfg = QoncordConfig {
            min_fidelity: 0.999,
            ..small_config()
        };
        let err = QoncordScheduler::new(cfg)
            .run(&[catalog::ibmq_toronto()], &factory(), 1)
            .unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("ibmq_toronto: P_correct"),
            "expected readable reason, got: {text}"
        );
        assert!(
            !text.contains("BelowMinFidelity"),
            "Debug formatting leaked into Display: {text}"
        );
    }

    #[test]
    fn phase_seeds_are_stable() {
        // The orchestrator reproduces the scheduler's runs from these seeds;
        // changing the derivation silently breaks cross-checking tests.
        assert_eq!(exploration_seed(0xC0C0, 0), 0xC0C0);
        assert_eq!(exploration_seed(7, 3), 7 ^ 3u64.wrapping_mul(0x9E37_79B9));
        assert_eq!(finetune_seed(7, 3, 1), 7 ^ (3 << 8) ^ 1);
    }

    #[test]
    fn triage_terminates_some_restarts_with_topk() {
        let cfg = QoncordConfig {
            selection: SelectionPolicy::TopK(2),
            ..small_config()
        };
        let scheduler = QoncordScheduler::new(cfg);
        let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
        let report = scheduler.run(&devices, &factory(), 6).unwrap();
        assert_eq!(report.terminated_restarts(), 4);
        assert_eq!(report.survivor_ratios().len(), 2);
    }

    #[test]
    fn baseline_single_device_runs() {
        let report = run_single_device(&catalog::ibmq_kolkata(), &factory(), 3, 20, 5);
        assert_eq!(report.restarts.len(), 3);
        assert_eq!(report.devices.len(), 1);
        assert!(report.total_executions() > 0);
    }

    #[test]
    fn report_accounting_consistent() {
        let scheduler = QoncordScheduler::new(small_config());
        let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
        let report = scheduler.run(&devices, &factory(), 4).unwrap();
        let per_phase: u64 = report
            .restarts
            .iter()
            .flat_map(|r| r.phases.iter().map(|p| p.executions))
            .sum();
        // Total device executions ≥ phase executions (entropy-gate probes add).
        assert!(report.total_executions() >= per_phase);
    }

    #[test]
    fn deterministic_given_seed() {
        let scheduler = QoncordScheduler::new(small_config());
        let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
        let a = scheduler.run(&devices, &factory(), 3).unwrap();
        let b = scheduler.run(&devices, &factory(), 3).unwrap();
        assert_eq!(a.best_expectation(), b.best_expectation());
        assert_eq!(a.total_executions(), b.total_executions());
    }
}
