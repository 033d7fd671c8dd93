//! Resumable per-batch training phases.
//!
//! [`crate::scheduler::QoncordScheduler`] runs each phase as a closed loop,
//! but a multi-tenant orchestrator cannot: when many jobs share a device
//! fleet, every optimizer batch is a separate device reservation and phases
//! from different tenants interleave. [`PhaseRunner`] carries the full state
//! of one phase — parameters, SPSA schedule, RNG, trace, and convergence
//! checker — between batches, so a phase can be suspended after any batch
//! and resumed later with identical results to the closed loop (see
//! `run_phase` in the scheduler, which is built on it).

use crate::convergence::{ConvergenceChecker, ConvergenceConfig, ConvergenceStatus};
use crate::scheduler::PhaseTrace;
use qoncord_vqa::evaluator::CostEvaluator;
use qoncord_vqa::optimizer::Spsa;
use qoncord_vqa::restart::{train_step, IterationRecord, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of one batch (one optimizer iteration) of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOutcome {
    /// The iteration's record (expectation + entropy at the new iterate).
    pub record: IterationRecord,
    /// Circuit executions the batch consumed on the device.
    pub executions: u64,
    /// Whether the phase is finished (saturated or out of budget).
    pub finished: bool,
}

/// A snapshot of the resume-relevant optimizer state of a phase at a batch
/// boundary: the iterate, how many iterations have run, and the circuit
/// executions consumed so far.
///
/// This is what a preemptible device lease carries as its "saved state":
/// because [`PhaseRunner`] only mutates between [`PhaseRunner::step`] calls,
/// evicting a job at (or before) a batch boundary and resuming the same
/// runner later replays the remaining iterations bit-identically — the
/// checkpoint certifies *where* the phase was when the lease was recalled.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCheckpoint {
    /// The iterate at the checkpoint.
    pub params: Vec<f64>,
    /// Iterations completed in the phase so far.
    pub iteration: usize,
    /// Circuit executions the phase has consumed so far.
    pub executions: u64,
}

impl PhaseCheckpoint {
    /// Serializes the checkpoint to a self-describing little-endian byte
    /// string (for audit logs or handing a lease record across processes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + 8 * self.params.len());
        out.extend_from_slice(&(self.iteration as u64).to_le_bytes());
        out.extend_from_slice(&self.executions.to_le_bytes());
        out.extend_from_slice(&(self.params.len() as u64).to_le_bytes());
        for p in &self.params {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out
    }

    /// Deserializes a checkpoint written by [`to_bytes`](Self::to_bytes).
    /// Returns `None` on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let word = |i: usize| -> Option<[u8; 8]> { bytes.get(8 * i..8 * i + 8)?.try_into().ok() };
        let iteration = usize::try_from(u64::from_le_bytes(word(0)?)).ok()?;
        let executions = u64::from_le_bytes(word(1)?);
        let n = usize::try_from(u64::from_le_bytes(word(2)?)).ok()?;
        let expected = n.checked_mul(8).and_then(|b| b.checked_add(24))?;
        if bytes.len() != expected {
            return None;
        }
        let params = (0..n)
            .map(|i| word(3 + i).map(f64::from_le_bytes))
            .collect::<Option<Vec<f64>>>()?;
        Some(PhaseCheckpoint {
            params,
            iteration,
            executions,
        })
    }
}

/// A [`PhaseCheckpoint`] tagged with the sub-lease coordinates that
/// produced it: which *shard* of the job held the device lease and which
/// *restart* the checkpointed phase belongs to.
///
/// A job split QuSplit-style holds several concurrent sub-leases, one per
/// shard; when one of them is evicted, the bare phase snapshot is no longer
/// enough to certify a lossless resume — the engine must also verify that
/// the re-granted batch belongs to the same shard and restart the recalled
/// lease was serving. This is the saved state every sub-lease carries.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Shard of the job the lease was serving: the index of the worker in
    /// the job's runner (always 0 for unsplit jobs, on every ladder rung).
    pub shard: usize,
    /// Restart index the checkpointed phase belongs to.
    pub restart: usize,
    /// The phase snapshot itself.
    pub phase: PhaseCheckpoint,
}

/// One training phase driven batch-by-batch.
///
/// # Examples
///
/// ```
/// use qoncord_core::convergence::ConvergenceConfig;
/// use qoncord_core::phase::PhaseRunner;
/// use qoncord_device::catalog;
/// use qoncord_device::noise_model::SimulatedBackend;
/// use qoncord_vqa::evaluator::QaoaEvaluator;
/// use qoncord_vqa::{graph::Graph, maxcut::MaxCut};
///
/// let problem = MaxCut::new(Graph::new(3, &[(0, 1, 1.0), (1, 2, 1.0)]));
/// let backend = SimulatedBackend::ideal(catalog::ibmq_kolkata());
/// let mut eval = QaoaEvaluator::new(&problem, 1, backend, 0);
/// let mut runner = PhaseRunner::new(vec![0.3, 0.2], ConvergenceConfig::relaxed(), 5, 7);
/// while !runner.is_finished() {
///     runner.step(&mut eval);
/// }
/// let (params, phase) = runner.finish("ibmq_kolkata".to_owned());
/// assert_eq!(params.len(), 2);
/// assert_eq!(phase.trace.len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct PhaseRunner {
    checker: ConvergenceChecker,
    optimizer: Spsa,
    rng: StdRng,
    params: Vec<f64>,
    trace: Trace,
    executions: u64,
    max_iterations: usize,
    saturated: bool,
}

impl PhaseRunner {
    /// Creates a runner starting from `initial`, converging per `checker`,
    /// with at most `max_iterations` batches; `seed` drives the SPSA
    /// perturbations (same seeding as the closed-loop scheduler).
    pub fn new(
        initial: Vec<f64>,
        checker: ConvergenceConfig,
        max_iterations: usize,
        seed: u64,
    ) -> Self {
        PhaseRunner {
            checker: ConvergenceChecker::new(checker),
            optimizer: Spsa::default(),
            rng: StdRng::seed_from_u64(seed),
            params: initial,
            trace: Trace::default(),
            executions: 0,
            max_iterations,
            saturated: false,
        }
    }

    /// Whether the phase is over: the checker saturated or the iteration
    /// budget is exhausted.
    pub fn is_finished(&self) -> bool {
        self.saturated || self.trace.len() >= self.max_iterations
    }

    /// Runs one batch (one optimizer iteration) on `evaluator`.
    ///
    /// # Panics
    ///
    /// Panics if the phase [`is_finished`](Self::is_finished).
    pub fn step(&mut self, evaluator: &mut dyn CostEvaluator) -> BatchOutcome {
        assert!(!self.is_finished(), "phase already finished");
        let before = evaluator.executions();
        let iteration = self.trace.len();
        let record = train_step(
            evaluator,
            &mut self.optimizer,
            &mut self.params,
            iteration,
            &mut self.rng,
        );
        self.trace.records.push(record);
        if self.checker.observe_record(&record) == ConvergenceStatus::Saturated {
            self.saturated = true;
        }
        let executions = evaluator.executions() - before;
        self.executions += executions;
        BatchOutcome {
            record,
            executions,
            finished: self.is_finished(),
        }
    }

    /// The current iterate.
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// Snapshots the resume-relevant state at the current batch boundary.
    pub fn checkpoint(&self) -> PhaseCheckpoint {
        PhaseCheckpoint {
            params: self.params.clone(),
            iteration: self.trace.len(),
            executions: self.executions,
        }
    }

    /// The trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Circuit executions consumed by the phase so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Consumes the runner into the final parameters and the phase trace
    /// attributed to `device`.
    pub fn finish(self, device: String) -> (Vec<f64>, PhaseTrace) {
        (
            self.params,
            PhaseTrace {
                device,
                trace: self.trace,
                executions: self.executions,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoncord_device::catalog;
    use qoncord_device::noise_model::SimulatedBackend;
    use qoncord_vqa::evaluator::QaoaEvaluator;
    use qoncord_vqa::graph::Graph;
    use qoncord_vqa::maxcut::MaxCut;

    fn evaluator() -> QaoaEvaluator {
        let problem = MaxCut::new(Graph::new(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]));
        QaoaEvaluator::new(
            &problem,
            1,
            SimulatedBackend::ideal(catalog::ibmq_kolkata()),
            0,
        )
    }

    #[test]
    fn runs_to_budget_and_counts_executions() {
        let mut eval = evaluator();
        let mut runner = PhaseRunner::new(vec![0.2, 0.2], ConvergenceConfig::strict(), 10, 4);
        let mut batches = 0;
        while !runner.is_finished() {
            let out = runner.step(&mut eval);
            assert_eq!(out.executions, 3, "SPSA: 2 evals + 1 trace eval");
            batches += 1;
        }
        assert_eq!(batches, 10);
        assert_eq!(runner.executions(), 30);
        assert_eq!(runner.trace().len(), 10);
        let (params, phase) = runner.finish("dev".to_owned());
        assert_eq!(params.len(), 2);
        assert_eq!(phase.executions, 30);
        assert_eq!(phase.device, "dev");
    }

    #[test]
    fn saturation_stops_early() {
        // A tolerant checker saturates as soon as min_iterations is hit.
        let cfg = ConvergenceConfig {
            window: 2,
            expectation_tolerance: 100.0,
            entropy_tolerance: 100.0,
            min_iterations: 3,
            joint: true,
        };
        let mut eval = evaluator();
        let mut runner = PhaseRunner::new(vec![0.1, 0.1], cfg, 50, 4);
        while !runner.is_finished() {
            runner.step(&mut eval);
        }
        assert_eq!(runner.trace().len(), 3);
    }

    #[test]
    fn checkpoint_tracks_progress_and_round_trips() {
        let mut eval = evaluator();
        let mut runner = PhaseRunner::new(vec![0.2, 0.3], ConvergenceConfig::strict(), 10, 4);
        assert_eq!(runner.checkpoint().iteration, 0);
        runner.step(&mut eval);
        runner.step(&mut eval);
        let ckpt = runner.checkpoint();
        assert_eq!(ckpt.iteration, 2);
        assert_eq!(ckpt.executions, 6);
        assert_eq!(ckpt.params, runner.params());
        let bytes = ckpt.to_bytes();
        assert_eq!(PhaseCheckpoint::from_bytes(&bytes), Some(ckpt));
        assert_eq!(PhaseCheckpoint::from_bytes(&bytes[..bytes.len() - 1]), None);
        assert_eq!(PhaseCheckpoint::from_bytes(&[]), None);
        // A corrupt length word must not overflow the size check.
        let mut corrupt = bytes.clone();
        corrupt[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(PhaseCheckpoint::from_bytes(&corrupt), None);
    }

    #[test]
    fn zero_budget_finishes_immediately() {
        let runner = PhaseRunner::new(vec![0.1], ConvergenceConfig::relaxed(), 0, 0);
        assert!(runner.is_finished());
    }

    #[test]
    #[should_panic(expected = "phase already finished")]
    fn stepping_a_finished_phase_panics() {
        let mut eval = evaluator();
        let mut runner = PhaseRunner::new(vec![0.1, 0.1], ConvergenceConfig::relaxed(), 0, 0);
        runner.step(&mut eval);
    }
}
