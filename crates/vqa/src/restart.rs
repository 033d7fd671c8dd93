//! Multi-restart training: random initial points, the step-wise training
//! loop, and per-restart traces — the raw material of the paper's Figs. 5, 6,
//! 13–18.

use crate::evaluator::CostEvaluator;
use crate::optimizer::Spsa;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;

/// One optimizer iteration's record within a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (within the phase that produced it).
    pub iteration: usize,
    /// Expectation-value estimate at this iterate.
    pub expectation: f64,
    /// Shannon entropy of the outcome distribution.
    pub entropy: f64,
}

/// The trajectory of one (phase of a) training run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
}

impl Trace {
    /// Last recorded expectation, if any iterations ran.
    pub fn final_expectation(&self) -> Option<f64> {
        self.records.last().map(|r| r.expectation)
    }

    /// Best (minimum) expectation seen.
    pub fn best_expectation(&self) -> Option<f64> {
        self.records
            .iter()
            .map(|r| r.expectation)
            .min_by(|a, b| a.partial_cmp(b).expect("finite expectations"))
    }

    /// Record at a fraction of the run (e.g. `0.4` for the paper's
    /// intermediate-cluster analysis of Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn at_fraction(&self, fraction: f64) -> Option<&IterationRecord> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
        if self.records.is_empty() {
            return None;
        }
        let idx = ((self.records.len() - 1) as f64 * fraction).round() as usize;
        self.records.get(idx)
    }

    /// Number of iterations recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no iterations were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Outcome of [`train`]: the trace plus final iterate and execution count
/// consumed during this phase.
#[derive(Debug, Clone)]
pub struct TrainingResult {
    /// Per-iteration trace.
    pub trace: Trace,
    /// Final parameter vector.
    pub params: Vec<f64>,
    /// Circuit executions consumed by this phase.
    pub executions: u64,
}

/// Circuit executions one SPSA iteration consumes: two perturbation
/// evaluations for the gradient estimate plus one evaluation of the updated
/// iterate for the trace record.
///
/// This is the unit every reservation in the multi-tenant orchestrator is
/// priced in — batch leases, provisional fine-tuning holds, and the release
/// accounting when a hold is cancelled at triage or a lease is evicted all
/// size device time as `iterations × SPSA_EXECUTIONS_PER_ITERATION ×
/// seconds-per-execution`.
pub const SPSA_EXECUTIONS_PER_ITERATION: u64 = 3;

/// Circuit executions a block of `iterations` SPSA iterations consumes (see
/// [`SPSA_EXECUTIONS_PER_ITERATION`]).
pub fn executions_for_iterations(iterations: usize) -> u64 {
    iterations as u64 * SPSA_EXECUTIONS_PER_ITERATION
}

/// Runs exactly one optimizer iteration: the optimizer mutates `params` in
/// place and the evaluation at the new iterate is returned as the
/// iteration's record.
///
/// This is the atomic unit of training — one *batch* of circuit executions
/// on a device. [`train`] loops it for closed-loop runs; Qoncord's
/// multi-tenant orchestrator dispatches it batch-by-batch so a run can be
/// paused, interleaved with other tenants, and resumed.
pub fn train_step(
    evaluator: &mut dyn CostEvaluator,
    optimizer: &mut Spsa,
    params: &mut [f64],
    iteration: usize,
    rng: &mut StdRng,
) -> IterationRecord {
    // The optimizer sees only the scalar; entropy is captured on the
    // evaluation of the updated iterate below.
    let mut objective = |p: &[f64]| evaluator.evaluate(p).expectation;
    optimizer.step(params, &mut objective, rng);
    let eval = evaluator.evaluate(params);
    IterationRecord {
        iteration,
        expectation: eval.expectation,
        entropy: eval.entropy,
    }
}

/// Runs the step-wise training loop: at each iteration the optimizer mutates
/// `params` and the evaluation at the new iterate is recorded; `stop`
/// receives `(iteration, record)` and returns `true` to terminate early.
///
/// This is the primitive both the single-device baselines and Qoncord's
/// phase executor are built on — Qoncord passes its adaptive convergence
/// checker as `stop`.
pub fn train(
    evaluator: &mut dyn CostEvaluator,
    optimizer: &mut Spsa,
    mut params: Vec<f64>,
    max_iterations: usize,
    rng: &mut StdRng,
    mut stop: impl FnMut(usize, &IterationRecord) -> bool,
) -> TrainingResult {
    let start_executions = evaluator.executions();
    let mut trace = Trace::default();
    for iteration in 0..max_iterations {
        let record = train_step(evaluator, optimizer, &mut params, iteration, rng);
        trace.records.push(record);
        if stop(iteration, &record) {
            break;
        }
    }
    TrainingResult {
        trace,
        params,
        executions: evaluator.executions() - start_executions,
    }
}

/// Draws `n_restarts` initial parameter vectors uniformly from `[0, 2π)^d`
/// (the paper's random-restart initialization), deterministically from
/// `seed`.
pub fn random_initial_points(n_params: usize, n_restarts: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_restarts)
        .map(|_| (0..n_params).map(|_| rng.random::<f64>() * TAU).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::QaoaEvaluator;
    use crate::graph::Graph;
    use crate::maxcut::MaxCut;
    use qoncord_device::catalog;
    use qoncord_device::noise_model::SimulatedBackend;

    fn triangle_evaluator() -> QaoaEvaluator {
        let problem = MaxCut::new(Graph::new(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]));
        QaoaEvaluator::new(
            &problem,
            1,
            SimulatedBackend::ideal(catalog::ibmq_kolkata()),
            0,
        )
    }

    #[test]
    fn training_improves_expectation() {
        let mut eval = triangle_evaluator();
        let mut spsa = Spsa::default();
        let mut rng = StdRng::seed_from_u64(4);
        let start = vec![0.3, 0.1];
        let initial = eval.evaluate(&start).expectation;
        let result = train(&mut eval, &mut spsa, start, 60, &mut rng, |_, _| false);
        let final_e = result.trace.final_expectation().unwrap();
        assert!(
            final_e < initial - 0.1,
            "no progress: {initial} -> {final_e}"
        );
    }

    #[test]
    fn spsa_execution_constant_matches_observed_cost() {
        let mut eval = triangle_evaluator();
        let mut spsa = Spsa::default();
        let mut rng = StdRng::seed_from_u64(2);
        let before = eval.executions();
        let mut params = vec![0.2, 0.2];
        train_step(&mut eval, &mut spsa, &mut params, 0, &mut rng);
        assert_eq!(eval.executions() - before, SPSA_EXECUTIONS_PER_ITERATION);
        assert_eq!(executions_for_iterations(7), 21);
    }

    #[test]
    fn training_counts_executions() {
        let mut eval = triangle_evaluator();
        let mut spsa = Spsa::default();
        let mut rng = StdRng::seed_from_u64(4);
        let result = train(
            &mut eval,
            &mut spsa,
            vec![0.2, 0.2],
            10,
            &mut rng,
            |_, _| false,
        );
        // SPSA: 2 evals per step + 1 trace eval per iteration = 3 × 10.
        assert_eq!(result.executions, 30);
        assert_eq!(result.trace.len(), 10);
    }

    #[test]
    fn stop_callback_terminates_early() {
        let mut eval = triangle_evaluator();
        let mut spsa = Spsa::default();
        let mut rng = StdRng::seed_from_u64(4);
        let result = train(
            &mut eval,
            &mut spsa,
            vec![0.2, 0.2],
            100,
            &mut rng,
            |i, _| i >= 4,
        );
        assert_eq!(result.trace.len(), 5);
    }

    #[test]
    fn train_step_matches_closed_loop() {
        // Driving train_step by hand must reproduce `train` exactly: the
        // orchestrator relies on batch-wise execution being bit-identical.
        let mut eval_a = triangle_evaluator();
        let mut spsa_a = Spsa::default();
        let mut rng_a = StdRng::seed_from_u64(11);
        let closed = train(
            &mut eval_a,
            &mut spsa_a,
            vec![0.4, 0.1],
            8,
            &mut rng_a,
            |_, _| false,
        );

        let mut eval_b = triangle_evaluator();
        let mut spsa_b = Spsa::default();
        let mut rng_b = StdRng::seed_from_u64(11);
        let mut params = vec![0.4, 0.1];
        let mut records = Vec::new();
        for i in 0..8 {
            records.push(train_step(
                &mut eval_b,
                &mut spsa_b,
                &mut params,
                i,
                &mut rng_b,
            ));
        }
        assert_eq!(closed.params, params);
        assert_eq!(closed.trace.records, records);
        assert_eq!(closed.executions, eval_b.executions());
    }

    #[test]
    fn initial_points_deterministic_and_in_range() {
        let a = random_initial_points(4, 8, 99);
        let b = random_initial_points(4, 8, 99);
        assert_eq!(a, b);
        assert!(a
            .iter()
            .flatten()
            .all(|&x| (0.0..std::f64::consts::TAU).contains(&x)));
        let c = random_initial_points(4, 8, 100);
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn trace_fraction_indexing() {
        let trace = Trace {
            records: (0..11)
                .map(|i| IterationRecord {
                    iteration: i,
                    expectation: -(i as f64),
                    entropy: 1.0,
                })
                .collect(),
        };
        assert_eq!(trace.at_fraction(0.0).unwrap().iteration, 0);
        assert_eq!(trace.at_fraction(0.4).unwrap().iteration, 4);
        assert_eq!(trace.at_fraction(1.0).unwrap().iteration, 10);
        assert_eq!(trace.best_expectation().unwrap(), -10.0);
    }
}
