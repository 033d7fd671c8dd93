//! Asynchronous gradient descent (AGD), the EQC-style baseline of the
//! paper's Sec. VI-G case study.
//!
//! EQC shards the *parameters* of one VQA across devices: each device
//! optimizes its parameter block with the others frozen, and the blocks are
//! recombined at the end of every epoch. The paper shows one AGD epoch costs
//! more circuit executions than jointly optimizing all parameters while
//! reaching a worse objective — which is why Qoncord optimizes all
//! parameters together and shards the *phases* instead.

use crate::evaluator::CostEvaluator;
use crate::optimizer::Spsa;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of one AGD epoch.
#[derive(Debug, Clone)]
pub struct AgdEpochResult {
    /// Combined parameter vector after the epoch.
    pub params: Vec<f64>,
    /// Expectation at the combined iterate, evaluated on the first device.
    pub expectation: f64,
    /// Circuit executions per device (same order as the evaluators).
    pub executions_per_device: Vec<u64>,
}

/// Runs one epoch of asynchronous gradient descent: parameter block `i`
/// (round-robin split) is optimized on `evaluators[i]` for
/// `iterations_per_block` SPSA iterations with all other parameters frozen
/// at their epoch-start values; blocks are merged afterwards.
///
/// # Panics
///
/// Panics if `evaluators` is empty or `initial_params` is shorter than the
/// device count.
pub fn agd_epoch(
    evaluators: &mut [&mut dyn CostEvaluator],
    initial_params: &[f64],
    iterations_per_block: usize,
    seed: u64,
) -> AgdEpochResult {
    assert!(!evaluators.is_empty(), "AGD needs at least one device");
    assert!(
        initial_params.len() >= evaluators.len(),
        "need at least one parameter per device"
    );
    let n_devices = evaluators.len();
    let n_params = initial_params.len();
    // Round-robin block assignment: parameter j belongs to device j % n_devices.
    let mut combined = initial_params.to_vec();
    let mut executions = Vec::with_capacity(n_devices);
    for (dev_idx, evaluator) in evaluators.iter_mut().enumerate() {
        let start_execs = evaluator.executions();
        let block: Vec<usize> = (0..n_params).filter(|j| j % n_devices == dev_idx).collect();
        let mut block_values: Vec<f64> = block.iter().map(|&j| initial_params[j]).collect();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(dev_idx as u64));
        let mut spsa = Spsa::default();
        let frozen = initial_params.to_vec();
        let mut objective = |b: &[f64]| {
            let mut full = frozen.clone();
            for (&j, &v) in block.iter().zip(b) {
                full[j] = v;
            }
            evaluator.evaluate(&full).expectation
        };
        for _ in 0..iterations_per_block {
            spsa.step(&mut block_values, &mut objective, &mut rng);
        }
        for (&j, &v) in block.iter().zip(&block_values) {
            combined[j] = v;
        }
        executions.push(evaluator.executions() - start_execs);
    }
    let expectation = evaluators[0].evaluate(&combined).expectation;
    *executions.first_mut().expect("non-empty") += 1;
    AgdEpochResult {
        params: combined,
        expectation,
        executions_per_device: executions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::QaoaEvaluator;
    use crate::graph::Graph;
    use crate::maxcut::MaxCut;
    use qoncord_device::catalog;
    use qoncord_device::noise_model::SimulatedBackend;

    fn make_eval(cal: qoncord_device::calibration::Calibration, seed: u64) -> QaoaEvaluator {
        let problem = MaxCut::new(Graph::paper_graph_7());
        QaoaEvaluator::new(&problem, 2, SimulatedBackend::from_calibration(cal), seed)
    }

    #[test]
    fn epoch_updates_all_blocks() {
        let mut a = make_eval(catalog::ibmq_toronto(), 1);
        let mut b = make_eval(catalog::ibmq_kolkata(), 2);
        let initial = vec![0.5, 0.5, 0.5, 0.5];
        let mut evals: Vec<&mut dyn CostEvaluator> = vec![&mut a, &mut b];
        let out = agd_epoch(&mut evals, &initial, 5, 7);
        assert_eq!(out.params.len(), 4);
        assert_ne!(out.params, initial, "all blocks should move");
        assert_eq!(out.executions_per_device.len(), 2);
        assert!(out.executions_per_device.iter().all(|&e| e > 0));
    }

    #[test]
    fn epoch_costs_more_than_joint_optimization_per_progress() {
        // Reproduce the Fig. 22 qualitative claim: for the same number of
        // optimizer iterations, AGD (per-block on separate devices) consumes
        // at least as many executions as joint SPSA, since every block pays
        // the full-circuit cost.
        let iterations = 10;
        let mut a = make_eval(catalog::ibmq_toronto(), 1);
        let mut b = make_eval(catalog::ibmq_kolkata(), 2);
        let initial = vec![0.5, 0.5, 0.5, 0.5];
        let mut evals: Vec<&mut dyn CostEvaluator> = vec![&mut a, &mut b];
        let agd = agd_epoch(&mut evals, &initial, iterations, 7);
        let agd_total: u64 = agd.executions_per_device.iter().sum();

        let mut joint_eval = make_eval(catalog::ibmq_kolkata(), 3);
        let mut spsa = Spsa::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = initial;
        let mut objective = |p: &[f64]| joint_eval.evaluate(p).expectation;
        for _ in 0..iterations {
            spsa.step(&mut params, &mut objective, &mut rng);
        }
        let joint_total = 2 * iterations as u64;
        assert!(
            agd_total >= 2 * joint_total,
            "AGD ({agd_total}) should cost ≥ 2× joint ({joint_total}) with 2 devices"
        );
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_device_list_panics() {
        let mut evals: Vec<&mut dyn CostEvaluator> = vec![];
        agd_epoch(&mut evals, &[0.1], 1, 0);
    }
}
