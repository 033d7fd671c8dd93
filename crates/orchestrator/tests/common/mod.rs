//! The analytic stand-in job the engine-shaped oracle tests train: the
//! engine, queue and admission layers run as for a real job, no circuit is
//! simulated, so a debug build stays fast.

use qoncord_circuit::transpile::CircuitStats;
use qoncord_core::executor::EvaluatorFactory;
use qoncord_device::noise_model::SimulatedBackend;
use qoncord_sim::dist::ProbDist;
use qoncord_vqa::evaluator::{CostEvaluator, Evaluation};

/// `E(θ) = -depth · (1 + cos(θ₀ − a) · cos(θ₁ − b)) / 2` on a two-parameter
/// torus: ground energy `-1` at `(a, b)` on a noiseless device, shallower as
/// the device's two-qubit error grows.
struct Bowl {
    minimum: [f64; 2],
    depth: f64,
    device: String,
    executions: u64,
}

impl CostEvaluator for Bowl {
    fn n_params(&self) -> usize {
        2
    }

    fn evaluate(&mut self, params: &[f64]) -> Evaluation {
        self.executions += 1;
        let [a, b] = self.minimum;
        let expectation = -self.depth * (1.0 + (params[0] - a).cos() * (params[1] - b).cos()) / 2.0;
        Evaluation {
            expectation,
            entropy: 3.0 * (1.0 + expectation),
            dist: ProbDist::uniform(1),
        }
    }

    fn executions(&self) -> u64 {
        self.executions
    }

    fn device_name(&self) -> String {
        self.device.clone()
    }

    fn ground_energy(&self) -> f64 {
        -1.0
    }

    fn circuit_stats(&self) -> CircuitStats {
        // Shallow enough to clear the default fidelity filter on both
        // catalog calibrations; it also sets the lease length.
        CircuitStats {
            n_1q: 20,
            n_2q: 6,
            depth: 10,
            swaps_inserted: 0,
            n_measured: 4,
        }
    }
}

pub fn bowl_factory(minimum: [f64; 2]) -> Box<dyn EvaluatorFactory> {
    Box::new(move |backend: SimulatedBackend, _seed: u64| {
        let cal = backend.calibration();
        Box::new(Bowl {
            minimum,
            depth: (1.0 - 8.0 * cal.error_2q()).clamp(0.1, 1.0),
            device: cal.name().to_owned(),
            executions: 0,
        }) as Box<dyn CostEvaluator>
    })
}
