//! A circuit-free workload for the scheduler-only workloads: an analytic
//! cost surface behind the public `CostEvaluator`/`EvaluatorFactory`
//! traits, so the engine, queue and admission layers run exactly as they
//! do for a real job while the circuit layers do nothing.

use qoncord_circuit::transpile::CircuitStats;
use qoncord_core::executor::EvaluatorFactory;
use qoncord_device::noise_model::SimulatedBackend;
use qoncord_sim::dist::ProbDist;
use qoncord_vqa::evaluator::{CostEvaluator, Evaluation};

/// Ground energy of the stub surface (its value at `theta == centre`).
pub const STUB_GROUND: f64 = -1.0;

/// The footprint every stub job reports: small enough to pass the default
/// fidelity filter on the catalog devices, and it fixes the simulated
/// duration of one execution (the engine prices batches from it).
pub const STUB_STATS: CircuitStats = CircuitStats {
    n_1q: 24,
    n_2q: 8,
    depth: 12,
    swaps_inserted: 0,
    n_measured: 4,
};

/// Builds [`StubEvaluator`]s; `centre` is the minimiser of the surface.
#[derive(Debug, Clone)]
pub struct StubFactory {
    pub centre: [f64; 2],
}

impl EvaluatorFactory for StubFactory {
    fn make(&self, backend: SimulatedBackend, _seed: u64) -> Box<dyn CostEvaluator> {
        let cal = backend.calibration();
        Box::new(StubEvaluator {
            centre: self.centre,
            // A noisier device flattens the surface, the way depolarizing
            // noise shrinks a real expectation value towards zero.
            contrast: (1.0 - 10.0 * cal.error_2q()).clamp(0.05, 1.0),
            device: cal.name().to_owned(),
            executions: 0,
        })
    }
}

/// `E(theta) = contrast * (-0.55 - 0.45 * cos(t0 - c0) * cos(t1 - c1))`:
/// strictly negative, minimised at `centre` with value `contrast * -1`.
#[derive(Debug, Clone)]
pub struct StubEvaluator {
    centre: [f64; 2],
    contrast: f64,
    device: String,
    executions: u64,
}

impl CostEvaluator for StubEvaluator {
    fn n_params(&self) -> usize {
        2
    }

    fn evaluate(&mut self, params: &[f64]) -> Evaluation {
        self.executions += 1;
        let overlap = (params[0] - self.centre[0]).cos() * (params[1] - self.centre[1]).cos();
        let expectation = self.contrast * (-0.55 - 0.45 * overlap);
        Evaluation {
            expectation,
            // Lower energy and a cleaner device both sharpen the outcome
            // distribution, so the ladder's entropy gate lets the job climb.
            entropy: 4.0 * (1.0 + expectation),
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
        STUB_GROUND
    }

    fn circuit_stats(&self) -> CircuitStats {
        STUB_STATS
    }
}
