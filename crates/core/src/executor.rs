//! Device lanes: the pairing of a calibration, a workload evaluator, and a
//! P_correct estimate that the scheduler's device ladder is built from.

use qoncord_device::calibration::Calibration;
use qoncord_device::fidelity;
use qoncord_device::noise_model::SimulatedBackend;
use qoncord_vqa::evaluator::CostEvaluator;
use std::fmt;

/// Builds a workload evaluator bound to a specific backend.
///
/// Implemented by the QAOA and VQE factories below and by any
/// `Fn(SimulatedBackend, u64) -> Box<dyn CostEvaluator>` closure.
pub trait EvaluatorFactory {
    /// Creates an evaluator running on `backend`, seeded with `seed`.
    fn make(&self, backend: SimulatedBackend, seed: u64) -> Box<dyn CostEvaluator>;
}

impl<F> EvaluatorFactory for F
where
    F: Fn(SimulatedBackend, u64) -> Box<dyn CostEvaluator>,
{
    fn make(&self, backend: SimulatedBackend, seed: u64) -> Box<dyn CostEvaluator> {
        self(backend, seed)
    }
}

/// Factory for QAOA Max-Cut evaluators.
#[derive(Debug, Clone)]
pub struct QaoaFactory {
    /// The Max-Cut instance.
    pub problem: qoncord_vqa::maxcut::MaxCut,
    /// QAOA depth.
    pub layers: usize,
}

impl EvaluatorFactory for QaoaFactory {
    fn make(&self, backend: SimulatedBackend, seed: u64) -> Box<dyn CostEvaluator> {
        Box::new(qoncord_vqa::evaluator::QaoaEvaluator::new(
            &self.problem,
            self.layers,
            backend,
            seed,
        ))
    }
}

/// Factory for VQE evaluators.
#[derive(Debug, Clone)]
pub struct VqeFactory {
    /// The observable to minimize.
    pub hamiltonian: qoncord_vqa::pauli::PauliSum,
    /// The parametric ansatz.
    pub ansatz: qoncord_circuit::circuit::Circuit,
}

impl EvaluatorFactory for VqeFactory {
    fn make(&self, backend: SimulatedBackend, seed: u64) -> Box<dyn CostEvaluator> {
        Box::new(qoncord_vqa::evaluator::VqeEvaluator::new(
            &self.hamiltonian,
            &self.ansatz,
            backend,
            seed,
        ))
    }
}

/// One rung of the device ladder: device, bound evaluator, and its
/// P_correct estimate for this workload.
pub struct DeviceLane {
    /// The device calibration.
    pub calibration: Calibration,
    /// The workload evaluator bound to this device (accumulates executions).
    pub evaluator: Box<dyn CostEvaluator>,
    /// Estimated execution fidelity (Eq. 1).
    pub p_correct: f64,
}

impl fmt::Debug for DeviceLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceLane")
            .field("device", &self.calibration.name())
            .field("p_correct", &self.p_correct)
            .field("executions", &self.evaluator.executions())
            .finish()
    }
}

/// Devices rejected while building the ladder, with the reason.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedDevice {
    /// Device name.
    pub device: String,
    /// Why it was rejected.
    pub reason: RejectionReason,
}

/// Why a device was excluded from the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectionReason {
    /// Fewer qubits than the workload needs.
    TooSmall,
    /// P_correct fell below the minimum fidelity threshold (Sec. IV-E).
    BelowMinFidelity {
        /// The estimate that failed the filter.
        estimate: f64,
    },
}

impl fmt::Display for RejectionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectionReason::TooSmall => write!(f, "too few qubits for the workload"),
            RejectionReason::BelowMinFidelity { estimate } => {
                write!(
                    f,
                    "P_correct {estimate:.4} below the minimum fidelity threshold"
                )
            }
        }
    }
}

impl fmt::Display for RejectedDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.device, self.reason)
    }
}

/// Binds the workload to one device: instantiates its evaluator there,
/// estimates P_correct from the device's own transpiled footprint, and
/// applies the `min_fidelity` filter — one rung of [`build_lanes`], also
/// what binds a same-tier twin of an existing rung.
///
/// # Errors
///
/// Returns the rejection when the device is too small to transpile onto or
/// its estimate falls below `min_fidelity`.
pub fn build_lane(
    cal: &Calibration,
    factory: &dyn EvaluatorFactory,
    min_fidelity: f64,
    seed: u64,
) -> Result<DeviceLane, RejectedDevice> {
    let reject = |reason| RejectedDevice {
        device: cal.name().to_owned(),
        reason,
    };
    let backend = SimulatedBackend::from_calibration(cal.clone());
    // Evaluator construction panics on a device too small to transpile
    // onto; that is a rejection, not an abort.
    let evaluator =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| factory.make(backend, seed)))
            .map_err(|_| reject(RejectionReason::TooSmall))?;
    let estimate = fidelity::p_correct(cal, &evaluator.circuit_stats());
    if estimate < min_fidelity {
        return Err(reject(RejectionReason::BelowMinFidelity { estimate }));
    }
    Ok(DeviceLane {
        calibration: cal.clone(),
        evaluator,
        p_correct: estimate,
    })
}

/// Builds the device ladder for a workload: one [`build_lane`] per device
/// (device `i` seeded `seed + 1009 i`), sorted ascending by fidelity
/// (exploration first, fine-tuning last).
///
/// Returns the ladder plus the rejected devices.
pub fn build_lanes<'a>(
    devices: impl IntoIterator<Item = &'a Calibration>,
    factory: &dyn EvaluatorFactory,
    min_fidelity: f64,
    seed: u64,
) -> (Vec<DeviceLane>, Vec<RejectedDevice>) {
    let mut lanes = Vec::new();
    let mut rejected = Vec::new();
    for (i, cal) in devices.into_iter().enumerate() {
        match build_lane(
            cal,
            factory,
            min_fidelity,
            seed.wrapping_add(i as u64 * 1009),
        ) {
            Ok(lane) => lanes.push(lane),
            Err(rejection) => rejected.push(rejection),
        }
    }
    lanes.sort_by(|a, b| {
        a.p_correct
            .partial_cmp(&b.p_correct)
            .expect("fidelities are finite")
    });
    (lanes, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoncord_device::catalog;
    use qoncord_vqa::graph::Graph;
    use qoncord_vqa::maxcut::MaxCut;

    fn factory(layers: usize) -> QaoaFactory {
        QaoaFactory {
            problem: MaxCut::new(Graph::paper_graph_7()),
            layers,
        }
    }

    #[test]
    fn lanes_sorted_ascending_by_fidelity() {
        let devices = vec![catalog::ibmq_kolkata(), catalog::ibmq_toronto()];
        let (lanes, rejected) = build_lanes(&devices, &factory(1), 0.0, 1);
        assert_eq!(lanes.len(), 2);
        assert!(rejected.is_empty());
        assert_eq!(lanes[0].calibration.name(), "ibmq_toronto");
        assert_eq!(lanes[1].calibration.name(), "ibmq_kolkata");
        assert!(lanes[0].p_correct <= lanes[1].p_correct);
    }

    #[test]
    fn min_fidelity_filter_drops_noisy_device_at_depth() {
        // With depth, Toronto's estimate collapses below the 0.1 threshold
        // (the paper's Fig. 8 observation) while Kolkata survives. Our
        // transpiled circuits are somewhat heavier than the paper's, so the
        // crossover lands at 2 layers instead of 3.
        let devices = vec![catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
        let (lanes, rejected) = build_lanes(&devices, &factory(2), 0.1, 1);
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].calibration.name(), "ibmq_kolkata");
        assert_eq!(rejected.len(), 1);
        assert!(matches!(
            rejected[0].reason,
            RejectionReason::BelowMinFidelity { .. }
        ));
    }

    #[test]
    fn too_small_devices_rejected() {
        // A 7-qubit problem cannot fit a 3-qubit hypothetical device.
        let small = catalog::hypothetical_depolarizing("tiny", 3, 0.001, 0.001);
        let devices = vec![small, catalog::ibmq_kolkata()];
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panic
        let (lanes, rejected) = build_lanes(&devices, &factory(1), 0.0, 1);
        std::panic::set_hook(prev);
        assert_eq!(lanes.len(), 1);
        assert_eq!(rejected[0].reason, RejectionReason::TooSmall);
    }

    #[test]
    fn rejection_reasons_display_cleanly() {
        let small = RejectedDevice {
            device: "tiny".into(),
            reason: RejectionReason::TooSmall,
        };
        assert_eq!(small.to_string(), "tiny: too few qubits for the workload");
        let noisy = RejectedDevice {
            device: "fuzzy".into(),
            reason: RejectionReason::BelowMinFidelity { estimate: 0.0421 },
        };
        assert_eq!(
            noisy.to_string(),
            "fuzzy: P_correct 0.0421 below the minimum fidelity threshold"
        );
    }

    #[test]
    fn closure_factory_works() {
        let problem = MaxCut::new(Graph::paper_graph_7());
        let f = move |backend: SimulatedBackend, seed: u64| -> Box<dyn CostEvaluator> {
            Box::new(qoncord_vqa::evaluator::QaoaEvaluator::new(
                &problem, 1, backend, seed,
            ))
        };
        let (lanes, _) = build_lanes(&[catalog::ibmq_kolkata()], &f, 0.0, 0);
        assert_eq!(lanes.len(), 1);
    }
}
