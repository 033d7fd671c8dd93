//! Device lanes: the pairing of a calibration, a workload evaluator, and a
//! P_correct estimate that the scheduler's device ladder is built from.

use qoncord_circuit::coupling::CouplingMap;
use qoncord_circuit::transpile::CircuitStats;
use qoncord_device::calibration::Calibration;
use qoncord_device::fidelity;
use qoncord_device::noise_model::SimulatedBackend;
use qoncord_vqa::evaluator::{CostEvaluator, RoutedWorkload};
use std::fmt;

/// Builds a workload evaluator bound to a specific backend.
///
/// Implemented by the QAOA and VQE factories below and by any
/// `Fn(SimulatedBackend, u64) -> Box<dyn CostEvaluator>` closure.
pub trait EvaluatorFactory {
    /// Creates an evaluator running on `backend`, seeded with `seed`.
    fn make(&self, backend: SimulatedBackend, seed: u64) -> Box<dyn CostEvaluator>;

    /// Routes the workload onto `coupling` once for every device of a ladder
    /// that has that map: the footprint the fidelity filter reads, and what
    /// each rung it keeps binds ([`RoutedWorkload::bind`]). A binding must be
    /// bit for bit what [`make`](Self::make) builds on that device.
    ///
    /// `Err(TooSmall)` when the workload's register does not fit the map.
    /// `None`, the default, for a factory that only makes evaluators: its
    /// ladder calls `make` on every device instead.
    fn route(&self, _coupling: &CouplingMap) -> Option<Result<RoutedWorkload, RejectionReason>> {
        None
    }
}

impl<F> EvaluatorFactory for F
where
    F: Fn(SimulatedBackend, u64) -> Box<dyn CostEvaluator>,
{
    fn make(&self, backend: SimulatedBackend, seed: u64) -> Box<dyn CostEvaluator> {
        self(backend, seed)
    }
}

/// The route of an `n_qubits` workload onto `coupling`, or `TooSmall` when
/// the register does not fit.
fn fitted(
    n_qubits: usize,
    coupling: &CouplingMap,
    route: impl FnOnce() -> RoutedWorkload,
) -> Option<Result<RoutedWorkload, RejectionReason>> {
    Some(if coupling.n_qubits() < n_qubits {
        Err(RejectionReason::TooSmall)
    } else {
        Ok(route())
    })
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

    fn route(&self, coupling: &CouplingMap) -> Option<Result<RoutedWorkload, RejectionReason>> {
        fitted(self.problem.n_qubits(), coupling, || {
            RoutedWorkload::qaoa(&self.problem, self.layers, coupling)
        })
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

    fn route(&self, coupling: &CouplingMap) -> Option<Result<RoutedWorkload, RejectionReason>> {
        fitted(self.ansatz.n_qubits(), coupling, || {
            RoutedWorkload::vqe(&self.hamiltonian, &self.ansatz, coupling)
        })
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

/// Binds the workload on each `(device, seed)` in turn, lazily: each item
/// is the device's rung, or why the device was rejected (too small, or an
/// estimate below `min_fidelity`). What [`build_lanes`] builds a ladder
/// from, and what binds the same-tier twins of a ladder's rungs.
///
/// A factory that routes ([`EvaluatorFactory::route`]) is routed once per
/// distinct coupling map among the devices; the filter reads that footprint
/// and only the devices it keeps are bound. The routes live as long as the
/// iterator. Any other factory makes an evaluator on every device and is
/// filtered on it; a panic while making one rejects the device as too
/// small.
pub fn bind_rungs<'a, I>(
    rungs: I,
    factory: &'a dyn EvaluatorFactory,
    min_fidelity: f64,
) -> impl Iterator<Item = Result<DeviceLane, RejectedDevice>> + 'a
where
    I: IntoIterator<Item = (&'a Calibration, u64)>,
    I::IntoIter: 'a,
{
    let mut routes: Vec<(&CouplingMap, Result<RoutedWorkload, RejectionReason>)> = Vec::new();
    rungs.into_iter().map(move |(cal, seed)| {
        let coupling = cal.coupling();
        let k = match routes.iter().position(|(map, _)| *map == coupling) {
            Some(k) => k,
            None => match factory.route(coupling) {
                Some(routed) => {
                    routes.push((coupling, routed));
                    routes.len() - 1
                }
                None => return make_lane(cal, factory, min_fidelity, seed),
            },
        };
        let routed = routes[k].1.as_ref().map_err(|&r| rejection(cal, r))?;
        let p_correct = filter(cal, &routed.circuit_stats(), min_fidelity)?;
        let backend = SimulatedBackend::from_calibration(cal.clone());
        Ok(DeviceLane {
            calibration: cal.clone(),
            evaluator: routed.bind(backend, seed),
            p_correct,
        })
    })
}

/// A rung of a factory that does not route: makes the evaluator on the
/// device, then filters on its footprint.
fn make_lane(
    cal: &Calibration,
    factory: &dyn EvaluatorFactory,
    min_fidelity: f64,
    seed: u64,
) -> Result<DeviceLane, RejectedDevice> {
    let backend = SimulatedBackend::from_calibration(cal.clone());
    // Evaluator construction panics on a device too small to transpile
    // onto; that is a rejection, not an abort.
    let evaluator =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| factory.make(backend, seed)))
            .map_err(|_| rejection(cal, RejectionReason::TooSmall))?;
    let p_correct = filter(cal, &evaluator.circuit_stats(), min_fidelity)?;
    Ok(DeviceLane {
        calibration: cal.clone(),
        evaluator,
        p_correct,
    })
}

/// The Eq. 1 estimate of a workload with footprint `stats` on `cal`, or
/// the rejection when it falls below `min_fidelity`.
fn filter(
    cal: &Calibration,
    stats: &CircuitStats,
    min_fidelity: f64,
) -> Result<f64, RejectedDevice> {
    let estimate = fidelity::p_correct(cal, stats);
    if estimate < min_fidelity {
        return Err(rejection(
            cal,
            RejectionReason::BelowMinFidelity { estimate },
        ));
    }
    Ok(estimate)
}

fn rejection(cal: &Calibration, reason: RejectionReason) -> RejectedDevice {
    RejectedDevice {
        device: cal.name().to_owned(),
        reason,
    }
}

/// Builds the device ladder for a workload: [`bind_rungs`] over the devices
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
    let rungs = devices
        .into_iter()
        .enumerate()
        .map(|(i, cal)| (cal, seed.wrapping_add(i as u64 * 1009)));
    let mut lanes = Vec::new();
    let mut rejected = Vec::new();
    for rung in bind_rungs(rungs, factory, min_fidelity) {
        match rung {
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
        // A 7-qubit problem cannot fit a 3-qubit hypothetical device; the
        // route says so as a value, nothing panics.
        let small = catalog::hypothetical_depolarizing("tiny", 3, 0.001, 0.001);
        let devices = vec![small, catalog::ibmq_kolkata()];
        let (lanes, rejected) = build_lanes(&devices, &factory(1), 0.0, 1);
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
