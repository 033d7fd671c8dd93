//! A ladder built through routing ([`EvaluatorFactory::route`]: one route
//! per coupling map, the fidelity filter on that footprint, a bind on each
//! kept rung) is bit for bit the ladder that making an evaluator on every
//! device builds, and it transpiles and compiles less.

use qoncord_core::executor::{build_lanes, DeviceLane, EvaluatorFactory, RejectedDevice};
use qoncord_core::executor::{QaoaFactory, RejectionReason, VqeFactory};
use qoncord_core::prof::Profiler;
use qoncord_device::calibration::Calibration;
use qoncord_device::catalog;
use qoncord_device::noise_model::SimulatedBackend;
use qoncord_vqa::evaluator::CostEvaluator;
use qoncord_vqa::graph::Graph;
use qoncord_vqa::maxcut::MaxCut;
use qoncord_vqa::{uccsd, vqe};

/// A factory stripped to `make`: its ladder makes an evaluator per device.
struct PerDevice<'a>(&'a dyn EvaluatorFactory);

impl EvaluatorFactory for PerDevice<'_> {
    fn make(&self, backend: SimulatedBackend, seed: u64) -> Box<dyn CostEvaluator> {
        self.0.make(backend, seed)
    }
}

fn qaoa(graph: Graph) -> QaoaFactory {
    QaoaFactory {
        problem: MaxCut::new(graph),
        layers: 1,
    }
}

fn h2() -> VqeFactory {
    VqeFactory {
        hamiltonian: vqe::h2_hamiltonian(),
        ansatz: uccsd::uccsd_h2_ansatz(vqe::h2_hartree_fock_state()),
    }
}

fn rejected_bits(rejected: &[RejectedDevice]) -> Vec<(String, Option<u64>)> {
    rejected
        .iter()
        .map(|r| {
            let estimate = match r.reason {
                RejectionReason::TooSmall => None,
                RejectionReason::BelowMinFidelity { estimate } => Some(estimate.to_bits()),
            };
            (r.device.clone(), estimate)
        })
        .collect()
}

/// Everything a rung reports, to the bit, then three evaluations of it.
fn lane_bits(lane: &mut DeviceLane) -> Vec<u64> {
    let eval = &mut lane.evaluator;
    let stats = eval.circuit_stats();
    let mut bits = vec![
        lane.p_correct.to_bits(),
        eval.ground_energy().to_bits(),
        eval.n_params() as u64,
        (stats.n_1q + 1000 * stats.n_2q + 1_000_000 * stats.depth) as u64,
    ];
    for k in 0..3 {
        let params: Vec<f64> = (0..eval.n_params())
            .map(|j| 0.3 + 0.7 * k as f64 - 0.45 * j as f64)
            .collect();
        let e = eval.evaluate(&params);
        bits.extend([e.expectation.to_bits(), e.entropy.to_bits()]);
        bits.extend(e.dist.probabilities().iter().map(|p| p.to_bits()));
    }
    bits.push(eval.executions());
    bits
}

/// Builds the ladder both ways and asserts they agree to the bit; returns
/// the routed ladder's device order and rejections.
fn assert_routed_is_per_device(
    devices: &[Calibration],
    factory: &dyn EvaluatorFactory,
    min_fidelity: f64,
) -> (Vec<String>, Vec<RejectedDevice>) {
    let (mut routed, routed_rejected) = build_lanes(devices, factory, min_fidelity, 11);
    let (mut made, made_rejected) = build_lanes(devices, &PerDevice(factory), min_fidelity, 11);
    assert_eq!(
        rejected_bits(&routed_rejected),
        rejected_bits(&made_rejected)
    );
    let names = |lanes: &[DeviceLane]| -> Vec<String> {
        lanes
            .iter()
            .map(|l| l.calibration.name().to_owned())
            .collect()
    };
    assert_eq!(names(&routed), names(&made));
    for (r, m) in routed.iter_mut().zip(&mut made) {
        let name = r.calibration.name().to_owned();
        assert_eq!(lane_bits(r), lane_bits(m), "{name}");
    }
    (names(&routed), routed_rejected)
}

#[test]
fn routed_qaoa_7_ladder_on_density_is_bitwise_the_per_device_ladder() {
    let devices = [catalog::ibmq_kolkata(), catalog::ibmq_toronto()];
    let (names, rejected) =
        assert_routed_is_per_device(&devices, &qaoa(Graph::paper_graph_7()), 0.1);
    assert_eq!(names, ["ibmq_toronto", "ibmq_kolkata"]);
    assert!(rejected.is_empty());
}

#[test]
fn routed_qaoa_9_ladder_on_trajectories_is_bitwise_the_per_device_ladder() {
    let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
    let (names, _) = assert_routed_is_per_device(&devices, &qaoa(Graph::paper_graph_9()), 0.0);
    assert_eq!(names, ["ibmq_toronto", "ibmq_kolkata"]);
}

/// At the paper's 0.1 floor Toronto is filtered off the H2 ladder on the
/// routed footprint, never bound; at 0 both rungs are bound from one route.
#[test]
fn routed_h2_ladder_is_bitwise_the_per_device_ladder_at_both_floors() {
    let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
    let (names, rejected) = assert_routed_is_per_device(&devices, &h2(), 0.1);
    assert_eq!(names, ["ibmq_kolkata"]);
    assert_eq!(rejected.len(), 1);
    assert_eq!(rejected[0].device, "ibmq_toronto");
    let (names, rejected) = assert_routed_is_per_device(&devices, &h2(), 0.0);
    assert_eq!(names, ["ibmq_toronto", "ibmq_kolkata"]);
    assert!(rejected.is_empty());
}

/// The routed path rejects a device the register does not fit as a value;
/// making evaluators per device panics there and catches it. Both reject
/// only Nairobi.
#[test]
fn a_device_too_small_for_the_register_is_rejected_alone_on_both_paths() {
    let devices = [catalog::ibm_nairobi(), catalog::ibmq_kolkata()];
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the per-device panic
    let (names, rejected) =
        assert_routed_is_per_device(&devices, &qaoa(Graph::paper_graph_9()), 0.0);
    std::panic::set_hook(prev);
    assert_eq!(names, ["ibmq_kolkata"]);
    assert_eq!(
        rejected,
        [RejectedDevice {
            device: "ibm_nairobi".into(),
            reason: RejectionReason::TooSmall,
        }]
    );
}

/// `(circuit::transpile, sim::dm::plan)` spans while building the ladder.
fn work(devices: &[Calibration], factory: &dyn EvaluatorFactory) -> (u64, u64) {
    let profiler = Profiler::new();
    {
        let _installed = profiler.install();
        build_lanes(devices, factory, 0.1, 0);
    }
    let report = profiler.report();
    let count = |label: &str| -> u64 {
        let entries = report.entries.iter().filter(|e| e.label() == label);
        entries.map(|e| e.count).sum()
    };
    (count("circuit::transpile"), count("sim::dm::plan"))
}

/// Toronto and Kolkata share `falcon_27`: the H2 ladder routes its five
/// group circuits once and compiles only Kolkata's program; QAOA-7 routes
/// once and compiles both rungs, and Guadalupe's map is one route more.
#[test]
fn a_ladder_routes_once_per_coupling_map_and_compiles_only_kept_rungs() {
    let devices = [catalog::ibmq_toronto(), catalog::ibmq_kolkata()];
    assert_eq!(work(&devices, &h2()), (5, 1));
    assert_eq!(work(&devices, &PerDevice(&h2())), (10, 2));
    let qaoa_7 = qaoa(Graph::paper_graph_7());
    assert_eq!(work(&devices, &qaoa_7), (1, 2));
    assert_eq!(work(&devices, &PerDevice(&qaoa_7)), (2, 2));
    let three = [
        catalog::ibmq_toronto(),
        catalog::ibmq_guadalupe(),
        catalog::ibmq_kolkata(),
    ];
    assert_eq!(work(&three, &qaoa_7), (2, 3));
    assert_routed_is_per_device(&three, &qaoa_7, 0.1);
}
