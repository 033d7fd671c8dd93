//! Domain example: VQE ground-state search for molecular hydrogen with the
//! UCCSD ansatz (the paper's Sec. VI-F workload), run across the LF/HF
//! device pair under Qoncord.
//!
//! Run with: `cargo run --release --example vqe_h2`

use qoncord::core::cluster::SelectionPolicy;
use qoncord::core::executor::VqeFactory;
use qoncord::core::scheduler::{run_single_device, QoncordConfig, QoncordScheduler};
use qoncord::device::catalog;
use qoncord::device::noise_model::SimulatedBackend;
use qoncord::vqa::evaluator::VqeEvaluator;
use qoncord::vqa::{uccsd, vqe};

fn main() {
    let hamiltonian = vqe::h2_hamiltonian();
    let ground = vqe::h2_ground_energy();
    let hf_state = vqe::h2_hartree_fock_state();
    println!("H2 / STO-3G, Jordan-Wigner, 4 qubits");
    println!("exact ground energy: {ground:.5} Ha");
    println!("Hartree-Fock determinant: |{hf_state:04b}>");

    let ansatz = uccsd::uccsd_h2_ansatz(hf_state);
    let factory = VqeFactory {
        hamiltonian: hamiltonian.clone(),
        ansatz,
    };
    // One evaluation charges the device an execution per measurement group;
    // the host simulates the gates the routed group circuits share once.
    let evaluator = VqeEvaluator::new(
        &hamiltonian,
        &factory.ansatz,
        SimulatedBackend::from_calibration(catalog::ibmq_toronto()),
        0,
    );
    let shared = evaluator
        .fork_stats()
        .expect("a 4-qubit run is a density program");
    let own: usize = shared.branch_sweeps.iter().sum();
    println!(
        "{} measurement groups share {} gates: {} sweeps once + {} of their own ({} tiles for {} apart)",
        evaluator.n_groups(),
        evaluator.shared_gates(),
        shared.trunk_sweeps,
        own,
        shared.tiles_visited,
        shared.tiles_unforked
    );

    let iterations = 40;
    for (label, cal) in [
        ("LF (toronto)", catalog::ibmq_toronto()),
        ("HF (kolkata)", catalog::ibmq_kolkata()),
    ] {
        let report = run_single_device(&cal, &factory, 1, iterations, 11);
        println!(
            "{label:14} energy {:.5} Ha  (ratio {:.4}, {} executions)",
            report.best_expectation(),
            report.best_approximation_ratio(),
            report.total_executions()
        );
    }
    let config = QoncordConfig {
        exploration_max_iterations: iterations / 2,
        finetune_max_iterations: iterations / 2,
        min_fidelity: 0.0,
        selection: SelectionPolicy::All,
        seed: 11,
        ..QoncordConfig::default()
    };
    let report = QoncordScheduler::new(config)
        .run(
            &[catalog::ibmq_toronto(), catalog::ibmq_kolkata()],
            &factory,
            1,
        )
        .expect("viable devices");
    println!(
        "{:14} energy {:.5} Ha  (ratio {:.4}, {} executions)",
        "Qoncord",
        report.best_expectation(),
        report.best_approximation_ratio(),
        report.total_executions()
    );
}
