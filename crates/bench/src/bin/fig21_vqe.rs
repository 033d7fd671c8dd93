//! Fig. 21 — VQE on the hydrogen molecule (4-qubit UCCSD ansatz): the LF
//! device alone, the HF device alone, and Qoncord across both.
//!
//! At the default seed the table shows Qoncord's best energy within 0.30 %
//! of HF-only's (−0.91229 against −0.90953 Ha; the paper reports within
//! 0.3 %), both far above the exact −1.85105 Ha. It does not save
//! executions: each baseline stops at 225, while Qoncord runs 345, its 120
//! LF executions on top of the same 225 on the HF device.

use qoncord_bench::{fmt, print_table, write_csv, ExperimentArgs};
use qoncord_core::cluster::SelectionPolicy;
use qoncord_core::executor::VqeFactory;
use qoncord_core::scheduler::{run_single_device, QoncordConfig, QoncordScheduler};
use qoncord_device::catalog;
use qoncord_vqa::{uccsd, vqe};

fn main() {
    let args = ExperimentArgs::parse();
    let iterations = args.scale(30, 100);
    let restarts = args.restarts(1, 1);
    let hamiltonian = vqe::h2_hamiltonian();
    let ansatz = uccsd::uccsd_h2_ansatz(vqe::h2_hartree_fock_state());
    let factory = VqeFactory {
        hamiltonian: hamiltonian.clone(),
        ansatz,
    };
    let lf = catalog::ibmq_toronto();
    let hf = catalog::ibmq_kolkata();
    let ground = vqe::h2_ground_energy();
    println!(
        "Fig. 21: 4q H2 UCCSD VQE (exact ground energy {:.5} Ha)\n",
        ground
    );
    let lf_rep = run_single_device(&lf, &factory, restarts, iterations, args.seed);
    let hf_rep = run_single_device(&hf, &factory, restarts, iterations, args.seed);
    let config = QoncordConfig {
        exploration_max_iterations: iterations / 2,
        finetune_max_iterations: iterations / 2,
        min_fidelity: 0.0,
        selection: SelectionPolicy::All,
        seed: args.seed,
        ..QoncordConfig::default()
    };
    let q = QoncordScheduler::new(config)
        .run(&[lf, hf], &factory, restarts)
        .expect("devices viable");
    let rows: Vec<Vec<String>> = [("LF only", &lf_rep), ("HF only", &hf_rep), ("Qoncord", &q)]
        .iter()
        .map(|(label, r)| {
            vec![
                label.to_string(),
                fmt(r.best_expectation(), 5),
                fmt(r.best_approximation_ratio(), 4),
                r.total_executions().to_string(),
            ]
        })
        .collect();
    print_table(
        &["Mode", "best energy (Ha)", "approx ratio", "executions"],
        &rows,
    );
    let hf_energy = hf_rep.best_expectation();
    let gap_pct = ((q.best_expectation() - hf_energy) / hf_energy.abs()).abs() * 100.0;
    println!("\nQoncord energy within {gap_pct:.2}% of HF-only (paper: within 0.3%)");
    let device_execs: String = q
        .devices
        .iter()
        .map(|d| format!("{}: {}", d.device, d.executions))
        .collect::<Vec<_>>()
        .join("  ");
    println!("Qoncord per-device executions: {device_execs}");
    write_csv(
        "fig21_vqe.csv",
        &["mode", "best_energy", "approx_ratio", "executions"],
        &rows,
    );
}
