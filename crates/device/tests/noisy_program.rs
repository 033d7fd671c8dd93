//! The fused noisy density path against the seed's op-at-a-time path, on
//! the circuits real jobs run: the transpiled 7-qubit QAOA and every H2
//! measurement-group circuit, on both devices of the reference fleet. The
//! light-cone read-out those runs take is pinned bitwise to the full-ρ run
//! it is a subset of, and its tile count to the number the docs quote; the
//! prepared, forked run of the H2 groups is pinned bitwise to the runs one
//! by one.

mod common;

use common::as_run_reports;
use qoncord_circuit::transpile::{transpile, TranspiledCircuit};
use qoncord_device::calibration::Calibration;
use qoncord_device::catalog;
use qoncord_device::noise_model::{BackendKind, NoiseModel, SimulatedBackend};
use qoncord_sim::density::{evolve_unfused, DensityMatrix};
use qoncord_sim::dist::ProbDist;
use qoncord_sim::noisy::{DensityProgram, DensityStats, ForkStats};
use qoncord_vqa::graph::Graph;
use qoncord_vqa::{qaoa, uccsd, vqe};

/// The QAOA circuit and the H2 ansatz extended by each measurement group's
/// basis rotation, transpiled for `cal`.
fn job_circuits(cal: &Calibration) -> Vec<TranspiledCircuit> {
    let mut circuits = vec![qaoa::build_circuit(&Graph::paper_graph_7(), 1)];
    let hamiltonian = vqe::h2_hamiltonian();
    let ansatz = uccsd::uccsd_h2_ansatz(vqe::h2_hartree_fock_state());
    for group in hamiltonian.qubit_wise_commuting_groups() {
        let mut circuit = ansatz.clone();
        circuit.extend(&hamiltonian.group_rotation(&group));
        circuits.push(circuit);
    }
    assert!(circuits.len() > 2, "H2 has several measurement groups");
    circuits
        .iter()
        .map(|c| transpile(c, cal.coupling()))
        .collect()
}

fn params_for(t: &TranspiledCircuit) -> Vec<f64> {
    (0..t.circuit.n_params())
        .map(|i| 0.35 + 0.1 * i as f64)
        .collect()
}

fn max_abs_diff(a: &ProbDist, b: &ProbDist) -> f64 {
    a.probabilities()
        .iter()
        .zip(b.probabilities())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// What a density run of `t` on `backend` returns on the seed path: one
/// gate sweep and one depolarizing sweep per op, then the same read-out.
fn seed_run(backend: &SimulatedBackend, t: &TranspiledCircuit, params: &[f64]) -> ProbDist {
    let noise = backend.noise();
    let mut rho = DensityMatrix::zero_state(t.circuit.n_qubits());
    let ops = t.circuit.bind_ops(params);
    evolve_unfused(&mut rho, &ops, noise.dep_1q, noise.dep_2q);
    as_run_reports(backend, t, rho.probabilities())
}

/// Runs every job circuit on `backend`, fused and as the seed would.
fn assert_fused_matches_seed(backend: &SimulatedBackend, what: &str) {
    for (i, t) in job_circuits(backend.calibration()).iter().enumerate() {
        let params = params_for(t);
        let fused = backend.run(t, &params, 0);
        let seed = seed_run(backend, t, &params);
        let d = max_abs_diff(&fused, &seed);
        assert!(
            d <= 1e-12,
            "{what}, circuit {i}: fused vs seed differ by {d}"
        );
    }
}

#[test]
fn fused_density_run_matches_the_seed_path_on_job_circuits() {
    for cal in [catalog::ibmq_toronto(), catalog::ibmq_kolkata()] {
        let name = cal.name().to_owned();
        let backend = SimulatedBackend::from_calibration(cal).with_kind(BackendKind::DensityMatrix);
        assert_fused_matches_seed(&backend, &name);
    }
}

/// The program `backend` compiles for `t`, its parametric gates marked.
fn program_for(backend: &SimulatedBackend, t: &TranspiledCircuit) -> DensityProgram {
    let noise = backend.noise();
    let params = params_for(t);
    let gates = t.circuit.gates().iter();
    let ops = gates.map(|g| (g.bind_op(&params), g.is_parametric()));
    DensityProgram::compile_parametric(t.circuit.n_qubits(), ops, noise.dep_1q, noise.dep_2q)
}

/// Skipping the tiles outside each sweep's light cone changes no bit of any
/// outcome probability a job reads.
#[test]
fn windowed_outcome_is_bitwise_the_full_runs_diagonal_on_job_circuits() {
    for cal in [catalog::ibmq_toronto(), catalog::ibmq_kolkata()] {
        let backend = SimulatedBackend::from_calibration(cal);
        for (i, t) in job_circuits(backend.calibration()).iter().enumerate() {
            let program = program_for(&backend, t);
            let mut full = DensityMatrix::zero_state(t.circuit.n_qubits());
            program.run(&mut full);
            assert_eq!(
                bits(&program.outcome_probabilities()),
                bits(&full.probabilities()),
                "{}, circuit {i}",
                backend.calibration().name()
            );
        }
    }
}

/// The 7-qubit QAOA routes to the same 16 blocks on both fleet devices;
/// in light-cone order the read-out visits 1, 4, 64 × 4, 256 × 3, 128, 64,
/// 64, 32, 64, 64 and 32 of each block's 1024 tiles. Its 18 parametric
/// gates sit in 11 of the 16 blocks, which is all an evaluation
/// recomputes; the prepared executable runs the same program.
#[test]
fn qaoa_readout_visits_1477_of_16384_tiles() {
    for cal in [catalog::ibmq_toronto(), catalog::ibmq_kolkata()] {
        let backend = SimulatedBackend::from_calibration(cal);
        let qaoa = &job_circuits(backend.calibration())[0];
        let name = backend.calibration().name();
        assert_eq!(
            qaoa.circuit
                .gates()
                .iter()
                .filter(|g| g.is_parametric())
                .count(),
            18,
            "{name}"
        );
        assert_eq!(
            program_for(&backend, qaoa).stats(),
            DensityStats {
                sweeps: 16,
                tiles_full: 16_384,
                tiles_visited: 1477,
                steps_rebound: 11,
            },
            "{name}"
        );
        let prepared = backend.prepare(std::slice::from_ref(qaoa), qaoa.circuit.len());
        assert_eq!(
            prepared.fork_stats(),
            Some(ForkStats {
                trunk_sweeps: 16,
                branch_sweeps: vec![0],
                tiles_visited: 1477,
                tiles_unforked: 1477,
                steps_rebound: 11,
            }),
            "{name}"
        );
    }
}

/// `NoiseModel::scaled` clamps rates to 1: survival 0 must be an ordinary
/// input, for either rate alone and for both.
#[test]
fn fully_depolarizing_and_zero_rates_match_the_seed_path() {
    let cal = catalog::ibmq_toronto();
    let calibrated = NoiseModel::from_calibration(&cal);
    let saturated = calibrated.scaled(1e9, 1.0);
    assert_eq!((saturated.dep_1q, saturated.dep_2q), (1.0, 1.0));
    for (dep_1q, dep_2q) in [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)] {
        let noise = NoiseModel {
            dep_1q,
            dep_2q,
            ..calibrated
        };
        let backend = SimulatedBackend::from_calibration(cal.clone())
            .with_kind(BackendKind::DensityMatrix)
            .with_noise(noise);
        assert_fused_matches_seed(&backend, &format!("rates ({dep_1q}, {dep_2q})"));
    }
}

#[test]
fn density_backend_with_ideal_noise_equals_the_ideal_run() {
    let cal = catalog::ibmq_kolkata();
    let ideal = SimulatedBackend::ideal(cal.clone());
    let density = SimulatedBackend::ideal(cal).with_kind(BackendKind::DensityMatrix);
    assert!(density.noise().is_ideal());
    for (i, t) in job_circuits(ideal.calibration()).iter().enumerate() {
        let params = params_for(t);
        let d = max_abs_diff(&density.run(t, &params, 0), &ideal.run(t, &params, 0));
        assert!(
            d <= 1e-12,
            "circuit {i}: density vs statevector differ by {d}"
        );
    }
}

/// The H2 measurement-group circuits of [`job_circuits`] and the length of
/// the gate prefix they share.
fn h2_groups(cal: &Calibration) -> (Vec<TranspiledCircuit>, usize) {
    let groups = job_circuits(cal).split_off(1);
    let shared = groups
        .iter()
        .map(|t| groups[0].circuit.shared_prefix(&t.circuit))
        .min()
        .expect("H2 has groups");
    (groups, shared)
}

fn bits(d: &ProbDist) -> Vec<u64> {
    d.probabilities().iter().map(|p| p.to_bits()).collect()
}

/// One forked run of the prepared H2 groups returns, bit for bit, what five
/// runs of the circuits one by one return, so it stays in their ≤ 1e-12 tier
/// of the seed path. The groups are prepared once and re-bound per point.
#[test]
fn forked_run_is_bitwise_the_runs_one_by_one_on_h2_groups() {
    for cal in [catalog::ibmq_toronto(), catalog::ibmq_kolkata()] {
        let backend = SimulatedBackend::from_calibration(cal);
        let (groups, shared) = h2_groups(backend.calibration());
        let mut prepared = backend.prepare(&groups, shared);
        for params in [[0.0; 3], [0.35, 0.45, 0.55], [-2.9, 1.7, 0.004]] {
            let forked = prepared.run(&params, 11);
            assert_eq!(forked.len(), groups.len());
            for (g, t) in groups.iter().enumerate() {
                let alone = backend.run(t, &params, 11 + g as u64);
                let what = format!("{}, {params:?}, group {g}", backend.calibration().name());
                assert_eq!(bits(&forked[g]), bits(&alone), "{what}");
                let d = max_abs_diff(&forked[g], &seed_run(&backend, t, &params));
                assert!(d <= 1e-12, "{what}: forked vs seed differ by {d}");
            }
        }
    }
}

/// Shorter claims about the shared prefix are as good as the longest, and a
/// trajectory backend falls back to one run per circuit at seeds `seed + g`.
#[test]
fn forked_run_holds_at_any_shared_length_and_on_the_trajectory_fallback() {
    let cal = catalog::ibmq_toronto();
    let backend = SimulatedBackend::from_calibration(cal.clone());
    let (groups, shared) = h2_groups(&cal);
    let params = [0.35, 0.45, 0.55];
    let longest = backend.prepare(&groups, shared).run(&params, 0);
    for shorter in [0, 1, shared / 2, shared - 1] {
        assert_eq!(backend.prepare(&groups, shorter).run(&params, 0), longest);
    }
    let trajectories = backend.with_kind(BackendKind::Trajectory { n_trajectories: 8 });
    let forked = trajectories.prepare(&groups, shared).run(&params, 40);
    for (g, t) in groups.iter().enumerate() {
        assert_eq!(forked[g], trajectories.run(t, &params, 40 + g as u64));
    }
    assert!(trajectories.prepare(&[], 0).run(&[], 0).is_empty());
}

/// That the circuits share their first `shared_gates` gates is checked once,
/// when they are prepared, in every build profile.
#[test]
#[should_panic(expected = "differ within their shared gates")]
fn preparing_circuits_that_differ_within_their_shared_gates_fails_closed() {
    let cal = catalog::ibmq_toronto();
    let (groups, shared) = h2_groups(&cal);
    SimulatedBackend::from_calibration(cal).prepare(&groups, shared + 1);
}

/// `transpile` is pinned gate for gate on the job circuits (FNV-1a of each
/// circuit's `Debug` text, the same on both devices): a faster pass must
/// emit the circuit the slower one did, angles to the last bit.
#[test]
fn transpiled_job_circuits_are_pinned() {
    let pinned: [(usize, u64); 6] = [
        (107, 0x35784b705d08164e),
        (427, 0x6533d265754c005a),
        (437, 0xe56b46928e70f6d0),
        (437, 0xa7c42c977c0ddbb9),
        (436, 0x5208c35846ef080b),
        (437, 0x1ddaa64bdbb381f9),
    ];
    for cal in [catalog::ibmq_toronto(), catalog::ibmq_kolkata()] {
        let found: Vec<(usize, u64)> = job_circuits(&cal)
            .iter()
            .map(|t| {
                let fnv = format!("{:?}", t.circuit)
                    .bytes()
                    .fold(0xcbf29ce484222325u64, |h, b| {
                        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
                    });
                (t.circuit.len(), fnv)
            })
            .collect();
        assert_eq!(found, pinned, "{}", cal.name());
    }
}
