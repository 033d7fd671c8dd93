//! Cost evaluators: the bridge between a VQA workload and a (simulated)
//! quantum device, with the execution accounting the paper's overhead
//! figures report.
//!
//! Every evaluation returns both the expectation value *and* the Shannon
//! entropy of the outcome distribution — the two signals Qoncord's adaptive
//! convergence checker watches (Sec. IV-F).

use crate::maxcut::MaxCut;
use crate::pauli::PauliSum;
use crate::qaoa;
use qoncord_circuit::circuit::Circuit;
use qoncord_circuit::coupling::CouplingMap;
use qoncord_circuit::transpile::{transpile, CircuitStats, TranspiledCircuit};
use qoncord_device::noise_model::{Executable, SimulatedBackend};
use qoncord_sim::dist::ProbDist;
use qoncord_sim::noisy::ForkStats;

/// One objective evaluation's full result.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Expectation value of the cost observable (to minimize).
    pub expectation: f64,
    /// Shannon entropy of the outcome distribution, in bits.
    pub entropy: f64,
    /// The outcome distribution over logical qubits.
    pub dist: ProbDist,
}

/// A stateful objective bound to one device; counts circuit executions.
///
/// `Send` is a supertrait so boxed evaluators (and the job runners built
/// around them) can cross threads. Evaluators are plain owned state, so
/// this costs implementors nothing.
pub trait CostEvaluator: Send {
    /// Number of trainable parameters.
    fn n_params(&self) -> usize;

    /// Runs the circuit(s) at `params` and returns the evaluation.
    fn evaluate(&mut self, params: &[f64]) -> Evaluation;

    /// Total circuit executions so far on this device.
    fn executions(&self) -> u64;

    /// Name of the backing device.
    fn device_name(&self) -> String;

    /// Ground-truth minimum of the observable (for approximation ratios).
    fn ground_energy(&self) -> f64;

    /// Transpiled-circuit statistics (for P_correct and latency estimates).
    fn circuit_stats(&self) -> CircuitStats;
}

/// Evaluator for diagonal cost Hamiltonians (QAOA / Max-Cut).
///
/// # Examples
///
/// ```
/// use qoncord_vqa::evaluator::{CostEvaluator, QaoaEvaluator};
/// use qoncord_vqa::{graph::Graph, maxcut::MaxCut};
/// use qoncord_device::catalog;
/// use qoncord_device::noise_model::SimulatedBackend;
///
/// let problem = MaxCut::new(Graph::paper_graph_7());
/// let backend = SimulatedBackend::from_calibration(catalog::ibmq_toronto());
/// let mut eval = QaoaEvaluator::new(&problem, 1, backend, 7);
/// let e = eval.evaluate(&[0.4, 0.3]);
/// assert!(e.expectation < 0.0);
/// assert_eq!(eval.executions(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct QaoaEvaluator {
    problem: MaxCut,
    /// The transpiled circuit, prepared for its backend.
    executable: Executable,
    stats: CircuitStats,
    diagonal: Vec<f64>,
    ground: f64,
    executions: u64,
    seed: u64,
}

impl QaoaEvaluator {
    /// Builds the `layers`-deep QAOA evaluator for `problem` on `backend`:
    /// routes it onto the backend's coupling map, then binds it there.
    /// `seed` drives trajectory noise.
    ///
    /// # Panics
    ///
    /// Panics if the device has fewer qubits than the problem.
    pub fn new(problem: &MaxCut, layers: usize, backend: SimulatedBackend, seed: u64) -> Self {
        QaoaRoute::new(problem, layers, backend.calibration().coupling()).bind(backend, seed)
    }

    /// The underlying Max-Cut problem.
    pub fn problem(&self) -> &MaxCut {
        &self.problem
    }

    /// The backing simulated device.
    pub fn backend(&self) -> &SimulatedBackend {
        self.executable.backend()
    }
}

impl CostEvaluator for QaoaEvaluator {
    fn n_params(&self) -> usize {
        self.executable.n_params()
    }

    fn evaluate(&mut self, params: &[f64]) -> Evaluation {
        let _prof = qoncord_prof::span("vqa::eval::qaoa");
        self.executions += 1;
        self.seed = self.seed.wrapping_add(1);
        let dist = self.executable.run(params, self.seed).swap_remove(0);
        Evaluation {
            expectation: dist.expectation_diagonal(&self.diagonal),
            entropy: dist.shannon_entropy(),
            dist,
        }
    }

    fn executions(&self) -> u64 {
        self.executions
    }

    fn device_name(&self) -> String {
        self.backend().calibration().name().to_owned()
    }

    fn ground_energy(&self) -> f64 {
        self.ground
    }

    fn circuit_stats(&self) -> CircuitStats {
        self.stats
    }
}

/// Evaluator for general Pauli-sum observables (VQE): one circuit execution
/// per qubit-wise-commuting measurement group per evaluation.
///
/// The device is charged those [`VqeEvaluator::n_groups`] executions; the
/// host simulates the gates the group circuits share — the ansatz, up to
/// where routing lets a group's basis rotation in — once per evaluation
/// (an [`Executable`] over all the group circuits).
#[derive(Debug, Clone)]
pub struct VqeEvaluator {
    hamiltonian: PauliSum,
    /// Per group, the member term indices.
    members: Vec<Vec<usize>>,
    /// Per group, the transpiled ansatz+rotation, prepared for the backend.
    executable: Executable,
    /// Length of the gate prefix all the group circuits share.
    shared_gates: usize,
    /// Stats of the largest group circuit.
    stats: CircuitStats,
    offset: f64,
    ground: f64,
    executions: u64,
    seed: u64,
}

impl VqeEvaluator {
    /// Builds a VQE evaluator for `hamiltonian` with the given ansatz on
    /// `backend`: routes it onto the backend's coupling map, then binds it
    /// there.
    ///
    /// # Panics
    ///
    /// Panics if the ansatz register mismatches the Hamiltonian, the
    /// Hamiltonian has no term to measure (identity terms only), or the
    /// device has fewer qubits than the ansatz.
    pub fn new(
        hamiltonian: &PauliSum,
        ansatz: &Circuit,
        backend: SimulatedBackend,
        seed: u64,
    ) -> Self {
        VqeRoute::new(hamiltonian, ansatz, backend.calibration().coupling()).bind(backend, seed)
    }

    /// Number of measurement groups (circuit executions per evaluation).
    pub fn n_groups(&self) -> usize {
        self.members.len()
    }

    /// The observable being minimized.
    pub fn hamiltonian(&self) -> &PauliSum {
        &self.hamiltonian
    }

    /// Length of the gate prefix the routed group circuits share: what an
    /// evaluation simulates once.
    pub fn shared_gates(&self) -> usize {
        self.shared_gates
    }

    /// How many of a density evaluation's sweeps and tiles that sharing
    /// saves, and how many sweeps it re-binds, read off the held program;
    /// `None` off the density path.
    pub fn fork_stats(&self) -> Option<ForkStats> {
        self.executable.fork_stats()
    }
}

impl CostEvaluator for VqeEvaluator {
    fn n_params(&self) -> usize {
        self.executable.n_params()
    }

    fn evaluate(&mut self, params: &[f64]) -> Evaluation {
        let _prof = qoncord_prof::span("vqa::eval::vqe");
        // Execution `k` of this evaluator (from 1) runs at seed `seed + k`.
        let mut dists = self.executable.run(params, self.seed.wrapping_add(1));
        let n_groups = dists.len();
        self.executions += n_groups as u64;
        self.seed = self.seed.wrapping_add(n_groups as u64);
        let mut energy = self.offset;
        let mut entropy_sum = 0.0;
        for (members, dist) in self.members.iter().zip(&dists) {
            for &i in members {
                let (coeff, string) = &self.hamiltonian.terms()[i];
                energy += coeff * string.expectation_from_dist(dist);
            }
            entropy_sum += dist.shannon_entropy();
        }
        Evaluation {
            expectation: energy,
            entropy: entropy_sum / n_groups as f64,
            dist: dists.swap_remove(0),
        }
    }

    fn executions(&self) -> u64 {
        self.executions
    }

    fn device_name(&self) -> String {
        self.executable.backend().calibration().name().to_owned()
    }

    fn ground_energy(&self) -> f64 {
        self.ground
    }

    fn circuit_stats(&self) -> CircuitStats {
        self.stats
    }
}

/// A workload routed onto one coupling map: its transpiled circuits and
/// everything an evaluator reads off them, before any device is chosen.
///
/// Transpiling reads the coupling map only, so the devices of one ladder
/// that share a map bind ([`RoutedWorkload::bind`]) from one route, and
/// their P_correct filter reads [`RoutedWorkload::circuit_stats`] before
/// anything is compiled. A bind is exactly the evaluator
/// [`QaoaEvaluator::new`] / [`VqeEvaluator::new`] builds on that device,
/// which are themselves a route and a bind. Nothing keeps a route once its
/// ladder is built.
///
/// # Examples
///
/// ```
/// use qoncord_vqa::evaluator::{CostEvaluator, QaoaEvaluator, RoutedWorkload};
/// use qoncord_vqa::{graph::Graph, maxcut::MaxCut};
/// use qoncord_device::catalog;
/// use qoncord_device::noise_model::SimulatedBackend;
///
/// let problem = MaxCut::new(Graph::paper_graph_7());
/// let (toronto, kolkata) = (catalog::ibmq_toronto(), catalog::ibmq_kolkata());
/// assert_eq!(toronto.coupling(), kolkata.coupling());
/// let routed = RoutedWorkload::qaoa(&problem, 1, kolkata.coupling());
/// for cal in [toronto, kolkata] {
///     let backend = SimulatedBackend::from_calibration(cal);
///     let mut bound = routed.bind(backend.clone(), 7);
///     let mut built = QaoaEvaluator::new(&problem, 1, backend, 7);
///     assert_eq!(bound.evaluate(&[0.4, 0.3]).dist, built.evaluate(&[0.4, 0.3]).dist);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RoutedWorkload(Route);

#[derive(Debug, Clone)]
enum Route {
    Qaoa(QaoaRoute),
    Vqe(VqeRoute),
}

impl RoutedWorkload {
    /// Routes the `layers`-deep QAOA circuit for `problem` onto `coupling`.
    ///
    /// # Panics
    ///
    /// Panics if the map has fewer qubits than the problem.
    pub fn qaoa(problem: &MaxCut, layers: usize, coupling: &CouplingMap) -> Self {
        RoutedWorkload(Route::Qaoa(QaoaRoute::new(problem, layers, coupling)))
    }

    /// Routes every measurement group of `hamiltonian` under `ansatz` onto
    /// `coupling`.
    ///
    /// # Panics
    ///
    /// As [`VqeEvaluator::new`].
    pub fn vqe(hamiltonian: &PauliSum, ansatz: &Circuit, coupling: &CouplingMap) -> Self {
        RoutedWorkload(Route::Vqe(VqeRoute::new(hamiltonian, ansatz, coupling)))
    }

    /// The statistics every binding reports as
    /// [`CostEvaluator::circuit_stats`].
    pub fn circuit_stats(&self) -> CircuitStats {
        match &self.0 {
            Route::Qaoa(route) => route.circuit.stats,
            Route::Vqe(route) => route.stats,
        }
    }

    /// Prepares the routed circuits for `backend` (whose coupling map must
    /// be the one routed onto): the evaluator the workload's `new` builds
    /// there at `seed`.
    pub fn bind(&self, backend: SimulatedBackend, seed: u64) -> Box<dyn CostEvaluator> {
        match &self.0 {
            Route::Qaoa(route) => Box::new(route.bind(backend, seed)),
            Route::Vqe(route) => Box::new(route.bind(backend, seed)),
        }
    }
}

/// What [`QaoaEvaluator`] reads off its routed circuit.
#[derive(Debug, Clone)]
struct QaoaRoute {
    problem: MaxCut,
    circuit: TranspiledCircuit,
    diagonal: Vec<f64>,
    ground: f64,
}

impl QaoaRoute {
    fn new(problem: &MaxCut, layers: usize, coupling: &CouplingMap) -> Self {
        let circuit = qaoa::build_circuit(problem.graph(), layers);
        QaoaRoute {
            problem: problem.clone(),
            circuit: transpile(&circuit, coupling),
            diagonal: problem.energy_diagonal(),
            ground: problem.ground_energy(),
        }
    }

    fn bind(&self, backend: SimulatedBackend, seed: u64) -> QaoaEvaluator {
        let gates = self.circuit.circuit.len();
        QaoaEvaluator {
            problem: self.problem.clone(),
            executable: backend.prepare(std::slice::from_ref(&self.circuit), gates),
            stats: self.circuit.stats,
            diagonal: self.diagonal.clone(),
            ground: self.ground,
            executions: 0,
            seed,
        }
    }
}

/// What [`VqeEvaluator`] reads off its routed group circuits.
#[derive(Debug, Clone)]
struct VqeRoute {
    hamiltonian: PauliSum,
    members: Vec<Vec<usize>>,
    circuits: Vec<TranspiledCircuit>,
    shared_gates: usize,
    stats: CircuitStats,
    offset: f64,
    ground: f64,
}

impl VqeRoute {
    fn new(hamiltonian: &PauliSum, ansatz: &Circuit, coupling: &CouplingMap) -> Self {
        assert_eq!(
            ansatz.n_qubits(),
            hamiltonian.n_qubits(),
            "ansatz register mismatch"
        );
        let members = hamiltonian.qubit_wise_commuting_groups();
        assert!(!members.is_empty(), "Hamiltonian has no term to measure");
        let circuits: Vec<TranspiledCircuit> = members
            .iter()
            .map(|group| {
                let mut circuit = ansatz.clone();
                circuit.extend(&hamiltonian.group_rotation(group));
                transpile(&circuit, coupling)
            })
            .collect();
        // Found on the circuits as routed, not assumed to be the ansatz: the
        // router hoists a rotation's gates ahead of the ansatz's last ones.
        let first = &circuits[0].circuit;
        let shared_gates = circuits[1..]
            .iter()
            .map(|t| first.shared_prefix(&t.circuit))
            .fold(first.len(), usize::min);
        // Representative stats: the largest group circuit.
        let stats = circuits
            .iter()
            .map(|t| t.stats)
            .max_by_key(|s| s.n_1q + s.n_2q)
            .expect("at least one group");
        VqeRoute {
            offset: hamiltonian.identity_offset(),
            ground: hamiltonian.exact_ground_energy(),
            hamiltonian: hamiltonian.clone(),
            members,
            circuits,
            shared_gates,
            stats,
        }
    }

    fn bind(&self, backend: SimulatedBackend, seed: u64) -> VqeEvaluator {
        VqeEvaluator {
            hamiltonian: self.hamiltonian.clone(),
            members: self.members.clone(),
            executable: backend.prepare(&self.circuits, self.shared_gates),
            shared_gates: self.shared_gates,
            stats: self.stats,
            offset: self.offset,
            ground: self.ground,
            executions: 0,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::uccsd;
    use crate::vqe;
    use qoncord_device::catalog;
    use qoncord_device::noise_model::BackendKind;

    fn triangle() -> MaxCut {
        MaxCut::new(Graph::new(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]))
    }

    #[test]
    fn qaoa_evaluator_counts_executions() {
        let backend = SimulatedBackend::ideal(catalog::ibmq_kolkata());
        let mut eval = QaoaEvaluator::new(&triangle(), 1, backend, 0);
        assert_eq!(eval.executions(), 0);
        eval.evaluate(&[0.1, 0.2]);
        eval.evaluate(&[0.3, 0.4]);
        assert_eq!(eval.executions(), 2);
    }

    #[test]
    fn ideal_evaluator_matches_direct_simulation() {
        let problem = triangle();
        let circuit = qaoa::build_circuit(problem.graph(), 1);
        let backend = SimulatedBackend::ideal(catalog::ibmq_kolkata());
        let mut eval = QaoaEvaluator::new(&problem, 1, backend, 0);
        let params = [0.7, 0.35];
        let direct = {
            let d = ProbDist::new(circuit.simulate_ideal(&params).probabilities());
            problem.expectation(&d)
        };
        let via_eval = eval.evaluate(&params).expectation;
        assert!(
            (direct - via_eval).abs() < 1e-9,
            "direct {direct} vs evaluator {via_eval}"
        );
    }

    #[test]
    fn noise_raises_energy_at_the_optimum() {
        // Depolarizing noise drags the distribution toward uniform, whose
        // triangle energy is −1.5; at the QAOA optimum (≈ −2) noise must
        // therefore raise the expectation.
        let problem = triangle();
        let mut ideal_eval = QaoaEvaluator::new(
            &problem,
            1,
            SimulatedBackend::ideal(catalog::ibmq_toronto()),
            0,
        );
        // Grid-search the 1-layer optimum on the ideal device.
        let mut best = (f64::INFINITY, [0.0, 0.0]);
        for i in 0..16 {
            for j in 0..16 {
                let p = [
                    i as f64 * std::f64::consts::PI / 16.0,
                    j as f64 * std::f64::consts::PI / 16.0,
                ];
                let e = ideal_eval.evaluate(&p).expectation;
                if e < best.0 {
                    best = (e, p);
                }
            }
        }
        let (ideal, params) = best;
        assert!(ideal < -1.9, "grid search should near the optimum");
        let noisy = QaoaEvaluator::new(
            &problem,
            1,
            SimulatedBackend::from_calibration(catalog::ibmq_toronto()),
            0,
        )
        .evaluate(&params)
        .expectation;
        assert!(noisy > ideal, "noisy {noisy} must exceed ideal {ideal}");
    }

    #[test]
    fn vqe_evaluator_reaches_hf_energy_at_zero_params() {
        let h = vqe::h2_hamiltonian();
        let ansatz = uccsd::uccsd_h2_ansatz(vqe::h2_hartree_fock_state());
        let backend = SimulatedBackend::ideal(catalog::ibmq_kolkata());
        let mut eval = VqeEvaluator::new(&h, &ansatz, backend, 0);
        let e = eval.evaluate(&[0.0, 0.0, 0.0]);
        let hf_energy = {
            let m = h.matrix();
            let hf = vqe::h2_hartree_fock_state();
            m[(hf, hf)].re
        };
        assert!(
            (e.expectation - hf_energy).abs() < 1e-6,
            "expected HF energy {hf_energy}, got {}",
            e.expectation
        );
    }

    #[test]
    fn vqe_counts_one_execution_per_group() {
        let h = vqe::h2_hamiltonian();
        let ansatz = uccsd::uccsd_h2_ansatz(vqe::h2_hartree_fock_state());
        let backend = SimulatedBackend::ideal(catalog::ibmq_kolkata());
        let mut eval = VqeEvaluator::new(&h, &ansatz, backend, 0);
        let groups = eval.n_groups() as u64;
        eval.evaluate(&[0.0, 0.0, 0.0]);
        assert_eq!(eval.executions(), groups);
    }

    /// `evaluations` in a row the way the evaluator is specified: one
    /// `backend.run` per group, execution `k` (from 1) at seed `seed + k`.
    fn per_group_loop(
        backend: &SimulatedBackend,
        seed: u64,
        evaluations: &[[f64; 3]],
    ) -> Vec<(u64, u64, Vec<u64>)> {
        let h = vqe::h2_hamiltonian();
        let ansatz = uccsd::uccsd_h2_ansatz(vqe::h2_hartree_fock_state());
        let mut execution = 0;
        let mut results = Vec::new();
        for params in evaluations {
            let mut energy = h.identity_offset();
            let mut entropy_sum = 0.0;
            let mut dists = Vec::new();
            for group in h.qubit_wise_commuting_groups() {
                let mut circuit = ansatz.clone();
                circuit.extend(&h.group_rotation(&group));
                let transpiled = transpile(&circuit, backend.calibration().coupling());
                execution += 1;
                let dist = backend.run(&transpiled, params, seed.wrapping_add(execution));
                for &i in &group {
                    let (coeff, string) = &h.terms()[i];
                    energy += coeff * string.expectation_from_dist(&dist);
                }
                entropy_sum += dist.shannon_entropy();
                dists.push(dist);
            }
            let entropy = entropy_sum / dists.len() as f64;
            results.push((energy.to_bits(), entropy.to_bits(), dist_bits(&dists[0])));
        }
        results
    }

    fn dist_bits(dist: &ProbDist) -> Vec<u64> {
        dist.probabilities().iter().map(|p| p.to_bits()).collect()
    }

    /// A sequence of parameter points that revisits one, repeats one back
    /// to back, and moves one parameter at a time, as SPSA and a restart do.
    const POINTS: [[f64; 3]; 7] = [
        [0.0; 3],
        [0.35, 0.45, 0.55],
        [-2.9, 1.7, 0.004],
        [-2.9, 1.7, 0.004],
        [-2.9, 1.7, -0.004],
        [0.35, 0.45, 0.55],
        [0.0; 3],
    ];

    /// Sharing the trunk and re-binding one held program change host time
    /// only: on the density path, on the trajectory path (where the seed of
    /// every execution matters) and on the ideal path, every bit of every
    /// evaluation in a sequence is the loop's.
    #[test]
    fn vqe_evaluation_is_bitwise_the_per_group_loop() {
        let evaluations = POINTS;
        let h = vqe::h2_hamiltonian();
        let ansatz = uccsd::uccsd_h2_ansatz(vqe::h2_hartree_fock_state());
        let trajectories = BackendKind::Trajectory { n_trajectories: 6 };
        for backend in [
            SimulatedBackend::from_calibration(catalog::ibmq_toronto()),
            SimulatedBackend::from_calibration(catalog::ibmq_kolkata()),
            SimulatedBackend::from_calibration(catalog::ibmq_toronto()).with_kind(trajectories),
            SimulatedBackend::ideal(catalog::ibmq_kolkata()),
        ] {
            let seed = u64::MAX - 7; // the execution counter wraps mid-run
            let expected = per_group_loop(&backend, seed, &evaluations);
            let mut eval = VqeEvaluator::new(&h, &ansatz, backend, seed);
            for (k, (params, expected)) in evaluations.iter().zip(expected).enumerate() {
                let e = eval.evaluate(params);
                let found = (
                    e.expectation.to_bits(),
                    e.entropy.to_bits(),
                    dist_bits(&e.dist),
                );
                assert_eq!(found, expected, "{}, evaluation {k}", eval.device_name());
                assert_eq!(eval.executions(), ((k + 1) * eval.n_groups()) as u64);
            }
        }
    }

    /// The QAOA twin of the test above: one held, re-bound program against
    /// a fresh `backend.run` per evaluation, execution `k` at `seed + k`.
    #[test]
    fn qaoa_evaluation_is_bitwise_the_per_run_loop() {
        let problem = MaxCut::new(Graph::paper_graph_7());
        let circuit = qaoa::build_circuit(problem.graph(), 2);
        let trajectories = BackendKind::Trajectory { n_trajectories: 6 };
        for backend in [
            SimulatedBackend::from_calibration(catalog::ibmq_toronto()),
            SimulatedBackend::from_calibration(catalog::ibmq_kolkata()),
            SimulatedBackend::from_calibration(catalog::ibmq_toronto()).with_kind(trajectories),
            SimulatedBackend::ideal(catalog::ibmq_kolkata()),
        ] {
            let seed = u64::MAX - 3; // the execution counter wraps mid-run
            let transpiled = transpile(&circuit, backend.calibration().coupling());
            let mut eval = QaoaEvaluator::new(&problem, 2, backend.clone(), seed);
            for (k, point) in POINTS.iter().enumerate() {
                let params = [point[0], point[1], point[2], -point[0]];
                let seed_k = seed.wrapping_add(k as u64 + 1);
                let dist = backend.run(&transpiled, &params, seed_k);
                let expected = (
                    dist.expectation_diagonal(&problem.energy_diagonal())
                        .to_bits(),
                    dist.shannon_entropy().to_bits(),
                    dist_bits(&dist),
                );
                let e = eval.evaluate(&params);
                let found = (
                    e.expectation.to_bits(),
                    e.entropy.to_bits(),
                    dist_bits(&e.dist),
                );
                assert_eq!(found, expected, "{}, evaluation {k}", eval.device_name());
            }
        }
    }

    /// What forking saves on H2/UCCSD, the same on both fleet devices: the
    /// five routed group circuits share their first 412 gates, and 40 of
    /// each one's 43 sweeps run once instead of five times. An evaluation
    /// re-binds the 16 sweeps that hold one of the ansatz's 12 parametric
    /// gates, counting a step each branch runs once per branch.
    #[test]
    fn h2_groups_share_412_gates_and_40_of_43_sweeps() {
        let h = vqe::h2_hamiltonian();
        let ansatz = uccsd::uccsd_h2_ansatz(vqe::h2_hartree_fock_state());
        for cal in [catalog::ibmq_toronto(), catalog::ibmq_kolkata()] {
            let name = cal.name().to_owned();
            let eval = VqeEvaluator::new(&h, &ansatz, SimulatedBackend::from_calibration(cal), 0);
            assert_eq!(eval.shared_gates(), 412, "{name}");
            assert_eq!(
                eval.fork_stats(),
                Some(ForkStats {
                    trunk_sweeps: 40,
                    branch_sweeps: vec![3; 5],
                    tiles_visited: 705,
                    tiles_unforked: 2965,
                    steps_rebound: 16,
                }),
                "{name}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no term to measure")]
    fn identity_only_hamiltonian_fails_closed_at_construction() {
        let h = PauliSum::from_terms(&[(0.5, "II"), (-1.25, "II")]).expect("valid Pauli strings");
        let backend = SimulatedBackend::ideal(catalog::ibmq_kolkata());
        VqeEvaluator::new(&h, &Circuit::new(2, 0), backend, 0);
    }

    #[test]
    #[should_panic(expected = "ansatz register mismatch")]
    fn vqe_evaluator_rejects_register_mismatch() {
        let h = PauliSum::from_terms(&[(1.0, "ZZ")]).expect("valid Pauli strings");
        let backend = SimulatedBackend::ideal(catalog::ibmq_kolkata());
        VqeEvaluator::new(&h, &Circuit::new(3, 0), backend, 0);
    }

    #[test]
    fn evaluator_reports_device_and_stats() {
        let backend = SimulatedBackend::from_calibration(catalog::ibmq_toronto());
        let eval = QaoaEvaluator::new(&triangle(), 2, backend, 0);
        assert_eq!(eval.device_name(), "ibmq_toronto");
        assert!(eval.circuit_stats().n_2q > 0);
        assert!((eval.ground_energy() + 2.0).abs() < 1e-12);
    }
}
