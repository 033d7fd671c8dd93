//! Noise-model construction and the simulated backends that execute
//! transpiled circuits under device noise — this crate's equivalent of
//! Qiskit's fake-backend + Aer pipeline.

use crate::calibration::Calibration;
use qoncord_circuit::gate::Gate;
use qoncord_circuit::transpile::{remap_to_logical, TranspiledCircuit};
use qoncord_sim::dist::ProbDist;
use qoncord_sim::fuse::FusedOp;
use qoncord_sim::noise::ReadoutError;
use qoncord_sim::noisy::{ForkStats, ForkedProgram};
use qoncord_sim::trajectory::TrajectoryProgram;

/// Gate-level noise parameters derived from a calibration: depolarizing
/// probabilities per gate plus readout confusion.
///
/// The depolarizing probability is recovered from the average gate
/// infidelity `ε` via the standard dimension factors: `p = 2ε` for one qubit
/// and `p = (4/3)ε` for two (a depolarizing channel with probability `p` on a
/// `d`-dimensional system has average infidelity `p·(d−1)/d`... for d = 2 and
/// d = 4 respectively).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing probability applied after every single-qubit gate.
    pub dep_1q: f64,
    /// Depolarizing probability applied after every two-qubit gate.
    pub dep_2q: f64,
    /// Per-qubit readout confusion applied to the final distribution.
    pub readout: ReadoutError,
}

impl NoiseModel {
    /// Builds a noise model from a device calibration.
    pub fn from_calibration(cal: &Calibration) -> Self {
        NoiseModel {
            dep_1q: (2.0 * cal.error_1q()).clamp(0.0, 1.0),
            dep_2q: (4.0 / 3.0 * cal.error_2q()).clamp(0.0, 1.0),
            readout: ReadoutError::symmetric(cal.readout_error().min(0.5)),
        }
    }

    /// A noiseless model.
    pub fn ideal() -> Self {
        NoiseModel {
            dep_1q: 0.0,
            dep_2q: 0.0,
            readout: ReadoutError::default(),
        }
    }

    /// Returns `true` if every noise parameter is zero.
    pub fn is_ideal(&self) -> bool {
        self.dep_1q == 0.0 && self.dep_2q == 0.0 && self.readout.mean_error() == 0.0
    }

    /// Returns a copy with gate noise scaled by `gate_factor` and readout
    /// noise by `readout_factor` (clamped to valid probabilities); the basis
    /// of error-mitigation modelling and ZNE noise amplification.
    pub fn scaled(&self, gate_factor: f64, readout_factor: f64) -> Self {
        NoiseModel {
            dep_1q: (self.dep_1q * gate_factor).clamp(0.0, 1.0),
            dep_2q: (self.dep_2q * gate_factor).clamp(0.0, 1.0),
            readout: self.readout.scaled(readout_factor),
        }
    }
}

/// How a backend simulates noisy execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Noise-free statevector run.
    Ideal,
    /// Exact density-matrix evolution (practical to ~10 qubits).
    DensityMatrix,
    /// Monte-Carlo trajectory averaging with the given trajectory count.
    Trajectory {
        /// Number of stochastic trajectories to average.
        n_trajectories: u32,
    },
    /// Density matrix when the circuit is small, otherwise trajectories.
    Auto,
}

/// Register size above which [`BackendKind::Auto`] switches from exact
/// density matrices to trajectory sampling.
pub const AUTO_DENSITY_LIMIT: usize = 8;

/// Default trajectory count for [`BackendKind::Auto`].
pub const AUTO_TRAJECTORIES: u32 = 48;

/// A classically simulated quantum device: a calibration plus a noise model
/// and simulation strategy.
///
/// # Examples
///
/// ```
/// use qoncord_device::catalog;
/// use qoncord_device::noise_model::SimulatedBackend;
/// use qoncord_circuit::{Circuit, transpile::transpile};
///
/// let backend = SimulatedBackend::from_calibration(catalog::ibmq_toronto());
/// let mut qc = Circuit::new(2, 0);
/// qc.h(0).cx(0, 1);
/// let t = transpile(&qc, backend.calibration().coupling());
/// let dist = backend.run(&t, &[], 7);
/// // Noise leaks probability out of the Bell-state support.
/// assert!(dist.probabilities()[1] > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedBackend {
    calibration: Calibration,
    noise: NoiseModel,
    kind: BackendKind,
}

impl SimulatedBackend {
    /// Creates a backend with noise derived from the calibration and
    /// [`BackendKind::Auto`] strategy.
    pub fn from_calibration(calibration: Calibration) -> Self {
        let noise = NoiseModel::from_calibration(&calibration);
        SimulatedBackend {
            calibration,
            noise,
            kind: BackendKind::Auto,
        }
    }

    /// Creates a noiseless backend over the same coupling map (the paper's
    /// "noise-free" reference curves).
    pub fn ideal(calibration: Calibration) -> Self {
        SimulatedBackend {
            calibration,
            noise: NoiseModel::ideal(),
            kind: BackendKind::Ideal,
        }
    }

    /// Overrides the simulation strategy.
    pub fn with_kind(mut self, kind: BackendKind) -> Self {
        self.kind = kind;
        self
    }

    /// Overrides the noise model (used by mitigation modelling).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// The device calibration.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The active noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The simulation strategy.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// Executes a transpiled circuit with bound `params` and returns the
    /// outcome distribution over the *logical* qubits (readout error applied,
    /// routing permutation undone).
    ///
    /// `seed` makes trajectory backends deterministic; density and ideal
    /// backends ignore it. A density run prepares the circuit as an
    /// [`Executable`] would and runs it once, as a fused
    /// [`qoncord_sim::noisy::DensityProgram`]; a trajectory run executes as
    /// a [`TrajectoryProgram`]. Each is within 1e-12 of the seed's
    /// op-at-a-time evolution ([`qoncord_sim::noisy::evolve_unfused`],
    /// [`qoncord_sim::trajectory::sample_unfused`]), which tests and the
    /// `kernel_profile` benchmark call directly.
    ///
    /// # Panics
    ///
    /// Panics if `params` does not match the circuit's parameter count.
    pub fn run(&self, transpiled: &TranspiledCircuit, params: &[f64], seed: u64) -> ProbDist {
        let kind = self.effective_kind(transpiled.circuit.n_qubits());
        let physical = match kind {
            BackendKind::Ideal => {
                let sv = transpiled.circuit.simulate_ideal(params);
                ProbDist::new(sv.probabilities())
            }
            BackendKind::DensityMatrix => {
                let circuit = std::slice::from_ref(transpiled);
                let mut plan = DensityPlan::compile(self, circuit, transpiled.circuit.len());
                plan.outcome_probabilities(params).swap_remove(0)
            }
            BackendKind::Trajectory { n_trajectories } => {
                self.run_trajectories(transpiled, params, n_trajectories, seed)
            }
            BackendKind::Auto => unreachable!("resolved by effective_kind"),
        };
        self.read_out(&transpiled.logical_to_region, physical)
    }

    /// Prepares circuits that begin with the same `shared_gates` gates — a
    /// VQE evaluation's measurement groups, or one circuit with all its
    /// gates shared — for repeated runs on this backend. The circuits are
    /// only read, so one routed set prepares on every device that shares its
    /// coupling map; a backend that plans per run keeps a copy.
    ///
    /// # Panics
    ///
    /// Panics if the circuits differ in register size or parameter count,
    /// or one of them does not begin with the first one's `shared_gates`
    /// gates.
    pub fn prepare(&self, circuits: &[TranspiledCircuit], shared_gates: usize) -> Executable {
        let first = circuits.first().map(|t| &t.circuit);
        let n_params = first.map_or(0, |c| c.n_params());
        if let Some(first) = first {
            assert!(shared_gates <= first.len(), "more shared gates than gates");
            for t in &circuits[1..] {
                assert!(
                    t.circuit.n_qubits() == first.n_qubits()
                        && t.circuit.n_params() == first.n_params(),
                    "prepared circuits differ in register or parameter count"
                );
                assert!(
                    first.shared_prefix(&t.circuit) >= shared_gates,
                    "prepared circuits differ within their shared gates"
                );
            }
        }
        let density =
            first.is_some_and(|c| self.effective_kind(c.n_qubits()) == BackendKind::DensityMatrix);
        let plan = if density {
            Plan::Density(DensityPlan::compile(self, circuits, shared_gates))
        } else {
            Plan::Circuits(circuits.to_vec())
        };
        Executable {
            backend: self.clone(),
            n_params,
            plan,
        }
    }

    /// What a job sees of the device's physical outcome distribution:
    /// readout error applied, routing permutation undone
    /// ([`TranspiledCircuit::logical_to_region`]).
    fn read_out(&self, logical_to_region: &[usize], physical: ProbDist) -> ProbDist {
        let physical = if self.noise.readout.mean_error() > 0.0 {
            physical.with_uniform_readout_error(self.noise.readout)
        } else {
            physical
        };
        ProbDist::new(remap_to_logical(
            logical_to_region,
            physical.probabilities(),
        ))
    }

    fn effective_kind(&self, n_qubits: usize) -> BackendKind {
        match self.kind {
            BackendKind::Auto => {
                if n_qubits <= AUTO_DENSITY_LIMIT {
                    BackendKind::DensityMatrix
                } else {
                    BackendKind::Trajectory {
                        n_trajectories: AUTO_TRAJECTORIES,
                    }
                }
            }
            other => other,
        }
    }

    fn run_trajectories(
        &self,
        transpiled: &TranspiledCircuit,
        params: &[f64],
        n_trajectories: u32,
        seed: u64,
    ) -> ProbDist {
        let n = transpiled.circuit.n_qubits();
        let ops = transpiled.circuit.bind_ops(params);
        let (dep_1q, dep_2q) = (self.noise.dep_1q, self.noise.dep_2q);
        // A depolarizing site draws one state-independent uniform, so every
        // trajectory's Paulis are known before it runs: the noise-free
        // stretches between them fuse, and equal or prefix-sharing
        // trajectories are evolved once (see `qoncord_sim::trajectory`);
        // ≤ 1e-12 from the seed path.
        TrajectoryProgram::compile(n, ops, dep_1q, dep_2q).run(seed, n_trajectories)
    }
}

/// Circuits prepared once for repeated runs on one backend
/// ([`SimulatedBackend::prepare`]): what an evaluator holds in place of its
/// transpiled circuits.
///
/// On a density backend that is one [`ForkedProgram`] over the circuits
/// (the shared gates as its trunk), the gates that read a parameter, and
/// each circuit's read-out layout. A run binds those gates only and re-binds
/// the program's steps that hold one ([`ForkedProgram::rebind`]), which is
/// bit for bit the program a fresh compile at the new parameters gives. Ideal
/// and trajectory backends plan per run, so there it keeps the circuits.
///
/// # Examples
///
/// ```
/// use qoncord_circuit::{transpile::transpile, Circuit};
/// use qoncord_device::catalog;
/// use qoncord_device::noise_model::SimulatedBackend;
///
/// let backend = SimulatedBackend::from_calibration(catalog::ibmq_toronto());
/// let mut qc = Circuit::new(2, 1);
/// qc.h(0).cx(0, 1).rz(1, qoncord_circuit::param::ParamId(0));
/// let t = transpile(&qc, backend.calibration().coupling());
/// let mut prepared = backend.prepare(std::slice::from_ref(&t), t.circuit.len());
/// for theta in [0.1, 0.7] {
///     let dists = prepared.run(&[theta], 7);
///     assert_eq!(dists, vec![backend.run(&t, &[theta], 7)]);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Executable {
    backend: SimulatedBackend,
    n_params: usize,
    plan: Plan,
}

#[derive(Debug, Clone)]
enum Plan {
    Density(DensityPlan),
    Circuits(Vec<TranspiledCircuit>),
}

impl Executable {
    /// Runs every circuit at `params` and returns what
    /// [`SimulatedBackend::run`] returns for each, bit for bit, circuit `g`
    /// at seed `seed + g`.
    ///
    /// # Panics
    ///
    /// Panics if `params` does not match the circuits' parameter count.
    pub fn run(&mut self, params: &[f64], seed: u64) -> Vec<ProbDist> {
        let backend = &self.backend;
        match &mut self.plan {
            Plan::Density(plan) => {
                let physical = plan.outcome_probabilities(params);
                let layouts = plan.layouts.iter();
                physical
                    .into_iter()
                    .zip(layouts)
                    .map(|(dist, layout)| backend.read_out(layout, dist))
                    .collect()
            }
            Plan::Circuits(circuits) => circuits
                .iter()
                .enumerate()
                .map(|(g, t)| backend.run(t, params, seed.wrapping_add(g as u64)))
                .collect(),
        }
    }

    /// The backend the circuits were prepared for.
    pub fn backend(&self) -> &SimulatedBackend {
        &self.backend
    }

    /// Number of trainable parameters the circuits take.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// How the density program shares and re-binds its sweeps; `None` on a
    /// backend that plans per run. The counts depend on no parameter value.
    pub fn fork_stats(&self) -> Option<ForkStats> {
        match &self.plan {
            Plan::Density(plan) => Some(plan.program.stats()),
            Plan::Circuits(_) => None,
        }
    }
}

/// A density program compiled once, with what each run binds and reads out.
#[derive(Debug, Clone)]
struct DensityPlan {
    program: ForkedProgram,
    n_params: usize,
    /// The gates that read a parameter, in the order the program's rebind
    /// takes their ops: the shared gates', then each circuit's own.
    parametric: Vec<Gate>,
    /// Per circuit, the region qubit holding each logical qubit.
    layouts: Vec<Vec<usize>>,
}

impl DensityPlan {
    /// Compiles `circuits` under `backend`'s rates with the first
    /// `shared_gates` gates as the trunk. The program's steps depend on
    /// gate kinds and wires only, so it is compiled at θ = 0.
    fn compile(
        backend: &SimulatedBackend,
        circuits: &[TranspiledCircuit],
        shared_gates: usize,
    ) -> Self {
        let first = &circuits[0].circuit;
        let zeros = vec![0.0; first.n_params()];
        // A gate with a parameter in any angle, even at coefficient 0,
        // binds afresh: its angle may still read the parameter's sign.
        let reads_param = |gate: &Gate| gate.angles().iter().any(|a| a.param.is_some());
        let marked = |gate: &Gate| (gate.bind_op(&zeros), reads_param(gate));
        let shared = &first.gates()[..shared_gates];
        let tails = circuits.iter().map(|t| &t.circuit.gates()[shared_gates..]);
        let parametric = shared
            .iter()
            .chain(tails.clone().flatten())
            .filter(|gate| reads_param(gate))
            .copied()
            .collect();
        let (dep_1q, dep_2q) = (backend.noise.dep_1q, backend.noise.dep_2q);
        let program = ForkedProgram::compile_parametric(
            first.n_qubits(),
            shared.iter().map(marked),
            tails.map(|tail| tail.iter().map(marked)),
            dep_1q,
            dep_2q,
        );
        DensityPlan {
            program,
            n_params: first.n_params(),
            parametric,
            layouts: circuits
                .iter()
                .map(|t| t.logical_to_region.clone())
                .collect(),
        }
    }

    /// Re-binds the program at `params` and returns each circuit's physical
    /// outcome distribution.
    fn outcome_probabilities(&mut self, params: &[f64]) -> Vec<ProbDist> {
        assert_eq!(
            params.len(),
            self.n_params,
            "expected {} parameters, got {}",
            self.n_params,
            params.len()
        );
        let ops: Vec<FusedOp> = self.parametric.iter().map(|g| g.bind_op(params)).collect();
        self.program.rebind(&ops);
        // Depolarizing noise lets gates fuse across their channels, and a run
        // from |0…0⟩ that is only read on the diagonal skips the tiles
        // outside each sweep's light cone (see `qoncord_sim::noisy`); the
        // result matches the seed path to ≤ 1e-12, not bit-for-bit.
        self.program.outcome_probabilities()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use qoncord_circuit::transpile::transpile;
    use qoncord_circuit::Circuit;

    fn bell_transpiled(cal: &Calibration) -> TranspiledCircuit {
        let mut qc = Circuit::new(2, 0);
        qc.h(0).cx(0, 1);
        transpile(&qc, cal.coupling())
    }

    #[test]
    fn noise_model_conversion_factors() {
        let cal = catalog::ibmq_kolkata();
        let nm = NoiseModel::from_calibration(&cal);
        assert!((nm.dep_1q - 2.0 * cal.error_1q()).abs() < 1e-12);
        assert!((nm.dep_2q - 4.0 / 3.0 * cal.error_2q()).abs() < 1e-12);
        assert!((nm.readout.mean_error() - cal.readout_error()).abs() < 1e-12);
    }

    #[test]
    fn ideal_backend_returns_clean_bell() {
        let cal = catalog::ibmq_kolkata();
        let t = bell_transpiled(&cal);
        let backend = SimulatedBackend::ideal(cal);
        let dist = backend.run(&t, &[], 0);
        assert!((dist.probabilities()[0] - 0.5).abs() < 1e-9);
        assert!((dist.probabilities()[3] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn noisy_backend_degrades_bell() {
        let cal = catalog::ibmq_toronto();
        let t = bell_transpiled(&cal);
        let backend = SimulatedBackend::from_calibration(cal);
        let dist = backend.run(&t, &[], 0);
        let leaked = dist.probabilities()[1] + dist.probabilities()[2];
        assert!(leaked > 0.01, "expected noise leakage, got {leaked}");
        assert!(leaked < 0.3, "noise unreasonably strong: {leaked}");
    }

    #[test]
    fn kolkata_beats_toronto_on_fidelity() {
        let ideal = {
            let cal = catalog::ibmq_kolkata();
            let t = bell_transpiled(&cal);
            SimulatedBackend::ideal(cal).run(&t, &[], 0)
        };
        let run_on = |cal: Calibration| {
            let t = bell_transpiled(&cal);
            SimulatedBackend::from_calibration(cal).run(&t, &[], 0)
        };
        let hf = run_on(catalog::ibmq_kolkata());
        let lf = run_on(catalog::ibmq_toronto());
        assert!(ideal.hellinger_fidelity(&hf) > ideal.hellinger_fidelity(&lf));
    }

    #[test]
    fn trajectory_backend_approximates_density_backend() {
        let cal = catalog::ibmq_toronto();
        let t = bell_transpiled(&cal);
        let dense = SimulatedBackend::from_calibration(cal.clone())
            .with_kind(BackendKind::DensityMatrix)
            .run(&t, &[], 0);
        let traj = SimulatedBackend::from_calibration(cal)
            .with_kind(BackendKind::Trajectory {
                n_trajectories: 3000,
            })
            .run(&t, &[], 42);
        assert!(
            dense.total_variation(&traj) < 0.02,
            "tv = {}",
            dense.total_variation(&traj)
        );
    }

    #[test]
    fn auto_picks_density_for_small_circuits() {
        let backend = SimulatedBackend::from_calibration(catalog::ibmq_kolkata());
        assert_eq!(backend.effective_kind(7), BackendKind::DensityMatrix);
        assert_eq!(
            backend.effective_kind(14),
            BackendKind::Trajectory {
                n_trajectories: AUTO_TRAJECTORIES
            }
        );
    }

    #[test]
    fn scaled_noise_model_reduces_error() {
        let nm = NoiseModel::from_calibration(&catalog::ibmq_toronto());
        let s = nm.scaled(0.5, 0.1);
        assert!((s.dep_2q - nm.dep_2q * 0.5).abs() < 1e-12);
        assert!(s.readout.mean_error() < nm.readout.mean_error());
    }

    #[test]
    fn ideal_model_detection() {
        assert!(NoiseModel::ideal().is_ideal());
        assert!(!NoiseModel::from_calibration(&catalog::ibmq_kolkata()).is_ideal());
    }

    #[test]
    fn deterministic_given_seed() {
        let cal = catalog::ibmq_toronto();
        let t = bell_transpiled(&cal);
        let backend = SimulatedBackend::from_calibration(cal)
            .with_kind(BackendKind::Trajectory { n_trajectories: 64 });
        let a = backend.run(&t, &[], 9);
        let b = backend.run(&t, &[], 9);
        assert_eq!(a, b);
    }
}
