//! The parametric circuit container and ideal (noise-free) execution.

use crate::gate::{Gate, GateKind};
use crate::param::{Angle, ParamId};
use qoncord_sim::fuse::{self, FusedOp};
use qoncord_sim::statevector::StateVector;
use std::fmt;

/// A parametric quantum circuit: an ordered gate list over `n_qubits` qubits
/// referencing up to `n_params` trainable parameters.
///
/// # Examples
///
/// ```
/// use qoncord_circuit::circuit::Circuit;
/// use qoncord_circuit::param::ParamId;
///
/// let mut qc = Circuit::new(2, 1);
/// qc.h(0).cx(0, 1).rz(1, ParamId(0));
/// let sv = qc.simulate_ideal(&[0.3]);
/// assert_eq!(sv.n_qubits(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    n_params: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(n_qubits: usize, n_params: usize) -> Self {
        Circuit {
            n_qubits,
            n_params,
            gates: Vec::new(),
        }
    }

    /// A circuit of gates that already passed [`Circuit::push`]'s checks
    /// for this register and parameter count; the allocation is trimmed to
    /// them (evaluators keep transpiled circuits for as long as they live).
    pub(crate) fn from_checked(n_qubits: usize, n_params: usize, mut gates: Vec<Gate>) -> Self {
        gates.shrink_to_fit();
        Circuit {
            n_qubits,
            n_params,
            gates,
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of trainable parameters the circuit references.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// The gate sequence.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends an arbitrary gate.
    ///
    /// # Panics
    ///
    /// Panics if a qubit operand is out of range or a referenced parameter
    /// index exceeds `n_params`.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        for &q in gate.qubits() {
            assert!(q < self.n_qubits, "qubit q{q} out of range");
        }
        for a in gate.angles() {
            if let Some(ParamId(i)) = a.param {
                assert!(i < self.n_params, "parameter θ{i} out of range");
            }
        }
        self.gates.push(gate);
        self
    }

    // ------- convenience builders (non-consuming, chainable) -------

    /// Appends a Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::new(GateKind::H, &[q], &[]))
    }

    /// Appends a Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::new(GateKind::X, &[q], &[]))
    }

    /// Appends a Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::new(GateKind::Y, &[q], &[]))
    }

    /// Appends a Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::new(GateKind::Z, &[q], &[]))
    }

    /// Appends an S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::new(GateKind::S, &[q], &[]))
    }

    /// Appends an S† gate on `q`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::new(GateKind::Sdg, &[q], &[]))
    }

    /// Appends a √X gate on `q`.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.push(Gate::new(GateKind::Sx, &[q], &[]))
    }

    /// Appends an RX rotation.
    pub fn rx(&mut self, q: usize, angle: impl Into<Angle>) -> &mut Self {
        self.push(Gate::new(GateKind::Rx, &[q], &[angle.into()]))
    }

    /// Appends an RY rotation.
    pub fn ry(&mut self, q: usize, angle: impl Into<Angle>) -> &mut Self {
        self.push(Gate::new(GateKind::Ry, &[q], &[angle.into()]))
    }

    /// Appends an RZ rotation.
    pub fn rz(&mut self, q: usize, angle: impl Into<Angle>) -> &mut Self {
        self.push(Gate::new(GateKind::Rz, &[q], &[angle.into()]))
    }

    /// Appends a phase gate.
    pub fn p(&mut self, q: usize, angle: impl Into<Angle>) -> &mut Self {
        self.push(Gate::new(GateKind::P, &[q], &[angle.into()]))
    }

    /// Appends a CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Gate::new(GateKind::Cx, &[c, t], &[]))
    }

    /// Appends a CZ.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::new(GateKind::Cz, &[a, b], &[]))
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::new(GateKind::Swap, &[a, b], &[]))
    }

    /// Appends an RZZ interaction.
    pub fn rzz(&mut self, a: usize, b: usize, angle: impl Into<Angle>) -> &mut Self {
        self.push(Gate::new(GateKind::Rzz, &[a, b], &[angle.into()]))
    }

    // ------- statistics -------

    /// Number of single-qubit gates.
    pub fn count_1q(&self) -> usize {
        self.gates.iter().filter(|g| g.kind().arity() == 1).count()
    }

    /// Number of two-qubit gates.
    pub fn count_2q(&self) -> usize {
        self.gates.iter().filter(|g| g.kind().arity() == 2).count()
    }

    /// Total gate count.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of leading gates that are the same, operand for operand, in
    /// `self` and `other`.
    pub fn shared_prefix(&self, other: &Circuit) -> usize {
        let pairs = self.gates.iter().zip(&other.gates);
        pairs.take_while(|(a, b)| a == b).count()
    }

    /// Circuit depth: the longest chain of gates sharing qubits (as-late-as-
    /// possible scheduling over qubit wires).
    pub fn depth(&self) -> usize {
        let mut wire_depth = vec![0usize; self.n_qubits];
        for g in &self.gates {
            let d = g.qubits().iter().map(|&q| wire_depth[q]).max().unwrap_or(0) + 1;
            for &q in g.qubits() {
                wire_depth[q] = d;
            }
        }
        wire_depth.into_iter().max().unwrap_or(0)
    }

    /// Lowers the circuit against a parameter vector into the simulator's
    /// instruction set ([`FusedOp`]), gate by gate ([`Gate::bind_op`]).
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != n_params`.
    pub fn bind_ops(&self, params: &[f64]) -> Vec<FusedOp> {
        assert_eq!(
            params.len(),
            self.n_params,
            "expected {} parameters, got {}",
            self.n_params,
            params.len()
        );
        self.gates.iter().map(|g| g.bind_op(params)).collect()
    }

    /// Runs the circuit noise-free from `|0…0⟩` and returns the final state.
    ///
    /// The gate sequence is run through [`fuse::fuse`] first, so a transpiled
    /// layer issues far fewer amplitude sweeps than it has gates. The seed
    /// path — one [`Gate::resolve`] and one `qoncord_sim::reference` kernel
    /// per gate — is the caller's to run.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != n_params`.
    pub fn simulate_ideal(&self, params: &[f64]) -> StateVector {
        let mut sv = StateVector::zero_state(self.n_qubits);
        sv.apply_ops(&fuse::fuse(self.n_qubits, self.bind_ops(params)));
        sv
    }

    /// Concatenates another circuit's gates onto this one.
    ///
    /// # Panics
    ///
    /// Panics if register sizes differ; the parameter space is widened to the
    /// larger of the two.
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(self.n_qubits, other.n_qubits, "register sizes differ");
        self.n_params = self.n_params.max(other.n_params);
        self.gates.extend_from_slice(&other.gates);
        self
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit({} qubits, {} params, {} gates, depth {})",
            self.n_qubits,
            self.n_params,
            self.gates.len(),
            self.depth()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut qc = Circuit::new(3, 0);
        qc.h(0).cx(0, 1).cx(1, 2);
        assert_eq!(qc.len(), 3);
        assert_eq!(qc.count_1q(), 1);
        assert_eq!(qc.count_2q(), 2);
    }

    #[test]
    fn depth_accounts_for_parallelism() {
        let mut qc = Circuit::new(4, 0);
        qc.h(0).h(1).h(2).h(3); // all parallel -> depth 1
        assert_eq!(qc.depth(), 1);
        qc.cx(0, 1).cx(2, 3); // still parallel -> depth 2
        assert_eq!(qc.depth(), 2);
        qc.cx(1, 2); // serializes -> depth 3
        assert_eq!(qc.depth(), 3);
    }

    #[test]
    fn ideal_simulation_produces_bell_state() {
        let mut qc = Circuit::new(2, 0);
        qc.h(0).cx(0, 1);
        let sv = qc.simulate_ideal(&[]);
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parametric_rotation_binds() {
        let mut qc = Circuit::new(1, 1);
        qc.rx(0, ParamId(0));
        let sv = qc.simulate_ideal(&[std::f64::consts::PI]);
        // RX(π)|0> = -i|1>
        assert!((sv.probabilities()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn qubit_bounds_enforced() {
        let mut qc = Circuit::new(1, 0);
        qc.h(1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn param_bounds_enforced() {
        let mut qc = Circuit::new(1, 1);
        qc.rz(0, ParamId(1));
    }

    #[test]
    #[should_panic(expected = "expected 2 parameters")]
    fn bind_length_checked() {
        let mut qc = Circuit::new(1, 2);
        qc.rz(0, ParamId(0));
        qc.bind_ops(&[0.1]);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Circuit::new(2, 1);
        a.h(0);
        let mut b = Circuit::new(2, 2);
        b.rz(1, ParamId(1));
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.n_params(), 2);
    }

    #[test]
    fn shared_prefix_stops_at_the_first_differing_operand() {
        let mut a = Circuit::new(2, 1);
        a.h(0).cx(0, 1).rz(1, ParamId(0)).sx(0);
        let mut b = Circuit::new(2, 1);
        b.h(0).cx(0, 1).rz(1, 0.5).sx(0);
        assert_eq!(a.shared_prefix(&b), 2);
        assert_eq!(a.shared_prefix(&a), 4);
        assert_eq!(a.shared_prefix(&Circuit::new(2, 1)), 0);
    }

    #[test]
    fn empty_circuit_reports() {
        let qc = Circuit::new(3, 0);
        assert!(qc.is_empty());
        assert_eq!(qc.depth(), 0);
    }
}
