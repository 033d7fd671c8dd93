//! Gate instructions of the circuit IR.

use crate::param::Angle;
use qoncord_sim::gates::{self, Mat2, Mat4};
use std::fmt;

/// The gate alphabet of the IR. Covers everything the Qoncord workloads
/// (QAOA, two-local, UCCSD) and the IBM basis-gate target need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate S.
    S,
    /// Inverse phase gate S†.
    Sdg,
    /// T gate.
    T,
    /// T† gate.
    Tdg,
    /// √X (the IBM basis `sx`).
    Sx,
    /// X rotation (1 angle).
    Rx,
    /// Y rotation (1 angle).
    Ry,
    /// Z rotation (1 angle).
    Rz,
    /// Phase rotation `diag(1, e^{iλ})` (1 angle).
    P,
    /// Generic single-qubit `U3(θ, φ, λ)` (3 angles).
    U3,
    /// CNOT (first qubit is control).
    Cx,
    /// Controlled-Z.
    Cz,
    /// SWAP.
    Swap,
    /// Ising `exp(-iθ ZZ/2)` (1 angle).
    Rzz,
    /// Controlled-RZ (first qubit is control, 1 angle).
    Crz,
}

impl GateKind {
    /// Number of qubits the gate acts on.
    pub fn arity(self) -> usize {
        match self {
            GateKind::H
            | GateKind::X
            | GateKind::Y
            | GateKind::Z
            | GateKind::S
            | GateKind::Sdg
            | GateKind::T
            | GateKind::Tdg
            | GateKind::Sx
            | GateKind::Rx
            | GateKind::Ry
            | GateKind::Rz
            | GateKind::P
            | GateKind::U3 => 1,
            GateKind::Cx | GateKind::Cz | GateKind::Swap | GateKind::Rzz | GateKind::Crz => 2,
        }
    }

    /// Number of angle operands the gate takes.
    fn n_angles(self) -> usize {
        match self {
            GateKind::Rx
            | GateKind::Ry
            | GateKind::Rz
            | GateKind::P
            | GateKind::Rzz
            | GateKind::Crz => 1,
            GateKind::U3 => 3,
            _ => 0,
        }
    }

    /// Lowercase OpenQASM-style mnemonic.
    fn mnemonic(self) -> &'static str {
        match self {
            GateKind::H => "h",
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::S => "s",
            GateKind::Sdg => "sdg",
            GateKind::T => "t",
            GateKind::Tdg => "tdg",
            GateKind::Sx => "sx",
            GateKind::Rx => "rx",
            GateKind::Ry => "ry",
            GateKind::Rz => "rz",
            GateKind::P => "p",
            GateKind::U3 => "u3",
            GateKind::Cx => "cx",
            GateKind::Cz => "cz",
            GateKind::Swap => "swap",
            GateKind::Rzz => "rzz",
            GateKind::Crz => "crz",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One gate instruction: a kind, its qubit operands, and its (possibly
/// symbolic) angles.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Which gate.
    pub kind: GateKind,
    /// Qubit operands (length = `kind.arity()`).
    pub qubits: Vec<usize>,
    /// Angle operands (length = `kind.n_angles()`).
    pub angles: Vec<Angle>,
}

impl Gate {
    /// Creates a gate, validating operand counts.
    ///
    /// # Panics
    ///
    /// Panics if qubit or angle counts mismatch the gate kind, or if a
    /// two-qubit gate repeats a qubit.
    pub fn new(kind: GateKind, qubits: Vec<usize>, angles: Vec<Angle>) -> Self {
        assert_eq!(
            qubits.len(),
            kind.arity(),
            "{kind} expects {} qubit(s), got {}",
            kind.arity(),
            qubits.len()
        );
        assert_eq!(
            angles.len(),
            kind.n_angles(),
            "{kind} expects {} angle(s), got {}",
            kind.n_angles(),
            angles.len()
        );
        if qubits.len() == 2 {
            assert_ne!(qubits[0], qubits[1], "{kind} requires distinct qubits");
        }
        Gate {
            kind,
            qubits,
            angles,
        }
    }

    /// Returns `true` if any angle depends on a trainable parameter.
    pub fn is_parametric(&self) -> bool {
        self.angles.iter().any(Angle::is_parametric)
    }

    /// Resolves the gate to a concrete unitary, given bound parameter values.
    ///
    /// # Panics
    ///
    /// Panics if an angle references an unbound parameter.
    pub fn resolve(&self, params: &[f64]) -> ResolvedGate {
        let a: Vec<f64> = self.angles.iter().map(|ang| ang.resolve(params)).collect();
        match self.kind {
            GateKind::H => ResolvedGate::One(gates::h(), self.qubits[0]),
            GateKind::X => ResolvedGate::One(gates::x(), self.qubits[0]),
            GateKind::Y => ResolvedGate::One(gates::y(), self.qubits[0]),
            GateKind::Z => ResolvedGate::One(gates::z(), self.qubits[0]),
            GateKind::S => ResolvedGate::One(gates::s(), self.qubits[0]),
            GateKind::Sdg => ResolvedGate::One(gates::sdg(), self.qubits[0]),
            GateKind::T => ResolvedGate::One(gates::t(), self.qubits[0]),
            GateKind::Tdg => ResolvedGate::One(gates::tdg(), self.qubits[0]),
            GateKind::Sx => ResolvedGate::One(gates::sx(), self.qubits[0]),
            GateKind::Rx => ResolvedGate::One(gates::rx(a[0]), self.qubits[0]),
            GateKind::Ry => ResolvedGate::One(gates::ry(a[0]), self.qubits[0]),
            GateKind::Rz => ResolvedGate::One(gates::rz(a[0]), self.qubits[0]),
            GateKind::P => ResolvedGate::One(gates::p(a[0]), self.qubits[0]),
            GateKind::U3 => ResolvedGate::One(gates::u3(a[0], a[1], a[2]), self.qubits[0]),
            GateKind::Cx => ResolvedGate::Two(gates::cx(), self.qubits[0], self.qubits[1]),
            GateKind::Cz => ResolvedGate::Two(gates::cz(), self.qubits[0], self.qubits[1]),
            GateKind::Swap => ResolvedGate::Two(gates::swap(), self.qubits[0], self.qubits[1]),
            GateKind::Rzz => ResolvedGate::Two(gates::rzz(a[0]), self.qubits[0], self.qubits[1]),
            GateKind::Crz => ResolvedGate::Two(gates::crz(a[0]), self.qubits[0], self.qubits[1]),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if !self.angles.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.angles.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        write!(f, " ")?;
        for (i, q) in self.qubits.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "q{q}")?;
        }
        Ok(())
    }
}

/// A gate with all angles bound, ready for a simulator.
#[derive(Debug, Clone)]
pub enum ResolvedGate {
    /// Single-qubit unitary on a qubit.
    One(Mat2, usize),
    /// Two-qubit unitary on `(q0, q1)`.
    Two(Mat4, usize, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamId;

    #[test]
    fn arity_and_angle_counts() {
        assert_eq!(GateKind::H.arity(), 1);
        assert_eq!(GateKind::Cx.arity(), 2);
        assert_eq!(GateKind::U3.n_angles(), 3);
        assert_eq!(GateKind::Rzz.n_angles(), 1);
        assert_eq!(GateKind::X.n_angles(), 0);
    }

    #[test]
    fn gate_construction_validates() {
        let g = Gate::new(GateKind::Rz, vec![3], vec![Angle::param(ParamId(0))]);
        assert!(g.is_parametric());
    }

    #[test]
    #[should_panic(expected = "expects 1 angle")]
    fn missing_angle_panics() {
        Gate::new(GateKind::Rx, vec![0], vec![]);
    }

    #[test]
    #[should_panic(expected = "distinct qubits")]
    fn repeated_qubit_panics() {
        Gate::new(GateKind::Cx, vec![1, 1], vec![]);
    }

    #[test]
    fn resolve_produces_expected_arity() {
        let g = Gate::new(GateKind::Cx, vec![0, 1], vec![]);
        match g.resolve(&[]) {
            ResolvedGate::Two(_, 0, 1) => {}
            other => panic!("unexpected resolution {other:?}"),
        }
    }

    #[test]
    fn display_shows_mnemonic_and_operands() {
        let g = Gate::new(GateKind::Rzz, vec![0, 2], vec![Angle::constant(0.5)]);
        assert_eq!(g.to_string(), "rzz(0.5) q0,q2");
    }
}
