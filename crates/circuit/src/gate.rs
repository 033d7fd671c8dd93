//! Gate instructions of the circuit IR.

use crate::param::Angle;
use qoncord_sim::fuse::FusedOp;
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
///
/// The operands are stored inline — a transpile pass copies a gate, it does
/// not allocate — and read through [`Gate::qubits`] and [`Gate::angles`],
/// slices of the lengths the kind dictates.
#[derive(Clone, Copy, PartialEq)]
pub struct Gate {
    kind: GateKind,
    /// The first `kind.arity()` entries; the rest stay `0`.
    qubits: [usize; 2],
    /// The first `kind.n_angles()` entries; the rest stay a constant `0`.
    angles: [Angle; 3],
}

impl Gate {
    /// Creates a gate, validating operand counts.
    ///
    /// # Panics
    ///
    /// Panics if qubit or angle counts mismatch the gate kind, or if a
    /// two-qubit gate repeats a qubit.
    pub fn new(kind: GateKind, qubits: &[usize], angles: &[Angle]) -> Self {
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
        let mut gate = Gate {
            kind,
            qubits: [0; 2],
            angles: [Angle::constant(0.0); 3],
        };
        gate.qubits[..qubits.len()].copy_from_slice(qubits);
        gate.angles[..angles.len()].copy_from_slice(angles);
        gate
    }

    /// Which gate.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Qubit operands (length = `kind.arity()`).
    pub fn qubits(&self) -> &[usize] {
        &self.qubits[..self.kind.arity()]
    }

    /// Angle operands (length = `kind.n_angles()`).
    pub fn angles(&self) -> &[Angle] {
        &self.angles[..self.kind.n_angles()]
    }

    /// The same gate with every qubit operand `q` replaced by `to[q]`.
    ///
    /// # Panics
    ///
    /// Panics if an operand is outside `to`, or `to` sends a two-qubit
    /// gate's operands to one qubit.
    pub fn on(mut self, to: &[usize]) -> Self {
        for q in &mut self.qubits[..self.kind.arity()] {
            *q = to[*q];
        }
        assert!(
            self.kind.arity() == 1 || self.qubits[0] != self.qubits[1],
            "{} requires distinct qubits",
            self.kind
        );
        self
    }

    /// Returns `true` if any angle depends on a trainable parameter.
    pub fn is_parametric(&self) -> bool {
        self.angles().iter().any(Angle::is_parametric)
    }

    /// Resolves the gate to a concrete unitary, given bound parameter values.
    ///
    /// # Panics
    ///
    /// Panics if an angle references an unbound parameter.
    pub fn resolve(&self, params: &[f64]) -> ResolvedGate {
        let a = self.angles.map(|ang| ang.resolve(params));
        let [q0, q1] = self.qubits;
        match self.kind {
            GateKind::H => ResolvedGate::One(gates::h(), q0),
            GateKind::X => ResolvedGate::One(gates::x(), q0),
            GateKind::Y => ResolvedGate::One(gates::y(), q0),
            GateKind::Z => ResolvedGate::One(gates::z(), q0),
            GateKind::S => ResolvedGate::One(gates::s(), q0),
            GateKind::Sdg => ResolvedGate::One(gates::sdg(), q0),
            GateKind::T => ResolvedGate::One(gates::t(), q0),
            GateKind::Tdg => ResolvedGate::One(gates::tdg(), q0),
            GateKind::Sx => ResolvedGate::One(gates::sx(), q0),
            GateKind::Rx => ResolvedGate::One(gates::rx(a[0]), q0),
            GateKind::Ry => ResolvedGate::One(gates::ry(a[0]), q0),
            GateKind::Rz => ResolvedGate::One(gates::rz(a[0]), q0),
            GateKind::P => ResolvedGate::One(gates::p(a[0]), q0),
            GateKind::U3 => ResolvedGate::One(gates::u3(a[0], a[1], a[2]), q0),
            GateKind::Cx => ResolvedGate::Two(gates::cx(), q0, q1),
            GateKind::Cz => ResolvedGate::Two(gates::cz(), q0, q1),
            GateKind::Swap => ResolvedGate::Two(gates::swap(), q0, q1),
            GateKind::Rzz => ResolvedGate::Two(gates::rzz(a[0]), q0, q1),
            GateKind::Crz => ResolvedGate::Two(gates::crz(a[0]), q0, q1),
        }
    }

    /// Lowers the gate against a parameter vector into the simulator's
    /// instruction set. CX and RZ stay symbolic so their dedicated kernels —
    /// and the fusion passes — can exploit them.
    ///
    /// # Panics
    ///
    /// Panics if an angle references an unbound parameter.
    pub fn bind_op(&self, params: &[f64]) -> FusedOp {
        match self.kind {
            GateKind::Cx => FusedOp::Cx(self.qubits[0], self.qubits[1]),
            GateKind::Rz => FusedOp::Rz(self.angles[0].resolve(params), self.qubits[0]),
            _ => match self.resolve(params) {
                ResolvedGate::One(u, q) => FusedOp::One(u, q),
                ResolvedGate::Two(u, a, b) => FusedOp::Two(u, a, b),
            },
        }
    }
}

/// Prints the operands the kind has, not the inline storage behind them.
impl fmt::Debug for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gate")
            .field("kind", &self.kind)
            .field("qubits", &self.qubits())
            .field("angles", &self.angles())
            .finish()
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if !self.angles().is_empty() {
            write!(f, "(")?;
            for (i, a) in self.angles().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        write!(f, " ")?;
        for (i, q) in self.qubits().iter().enumerate() {
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
        let g = Gate::new(GateKind::Rz, &[3], &[Angle::param(ParamId(0))]);
        assert!(g.is_parametric());
    }

    #[test]
    #[should_panic(expected = "expects 1 angle")]
    fn missing_angle_panics() {
        Gate::new(GateKind::Rx, &[0], &[]);
    }

    #[test]
    #[should_panic(expected = "distinct qubits")]
    fn repeated_qubit_panics() {
        Gate::new(GateKind::Cx, &[1, 1], &[]);
    }

    #[test]
    fn resolve_produces_expected_arity() {
        let g = Gate::new(GateKind::Cx, &[0, 1], &[]);
        match g.resolve(&[]) {
            ResolvedGate::Two(_, 0, 1) => {}
            other => panic!("unexpected resolution {other:?}"),
        }
    }

    #[test]
    fn display_shows_mnemonic_and_operands() {
        let g = Gate::new(GateKind::Rzz, &[0, 2], &[Angle::constant(0.5)]);
        assert_eq!(g.to_string(), "rzz(0.5) q0,q2");
    }
}
