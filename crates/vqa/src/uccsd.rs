//! Ansatz construction beyond QAOA: generic Pauli-evolution gadgets, the
//! 3-parameter UCCSD ansatz for H₂ (Sec. V-C of the paper), and the
//! hardware-efficient two-local ansatz used in the Fig. 3 mitigation study.

use crate::pauli::{Pauli, PauliString};
use qoncord_circuit::circuit::Circuit;
use qoncord_circuit::param::{Angle, ParamId};
use std::f64::consts::FRAC_PI_2;

/// Appends `exp(−i·(angle/2)·P)` for a Pauli string `P` using the standard
/// basis-change + CNOT-ladder + RZ construction.
///
/// The `angle` may be symbolic; identity strings are a no-op.
///
/// # Panics
///
/// Panics if the string size differs from the circuit register.
fn append_pauli_evolution(circuit: &mut Circuit, pauli: &PauliString, angle: Angle) {
    assert_eq!(
        pauli.n_qubits(),
        circuit.n_qubits(),
        "pauli register size mismatch"
    );
    let support = pauli.support();
    if support.is_empty() {
        return; // global phase only
    }
    // Basis change into Z: H for X, RX(π/2) for Y.
    for &q in &support {
        match pauli.op(q) {
            Pauli::X => {
                circuit.h(q);
            }
            Pauli::Y => {
                circuit.rx(q, Angle::constant(FRAC_PI_2));
            }
            Pauli::Z => {}
            Pauli::I => unreachable!("support excludes identity"),
        }
    }
    // Parity ladder onto the last support qubit.
    let target = *support.last().expect("non-empty support");
    for w in support.windows(2) {
        circuit.cx(w[0], w[1]);
    }
    circuit.rz(target, angle);
    for w in support.windows(2).rev() {
        circuit.cx(w[0], w[1]);
    }
    // Undo basis change.
    for &q in &support {
        match pauli.op(q) {
            Pauli::X => {
                circuit.h(q);
            }
            Pauli::Y => {
                circuit.rx(q, Angle::constant(-FRAC_PI_2));
            }
            _ => {}
        }
    }
}

/// Builds the 3-parameter UCCSD ansatz for H₂ on 4 qubits: Hartree–Fock
/// preparation followed by two single excitations (θ0: 0→2, θ1: 1→3) and the
/// double excitation 01→23 (θ2).
///
/// `hf_state` is the Hartree–Fock determinant bitmask (see
/// [`crate::vqe::h2_hartree_fock_state`]).
///
/// # Examples
///
/// ```
/// use qoncord_vqa::{uccsd, vqe};
///
/// let ansatz = uccsd::uccsd_h2_ansatz(vqe::h2_hartree_fock_state());
/// assert_eq!(ansatz.n_params(), 3);
/// assert_eq!(ansatz.n_qubits(), 4);
/// ```
pub fn uccsd_h2_ansatz(hf_state: usize) -> Circuit {
    let mut qc = Circuit::new(4, 3);
    for q in 0..4 {
        if hf_state & (1 << q) != 0 {
            qc.x(q);
        }
    }
    // Single excitations: exp(−iθ/2 (Y q Z X v − X q Z Y v)) realized as two
    // opposite-angle evolutions.
    let singles = [
        (ParamId(0), ("YZXI", "XZYI")),
        (ParamId(1), ("IYZX", "IXZY")),
    ];
    for (param, (plus, minus)) in singles {
        let p_plus = PauliString::parse(plus).expect("valid label");
        let p_minus = PauliString::parse(minus).expect("valid label");
        append_pauli_evolution(&mut qc, &p_plus, Angle::param(param));
        append_pauli_evolution(&mut qc, &p_minus, Angle::scaled(param, -1.0));
    }
    // Double excitation 01→23: the standard 8-term expansion with ±θ/4.
    let doubles_plus = ["XXXY", "XXYX", "XYYY", "YXYY"];
    let doubles_minus = ["XYXX", "YXXX", "YYXY", "YYYX"];
    for label in doubles_plus {
        let p = PauliString::parse(label).expect("valid label");
        append_pauli_evolution(&mut qc, &p, Angle::scaled(ParamId(2), 0.25));
    }
    for label in doubles_minus {
        let p = PauliString::parse(label).expect("valid label");
        append_pauli_evolution(&mut qc, &p, Angle::scaled(ParamId(2), -0.25));
    }
    qc
}

/// Builds a hardware-efficient "two-local" ansatz: `reps` blocks of per-qubit
/// RY rotations followed by a linear CNOT entangling chain, with a final
/// rotation layer. Parameter count is `n_qubits · (reps + 1)`.
///
/// This mirrors Qiskit's `TwoLocal(ry, cx, linear)`, the ansatz family the
/// paper's Fig. 3 evaluates under error mitigation.
///
/// # Panics
///
/// Panics if `n_qubits == 0`.
pub fn two_local_ansatz(n_qubits: usize, reps: usize) -> Circuit {
    assert!(n_qubits > 0, "ansatz needs at least one qubit");
    let n_params = n_qubits * (reps + 1);
    let mut qc = Circuit::new(n_qubits, n_params);
    let mut next_param = 0usize;
    for rep in 0..=reps {
        for q in 0..n_qubits {
            qc.ry(q, Angle::param(ParamId(next_param)));
            next_param += 1;
        }
        if rep < reps {
            for q in 0..n_qubits.saturating_sub(1) {
                qc.cx(q, q + 1);
            }
        }
    }
    qc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{CostEvaluator, VqeEvaluator};
    use crate::vqe;
    use qoncord_device::catalog;
    use qoncord_device::noise_model::SimulatedBackend;
    use qoncord_sim::dist::ProbDist;
    use qoncord_sim::statevector::StateVector;

    #[test]
    fn z_evolution_reduces_to_rz() {
        // exp(-iθ/2 Z0) must act like rz(θ) on qubit 0 for superpositions.
        let theta = 0.83;
        let mut evo = Circuit::new(2, 0);
        evo.h(0);
        append_pauli_evolution(
            &mut evo,
            &PauliString::parse("ZI").unwrap(),
            Angle::constant(theta),
        );
        let mut direct = Circuit::new(2, 0);
        direct.h(0).rz(0, theta);
        let a = evo.simulate_ideal(&[]);
        let b = direct.simulate_ideal(&[]);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn xx_evolution_entangles() {
        let mut qc = Circuit::new(2, 0);
        append_pauli_evolution(
            &mut qc,
            &PauliString::parse("XX").unwrap(),
            Angle::constant(FRAC_PI_2),
        );
        let sv = qc.simulate_ideal(&[]);
        let d = ProbDist::new(sv.probabilities());
        // exp(-iπ/4 XX)|00> = (|00> - i|11>)/√2.
        assert!((d.probabilities()[0] - 0.5).abs() < 1e-10);
        assert!((d.probabilities()[3] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn evolution_matches_taylor_identity_on_eigenstate() {
        // On a Z-basis eigenstate with eigenvalue λ = ±1, exp(-iθ/2 P) adds
        // phase e^{∓iθ/2}: probabilities unchanged.
        let mut qc = Circuit::new(3, 0);
        qc.x(1);
        append_pauli_evolution(
            &mut qc,
            &PauliString::parse("ZZI").unwrap(),
            Angle::constant(1.3),
        );
        let sv = qc.simulate_ideal(&[]);
        assert!((sv.probabilities()[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_angle_is_identity() {
        let mut qc = Circuit::new(4, 0);
        qc.h(0).cx(0, 2);
        let before = qc.simulate_ideal(&[]);
        append_pauli_evolution(
            &mut qc,
            &PauliString::parse("XYZX").unwrap(),
            Angle::constant(0.0),
        );
        let after = qc.simulate_ideal(&[]);
        assert!((before.fidelity(&after) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn uccsd_at_zero_parameters_is_hartree_fock() {
        let hf = vqe::h2_hartree_fock_state();
        let ansatz = uccsd_h2_ansatz(hf);
        let sv = ansatz.simulate_ideal(&[0.0, 0.0, 0.0]);
        let expect = StateVector::basis_state(4, hf);
        assert!((sv.fidelity(&expect) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn uccsd_spans_the_ground_state() {
        // Coarse sweep over the double-excitation angle must dip below HF
        // energy and approach the exact ground state. Energies are measured
        // the way VQE jobs read them, on the ideal backend.
        let h = vqe::h2_hamiltonian();
        let hf = vqe::h2_hartree_fock_state();
        let ansatz = uccsd_h2_ansatz(hf);
        let backend = SimulatedBackend::ideal(catalog::ibmq_kolkata());
        let mut eval = VqeEvaluator::new(&h, &ansatz, backend, 0);
        let e_hf = eval.evaluate(&[0.0, 0.0, 0.0]).expectation;
        let mut best = f64::INFINITY;
        for k in -40..=40 {
            let t2 = k as f64 * 0.05;
            best = best.min(eval.evaluate(&[0.0, 0.0, t2]).expectation);
        }
        let ground = vqe::h2_ground_energy();
        assert!(best < e_hf - 1e-4, "double excitation lowers energy");
        assert!(
            (best - ground).abs() < 2e-3,
            "UCCSD sweep reaches ground: best {best}, ground {ground}"
        );
    }

    #[test]
    fn two_local_parameter_count() {
        let qc = two_local_ansatz(8, 2);
        assert_eq!(qc.n_params(), 24);
        assert_eq!(qc.count_2q(), 2 * 7);
    }

    #[test]
    fn two_local_at_zero_is_identity_on_zero_state() {
        let qc = two_local_ansatz(4, 2);
        let sv = qc.simulate_ideal(&vec![0.0; qc.n_params()]);
        assert!((sv.probabilities()[0] - 1.0).abs() < 1e-12);
    }
}
