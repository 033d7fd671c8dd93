//! The measured energy path against the dense expectation: a VQE
//! evaluation on the ideal backend (one distribution per QWC group, after
//! its `group_rotation`, read through `expectation_from_dist`) equals
//! `⟨ψ|H|ψ⟩` computed here from `PauliSum::matrix` and the ansatz's
//! amplitudes.

use proptest::prelude::*;
use qoncord_circuit::circuit::Circuit;
use qoncord_device::catalog;
use qoncord_device::noise_model::SimulatedBackend;
use qoncord_vqa::evaluator::{CostEvaluator, VqeEvaluator};
use qoncord_vqa::pauli::{Pauli, PauliString, PauliSum};

const N: usize = 4;

fn pauli(code: u8) -> Pauli {
    match code & 3 {
        0 => Pauli::I,
        1 => Pauli::X,
        2 => Pauli::Y,
        _ => Pauli::Z,
    }
}

fn string(codes: &[u8]) -> PauliString {
    PauliString::new(codes.iter().map(|&k| pauli(k)).collect())
}

/// A random sum on `N` qubits: a first term with a Y factor (so at least
/// one term needs measuring), up to six random terms, and an identity term.
fn sum_strategy() -> impl Strategy<Value = PauliSum> {
    (
        (-2.0..2.0f64, proptest::collection::vec(0u8..4, N..=N), 0..N),
        proptest::collection::vec(
            (-2.0..2.0f64, proptest::collection::vec(0u8..4, N..=N)),
            0..7,
        ),
        -2.0..2.0f64,
    )
        .prop_map(|((c, mut codes, y_qubit), rest, offset)| {
            codes[y_qubit] = 2;
            let mut terms = vec![(c, string(&codes))];
            terms.extend(rest.iter().map(|(c, codes)| (*c, string(codes))));
            terms.push((offset, PauliString::identity(N)));
            PauliSum::new(terms)
        })
}

/// A random constant-angle circuit on `N` qubits.
fn ansatz_strategy() -> impl Strategy<Value = Circuit> {
    proptest::collection::vec((0u8..5, 0..N, -3.0..3.0f64), 1..16).prop_map(|ops| {
        let mut qc = Circuit::new(N, 0);
        for (op, q, angle) in ops {
            match op {
                0 => {
                    qc.h(q);
                }
                1 => {
                    qc.ry(q, angle);
                }
                2 => {
                    qc.rz(q, angle);
                }
                3 => {
                    qc.s(q);
                }
                _ => {
                    qc.cx(q, (q + 1) % N);
                }
            }
        }
        qc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn measured_energy_is_the_dense_expectation(
        h in sum_strategy(),
        ansatz in ansatz_strategy(),
    ) {
        let backend = SimulatedBackend::ideal(catalog::ibmq_kolkata());
        let measured = VqeEvaluator::new(&h, &ansatz, backend, 0).evaluate(&[]).expectation;

        let psi = ansatz.simulate_ideal(&[]);
        let amps = psi.amplitudes();
        let m = h.matrix();
        let mut dense = 0.0;
        for (r, a) in amps.iter().enumerate() {
            for (c, b) in amps.iter().enumerate() {
                dense += (a.conj() * m[(r, c)] * *b).re;
            }
        }
        prop_assert!(
            (measured - dense).abs() < 1e-9,
            "measured {measured} vs dense {dense} for {:?}",
            h.terms().iter().map(|(c, p)| format!("{c:+.3} {p}")).collect::<Vec<_>>()
        );
    }
}
