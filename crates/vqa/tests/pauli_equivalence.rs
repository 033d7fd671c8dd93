//! Differential equivalence suite for the batched Pauli-expectation sweeps:
//! the masked fast paths against the seed `O(4^n)` dense-matrix route
//! (`expectation_sv_reference`) and the sequential per-term scalar path
//! (`expectation_sv_unbatched`), pinned per QWC group; and the batched
//! sweep's summation order, bitwise, above one chunk.

use proptest::prelude::*;
use qoncord_circuit::circuit::Circuit;
use qoncord_sim::math::C64;
use qoncord_sim::statevector::StateVector;
use qoncord_vqa::pauli::{Pauli, PauliString, PauliSum};

fn pauli(code: u8) -> Pauli {
    match code & 3 {
        0 => Pauli::I,
        1 => Pauli::X,
        2 => Pauli::Y,
        _ => Pauli::Z,
    }
}

/// Random `PauliSum` on `n` qubits, including Y factors and an identity term.
fn sum_strategy(n: usize) -> impl Strategy<Value = Vec<(f64, Vec<u8>)>> {
    proptest::collection::vec(
        (-2.0..2.0f64, proptest::collection::vec(0u8..4, n..=n)),
        1..8,
    )
}

fn build_sum(raw: &[(f64, Vec<u8>)]) -> PauliSum {
    let terms: Vec<(f64, PauliString)> = raw
        .iter()
        .map(|(c, codes)| {
            (
                *c,
                PauliString::new(codes.iter().map(|&k| pauli(k)).collect()),
            )
        })
        .collect();
    PauliSum::new(terms)
}

/// Random entangled state from an opcode program.
fn state_strategy(n: usize) -> impl Strategy<Value = Vec<(u8, usize, f64)>> {
    proptest::collection::vec((0u8..4, 0..n, -3.0..3.0f64), 1..16)
}

fn build_state(n: usize, ops: &[(u8, usize, f64)]) -> StateVector {
    let mut qc = Circuit::new(n, 0);
    for &(op, q, angle) in ops {
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
            _ => {
                qc.cx(q, (q + 1) % n);
            }
        }
    }
    qc.simulate_ideal(&[])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched masked sweeps match the dense-matrix seed route.
    #[test]
    fn batched_matches_dense_reference(
        raw in sum_strategy(4),
        ops in state_strategy(4),
    ) {
        let h = build_sum(&raw);
        let sv = build_state(4, &ops);
        let dense = h.expectation_sv_reference(&sv);
        let batched = h.expectation_statevector(&sv);
        let unbatched = h.expectation_sv_unbatched(&sv);
        prop_assert!((batched - dense).abs() < 1e-10, "batched {batched} vs dense {dense}");
        prop_assert!((unbatched - dense).abs() < 1e-10, "unbatched {unbatched} vs dense {dense}");
    }

    /// The sequential scalar path stays within rounding of the batched
    /// result.
    #[test]
    fn reference_mode_matches_batched(
        raw in sum_strategy(4),
        ops in state_strategy(4),
    ) {
        let h = build_sum(&raw);
        let sv = build_state(4, &ops);
        let fast = h.expectation_statevector(&sv);
        let scalar = h.expectation_sv_unbatched(&sv);
        prop_assert!((fast - scalar).abs() < 1e-12, "fast {fast} vs scalar {scalar}");
    }

    /// Summing one batched sweep per QWC group (plus the identity offset)
    /// equals both the whole-Hamiltonian sweep and per-term evaluation.
    #[test]
    fn group_sweeps_are_pinned_to_per_term_sums(
        raw in sum_strategy(5),
        ops in state_strategy(5),
    ) {
        let h = build_sum(&raw);
        let sv = build_state(5, &ops);
        let whole = h.expectation_statevector(&sv);
        let groups = h.qubit_wise_commuting_groups();
        let by_group: f64 = groups.iter().map(|g| h.expectation_sv_group(g, &sv)).sum::<f64>()
            + h.identity_offset();
        let per_term: f64 = groups
            .iter()
            .flatten()
            .map(|&i| h.expectation_sv_group(&[i], &sv))
            .sum::<f64>()
            + h.identity_offset();
        prop_assert!((by_group - whole).abs() < 1e-10, "groups {by_group} vs whole {whole}");
        prop_assert!((per_term - whole).abs() < 1e-10, "terms {per_term} vs whole {whole}");
    }
}

/// The batched sweep's floating-point summation order is part of its
/// result: per 4096-amplitude chunk one partial (diagonal terms: each
/// term's signed `|ψ|²` series times its coefficient, added in term order;
/// off-diagonal terms: one complex partial per term), the partials folded in
/// chunk order. The benchmark's largest register (9 qubits) is a single
/// chunk, so this is the only pin above it; a sweep rewritten as one flat
/// sum per term passes every tolerance test and fails here.
#[test]
fn expectation_folds_per_chunk_partials_in_chunk_order() {
    const CHUNK: usize = 4096;
    for n in [13usize, 14] {
        let mut ops: Vec<(u8, usize, f64)> =
            (0..n).map(|q| (1, q, 0.3 + 0.37 * q as f64)).collect();
        ops.extend((0..n).map(|q| (3, q, 0.0)));
        ops.extend((0..n).map(|q| (2, q, 1.1 - 0.21 * q as f64)));
        ops.extend((0..n).map(|q| (1, q, -0.8 + 0.13 * q as f64 + 0.01 * n as f64)));
        let sv = build_state(n, &ops);
        // Codes: 0 I, 1 X, 2 Y, 3 Z. Diagonal and off-diagonal terms, an
        // identity, Y factors in every residue of the phase.
        let raw: Vec<(f64, Vec<u8>)> = (0..n)
            .map(|q| {
                let mut codes = vec![0u8; n];
                codes[q] = 3;
                codes[(q + 1) % n] = 3;
                (0.5 + 0.1 * q as f64, codes)
            })
            .chain([(0.25, vec![0u8; n])])
            .chain((0..n).map(|q| {
                let mut codes = vec![0u8; n];
                codes[q] = 1 + (q % 2) as u8;
                codes[(q + 3) % n] = 2;
                codes[(q + 5) % n] = 3;
                (-0.7 + 0.15 * q as f64, codes)
            }))
            .collect();
        let h = build_sum(&raw);

        let amps = sv.amplitudes();
        let signed =
            |i: usize, z: usize, x: f64| if (i & z).count_ones() & 1 == 0 { x } else { -x };
        let masks: Vec<_> = h.terms().iter().map(|(c, p)| (*c, p.masks())).collect();
        assert!(amps.len() >= 2 * CHUNK);

        // The sweep as specified, over chunks `width` amplitudes wide.
        let expectation = |width: usize| {
            let ranges: Vec<_> = (0..amps.len())
                .step_by(width)
                .map(|lo| lo..lo + width)
                .collect();
            let mut diag = 0.0f64;
            for r in &ranges {
                let mut partial = 0.0f64;
                for &(c, m) in masks.iter().filter(|(_, m)| m.x == 0) {
                    let mut t = 0.0f64;
                    for i in r.clone() {
                        t += signed(i, m.z, amps[i].norm_sq());
                    }
                    partial += c * t;
                }
                diag += partial;
            }
            let mut total = diag;
            for &(c, m) in masks.iter().filter(|(_, m)| m.x != 0) {
                let mut sum = C64::ZERO;
                for r in &ranges {
                    let mut t = C64::ZERO;
                    for i in r.clone() {
                        let psi = C64 {
                            re: signed(i, m.z, amps[i].re),
                            im: signed(i, m.z, amps[i].im),
                        };
                        t += amps[i ^ m.x].conj() * psi;
                    }
                    sum += t;
                }
                total += c * match m.y_mod4 & 3 {
                    0 => sum.re,
                    1 => -sum.im,
                    2 => -sum.re,
                    _ => sum.im,
                };
            }
            total
        };

        let got = h.expectation_statevector(&sv);
        let want = expectation(CHUNK);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{n} qubits: {got:e} is not the chunk-ordered fold {want:e}"
        );
        assert_ne!(
            want.to_bits(),
            expectation(amps.len()).to_bits(),
            "{n} qubits: this state cannot tell a chunked fold from a flat sum"
        );
    }
}
