//! Property-based tests of the transpiler: distribution preservation and
//! coupling-map compliance for arbitrary circuits and maps.

use proptest::prelude::*;
use qoncord_circuit::circuit::Circuit;
use qoncord_circuit::coupling::CouplingMap;
use qoncord_circuit::gate::GateKind;
use qoncord_circuit::param::ParamId;
use qoncord_circuit::transpile::{decompose_to_basis, optimize, transpile};
use qoncord_sim::dist::ProbDist;

fn arbitrary_circuit(n: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec((0u8..8, 0..n, 0..n, -3.0..3.0f64), 1..18).prop_map(move |ops| {
        let mut qc = Circuit::new(n, 1);
        for (op, a, b, angle) in ops {
            match op {
                0 => {
                    qc.h(a);
                }
                1 => {
                    qc.rx(a, angle);
                }
                2 => {
                    qc.ry(a, angle);
                }
                3 => {
                    qc.rz(a, ParamId(0));
                }
                4 if a != b => {
                    qc.cx(a, b);
                }
                5 if a != b => {
                    qc.rzz(a, b, angle);
                }
                6 if a != b => {
                    qc.cz(a, b);
                }
                7 if a != b => {
                    qc.swap(a, b);
                }
                _ => {}
            }
        }
        qc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Basis decomposition preserves the output distribution.
    #[test]
    fn decomposition_preserves_distribution(circuit in arbitrary_circuit(4), theta in -3.0..3.0f64) {
        let basis = decompose_to_basis(&circuit);
        let a = ProbDist::new(circuit.simulate_ideal(&[theta]).probabilities());
        let b = ProbDist::new(basis.simulate_ideal(&[theta]).probabilities());
        prop_assert!(a.total_variation(&b) < 1e-8, "tv {}", a.total_variation(&b));
        // Basis alphabet only.
        for g in basis.gates() {
            prop_assert!(matches!(g.kind(),
                GateKind::Rz | GateKind::Sx | GateKind::X | GateKind::Cx));
        }
    }

    /// Peephole optimization preserves the distribution and never grows
    /// the circuit.
    #[test]
    fn optimization_preserves_distribution(circuit in arbitrary_circuit(4), theta in -3.0..3.0f64) {
        let basis = decompose_to_basis(&circuit);
        let opt = optimize(&basis);
        prop_assert!(opt.len() <= basis.len());
        let a = ProbDist::new(basis.simulate_ideal(&[theta]).probabilities());
        let b = ProbDist::new(opt.simulate_ideal(&[theta]).probabilities());
        prop_assert!(a.total_variation(&b) < 1e-8);
    }

    /// Full transpilation onto a chain respects the coupling map and
    /// preserves the logical distribution after remapping.
    #[test]
    fn routing_respects_coupling(circuit in arbitrary_circuit(4), theta in -3.0..3.0f64) {
        let t = transpile(&circuit, &CouplingMap::linear(4));
        for g in t.circuit.gates() {
            if g.qubits().len() == 2 {
                prop_assert!(t.region_coupling.are_adjacent(g.qubits()[0], g.qubits()[1]),
                    "gate {:?} violates coupling", g);
            }
        }
        let ideal = ProbDist::new(circuit.simulate_ideal(&[theta]).probabilities());
        let routed = ProbDist::new(
            t.remap_probabilities(&t.circuit.simulate_ideal(&[theta]).probabilities()));
        prop_assert!(ideal.total_variation(&routed) < 1e-8);
    }

    /// Depth is always at least max(1q-run) and at most total gates.
    #[test]
    fn depth_bounds(circuit in arbitrary_circuit(5)) {
        let d = circuit.depth();
        prop_assert!(d <= circuit.len());
        if !circuit.is_empty() {
            prop_assert!(d >= 1);
        }
    }
}
