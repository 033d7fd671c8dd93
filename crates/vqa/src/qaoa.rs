//! QAOA ansatz construction (Farhi et al., the paper's primary workload).
//!
//! A `p`-layer QAOA circuit for Max-Cut alternates the cost unitary
//! `exp(−iγ_k H_C)` (one `RZZ(2·w·γ_k)` per edge) with the mixer
//! `exp(−iβ_k Σ X)` (one `RX(2·β_k)` per qubit), starting from `|+⟩^n`.
//! Parameters are ordered `[γ_1…γ_p, β_1…β_p]`.

use crate::graph::Graph;
use qoncord_circuit::circuit::Circuit;
use qoncord_circuit::param::{Angle, ParamId};

/// Builds the `p`-layer QAOA circuit for Max-Cut on `graph`.
///
/// # Panics
///
/// Panics if `layers == 0`.
///
/// # Examples
///
/// ```
/// use qoncord_vqa::graph::Graph;
/// use qoncord_vqa::qaoa;
///
/// let qc = qaoa::build_circuit(&Graph::paper_graph_7(), 2);
/// assert_eq!(qc.n_params(), 4); // γ1 γ2 β1 β2
/// assert_eq!(qc.n_qubits(), 7);
/// ```
pub fn build_circuit(graph: &Graph, layers: usize) -> Circuit {
    assert!(layers > 0, "QAOA needs at least one layer");
    let n = graph.n_nodes();
    let mut qc = Circuit::new(n, 2 * layers);
    for q in 0..n {
        qc.h(q);
    }
    for layer in 0..layers {
        let gamma = ParamId(layer);
        let beta = ParamId(layers + layer);
        for &(a, b, w) in graph.edges() {
            qc.rzz(a, b, Angle::scaled(gamma, 2.0 * w));
        }
        for q in 0..n {
            qc.rx(q, Angle::scaled(beta, 2.0));
        }
    }
    qc
}

/// Number of parameters of a `p`-layer QAOA circuit.
pub fn n_params(layers: usize) -> usize {
    2 * layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxcut::MaxCut;
    use qoncord_sim::dist::ProbDist;

    #[test]
    fn structure_counts() {
        let g = Graph::paper_graph_7();
        let qc = build_circuit(&g, 3);
        // n Hadamards + per layer: |E| rzz + n rx.
        assert_eq!(qc.count_1q(), 7 + 3 * 7);
        assert_eq!(qc.count_2q(), 3 * g.n_edges());
        assert_eq!(qc.n_params(), 6);
    }

    #[test]
    fn zero_parameters_give_uniform_distribution() {
        let g = Graph::paper_graph_7();
        let qc = build_circuit(&g, 1);
        let sv = qc.simulate_ideal(&[0.0, 0.0]);
        let d = ProbDist::new(sv.probabilities());
        let uniform = ProbDist::uniform(7);
        assert!(d.total_variation(&uniform) < 1e-9);
    }

    #[test]
    fn qaoa_beats_random_guessing_on_triangle() {
        // On the triangle, tuned 1-layer QAOA must beat the uniform-state
        // expectation (E_uniform = -1.5 for 3 unit edges).
        let g = Graph::new(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let problem = MaxCut::new(g.clone());
        let qc = build_circuit(&g, 1);
        let mut best = f64::INFINITY;
        // Coarse grid search over (γ, β).
        for i in 0..24 {
            for j in 0..24 {
                let gamma = i as f64 * std::f64::consts::PI / 24.0;
                let beta = j as f64 * std::f64::consts::PI / 24.0;
                let d = ProbDist::new(qc.simulate_ideal(&[gamma, beta]).probabilities());
                best = best.min(problem.expectation(&d));
            }
        }
        assert!(
            best < -1.9,
            "1-layer QAOA should near the optimum, got {best}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_panics() {
        build_circuit(&Graph::paper_graph_7(), 0);
    }
}
