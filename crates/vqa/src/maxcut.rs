//! The Max-Cut problem: cost Hamiltonian, brute-force ground truth, and the
//! approximation-ratio accounting of the paper's Eq. 3.
//!
//! We use the energy convention `E(z) = −C(z)` where `C(z)` is the cut value,
//! so optimizers *minimize* the expectation (matching the paper's negative
//! expectation values, e.g. the −6.89 global optimum in Fig. 5) and
//! `approximation ratio = E_optimized / E_ground ∈ (0, 1]`.

use crate::graph::Graph;
use qoncord_sim::dist::ProbDist;

/// A Max-Cut instance over a weighted graph.
///
/// # Examples
///
/// ```
/// use qoncord_vqa::graph::Graph;
/// use qoncord_vqa::maxcut::MaxCut;
///
/// let problem = MaxCut::new(Graph::paper_graph_7());
/// let ground = problem.ground_energy();
/// assert!(ground < 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MaxCut {
    graph: Graph,
}

impl MaxCut {
    /// Wraps a graph as a Max-Cut problem.
    pub fn new(graph: Graph) -> Self {
        MaxCut { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of qubits needed (one per node).
    pub fn n_qubits(&self) -> usize {
        self.graph.n_nodes()
    }

    /// Cut value of the partition encoded by bitstring `z` (bit `i` = side of
    /// node `i`).
    fn cut_value(&self, z: usize) -> f64 {
        self.graph
            .edges()
            .iter()
            .map(|&(a, b, w)| {
                if ((z >> a) ^ (z >> b)) & 1 == 1 {
                    w
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Energy of a basis state: `E(z) = −C(z)`.
    pub fn energy(&self, z: usize) -> f64 {
        -self.cut_value(z)
    }

    /// The full energy diagonal over all `2^n` basis states.
    pub fn energy_diagonal(&self) -> Vec<f64> {
        (0..1usize << self.n_qubits())
            .map(|z| self.energy(z))
            .collect()
    }

    /// Expectation of the cost Hamiltonian under an outcome distribution.
    ///
    /// # Panics
    ///
    /// Panics if the distribution's register size mismatches the graph.
    pub fn expectation(&self, dist: &ProbDist) -> f64 {
        assert_eq!(dist.n_qubits(), self.n_qubits(), "register size mismatch");
        dist.expectation_fn(|z| self.energy(z))
    }

    /// Brute-force maximum cut: `(best bitstring, cut value)`.
    fn brute_force_max_cut(&self) -> (usize, f64) {
        let mut best = (0usize, f64::NEG_INFINITY);
        for z in 0..1usize << self.n_qubits() {
            let c = self.cut_value(z);
            if c > best.1 {
                best = (z, c);
            }
        }
        best
    }

    /// Ground-truth minimum energy `E_ground = −C_max` (Eq. 3 denominator).
    pub fn ground_energy(&self) -> f64 {
        -self.brute_force_max_cut().1
    }

    /// Approximation ratio of an optimized energy (Eq. 3):
    /// `E_optimized / E_ground`, clamped at 0 for positive energies.
    pub fn approximation_ratio(&self, optimized_energy: f64) -> f64 {
        let ground = self.ground_energy();
        if ground == 0.0 {
            return 1.0;
        }
        (optimized_energy / ground).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A triangle: max cut = 2 (any bipartition cuts two edges).
    fn triangle() -> MaxCut {
        MaxCut::new(Graph::new(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]))
    }

    #[test]
    fn triangle_max_cut_is_two() {
        let (z, c) = triangle().brute_force_max_cut();
        assert_eq!(c, 2.0);
        assert!(z != 0 && z != 0b111, "trivial partitions cut nothing");
    }

    #[test]
    fn cut_value_by_hand() {
        let p = triangle();
        assert_eq!(p.cut_value(0b000), 0.0);
        assert_eq!(p.cut_value(0b001), 2.0); // node 0 vs {1,2}
        assert_eq!(p.cut_value(0b011), 2.0); // {0,1} vs {2}
    }

    #[test]
    fn energy_is_negated_cut() {
        let p = triangle();
        assert_eq!(p.energy(0b001), -2.0);
        assert_eq!(p.ground_energy(), -2.0);
    }

    #[test]
    fn complement_has_equal_cut() {
        let p = MaxCut::new(Graph::paper_graph_7());
        let mask = (1usize << 7) - 1;
        for z in 0..(1usize << 7) {
            assert_eq!(p.cut_value(z), p.cut_value(!z & mask));
        }
    }

    #[test]
    fn diagonal_matches_energy() {
        let p = triangle();
        let diag = p.energy_diagonal();
        for z in 0..8 {
            assert_eq!(diag[z], p.energy(z));
        }
    }

    #[test]
    fn expectation_of_point_mass_is_energy() {
        let p = triangle();
        let (z, _) = p.brute_force_max_cut();
        let d = ProbDist::point_mass(3, z);
        assert_eq!(p.expectation(&d), p.ground_energy());
    }

    #[test]
    fn approximation_ratio_bounds() {
        let p = triangle();
        assert_eq!(p.approximation_ratio(p.ground_energy()), 1.0);
        assert_eq!(p.approximation_ratio(0.0), 0.0);
        let half = p.approximation_ratio(p.ground_energy() / 2.0);
        assert!((half - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_edges_respected() {
        let p = MaxCut::new(Graph::new(2, &[(0, 1, 3.5)]));
        assert_eq!(p.brute_force_max_cut().1, 3.5);
    }
}
