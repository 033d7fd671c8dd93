//! Undirected weighted graphs and the Erdős–Rényi generator used by the
//! paper's QAOA workloads (Sec. V-C: G(7, 0.5) and G(9, 0.5); Sec. VI-D adds
//! a 14-qubit instance).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An undirected weighted graph.
///
/// # Examples
///
/// ```
/// use qoncord_vqa::graph::Graph;
///
/// let g = Graph::paper_graph_7();
/// assert_eq!(g.n_nodes(), 7);
/// assert!(g.n_edges() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    n_nodes: usize,
    edges: Vec<(usize, usize, f64)>,
}

impl Graph {
    /// Builds a graph from weighted edges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self-loops, or duplicate edges.
    pub fn new(n_nodes: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut seen = std::collections::HashSet::new();
        for &(a, b, _) in edges {
            assert!(a < n_nodes && b < n_nodes, "edge ({a},{b}) out of range");
            assert_ne!(a, b, "self-loop on node {a}");
            assert!(
                seen.insert((a.min(b), a.max(b))),
                "duplicate edge ({a},{b})"
            );
        }
        Graph {
            n_nodes,
            edges: edges.to_vec(),
        }
    }

    /// Samples an Erdős–Rényi graph `G(n, p)` with unit edge weights.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn erdos_renyi(n_nodes: usize, p: f64, rng: &mut StdRng) -> Self {
        assert!((0.0..=1.0).contains(&p), "edge probability in [0,1]");
        let mut edges = Vec::new();
        for a in 0..n_nodes {
            for b in (a + 1)..n_nodes {
                if rng.random::<f64>() < p {
                    edges.push((a, b, 1.0));
                }
            }
        }
        Graph { n_nodes, edges }
    }

    /// Like `erdos_renyi` but guaranteed connected: resamples until
    /// every node is reachable (matching how benchmark instances are drawn).
    ///
    /// # Panics
    ///
    /// Panics if no connected instance is found in 1000 attempts (practically
    /// impossible for `p ≥ 0.3`, `n ≥ 3`).
    fn erdos_renyi_connected(n_nodes: usize, p: f64, rng: &mut StdRng) -> Self {
        for _ in 0..1000 {
            let g = Graph::erdos_renyi(n_nodes, p, rng);
            if g.is_connected() && g.n_edges() >= n_nodes - 1 {
                return g;
            }
        }
        panic!("no connected G({n_nodes},{p}) found in 1000 attempts");
    }

    /// The fixed 7-node Erdős–Rényi(0.5) instance used throughout the
    /// reproduction (seeded for determinism).
    pub fn paper_graph_7() -> Self {
        let mut rng = StdRng::seed_from_u64(0x7_0705);
        Graph::erdos_renyi_connected(7, 0.5, &mut rng)
    }

    /// The fixed 9-node Erdős–Rényi(0.5) instance (Sec. VI-C).
    pub fn paper_graph_9() -> Self {
        let mut rng = StdRng::seed_from_u64(0x9_0905);
        Graph::erdos_renyi_connected(9, 0.5, &mut rng)
    }

    /// The fixed 14-node Erdős–Rényi(0.5) instance (Sec. VI-D).
    pub fn paper_graph_14() -> Self {
        let mut rng = StdRng::seed_from_u64(0x14_1405);
        Graph::erdos_renyi_connected(14, 0.5, &mut rng)
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The weighted edge list.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Returns `true` if every node is reachable from node 0.
    pub fn is_connected(&self) -> bool {
        if self.n_nodes == 0 {
            return true;
        }
        let mut adj = vec![Vec::new(); self.n_nodes];
        for &(a, b, _) in &self.edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut seen = vec![false; self.n_nodes];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_graphs_are_deterministic_and_connected() {
        let a = Graph::paper_graph_7();
        let b = Graph::paper_graph_7();
        assert_eq!(a, b);
        assert!(a.is_connected());
        assert!(Graph::paper_graph_9().is_connected());
        assert!(Graph::paper_graph_14().is_connected());
    }

    #[test]
    fn er_density_close_to_p() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = Graph::erdos_renyi(40, 0.5, &mut rng);
        let max_edges = 40 * 39 / 2;
        let density = g.n_edges() as f64 / max_edges as f64;
        assert!((density - 0.5).abs() < 0.08, "density {density}");
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = Graph::new(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(!g.is_connected());
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected() {
        Graph::new(3, &[(0, 1, 1.0), (1, 0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Graph::new(3, &[(1, 1, 1.0)]);
    }
}
