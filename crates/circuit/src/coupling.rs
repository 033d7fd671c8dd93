//! Device coupling maps (qubit connectivity graphs).
//!
//! Includes the 27-qubit IBM Falcon heavy-hex lattice shown in Fig. 11 of the
//! Qoncord paper (shared by ibmq_toronto, ibmq_kolkata, ibmq_mumbai and
//! ibm_hanoi), the 16-qubit Guadalupe and 7-qubit Nairobi maps used in the
//! Fig. 8 device sweep, and the all-to-all connectivity of IonQ trapped-ion
//! systems.

use std::collections::VecDeque;

/// An undirected qubit-connectivity graph.
///
/// # Examples
///
/// ```
/// use qoncord_circuit::coupling::CouplingMap;
///
/// let falcon = CouplingMap::falcon_27();
/// assert_eq!(falcon.n_qubits(), 27);
/// assert!(falcon.is_connected());
/// assert!(falcon.are_adjacent(0, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingMap {
    n_qubits: usize,
    edges: Vec<(usize, usize)>,
    adjacency: Vec<Vec<usize>>,
}

impl CouplingMap {
    /// Builds a coupling map from undirected edges.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit `>= n_qubits` or is a self-loop.
    pub fn new(n_qubits: usize, edges: &[(usize, usize)]) -> Self {
        let mut adjacency = vec![Vec::new(); n_qubits];
        let mut normalized = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            assert!(a < n_qubits && b < n_qubits, "edge ({a},{b}) out of range");
            assert_ne!(a, b, "self-loop on qubit {a}");
            adjacency[a].push(b);
            adjacency[b].push(a);
            normalized.push((a.min(b), a.max(b)));
        }
        normalized.sort_unstable();
        normalized.dedup();
        CouplingMap {
            n_qubits,
            edges: normalized,
            adjacency,
        }
    }

    /// A 1-D chain `0 – 1 – … – (n−1)`.
    pub fn linear(n_qubits: usize) -> Self {
        let edges: Vec<_> = (0..n_qubits.saturating_sub(1))
            .map(|i| (i, i + 1))
            .collect();
        CouplingMap::new(n_qubits, &edges)
    }

    /// Full connectivity, as in IonQ trapped-ion systems.
    pub fn all_to_all(n_qubits: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n_qubits {
            for b in (a + 1)..n_qubits {
                edges.push((a, b));
            }
        }
        CouplingMap::new(n_qubits, &edges)
    }

    /// The 27-qubit IBM Falcon heavy-hex lattice (Fig. 11 of the paper),
    /// shared by ibmq_toronto, ibmq_kolkata, ibmq_mumbai, and ibm_hanoi.
    pub fn falcon_27() -> Self {
        CouplingMap::new(
            27,
            &[
                (0, 1),
                (1, 2),
                (1, 4),
                (2, 3),
                (3, 5),
                (4, 7),
                (5, 8),
                (6, 7),
                (7, 10),
                (8, 9),
                (8, 11),
                (10, 12),
                (11, 14),
                (12, 13),
                (12, 15),
                (13, 14),
                (14, 16),
                (15, 18),
                (16, 19),
                (17, 18),
                (18, 21),
                (19, 20),
                (19, 22),
                (21, 23),
                (22, 25),
                (23, 24),
                (24, 25),
                (25, 26),
            ],
        )
    }

    /// The 16-qubit ibmq_guadalupe heavy-hex map.
    pub fn guadalupe_16() -> Self {
        CouplingMap::new(
            16,
            &[
                (0, 1),
                (1, 2),
                (1, 4),
                (2, 3),
                (3, 5),
                (4, 7),
                (5, 8),
                (6, 7),
                (7, 10),
                (8, 9),
                (8, 11),
                (10, 12),
                (11, 14),
                (12, 13),
                (12, 15),
                (13, 14),
            ],
        )
    }

    /// The 7-qubit ibm_nairobi "H" map.
    pub fn nairobi_7() -> Self {
        CouplingMap::new(7, &[(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)])
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The undirected edge list (each pair `(a, b)` with `a < b`, sorted).
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Neighbors of a qubit.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// Returns `true` if `a` and `b` share an edge.
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.adjacency[a].contains(&b)
    }

    /// BFS hop distances from `src` to every qubit (`usize::MAX` when
    /// unreachable).
    pub fn distances_from(&self, src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n_qubits];
        dist[src] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adjacency[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// A shortest path from `a` to `b`, inclusive of both endpoints.
    ///
    /// Returns `None` if no path exists.
    pub fn shortest_path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        let mut prev = vec![usize::MAX; self.n_qubits];
        let mut seen = vec![false; self.n_qubits];
        seen[a] = true;
        let mut queue = VecDeque::from([a]);
        while let Some(u) = queue.pop_front() {
            if u == b {
                let mut path = vec![b];
                let mut cur = b;
                while cur != a {
                    cur = prev[cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for &v in &self.adjacency[u] {
                if !seen[v] {
                    seen[v] = true;
                    prev[v] = u;
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// Returns `true` if every qubit is reachable from qubit 0.
    pub fn is_connected(&self) -> bool {
        if self.n_qubits == 0 {
            return true;
        }
        self.distances_from(0).iter().all(|&d| d != usize::MAX)
    }

    /// Selects a connected induced subgraph of `size` qubits by BFS from the
    /// highest-degree qubit, and returns it together with the mapping from
    /// new (dense) indices to the original physical indices.
    ///
    /// This is how a small logical circuit is placed onto a region of a large
    /// device without simulating the full register.
    ///
    /// # Panics
    ///
    /// Panics if `size > n_qubits` or the map is disconnected and no region
    /// of the requested size exists.
    pub fn connected_subgraph(&self, size: usize) -> (CouplingMap, Vec<usize>) {
        assert!(size <= self.n_qubits, "requested region exceeds device");
        if size == 0 {
            return (CouplingMap::new(0, &[]), Vec::new());
        }
        let seed = (0..self.n_qubits)
            .max_by_key(|&q| self.adjacency[q].len())
            .expect("non-empty map");
        let mut selected = Vec::with_capacity(size);
        let mut seen = vec![false; self.n_qubits];
        let mut queue = VecDeque::from([seed]);
        seen[seed] = true;
        while let Some(u) = queue.pop_front() {
            selected.push(u);
            if selected.len() == size {
                break;
            }
            // Prefer high-degree neighbors to keep the region well connected.
            let mut nbrs: Vec<usize> = self.adjacency[u]
                .iter()
                .copied()
                .filter(|&v| !seen[v])
                .collect();
            nbrs.sort_by_key(|&v| std::cmp::Reverse(self.adjacency[v].len()));
            for v in nbrs {
                seen[v] = true;
                queue.push_back(v);
            }
        }
        assert_eq!(
            selected.len(),
            size,
            "device has no connected region of {size} qubits"
        );
        let mut to_new = vec![usize::MAX; self.n_qubits];
        for (new, &old) in selected.iter().enumerate() {
            to_new[old] = new;
        }
        let edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter(|&&(a, b)| to_new[a] != usize::MAX && to_new[b] != usize::MAX)
            .map(|&(a, b)| (to_new[a], to_new[b]))
            .collect();
        (CouplingMap::new(size, &edges), selected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_maps_are_connected() {
        for map in [
            CouplingMap::falcon_27(),
            CouplingMap::guadalupe_16(),
            CouplingMap::nairobi_7(),
            CouplingMap::linear(5),
            CouplingMap::all_to_all(4),
        ] {
            assert!(map.is_connected(), "{map:?} disconnected");
        }
    }

    #[test]
    fn falcon_has_expected_edge_count() {
        assert_eq!(CouplingMap::falcon_27().edges().len(), 28);
    }

    #[test]
    fn all_to_all_edge_count() {
        assert_eq!(CouplingMap::all_to_all(5).edges().len(), 10);
    }

    #[test]
    fn distances_on_chain() {
        let chain = CouplingMap::linear(5);
        let d = chain.distances_from(0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shortest_path_endpoints() {
        let map = CouplingMap::falcon_27();
        let path = map.shortest_path(0, 26).expect("connected");
        assert_eq!(*path.first().unwrap(), 0);
        assert_eq!(*path.last().unwrap(), 26);
        // Consecutive hops must be edges.
        for w in path.windows(2) {
            assert!(map.are_adjacent(w[0], w[1]));
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let map = CouplingMap::guadalupe_16();
        for &(a, b) in map.edges() {
            assert!(map.are_adjacent(a, b));
            assert!(map.are_adjacent(b, a));
        }
    }

    #[test]
    fn subgraph_is_connected_and_dense() {
        let (sub, mapping) = CouplingMap::falcon_27().connected_subgraph(7);
        assert_eq!(sub.n_qubits(), 7);
        assert_eq!(mapping.len(), 7);
        assert!(sub.is_connected());
    }

    #[test]
    fn subgraph_of_full_size_is_whole_map() {
        let map = CouplingMap::nairobi_7();
        let (sub, mapping) = map.connected_subgraph(7);
        assert_eq!(sub.edges().len(), map.edges().len());
        let mut sorted = mapping.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_bounds_checked() {
        CouplingMap::new(2, &[(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        CouplingMap::new(2, &[(1, 1)]);
    }
}
