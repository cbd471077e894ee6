//! Topology generators.
//!
//! Theorem 3 of the paper states that `m/u`-degradable agreement requires
//! network connectivity at least `m+u+1`, and that this connectivity is
//! also sufficient. The experiments therefore need graph families with
//! *exactly controllable* vertex connectivity; the Harary graph
//! `H_{k,n}` ([`Topology::harary`]) is the canonical minimal `k`-connected
//! graph and is what the connectivity experiments sweep over.

use crate::graph::Graph;
use crate::id::NodeId;
use crate::rng::SimRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A named topology: an undirected graph plus a human-readable label used
/// in experiment output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    graph: Graph,
}

impl Topology {
    /// Wraps an arbitrary graph with a label.
    pub fn from_graph(name: impl Into<String>, graph: Graph) -> Self {
        Topology {
            name: name.into(),
            graph,
        }
    }

    /// The complete graph `K_n` (the paper's algorithm BYZ assumes full
    /// connectivity).
    pub fn complete(n: usize) -> Self {
        let mut g = Graph::empty(n);
        for a in 0..n {
            for b in (a + 1)..n {
                g.add_edge(NodeId::new(a), NodeId::new(b));
            }
        }
        Topology::from_graph(format!("complete({n})"), g)
    }

    /// The cycle `C_n` (connectivity 2 for `n >= 3`).
    pub fn ring(n: usize) -> Self {
        let mut g = Graph::empty(n);
        if n >= 2 {
            for i in 0..n {
                g.add_edge(NodeId::new(i), NodeId::new((i + 1) % n));
            }
        }
        Topology::from_graph(format!("ring({n})"), g)
    }

    /// The path `P_n` (connectivity 1 for `n >= 2`).
    pub fn path(n: usize) -> Self {
        let mut g = Graph::empty(n);
        for i in 1..n {
            g.add_edge(NodeId::new(i - 1), NodeId::new(i));
        }
        Topology::from_graph(format!("path({n})"), g)
    }

    /// A star with node 0 at the centre (connectivity 1 for `n >= 3`).
    pub fn star(n: usize) -> Self {
        let mut g = Graph::empty(n);
        for i in 1..n {
            g.add_edge(NodeId::new(0), NodeId::new(i));
        }
        Topology::from_graph(format!("star({n})"), g)
    }

    /// A `rows x cols` grid (connectivity 2 for non-degenerate grids).
    pub fn grid(rows: usize, cols: usize) -> Self {
        let n = rows * cols;
        let mut g = Graph::empty(n);
        let at = |r: usize, c: usize| NodeId::new(r * cols + c);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    g.add_edge(at(r, c), at(r, c + 1));
                }
                if r + 1 < rows {
                    g.add_edge(at(r, c), at(r + 1, c));
                }
            }
        }
        Topology::from_graph(format!("grid({rows}x{cols})"), g)
    }

    /// The Harary graph `H_{k,n}`: the minimal graph on `n` nodes with
    /// vertex connectivity exactly `k` (for `1 <= k < n`).
    ///
    /// Construction (Harary 1962):
    /// * place the nodes on a circle and connect each node to its
    ///   `floor(k/2)` nearest neighbours on each side;
    /// * if `k` is odd and `n` even, additionally connect each node `i` to
    ///   the diametrically opposite node `i + n/2`;
    /// * if both `k` and `n` are odd, additionally connect node `i` to node
    ///   `i + (n-1)/2` for `0 <= i <= (n-1)/2`.
    ///
    /// Degenerate parameters are handled gracefully: `k == 0` gives the
    /// edgeless graph and `k >= n-1` gives the complete graph.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn harary(k: usize, n: usize) -> Self {
        assert!(n > 0, "harary graph needs at least one node");
        if k == 0 {
            return Topology::from_graph(format!("harary({k},{n})"), Graph::empty(n));
        }
        if k >= n - 1 {
            let mut t = Topology::complete(n);
            t.name = format!("harary({k},{n})");
            return t;
        }
        let mut g = Graph::empty(n);
        let half = k / 2;
        for i in 0..n {
            for d in 1..=half {
                g.add_edge(NodeId::new(i), NodeId::new((i + d) % n));
            }
        }
        if k == 1 {
            // H_{1,n} is just a spanning path.
            for i in 1..n {
                g.add_edge(NodeId::new(i - 1), NodeId::new(i));
            }
        }
        if k % 2 == 1 && k > 1 {
            if n.is_multiple_of(2) {
                for i in 0..n / 2 {
                    g.add_edge(NodeId::new(i), NodeId::new(i + n / 2));
                }
            } else {
                for i in 0..=(n - 1) / 2 {
                    g.add_edge(NodeId::new(i), NodeId::new((i + (n - 1) / 2) % n));
                }
            }
        }
        Topology::from_graph(format!("harary({k},{n})"), g)
    }

    /// The `d`-dimensional hypercube `Q_d` on `2^d` nodes (vertex
    /// connectivity exactly `d`) — a classic sparse interconnect whose
    /// connectivity scales with its dimension, convenient for Theorem 3
    /// sweeps at larger `m+u`.
    pub fn hypercube(d: usize) -> Self {
        let n = 1usize << d;
        let mut g = Graph::empty(n);
        for v in 0..n {
            for bit in 0..d {
                let w = v ^ (1 << bit);
                if v < w {
                    g.add_edge(NodeId::new(v), NodeId::new(w));
                }
            }
        }
        Topology::from_graph(format!("hypercube({d})"), g)
    }

    /// The wheel `W_n`: node 0 is a hub connected to an `(n-1)`-cycle
    /// (vertex connectivity 3 for `n >= 5`).
    pub fn wheel(n: usize) -> Self {
        assert!(n >= 4, "a wheel needs a hub plus a cycle of length >= 3");
        let mut g = Graph::empty(n);
        for i in 1..n {
            g.add_edge(NodeId::new(0), NodeId::new(i));
            let next = if i == n - 1 { 1 } else { i + 1 };
            g.add_edge(NodeId::new(i), NodeId::new(next));
        }
        Topology::from_graph(format!("wheel({n})"), g)
    }

    /// A random graph: starts from `H_{k,n}` (guaranteeing connectivity at
    /// least `k`) and adds each remaining edge independently with
    /// probability `extra_p`.
    pub fn random_at_least_k_connected(k: usize, n: usize, extra_p: f64, rng: &mut SimRng) -> Self {
        let mut t = Topology::harary(k, n);
        for a in 0..n {
            for b in (a + 1)..n {
                let (na, nb) = (NodeId::new(a), NodeId::new(b));
                if !t.graph.has_edge(na, nb) && rng.chance(extra_p) {
                    t.graph.add_edge(na, nb);
                }
            }
        }
        t.name = format!("random(k>={k},n={n})");
        t
    }

    /// Label of this topology.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::vertex_connectivity;

    #[test]
    fn complete_graph_edges() {
        let t = Topology::complete(5);
        assert_eq!(t.graph().edge_count(), 10);
        assert!(t.graph().is_complete());
    }

    #[test]
    fn ring_connectivity_is_two() {
        let t = Topology::ring(6);
        assert_eq!(vertex_connectivity(t.graph()), 2);
    }

    #[test]
    fn path_connectivity_is_one() {
        let t = Topology::path(5);
        assert_eq!(vertex_connectivity(t.graph()), 1);
    }

    #[test]
    fn star_connectivity_is_one() {
        let t = Topology::star(6);
        assert_eq!(vertex_connectivity(t.graph()), 1);
    }

    #[test]
    fn grid_connectivity_is_two() {
        let t = Topology::grid(3, 4);
        assert_eq!(vertex_connectivity(t.graph()), 2);
    }

    #[test]
    fn harary_even_k() {
        for n in [6, 7, 9] {
            let t = Topology::harary(4, n);
            assert_eq!(vertex_connectivity(t.graph()), 4, "H(4,{n})");
        }
    }

    #[test]
    fn harary_odd_k_even_n() {
        let t = Topology::harary(3, 8);
        assert_eq!(vertex_connectivity(t.graph()), 3);
    }

    #[test]
    fn harary_odd_k_odd_n() {
        let t = Topology::harary(3, 9);
        assert_eq!(vertex_connectivity(t.graph()), 3);
        let t = Topology::harary(5, 11);
        assert_eq!(vertex_connectivity(t.graph()), 5);
    }

    #[test]
    fn harary_degenerate() {
        assert_eq!(Topology::harary(0, 5).graph().edge_count(), 0);
        assert!(Topology::harary(4, 5).graph().is_complete());
        assert!(Topology::harary(9, 5).graph().is_complete());
    }

    #[test]
    fn harary_k1_is_spanning_path() {
        let t = Topology::harary(1, 6);
        assert_eq!(vertex_connectivity(t.graph()), 1);
        assert!(t.graph().is_connected());
    }

    #[test]
    fn hypercube_connectivity_is_dimension() {
        for d in 1..=4usize {
            let t = Topology::hypercube(d);
            assert_eq!(t.node_count(), 1 << d);
            assert_eq!(vertex_connectivity(t.graph()), d, "Q_{d}");
            assert_eq!(t.graph().edge_count(), d * (1 << d) / 2);
        }
    }

    #[test]
    fn wheel_connectivity_is_three() {
        for n in [5usize, 6, 9] {
            let t = Topology::wheel(n);
            assert_eq!(vertex_connectivity(t.graph()), 3, "W_{n}");
        }
        // Degenerate wheel W_4 is K_4.
        assert!(Topology::wheel(4).graph().is_complete());
    }

    #[test]
    #[should_panic(expected = "hub plus a cycle")]
    fn tiny_wheel_rejected() {
        Topology::wheel(3);
    }

    #[test]
    fn random_preserves_minimum_connectivity() {
        let mut rng = SimRng::seed(42);
        for trial in 0..5 {
            let t = Topology::random_at_least_k_connected(3, 10, 0.3, &mut rng);
            assert!(
                vertex_connectivity(t.graph()) >= 3,
                "trial {trial}: connectivity dropped below 3"
            );
        }
    }
}
