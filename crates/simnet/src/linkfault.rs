//! Link-level fault plans (the chaos layer).
//!
//! Node faults ([`crate::fault`]) model misbehaving *processes*; this
//! module models a misbehaving *network*. A [`LinkFaultPlan`] maps each
//! directed edge to a list of [`LinkFaultKind`]s that the round engine
//! applies to every message crossing that edge, after node faults and the
//! topology check but before the round deadline:
//!
//! * [`LinkFaultKind::Cut`] — the link goes down permanently from a round
//!   (partitions, Theorem 3 experiments);
//! * [`LinkFaultKind::Drop`] — each message is lost independently with
//!   probability `p`;
//! * [`LinkFaultKind::Duplicate`] — each message is delivered twice with
//!   probability `p`;
//! * [`LinkFaultKind::Reorder`] — each message is delayed a uniformly
//!   random `0..=window` extra rounds (0 = on time), so later traffic can
//!   overtake it;
//! * [`LinkFaultKind::Corrupt`] — each message is garbled in flight with
//!   probability `p`. What "garbled" means is decided by the protocol crate
//!   via [`crate::engine::RoundEngine::with_corruptor`]; without a
//!   corruptor the message is dropped, which matches the paper's
//!   oral-message axiom that a detectably damaged message reads as
//!   **absent**.
//!
//! [`Partition`] computes a minimum vertex separator from
//! [`crate::connectivity`] and expresses it as a plan of link cuts — the
//! link-level realisation of "remove the cut set" used by the connectivity
//! bound experiments.

use crate::connectivity::minimum_vertex_cut;
use crate::graph::Graph;
use crate::id::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One kind of fault on a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LinkFaultKind {
    /// The link carries nothing from `from_round` on.
    Cut {
        /// First round (inclusive) in which the link is down.
        from_round: usize,
    },
    /// Each crossing message is lost independently with probability `p`.
    Drop {
        /// Per-message loss probability.
        p: f64,
    },
    /// Each crossing message is delivered twice with probability `p`.
    Duplicate {
        /// Per-message duplication probability.
        p: f64,
    },
    /// Each crossing message is delayed `0..=window` extra rounds (drawn
    /// uniformly; 0 keeps it on time), letting later traffic overtake it.
    Reorder {
        /// Maximum extra delay in rounds.
        window: usize,
    },
    /// Each crossing message is garbled with probability `p` (mapped
    /// through the engine's corruptor; absent a corruptor it is dropped).
    Corrupt {
        /// Per-message corruption probability.
        p: f64,
    },
}

impl fmt::Display for LinkFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LinkFaultKind::Cut { from_round } => write!(f, "cut(from r{from_round})"),
            LinkFaultKind::Drop { p } => write!(f, "drop(p={p})"),
            LinkFaultKind::Duplicate { p } => write!(f, "duplicate(p={p})"),
            LinkFaultKind::Reorder { window } => write!(f, "reorder(window={window})"),
            LinkFaultKind::Corrupt { p } => write!(f, "corrupt(p={p})"),
        }
    }
}

/// Link faults keyed by directed edge `(from, to)`.
///
/// Multiple kinds may stack on one edge; the engine applies them in the
/// order they were added (cuts always win, since a cut message goes no
/// further).
///
/// ```
/// use simnet::prelude::*;
///
/// let plan = LinkFaultPlan::healthy()
///     .with(NodeId::new(0), NodeId::new(1), LinkFaultKind::Drop { p: 0.5 })
///     .with_symmetric(NodeId::new(1), NodeId::new(2), LinkFaultKind::Cut { from_round: 2 });
/// assert!(plan.is_cut(NodeId::new(2), NodeId::new(1), 2));
/// assert!(!plan.is_cut(NodeId::new(2), NodeId::new(1), 1));
/// assert_eq!(plan.faulty_link_count(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkFaultPlan {
    links: BTreeMap<(NodeId, NodeId), Vec<LinkFaultKind>>,
}

impl LinkFaultPlan {
    /// A plan with no link faults.
    pub fn healthy() -> Self {
        LinkFaultPlan::default()
    }

    /// Adds `kind` to the directed edge `from -> to`.
    #[must_use]
    pub fn with(mut self, from: NodeId, to: NodeId, kind: LinkFaultKind) -> Self {
        self.links.entry((from, to)).or_default().push(kind);
        self
    }

    /// Adds `kind` to both directions of the edge `{a, b}`.
    #[must_use]
    pub fn with_symmetric(self, a: NodeId, b: NodeId, kind: LinkFaultKind) -> Self {
        self.with(a, b, kind).with(b, a, kind)
    }

    /// Applies every kind in `kinds`, in order, to every directed edge of
    /// the complete graph on `n` nodes — the uniform-background chaos
    /// shape used by the harness knobs and the batched-agreement tests.
    #[must_use]
    pub fn uniform_complete(n: usize, kinds: &[LinkFaultKind]) -> Self {
        let mut plan = LinkFaultPlan::healthy();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                for &kind in kinds {
                    plan = plan.with(NodeId::new(a), NodeId::new(b), kind);
                }
            }
        }
        plan
    }

    /// Cuts (both directions, from `from_round`) every edge between a node
    /// in `a_side` and a node in `b_side`.
    #[must_use]
    pub fn cut_between(mut self, a_side: &[NodeId], b_side: &[NodeId], from_round: usize) -> Self {
        for &a in a_side {
            for &b in b_side {
                if a != b {
                    self = self.with_symmetric(a, b, LinkFaultKind::Cut { from_round });
                }
            }
        }
        self
    }

    /// Appends every kind of `other` onto this plan, edge by edge, after
    /// this plan's own kinds — explicit per-edge faults first, layered
    /// background chaos second.
    #[must_use]
    pub fn stacked_with(mut self, other: &LinkFaultPlan) -> Self {
        for ((from, to), kinds) in other.iter() {
            for &kind in kinds {
                self = self.with(from, to, kind);
            }
        }
        self
    }

    /// Whether no link has any fault.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Number of directed edges carrying at least one fault.
    pub fn faulty_link_count(&self) -> usize {
        self.links.len()
    }

    /// The fault kinds on the directed edge `from -> to` (empty when the
    /// link is healthy), in the order they were added.
    pub fn kinds(&self, from: NodeId, to: NodeId) -> &[LinkFaultKind] {
        self.links.get(&(from, to)).map_or(&[], Vec::as_slice)
    }

    /// Whether the directed edge `from -> to` is cut in `round`.
    pub fn is_cut(&self, from: NodeId, to: NodeId, round: usize) -> bool {
        self.kinds(from, to)
            .iter()
            .any(|k| matches!(k, LinkFaultKind::Cut { from_round } if round >= *from_round))
    }

    /// Iterator over `((from, to), kinds)` in edge order.
    pub fn iter(&self) -> impl Iterator<Item = ((NodeId, NodeId), &[LinkFaultKind])> {
        self.links.iter().map(|(&e, ks)| (e, ks.as_slice()))
    }

    /// The *effective topology* at `round`: `g` minus every undirected edge
    /// with at least one cut direction. Probabilistic kinds do not remove
    /// edges (a lossy link is degraded, not absent); a one-way cut removes
    /// the undirected edge because the paper's links are bidirectional.
    pub fn apply_cuts(&self, g: &Graph, round: usize) -> Graph {
        let mut out = g.clone();
        for (a, b) in g.edges() {
            if self.is_cut(a, b, round) || self.is_cut(b, a, round) {
                out.remove_edge(a, b);
            }
        }
        out
    }
}

/// A [`LinkFaultPlan`] laid out for the engine's per-message path: the
/// kinds on a directed edge are one indexed load, and whether a sender has
/// any faulty outgoing edge at all is one more. Edges naming a node outside
/// `0..n` carry no traffic (the topology check refuses them first) and are
/// left out.
#[derive(Debug, Default)]
pub(crate) struct LinkFaultTable {
    n: usize,
    /// `edges[from * n + to]`; empty (nothing allocated) for a healthy plan.
    edges: Vec<Vec<LinkFaultKind>>,
    /// `faulty_from[from]`: some edge out of `from` carries a kind.
    faulty_from: Vec<bool>,
}

impl LinkFaultTable {
    pub(crate) fn new(plan: &LinkFaultPlan, n: usize) -> Self {
        if plan.is_empty() {
            return LinkFaultTable::default();
        }
        let mut table = LinkFaultTable {
            n,
            edges: vec![Vec::new(); n * n],
            faulty_from: vec![false; n],
        };
        for ((from, to), kinds) in plan.iter() {
            if from.index() < n && to.index() < n && !kinds.is_empty() {
                table.edges[from.index() * n + to.index()] = kinds.to_vec();
                table.faulty_from[from.index()] = true;
            }
        }
        table
    }

    /// [`LinkFaultPlan::kinds`] for an edge between two nodes of `0..n`.
    pub(crate) fn kinds(&self, from: NodeId, to: NodeId) -> &[LinkFaultKind] {
        debug_assert!(self.edges.is_empty() || (from.index() < self.n && to.index() < self.n));
        self.edges
            .get(from.index() * self.n + to.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Whether any edge out of `from` carries a fault kind.
    pub(crate) fn touches(&self, from: NodeId) -> bool {
        self.faulty_from.get(from.index()) == Some(&true)
    }
}

/// A minimum vertex separator of a graph, expressed as link cuts.
///
/// Removing a vertex cut `S` disconnects the survivors; at the link level
/// the same effect is achieved by cutting every edge incident to `S`
/// (isolating exactly the separator nodes). This is the adversary shape of
/// the paper's Theorem 3: place the cut on `S`, `|S| = m+u`, and traffic
/// between the two sides is entirely under its control.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    separator: BTreeSet<NodeId>,
}

impl Partition {
    /// Computes a minimum vertex separator of `g` via
    /// [`minimum_vertex_cut`]. `None` when `g` is complete (no separator
    /// exists).
    pub fn of(g: &Graph) -> Option<Self> {
        minimum_vertex_cut(g).map(|separator| Partition { separator })
    }

    /// A partition along an explicitly chosen separator.
    pub fn along(separator: BTreeSet<NodeId>) -> Self {
        Partition { separator }
    }

    /// The separator vertices.
    pub fn separator(&self) -> &BTreeSet<NodeId> {
        &self.separator
    }

    /// Size of the separator.
    pub fn len(&self) -> usize {
        self.separator.len()
    }

    /// Whether the separator is empty.
    pub fn is_empty(&self) -> bool {
        self.separator.is_empty()
    }

    /// The plan cutting every edge of `g` incident to the separator (both
    /// directions) from `from_round` on — the link-level realisation of
    /// deleting the separator vertices.
    pub fn isolating_plan(&self, g: &Graph, from_round: usize) -> LinkFaultPlan {
        let mut plan = LinkFaultPlan::healthy();
        for &s in &self.separator {
            for nb in g.neighbors(s) {
                plan = plan.with_symmetric(s, nb, LinkFaultKind::Cut { from_round });
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::vertex_connectivity;
    use crate::topology::Topology;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn healthy_plan_is_empty() {
        let plan = LinkFaultPlan::healthy();
        assert!(plan.is_empty());
        assert_eq!(plan.faulty_link_count(), 0);
        assert!(plan.kinds(n(0), n(1)).is_empty());
        assert!(!plan.is_cut(n(0), n(1), 0));
    }

    #[test]
    fn cut_is_directional_and_round_gated() {
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Cut { from_round: 3 });
        assert!(!plan.is_cut(n(0), n(1), 2));
        assert!(plan.is_cut(n(0), n(1), 3));
        assert!(plan.is_cut(n(0), n(1), 7));
        assert!(!plan.is_cut(n(1), n(0), 7), "reverse direction unaffected");
    }

    #[test]
    fn kinds_stack_in_insertion_order() {
        let plan = LinkFaultPlan::healthy()
            .with(n(0), n(1), LinkFaultKind::Drop { p: 0.1 })
            .with(n(0), n(1), LinkFaultKind::Duplicate { p: 0.2 });
        assert_eq!(
            plan.kinds(n(0), n(1)),
            &[
                LinkFaultKind::Drop { p: 0.1 },
                LinkFaultKind::Duplicate { p: 0.2 }
            ]
        );
    }

    #[test]
    fn stacked_plans_keep_per_edge_order() {
        let explicit =
            LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Cut { from_round: 0 });
        let chaos = LinkFaultPlan::uniform_complete(3, &[LinkFaultKind::Drop { p: 0.5 }]);
        let merged = explicit.stacked_with(&chaos);
        assert_eq!(
            merged.kinds(n(0), n(1)),
            &[
                LinkFaultKind::Cut { from_round: 0 },
                LinkFaultKind::Drop { p: 0.5 }
            ]
        );
        assert_eq!(merged.kinds(n(1), n(2)), &[LinkFaultKind::Drop { p: 0.5 }]);
        assert_eq!(merged.faulty_link_count(), 6);
    }

    #[test]
    fn uniform_complete_covers_every_directed_pair_in_order() {
        let kinds = [
            LinkFaultKind::Drop { p: 0.1 },
            LinkFaultKind::Duplicate { p: 0.2 },
        ];
        let plan = LinkFaultPlan::uniform_complete(4, &kinds);
        assert_eq!(plan.faulty_link_count(), 4 * 3);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert_eq!(plan.kinds(n(a), n(b)), &kinds, "{a}->{b}");
                }
            }
        }
        assert!(LinkFaultPlan::uniform_complete(4, &[]).is_empty());
        assert!(LinkFaultPlan::uniform_complete(0, &kinds).is_empty());
    }

    #[test]
    fn cut_between_cuts_all_cross_edges_symmetrically() {
        let plan = LinkFaultPlan::healthy().cut_between(&[n(0), n(1)], &[n(2)], 0);
        for (a, b) in [(0, 2), (2, 0), (1, 2), (2, 1)] {
            assert!(plan.is_cut(n(a), n(b), 0), "{a}->{b}");
        }
        assert!(!plan.is_cut(n(0), n(1), 0));
    }

    #[test]
    fn apply_cuts_respects_rounds() {
        let topo = Topology::complete(4);
        let plan = LinkFaultPlan::healthy().with_symmetric(
            n(0),
            n(1),
            LinkFaultKind::Cut { from_round: 2 },
        );
        assert_eq!(plan.apply_cuts(topo.graph(), 1).edge_count(), 6);
        let after = plan.apply_cuts(topo.graph(), 2);
        assert_eq!(after.edge_count(), 5);
        assert!(!after.has_edge(n(0), n(1)));
    }

    #[test]
    fn one_way_cut_removes_undirected_edge() {
        let topo = Topology::complete(3);
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Cut { from_round: 0 });
        assert!(!plan.apply_cuts(topo.graph(), 0).has_edge(n(0), n(1)));
    }

    #[test]
    fn probabilistic_kinds_do_not_remove_edges() {
        let topo = Topology::complete(3);
        let plan = LinkFaultPlan::healthy()
            .with(n(0), n(1), LinkFaultKind::Drop { p: 1.0 })
            .with(n(1), n(2), LinkFaultKind::Corrupt { p: 1.0 });
        assert_eq!(plan.apply_cuts(topo.graph(), 0).edge_count(), 3);
    }

    #[test]
    fn partition_isolates_minimum_separator() {
        // A ring has connectivity 2: the separator has 2 nodes, and the
        // isolating plan's cuts drop the effective connectivity to 0.
        let topo = Topology::ring(6);
        let part = Partition::of(topo.graph()).expect("ring is not complete");
        assert_eq!(part.len(), 2);
        let plan = part.isolating_plan(topo.graph(), 0);
        let effective = plan.apply_cuts(topo.graph(), 0);
        assert!(!effective.is_connected());
        assert_eq!(vertex_connectivity(&effective), 0);
    }

    #[test]
    fn complete_graph_has_no_partition() {
        assert!(Partition::of(Topology::complete(4).graph()).is_none());
    }

    #[test]
    fn explicit_separator_partition() {
        let topo = Topology::path(3); // 0-1-2: node 1 separates
        let part = Partition::along([n(1)].into_iter().collect());
        let plan = part.isolating_plan(topo.graph(), 0);
        assert!(plan.is_cut(n(1), n(0), 0));
        assert!(plan.is_cut(n(0), n(1), 0));
        assert!(!plan.apply_cuts(topo.graph(), 0).is_connected());
    }
}
