//! Fault plans.
//!
//! A [`FaultPlan`] declares which nodes are faulty and how. The paper's
//! failure model is Byzantine (arbitrary behaviour); in a simulation that
//! splits into two layers:
//!
//! * **Engine-level faults** the network engine applies mechanically,
//!   regardless of process logic: crash (stop sending from a given round),
//!   omission (drop each outgoing message with probability `p`) and delay
//!   (add extra latency, possibly pushing messages past the round deadline —
//!   the Section 6 timeout scenario).
//! * **Byzantine faults**, where the *process itself* lies. The engine only
//!   records the marker; protocol crates instantiate adversarial processes
//!   for nodes marked [`FaultKind::Byzantine`].
//!
//! Crash and omission are special cases of Byzantine behaviour, so a node
//! with any fault kind counts toward the fault count `f` of the paper's
//! conditions.

use crate::id::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How a particular node misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Arbitrary (malicious) behaviour; the process logic itself lies.
    /// The engine treats the node normally.
    Byzantine,
    /// The node stops sending any messages from round `from_round` on.
    Crash {
        /// First round (0-based) in which the node is silent.
        from_round: usize,
    },
    /// Each outgoing message is independently dropped with probability `p`.
    Omission {
        /// Drop probability in `[0, 1]`.
        p: f64,
    },
    /// Each outgoing message gets `extra` additional latency units, which
    /// may push it past the receiver's round deadline (late = absent).
    Delay {
        /// Additional latency units per message.
        extra: u64,
    },
}

/// Assignment of fault kinds to nodes. Nodes not present are fault-free.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    faults: BTreeMap<NodeId, FaultKind>,
}

impl FaultPlan {
    /// A plan with no faulty nodes.
    pub fn healthy() -> Self {
        FaultPlan::default()
    }

    /// Builder-style: marks `node` with `kind`.
    #[must_use]
    pub fn with(mut self, node: NodeId, kind: FaultKind) -> Self {
        self.faults.insert(node, kind);
        self
    }

    /// Marks `node` with `kind` in place.
    pub fn insert(&mut self, node: NodeId, kind: FaultKind) {
        self.faults.insert(node, kind);
    }

    /// Marks every node in `nodes` as Byzantine.
    pub fn byzantine<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut plan = FaultPlan::healthy();
        for n in nodes {
            plan.insert(n, FaultKind::Byzantine);
        }
        plan
    }

    /// The fault kind of `node`, if any.
    pub fn kind(&self, node: NodeId) -> Option<FaultKind> {
        self.faults.get(&node).copied()
    }

    /// Whether `node` is faulty in any way.
    pub fn is_faulty(&self, node: NodeId) -> bool {
        self.faults.contains_key(&node)
    }

    /// Number of faulty nodes (the paper's `f`).
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// The set of faulty node ids.
    pub fn faulty_set(&self) -> BTreeSet<NodeId> {
        self.faults.keys().copied().collect()
    }

    /// The fault-free node ids among `0..n`.
    pub fn fault_free(&self, n: usize) -> Vec<NodeId> {
        NodeId::all(n).filter(|v| !self.is_faulty(*v)).collect()
    }

    /// Whether `node` has crashed by round `round`.
    pub fn crashed(&self, node: NodeId, round: usize) -> bool {
        matches!(self.kind(node), Some(FaultKind::Crash { from_round }) if round >= from_round)
    }

    /// Omission probability of `node` (0 for non-omissive nodes).
    pub fn omission_p(&self, node: NodeId) -> f64 {
        match self.kind(node) {
            Some(FaultKind::Omission { p }) => p,
            _ => 0.0,
        }
    }

    /// Extra latency added by `node`'s fault (0 for non-delaying nodes).
    pub fn extra_delay(&self, node: NodeId) -> u64 {
        match self.kind(node) {
            Some(FaultKind::Delay { extra }) => extra,
            _ => 0,
        }
    }

    /// Iterator over `(node, kind)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, FaultKind)> + '_ {
        self.faults.iter().map(|(&k, &v)| (k, v))
    }
}

/// A time-varying fault plan: piecewise-constant over rounds. Supports
/// transient bursts and churn experiments, where nodes fail and recover at
/// known epochs (the engine applies whichever plan is active each round).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// `(from_round, plan)` entries; the active plan at round `r` is the
    /// one with the largest `from_round <= r`. Rounds before the first
    /// entry are fault-free.
    epochs: Vec<(usize, FaultPlan)>,
}

impl FaultSchedule {
    /// A schedule that is fault-free forever.
    pub fn healthy() -> Self {
        FaultSchedule::default()
    }

    /// A schedule that applies one plan from round 0 on.
    pub fn constant(plan: FaultPlan) -> Self {
        FaultSchedule {
            epochs: vec![(0, plan)],
        }
    }

    /// Builder-style: from `round` onward, use `plan` (entries must be
    /// added in increasing round order).
    ///
    /// # Panics
    ///
    /// Panics if `round` is not strictly greater than the previous entry's
    /// round.
    #[must_use]
    pub fn then_from(mut self, round: usize, plan: FaultPlan) -> Self {
        if let Some(&(prev, _)) = self.epochs.last() {
            assert!(round > prev, "epochs must be added in increasing order");
        }
        self.epochs.push((round, plan));
        self
    }

    /// The plan active at `round` (the fault-free plan before the first
    /// entry).
    pub fn active(&self, round: usize) -> &FaultPlan {
        static HEALTHY: FaultPlan = FaultPlan {
            faults: BTreeMap::new(),
        };
        self.epochs
            .iter()
            .rev()
            .find(|(from, _)| *from <= round)
            .map_or(&HEALTHY, |(_, p)| p)
    }

    /// The largest fault count any epoch reaches.
    pub fn peak_fault_count(&self) -> usize {
        self.epochs
            .iter()
            .map(|(_, p)| p.fault_count())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn healthy_plan_is_empty() {
        let p = FaultPlan::healthy();
        assert_eq!(p.fault_count(), 0);
        assert!(!p.is_faulty(n(0)));
        assert_eq!(p.fault_free(3), vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn byzantine_builder() {
        let p = FaultPlan::byzantine([n(1), n(3)]);
        assert_eq!(p.fault_count(), 2);
        assert!(p.is_faulty(n(1)));
        assert!(!p.is_faulty(n(2)));
        assert_eq!(p.fault_free(4), vec![n(0), n(2)]);
    }

    #[test]
    fn crash_activation() {
        let p = FaultPlan::healthy().with(n(0), FaultKind::Crash { from_round: 2 });
        assert!(!p.crashed(n(0), 1));
        assert!(p.crashed(n(0), 2));
        assert!(p.crashed(n(0), 5));
        assert!(!p.crashed(n(1), 5));
    }

    #[test]
    fn omission_probability() {
        let p = FaultPlan::healthy().with(n(2), FaultKind::Omission { p: 0.5 });
        assert_eq!(p.omission_p(n(2)), 0.5);
        assert_eq!(p.omission_p(n(0)), 0.0);
    }

    #[test]
    fn schedule_epochs_resolve() {
        let burst = FaultPlan::byzantine([n(1), n(2)]);
        let sched = FaultSchedule::healthy()
            .then_from(3, burst.clone())
            .then_from(6, FaultPlan::healthy());
        assert_eq!(*sched.active(0), FaultPlan::healthy());
        assert_eq!(*sched.active(3), burst);
        assert_eq!(*sched.active(5), burst);
        assert_eq!(*sched.active(6), FaultPlan::healthy());
        assert_eq!(sched.peak_fault_count(), 2);
    }

    #[test]
    fn constant_schedule() {
        let plan = FaultPlan::byzantine([n(0)]);
        let sched = FaultSchedule::constant(plan.clone());
        assert_eq!(*sched.active(0), plan);
        assert_eq!(*sched.active(99), plan);
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn schedule_order_enforced() {
        let _ = FaultSchedule::healthy()
            .then_from(5, FaultPlan::healthy())
            .then_from(5, FaultPlan::healthy());
    }

    #[test]
    fn reinsert_overwrites() {
        let p = FaultPlan::healthy()
            .with(n(0), FaultKind::Byzantine)
            .with(n(0), FaultKind::Delay { extra: 9 });
        assert_eq!(p.fault_count(), 1);
        assert_eq!(p.extra_delay(n(0)), 9);
    }
}
