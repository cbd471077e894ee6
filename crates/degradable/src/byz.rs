//! Algorithm BYZ — the paper's `m/u`-degradable agreement protocol
//! (Section 4).
//!
//! BYZ(m, m) is a recursive oral-messages protocol. Unfolded into
//! message-passing form it runs `m + 1` rounds (sender round plus `m` relay
//! rounds) and resolves the gathered values bottom-up with the threshold
//! vote `VOTE(n' - 1 - m, n' - 1)`, where `n'` is the size of each
//! sub-instance. Theorem 1 of the paper: BYZ(m, m) achieves
//! `m/u`-degradable agreement whenever `N > 2m + u`.
//!
//! ## The `m = 0` base case
//!
//! The paper omits the algorithm for `m = 0`. We reconstruct it as the
//! one-echo-round protocol: the sender broadcasts, every receiver echoes
//! the received value, and each receiver applies the unanimity vote
//! `VOTE(n-1, n-1)` — i.e. the same message pattern as BYZ(1, m) with the
//! `m = 0` threshold. Correctness for `0/u`-degradable agreement with
//! `N > u`:
//!
//! * `f = 0` (conditions D.1/D.2): all nodes are fault-free, every receiver
//!   sees `n-1` identical copies of the sender's value and decides it.
//! * `0 < f <= u`, sender fault-free (D.3): every fault-free receiver's
//!   multiset contains the sender's value `α` from itself and every
//!   fault-free peer; a faulty echo can only break unanimity, so each
//!   fault-free receiver decides `α` or `V_d` — at most two classes, one
//!   default.
//! * `0 < f <= u`, sender faulty (D.4): for a fault-free receiver to decide
//!   `ω != V_d` it needs all `n-1` values equal to `ω`, including the
//!   echoes of every fault-free peer — so every fault-free receiver
//!   received `ω` from the sender, and any receiver not deciding `ω` (due
//!   to faulty echoes) decides `V_d`. Non-default decisions are therefore
//!   identical.
//!
//! This reconstruction is exercised by the `0/6`-degradable arm of the
//! seven-node trade-off experiment (E3).

use crate::eig::{run_eig, Fabricate, VoteRule};
use crate::params::Params;
use crate::value::AgreementValue;
use serde::{Deserialize, Serialize};
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Error constructing a [`ByzInstance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzError {
    /// The node count violates `n > 2m + u` (Theorem 2 bound).
    TooFewNodes {
        /// Offered node count.
        n: usize,
        /// Required minimum (`2m + u + 1`).
        required: usize,
    },
    /// The sender id is not in `0..n`.
    SenderOutOfRange {
        /// Offending sender.
        sender: NodeId,
        /// Node count.
        n: usize,
    },
}

impl fmt::Display for ByzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ByzError::TooFewNodes { n, required } => {
                write!(
                    f,
                    "{n} nodes given but degradable agreement needs at least {required}"
                )
            }
            ByzError::SenderOutOfRange { sender, n } => {
                write!(f, "sender {sender} out of range for {n} nodes")
            }
        }
    }
}

impl std::error::Error for ByzError {}

/// A configured instance of algorithm BYZ: `n` fully connected nodes, one
/// designated sender, and the `(m, u)` parameters.
///
/// ```
/// use degradable::{ByzInstance, Params, Val};
/// use simnet::NodeId;
/// use std::collections::BTreeSet;
///
/// let inst = ByzInstance::new(5, Params::new(1, 2)?, NodeId::new(0))?;
/// // No faults: everyone decides the sender's value.
/// let decisions = inst.run_reference(
///     &Val::Value(7),
///     &BTreeSet::new(),
///     &mut |_, _, truthful: &Val| truthful.clone(),
/// );
/// assert!(decisions.values().all(|v| *v == Val::Value(7)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ByzInstance {
    n: usize,
    params: Params,
    sender: NodeId,
}

impl ByzInstance {
    /// Creates an instance, validating the Theorem 2 node-count bound.
    ///
    /// # Errors
    ///
    /// * [`ByzError::TooFewNodes`] when `n <= 2m + u`;
    /// * [`ByzError::SenderOutOfRange`] when the sender id is not < `n`.
    pub fn new(n: usize, params: Params, sender: NodeId) -> Result<Self, ByzError> {
        if !params.admits(n) {
            return Err(ByzError::TooFewNodes {
                n,
                required: params.min_nodes(),
            });
        }
        if sender.index() >= n {
            return Err(ByzError::SenderOutOfRange { sender, n });
        }
        Ok(ByzInstance { n, params, sender })
    }

    /// Creates an instance **without** the node-count check. Only used by
    /// lower-bound experiments that deliberately run BYZ below the bound to
    /// exhibit the resulting violations.
    pub fn new_below_bound(n: usize, params: Params, sender: NodeId) -> Result<Self, ByzError> {
        if sender.index() >= n {
            return Err(ByzError::SenderOutOfRange { sender, n });
        }
        Ok(ByzInstance { n, params, sender })
    }

    /// Node count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Agreement parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// The designated sender.
    pub fn sender(&self) -> NodeId {
        self.sender
    }

    /// Protocol depth in rounds (`m + 1`, or 2 for the `m = 0` base case).
    pub fn depth(&self) -> usize {
        self.params.rounds()
    }

    /// The vote rule used at every fold level.
    pub fn rule(&self) -> VoteRule {
        VoteRule::Degradable { m: self.params.m() }
    }

    /// Runs BYZ via the reference executor: no message objects, the
    /// adversary is a behaviour function (see [`crate::eig::run_eig`]).
    ///
    /// Returns each receiver's decision (faulty receivers included; filter
    /// with the fault set for condition checking).
    pub fn run_reference<V: Clone + Ord>(
        &self,
        sender_value: &AgreementValue<V>,
        faulty: &BTreeSet<NodeId>,
        fabricate: Fabricate<'_, V>,
    ) -> BTreeMap<NodeId, AgreementValue<V>> {
        run_eig(
            self.n,
            self.sender,
            self.depth(),
            self.rule(),
            sender_value,
            faulty,
            fabricate,
        )
    }

    /// Builds the arena-backed engine for this instance shape
    /// ([`crate::engine::EigEngine`]). The arena depends only on
    /// `(n, sender, depth)`, so one engine serves every adversary,
    /// fault set and sender value of the instance — build it once per
    /// sweep and pass it to [`ByzInstance::run_engine`].
    pub fn engine(&self) -> crate::engine::EigEngine {
        crate::engine::EigEngine::new(self.n, self.sender, self.depth())
    }

    /// Runs BYZ via the arena-backed engine: decisions bit-identical to
    /// [`ByzInstance::run_reference`], evaluated iteratively with
    /// shared-prefix memoization (see [`crate::engine`]).
    pub fn run_engine<V: Clone + Ord>(
        &self,
        engine: &crate::engine::EigEngine,
        sender_value: &AgreementValue<V>,
        faulty: &BTreeSet<NodeId>,
        fabricate: Fabricate<'_, V>,
    ) -> crate::engine::EngineRun<V> {
        debug_assert_eq!(engine.arena().n(), self.n);
        debug_assert_eq!(engine.arena().sender(), self.sender);
        debug_assert_eq!(engine.arena().depth(), self.depth());
        engine.run(self.rule(), sender_value, faulty, fabricate)
    }
}

impl fmt::Display for ByzInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BYZ({m},{m}) on {n} nodes ({params}, sender {s})",
            m = self.params.m(),
            n = self.n,
            params = self.params,
            s = self.sender
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;
    use crate::value::Val;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn inst(nodes: usize, m: usize, u: usize) -> ByzInstance {
        ByzInstance::new(nodes, Params::new(m, u).unwrap(), n(0)).unwrap()
    }

    #[test]
    fn node_bound_enforced() {
        let p = Params::new(1, 2).unwrap();
        assert!(matches!(
            ByzInstance::new(4, p, n(0)),
            Err(ByzError::TooFewNodes { required: 5, .. })
        ));
        assert!(ByzInstance::new(5, p, n(0)).is_ok());
    }

    #[test]
    fn sender_range_enforced() {
        let p = Params::new(1, 2).unwrap();
        assert!(matches!(
            ByzInstance::new(5, p, n(5)),
            Err(ByzError::SenderOutOfRange { .. })
        ));
    }

    #[test]
    fn d1_holds_with_m_faulty_receivers() {
        // 1/2-degradable on 5 nodes; 1 faulty receiver lies arbitrarily.
        let i = inst(5, 1, 2);
        let faulty: BTreeSet<_> = [n(3)].into_iter().collect();
        let mut fab = |_p: &Path, r: NodeId, _t: &Val| Val::Value(100 + r.index() as u64);
        let d = i.run_reference(&Val::Value(7), &faulty, &mut fab);
        for r in [1, 2, 4] {
            assert_eq!(d[&n(r)], Val::Value(7), "receiver {r}");
        }
    }

    #[test]
    fn d3_holds_with_u_faulty_receivers() {
        // 1/2-degradable on 5 nodes; 2 faulty receivers conspire.
        let i = inst(5, 1, 2);
        let faulty: BTreeSet<_> = [n(3), n(4)].into_iter().collect();
        let mut fab = |_p: &Path, _r: NodeId, _t: &Val| Val::Value(99);
        let d = i.run_reference(&Val::Value(7), &faulty, &mut fab);
        for r in [1, 2] {
            let v = &d[&n(r)];
            assert!(
                *v == Val::Value(7) || *v == Val::Default,
                "receiver {r} decided {v}, violating D.3"
            );
        }
    }

    #[test]
    fn d4_nondefault_decisions_agree() {
        // Faulty sender plus one faulty receiver (f = 2 = u) on 5 nodes.
        let i = inst(5, 1, 2);
        let faulty: BTreeSet<_> = [n(0), n(4)].into_iter().collect();
        let mut fab = |p: &Path, r: NodeId, _t: &Val| {
            if p.len() == 1 {
                // two-faced sender
                Val::Value(if r.index().is_multiple_of(2) { 1 } else { 2 })
            } else {
                Val::Value(3)
            }
        };
        let d = i.run_reference(&Val::Value(0), &faulty, &mut fab);
        let nondefault: BTreeSet<_> = [n(1), n(2), n(3)]
            .iter()
            .map(|r| d[r])
            .filter(|v| !v.is_default())
            .collect();
        assert!(nondefault.len() <= 1, "non-default decisions differ: {d:?}");
    }

    #[test]
    fn m0_base_case_echo_round() {
        // 0/2-degradable on 3 nodes: two rounds, unanimity vote.
        let i = inst(3, 0, 2);
        assert_eq!(i.depth(), 2);
        // Faulty sender sends different values: both receivers fault-free,
        // echoes differ -> both decide V_d (identical value, D.2 with f<=u).
        let faulty: BTreeSet<_> = [n(0)].into_iter().collect();
        let mut fab = |_p: &Path, r: NodeId, _t: &Val| Val::Value(r.index() as u64);
        let d = i.run_reference(&Val::Value(0), &faulty, &mut fab);
        assert_eq!(d[&n(1)], Val::Default);
        assert_eq!(d[&n(2)], Val::Default);
    }

    #[test]
    fn classic_byzantine_when_m_equals_u() {
        // 2/2 on 7 nodes with 2 colluding liars: all fault-free receivers
        // agree on the sender's value (D.1).
        let i = inst(7, 2, 2);
        let faulty: BTreeSet<_> = [n(5), n(6)].into_iter().collect();
        let mut fab = |_p: &Path, _r: NodeId, _t: &Val| Val::Value(13);
        let d = i.run_reference(&Val::Value(4), &faulty, &mut fab);
        for r in 1..=4 {
            assert_eq!(d[&n(r)], Val::Value(4), "receiver {r}");
        }
    }

    #[test]
    fn display_summarizes() {
        let i = inst(5, 1, 2);
        assert_eq!(
            i.to_string(),
            "BYZ(1,1) on 5 nodes (1/2-degradable, sender n0)"
        );
    }
}
