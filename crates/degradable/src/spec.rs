//! Executable abstract specification of algorithm BYZ(m, u).
//!
//! The implementation in [`crate::node`] and [`crate::protocol`] is
//! optimized machinery — buffered inboxes, arena-interned paths, memoized
//! folds. This module is the *referee*: a compact state machine written
//! straight from the paper's text, deliberately sharing no code with the
//! executors it judges. An execution is recorded once, as a sequence of
//! [`Step`]s — delivery by delivery, round close by round close, decision
//! by decision, final view by final view — whatever drove it;
//! [`SpecChecker::step`] replays that record and reports every place the
//! observed behaviour departs from what BYZ permits:
//!
//! * **per-node phase** — rounds close in order `0..=m+1`, never skipped
//!   or repeated, with the paper's absence detection closing each one;
//! * **expected relay sets** — an honest node that records an on-time
//!   envelope for path `p` in round `r < depth` must, at the close of
//!   round `r`, relay `p·me` to *exactly* the receivers not on `p·me`,
//!   with the recorded value unchanged; the sender must open the run by
//!   broadcasting the root claim; nothing else may be sent;
//! * **the legal decision function** — at the final close each honest
//!   receiver must decide the recursive `VOTE(n−ℓ−m, n−ℓ)` fold of its
//!   recorded observations (re-derived here with an independent recursive
//!   fold over a plain map — no arena, no memoization).
//!
//! Faulty nodes are unconstrained (their sends are ignored and their
//! decisions unchecked); honest nodes are held to the letter of the
//! algorithm. The conformance fuzzer (`harness::fuzz`) drives randomized
//! executions through [`crate::NodeStateMachine`] with this checker
//! attached and shrinks any violation to a minimal repro.

use crate::path::Path;
use crate::protocol::ByzMsg;
use crate::value::AgreementValue;
use crate::vote::vote;
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::Hash;

/// Static shape of the execution being checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecInstance {
    /// Total number of nodes.
    pub n: usize,
    /// Strong fault threshold `m` (the fold subtracts it at every level).
    pub m: usize,
    /// The designated sender.
    pub sender: NodeId,
    /// EIG tree depth (`m + 1` rounds of relaying).
    pub depth: usize,
}

impl SpecInstance {
    /// The spec shape of a [`crate::ByzInstance`].
    pub fn of(instance: &crate::byz::ByzInstance) -> Self {
        SpecInstance {
            n: instance.n(),
            m: instance.params().m(),
            sender: instance.sender(),
            depth: instance.depth(),
        }
    }
}

/// How the spec classifies one delivered envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryClass {
    /// Level matches the closing round: record, and (below the final
    /// round) the receiver owes a relay at this close.
    OnTime,
    /// Level below the closing round: the relay slot has passed, but the
    /// direct observation still folds in. Never relayed.
    Late,
    /// Malformed (impersonated, self-referential, future-levelled, not
    /// sender-rooted, naming a node the system does not have, repetitive,
    /// or past the tree depth): reads as absent.
    Malformed,
    /// A repeat of an already-recorded path: discarded by the idempotent
    /// first-write-wins fold.
    Duplicate,
}

/// One conformance violation: a place the implementation departed from
/// the abstract machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecViolation {
    /// An honest node sent an envelope the spec did not expect at this
    /// close (wrong path, wrong value, wrong receiver, or no relay owed).
    UnexpectedRelay {
        /// The offending node.
        node: NodeId,
        /// The round whose close emitted it.
        round: usize,
        /// The addressee.
        to: NodeId,
        /// The relay path sent.
        path: Path,
    },
    /// An honest node failed to send a relay the spec requires.
    MissingRelay {
        /// The silent node.
        node: NodeId,
        /// The round whose close owed it.
        round: usize,
        /// The addressee that never heard it.
        to: NodeId,
        /// The owed relay path.
        path: Path,
    },
    /// An honest receiver's final decision differs from the legal
    /// decision function over its recorded observations.
    WrongDecision {
        /// The deciding node.
        node: NodeId,
        /// What the implementation decided (`None` = never decided).
        got: Option<String>,
        /// What the spec fold requires.
        expected: String,
    },
    /// An honest node's final view differs from the spec's record of what
    /// was legally delivered to it.
    ViewDivergence {
        /// The node whose views differ.
        node: NodeId,
        /// The first path attributed differently.
        path: Path,
        /// The implementation's attribution (`None` = absent).
        got: Option<String>,
        /// The spec's attribution (`None` = absent).
        expected: Option<String>,
    },
    /// A round closed out of order (skipped or repeated).
    PhaseSkew {
        /// The node whose phase is off.
        node: NodeId,
        /// The round the close claimed.
        got: usize,
        /// The round the spec expected to close next.
        expected: usize,
    },
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecViolation::UnexpectedRelay {
                node,
                round,
                to,
                path,
            } => write!(
                f,
                "node {node} sent an unexpected relay {path} to {to} at the close of round {round}"
            ),
            SpecViolation::MissingRelay {
                node,
                round,
                to,
                path,
            } => write!(
                f,
                "node {node} failed to relay {path} to {to} at the close of round {round}"
            ),
            SpecViolation::WrongDecision {
                node,
                got,
                expected,
            } => write!(
                f,
                "node {node} decided {} but the spec fold requires {expected}",
                got.as_deref().unwrap_or("nothing")
            ),
            SpecViolation::ViewDivergence {
                node,
                path,
                got,
                expected,
            } => write!(
                f,
                "node {node} attributes {} to path {path}, spec says {}",
                got.as_deref().unwrap_or("absent"),
                expected.as_deref().unwrap_or("absent")
            ),
            SpecViolation::PhaseSkew {
                node,
                got,
                expected,
            } => write!(
                f,
                "node {node} closed round {got} but the spec expects round {expected}"
            ),
        }
    }
}

/// One observed step of a BYZ execution — the one record a driver leaves
/// for [`SpecChecker::step`], whether it drove lockstep machines, a
/// transport backend or the batched service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<V> {
    /// An envelope was handed to `to`, before any validation (the checker
    /// classifies it itself).
    Deliver {
        /// The receiving node.
        to: NodeId,
        /// Transport-authenticated source.
        src: NodeId,
        /// The envelope.
        msg: ByzMsg<V>,
        /// The round at whose close it folds.
        round: usize,
    },
    /// `node` closed `round` (every node closes every round, with or
    /// without sends).
    Close {
        /// The closing node.
        node: NodeId,
        /// The closed round.
        round: usize,
        /// Every send the close emitted, before any link fault acted: a
        /// replay judges the node, not the network.
        sends: Vec<(NodeId, ByzMsg<V>)>,
    },
    /// `node` came out of its final close with `value`.
    Decide {
        /// The deciding node.
        node: NodeId,
        /// Its decision (`None` = none made; the sender never decides).
        value: Option<AgreementValue<V>>,
    },
    /// `node`'s materialized view at the end of the run.
    View {
        /// The node.
        node: NodeId,
        /// Every path it attributes a value to.
        entries: Vec<(Path, AgreementValue<V>)>,
    },
}

impl<V> fmt::Display for Step<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Deliver {
                to,
                src,
                msg,
                round,
            } => write!(
                f,
                "deliver round={round} to={to} src={src} path={}",
                msg.path
            ),
            Step::Close { node, round, .. } => write!(f, "close node={node} round={round}"),
            Step::Decide { node, .. } => write!(f, "decide node={node}"),
            Step::View { node, .. } => write!(f, "check-view node={node}"),
        }
    }
}

/// Per-node abstract state: phase, recorded observations, and the relays
/// owed at the current close.
#[derive(Debug, Clone)]
struct SpecNode<V> {
    /// Next round this node's close must claim.
    phase: usize,
    /// Recorded observations: first write per path wins.
    view: BTreeMap<Path, AgreementValue<V>>,
    /// Relays owed at the close of the *current* phase: fresh on-time
    /// paths recorded this round, with their recorded values.
    owed: Vec<(Path, AgreementValue<V>)>,
}

/// The conformance checker: `n` abstract node states advanced in lockstep
/// with the implementation under test.
///
/// Feed it the execution's [`Step`]s in order through
/// [`SpecChecker::step`]: every envelope handed to a node, every close
/// with the sends it actually emitted, every decision, and finally every
/// node's materialized view. Violations accumulate in
/// [`SpecChecker::violations`].
#[derive(Debug, Clone)]
pub struct SpecChecker<V> {
    inst: SpecInstance,
    faulty: BTreeSet<NodeId>,
    nodes: Vec<SpecNode<V>>,
    sender_value: AgreementValue<V>,
    violations: Vec<SpecViolation>,
}

impl<V: Clone + Ord + Hash + fmt::Display> SpecChecker<V> {
    /// A fresh checker for `inst` where `faulty` nodes are unconstrained
    /// and the sender (if honest) must open with `sender_value`.
    pub fn new(
        inst: SpecInstance,
        sender_value: AgreementValue<V>,
        faulty: BTreeSet<NodeId>,
    ) -> Self {
        SpecChecker {
            inst,
            faulty,
            nodes: (0..inst.n)
                .map(|_| SpecNode {
                    phase: 0,
                    view: BTreeMap::new(),
                    owed: Vec::new(),
                })
                .collect(),
            sender_value,
            violations: Vec::new(),
        }
    }

    /// Whether `node` is held to the spec.
    pub fn is_honest(&self, node: NodeId) -> bool {
        !self.faulty.contains(&node)
    }

    /// All violations recorded so far, in discovery order.
    pub fn violations(&self) -> &[SpecViolation] {
        &self.violations
    }

    /// The first violation, if any — the fuzzer's divergence point.
    pub fn first_violation(&self) -> Option<&SpecViolation> {
        self.violations.first()
    }

    /// Advances the abstract machine by one observed step, recording every
    /// violation the step exposes.
    pub fn step(&mut self, step: &Step<V>) {
        match step {
            Step::Deliver {
                to,
                src,
                msg,
                round,
            } => {
                self.deliver(*to, *src, msg, *round);
            }
            Step::Close { node, round, sends } => self.close_round(*node, *round, sends),
            Step::Decide { node, value } => self.decide(*node, value.as_ref()),
            Step::View { node, entries } => self.check_view(*node, entries),
        }
    }

    /// The spec's classification of an envelope delivered to `to` that
    /// will fold at the close of round `round` — exactly the paper's
    /// validation, restated (compare `crate::path::admit` and
    /// `crate::path::is_label`, which the executors share and this
    /// referees).
    pub fn classify(
        &self,
        to: NodeId,
        src: NodeId,
        msg: &ByzMsg<V>,
        round: usize,
    ) -> DeliveryClass {
        let path = &msg.path;
        let well_formed = !path.is_empty()
            && path.len() <= round
            && path.len() <= self.inst.depth
            && path.last() == src
            && !path.contains(to)
            && path.sender() == self.inst.sender
            && path.as_slice().iter().all(|id| id.index() < self.inst.n)
            && repetition_free(path);
        if !well_formed {
            return DeliveryClass::Malformed;
        }
        if self.nodes[to.index()].view.contains_key(path) {
            return DeliveryClass::Duplicate;
        }
        if path.len() == round {
            DeliveryClass::OnTime
        } else {
            DeliveryClass::Late
        }
    }

    /// Feeds one delivery to honest node `to`, folding at the close of
    /// `round`, and returns its classification. Faulty recipients are
    /// ignored (returns the classification without recording).
    fn deliver(&mut self, to: NodeId, src: NodeId, msg: &ByzMsg<V>, round: usize) -> DeliveryClass {
        let class = self.classify(to, src, msg, round);
        if !self.is_honest(to) {
            return class;
        }
        match class {
            DeliveryClass::Malformed | DeliveryClass::Duplicate => {}
            DeliveryClass::OnTime => {
                let node = &mut self.nodes[to.index()];
                node.view.insert(msg.path.clone(), msg.value.clone());
                if round < self.inst.depth {
                    node.owed.push((msg.path.clone(), msg.value.clone()));
                }
            }
            DeliveryClass::Late => {
                let node = &mut self.nodes[to.index()];
                node.view.insert(msg.path.clone(), msg.value.clone());
            }
        }
        class
    }

    /// The exact set of envelopes honest `node` must emit at the close of
    /// `round`: the root broadcast (round 0, sender only) or one child
    /// relay per owed path per eligible receiver.
    fn expected_sends(&self, node: NodeId, round: usize) -> Vec<(NodeId, ByzMsg<V>)> {
        let mut out = Vec::new();
        if round == 0 {
            if node == self.inst.sender {
                let root = Path::root(node);
                for r in NodeId::all(self.inst.n) {
                    if r != node {
                        out.push((
                            r,
                            ByzMsg {
                                path: root.clone(),
                                value: self.sender_value.clone(),
                            },
                        ));
                    }
                }
            }
            return out;
        }
        for (path, value) in &self.nodes[node.index()].owed {
            let child = path.child(node);
            for r in NodeId::all(self.inst.n) {
                if child.contains(r) {
                    continue;
                }
                out.push((
                    r,
                    ByzMsg {
                        path: child.clone(),
                        value: value.clone(),
                    },
                ));
            }
        }
        out
    }

    /// Checks the close of `round` on `node` against the spec: the sends
    /// actually emitted must equal the expected relay set exactly. Advances
    /// the node's phase. Faulty nodes advance without checks.
    fn close_round(&mut self, node: NodeId, round: usize, sends: &[(NodeId, ByzMsg<V>)]) {
        let expected_phase = self.nodes[node.index()].phase;
        if round != expected_phase {
            self.violations.push(SpecViolation::PhaseSkew {
                node,
                got: round,
                expected: expected_phase,
            });
        }
        self.nodes[node.index()].phase = round + 1;
        if !self.is_honest(node) {
            self.nodes[node.index()].owed.clear();
            return;
        }
        let expected = self.expected_sends(node, round);
        // Multiset diff: every expected send must appear, nothing extra.
        let mut unmatched: Vec<&(NodeId, ByzMsg<V>)> = expected.iter().collect();
        for actual in sends {
            if let Some(pos) = unmatched.iter().position(|e| *e == actual) {
                unmatched.swap_remove(pos);
            } else {
                self.violations.push(SpecViolation::UnexpectedRelay {
                    node,
                    round,
                    to: actual.0,
                    path: actual.1.path.clone(),
                });
            }
        }
        for (to, msg) in unmatched {
            self.violations.push(SpecViolation::MissingRelay {
                node,
                round,
                to: *to,
                path: msg.path.clone(),
            });
        }
        self.nodes[node.index()].owed.clear();
    }

    /// The legal decision for honest receiver `node`: the recursive
    /// `VOTE(n−ℓ−m, n−ℓ)` fold of its recorded observations, re-derived
    /// independently of `crate::eig`.
    pub fn legal_decision(&self, node: NodeId) -> AgreementValue<V> {
        self.fold(node, &Path::root(self.inst.sender))
    }

    fn fold(&self, node: NodeId, path: &Path) -> AgreementValue<V> {
        let seen = self.nodes[node.index()]
            .view
            .get(path)
            .cloned()
            .unwrap_or_default();
        if path.len() >= self.inst.depth {
            return seen;
        }
        let mut gathered = vec![seen];
        for next in NodeId::all(self.inst.n) {
            if next != node && !path.contains(next) {
                gathered.push(self.fold(node, &path.child(next)));
            }
        }
        let alpha = self.inst.n - path.len() - self.inst.m;
        vote(alpha, &gathered)
    }

    /// Checks honest receiver `node`'s final decision against the legal
    /// decision function. The sender never decides; faulty nodes are
    /// unchecked.
    fn decide(&mut self, node: NodeId, decided: Option<&AgreementValue<V>>) {
        if !self.is_honest(node) || node == self.inst.sender {
            return;
        }
        let expected = self.legal_decision(node);
        if decided != Some(&expected) {
            self.violations.push(SpecViolation::WrongDecision {
                node,
                got: decided.map(|v| v.to_string()),
                expected: expected.to_string(),
            });
        }
    }

    /// Compares honest `node`'s materialized view (path → value entries)
    /// against the spec's record, flagging the first divergent path.
    fn check_view(&mut self, node: NodeId, entries: &[(Path, AgreementValue<V>)]) {
        if !self.is_honest(node) {
            return;
        }
        let got: BTreeMap<&Path, &AgreementValue<V>> =
            entries.iter().map(|(path, v)| (path, v)).collect();
        let spec = &self.nodes[node.index()].view;
        for (path, expected) in spec {
            match got.get(path) {
                Some(v) if **v == *expected => {}
                other => {
                    self.violations.push(SpecViolation::ViewDivergence {
                        node,
                        path: path.clone(),
                        got: other.map(|v| v.to_string()),
                        expected: Some(expected.to_string()),
                    });
                    return;
                }
            }
        }
        for (path, v) in got {
            if !spec.contains_key(path) {
                self.violations.push(SpecViolation::ViewDivergence {
                    node,
                    path: path.clone(),
                    got: Some(v.to_string()),
                    expected: None,
                });
                return;
            }
        }
    }
}

/// Whether no node appears twice on `path` (restated from the paper's
/// repetition-free relay labels; deliberately not shared with
/// `crate::path`).
fn repetition_free(path: &Path) -> bool {
    let s = path.as_slice();
    s.iter()
        .enumerate()
        .all(|(i, a)| s[i + 1..].iter().all(|b| a != b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byz::ByzInstance;
    use crate::node::{Action, Event, NodeStateMachine};
    use crate::params::Params;
    use crate::value::Val;

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn spec_inst(n: usize, m: usize, u: usize) -> (ByzInstance, SpecInstance) {
        let inst = ByzInstance::new(n, Params::new(m, u).unwrap(), nid(0)).unwrap();
        let spec = SpecInstance::of(&inst);
        (inst, spec)
    }

    /// Drives honest machines in lockstep with the checker attached; the
    /// extraction must be violation-free.
    fn drive_checked(
        n: usize,
        m: usize,
        u: usize,
        value: u64,
        mutate: impl Fn(NodeId, usize, &mut Vec<(NodeId, ByzMsg<u64>)>),
    ) -> SpecChecker<u64> {
        let (inst, spec) = spec_inst(n, m, u);
        let mut checker = SpecChecker::new(spec, Val::Value(value), BTreeSet::new());
        let mut machines: Vec<NodeStateMachine<u64>> = (0..n)
            .map(|i| NodeStateMachine::new(&inst, nid(i), Val::Value(value), None))
            .collect();
        let mut mailboxes: Vec<Vec<(NodeId, ByzMsg<u64>)>> = vec![Vec::new(); n];
        for round in 0..=inst.depth() {
            for i in 0..n {
                for (src, msg) in std::mem::take(&mut mailboxes[i]) {
                    checker.deliver(nid(i), src, &msg, round);
                    machines[i].on_event(Event::Deliver { src, msg });
                }
            }
            let mut outgoing: Vec<(NodeId, NodeId, ByzMsg<u64>)> = Vec::new();
            for (i, machine) in machines.iter_mut().enumerate() {
                let mut sends = Vec::new();
                let mut decided = None;
                for action in machine.on_event(Event::Timeout { round }) {
                    match action {
                        Action::Send { to, msg } => sends.push((to, msg)),
                        Action::Decide { value } => decided = Some(value),
                    }
                }
                mutate(nid(i), round, &mut sends);
                checker.close_round(nid(i), round, &sends);
                for (to, msg) in sends {
                    outgoing.push((nid(i), to, msg));
                }
                if round == inst.depth() {
                    checker.decide(nid(i), decided.as_ref());
                }
            }
            for (src, to, msg) in outgoing {
                mailboxes[to.index()].push((src, msg));
            }
        }
        for (i, machine) in machines.iter().enumerate() {
            let entries = machine.view().entries();
            checker.step(&Step::View {
                node: nid(i),
                entries: entries.map(|(path, v)| (path.clone(), *v)).collect(),
            });
        }
        checker
    }

    #[test]
    fn honest_execution_is_conformant() {
        for (n, m, u) in [(4, 1, 1), (5, 1, 2), (7, 2, 2)] {
            let checker = drive_checked(n, m, u, 42, |_, _, _| {});
            assert_eq!(checker.violations(), &[], "N={n} m={m} u={u}");
        }
    }

    #[test]
    fn pruned_relays_violate_the_strict_spec() {
        // A fault-free BYZ(2,2) run whose nodes all skip the last relay
        // level — the traffic a pruning that knew the fault set was empty
        // would cut — owes every one of those relays.
        let checker = drive_checked(7, 2, 2, 42, |_, round, sends| {
            if round == 2 {
                sends.clear();
            }
        });
        let missing = checker
            .violations()
            .iter()
            .filter(|v| matches!(v, SpecViolation::MissingRelay { round: 2, .. }))
            .count();
        // 30 level-3 labels, each owed to the 4 receivers off its path.
        assert_eq!(missing, 30 * 4, "{:?}", checker.violations());
    }

    #[test]
    fn suppressed_root_broadcast_is_caught() {
        // A sender that drops its round-0 broadcast owes every receiver
        // the root envelope.
        let checker = drive_checked(5, 1, 2, 42, |node, round, sends| {
            if node == nid(0) && round == 0 {
                sends.clear();
            }
        });
        assert!(
            checker
                .violations()
                .iter()
                .any(|v| matches!(v, SpecViolation::MissingRelay { node, .. } if *node == nid(0))),
            "{:?}",
            checker.violations()
        );
    }

    #[test]
    fn suppressed_relay_is_caught() {
        // Node 2 drops all its round-1 relays: the spec must flag every
        // missing send, and downstream decisions stay legal (the fold is
        // over what was actually recorded).
        let checker = drive_checked(5, 1, 2, 7, |node, round, sends| {
            if node == nid(2) && round == 1 {
                sends.clear();
            }
        });
        assert!(
            checker
                .violations()
                .iter()
                .any(|v| matches!(v, SpecViolation::MissingRelay { node, .. } if *node == nid(2))),
            "{:?}",
            checker.violations()
        );
    }

    #[test]
    fn corrupted_relay_value_is_caught() {
        // An "honest" node whose relays garble the value is out of spec.
        let checker = drive_checked(5, 1, 2, 7, |node, round, sends| {
            if node == nid(3) && round == 1 {
                for (_, msg) in sends.iter_mut() {
                    msg.value = Val::Value(99);
                }
            }
        });
        assert!(
            checker.violations().iter().any(
                |v| matches!(v, SpecViolation::UnexpectedRelay { node, .. } if *node == nid(3))
            ),
            "{:?}",
            checker.violations()
        );
    }

    #[test]
    fn legal_decision_matches_reference_fold() {
        // The spec's independent fold and EigView::resolve must agree on
        // every receiver of a fault-free run.
        let (inst, spec) = spec_inst(5, 1, 2);
        let checker = drive_checked(5, 1, 2, 42, |_, _, _| {});
        let run = crate::protocol::run_protocol(&inst, &Val::Value(42), &BTreeMap::new(), 1);
        for (r, d) in &run.decisions {
            assert_eq!(checker.legal_decision(*r), *d, "receiver {r}");
        }
        assert_eq!(spec.depth, inst.depth());
    }

    #[test]
    fn faulty_nodes_are_unconstrained() {
        // Declare node 2 faulty and let it garble everything: no
        // violations may be attributed to it, and honest nodes stay clean
        // (their folds legally absorb the garbage).
        let (inst, spec) = spec_inst(5, 1, 2);
        let mut checker = SpecChecker::new(spec, Val::Value(7), [nid(2)].into_iter().collect());
        let mut machines: Vec<NodeStateMachine<u64>> = (0..5)
            .map(|i| {
                let strategy =
                    (i == 2).then_some(crate::adversary::Strategy::ConstantLie(Val::Value(9)));
                NodeStateMachine::new(&inst, nid(i), Val::Value(7), strategy)
            })
            .collect();
        let mut mailboxes: Vec<Vec<(NodeId, ByzMsg<u64>)>> = vec![Vec::new(); 5];
        for round in 0..=inst.depth() {
            for i in 0..5 {
                for (src, msg) in std::mem::take(&mut mailboxes[i]) {
                    checker.deliver(nid(i), src, &msg, round);
                    machines[i].on_event(Event::Deliver { src, msg });
                }
            }
            let mut outgoing = Vec::new();
            for (i, machine) in machines.iter_mut().enumerate() {
                let mut sends = Vec::new();
                let mut decided = None;
                for action in machine.on_event(Event::Timeout { round }) {
                    match action {
                        Action::Send { to, msg } => sends.push((to, msg)),
                        Action::Decide { value } => decided = Some(value),
                    }
                }
                checker.close_round(nid(i), round, &sends);
                for (to, msg) in sends {
                    outgoing.push((nid(i), to, msg));
                }
                if round == inst.depth() {
                    checker.decide(nid(i), decided.as_ref());
                }
            }
            for (src, to, msg) in outgoing {
                mailboxes[to.index()].push((src, msg));
            }
        }
        assert_eq!(checker.violations(), &[]);
    }

    #[test]
    fn malformed_and_duplicate_classification() {
        let (_, spec) = spec_inst(5, 1, 2);
        let mut checker: SpecChecker<u64> = SpecChecker::new(spec, Val::Value(7), BTreeSet::new());
        let root = Path::root(nid(0));
        let msg = ByzMsg {
            path: root.clone(),
            value: Val::Value(7),
        };
        // Impersonation: src ≠ path.last().
        assert_eq!(
            checker.deliver(nid(1), nid(2), &msg, 1),
            DeliveryClass::Malformed
        );
        // Future level: level-1 path at round 0.
        assert_eq!(
            checker.deliver(nid(1), nid(0), &msg, 0),
            DeliveryClass::Malformed
        );
        assert_eq!(
            checker.deliver(nid(1), nid(0), &msg, 1),
            DeliveryClass::OnTime
        );
        assert_eq!(
            checker.deliver(nid(1), nid(0), &msg, 1),
            DeliveryClass::Duplicate
        );
        // Level-1 path folding at round 2: late.
        let mut other: SpecChecker<u64> = SpecChecker::new(spec, Val::Value(7), BTreeSet::new());
        assert_eq!(other.deliver(nid(1), nid(0), &msg, 2), DeliveryClass::Late);
    }
}
