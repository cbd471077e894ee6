//! Sans-io per-node protocol logic for algorithm BYZ.
//!
//! [`crate::protocol`] runs the whole protocol inside one closure handed
//! to the simulator — fine for differential testing, useless for running a
//! node over a real network. This module extracts the per-node logic into
//! a [`NodeStateMachine`] that performs **no I/O**: it consumes
//! [`Event`]s (a message delivery, a round timeout) and emits
//! [`Action`]s (send a message, decide). What delivers the events — the
//! deterministic simulator, in-process channels, or a TCP mesh — lives
//! behind a `Transport` trait in the `transport` crate; the protocol logic
//! is byte-for-byte the same on every backend, which is what makes the
//! sim-vs-real differential gate meaningful.
//!
//! The round structure is emergent: the machine does not tick rounds
//! itself. Its transport fires [`Event::Timeout`] for round `r` when, by
//! its own clock, everything that will arrive for round `r` has arrived —
//! that timeout *is* the paper's message-absence detection (assumption
//! (b)). Messages delivered between timeouts are buffered and classified
//! only when the round closes: a path of the current level is an on-time
//! relay (recorded and re-relayed), a path of an earlier level is a late
//! envelope (recorded as a direct observation, never relayed), anything
//! malformed reads as absent. What is accepted and whom a relay goes to
//! are the functions of [`crate::path`] that [`crate::service`] calls too,
//! so a lockstep drive of `n` machines reproduces `run_protocol`
//! decisions bit-for-bit (pinned by tests here and by the differential
//! suite).

use crate::adversary::{claim_for, Strategy};
use crate::byz::ByzInstance;
use crate::eig::{EigView, VoteRule};
use crate::path::{admit, is_label, relay_fanout, Arrival, Path};
use crate::protocol::ByzMsg;
use crate::value::AgreementValue;
use simnet::NodeId;
use std::hash::Hash;

/// An input to the state machine: something the transport observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<V> {
    /// A protocol envelope arrived from `src` (the transport-authenticated
    /// source, per the paper's oral-message assumption (c) — the state
    /// machine trusts it, so transports must stamp it honestly).
    Deliver {
        /// True originator of the envelope.
        src: NodeId,
        /// The envelope.
        msg: ByzMsg<V>,
    },
    /// Round `round` has closed: every message that will be delivered for
    /// it has been delivered, everything else is *absent* (assumption (b)).
    Timeout {
        /// The round that just closed (0-based; round 0 opens the run).
        round: usize,
    },
}

/// An output of the state machine: something the transport must perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<V> {
    /// Hand `msg` to node `to` (delivery may fail — faults are the
    /// transport's business, absence handling is the machine's).
    Send {
        /// Destination node.
        to: NodeId,
        /// The envelope.
        msg: ByzMsg<V>,
    },
    /// The final round closed and this receiver decided `value`.
    Decide {
        /// The agreement decision.
        value: AgreementValue<V>,
    },
}

/// The per-node BYZ protocol engine, sans-io.
///
/// Feed it [`Event`]s via [`NodeStateMachine::on_event`]; execute the
/// [`Action`]s it returns. After the round-`depth` timeout the machine is
/// [`NodeStateMachine::is_done`]; receivers (every node but the sender)
/// additionally emit [`Action::Decide`].
#[derive(Debug, Clone)]
pub struct NodeStateMachine<V> {
    me: NodeId,
    n: usize,
    sender: NodeId,
    depth: usize,
    rule: VoteRule,
    sender_value: AgreementValue<V>,
    strategy: Option<Strategy<V>>,
    view: EigView<V>,
    pending: Vec<(NodeId, ByzMsg<V>)>,
    next_round: usize,
    decided: Option<AgreementValue<V>>,
}

impl<V: Clone + Ord + Hash> NodeStateMachine<V> {
    /// A fresh machine for node `me` of `instance`.
    ///
    /// `sender_value` is the value the sender proposes (ignored on other
    /// nodes). `strategy` makes the node Byzantine; `None` is honest.
    pub fn new(
        instance: &ByzInstance,
        me: NodeId,
        sender_value: AgreementValue<V>,
        strategy: Option<Strategy<V>>,
    ) -> Self {
        NodeStateMachine {
            me,
            n: instance.n(),
            sender: instance.sender(),
            depth: instance.depth(),
            rule: instance.rule(),
            sender_value,
            strategy,
            view: EigView::new(instance.n(), instance.depth(), me),
            pending: Vec::new(),
            next_round: 0,
            decided: None,
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Total number of rounds the machine expects (`depth + 1` timeouts,
    /// rounds `0..=depth`).
    pub fn rounds(&self) -> usize {
        self.depth + 1
    }

    /// The next round timeout the machine expects.
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// Whether the final round has closed (no further events expected).
    pub fn is_done(&self) -> bool {
        self.next_round > self.depth
    }

    /// The decision, once made. The sender never decides (the paper's
    /// conditions quantify over receivers only); receivers decide at the
    /// round-`depth` timeout.
    pub fn decided(&self) -> Option<&AgreementValue<V>> {
        self.decided.as_ref()
    }

    /// This node's EIG receive view — the exact fold input, exposed so
    /// differential gates can re-derive the decision through the
    /// reference [`EigView::resolve`] fold.
    pub fn view(&self) -> &EigView<V> {
        &self.view
    }

    /// Consumes the machine, yielding its EIG receive view — what a
    /// driver that is done with the machine reports, without a copy.
    pub fn into_view(self) -> EigView<V> {
        self.view
    }

    /// Feeds one event, returning the actions it triggered (possibly
    /// none). Deliveries are buffered; all protocol work happens on
    /// timeouts.
    ///
    /// # Panics
    ///
    /// Panics on a timeout for any round other than the next expected one
    /// (transports own the clock, but they may not skip or repeat rounds),
    /// or on any event after the machine [`is done`](Self::is_done).
    pub fn on_event(&mut self, event: Event<V>) -> Vec<Action<V>> {
        match event {
            Event::Deliver { src, msg } => {
                assert!(!self.is_done(), "delivery after the final timeout");
                self.pending.push((src, msg));
                Vec::new()
            }
            Event::Timeout { round } => {
                assert_eq!(
                    round, self.next_round,
                    "timeout for round {round} but node {} expects round {}",
                    self.me, self.next_round
                );
                assert!(!self.is_done(), "timeout after the final round");
                self.next_round += 1;
                let mut actions = self.close_round(round);
                if let Some(strategy) = &self.strategy {
                    // The adversary, in one place: a Byzantine node sends
                    // its per-receiver claim where an honest one would send
                    // the truth, and `Silent` sends nothing.
                    actions.retain_mut(|action| match action {
                        Action::Send { to, msg } => {
                            match claim_for(Some(strategy), &msg.path, *to, &msg.value) {
                                Some(claim) => msg.value = claim,
                                None => return false,
                            }
                            true
                        }
                        Action::Decide { .. } => true,
                    });
                }
                actions
            }
        }
    }

    /// Round `round` just closed: fold everything that arrived for it,
    /// then send this round's messages as an honest node would (root
    /// broadcast in round 0, relays afterwards) and decide at the final
    /// round.
    fn close_round(&mut self, round: usize) -> Vec<Action<V>> {
        let mut actions = Vec::new();
        let mut to_relay: Vec<(Path, AgreementValue<V>)> = Vec::new();
        if round >= 1 {
            for (src, msg) in std::mem::take(&mut self.pending) {
                // The crate's one admission rule (`crate::path`), as in
                // `crate::service`: anything it refuses — impersonated,
                // self-referential, from a future level, or not a label
                // of this instance's tree — reads as absent.
                let Some(arrival) = admit(&msg.path, src, self.me, round) else {
                    continue;
                };
                if !is_label(&msg.path, self.n, self.sender, self.depth) {
                    continue;
                }
                // First write wins: duplicated envelopes fold
                // idempotently.
                let fresh = self.view.record(msg.path.clone(), msg.value.clone());
                if fresh && arrival == Arrival::OnTime && round < self.depth {
                    to_relay.push((msg.path, msg.value));
                }
            }
        }
        let mut send = |to, path, value| {
            actions.push(Action::Send {
                to,
                msg: ByzMsg { path, value },
            })
        };
        if round == 0 {
            if self.me == self.sender {
                let root = Path::root(self.sender);
                for r in NodeId::all(self.n).filter(|r| *r != self.me) {
                    send(r, root.clone(), self.sender_value.clone());
                }
            }
        } else {
            for (path, value) in to_relay {
                // The crate's one relay rule, as in `crate::service`.
                let (child, receivers) = relay_fanout(&path, self.me, self.n);
                for r in receivers {
                    send(r, child.clone(), value.clone());
                }
            }
        }
        if round == self.depth && self.me != self.sender {
            let value = self.view.resolve(self.sender, self.rule);
            self.decided = Some(value.clone());
            actions.push(Action::Decide { value });
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::protocol::run_protocol;
    use crate::value::Val;
    use std::collections::BTreeMap;

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn instance(nodes: usize, m: usize, u: usize) -> ByzInstance {
        ByzInstance::new(nodes, Params::new(m, u).unwrap(), nid(0)).unwrap()
    }

    /// Reference harness: drives `n` machines in lockstep with a perfect
    /// network (every send delivered next round).
    fn drive_lockstep(
        inst: &ByzInstance,
        sender_value: &Val,
        strategies: &BTreeMap<NodeId, Strategy<u64>>,
    ) -> BTreeMap<NodeId, Val> {
        let n = inst.n();
        let mut machines: Vec<NodeStateMachine<u64>> = (0..n)
            .map(|i| {
                NodeStateMachine::new(
                    inst,
                    nid(i),
                    *sender_value,
                    strategies.get(&nid(i)).cloned(),
                )
            })
            .collect();
        let mut mailboxes: Vec<Vec<(NodeId, ByzMsg<u64>)>> = vec![Vec::new(); n];
        let mut decisions = BTreeMap::new();
        for round in 0..machines[0].rounds() {
            for (i, machine) in machines.iter_mut().enumerate() {
                for (src, msg) in std::mem::take(&mut mailboxes[i]) {
                    let out = machine.on_event(Event::Deliver { src, msg });
                    assert!(out.is_empty(), "deliveries must not trigger actions");
                }
            }
            let mut outgoing: Vec<(NodeId, NodeId, ByzMsg<u64>)> = Vec::new();
            for (i, machine) in machines.iter_mut().enumerate() {
                for action in machine.on_event(Event::Timeout { round }) {
                    match action {
                        Action::Send { to, msg } => outgoing.push((nid(i), to, msg)),
                        Action::Decide { value } => {
                            decisions.insert(nid(i), value);
                        }
                    }
                }
            }
            for (src, to, msg) in outgoing {
                mailboxes[to.index()].push((src, msg));
            }
        }
        for m in &machines {
            assert!(m.is_done());
        }
        decisions
    }

    #[test]
    fn lockstep_machines_match_run_protocol() {
        // The extraction proof: on a fault-free network, n state machines
        // decide exactly what the monolithic protocol run decides, across
        // instance shapes and the whole adversary battery.
        for (nodes, m, u) in [(4usize, 1usize, 1usize), (5, 1, 2), (7, 2, 2)] {
            let inst = instance(nodes, m, u);
            let mut batteries: Vec<BTreeMap<NodeId, Strategy<u64>>> = vec![BTreeMap::new()];
            for (_, strat) in Strategy::battery(1, 2, 7) {
                batteries.push([(nid(nodes - 1), strat.clone())].into_iter().collect());
                batteries.push(
                    [(nid(0), strat), (nid(1), Strategy::Silent)]
                        .into_iter()
                        .collect(),
                );
            }
            for strategies in batteries {
                let reference = run_protocol(&inst, &Val::Value(7), &strategies, 1).decisions;
                let machines = drive_lockstep(&inst, &Val::Value(7), &strategies);
                assert_eq!(
                    reference, machines,
                    "N={nodes} m={m} u={u} strategies={strategies:?}"
                );
            }
        }
    }

    #[test]
    fn late_envelope_folds_as_direct_observation_only() {
        // A relay delivered one round late must enter the view but never
        // be re-relayed — mirroring the reordering semantics of the
        // monolithic protocol.
        let inst = instance(5, 1, 2);
        let mut machine: NodeStateMachine<u64> =
            NodeStateMachine::new(&inst, nid(1), Val::Value(7), None);
        assert!(machine.on_event(Event::Timeout { round: 0 }).is_empty());
        // Root envelope [0] (level 1) arrives late: delivered after the
        // round-1 timeout, processed at round 2.
        assert!(machine.on_event(Event::Timeout { round: 1 }).is_empty());
        machine.on_event(Event::Deliver {
            src: nid(0),
            msg: ByzMsg {
                path: Path::root(nid(0)),
                value: Val::Value(7),
            },
        });
        let actions = machine.on_event(Event::Timeout { round: 2 });
        assert!(
            actions.iter().all(|a| !matches!(a, Action::Send { .. })),
            "late envelope must not be relayed: {actions:?}"
        );
        assert_eq!(machine.view().seen(&Path::root(nid(0))), Val::Value(7));
    }

    #[test]
    fn malformed_envelopes_read_as_absent() {
        let inst = instance(5, 1, 2);
        let mut machine: NodeStateMachine<u64> =
            NodeStateMachine::new(&inst, nid(1), Val::Value(7), None);
        machine.on_event(Event::Timeout { round: 0 });
        let root = Path::root(nid(0));
        // Impersonation: src does not match the path's last element.
        machine.on_event(Event::Deliver {
            src: nid(2),
            msg: ByzMsg {
                path: root.clone(),
                value: Val::Value(9),
            },
        });
        // Future level: a depth-2 path during round 1.
        machine.on_event(Event::Deliver {
            src: nid(2),
            msg: ByzMsg {
                path: root.child(nid(2)),
                value: Val::Value(9),
            },
        });
        // Not sender-rooted.
        machine.on_event(Event::Deliver {
            src: nid(2),
            msg: ByzMsg {
                path: Path::root(nid(2)),
                value: Val::Value(9),
            },
        });
        machine.on_event(Event::Timeout { round: 1 });
        assert!(
            machine.view().is_empty(),
            "all malformed envelopes must read as absent"
        );
    }

    #[test]
    fn labels_naming_nodes_the_system_does_not_have_read_as_absent() {
        // `[0, x, 2]` from node 2, for a thousand `x` past the last node:
        // well-formed in everything but existing. Fed to node 1 for the
        // close of round 3.
        let junk_at_round_3 = |nodes: usize, m: usize| {
            let inst = instance(nodes, m, m);
            let mut machine: NodeStateMachine<u64> =
                NodeStateMachine::new(&inst, nid(1), Val::Value(7), None);
            for round in 0..3 {
                machine.on_event(Event::Timeout { round });
            }
            for x in nodes..nodes + 1_000 {
                machine.on_event(Event::Deliver {
                    src: nid(2),
                    msg: ByzMsg {
                        path: Path::root(nid(0)).child(nid(x)).child(nid(2)),
                        value: Val::Value(9),
                    },
                });
            }
            let actions = machine.on_event(Event::Timeout { round: 3 });
            (machine, actions)
        };
        // The last round of BYZ(2,2): nothing to relay, nothing recorded.
        let (machine, _) = junk_at_round_3(7, 2);
        assert!(machine.is_done());
        assert_eq!(machine.view().len(), 0, "a view of junk labels");
        // One round before the last of BYZ(3,3): nothing relayed either.
        let (machine, actions) = junk_at_round_3(10, 3);
        assert_eq!(machine.view().len(), 0);
        assert_eq!(actions, [], "junk labels were relayed");
    }

    #[test]
    fn duplicate_envelopes_fold_idempotently() {
        let inst = instance(5, 1, 2);
        let mut machine: NodeStateMachine<u64> =
            NodeStateMachine::new(&inst, nid(1), Val::Value(7), None);
        machine.on_event(Event::Timeout { round: 0 });
        for value in [7u64, 9] {
            machine.on_event(Event::Deliver {
                src: nid(0),
                msg: ByzMsg {
                    path: Path::root(nid(0)),
                    value: Val::Value(value),
                },
            });
        }
        let actions = machine.on_event(Event::Timeout { round: 1 });
        // Exactly one relay fan-out (first copy), not two.
        let sends = actions
            .iter()
            .filter(|a| matches!(a, Action::Send { .. }))
            .count();
        assert_eq!(sends, 3, "one relay to each of the 3 eligible receivers");
        assert_eq!(machine.view().seen(&Path::root(nid(0))), Val::Value(7));
    }

    #[test]
    fn sender_is_done_without_deciding() {
        let inst = instance(4, 1, 1);
        let mut machine: NodeStateMachine<u64> =
            NodeStateMachine::new(&inst, nid(0), Val::Value(7), None);
        let mut last = Vec::new();
        for round in 0..machine.rounds() {
            last = machine.on_event(Event::Timeout { round });
        }
        assert!(machine.is_done());
        assert!(machine.decided().is_none(), "the sender never decides");
        assert!(last.iter().all(|a| !matches!(a, Action::Decide { .. })));
    }

    #[test]
    #[should_panic(expected = "expects round")]
    fn skipped_timeout_panics() {
        let inst = instance(4, 1, 1);
        let mut machine: NodeStateMachine<u64> =
            NodeStateMachine::new(&inst, nid(1), Val::Value(7), None);
        machine.on_event(Event::Timeout { round: 1 });
    }
}
