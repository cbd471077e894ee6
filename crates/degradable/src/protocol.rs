//! Message-passing execution of algorithm BYZ on the `simnet` round engine.
//!
//! The reference executor in [`crate::eig`] computes decisions directly
//! from the adversary's behaviour function; this module runs the *actual
//! protocol*: real envelopes tagged with relay paths, lock-step rounds,
//! absence detection, and per-node state. Integration tests assert that
//! the two executors produce identical decisions on identical scenarios —
//! the message-passing layer adds (and the tests exercise) the mechanics
//! the paper assumes away: authenticated sources, per-round delivery, and
//! detectable absence.
//!
//! A single agreement is a one-instance batch: [`run_protocol`] hands
//! `[BatchInstance { sender, value }]` to the executor of
//! [`crate::service`], so every envelope goes through the crate's one
//! inbox (validation, first-write-wins recording, relay fan-out — see
//! that module's docs) and every [`BatchOptions`] knob applies unchanged.

use crate::adversary::Strategy;
use crate::byz::ByzInstance;
use crate::conditions::RunRecord;
use crate::path::Path;
use crate::service::{run_unchecked, BatchInstance, BatchOptions};
use crate::value::AgreementValue;
use simnet::NodeId;
use std::collections::BTreeMap;
use std::hash::Hash;

/// A protocol message on the wire ([`crate::NodeStateMachine`] and the
/// `transport` backends): the relay path and the claimed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzMsg<V> {
    /// Relay path; its last element must be the true sender of the
    /// envelope.
    pub path: Path,
    /// The claimed value for that path.
    pub value: AgreementValue<V>,
}

/// Result of one message-passing execution.
#[derive(Debug, Clone)]
pub struct ProtocolRun<V: Ord> {
    /// Every receiver's decision.
    pub decisions: BTreeMap<NodeId, AgreementValue<V>>,
    /// Network statistics from the engine.
    pub net: simnet::Outcome,
}

impl<V: Clone + Ord> ProtocolRun<V> {
    /// Packages the run for condition checking.
    pub fn record(
        &self,
        instance: &ByzInstance,
        sender_value: AgreementValue<V>,
        faulty: std::collections::BTreeSet<NodeId>,
    ) -> RunRecord<V> {
        RunRecord {
            params: instance.params(),
            n: instance.n(),
            sender: instance.sender(),
            sender_value,
            faulty,
            decisions: self.decisions.clone(),
        }
    }
}

/// Runs BYZ as a real message-passing protocol on a fully connected
/// `simnet` topology.
///
/// Nodes listed in `strategies` are Byzantine and misbehave accordingly
/// ([`Strategy::Silent`] nodes genuinely send nothing, exercising absence
/// detection). `seed` drives the engine (only relevant when a latency
/// model or stochastic faults are configured through
/// [`run_protocol_with`]).
pub fn run_protocol<V: Clone + Ord + Hash + Send + Sync>(
    instance: &ByzInstance,
    sender_value: &AgreementValue<V>,
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
) -> ProtocolRun<V> {
    run_protocol_with(
        instance,
        sender_value,
        strategies,
        seed,
        BatchOptions::new(),
    )
}

/// [`run_protocol`] with [`BatchOptions`]: a network hook (fault plan,
/// latency model, deadline, tracing), an obs recorder, or the receivers'
/// materialized views (one map, for the one instance).
///
/// Instances built with [`ByzInstance::new_below_bound`] run too — the
/// node bound is the constructor's to enforce, not this function's.
pub fn run_protocol_with<V: Clone + Ord + Hash + Send + Sync>(
    instance: &ByzInstance,
    sender_value: &AgreementValue<V>,
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
    opts: BatchOptions<'_, V>,
) -> ProtocolRun<V> {
    let batch = [BatchInstance {
        sender: instance.sender(),
        value: sender_value.clone(),
    }];
    let mut run = run_unchecked(
        instance.params(),
        instance.n(),
        &batch,
        strategies,
        seed,
        opts,
    );
    ProtocolRun {
        decisions: run.decisions.pop().expect("one instance, one decision map"),
        net: run.net,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryRun;
    use crate::analysis::message_complexity;
    use crate::params::Params;
    use crate::value::Val;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn instance(nodes: usize, m: usize, u: usize) -> ByzInstance {
        ByzInstance::new(nodes, Params::new(m, u).unwrap(), n(0)).unwrap()
    }

    #[test]
    fn fault_free_run_delivers_sender_value() {
        let inst = instance(5, 1, 2);
        let run = run_protocol(&inst, &Val::Value(7), &BTreeMap::new(), 1);
        assert_eq!(run.decisions.len(), 4);
        assert!(run.decisions.values().all(|v| *v == Val::Value(7)));
    }

    #[test]
    fn message_count_matches_formula() {
        for (nodes, m, u) in [(5usize, 1usize, 2usize), (7, 2, 2), (4, 1, 1)] {
            let inst = instance(nodes, m, u);
            let run = run_protocol(&inst, &Val::Value(1), &BTreeMap::new(), 1);
            assert_eq!(
                run.net.sent as u128,
                message_complexity(nodes, inst.depth()),
                "N={nodes} m={m}"
            );
        }
    }

    #[test]
    fn silent_node_sends_nothing() {
        let inst = instance(5, 1, 2);
        let strategies: BTreeMap<_, _> = [(n(3), Strategy::Silent)].into_iter().collect();
        let full = run_protocol(&inst, &Val::Value(7), &BTreeMap::new(), 1);
        let run = run_protocol(&inst, &Val::Value(7), &strategies, 1);
        assert!(run.net.sent < full.net.sent);
        // Fault-free receivers still decide the sender's value.
        for r in [1, 2, 4] {
            assert_eq!(run.decisions[&n(r)], Val::Value(7));
        }
    }

    #[test]
    fn protocol_matches_reference_executor() {
        // Same scenarios through both executors must give identical
        // decisions.
        #[allow(clippy::type_complexity)]
        let cases: Vec<(usize, usize, usize, Vec<(usize, Strategy<u64>)>)> = vec![
            (5, 1, 2, vec![(3, Strategy::ConstantLie(Val::Value(9)))]),
            (
                5,
                1,
                2,
                vec![
                    (3, Strategy::ConstantLie(Val::Value(9))),
                    (
                        4,
                        Strategy::TwoFaced {
                            even: Val::Value(1),
                            odd: Val::Value(2),
                        },
                    ),
                ],
            ),
            (
                7,
                2,
                2,
                vec![
                    (
                        0,
                        Strategy::TwoFaced {
                            even: Val::Value(1),
                            odd: Val::Value(2),
                        },
                    ),
                    (
                        6,
                        Strategy::RandomLie {
                            domain: vec![Val::Default, Val::Value(1), Val::Value(2)],
                            seed: 11,
                        },
                    ),
                ],
            ),
            (
                5,
                0,
                4,
                vec![
                    (2, Strategy::Silent),
                    (3, Strategy::PretendSenderSaid(Val::Value(5))),
                ],
            ),
        ];
        for (nodes, m, u, strat) in cases {
            let inst = instance(nodes, m, u);
            let strategies: BTreeMap<NodeId, Strategy<u64>> =
                strat.into_iter().map(|(i, s)| (n(i), s)).collect();
            let sc = AdversaryRun {
                instance: inst,
                sender_value: Val::Value(7),
                strategies: strategies.clone(),
            };
            let reference = sc.run().decisions;
            let protocol = run_protocol(&inst, &Val::Value(7), &strategies, 3).decisions;
            assert_eq!(reference, protocol, "N={nodes} m={m} u={u}");
        }
    }

    #[test]
    fn faulty_sender_two_faced_protocol() {
        let inst = instance(5, 1, 2);
        let strategies: BTreeMap<_, _> = [(
            n(0),
            Strategy::TwoFaced {
                even: Val::Value(1),
                odd: Val::Value(2),
            },
        )]
        .into_iter()
        .collect();
        let run = run_protocol(&inst, &Val::Value(0), &strategies, 1);
        // f = 1 <= m: all fault-free receivers must agree (D.2).
        let distinct: std::collections::BTreeSet<_> = run.decisions.values().collect();
        assert_eq!(distinct.len(), 1, "{:?}", run.decisions);
    }

    fn full_chaos_plan(nodes: usize, kind: simnet::LinkFaultKind) -> simnet::LinkFaultPlan {
        let mut plan = simnet::LinkFaultPlan::healthy();
        for a in 0..nodes {
            for b in 0..nodes {
                if a != b {
                    plan = plan.with(n(a), n(b), kind);
                }
            }
        }
        plan
    }

    #[test]
    fn duplicated_envelopes_fold_idempotently() {
        // Duplicating every envelope on every link must not change any
        // decision: the EigView fold is first-write-wins.
        let inst = instance(5, 1, 2);
        let strategies: BTreeMap<_, _> = [(n(3), Strategy::ConstantLie(Val::Value(9)))]
            .into_iter()
            .collect();
        let baseline = run_protocol(&inst, &Val::Value(7), &strategies, 1);
        let plan = full_chaos_plan(5, simnet::LinkFaultKind::Duplicate { p: 1.0 });
        let chaotic = run_protocol_with(
            &inst,
            &Val::Value(7),
            &strategies,
            1,
            BatchOptions::new().network(|e| e.with_link_faults(plan)),
        );
        assert!(chaotic.net.duplicated > 0);
        assert_eq!(baseline.decisions, chaotic.decisions);
    }

    #[test]
    fn corrupted_envelopes_read_as_absence() {
        // Corrupting every envelope (no corruptor installed: detectable
        // garbling = absence) starves every receiver: all decide V_d.
        // Crucially, nobody decides a *foreign* value.
        let inst = instance(5, 1, 2);
        let plan = full_chaos_plan(5, simnet::LinkFaultKind::Corrupt { p: 1.0 });
        let run = run_protocol_with(
            &inst,
            &Val::Value(7),
            &BTreeMap::new(),
            1,
            BatchOptions::new().network(|e| e.with_link_faults(plan)),
        );
        assert!(run.net.dropped_corrupt > 0);
        assert!(run.decisions.values().all(|v| *v == Val::Default));
    }

    #[test]
    fn reordered_envelopes_never_produce_foreign_values() {
        // Reordering delays relays past their slot (absence), but late
        // envelopes still fold as direct observations; decisions stay
        // within {sender value, V_d} and runs are deterministic.
        let inst = instance(5, 1, 2);
        let run = |seed: u64| {
            let plan = full_chaos_plan(5, simnet::LinkFaultKind::Reorder { window: 1 });
            run_protocol_with(
                &inst,
                &Val::Value(7),
                &BTreeMap::new(),
                seed,
                BatchOptions::new().network(|e| e.with_link_faults(plan)),
            )
        };
        let a = run(5);
        assert!(a.net.reordered > 0, "seed-checked: some delay drawn");
        for (r, v) in &a.decisions {
            assert!(
                *v == Val::Value(7) || *v == Val::Default,
                "receiver {r} decided foreign {v:?}"
            );
        }
        let b = run(5);
        assert_eq!(a.decisions, b.decisions, "chaos is deterministic");
    }

    #[test]
    fn record_packaging() {
        let inst = instance(5, 1, 2);
        let strategies: BTreeMap<_, _> = [(n(4), Strategy::Silent)].into_iter().collect();
        let run = run_protocol(&inst, &Val::Value(7), &strategies, 1);
        let rec = run.record(&inst, Val::Value(7), [n(4)].into_iter().collect());
        assert_eq!(rec.f(), 1);
        assert!(!rec.sender_faulty());
        assert!(crate::conditions::check_degradable(&rec).is_satisfied());
    }
}
