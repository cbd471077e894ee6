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
//! Honest nodes validate incoming envelopes: the path must have the
//! claimed sender as its last element (the engine stamps true sources, so
//! a faulty node cannot impersonate — assumption (c) of the paper), must
//! not contain the receiver, and must match the current round's level.
//! Invalid envelopes are dropped, which maps any protocol-confused faulty
//! node onto the silent/absent case.

use crate::adversary::{claim_for, Strategy};
use crate::byz::ByzInstance;
use crate::conditions::RunRecord;
use crate::eig::EigView;
use crate::path::{relay_fanout, Path};
use crate::value::AgreementValue;
use simnet::{NodeId, RoundEngine, Topology};
use std::collections::BTreeMap;
use std::hash::Hash;

/// A protocol message: the relay path and the claimed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzMsg<V> {
    /// Relay path; its last element must be the true sender of the
    /// envelope.
    pub path: Path,
    /// The claimed value for that path.
    pub value: AgreementValue<V>,
}

/// The canonical corruptor for BYZ envelopes under link-level chaos
/// ([`simnet::LinkFaultKind::Corrupt`]).
///
/// The paper's oral-message model assumes a damaged message is
/// *detectable* — the receiver can tell a garbled envelope from a valid
/// one (checksums in practice). A detected-garbled envelope carries no
/// usable claim, so it must read as **absent**, folding to `V_d` like any
/// other missing message. Mapping every corrupted envelope to `None`
/// implements exactly that; it matches the engine's default when no
/// corruptor is installed, but states the protocol's intent at the call
/// site.
pub fn corruption_as_absence<V>() -> impl FnMut(&ByzMsg<V>, &mut simnet::SimRng) -> Option<ByzMsg<V>>
{
    |_msg, _rng| None
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
/// model or omission faults are configured via `engine_setup`).
pub fn run_protocol<V: Clone + Ord + Hash + Send + Sync>(
    instance: &ByzInstance,
    sender_value: &AgreementValue<V>,
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
) -> ProtocolRun<V> {
    run_protocol_with(instance, sender_value, strategies, seed, |e| e)
}

/// Like [`run_protocol`], with a hook to customize the engine (fault plan,
/// latency model, deadline, tracing) before the run.
pub fn run_protocol_with<V: Clone + Ord + Hash + Send + Sync>(
    instance: &ByzInstance,
    sender_value: &AgreementValue<V>,
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
    engine_setup: impl FnOnce(RoundEngine<ByzMsg<V>>) -> RoundEngine<ByzMsg<V>>,
) -> ProtocolRun<V> {
    run_protocol_inner(instance, sender_value, strategies, seed, engine_setup).0
}

/// Like [`run_protocol_with`], additionally materializing every
/// receiver's [`EigView`] from the shared store — the reference fold's
/// input — so differential tests can re-resolve the exact same
/// observations through [`EigView::resolve`] and compare against the
/// arena fold (`tests/engine_equivalence.rs` does this under chaos
/// plans).
pub fn run_protocol_full<V: Clone + Ord + Hash + Send + Sync>(
    instance: &ByzInstance,
    sender_value: &AgreementValue<V>,
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
    engine_setup: impl FnOnce(RoundEngine<ByzMsg<V>>) -> RoundEngine<ByzMsg<V>>,
) -> (ProtocolRun<V>, BTreeMap<NodeId, EigView<V>>) {
    let (run, eig, store) =
        run_protocol_inner(instance, sender_value, strategies, seed, engine_setup);
    let n = instance.n();
    let sender = instance.sender();
    let depth = instance.depth();
    let arena = eig.arena();
    let mut views = BTreeMap::new();
    for r in NodeId::all(n) {
        if r == sender {
            continue;
        }
        let mut view = EigView::new(n, depth, r);
        for (id, v) in store.column(r) {
            view.record(arena.resolve_path(id), v.clone());
        }
        views.insert(r, view);
    }
    (run, views)
}

fn run_protocol_inner<V: Clone + Ord + Hash + Send + Sync>(
    instance: &ByzInstance,
    sender_value: &AgreementValue<V>,
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
    engine_setup: impl FnOnce(RoundEngine<ByzMsg<V>>) -> RoundEngine<ByzMsg<V>>,
) -> (
    ProtocolRun<V>,
    crate::engine::EigEngine,
    crate::engine::EigStore<V>,
) {
    let n = instance.n();
    let sender = instance.sender();
    let depth = instance.depth();
    let mut engine = engine_setup(RoundEngine::new(Topology::complete(n), seed));

    // One shared slot table for *all* nodes: node `i`'s local view is
    // column `i` of the store, so the final fold is a single arena
    // resolution covering every receiver at once instead of `n - 1`
    // recursive folds.
    let eig_engine = instance.engine();
    let mut store = crate::engine::EigStore::new(eig_engine.arena());

    let fill_start = std::time::Instant::now();
    let mut net = engine.run_with(depth + 1, |i, ctx| {
        let me = NodeId::new(i);
        let round = ctx.round();
        let strategy = strategies.get(&me);
        // 1. Record this round's deliveries (level = round).
        let mut to_relay: Vec<(Path, AgreementValue<V>)> = Vec::new();
        if round >= 1 {
            for (src, msg) in ctx.take_inbox() {
                // A path of level `< round` is an envelope the network
                // delivered late (link reordering): its relay slot has
                // passed, but the direct observation is still genuine, so
                // it folds into the view. Anything else malformed —
                // impersonated or self-referential paths, or paths from a
                // future level — is dropped (treated as absent).
                let valid = msg.path.len() <= round
                    && !msg.path.is_empty()
                    && msg.path.last() == src
                    && !msg.path.contains(me);
                if !valid {
                    continue; // malformed claim: treated as absent
                }
                // Only sender-rooted repetition-free labels intern; the
                // resolution never reads anything else, so non-interning
                // paths read as absent exactly as before.
                let Some(id) = eig_engine.arena().intern(&msg.path) else {
                    continue;
                };
                let on_time = msg.path.len() == round;
                // First write wins: duplicated envelopes (link-level
                // duplication, or a late copy overtaken by chaos) are
                // discarded by the idempotent fold.
                let fresh = store.record(eig_engine.arena(), id, me, msg.value.clone());
                if fresh && on_time && round < depth {
                    to_relay.push((msg.path, msg.value));
                }
            }
        }
        // 2. Send this round's messages.
        if round == 0 {
            if me == sender {
                let root = Path::root(sender);
                for r in NodeId::all(n) {
                    if r == sender {
                        continue;
                    }
                    if let Some(v) = claim_for(strategy, &root, r, sender_value) {
                        ctx.send(
                            r,
                            ByzMsg {
                                path: root.clone(),
                                value: v,
                            },
                        );
                    }
                }
            }
        } else {
            for (path, value) in to_relay {
                for (r, child) in relay_fanout(&path, me, n) {
                    if let Some(v) = claim_for(strategy, &child, r, &value) {
                        ctx.send(
                            r,
                            ByzMsg {
                                path: child,
                                value: v,
                            },
                        );
                    }
                }
            }
        }
    });

    let fill_nanos = fill_start.elapsed().as_nanos() as u64;

    let resolved = eig_engine.resolve(instance.rule(), &store);
    net.eig = resolved.perf;
    net.eig.fill_nanos = fill_nanos;
    (
        ProtocolRun {
            decisions: resolved.decisions,
            net,
        },
        eig_engine,
        store,
    )
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
        let chaotic = run_protocol_with(&inst, &Val::Value(7), &strategies, 1, |e| {
            e.with_link_faults(plan)
        });
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
        let run = run_protocol_with(&inst, &Val::Value(7), &BTreeMap::new(), 1, |e| {
            e.with_link_faults(plan)
        });
        assert!(run.net.dropped_corrupt > 0);
        assert!(run.decisions.values().all(|v| *v == Val::Default));
    }

    #[test]
    fn corruption_as_absence_matches_engine_default() {
        let inst = instance(5, 1, 2);
        let plan = full_chaos_plan(5, simnet::LinkFaultKind::Corrupt { p: 0.4 });
        let implicit = run_protocol_with(&inst, &Val::Value(7), &BTreeMap::new(), 3, {
            let plan = plan.clone();
            |e| e.with_link_faults(plan)
        });
        let explicit = run_protocol_with(&inst, &Val::Value(7), &BTreeMap::new(), 3, |e| {
            e.with_link_faults(plan)
                .with_corruptor(corruption_as_absence())
        });
        assert_eq!(implicit.decisions, explicit.decisions);
        assert_eq!(implicit.net.dropped_corrupt, explicit.net.dropped_corrupt);
    }

    #[test]
    fn reordered_envelopes_never_produce_foreign_values() {
        // Reordering delays relays past their slot (absence), but late
        // envelopes still fold as direct observations; decisions stay
        // within {sender value, V_d} and runs are deterministic.
        let inst = instance(5, 1, 2);
        let run = |seed: u64| {
            run_protocol_with(&inst, &Val::Value(7), &BTreeMap::new(), seed, |e| {
                e.with_link_faults(full_chaos_plan(
                    5,
                    simnet::LinkFaultKind::Reorder { window: 1 },
                ))
            })
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
