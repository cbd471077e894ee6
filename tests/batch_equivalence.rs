//! Differential suite for the arena-backed batch service.
//!
//! The batch service multiplexes K agreement instances over one engine
//! run and resolves each through the shared memoized arena. These tests
//! pin down the identities that make that an *optimization* rather
//! than a semantic change:
//!
//! 1. **Multiplexing isolation.** Under healthy links and under
//!    deterministic chaos plans (cuts, `p = 1.0` duplication), every
//!    instance of a K-instance batch decides bit-identically to its own
//!    one-instance batch ([`degradable::run_protocol`]). (Probabilistic
//!    chaos draws the shared link RNG in a different interleaving for
//!    batch vs solo, so identity there is asserted via oracle 2 instead.)
//! 2. **Arena ≡ view fold.** Under arbitrary random chaos, the batch's
//!    arena decisions equal an independent recursive
//!    [`degradable::EigView`] resolve over the *same* recorded
//!    observations ([`degradable::BatchOptions::views`]).
//! 3. **Batch ≡ the two independent implementations.** Chaos-free, every
//!    instance equals [`degradable::reference_eval`] (the paper's
//!    recursion, no messages) and the sans-io
//!    [`degradable::NodeStateMachine`] driven by [`transport::run_sim`]
//!    (the wire inbox), in decisions and in traffic.
//! 4. **Rerun invariance.** Decisions and deterministic counters are
//!    identical across repeated chaotic runs with the same seed. (A
//!    one-shot batch is one shard; the service's shard-count invariance
//!    is pinned in `degradable::service`'s own tests.)

use degradable::{
    reference_eval, run_batch, run_protocol, run_protocol_with, BatchInstance, BatchOptions,
    BatchRun, ByzInstance, Params, Path, Strategy, Val, VoteRule,
};
use simnet::{LinkFaultKind, LinkFaultPlan, NodeId, SimRng};
use std::collections::{BTreeMap, BTreeSet};
use transport::{run_sim, LinkChaos};

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

fn chaos_plan(nodes: usize, seed: u64) -> LinkFaultPlan {
    let mut rng = SimRng::derive(seed, 77);
    let mut plan = LinkFaultPlan::healthy();
    for a in 0..nodes {
        for b in 0..nodes {
            if a == b {
                continue;
            }
            if rng.chance(0.3) {
                plan = plan.with(n(a), n(b), LinkFaultKind::Drop { p: 0.2 });
            }
            if rng.chance(0.3) {
                plan = plan.with(n(a), n(b), LinkFaultKind::Duplicate { p: 0.3 });
            }
            if rng.chance(0.3) {
                plan = plan.with(n(a), n(b), LinkFaultKind::Reorder { window: 2 });
            }
            if rng.chance(0.2) {
                plan = plan.with(n(a), n(b), LinkFaultKind::Corrupt { p: 0.15 });
            }
        }
    }
    plan
}

fn strategies(seed: u64, nodes: usize, faults: usize) -> BTreeMap<NodeId, Strategy<u64>> {
    let mut rng = SimRng::derive(seed, 999);
    let mut out = BTreeMap::new();
    while out.len() < faults {
        let who = n(rng.below(nodes as u64) as usize);
        let strat = match rng.below(4) {
            0 => Strategy::Silent,
            1 => Strategy::ConstantLie(Val::Value(rng.below(9))),
            2 => Strategy::TwoFaced {
                even: Val::Value(1),
                odd: Val::Value(2),
            },
            _ => Strategy::RandomLie {
                domain: vec![Val::Default, Val::Value(3), Val::Value(4)],
                seed,
            },
        };
        out.insert(who, strat);
    }
    out
}

fn mixed_instances(nodes: usize, k: usize) -> Vec<BatchInstance<u64>> {
    (0..k)
        .map(|i| BatchInstance {
            sender: n(i % nodes),
            value: Val::Value(1000 + i as u64),
        })
        .collect()
}

/// A batch over `plan` on a valid shape.
fn batch_over(
    params: Params,
    nodes: usize,
    instances: &[BatchInstance<u64>],
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
    seed: u64,
    plan: &LinkFaultPlan,
) -> BatchRun<u64> {
    let opts = BatchOptions::new().network(|e| e.with_link_faults(plan.clone()));
    run_batch(params, nodes, instances, strategies, seed, opts).unwrap()
}

#[test]
fn healthy_batch_matches_solo_runs_across_shapes() {
    for (nodes, m, u, k) in [(4, 1, 1, 3), (5, 1, 2, 6), (7, 2, 2, 4)] {
        let params = Params::new(m, u).unwrap();
        for seed in 0..4u64 {
            let strategies = strategies(seed, nodes, m);
            let instances = mixed_instances(nodes, k);
            let healthy = LinkFaultPlan::healthy();
            let batch = batch_over(params, nodes, &instances, &strategies, seed, &healthy);
            assert_eq!(batch.spoofs_rejected, 0);
            for (i, inst) in instances.iter().enumerate() {
                let single = ByzInstance::new(nodes, params, inst.sender).unwrap();
                let solo = run_protocol(&single, &inst.value, &strategies, seed);
                assert_eq!(
                    batch.decisions[i], solo.decisions,
                    "n={nodes} m={m} u={u} k={k} seed={seed} instance {i}"
                );
            }
        }
    }
}

#[test]
fn cut_plans_affect_batch_and_solo_identically() {
    let params = Params::new(1, 2).unwrap();
    let plan = LinkFaultPlan::healthy()
        .with_symmetric(n(0), n(2), LinkFaultKind::Cut { from_round: 1 })
        .with(n(3), n(1), LinkFaultKind::Cut { from_round: 0 })
        .with(n(4), n(2), LinkFaultKind::Cut { from_round: 2 });
    let strategies = strategies(5, 5, 1);
    let instances = mixed_instances(5, 5);
    let batch = batch_over(params, 5, &instances, &strategies, 5, &plan);
    assert!(batch.net.dropped_link_cut > 0);
    for (i, inst) in instances.iter().enumerate() {
        let single = ByzInstance::new(5, params, inst.sender).unwrap();
        let solo = run_protocol_with(
            &single,
            &inst.value,
            &strategies,
            5,
            BatchOptions::new().network(|e| e.with_link_faults(plan.clone())),
        );
        assert_eq!(batch.decisions[i], solo.decisions, "instance {i}");
    }
}

#[test]
fn chaotic_arena_decisions_match_independent_view_folds() {
    // Oracle 2: whatever the chaos did to the observations, the arena's
    // memoized bottom-up resolve must agree with a from-scratch
    // recursive EigView resolve of the exact same recorded claims.
    let params = Params::new(1, 2).unwrap();
    let rule = VoteRule::Degradable { m: 1 };
    for seed in 0..6u64 {
        let plan = chaos_plan(5, seed);
        let strategies = strategies(seed, 5, 1);
        let instances = mixed_instances(5, 4);
        let mut views = Vec::new();
        let opts = BatchOptions::new()
            .network(|e| e.with_link_faults(plan))
            .views(&mut views);
        let batch = run_batch(params, 5, &instances, &strategies, seed, opts).unwrap();
        assert!(batch.net.link_fault_injections() > 0, "seed {seed}");
        for (k, inst) in instances.iter().enumerate() {
            for (r, view) in &views[k] {
                assert_eq!(
                    batch.decisions[k][r],
                    view.resolve(inst.sender, rule),
                    "seed {seed} instance {k} receiver {r}"
                );
            }
        }
    }
}

#[test]
fn chaos_free_batch_matches_reference_eval_and_wire_machine() {
    // Oracle 3: neither implementation shares a line with the batch
    // inbox — `reference_eval` sends no messages at all, and `run_sim`
    // drives the sans-io `NodeStateMachine` the wire backends run.
    let params = Params::new(2, 3).unwrap();
    for seed in 0..4u64 {
        let strategies = strategies(seed, 8, 2);
        let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
        let instances = mixed_instances(8, 3);
        let healthy = LinkFaultPlan::healthy();
        let batch = batch_over(params, 8, &instances, &strategies, seed, &healthy);
        let mut wire_sent = 0u64;
        for (k, inst) in instances.iter().enumerate() {
            let single = ByzInstance::new(8, params, inst.sender).unwrap();
            let mut fabricate = |path: &Path, receiver: NodeId, truthful: &Val| {
                strategies[&path.last()].claim(path, receiver, truthful)
            };
            let reference = reference_eval(
                8,
                inst.sender,
                params.rounds(),
                single.rule(),
                &inst.value,
                &faulty,
                &mut fabricate,
            );
            assert_eq!(
                batch.decisions[k], reference.decisions,
                "reference_eval, seed {seed} instance {k}"
            );
            let wire = run_sim(&single, inst.value, &strategies, LinkChaos::healthy(), None);
            assert_eq!(
                batch.decisions[k], wire.decisions,
                "run_sim, seed {seed} instance {k}"
            );
            wire_sent += wire.stats.sent;
        }
        assert_eq!(batch.net.sent as u64, wire_sent, "seed {seed}");
    }
}

#[test]
fn chaotic_batch_is_invariant_across_reruns() {
    let params = Params::new(1, 2).unwrap();
    let plan = chaos_plan(5, 42);
    let strategies = strategies(42, 5, 1);
    let instances = mixed_instances(5, 6);
    let run = || {
        let opts = BatchOptions::new().network(|e| e.with_link_faults(plan.clone()));
        run_batch(params, 5, &instances, &strategies, 42, opts).unwrap()
    };
    let one = run();
    let again = run();
    assert_eq!(one.decisions, again.decisions, "rerun determinism");
    assert_eq!(one.net, again.net);
    assert_eq!(one.spoofs_rejected, again.spoofs_rejected);
}

#[test]
fn duplicate_everything_changes_no_decision() {
    let params = Params::new(1, 2).unwrap();
    let plan = LinkFaultPlan::uniform_complete(5, &[LinkFaultKind::Duplicate { p: 1.0 }]);
    let strategies = strategies(7, 5, 1);
    let instances = mixed_instances(5, 4);
    let healthy = LinkFaultPlan::healthy();
    let clean = batch_over(params, 5, &instances, &strategies, 7, &healthy);
    let doubled = batch_over(params, 5, &instances, &strategies, 7, &plan);
    assert!(doubled.net.duplicated > 0);
    assert_eq!(clean.decisions, doubled.decisions);
    // First-write-wins: the duplicates never reach the stores.
    assert_eq!(clean.net.eig, doubled.net.eig);
}
