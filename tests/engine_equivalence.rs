//! Differential equivalence suite for the arena-backed EIG engine.
//!
//! Campaigns sharing one oracle ([`degradable::reference_eval`], the
//! per-receiver recursive evaluator preserved verbatim):
//!
//! 1. **Exhaustive** — for every E10-certified shape (`1/1` on 4 nodes,
//!    `1/2` on 5 nodes), every sender position, every fault set of size
//!    `0..=u`, and *every* deterministic adversary table over
//!    `{V_d, 1, 2}` (the exact space [`degradable::certify`] explores,
//!    enumerated through the same [`choice_points`] function), the
//!    engine's decisions must be bit-identical to the reference.
//! 2. **Randomized protocol sweep** — `N ∈ {7..13}` with `m ∈ {1, 2}`
//!    under random PR-2 link-chaos plans (drops, duplicates, reorders,
//!    cuts): [`BatchOptions::views`] exposes every receiver's materialized
//!    [`EigView`]; re-resolving each view with the recursive fold must
//!    reproduce the shared-arena decision for that receiver exactly,
//!    chaos notwithstanding — both folds consume the same store, so any
//!    divergence is an engine bug, not a network artifact.

use degradable::adversary::{choice_points, Strategy};
use degradable::{
    reference_eval, run_protocol_with, AgreementValue, BatchOptions, ByzInstance, Params, Path, Val,
};
use simnet::linkfault::{LinkFaultKind, LinkFaultPlan};
use simnet::{NodeId, SimRng};
use std::collections::{BTreeMap, BTreeSet};

/// Enumerates all `k`-subsets of `0..n` (mirrors `certify`'s private
/// helper).
fn subsets(n: usize, k: usize) -> Vec<BTreeSet<NodeId>> {
    fn rec(
        start: usize,
        n: usize,
        k: usize,
        acc: &mut Vec<usize>,
        out: &mut Vec<BTreeSet<NodeId>>,
    ) {
        if acc.len() == k {
            out.push(acc.iter().map(|&i| NodeId::new(i)).collect());
            return;
        }
        for v in start..n {
            acc.push(v);
            rec(v + 1, n, k, acc, out);
            acc.pop();
        }
    }
    let mut out = Vec::new();
    rec(0, n, k, &mut Vec::new(), &mut out);
    out
}

/// Calls `f` once per assignment of `domain_len` values to `points`
/// positions (the same odometer `ExhaustiveSearch` drives).
fn for_each_table(points: usize, domain_len: usize, mut f: impl FnMut(&[usize])) {
    let mut odo = vec![0usize; points];
    loop {
        f(&odo);
        let mut i = 0;
        loop {
            if i == points {
                return;
            }
            odo[i] += 1;
            if odo[i] < domain_len {
                break;
            }
            odo[i] = 0;
            i += 1;
        }
    }
}

/// Exhausts the full E10 space for one shape and differentially checks
/// every table. Returns the number of adversary tables executed.
fn exhaust_shape(n: usize, m: usize, u: usize) -> u64 {
    let domain = [Val::Default, Val::Value(1), Val::Value(2)];
    let params = Params::new(m, u).expect("u >= m");
    let mut tables = 0u64;
    for sender_idx in 0..n {
        let sender = NodeId::new(sender_idx);
        let instance = ByzInstance::new(n, params, sender).expect("n at the bound");
        let engine = instance.engine();
        for f in 0..=u {
            for faulty in subsets(n, f) {
                let points = choice_points(&instance, &faulty);
                for_each_table(points.len(), domain.len(), |odo| {
                    tables += 1;
                    let table: BTreeMap<(Path, NodeId), Val> = points
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (p.clone(), domain[odo[i]]))
                        .collect();
                    let mut fabricate = |path: &Path, r: NodeId, _t: &Val| {
                        table
                            .get(&(path.clone(), r))
                            .copied()
                            .unwrap_or(AgreementValue::Default)
                    };
                    let oracle = reference_eval(
                        n,
                        sender,
                        instance.depth(),
                        instance.rule(),
                        &Val::Value(1),
                        &faulty,
                        &mut fabricate,
                    )
                    .decisions;
                    let run = instance.run_engine(&engine, &Val::Value(1), &faulty, &mut fabricate);
                    assert_eq!(
                        run.decisions, oracle,
                        "engine diverged from reference: n={n} m={m} u={u} \
                         sender={sender} faulty={faulty:?} table={table:?}"
                    );
                });
            }
        }
    }
    tables
}

#[test]
fn full_e10_space_n4_m1_u1_bit_identical() {
    // The classic OM(1) shape, fully exhausted.
    let tables = exhaust_shape(4, 1, 1);
    // 4 senders x (empty + sender-faulty 3^3 + three non-sender 3^2).
    assert_eq!(tables, 4 * (1 + 27 + 3 * 9));
}

#[test]
fn full_e10_space_n5_m1_u2_bit_identical() {
    // The paper's running example at the u = 2 bound: the exact space
    // certify(Params::new(1, 2), 5, ..) explores.
    let tables = exhaust_shape(5, 1, 2);
    // Per sender: empty (1) + sender alone (3^4) + four others (3^3)
    // + four sender-pairs (3^7) + six other-pairs (3^6).
    assert_eq!(tables, 5 * (1 + 81 + 4 * 27 + 4 * 2187 + 6 * 729));
}

/// A random link-chaos plan in the PR-2 vocabulary: a handful of faulty
/// directed links with drops, duplicates, reorders, or round-cuts.
fn random_plan(n: usize, rng: &mut SimRng) -> LinkFaultPlan {
    let mut plan = LinkFaultPlan::healthy();
    for _ in 0..(1 + rng.below(6)) {
        let from = NodeId::new(rng.below(n as u64) as usize);
        let to = NodeId::new(rng.below(n as u64) as usize);
        if from == to {
            continue;
        }
        let kind = match rng.below(4) {
            0 => LinkFaultKind::Drop { p: 0.5 },
            1 => LinkFaultKind::Duplicate { p: 0.7 },
            2 => LinkFaultKind::Reorder { window: 2 },
            _ => LinkFaultKind::Cut {
                from_round: rng.below(3) as usize,
            },
        };
        plan = plan.with(from, to, kind);
    }
    plan
}

#[test]
fn randomized_chaos_sweep_matches_per_receiver_folds() {
    let mut rng = SimRng::seed(0xE19_E14);
    for n in 7..=13usize {
        for m in [1usize, 2] {
            let params = Params::new(m, m).expect("u = m");
            let sender = NodeId::new(rng.below(n as u64) as usize);
            let instance = ByzInstance::new(n, params, sender).expect("n >= 3m + 1");
            for _ in 0..3 {
                // Random battery strategies on up to m + u non-sender nodes.
                let battery = Strategy::battery(3, 9, rng.below(u64::MAX));
                let fault_count = rng.below(2 * m as u64 + 1) as usize;
                let strategies: BTreeMap<NodeId, Strategy<u64>> = rng
                    .choose_indices(n - 1, fault_count)
                    .into_iter()
                    .map(|i| {
                        let node = NodeId::new((sender.index() + 1 + i) % n);
                        let strategy = rng.pick(&battery).expect("non-empty").1.clone();
                        (node, strategy)
                    })
                    .collect();
                let plan = random_plan(n, &mut rng);
                let seed = rng.below(u64::MAX);
                let mut views = Vec::new();
                let opts = BatchOptions::new()
                    .network(|e| e.with_link_faults(plan.clone()))
                    .views(&mut views);
                let run = run_protocol_with(&instance, &Val::Value(7), &strategies, seed, opts);
                let views = &views[0];
                assert_eq!(run.decisions.len(), views.len());
                assert!(run.net.eig.arena_nodes > 0);
                for (r, view) in views {
                    let folded = view.resolve(sender, instance.rule());
                    assert_eq!(
                        run.decisions.get(r),
                        Some(&folded),
                        "arena decision diverged from the recursive fold of \
                         receiver {r}'s own view: n={n} m={m} plan={plan:?}"
                    );
                }
            }
        }
    }
}
