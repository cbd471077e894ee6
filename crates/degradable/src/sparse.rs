//! Algorithm BYZ over sparse topologies (Theorem 3).
//!
//! BYZ assumes full connectivity; on a sparse network every point-to-point
//! message instead travels over `m+u+1` vertex-disjoint paths
//! ([`simnet::RelayNetwork`]) and is accepted under the degradable delivery
//! rule. The composite guarantees (module docs of [`simnet::routing`]):
//!
//! * `f <= m` — all messages between fault-free nodes delivered intact:
//!   BYZ behaves exactly as on the complete graph, so D.1/D.2 hold;
//! * `m < f <= u` — messages between fault-free nodes are delivered intact
//!   **or absent** (`V_d`), never altered: exactly the relaxed assumptions
//!   of Section 6.1 under which D.3/D.4 still hold.
//!
//! Below the Theorem 3 bound (connectivity `<= m+u`) the adversary can
//! place its faults on a vertex cut and fully control the traffic between
//! the two sides; [`run_sparse`] with `allow_below_bound` exposes that
//! failure mode for the connectivity experiments.

// A topology short of the connectivity bound is a `RelayError`; outside
// tests nothing here may panic on one.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::adversary::Strategy;
use crate::byz::ByzInstance;
use crate::conditions::RunRecord;
use crate::path::Path;
use crate::value::AgreementValue;
use simnet::routing::Delivery;
use simnet::routing::{CopyAction, RelayError, RelayHop, RelayNetwork};
use simnet::{NodeId, SimRng, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// How faulty *intermediate* nodes treat protocol traffic relayed through
/// them (their behaviour as protocol *participants* is still governed by
/// their [`Strategy`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayCorruption<V> {
    /// Forward everything unchanged (faults attack only as participants).
    Forward,
    /// Drop every copy passing through.
    DropAll,
    /// Replace every copy with a fixed value.
    ReplaceWith(AgreementValue<V>),
}

impl<V: Clone> RelayCorruption<V> {
    fn action(&self, _hop: RelayHop) -> CopyAction<AgreementValue<V>> {
        match self {
            RelayCorruption::Forward => CopyAction::Forward,
            RelayCorruption::DropAll => CopyAction::Drop,
            RelayCorruption::ReplaceWith(v) => CopyAction::Replace(v.clone()),
        }
    }
}

/// Link-level chaos applied to individual path copies in flight, on top of
/// whatever the faulty relays do. Models a lossy, duplicating, reordering
/// fabric whose garbling is *detectable* (the paper's oral-message axiom):
/// a corrupted copy is discarded by the receiver and reads as absent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayChaos {
    /// Probability an in-flight copy is silently lost.
    pub drop_p: f64,
    /// Probability a copy is garbled; garbling is detectable, so the copy
    /// is discarded on arrival (absence, never a wrong value).
    pub corrupt_p: f64,
    /// Probability a copy arrives twice.
    pub duplicate_p: f64,
    /// Shuffle arrival order of the copies of each logical message.
    pub reorder: bool,
    /// Seed for the chaos stream (independent of protocol randomness).
    pub seed: u64,
}

impl RelayChaos {
    /// No chaos at all; [`run_sparse_chaotic`] degenerates to
    /// [`run_sparse`].
    pub fn none(seed: u64) -> Self {
        RelayChaos {
            drop_p: 0.0,
            corrupt_p: 0.0,
            duplicate_p: 0.0,
            reorder: false,
            seed,
        }
    }

    /// Duplication and reordering only — the perturbations the degradable
    /// acceptance rule must be *invariant* under.
    pub fn benign(duplicate_p: f64, seed: u64) -> Self {
        RelayChaos {
            drop_p: 0.0,
            corrupt_p: 0.0,
            duplicate_p,
            reorder: true,
            seed,
        }
    }

    /// Applies chaos to the copies of one logical message. Each surviving
    /// copy becomes an *envelope* tagged with its path index; duplicates
    /// append a second envelope, reordering shuffles the arrival sequence.
    /// Returns the envelopes plus the number of chaos events injected.
    fn perturb<V: Clone>(
        &self,
        copies: &[Option<V>],
        rng: &mut SimRng,
    ) -> (Vec<(usize, V)>, usize) {
        let mut envelopes: Vec<(usize, V)> = Vec::with_capacity(copies.len());
        let mut events = 0usize;
        for (path_index, copy) in copies.iter().enumerate() {
            let Some(v) = copy else { continue };
            if rng.chance(self.drop_p) {
                events += 1;
                continue;
            }
            if rng.chance(self.corrupt_p) {
                // Detectably garbled: the receiver discards it (absence).
                events += 1;
                continue;
            }
            envelopes.push((path_index, v.clone()));
            if rng.chance(self.duplicate_p) {
                events += 1;
                envelopes.push((path_index, v.clone()));
            }
        }
        if self.reorder {
            // Fisher–Yates over arrival order.
            for i in (1..envelopes.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                envelopes.swap(i, j);
            }
        }
        (envelopes, events)
    }
}

/// Folds chaos-perturbed envelopes back into per-path slots: the first
/// envelope seen for each path index wins, later duplicates are discarded.
/// This is the receiver-side idempotent fold that makes acceptance
/// invariant under duplication and arrival order.
fn dedup_envelopes<V: Clone>(path_count: usize, envelopes: &[(usize, V)]) -> Vec<Option<V>> {
    let mut slots: Vec<Option<V>> = vec![None; path_count];
    for (path_index, v) in envelopes {
        if slots[*path_index].is_none() {
            slots[*path_index] = Some(v.clone());
        }
    }
    slots
}

/// Result of a sparse-network execution.
#[derive(Debug, Clone)]
pub struct SparseRun<V: Ord> {
    /// Every receiver's decision.
    pub decisions: BTreeMap<NodeId, AgreementValue<V>>,
    /// Count of point-to-point transmissions whose delivery degraded to
    /// absent at the relay layer (between *fault-free* endpoint pairs).
    pub degraded_deliveries: usize,
    /// Count of chaos events (drops, detectable corruptions, duplicates)
    /// injected by a [`RelayChaos`] plan; zero for [`run_sparse`].
    pub chaos_events: usize,
    /// Arena-engine counters for the final fold (see
    /// [`simnet::EigPerf`]); wall-time fields do not participate in
    /// equality.
    pub eig: simnet::EigPerf,
}

impl<V: Clone + Ord> SparseRun<V> {
    /// Packages the run for condition checking.
    pub fn record(
        &self,
        instance: &ByzInstance,
        sender_value: AgreementValue<V>,
        faulty: BTreeSet<NodeId>,
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

/// Runs BYZ over `topo`, relaying every point-to-point message across
/// vertex-disjoint paths with degradable delivery.
///
/// With `allow_below_bound = false` the topology must provide `m+u+1`
/// disjoint paths between every pair (Theorem 3's sufficient condition);
/// otherwise an error is returned. With `allow_below_bound = true` the run
/// proceeds with however many paths exist — used to demonstrate failures
/// below the bound.
///
/// # Errors
///
/// [`RelayError::InsufficientConnectivity`] when the bound is enforced and
/// violated.
pub fn run_sparse<V: Clone + Ord + Hash + Send + Sync>(
    instance: &ByzInstance,
    topo: &Topology,
    sender_value: &AgreementValue<V>,
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    corruption: &RelayCorruption<V>,
    allow_below_bound: bool,
) -> Result<SparseRun<V>, RelayError> {
    run_sparse_inner(
        instance,
        topo,
        sender_value,
        strategies,
        corruption,
        allow_below_bound,
        None,
    )
}

/// [`run_sparse`] with a [`RelayChaos`] plan perturbing every in-flight
/// path copy. Corrupted copies read as absent (the oral-message axiom:
/// garbling is detectable), duplicated copies are discarded by the
/// receiver-side idempotent fold, and arrival order never matters — so
/// benign chaos leaves decisions bit-identical to the chaos-free run.
///
/// # Errors
///
/// [`RelayError::InsufficientConnectivity`] when the bound is enforced and
/// violated.
pub fn run_sparse_chaotic<V: Clone + Ord + Hash + Send + Sync>(
    instance: &ByzInstance,
    topo: &Topology,
    sender_value: &AgreementValue<V>,
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    corruption: &RelayCorruption<V>,
    allow_below_bound: bool,
    chaos: &RelayChaos,
) -> Result<SparseRun<V>, RelayError> {
    run_sparse_inner(
        instance,
        topo,
        sender_value,
        strategies,
        corruption,
        allow_below_bound,
        Some(chaos),
    )
}

fn run_sparse_inner<V: Clone + Ord + Hash + Send + Sync>(
    instance: &ByzInstance,
    topo: &Topology,
    sender_value: &AgreementValue<V>,
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    corruption: &RelayCorruption<V>,
    allow_below_bound: bool,
    chaos: Option<&RelayChaos>,
) -> Result<SparseRun<V>, RelayError> {
    let params = instance.params();
    let relay = if allow_below_bound {
        RelayNetwork::new_unchecked(topo, params.m(), params.u())
    } else {
        RelayNetwork::new(topo, params.m(), params.u())?
    };
    let n = instance.n();
    let sender = instance.sender();
    let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
    let mut degraded = 0usize;
    let mut chaos_events = 0usize;
    let mut chaos_rng = SimRng::seed(chaos.map_or(0, |c| c.seed));

    // transmit src -> dst through the relay fabric.
    let mut send = |src: NodeId,
                    dst: NodeId,
                    value: &AgreementValue<V>,
                    degraded: &mut usize|
     -> Option<AgreementValue<V>> {
        let mut adversary = |hop: RelayHop| corruption.action(hop);
        let d = match chaos {
            None => relay.transmit(src, dst, value, &faulty, &mut adversary),
            Some(c) => {
                let copies = relay.copies(src, dst, value, &faulty, &mut adversary);
                let (envelopes, events) = c.perturb(&copies, &mut chaos_rng);
                chaos_events += events;
                let slots = dedup_envelopes(copies.len(), &envelopes);
                relay.link().resolve(&slots)
            }
        };
        match d {
            Delivery::Accepted(v) => Some(v),
            Delivery::Absent => {
                if !faulty.contains(&src) && !faulty.contains(&dst) {
                    *degraded += 1;
                }
                None
            }
        }
    };

    // The shared arena slot table `store[r][σ]` (None = absent) replaces
    // the old `BTreeMap<Path, Vec<Option<_>>>`: the final fold is then a
    // single memoized resolution over all receivers at once.
    let eig_engine = instance.engine();
    let arena = eig_engine.arena();
    let mut store = crate::engine::EigStore::new(arena);

    // Level 1.
    let root = Path::root(sender);
    for r in NodeId::all(n) {
        if r == sender {
            continue;
        }
        let claimed: Option<AgreementValue<V>> = match strategies.get(&sender) {
            None => Some(sender_value.clone()),
            Some(Strategy::Silent) => None,
            Some(s) => Some(s.claim(&root, r, sender_value)),
        };
        if let Some(v) = claimed.and_then(|v| send(sender, r, &v, &mut degraded)) {
            store.record(arena, crate::engine::PathId::ROOT, r, v);
        }
    }

    // Levels 2..=depth, label by label in arena order — level by level,
    // a label's children by ascending relayer.
    for child_id in arena.ids() {
        let Some(sigma_id) = arena.parent(child_id) else {
            continue; // the root: level 1, above
        };
        let child = arena.resolve_path(child_id);
        let relayer = child.last();
        // What the relayer holds for sigma (absent reads as V_d).
        let held: AgreementValue<V> = store.get(sigma_id, relayer).cloned().unwrap_or_default();
        for r in NodeId::all(n) {
            if child.contains(r) {
                continue;
            }
            let claimed: Option<AgreementValue<V>> = match strategies.get(&relayer) {
                None => Some(held.clone()),
                Some(Strategy::Silent) => None,
                Some(s) => Some(s.claim(&child, r, &held)),
            };
            if let Some(v) = claimed.and_then(|v| send(relayer, r, &v, &mut degraded)) {
                store.record(arena, child_id, r, v);
            }
        }
    }

    // Fold: one arena resolution covering every receiver.
    let resolved = eig_engine.resolve(instance.rule(), &store);
    Ok(SparseRun {
        decisions: resolved.decisions,
        degraded_deliveries: degraded,
        chaos_events,
        eig: resolved.perf,
    })
}

/// The Theorem 3 proof topology: the sender (node 0) is connected *only*
/// to a cut `F = {1, …, cut_size}`, while all other nodes (and the cut)
/// form a complete subgraph. The graph's vertex connectivity is exactly
/// `cut_size` (removing `F` isolates the sender), so choosing
/// `cut_size = m+u` realizes the "connectivity `m+u`" premise of the
/// theorem's impossibility argument with a maximally connected remainder.
pub fn sender_cut_topology(n: usize, cut_size: usize) -> Topology {
    assert!(cut_size + 1 < n, "need at least one node beyond the cut");
    let mut g = simnet::Graph::empty(n);
    for a in 1..n {
        for b in (a + 1)..n {
            g.add_edge(NodeId::new(a), NodeId::new(b));
        }
    }
    for c in 1..=cut_size {
        g.add_edge(NodeId::new(0), NodeId::new(c));
    }
    Topology::from_graph(format!("sender-cut({cut_size},{n})"), g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::check_degradable;
    use crate::params::Params;
    use crate::value::Val;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn instance(nodes: usize, m: usize, u: usize) -> ByzInstance {
        ByzInstance::new(nodes, Params::new(m, u).unwrap(), n(0)).unwrap()
    }

    #[test]
    fn complete_topology_matches_reference() {
        let inst = instance(5, 1, 2);
        let strategies: BTreeMap<_, _> = [(n(3), Strategy::ConstantLie(Val::Value(9)))]
            .into_iter()
            .collect();
        let sparse = run_sparse(
            &inst,
            &Topology::complete(5),
            &Val::Value(7),
            &strategies,
            &RelayCorruption::Forward,
            false,
        )
        .unwrap();
        let sc = crate::adversary::AdversaryRun {
            instance: inst,
            sender_value: Val::Value(7),
            strategies,
        };
        assert_eq!(sparse.decisions, sc.run().decisions);
        assert_eq!(sparse.degraded_deliveries, 0);
    }

    #[test]
    fn harary_at_connectivity_bound_satisfies_conditions() {
        // 1/2-degradable on 8 nodes over H(4,8): connectivity exactly
        // m+u+1 = 4. Two faults, corrupting both as participants and as
        // relays.
        let inst = instance(8, 1, 2);
        let topo = Topology::harary(4, 8);
        let strategies: BTreeMap<_, _> = [
            (n(3), Strategy::ConstantLie(Val::Value(9))),
            (n(5), Strategy::ConstantLie(Val::Value(9))),
        ]
        .into_iter()
        .collect();
        let run = run_sparse(
            &inst,
            &topo,
            &Val::Value(7),
            &strategies,
            &RelayCorruption::ReplaceWith(Val::Value(9)),
            false,
        )
        .unwrap();
        let rec = run.record(&inst, Val::Value(7), [n(3), n(5)].into_iter().collect());
        let verdict = check_degradable(&rec);
        assert!(verdict.is_satisfied(), "{verdict:?}");
    }

    #[test]
    fn single_fault_on_sparse_graph_gives_full_agreement() {
        // f = 1 <= m: despite relays through the faulty node, D.1 holds
        // with the *sender's exact value* (no degradation).
        let inst = instance(8, 1, 2);
        let topo = Topology::harary(4, 8);
        let strategies: BTreeMap<_, _> = [(n(4), Strategy::ConstantLie(Val::Value(9)))]
            .into_iter()
            .collect();
        let run = run_sparse(
            &inst,
            &topo,
            &Val::Value(7),
            &strategies,
            &RelayCorruption::ReplaceWith(Val::Value(9)),
            false,
        )
        .unwrap();
        for r in 1..8 {
            if r == 4 {
                continue;
            }
            assert_eq!(run.decisions[&n(r)], Val::Value(7), "receiver {r}");
        }
    }

    #[test]
    fn below_connectivity_bound_rejected_by_default() {
        let inst = instance(8, 1, 2);
        let topo = Topology::harary(3, 8); // connectivity 3 < 4
        let err = run_sparse(
            &inst,
            &topo,
            &Val::Value(7),
            &BTreeMap::new(),
            &RelayCorruption::Forward,
            false,
        )
        .unwrap_err();
        assert!(matches!(err, RelayError::InsufficientConnectivity { .. }));
    }

    #[test]
    fn cut_adversary_breaks_below_connectivity_bound() {
        // The Theorem 3 proof structure for (m,u) = (1,2): the sender's
        // only links go through a cut F of size m+u = 3; the subset
        // F_2 = {2,3} of size u is faulty, corrupting crossing copies to 9
        // and lying 9 as protocol participants. A sender message reaches
        // each receiver over 3 disjoint paths: one honest copy (7, via
        // node 1) and two corrupted (9) — with only k = m+u paths the
        // acceptance rule sees u = k-m copies of 9 and just m < m+1 honest
        // copies, so it accepts the *wrong* value. Every fault-free
        // receiver beyond the cut then decides 9 while the fault-free
        // sender sent 7: D.3 violated with f = u faults.
        let params = Params::new(1, 2).unwrap();
        let inst = ByzInstance::new(8, params, n(0)).unwrap();
        let topo = sender_cut_topology(8, 3);
        assert_eq!(simnet::vertex_connectivity(topo.graph()), 3);
        let f2 = [n(2), n(3)];
        let strategies: BTreeMap<_, _> = f2
            .iter()
            .map(|&c| (c, Strategy::ConstantLie(Val::Value(9))))
            .collect();
        let run = run_sparse(
            &inst,
            &topo,
            &Val::Value(7),
            &strategies,
            &RelayCorruption::ReplaceWith(Val::Value(9)),
            true,
        )
        .unwrap();
        let rec = run.record(&inst, Val::Value(7), f2.into_iter().collect());
        let verdict = check_degradable(&rec);
        assert!(
            verdict.is_violated(),
            "expected violation below connectivity bound: {verdict:?}"
        );
    }

    #[test]
    fn same_cut_attack_harmless_at_connectivity_bound() {
        // Control: widen the cut to m+u+1 = 4. The same adversary can no
        // longer force a wrong acceptance (2 corrupted copies of 4 never
        // reach the k-m = 3 threshold); deliveries degrade to absent at
        // worst and D.3 holds.
        let params = Params::new(1, 2).unwrap();
        let inst = ByzInstance::new(8, params, n(0)).unwrap();
        let topo = sender_cut_topology(8, 4);
        assert_eq!(simnet::vertex_connectivity(topo.graph()), 4);
        let f2 = [n(2), n(3)];
        let strategies: BTreeMap<_, _> = f2
            .iter()
            .map(|&c| (c, Strategy::ConstantLie(Val::Value(9))))
            .collect();
        let run = run_sparse(
            &inst,
            &topo,
            &Val::Value(7),
            &strategies,
            &RelayCorruption::ReplaceWith(Val::Value(9)),
            false,
        )
        .unwrap();
        let rec = run.record(&inst, Val::Value(7), f2.into_iter().collect());
        let verdict = check_degradable(&rec);
        assert!(verdict.is_satisfied(), "{verdict:?}");
    }

    #[test]
    fn degraded_deliveries_counted() {
        // With f = u = 2 > m = 1 faults acting as relay droppers on a
        // minimal-connectivity graph, some fault-free pair loses messages.
        let inst = instance(8, 1, 2);
        let topo = Topology::harary(4, 8);
        let strategies: BTreeMap<_, _> = [(n(2), Strategy::Truthful), (n(6), Strategy::Truthful)]
            .into_iter()
            .collect();
        let run = run_sparse(
            &inst,
            &topo,
            &Val::Value(7),
            &strategies,
            &RelayCorruption::DropAll,
            false,
        )
        .unwrap();
        assert!(run.degraded_deliveries > 0);
        // Conditions must still hold (degraded, not broken).
        let rec = run.record(&inst, Val::Value(7), [n(2), n(6)].into_iter().collect());
        assert!(check_degradable(&rec).is_satisfied());
    }

    #[test]
    fn zero_chaos_matches_run_sparse_exactly() {
        let inst = instance(8, 1, 2);
        let topo = Topology::harary(4, 8);
        let strategies: BTreeMap<_, _> = [(n(3), Strategy::ConstantLie(Val::Value(9)))]
            .into_iter()
            .collect();
        let baseline = run_sparse(
            &inst,
            &topo,
            &Val::Value(7),
            &strategies,
            &RelayCorruption::ReplaceWith(Val::Value(9)),
            false,
        )
        .unwrap();
        let chaotic = run_sparse_chaotic(
            &inst,
            &topo,
            &Val::Value(7),
            &strategies,
            &RelayCorruption::ReplaceWith(Val::Value(9)),
            false,
            &RelayChaos::none(3),
        )
        .unwrap();
        assert_eq!(chaotic.decisions, baseline.decisions);
        assert_eq!(chaotic.degraded_deliveries, baseline.degraded_deliveries);
        assert_eq!(chaotic.chaos_events, 0);
    }

    #[test]
    fn benign_chaos_is_decision_invariant() {
        // Duplication + reordering must be invisible: the receiver-side
        // fold discards late duplicates and ignores arrival order, so the
        // decisions match the chaos-free run bit-for-bit at every seed.
        let inst = instance(8, 1, 2);
        let topo = Topology::harary(4, 8);
        let strategies: BTreeMap<_, _> = [
            (n(3), Strategy::ConstantLie(Val::Value(9))),
            (n(5), Strategy::ConstantLie(Val::Value(9))),
        ]
        .into_iter()
        .collect();
        let baseline = run_sparse(
            &inst,
            &topo,
            &Val::Value(7),
            &strategies,
            &RelayCorruption::ReplaceWith(Val::Value(9)),
            false,
        )
        .unwrap();
        for seed in 0..5 {
            let chaotic = run_sparse_chaotic(
                &inst,
                &topo,
                &Val::Value(7),
                &strategies,
                &RelayCorruption::ReplaceWith(Val::Value(9)),
                false,
                &RelayChaos::benign(0.8, seed),
            )
            .unwrap();
            assert_eq!(chaotic.decisions, baseline.decisions, "seed {seed}");
            assert!(chaotic.chaos_events > 0, "seed {seed}");
        }
    }

    #[test]
    fn corrupting_chaos_never_yields_foreign_values() {
        // No faulty nodes, heavy link chaos. Corruption is detectable
        // (oral-message axiom), so the worst the fabric can do is absence:
        // every decision is the sender's value or V_d, never foreign.
        let inst = instance(8, 1, 2);
        let topo = Topology::harary(4, 8);
        let chaos = RelayChaos {
            drop_p: 0.25,
            corrupt_p: 0.25,
            duplicate_p: 0.25,
            reorder: true,
            seed: 11,
        };
        let run = run_sparse_chaotic(
            &inst,
            &topo,
            &Val::Value(7),
            &BTreeMap::new(),
            &RelayCorruption::Forward,
            false,
            &chaos,
        )
        .unwrap();
        assert!(run.chaos_events > 0);
        for (r, d) in &run.decisions {
            assert!(
                matches!(d, Val::Value(7) | Val::Default),
                "receiver {r:?} decided {d:?}"
            );
        }
    }

    #[test]
    fn chaotic_runs_are_deterministic_per_seed() {
        let inst = instance(8, 1, 2);
        let topo = Topology::harary(4, 8);
        let chaos = RelayChaos {
            drop_p: 0.2,
            corrupt_p: 0.1,
            duplicate_p: 0.3,
            reorder: true,
            seed: 42,
        };
        let run = |_: usize| {
            run_sparse_chaotic(
                &inst,
                &topo,
                &Val::Value(7),
                &BTreeMap::new(),
                &RelayCorruption::Forward,
                false,
                &chaos,
            )
            .unwrap()
        };
        let (a, b) = (run(0), run(1));
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.chaos_events, b.chaos_events);
        assert_eq!(a.degraded_deliveries, b.degraded_deliveries);
    }

    #[test]
    fn dedup_keeps_first_envelope_per_path() {
        let slots = dedup_envelopes(3, &[(1, 9u64), (0, 7), (1, 8)]);
        assert_eq!(slots, vec![Some(7), Some(9), None]);
    }
}
