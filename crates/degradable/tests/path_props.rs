//! [`Path`] stores short paths inline and spills longer ones to the heap.
//! Nothing outside `path.rs` may be able to tell: these properties hold the
//! type to the semantics of the `Vec<NodeId>` newtype it used to be, on
//! both sides of the inline boundary and across it, and one tree deeper
//! than the inline capacity is decided end to end against the reference
//! evaluator.
//!
//! `path.rs` also states what an honest node accepts (`Path::from_ids`,
//! `admit`, `is_label`); the last property holds that one rule to the two
//! statements written without it — the arena's interned tree, and the
//! conformance checker's `classify`.

use degradable::adversary::Strategy;
use degradable::path::{admit, is_label, Arrival};
use degradable::service::{run_batch, BatchInstance, BatchOptions};
use degradable::{
    reference_eval, run_protocol, ByzInstance, ByzMsg, DeliveryClass, EigEngine, Params, Path,
    PathArena, SpecChecker, SpecInstance, Val,
};
use proptest::prelude::*;
use simnet::{NodeId, SimRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// Paths of up to this many nodes are stored inline (`path.rs`,
/// `INLINE_CAP`); the properties below straddle it.
const INLINE_CAP: usize = 4;

/// `len` distinct node ids out of `0..n`, in a seed-determined order.
fn distinct_nodes(n: usize, len: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = SimRng::seed(seed);
    let mut pool: Vec<NodeId> = NodeId::all(n).collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i as u64 + 1) as usize);
    }
    pool.truncate(len);
    pool
}

fn build(nodes: &[NodeId]) -> Path {
    nodes[1..]
        .iter()
        .fold(Path::root(nodes[0]), |p, &j| p.child(j))
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Accessors, `Display` and `Debug` are those of the node sequence.
    #[test]
    fn path_reads_like_its_node_sequence(len in 1usize..9, seed in 0u64..10_000) {
        let nodes = distinct_nodes(12, len, seed);
        let path = build(&nodes);
        prop_assert_eq!(path.as_slice(), nodes.as_slice());
        prop_assert_eq!(path.len(), len);
        prop_assert!(!path.is_empty());
        prop_assert_eq!(path.sender(), nodes[0]);
        prop_assert_eq!(path.last(), nodes[len - 1]);
        for v in NodeId::all(12) {
            prop_assert_eq!(path.contains(v), nodes.contains(&v));
        }
        let listed: Vec<String> = nodes.iter().map(NodeId::to_string).collect();
        prop_assert_eq!(path.to_string(), format!("[{}]", listed.join(",")));
        prop_assert_eq!(format!("{path:?}"), format!("Path({nodes:?})"));
        prop_assert_eq!(&path.clone(), &path);
    }

    /// `Eq`, `Ord` and `Hash` are those of the node sequence, whichever
    /// side of the inline boundary either operand is stored on.
    #[test]
    fn comparisons_ignore_the_representation(
        len_a in 1usize..9, len_b in 1usize..9, seed in 0u64..10_000, shared in 0usize..9,
    ) {
        let a = distinct_nodes(12, len_a, seed);
        // `b` shares a prefix with `a`, so orderings are decided late.
        let keep = shared.min(len_a).min(len_b);
        let mut b = a[..keep].to_vec();
        let rest = distinct_nodes(12, 12, seed ^ 0x5EED);
        b.extend(rest.into_iter().filter(|v| !a[..keep].contains(v)).take(len_b - keep));
        let (pa, pb) = (build(&a), build(&b));
        prop_assert_eq!(pa == pb, a == b);
        prop_assert_eq!(pa.cmp(&pb), a.cmp(&b));
        prop_assert_eq!(pa.partial_cmp(&pb), a.partial_cmp(&b));
        prop_assert_eq!(hash_of(&pa), hash_of(&a));
        prop_assert_eq!(hash_of(&pb), hash_of(b.as_slice()));
    }

    /// `child` appends, leaves the parent alone and refuses a repeat, at
    /// every length from well inside the inline capacity to well past it.
    #[test]
    fn child_extends_across_the_boundary(len in 1usize..8, seed in 0u64..10_000) {
        let nodes = distinct_nodes(12, len + 1, seed);
        let parent = build(&nodes[..len]);
        let child = parent.child(nodes[len]);
        prop_assert_eq!(child.as_slice(), nodes.as_slice());
        prop_assert_eq!(parent.as_slice(), &nodes[..len]);
        prop_assert!(parent < child, "a proper prefix sorts first");
        let kids = parent.children(12);
        prop_assert_eq!(kids.len(), 12 - len);
        prop_assert!(kids.contains(&child));
        prop_assert!(kids.windows(2).all(|w| w[0] < w[1]), "children come in id order");
        let repeat = std::panic::catch_unwind(|| parent.child(nodes[0]));
        prop_assert!(repeat.is_err(), "a node never relays twice");
    }

    /// `intern ∘ resolve_path = id` and `resolve_path ∘ intern = id` on
    /// trees deeper than the inline capacity.
    #[test]
    fn interning_round_trips_past_the_boundary(n in 6usize..9, sender in 0usize..6, depth in 5usize..7) {
        prop_assume!(depth > INLINE_CAP);
        let engine = EigEngine::new(n, NodeId::new(sender), depth);
        let arena = engine.arena();
        let mut deepest = 0;
        for id in arena.ids() {
            let path = arena.resolve_path(id);
            deepest = deepest.max(path.len());
            prop_assert_eq!(arena.intern(&path), Some(id));
            prop_assert_eq!(&arena.resolve_path(arena.intern(&path).unwrap()), &path);
        }
        prop_assert_eq!(deepest, depth);
    }

    /// One admission rule, three statements. An envelope is drawn
    /// well-formed for a random shape and then broken in one of the ways
    /// an envelope can be; `from_ids` + `admit` + `is_label` must accept
    /// exactly what the fill's statement (the arena interns the label, and
    /// the source, receiver and level fit) and the referee's
    /// (`SpecChecker::classify`) accept, and time it the same way.
    #[test]
    fn the_admission_rule_agrees_with_the_arena_and_the_spec(
        n in 3usize..9, depth in 1usize..5, family in 0usize..8, seed in 0u64..100_000,
    ) {
        let mut rng = SimRng::seed(seed);
        let mut pick = |bound: usize| rng.below(bound as u64) as usize;
        // Well-formed: a label of the tree, from its last relayer, to a
        // node off it, at or after its level.
        let len = 1 + pick(depth.min(n - 1));
        let mut ids = distinct_nodes(n, n, seed);
        let spare = ids.split_off(len + 1);
        let mut me = ids.pop().unwrap();
        let sender = ids[0];
        let mut round = len + pick(3);
        let at = pick(len);
        match family {
            // Wrong root.
            1 => ids[0] = NodeId::new((sender.index() + 1 + pick(n - 1)) % n),
            // A node twice.
            2 if len > 1 => ids[at] = ids[(at + 1) % len],
            // A node the system does not have.
            3 => ids[at] = NodeId::new(n + pick(1_000)),
            // Deeper than the tree (on nodes past `n` once it runs out).
            4 => ids.extend(spare.into_iter().chain((n..).map(NodeId::new)).take(depth + 1 - len)),
            // From a level still to come.
            5 => round = pick(len),
            // Addressed to a node on it.
            7 => me = ids[at],
            _ => {}
        }
        let mut src = *ids.last().unwrap();
        if family == 6 {
            // Not from its last relayer.
            src = NodeId::new((src.index() + 1 + pick(n - 1)) % n);
        }
        let arena = PathArena::new(n, sender, depth);
        let Some(path) = Path::from_ids(&ids) else {
            // No `Path` can hold it, so the other two statements cannot be
            // asked; the tree itself can.
            prop_assert!(family == 2 || family == 1, "a wrong root may land on the path");
            prop_assert!(arena.ids().all(|id| arena.resolve_path(id).as_slice() != ids.as_slice()));
            return Ok(());
        };
        let arrival = admit(&path, src, me, round).filter(|_| is_label(&path, n, sender, depth));
        prop_assert_eq!(arrival.is_some(), family == 0 || (family == 2 && len == 1));

        prop_assert_eq!(is_label(&path, n, sender, depth), arena.intern(&path).is_some());
        let fill_accepts = arena.intern(&path).is_some()
            && path.len() <= round
            && path.last() == src
            && !path.contains(me);
        prop_assert_eq!(arrival.is_some(), fill_accepts);

        let spec = SpecInstance { n, m: depth - 1, sender, depth };
        let checker: SpecChecker<u64> = SpecChecker::new(spec, Val::Value(7), BTreeSet::new());
        let msg = ByzMsg { path, value: Val::Value(7) };
        let expected = match arrival {
            Some(Arrival::OnTime) => DeliveryClass::OnTime,
            Some(Arrival::Late) => DeliveryClass::Late,
            None => DeliveryClass::Malformed,
        };
        prop_assert_eq!(checker.classify(me, src, &msg, round), expected);
    }
}

/// N = 13, BYZ(4, 4): depth 5, one level past the inline capacity, so the
/// bulk of the 108 384 envelopes of an instance carry a spilled path. The
/// message-passing executors must still decide exactly what the reference
/// evaluator does, under sampled adversaries.
#[test]
fn a_tree_deeper_than_the_inline_capacity_decides_like_the_reference() {
    let params = Params::new(4, 4).unwrap();
    let n = params.min_nodes();
    assert_eq!((n, params.rounds()), (13, INLINE_CAP + 1));
    let strategy = |kind: u64, seed: u64| match kind % 4 {
        0 => Strategy::ConstantLie(Val::Value(90 + seed)),
        1 => Strategy::TwoFaced {
            even: Val::Value(1),
            odd: Val::Value(2),
        },
        2 => Strategy::AlternatingDepth(Val::Default),
        _ => Strategy::RandomLie {
            domain: vec![Val::Default, Val::Value(1), Val::Value(7)],
            seed,
        },
    };
    // (sender, fault count): fault-free; f = m = u including the sender;
    // f = m = u wherever the draw puts them.
    for (sample, (sender, f)) in [(0usize, 0usize), (5, 4), (12, 4)].into_iter().enumerate() {
        let mut rng = SimRng::seed(40 + sample as u64);
        let mut faulty = rng.choose_indices(n, f);
        if sample == 1 && !faulty.contains(&sender) {
            faulty[0] = sender;
        }
        let strategies: BTreeMap<NodeId, Strategy<u64>> = faulty
            .iter()
            .map(|&i| (NodeId::new(i), strategy(rng.below(4), rng.below(1000))))
            .collect();
        let instance = ByzInstance::new(n, params, NodeId::new(sender)).unwrap();
        let fault_set: BTreeSet<NodeId> = strategies.keys().copied().collect();
        let mut fabricate = |path: &Path, receiver: NodeId, truthful: &Val| {
            strategies[&path.last()].claim(path, receiver, truthful)
        };
        let reference = reference_eval(
            n,
            NodeId::new(sender),
            params.rounds(),
            instance.rule(),
            &Val::Value(7),
            &fault_set,
            &mut fabricate,
        )
        .decisions;

        let solo = run_protocol(&instance, &Val::Value(7), &strategies, 1);
        assert_eq!(solo.net.sent, 108_384, "no sampled strategy is silent");
        assert_eq!(solo.decisions, reference, "run_protocol, sample {sample}");

        let batch = run_batch(
            params,
            n,
            &[BatchInstance {
                sender: NodeId::new(sender),
                value: Val::Value(7),
            }],
            &strategies,
            1,
            BatchOptions::new(),
        )
        .unwrap();
        assert_eq!(batch.decisions[0], reference, "run_batch, sample {sample}");
        assert_eq!(batch.net.sent, solo.net.sent);
    }
}
