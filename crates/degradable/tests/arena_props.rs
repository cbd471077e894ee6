//! Property-based invariants of the arena-backed EIG engine
//! ([`degradable::engine`]): path interning is a bijection, the arena
//! size matches the closed-form path census, the store is a first-write-wins
//! map whatever its layout, the memoized resolve is insensitive to the
//! order in which relay envelopes filled the store, and the engine's
//! allocation-free vote is the paper's `VOTE`.

use degradable::engine::{EigEngine, EigStore, PathId};
use degradable::vote::{vote, vote_scan, vote_two};
use degradable::{path_count, paths_of_length, EigView, Path, Val, VoteRule};
use proptest::prelude::*;
use simnet::{NodeId, SimRng};
use std::collections::BTreeMap;

/// Fisher–Yates driven by the deterministic simulation RNG.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SimRng::seed(seed);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `intern` and `resolve_path` are mutually inverse over the full
    /// label space, and the arena enumerates exactly the lexicographic
    /// path order of `paths_of_length`.
    #[test]
    fn intern_resolve_roundtrip(n in 1usize..11, sender_raw in 0usize..10, depth in 1usize..5) {
        let sender = NodeId::new(sender_raw % n);
        let engine = EigEngine::new(n, sender, depth);
        let arena = engine.arena();

        // id -> path -> id round-trips for every arena node.
        for id in arena.ids() {
            let path = arena.resolve_path(id);
            prop_assert_eq!(arena.intern(&path), Some(id));
        }

        // path -> id -> path round-trips for every enumerable label, and
        // enumeration order matches the arena's level-ordered ids.
        let mut expect = 0usize;
        for len in 1..=depth.min(n) {
            for path in paths_of_length(sender, n, len) {
                let id = arena.intern(&path);
                prop_assert_eq!(id.map(PathId::index), Some(expect));
                prop_assert_eq!(&arena.resolve_path(id.unwrap()), &path);
                expect += 1;
            }
        }
        prop_assert_eq!(expect, arena.node_count());

        // Labels outside the space are rejected, not aliased.
        if n > 1 {
            let other = NodeId::new((sender.index() + 1) % n);
            prop_assert_eq!(arena.intern(&Path::root(other)), None);
        }
    }

    /// The arena holds exactly `Σ_{ℓ=1}^{depth} ∏_{i=0}^{ℓ-2} (n-1-i)`
    /// nodes — the EIG path census for a depth-round unfolding.
    #[test]
    fn node_count_matches_closed_form(n in 1usize..13, sender_raw in 0usize..12, depth in 1usize..5) {
        let sender = NodeId::new(sender_raw % n);
        let arena_nodes = EigEngine::new(n, sender, depth).arena().node_count() as u128;

        let mut expected: u128 = 0;
        for len in 1..=depth {
            // ∏_{i=0}^{len-2} (n-1-i): one sender root fanning out through
            // distinct relayers; zero once relayers are exhausted.
            let mut product: u128 = 1;
            for i in 0..len - 1 {
                product *= (n - 1).saturating_sub(i) as u128;
            }
            expected += product;
            // ... and path_count agrees with the direct product.
            prop_assert_eq!(path_count(n, len), product);
        }
        prop_assert_eq!(arena_nodes, expected);
    }

    /// The store against the map it stands for: random `record` / `get` /
    /// `column` / `clear` sequences answer as a first-write-wins
    /// `BTreeMap<(PathId, NodeId), _>` does — `column` in arena (BFS)
    /// order, a cleared store as a fresh one — so nothing outside the
    /// store can tell how its slots are laid out.
    #[test]
    fn store_is_a_first_write_wins_map(
        n in 2usize..9,
        depth in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let engine = EigEngine::new(n, NodeId::new(0), depth);
        let arena = engine.arena();
        let ids: Vec<PathId> = arena.ids().collect();
        let mut rng = SimRng::seed(seed);
        let mut store: EigStore<u64> = EigStore::new(arena);
        let mut model: BTreeMap<(PathId, NodeId), Val> = BTreeMap::new();
        for _ in 0..400 {
            let id = ids[rng.below(ids.len() as u64) as usize];
            let r = NodeId::new(rng.below(n as u64) as usize);
            match rng.below(16) {
                0 => {
                    store.clear();
                    model.clear();
                }
                1..=3 => {
                    let column: Vec<(PathId, Val)> = store.column(r).map(|(i, v)| (i, *v)).collect();
                    let expected: Vec<(PathId, Val)> = ids
                        .iter()
                        .filter_map(|i| model.get(&(*i, r)).map(|v| (*i, *v)))
                        .collect();
                    prop_assert_eq!(column, expected);
                }
                4..=6 => prop_assert_eq!(store.get(id, r), model.get(&(id, r))),
                _ if arena.on_path(id, r) => {}
                draw => {
                    let value = if draw == 7 { Val::Default } else { Val::Value(rng.below(5)) };
                    let fresh = !model.contains_key(&(id, r));
                    prop_assert_eq!(store.record(arena, id, r, value), fresh);
                    model.entry((id, r)).or_insert(value);
                }
            }
            prop_assert_eq!(store.materialized(), model.len() as u64);
        }
        // What the resolve reads is what the model holds, absent as V_d:
        // a store filled from the model alone decides the same.
        if depth <= n.div_ceil(2) {
            let rule = VoteRule::Degradable { m: depth - 1 };
            let mut refilled = EigStore::new(arena);
            for (&(id, r), &v) in &model {
                prop_assert!(refilled.record(arena, id, r, v));
            }
            prop_assert_eq!(
                engine.resolve(rule, &store).decisions,
                engine.resolve(rule, &refilled).decisions
            );
        }
    }

    /// Resolve is a pure function of the store *contents*: recording the
    /// same envelopes in any order — with same-value duplicates sprinkled
    /// in — yields bit-identical decisions AND bit-identical deterministic
    /// perf counters (the memoization collapse never depends on arrival
    /// order). The stores include what the workloads never produce: whole
    /// absent subtrees (a silent or crashed relayer, the sender included)
    /// and `depth ≥ n`, where the deepest labels have no receivers. Every
    /// decision is the receiver's own fold of its column
    /// ([`EigView::resolve`]), and the votes settled are one per receiver
    /// of every label voted at.
    #[test]
    fn resolve_is_fill_order_independent(
        n in 2usize..10,
        depth in 2usize..5,
        value_seed in 0u64..u64::MAX,
        order_seed in 0u64..u64::MAX,
        silent in 0usize..16,
        shape in 0usize..2,
    ) {
        let sender = NodeId::new(0);
        // 0: BYZ's own shapes. VOTE(n - path_len - m, ..) needs
        // n > path_len + m at every internal level (path_len <= depth - 1,
        // m = depth - 1), so the depth is clamped to the feasible range.
        // 1: depth >= n with m = 0, the one rule those trees admit.
        let (depth, m) = if shape == 1 {
            (n + depth % 2, 0)
        } else {
            let depth = depth.min(n.div_ceil(2)).max(1);
            (depth, depth - 1)
        };
        let rule = VoteRule::Degradable { m };
        let engine = EigEngine::new(n, sender, depth);
        let arena = engine.arena();
        let mut rng = SimRng::seed(value_seed);

        // Draw one value per (path, receiver) slot in canonical order, so
        // both fills record identical contents. Nothing a silent node is on
        // the path of was ever relayed.
        let silent = NodeId::new(silent);
        let mut envelopes: Vec<(PathId, NodeId, Val)> = Vec::new();
        for id in arena.ids() {
            let path = arena.resolve_path(id);
            for r in NodeId::all(n) {
                if arena.on_path(id, r) {
                    continue;
                }
                let value = match rng.below(4) {
                    0 => Val::Default,
                    v => Val::Value(v),
                };
                if !path.contains(silent) {
                    envelopes.push((id, r, value));
                }
            }
        }

        let mut store = EigStore::new(arena);
        for (id, r, v) in &envelopes {
            prop_assert!(store.record(arena, *id, *r, *v));
        }
        let canonical = engine.resolve(rule, &store);

        let shuffled = {
            let mut order = envelopes.clone();
            shuffle(&mut order, order_seed);
            let mut store = EigStore::new(arena);
            let mut dup = SimRng::seed(order_seed ^ 0xD0B);
            for (id, r, v) in &order {
                prop_assert!(store.record(arena, *id, *r, *v));
                // A same-value duplicate relay must be a no-op.
                if dup.chance(0.25) {
                    prop_assert!(!store.record(arena, *id, *r, *v));
                }
            }
            engine.resolve(rule, &store)
        };

        prop_assert_eq!(&canonical.decisions, &shuffled.decisions);
        prop_assert_eq!(
            canonical.perf.deterministic_counters(),
            shuffled.perf.deterministic_counters()
        );

        for r in NodeId::all(n).filter(|&r| r != sender) {
            let mut view = EigView::new(n, depth, r);
            for (id, v) in store.column(r) {
                view.record(arena.resolve_path(id), *v);
            }
            let folded = view.resolve(sender, rule);
            prop_assert_eq!(canonical.decisions.get(&r), Some(&folded), "receiver {}", r);
        }
        let voted: usize = (1..depth.min(n))
            .flat_map(|len| paths_of_length(sender, n, len))
            .map(|path| n - path.len())
            .sum();
        prop_assert_eq!(
            canonical.perf.votes_evaluated + canonical.perf.votes_memo_hit,
            voted as u64
        );
    }

    /// The engine's vote is the paper's: [`vote_scan`] against
    /// [`vote`] over multisets of `{V_d, 1..4}` of every length up to 63
    /// and every threshold `α ∈ 1..=β` — so both the Boyer–Moore branch
    /// (`2α > β`) and the fallback run, with ties and `V_d` winning among
    /// the draws.
    #[test]
    fn vote_scan_matches_vote(values in proptest::collection::vec(0u64..5, 0..64)) {
        let values: Vec<Val> = values
            .into_iter()
            .map(|v| if v == 0 { Val::Default } else { Val::Value(v) })
            .collect();
        for alpha in 1..=values.len().max(1) {
            prop_assert_eq!(
                vote_scan(alpha, &values),
                vote(alpha, &values),
                "alpha={} values={:?}", alpha, &values
            );
        }
    }
}

/// The two-candidate rule against [`vote`] over `{a} ∪ {v × (k − 1)}`,
/// for every `k ≤ 64` and `α ≤ k`, over every pair of `{V_d, 1, 2}`.
#[test]
fn vote_two_matches_vote() {
    let domain = [Val::Default, Val::Value(1), Val::Value(2)];
    for a in &domain {
        for v in &domain {
            for k in 1..=64usize {
                let mut multiset = vec![*a];
                multiset.resize(k, *v);
                for alpha in 1..=k {
                    assert_eq!(
                        vote_two(alpha, a, v, k),
                        vote(alpha, &multiset),
                        "a={a:?} v={v:?} k={k} alpha={alpha}"
                    );
                }
            }
        }
    }
}
