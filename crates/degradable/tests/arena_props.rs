//! Property-based invariants of the arena-backed EIG engine
//! ([`degradable::engine`]): path interning is a bijection, the arena
//! size matches the closed-form path census, the store is a first-write-wins
//! map whatever its layout, and the memoized resolve is insensitive to the
//! order in which relay envelopes filled the store.

use degradable::engine::{EigEngine, EigStore, PathId};
use degradable::{path_count, paths_of_length, Path, Val, VoteRule};
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
    /// order).
    #[test]
    fn resolve_is_fill_order_independent(
        n in 2usize..8,
        depth in 2usize..4,
        value_seed in 0u64..u64::MAX,
        order_seed in 0u64..u64::MAX,
    ) {
        let sender = NodeId::new(0);
        // VOTE(n - path_len - m, ..) needs n > path_len + m at every
        // internal level (path_len <= depth - 1, m = depth - 1), so clamp
        // the depth to the feasible BYZ range for this n.
        let depth = depth.min(n.div_ceil(2)).max(1);
        let engine = EigEngine::new(n, sender, depth);
        let arena = engine.arena();
        let rule = VoteRule::Degradable { m: depth - 1 };

        // Draw one value per (path, receiver) slot in canonical order, so
        // both fills record identical contents.
        let mut rng = SimRng::seed(value_seed);
        let mut envelopes: Vec<(PathId, NodeId, Val)> = Vec::new();
        for id in arena.ids() {
            for r in NodeId::all(n) {
                if arena.on_path(id, r) {
                    continue;
                }
                let value = match rng.below(4) {
                    0 => Val::Default,
                    v => Val::Value(v),
                };
                envelopes.push((id, r, value));
            }
        }

        let canonical = {
            let mut store = EigStore::new(arena);
            for (id, r, v) in &envelopes {
                prop_assert!(store.record(arena, *id, *r, *v));
            }
            engine.resolve(rule, &store)
        };

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
    }

    /// The bitpacked VOTE evaluator is a drop-in for the scalar
    /// resolver: the same store yields bit-identical decisions AND
    /// bit-identical deterministic counters. The draw space crosses the
    /// packed word boundary (n − 1 receiver codes span one u64 lane at
    /// n = 9) and flavors force the interesting columns — all-absent
    /// words (code 0 throughout), uniform n−1 columns sitting exactly
    /// on the vote threshold, and a high-cardinality palette that
    /// overflows u8 interning and must fall back to the scalar oracle.
    #[test]
    fn packed_vote_matches_scalar_resolve(
        n in 2usize..18,
        depth in 2usize..4,
        value_seed in 0u64..u64::MAX,
        flavor in 0usize..3,
    ) {
        let sender = NodeId::new(0);
        // Clamp to the feasible BYZ range (n > path_len + m throughout).
        let depth = depth.min(n.div_ceil(2)).max(1);
        let engine = EigEngine::new(n, sender, depth);
        let packed_engine = engine.clone().with_packed_vote();
        let arena = engine.arena();
        let rule = VoteRule::Degradable { m: depth - 1 };

        let mut rng = SimRng::seed(value_seed);
        let mut store = EigStore::new(arena);
        for id in arena.ids() {
            // Per-node column shape: 0 = mixed small palette (near-tie
            // votes), 1 = degenerate columns (all-absent or uniform),
            // 2 = high-cardinality values (palette overflow on larger
            // stores).
            let degenerate = if flavor == 1 {
                match rng.below(3) {
                    0 => Some(Val::Default),
                    1 => Some(Val::Value(rng.below(4) + 1)),
                    _ => None,
                }
            } else {
                None
            };
            for r in NodeId::all(n) {
                if arena.on_path(id, r) {
                    continue;
                }
                let value = match (&degenerate, flavor) {
                    (Some(v), _) => *v,
                    (None, 2) => Val::Value(rng.below(1 << 32)),
                    _ => match rng.below(4) {
                        0 => Val::Default,
                        v => Val::Value(v),
                    },
                };
                prop_assert!(store.record(arena, id, r, value));
            }
        }

        let scalar = engine.resolve(rule, &store);
        let packed = packed_engine.resolve(rule, &store);
        prop_assert_eq!(&scalar.decisions, &packed.decisions);
        prop_assert_eq!(
            scalar.perf.deterministic_counters(),
            packed.perf.deterministic_counters()
        );
    }
}
