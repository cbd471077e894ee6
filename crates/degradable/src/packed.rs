//! Bitpacked VOTE evaluation for the arena engine.
//!
//! The scalar resolver ([`crate::engine::EigEngine::resolve_observed`])
//! gathers `AgreementValue<V>` clones into a scratch vector and counts
//! them through a `BTreeMap` per vote. For the value domains BYZ
//! actually runs over — `V_d` plus a handful of small integers — that
//! is wildly general. This module interns every store slot into a `u8`
//! *palette code* (`0` is reserved for `V_d`/absent, codes `1..=255`
//! name the distinct proper values in first-seen order) and evaluates
//! `VOTE(α, β)` over codes packed eight-to-a-`u64`, counting a
//! candidate's occurrences with a carry-free SWAR zero-byte detector
//! and a popcount per word.
//!
//! The resolver mirrors the scalar control flow *exactly* — the same
//! per-node uniformity test, the same fast/slow path split, the same
//! opportunistic collapse, the same early-stop frontier handling, the
//! same `eig.resolve_level`/`eig.resolve_chunk` spans and the same
//! counter increments — so a packed run is bit-identical to a scalar
//! run in decisions *and* deterministic [`EigPerf`] counters. Palette
//! coding is injective, `VOTE` depends only on the equality pattern of
//! its inputs, and a tie or no-winner maps to code `0` = `V_d`, so
//! voting over codes and decoding the winner is the same function as
//! voting over values (proptested against the scalar vote in
//! `crates/degradable/tests/arena_props.rs`).
//!
//! [`resolve_packed`] returns `None` — caller falls back to the scalar
//! oracle — when the rule is not [`VoteRule::Degradable`] or the store
//! holds more than 255 distinct proper values.

use crate::eig::VoteRule;
use crate::engine::{prunable_node, ArenaNode, EigEngine, EigStore, EngineRun, PathId};
use crate::value::AgreementValue;
use obs::{Obs, SpanRecord};
use simnet::{EigPerf, NodeId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-node packed resolution covering all receivers: the `u8` twin of
/// the scalar resolver's `Summary`.
#[derive(Debug, Clone)]
enum PackedSummary {
    Uniform(u8),
    Per(Box<[u8]>),
}

impl PackedSummary {
    fn value_for(&self, receiver: usize) -> u8 {
        match self {
            PackedSummary::Uniform(c) => *c,
            PackedSummary::Per(codes) => codes[receiver],
        }
    }
}

/// The distinct proper values of one store, in first-seen (BFS slot)
/// order. Code `i + 1` names `values[i]`; code `0` is `V_d`/absent.
struct Palette<V> {
    values: Vec<AgreementValue<V>>,
}

impl<V: Clone + Ord> Palette<V> {
    /// Interns every slot of `store` (arena order), returning the
    /// palette and one `n`-byte code row per arena node, or `None` if
    /// more than 255 distinct proper values appear.
    fn build(engine: &EigEngine, store: &EigStore<V>) -> Option<(Self, Vec<u8>)> {
        let arena = engine.arena();
        let n = arena.n();
        let mut values: Vec<AgreementValue<V>> = Vec::new();
        let mut rows = vec![0u8; arena.node_count() * n];
        for id in arena.ids() {
            for r in 0..n {
                // Absent and V_d both read as code 0 — exactly the
                // scalar resolver's effective-value semantics.
                let Some(v) = store.get(id, NodeId::new(r)) else {
                    continue;
                };
                if *v == AgreementValue::Default {
                    continue;
                }
                // Linear probe: BYZ palettes hold a handful of values,
                // so a scan beats any map here.
                let code = match values.iter().position(|known| known == v) {
                    Some(i) => i + 1,
                    None => {
                        if values.len() >= 255 {
                            return None;
                        }
                        values.push(v.clone());
                        values.len()
                    }
                };
                rows[id.index() * n + r] = code as u8;
            }
        }
        Some((Palette { values }, rows))
    }

    fn decode(&self, code: u8) -> AgreementValue<V> {
        if code == 0 {
            AgreementValue::Default
        } else {
            self.values[code as usize - 1].clone()
        }
    }
}

/// Counts the lanes of `words` (the first `lanes` bytes) equal to
/// `code`: XOR with the splatted code turns matches into zero bytes,
/// and a carry-free SWAR detector marks bit 7 of exactly the zero
/// lanes. The textbook `(x - 0x01..01) & !x & 0x80..80` haszero trick
/// is *not* used because it overcounts — a borrow propagating out of a
/// zero byte marks a following `0x01` byte as zero too.
fn count_eq(words: &[u64], lanes: usize, code: u8) -> u32 {
    const LO7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HI: u64 = 0x8080_8080_8080_8080;
    let splat = u64::from(code) * 0x0101_0101_0101_0101;
    let mut total = 0u32;
    let mut remaining = lanes;
    for &w in words {
        let x = w ^ splat;
        // Bit 7 of `y`'s lane is set iff the low 7 bits of that lane of
        // `x` are nonzero; lanes never carry into each other because
        // both addends have bit 7 clear.
        let y = (x & LO7) + LO7;
        let zero = !(y | x) & HI;
        let live = remaining.min(8);
        let tail = if live == 8 {
            u64::MAX
        } else {
            (1u64 << (live * 8)) - 1
        };
        total += (zero & tail).count_ones();
        remaining -= live;
    }
    total
}

/// Exact `VOTE(alpha, codes.len())` over palette codes: the unique code
/// occurring at least `alpha` times, else `0` (`V_d`), ties `0`.
fn vote_codes(codes: &[u8], alpha: usize) -> u8 {
    debug_assert!(alpha > 0, "vote threshold must be positive");
    let beta = codes.len();
    let mut words = [0u64; 8];
    for (i, &c) in codes.iter().enumerate() {
        words[i / 8] |= u64::from(c) << ((i % 8) * 8);
    }
    let words = &words[..beta.div_ceil(8)];
    if 2 * alpha > beta {
        // `VOTE(n-ℓ-m, n-ℓ)` with `n ≥ 2m + u + 1` always lands here:
        // α = β - m > β/2, so at most one code can reach the threshold
        // — a Boyer–Moore majority scan plus one exact verification
        // count is the whole vote.
        let (mut cand, mut lead) = (0u8, 0usize);
        for &c in codes {
            if lead == 0 {
                (cand, lead) = (c, 1);
            } else if c == cand {
                lead += 1;
            } else {
                lead -= 1;
            }
        }
        if count_eq(words, beta, cand) as usize >= alpha {
            cand
        } else {
            0
        }
    } else {
        // General threshold (kept exact for completeness): count every
        // distinct code, enforcing uniqueness of the winner.
        let mut winner: Option<u8> = None;
        let mut counted = [false; 256];
        for &c in codes {
            if std::mem::replace(&mut counted[c as usize], true) {
                continue;
            }
            if count_eq(words, beta, c) as usize >= alpha {
                if winner.is_some() {
                    return 0;
                }
                winner = Some(c);
            }
        }
        winner.unwrap_or(0)
    }
}

/// `VOTE` over the fast-path multiset `{a} ∪ {v × (receivers - 1)}`:
/// two candidate codes, pure arithmetic, no scan.
fn vote_two(a: u8, v: u8, receivers: usize, alpha: usize) -> u8 {
    if a == v {
        // One distinct code with `receivers ≥ alpha` occurrences.
        return v;
    }
    let v_wins = receivers > alpha;
    let a_wins = alpha <= 1;
    match (v_wins, a_wins) {
        (true, false) => v,
        (false, true) => a,
        // Both reaching the threshold is a tie; neither is no winner.
        _ => 0,
    }
}

/// The packed twin of the scalar `resolve_chunk`: resolves the
/// contiguous id range starting at `first_id` into `out`, reading
/// deeper summaries from `deeper` (global id offset `deeper_offset`).
/// Returns `(votes_evaluated, votes_memo_hit, wall_nanos)`.
#[allow(clippy::too_many_arguments)]
fn resolve_chunk_packed(
    nodes: &[ArenaNode],
    rows: &[u8],
    n: usize,
    m: usize,
    levels_len: usize,
    first_id: u32,
    out: &mut [Option<PackedSummary>],
    deeper: &[Option<PackedSummary>],
    deeper_offset: u32,
    early_stop: Option<u64>,
    timed: bool,
) -> (u64, u64, u64) {
    let chunk_start = if timed { Some(Instant::now()) } else { None };
    let mut votes_evaluated = 0u64;
    let mut votes_memo_hit = 0u64;
    let mut scratch: Vec<u8> = Vec::with_capacity(n);

    for (slot, id) in out.iter_mut().zip(first_id..) {
        let node = &nodes[id as usize];
        let len = node.len as usize;

        // Below the early-stop frontier the row is all-absent and no
        // ancestor reads the summary (downward-closed cut; frontier
        // nodes resolve as leaves): skip the node entirely.
        if node.parent != u32::MAX {
            if let Some(mask) = early_stop {
                if prunable_node(&nodes[node.parent as usize], mask) {
                    continue;
                }
            }
        }

        let row = &rows[id as usize * n..(id as usize + 1) * n];

        let mut first_receiver: Option<usize> = None;
        let mut uniform = true;
        for r in 0..n {
            if node.members >> r & 1 == 1 {
                continue;
            }
            match first_receiver {
                None => first_receiver = Some(r),
                Some(f) => uniform = uniform && row[f] == row[r],
            }
        }

        let frontier = early_stop.is_some_and(|mask| prunable_node(node, mask));
        if node.child_count == 0 || frontier {
            debug_assert!(frontier || len == levels_len);
            *slot = Some(match first_receiver {
                Some(r) if uniform => PackedSummary::Uniform(row[r]),
                Some(_) => PackedSummary::Per(row.to_vec().into_boxed_slice()),
                None => PackedSummary::Uniform(0),
            });
            continue;
        }

        let children = node.first_child..node.first_child + node.child_count;
        let receivers = n - len;
        let alpha = n
            .checked_sub(len + m)
            .expect("BYZ invariant n > path_len + m violated");

        let child_uniform = if uniform {
            let mut shared: Option<u8> = None;
            let mut all = true;
            for c in children.clone() {
                match &deeper[(c - deeper_offset) as usize] {
                    Some(PackedSummary::Uniform(v)) => match shared {
                        None => shared = Some(*v),
                        Some(s) => all = all && s == *v,
                    },
                    _ => {
                        all = false;
                        break;
                    }
                }
            }
            if all {
                shared
            } else {
                None
            }
        } else {
            None
        };

        if let Some(v) = child_uniform {
            let a = row[first_receiver.expect("internal nodes have receivers")];
            let combined = vote_two(a, v, receivers, alpha);
            votes_evaluated += 1;
            votes_memo_hit += receivers as u64 - 1;
            *slot = Some(PackedSummary::Uniform(combined));
            continue;
        }

        let mut per = vec![0u8; n];
        let mut first: Option<usize> = None;
        let mut collapsed = true;
        for r in 0..n {
            if node.members >> r & 1 == 1 {
                continue;
            }
            scratch.clear();
            scratch.push(row[r]);
            for c in children.clone() {
                if nodes[c as usize].last.index() == r {
                    continue;
                }
                let child = deeper[(c - deeper_offset) as usize]
                    .as_ref()
                    .expect("deeper levels resolved first");
                scratch.push(child.value_for(r));
            }
            debug_assert_eq!(scratch.len(), receivers);
            per[r] = vote_codes(&scratch, alpha);
            votes_evaluated += 1;
            match first {
                None => first = Some(r),
                Some(f) => collapsed = collapsed && per[f] == per[r],
            }
        }
        *slot = Some(if collapsed {
            PackedSummary::Uniform(per[first.expect("internal nodes have receivers")])
        } else {
            PackedSummary::Per(per.into_boxed_slice())
        });
    }

    let wall_nanos = chunk_start
        .map(|s| s.elapsed().as_nanos() as u64)
        .unwrap_or(0);
    (votes_evaluated, votes_memo_hit, wall_nanos)
}

/// Packed resolution of a filled store. Returns `None` (no spans
/// recorded, no work observable) when the packed path cannot represent
/// the input — the caller then runs the scalar resolver, which is the
/// semantic oracle.
pub(crate) fn resolve_packed<V: Clone + Ord>(
    engine: &EigEngine,
    rule: VoteRule,
    store: &EigStore<V>,
    obs: &mut Obs,
) -> Option<EngineRun<V>> {
    let VoteRule::Degradable { m } = rule else {
        return None;
    };
    let resolve_start = Instant::now();
    let (palette, rows) = Palette::build(engine, store)?;

    let arena = engine.arena();
    let nodes = arena.nodes_raw();
    let levels = arena.levels_raw();
    let n = arena.n();
    let workers = engine.workers();
    let timed_chunks = obs.is_enabled() && engine.worker_spans_enabled();
    let early = engine.early_stop_mask();

    let mut summaries: Vec<Option<PackedSummary>> = vec![None; arena.node_count()];
    let mut votes_evaluated = 0u64;
    let mut votes_memo_hit = 0u64;

    for level in (0..levels.len()).rev() {
        let range = levels[level].clone();
        let count = (range.end - range.start) as usize;
        let level_timer = obs.span(
            "eig.resolve_level",
            vec![("level", level as u64), ("width", count as u64)],
        );
        let (head, deeper) = summaries.split_at_mut(range.end as usize);
        let level_slice = &mut head[range.start as usize..];
        let deeper_offset = range.end;
        let chunk_len = count.div_ceil(workers).max(1);
        let chunk_stats: Vec<(u64, u64, u64)> = if workers <= 1 || count <= chunk_len {
            vec![resolve_chunk_packed(
                nodes,
                &rows,
                n,
                m,
                levels.len(),
                range.start,
                level_slice,
                &*deeper,
                deeper_offset,
                early,
                timed_chunks,
            )]
        } else {
            let deeper_ref: &[Option<PackedSummary>] = deeper;
            let rows_ref: &[u8] = &rows;
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (i, chunk) in level_slice.chunks_mut(chunk_len).enumerate() {
                    let first_id = range.start + (i * chunk_len) as u32;
                    handles.push(scope.spawn(move || {
                        resolve_chunk_packed(
                            nodes,
                            rows_ref,
                            n,
                            m,
                            levels.len(),
                            first_id,
                            chunk,
                            deeper_ref,
                            deeper_offset,
                            early,
                            timed_chunks,
                        )
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("packed resolver thread panicked"))
                    .collect::<Vec<_>>()
            })
        };
        let mut level_votes = 0u64;
        for (chunk, &(e, h, wall_nanos)) in chunk_stats.iter().enumerate() {
            votes_evaluated += e;
            votes_memo_hit += h;
            level_votes += e + h;
            if timed_chunks {
                obs.record_span(SpanRecord {
                    name: "eig.resolve_chunk".into(),
                    args: vec![
                        ("level".into(), level as u64),
                        ("chunk".into(), chunk as u64),
                    ],
                    logical: e + h,
                    wall_nanos,
                });
            }
        }
        obs.finish(level_timer, level_votes);
    }

    let root = summaries[0]
        .as_ref()
        .expect("root summary resolved by the last pass");
    let mut decisions = BTreeMap::new();
    for r in NodeId::all(n) {
        if r == arena.sender() {
            continue;
        }
        decisions.insert(r, palette.decode(root.value_for(r.index())));
    }

    let (subtrees_pruned, messages_saved) = engine.prune_counters();
    let perf = EigPerf {
        arena_nodes: arena.node_count() as u64,
        votes_evaluated,
        votes_memo_hit,
        messages_materialized: store.materialized(),
        subtrees_pruned,
        messages_saved,
        fill_nanos: 0,
        resolve_nanos: resolve_start.elapsed().as_nanos() as u64,
    };
    if let Some(registry) = obs.registry_mut() {
        perf.fold_into(registry);
    }
    Some(EngineRun { decisions, perf })
}

/// `PathId` is unused here only under `--no-default-features` shapes;
/// keep the import honest.
#[allow(unused)]
fn _assert_types(p: PathId) -> usize {
    p.index()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Val;

    fn codes_to_vals(codes: &[u8]) -> Vec<Val> {
        codes
            .iter()
            .map(|&c| {
                if c == 0 {
                    Val::Default
                } else {
                    Val::Value(u64::from(c))
                }
            })
            .collect()
    }

    /// `vote_codes` against the scalar `vote` over directed corner
    /// cases; the broad randomized sweep lives in
    /// `crates/degradable/tests/arena_props.rs`.
    #[test]
    fn vote_codes_matches_scalar_vote() {
        let cases: Vec<(Vec<u8>, usize)> = vec![
            (vec![1, 2, 2, 3], 2),
            (vec![1, 2, 0, 3], 2),
            (vec![1, 2, 2, 1], 2),
            (vec![0, 0, 1], 2),
            (vec![0; 17], 9),
            (vec![5; 8], 8),
            (vec![5; 9], 9),
            (vec![1], 1),
            (vec![0], 1),
        ];
        for (codes, alpha) in cases {
            let scalar = crate::vote::vote(alpha, &codes_to_vals(&codes));
            let packed = vote_codes(&codes, alpha);
            let packed_val = if packed == 0 {
                Val::Default
            } else {
                Val::Value(u64::from(packed))
            };
            assert_eq!(packed_val, scalar, "codes={codes:?} alpha={alpha}");
        }
    }

    /// The borrow-propagation case the textbook haszero trick gets
    /// wrong: a `0x01` byte right after a zero byte must not count.
    #[test]
    fn count_eq_is_borrow_safe() {
        // Lanes [0x00, 0x01, ...] with code 0: exactly one zero byte.
        let word = 0x0000_0000_0000_0100u64;
        assert_eq!(count_eq(&[word], 8, 0), 7);
        assert_eq!(count_eq(&[word], 2, 0), 1);
        assert_eq!(count_eq(&[word], 2, 1), 1);
        // Full-width and tail-masked counts of a repeated code.
        let word = 0x0707_0707_0707_0707u64;
        assert_eq!(count_eq(&[word], 8, 7), 8);
        assert_eq!(count_eq(&[word], 3, 7), 3);
        assert_eq!(count_eq(&[word, word], 11, 7), 11);
    }

    #[test]
    fn vote_two_covers_the_fast_path_table() {
        // a == v: unanimous.
        assert_eq!(vote_two(4, 4, 6, 4), 4);
        // v reaches alpha, a does not.
        assert_eq!(vote_two(1, 4, 6, 4), 4);
        // Neither reaches alpha.
        assert_eq!(vote_two(1, 4, 3, 3), 0);
        // alpha == 1 and two distinct codes: tie.
        assert_eq!(vote_two(1, 4, 6, 1), 0);
    }
}
