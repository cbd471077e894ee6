//! Bitpacked VOTE evaluation for the arena engine.
//!
//! The store lane of the resolver ([`crate::engine::EigEngine::resolve_observed`])
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
//! [`Palette`] is a lane of the engine's one bottom-up walk (see
//! `Lanes` in [`crate::engine`]): control flow, counters and spans are
//! the walk's, so a packed run is bit-identical to a store-lane run in
//! everything but how a value is spelled. Palette
//! coding is injective, `VOTE` depends only on the equality pattern of
//! its inputs, and a tie or no-winner maps to code `0` = `V_d`, so
//! voting over codes and decoding the winner is the same function as
//! voting over values (proptested against the scalar vote in
//! `crates/degradable/tests/arena_props.rs`).
//!
//! [`Palette::build`] returns `None` — the engine then walks the store
//! lane — when the store holds more than 255 distinct proper values; the
//! engine does not ask for a rule other than [`crate::VoteRule::Degradable`].

use crate::engine::{EigStore, Lanes, PathArena, PathId};
use crate::value::AgreementValue;
use simnet::NodeId;

/// One store as palette codes: its distinct proper values in first-seen
/// (BFS slot) order — code `i + 1` names `values[i]`, code `0` is
/// `V_d`/absent — and one `n`-byte code row per arena node.
pub(crate) struct Palette<V> {
    values: Vec<AgreementValue<V>>,
    rows: Vec<u8>,
    n: usize,
    /// The `m` of `VOTE(n − ℓ − m, n − ℓ)`.
    m: usize,
}

impl<V: Clone + Ord> Palette<V> {
    /// Interns every slot of `store` (arena order), or `None` if more
    /// than 255 distinct proper values appear.
    pub(crate) fn build(arena: &PathArena, store: &EigStore<V>, m: usize) -> Option<Self> {
        let n = arena.n();
        let mut values: Vec<AgreementValue<V>> = Vec::new();
        let mut rows = vec![0u8; arena.node_count() * n];
        for id in arena.ids() {
            for r in 0..n {
                // Absent and V_d both read as code 0 — exactly the
                // store lane's effective-value semantics.
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
        Some(Palette { values, rows, n, m })
    }

    fn alpha(&self, len: usize) -> usize {
        self.n
            .checked_sub(len + self.m)
            .expect("BYZ invariant n > path_len + m violated")
    }
}

impl<V: Clone + Ord + Sync> Lanes<V> for Palette<V> {
    type Code = u8;

    fn row<'a>(&'a self, id: PathId, _buf: &'a mut [u8]) -> &'a [u8] {
        &self.rows[id.index() * self.n..][..self.n]
    }

    fn vote_shared(&self, len: usize, a: &u8, v: &u8, _scratch: &mut Vec<u8>) -> u8 {
        vote_two(*a, *v, self.n - len, self.alpha(len))
    }

    fn vote(&self, len: usize, gathered: &[u8]) -> u8 {
        vote_codes(gathered, self.alpha(len))
    }

    fn decode(&self, code: &u8) -> AgreementValue<V> {
        match *code {
            0 => AgreementValue::Default,
            c => self.values[c as usize - 1].clone(),
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
