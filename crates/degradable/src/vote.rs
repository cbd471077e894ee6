//! The `VOTE(α, β)` primitive of Section 4, and the majority vote used by
//! the Lamport–Shostak–Pease baseline.
//!
//! > Define VOTE(α, β) of values `w_1 … w_β` as ω if at least α of the
//! > values are equal to ω, else VOTE(α, β) is defined to be the default
//! > value `V_d`. Also, in case of a tie, define VOTE(α, β) = `V_d`.
//!
//! Paper examples (reproduced in the tests below): `VOTE(2,4)` of
//! `1, 2, 2, 3` is `2`; of `1, 2, 0, 3` is `V_d`; of `1, 2, 2, 1` is `V_d`
//! because of the tie.

use crate::value::AgreementValue;
use std::collections::BTreeMap;

/// `VOTE(α, β)` where `β = values.len()`: returns the unique value with at
/// least `alpha` occurrences, or `V_d` if there is none or the threshold is
/// reached by more than one distinct value (a tie).
///
/// `V_d` itself can win the vote (e.g. when most inputs are absent); that
/// is consistent with the paper, where vote inputs at inner recursion
/// levels may legitimately be `V_d`.
///
/// The outcome is a function of the input **multiset** alone — counting
/// via a `BTreeMap` discards arrival order, so any permutation of
/// `values` votes identically (property-tested in
/// `tests/proptest_invariants.rs`). The arena engine's uniform-subtree
/// memoization ([`crate::engine`]) relies on exactly this: it may gather
/// a receiver's inputs in any convenient order, and may serve one `VOTE`
/// result to every receiver whose gather has the same multiset even
/// though each receiver assembles it differently.
///
/// # Panics
///
/// Panics if `alpha == 0` (a zero threshold is meaningless and would make
/// every value a winner).
pub fn vote<V: Clone + Ord>(alpha: usize, values: &[AgreementValue<V>]) -> AgreementValue<V> {
    assert!(alpha > 0, "vote threshold must be positive");
    let mut counts: BTreeMap<&AgreementValue<V>, usize> = BTreeMap::new();
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    let mut winner: Option<&AgreementValue<V>> = None;
    for (&v, &c) in &counts {
        if c >= alpha {
            if winner.is_some() {
                return AgreementValue::Default; // tie
            }
            winner = Some(v);
        }
    }
    winner.cloned().unwrap_or(AgreementValue::Default)
}

/// [`vote`] without the map: the same `VOTE(α, β)`, allocating nothing
/// when `2α > β`.
///
/// Above half the inputs at most one value can reach `α`, and if one does
/// it is the strict majority — the candidate a Boyer–Moore pass leaves
/// standing. One count then tells whether the candidate reaches `α`. Every
/// vote BYZ takes is of this kind at `N ≥ 2m + u + 1`: an internal label has
/// `ℓ ≤ m`, so `β = n − ℓ > 2m` and `α = β − m > β / 2` (and strict
/// majority is `α = ⌊β/2⌋ + 1`). Any other threshold is handed to [`vote`].
///
/// # Panics
///
/// Panics if `alpha == 0`, as [`vote`] does.
pub fn vote_scan<V: Clone + Ord>(alpha: usize, values: &[AgreementValue<V>]) -> AgreementValue<V> {
    if 2 * alpha <= values.len() {
        return vote(alpha, values);
    }
    let mut candidate = None;
    let mut lead = 0usize;
    for v in values {
        if lead == 0 {
            (candidate, lead) = (Some(v), 1);
        } else if candidate == Some(v) {
            lead += 1;
        } else {
            lead -= 1;
        }
    }
    match candidate {
        Some(c) if values.iter().filter(|v| *v == c).count() >= alpha => c.clone(),
        _ => AgreementValue::Default,
    }
}

/// `VOTE(α, k)` over the multiset `{a} ∪ {v × (k − 1)}` (`k ≥ 1`): two
/// candidates, decided by arithmetic alone. This is the one vote the arena
/// engine takes for all of a label's receivers when nothing below the label
/// tells them apart.
///
/// # Panics
///
/// Panics if `alpha == 0`, as [`vote`] does.
pub fn vote_two<V: Clone + Eq>(
    alpha: usize,
    a: &AgreementValue<V>,
    v: &AgreementValue<V>,
    k: usize,
) -> AgreementValue<V> {
    assert!(alpha > 0, "vote threshold must be positive");
    if a == v {
        // One distinct value, `k` times.
        return if k >= alpha {
            v.clone()
        } else {
            AgreementValue::Default
        };
    }
    // `v` appears `k − 1` times, `a` once; both reaching `α` is a tie.
    match (k > alpha, alpha == 1) {
        (true, false) => v.clone(),
        (false, true) => a.clone(),
        _ => AgreementValue::Default,
    }
}

/// Strict-majority vote: the value held by more than half the inputs, or
/// `V_d` if none. This is the `majority` of Lamport's OM algorithm, with
/// the paper's `V_d` in the role of OM's default (`RETREAT`).
pub fn majority<V: Clone + Ord>(values: &[AgreementValue<V>]) -> AgreementValue<V> {
    if values.is_empty() {
        return AgreementValue::Default;
    }
    vote(values.len() / 2 + 1, values)
}

/// `k`-out-of-`n` vote over raw values (no default input): `Some(v)` if at
/// least `k` of the inputs equal `v` (unique by `k > n/2` or by tie-check),
/// `None` otherwise. Used by the external entity of Section 3
/// (`(m+u)`-out-of-`(2m+u)` vote).
pub fn k_of_n<V: Clone + Ord>(k: usize, values: &[V]) -> Option<V> {
    assert!(k > 0, "vote threshold must be positive");
    let mut counts: BTreeMap<&V, usize> = BTreeMap::new();
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    let mut winner = None;
    for (&v, &c) in &counts {
        if c >= k {
            if winner.is_some() {
                return None;
            }
            winner = Some(v);
        }
    }
    winner.cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Val;

    fn vals(xs: &[u64]) -> Vec<Val> {
        xs.iter().map(|&x| Val::Value(x)).collect()
    }

    #[test]
    fn paper_example_winner() {
        // VOTE(2,4) of 1, 2, 2, 3 is 2
        assert_eq!(vote(2, &vals(&[1, 2, 2, 3])), Val::Value(2));
    }

    #[test]
    fn paper_example_no_winner() {
        // VOTE(2,4) of 1, 2, 0, 3 is V_d
        assert_eq!(vote(2, &vals(&[1, 2, 0, 3])), Val::Default);
    }

    #[test]
    fn paper_example_tie() {
        // VOTE(2,4) of 1, 2, 2, 1 is V_d because of the tie
        assert_eq!(vote(2, &vals(&[1, 2, 2, 1])), Val::Default);
    }

    #[test]
    fn default_can_win() {
        let xs = vec![Val::Default, Val::Default, Val::Value(1)];
        assert_eq!(vote(2, &xs), Val::Default);
    }

    #[test]
    fn default_participates_in_ties() {
        let xs = vec![Val::Default, Val::Default, Val::Value(1), Val::Value(1)];
        assert_eq!(vote(2, &xs), Val::Default);
    }

    #[test]
    fn unanimity_threshold() {
        assert_eq!(vote(3, &vals(&[4, 4, 4])), Val::Value(4));
        assert_eq!(vote(3, &vals(&[4, 4, 5])), Val::Default);
    }

    #[test]
    fn empty_input_yields_default() {
        assert_eq!(vote::<u64>(1, &[]), Val::Default);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_panics() {
        vote::<u64>(0, &[]);
    }

    #[test]
    fn majority_basics() {
        assert_eq!(majority(&vals(&[1, 1, 2])), Val::Value(1));
        assert_eq!(majority(&vals(&[1, 2, 3])), Val::Default);
        assert_eq!(majority::<u64>(&[]), Val::Default);
        // Exactly half is not a majority:
        assert_eq!(majority(&vals(&[1, 1, 2, 2])), Val::Default);
    }

    #[test]
    fn k_of_n_basics() {
        assert_eq!(k_of_n(3, &[5u64, 5, 5, 9]), Some(5));
        assert_eq!(k_of_n(3, &[5u64, 5, 9, 9]), None);
        // Two values reaching k is a tie -> None:
        assert_eq!(k_of_n(2, &[5u64, 5, 9, 9]), None);
        assert_eq!(k_of_n::<u64>(1, &[]), None);
    }

    /// `vote_scan` against `vote` over directed cases: the paper's
    /// `VOTE(2,4)` examples (the fallback, `2α = β`), unanimity at `α = β`,
    /// all-`V_d` inputs, and a lone input. The broad sweep is
    /// `arena_props::vote_scan_matches_vote`.
    #[test]
    fn vote_scan_directed_cases() {
        let d = Val::Default;
        let v = Val::Value;
        let cases: Vec<(Vec<Val>, usize)> = vec![
            (vals(&[1, 2, 2, 3]), 2),
            (vals(&[1, 2, 0, 3]), 2),
            (vals(&[1, 2, 2, 1]), 2),
            (vec![d, d, v(1)], 2),
            (vec![d; 17], 9),
            (vals(&[5; 8]), 8),
            (vals(&[5; 9]), 9),
            (vals(&[5, 5, 5, 5, 5, 5, 5, 6]), 8),
            (vals(&[1]), 1),
            (vec![d], 1),
        ];
        for (values, alpha) in cases {
            assert_eq!(
                vote_scan(alpha, &values),
                vote(alpha, &values),
                "values={values:?} alpha={alpha}"
            );
        }
    }

    #[test]
    fn vote_two_covers_the_shared_multiset_table() {
        let (a, v) = (Val::Value(1), Val::Value(4));
        // a == v: unanimous, or short of the threshold.
        assert_eq!(vote_two(4, &v, &v, 6), v);
        assert_eq!(vote_two(4, &v, &v, 3), Val::Default);
        // v reaches alpha, a does not.
        assert_eq!(vote_two(4, &a, &v, 6), v);
        // Neither reaches alpha.
        assert_eq!(vote_two(3, &a, &v, 3), Val::Default);
        // alpha == 1 and two distinct values: a tie.
        assert_eq!(vote_two(1, &a, &v, 6), Val::Default);
        // alpha == 1 and v absent from the multiset: a alone wins.
        assert_eq!(vote_two(1, &a, &v, 1), a);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn vote_two_rejects_a_zero_threshold() {
        vote_two(0, &Val::Value(1), &Val::Value(1), 1);
    }

    #[test]
    fn vote_is_permutation_invariant() {
        let a = vals(&[3, 1, 3, 2, 3]);
        let mut b = a.clone();
        b.reverse();
        assert_eq!(vote(3, &a), vote(3, &b));
    }
}
