//! Exponential-information-gathering (EIG) execution of recursive
//! oral-message protocols.
//!
//! Both algorithm BYZ (the paper's contribution) and Lamport's OM baseline
//! are recursive protocols of the same message-passing shape; they differ
//! only in the **vote rule** applied when the recursion is folded back up:
//!
//! * BYZ(t, m) uses `VOTE(n'-1-m, n'-1)` where `n'` is the sub-instance
//!   size — i.e. [`VoteRule::Degradable`];
//! * OM(m) uses strict majority with default — [`VoteRule::Majority`].
//!
//! This module provides the shared machinery: the per-receiver value tree
//! ([`EigView`]), the bottom-up resolution, and a *reference executor*
//! ([`run_eig`]) that computes every receiver's decision directly from an
//! adversary's behaviour function, level by level, without materializing
//! message envelopes. The message-passing executor in [`crate::protocol`]
//! produces bit-identical decisions (asserted by integration tests) while
//! exercising the real network engine.

use crate::path::{paths_of_length, Path};
use crate::value::AgreementValue;
use crate::vote::{majority, vote};
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// The vote applied at each internal node of the EIG tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoteRule {
    /// The paper's `VOTE(n - ℓ - m, n - ℓ)` at a path of length `ℓ` in an
    /// `n`-node system.
    Degradable {
        /// The strong fault threshold `m`.
        m: usize,
    },
    /// Strict majority with default (Lamport's OM).
    Majority,
}

impl VoteRule {
    /// Combines the `n - path_len` values gathered at a path of length
    /// `path_len`.
    pub fn combine<V: Clone + Ord>(
        &self,
        n: usize,
        path_len: usize,
        values: &[AgreementValue<V>],
    ) -> AgreementValue<V> {
        match *self {
            VoteRule::Degradable { .. } => vote(self.threshold(n, path_len), values),
            VoteRule::Majority => majority(values),
        }
    }

    /// The `α` of the vote over the `n - path_len` values gathered at a
    /// path of length `path_len`: `n - path_len - m`, or a strict majority.
    ///
    /// # Panics
    ///
    /// For [`VoteRule::Degradable`], if `n < path_len + m`.
    pub(crate) fn threshold(&self, n: usize, path_len: usize) -> usize {
        match *self {
            VoteRule::Degradable { m } => n
                .checked_sub(path_len + m)
                .expect("BYZ invariant n > path_len + m violated"),
            VoteRule::Majority => n.saturating_sub(path_len) / 2 + 1,
        }
    }
}

/// One receiver's view of the EIG tree: the value it attributes to each
/// relay path. Missing entries denote *absent* messages and read as `V_d`.
///
/// Two views compare equal iff they attribute the same value to every path
/// — the notion of *indistinguishability* used by the paper's Figure 2
/// lower-bound argument (equality of `n`, `depth` and `me` is also
/// required, but indistinguishability comparisons use
/// [`EigView::same_observations`], which ignores the receiver identity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EigView<V> {
    n: usize,
    depth: usize,
    me: NodeId,
    vals: BTreeMap<Path, AgreementValue<V>>,
}

impl<V: Clone + Ord> EigView<V> {
    /// An empty view for receiver `me` in an `n`-node system with an EIG
    /// tree of `depth` levels.
    pub fn new(n: usize, depth: usize, me: NodeId) -> Self {
        EigView {
            n,
            depth,
            me,
            vals: BTreeMap::new(),
        }
    }

    /// Records the value received for `path`.
    ///
    /// The fold is **idempotent**: the first value recorded for a path
    /// wins and later envelopes for the same path are discarded (returns
    /// `false`). In the fault-free synchronous model each path is heard
    /// exactly once, so this changes nothing; under link-level chaos
    /// (duplicated or reordered envelopes) it makes the view independent
    /// of arrival multiplicity and order.
    ///
    /// # Panics
    ///
    /// Panics if the receiver itself lies on `path` (it would never be a
    /// recipient of that relay).
    pub fn record(&mut self, path: Path, value: AgreementValue<V>) -> bool {
        assert!(
            !path.contains(self.me),
            "receiver {} cannot hold a value for path {path} containing itself",
            self.me
        );
        match self.vals.entry(path) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(value);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// The value attributed to `path`; absent messages read as `V_d`.
    pub fn seen(&self, path: &Path) -> AgreementValue<V> {
        self.vals.get(path).cloned().unwrap_or_default()
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Iterator over `(path, value)` entries in path order.
    pub fn entries(&self) -> impl Iterator<Item = (&Path, &AgreementValue<V>)> {
        self.vals.iter()
    }

    /// Whether two views record identical observations (same value for
    /// every path), regardless of whose views they are — the
    /// indistinguishability relation of the Figure 2 argument.
    pub fn same_observations(&self, other: &EigView<V>) -> bool {
        self.vals == other.vals
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Folds the tree bottom-up from the root path `[sender]` and returns
    /// this receiver's decision.
    pub fn resolve(&self, sender: NodeId, rule: VoteRule) -> AgreementValue<V> {
        self.fold(&Path::root(sender), rule, &mut |_, _, _| {})
    }

    /// The one recursion behind [`EigView::resolve`] and
    /// [`EigView::resolve_traced`]: a path at the tree's depth resolves to
    /// the value stored for it; any other to the vote over that value and
    /// the resolved sub-instances relayed by every other receiver of the
    /// path, which `step` gets to see (path, gathered inputs, outcome).
    fn fold(
        &self,
        path: &Path,
        rule: VoteRule,
        step: &mut impl FnMut(&Path, Vec<AgreementValue<V>>, &AgreementValue<V>),
    ) -> AgreementValue<V> {
        if path.len() >= self.depth {
            return self.seen(path);
        }
        let mut values = Vec::with_capacity(self.n - path.len());
        values.push(self.seen(path));
        for child in path.children(self.n) {
            if child.last() != self.me {
                values.push(self.fold(&child, rule, step));
            }
        }
        debug_assert_eq!(values.len(), self.n - path.len());
        let result = rule.combine(self.n, path.len(), &values);
        step(path, values, &result);
        result
    }
}

/// One step of an explained fold: the vote taken at `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldStep<V> {
    /// The path being folded.
    pub path: Path,
    /// The gathered inputs (own stored value first, then resolved
    /// sub-instances in child order).
    pub gathered: Vec<AgreementValue<V>>,
    /// The vote outcome.
    pub result: AgreementValue<V>,
}

impl<V: Clone + Ord + std::fmt::Display> EigView<V> {
    /// Resolves like [`EigView::resolve`] but also records every internal
    /// vote, for debugging and teaching output (see the
    /// `degradable::explain` module).
    pub fn resolve_traced(
        &self,
        sender: NodeId,
        rule: VoteRule,
    ) -> (AgreementValue<V>, Vec<FoldStep<V>>) {
        let mut steps = Vec::new();
        let mut record = |path: &Path, gathered, result: &AgreementValue<V>| {
            steps.push(FoldStep {
                path: path.clone(),
                gathered,
                result: result.clone(),
            })
        };
        let decision = self.fold(&Path::root(sender), rule, &mut record);
        (decision, steps)
    }
}

/// Behaviour of the faulty nodes, as a function: given the relay `path`
/// (whose last element is the faulty relayer — or the faulty sender for the
/// root path), the `receiver` being addressed, and the value an honest node
/// would have relayed, produce the value actually claimed.
///
/// Returning [`AgreementValue::Default`] models staying silent (the
/// receiver detects the absence and substitutes `V_d`).
pub type Fabricate<'a, V> =
    &'a mut dyn FnMut(&Path, NodeId, &AgreementValue<V>) -> AgreementValue<V>;

/// Full output of a reference execution: per-receiver decisions and the
/// complete per-receiver views (used by the Figure 2 indistinguishability
/// experiments, which compare a node's *entire view* across scenarios).
#[derive(Debug, Clone)]
pub struct EigOutcome<V> {
    /// Every receiver's decision.
    pub decisions: BTreeMap<NodeId, AgreementValue<V>>,
    /// Every receiver's complete view of the EIG tree.
    pub views: BTreeMap<NodeId, EigView<V>>,
}

/// Reference executor: runs a `depth`-round EIG protocol among `n` fully
/// connected nodes with original sender `sender` and initial value
/// `sender_value`, where the nodes in `faulty` misbehave according to
/// `fabricate`, and every receiver folds its view with `rule`.
///
/// Returns every receiver's decision (including the faulty receivers' —
/// callers typically filter to the fault-free set for condition checking).
///
/// # Panics
///
/// Panics if `sender` is out of range or `depth < 1`.
pub fn run_eig<V: Clone + Ord>(
    n: usize,
    sender: NodeId,
    depth: usize,
    rule: VoteRule,
    sender_value: &AgreementValue<V>,
    faulty: &BTreeSet<NodeId>,
    fabricate: Fabricate<'_, V>,
) -> BTreeMap<NodeId, AgreementValue<V>> {
    run_eig_full(n, sender, depth, rule, sender_value, faulty, fabricate).decisions
}

/// Like [`run_eig`] but also returns every receiver's full view.
///
/// Re-exported at the crate root as `reference_eval`: this recursive
/// per-receiver evaluator is preserved verbatim as the differential
/// oracle for the arena-backed engine ([`crate::engine`]) — the
/// `tests/engine_equivalence.rs` suite and the E14 `perf_baseline`
/// campaign assert the engine's decisions are bit-identical to this
/// function's on every input they explore. Production callers (the
/// adversary searches, the protocol and sparse executors) route through
/// the engine; prefer this function only when the per-receiver
/// [`EigView`]s themselves are needed.
pub fn run_eig_full<V: Clone + Ord>(
    n: usize,
    sender: NodeId,
    depth: usize,
    rule: VoteRule,
    sender_value: &AgreementValue<V>,
    faulty: &BTreeSet<NodeId>,
    fabricate: Fabricate<'_, V>,
) -> EigOutcome<V> {
    assert!(sender.index() < n, "sender out of range");
    assert!(depth >= 1, "at least the sender round is required");

    // store[path][r] = value receiver r holds for path (None if r on path).
    let mut store: BTreeMap<Path, Vec<Option<AgreementValue<V>>>> = BTreeMap::new();

    // Level 1: the sender distributes its value.
    let root = Path::root(sender);
    let mut root_vals = vec![None; n];
    for r in NodeId::all(n) {
        if r == sender {
            continue;
        }
        let v = if faulty.contains(&sender) {
            fabricate(&root, r, sender_value)
        } else {
            sender_value.clone()
        };
        root_vals[r.index()] = Some(v);
    }
    store.insert(root.clone(), root_vals);

    // Levels 2..=depth: receivers relay what they received one level up.
    for level in 2..=depth {
        let prev_paths = paths_of_length(sender, n, level - 1);
        for sigma in prev_paths {
            for child in sigma.children(n) {
                let relayer = child.last();
                let truthful = store[&sigma][relayer.index()]
                    .clone()
                    .expect("relayer must have received the parent value");
                let mut vals = vec![None; n];
                for r in NodeId::all(n) {
                    if child.contains(r) {
                        continue;
                    }
                    let v = if faulty.contains(&relayer) {
                        fabricate(&child, r, &truthful)
                    } else {
                        truthful.clone()
                    };
                    vals[r.index()] = Some(v);
                }
                store.insert(child, vals);
            }
        }
    }

    // Fold each receiver's view.
    let mut decisions = BTreeMap::new();
    let mut views = BTreeMap::new();
    for r in NodeId::all(n) {
        if r == sender {
            continue;
        }
        let mut view = EigView::new(n, depth, r);
        for (path, vals) in &store {
            if let Some(v) = vals[r.index()].clone() {
                view.record(path.clone(), v);
            }
        }
        decisions.insert(r, view.resolve(sender, rule));
        views.insert(r, view);
    }
    EigOutcome { decisions, views }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Val;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn honest() -> impl FnMut(&Path, NodeId, &Val) -> Val {
        |_: &Path, _: NodeId, truthful: &Val| *truthful
    }

    #[test]
    fn no_faults_everyone_decides_sender_value() {
        for depth in 1..=3 {
            let mut fab = honest();
            let d = run_eig(
                5,
                n(0),
                depth,
                VoteRule::Degradable { m: 1 },
                &Val::Value(42),
                &BTreeSet::new(),
                &mut fab,
            );
            assert_eq!(d.len(), 4);
            assert!(d.values().all(|v| *v == Val::Value(42)), "depth {depth}");
        }
    }

    #[test]
    fn majority_rule_no_faults() {
        let mut fab = honest();
        let d = run_eig(
            4,
            n(0),
            2,
            VoteRule::Majority,
            &Val::Value(5),
            &BTreeSet::new(),
            &mut fab,
        );
        assert!(d.values().all(|v| *v == Val::Value(5)));
    }

    #[test]
    fn lying_sender_consistent_outcome_byz11() {
        // 4 nodes, m = u = 1 (classic OM(1) bound): faulty sender sends
        // different values; all receivers must still agree (D.2).
        let faulty: BTreeSet<_> = [n(0)].into_iter().collect();
        let mut fab = |_p: &Path, r: NodeId, _t: &Val| Val::Value(r.index() as u64);
        let d = run_eig(
            4,
            n(0),
            2,
            VoteRule::Degradable { m: 1 },
            &Val::Value(0),
            &faulty,
            &mut fab,
        );
        let vals: BTreeSet<_> = d.values().cloned().collect();
        assert_eq!(vals.len(), 1, "receivers disagree: {d:?}");
    }

    #[test]
    fn view_rejects_own_path() {
        let mut view: EigView<u64> = EigView::new(4, 2, n(1));
        let p = Path::root(n(0)).child(n(1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            view.record(p, Val::Value(1));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn absent_reads_as_default() {
        let view: EigView<u64> = EigView::new(3, 1, n(1));
        assert!(view.is_empty());
        assert_eq!(view.seen(&Path::root(n(0))), Val::Default);
        // depth-1 resolve of an empty view is V_d
        assert_eq!(view.resolve(n(0), VoteRule::Majority), Val::Default);
    }

    #[test]
    fn vote_rule_thresholds() {
        // n = 5, path_len = 1, m = 1 => alpha = 3 of 4 values.
        let r = VoteRule::Degradable { m: 1 };
        let vals = vec![Val::Value(1), Val::Value(1), Val::Value(1), Val::Value(2)];
        assert_eq!(r.combine(5, 1, &vals), Val::Value(1));
        let vals = vec![Val::Value(1), Val::Value(1), Val::Value(2), Val::Value(2)];
        assert_eq!(r.combine(5, 1, &vals), Val::Default);
    }

    #[test]
    fn silent_node_counts_as_default() {
        // Node 2 crashes (always "absent"): receivers see V_d from it.
        let faulty: BTreeSet<_> = [n(2)].into_iter().collect();
        let mut fab = |_p: &Path, _r: NodeId, _t: &Val| Val::Default;
        let d = run_eig(
            5,
            n(0),
            2,
            VoteRule::Degradable { m: 1 },
            &Val::Value(9),
            &faulty,
            &mut fab,
        );
        // Fault-free receivers still decide the sender's value: 3 honest
        // copies of 9 among 4 values meets alpha = 5 - 1 - 1 = 3.
        for r in [1, 3, 4] {
            assert_eq!(d[&n(r)], Val::Value(9));
        }
    }
}
