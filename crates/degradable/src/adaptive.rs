//! Online (adaptive) Byzantine adversaries.
//!
//! Every [`crate::adversary::Strategy`] is *offline*: a deterministic
//! function of `(path, receiver)` fixed before the run starts, which is
//! why the strategy searches can enumerate them. The paper's fault model
//! is stronger — a faulty node may choose each lie *after* seeing
//! everything delivered to it so far. This module models that: an
//! [`AdaptiveAdversary`] observes the faulty node's inbox as the run
//! unfolds and picks equivocations and withholdings from the observed
//! traffic (target the currently-dominant value, split the fault-free
//! receivers, starve the best-connected peer).
//!
//! Determinism is preserved by construction, not by keying: an adversary's
//! state is mutated only by [`AdaptiveAdversary::observe`] and
//! [`AdaptiveAdversary::claim`] calls, and every driver that hosts one
//! (the lockstep conformance fuzzer, the [`simnet`] round engine, the
//! single-threaded simulator transport) delivers events in a fixed total
//! order derived from [`simnet::SimRng`]. Same seed, same observation
//! sequence, same lies — across processes and worker counts. Thread-per-
//! node meshes do *not* host adaptive adversaries (their delivery order is
//! real scheduling), which mirrors how [`crate::spec`] is only attached to
//! deterministic drivers.

use crate::engine::PathArena;
use crate::path::Path;
use crate::service::BatchMsg;
use crate::value::AgreementValue;
use simnet::NodeId;
use std::collections::BTreeMap;

/// A stateful corruption strategy: sees the faulty node's traffic, then
/// chooses per-receiver claims online.
///
/// `None` from [`AdaptiveAdversary::claim`] is a withholding (the receiver
/// observes absence, `V_d`); `Some(v)` replaces the truthful relay value.
pub trait AdaptiveAdversary<V>: Send {
    /// A stable name for reports and repro files.
    fn name(&self) -> &'static str;

    /// Observes one envelope delivered to the faulty node: `src` relayed
    /// `path` claiming `value`, folding at round `round`.
    fn observe(&mut self, round: usize, src: NodeId, path: &Path, value: &AgreementValue<V>);

    /// The claim for relaying `path` to `receiver` at the close of
    /// `round`, given the truthful value; `None` withholds the envelope.
    fn claim(
        &mut self,
        round: usize,
        path: &Path,
        receiver: NodeId,
        truthful: &AgreementValue<V>,
    ) -> Option<AgreementValue<V>>;
}

/// Tracks how often each value has been observed, in observation order.
#[derive(Debug, Clone)]
struct ValueCensus<V: Ord> {
    counts: BTreeMap<AgreementValue<V>, usize>,
}

impl<V: Ord> Default for ValueCensus<V> {
    fn default() -> Self {
        ValueCensus {
            counts: BTreeMap::new(),
        }
    }
}

impl<V: Clone + Ord> ValueCensus<V> {
    fn see(&mut self, value: &AgreementValue<V>) {
        *self.counts.entry(value.clone()).or_insert(0) += 1;
    }

    /// The most-observed value (ties broken by value order), if any.
    fn majority(&self) -> Option<AgreementValue<V>> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(v, _)| v.clone())
    }
}

/// Pushes the observed majority onto half the receivers and `V_d` onto
/// the rest — an online two-faced split aimed at whatever value is
/// currently winning, rather than a value fixed up front.
#[derive(Debug, Clone)]
pub struct MajorityHijacker<V: Ord> {
    census: ValueCensus<V>,
}

impl<V: Ord> Default for MajorityHijacker<V> {
    fn default() -> Self {
        MajorityHijacker {
            census: ValueCensus::default(),
        }
    }
}

impl<V: Clone + Ord + Send> AdaptiveAdversary<V> for MajorityHijacker<V> {
    fn name(&self) -> &'static str {
        "majority-hijacker"
    }

    fn observe(&mut self, _round: usize, _src: NodeId, _path: &Path, value: &AgreementValue<V>) {
        self.census.see(value);
    }

    fn claim(
        &mut self,
        _round: usize,
        _path: &Path,
        receiver: NodeId,
        truthful: &AgreementValue<V>,
    ) -> Option<AgreementValue<V>> {
        let dominant = self.census.majority().unwrap_or_else(|| truthful.clone());
        if receiver.index().is_multiple_of(2) {
            Some(dominant)
        } else {
            Some(AgreementValue::Default)
        }
    }
}

/// Splits the receiver set at an observed pivot: receivers it has heard
/// *from* get the observed majority value reinforced, the others are
/// withheld from entirely — starving the nodes the adversary has not
/// heard from (the ones most likely to be relying on it).
#[derive(Debug, Clone)]
pub struct SplitBrain<V: Ord> {
    census: ValueCensus<V>,
    heard_from: BTreeMap<NodeId, usize>,
}

impl<V: Ord> Default for SplitBrain<V> {
    fn default() -> Self {
        SplitBrain {
            census: ValueCensus::default(),
            heard_from: BTreeMap::new(),
        }
    }
}

impl<V: Clone + Ord + Send> AdaptiveAdversary<V> for SplitBrain<V> {
    fn name(&self) -> &'static str {
        "split-brain"
    }

    fn observe(&mut self, _round: usize, src: NodeId, _path: &Path, value: &AgreementValue<V>) {
        self.census.see(value);
        *self.heard_from.entry(src).or_insert(0) += 1;
    }

    fn claim(
        &mut self,
        _round: usize,
        _path: &Path,
        receiver: NodeId,
        truthful: &AgreementValue<V>,
    ) -> Option<AgreementValue<V>> {
        if self.heard_from.contains_key(&receiver) {
            Some(self.census.majority().unwrap_or_else(|| truthful.clone()))
        } else {
            None
        }
    }
}

/// Withholds relays addressed to the peer it has heard from the most —
/// the best-connected fault-free node — and relays truthfully to everyone
/// else, probing absence detection where it hurts most.
#[derive(Debug, Clone, Default)]
pub struct TrafficWithholder {
    heard_from: BTreeMap<NodeId, usize>,
}

impl TrafficWithholder {
    /// The current starvation target: the most-heard-from peer (ties to
    /// the lower id), if anything has been observed.
    fn target(&self) -> Option<NodeId> {
        self.heard_from
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(n, _)| *n)
    }
}

impl<V: Clone + Ord + Send> AdaptiveAdversary<V> for TrafficWithholder {
    fn name(&self) -> &'static str {
        "traffic-withholder"
    }

    fn observe(&mut self, _round: usize, src: NodeId, _path: &Path, _value: &AgreementValue<V>) {
        *self.heard_from.entry(src).or_insert(0) += 1;
    }

    fn claim(
        &mut self,
        _round: usize,
        _path: &Path,
        receiver: NodeId,
        truthful: &AgreementValue<V>,
    ) -> Option<AgreementValue<V>> {
        if Some(receiver) == self.target() {
            None
        } else {
            Some(truthful.clone())
        }
    }
}

/// How many adversary kinds [`adversary_by_id`] can produce.
pub const ADAPTIVE_KINDS: usize = 3;

/// A fresh adaptive adversary by stable id (`0..ADAPTIVE_KINDS`), the
/// encoding used by fuzz plans and repro files.
pub fn adversary_by_id<V: Clone + Ord + Send + 'static>(
    id: usize,
) -> Box<dyn AdaptiveAdversary<V>> {
    match id % ADAPTIVE_KINDS {
        0 => Box::new(MajorityHijacker::default()),
        1 => Box::new(SplitBrain::default()),
        _ => Box::new(TrafficWithholder::default()),
    }
}

/// Bridges an adaptive adversary into the [`simnet`] round engine as the
/// corruptor applied to [`simnet::LinkFaultKind::Corrupt`]-flagged links:
/// every envelope crossing a corrupt link is first observed, then replaced
/// by the adversary's claim (or absorbed when the adversary withholds —
/// `None` reads as absence, the oral-message axiom).
///
/// An envelope carries its relay path as a label in its root's arena
/// ([`crate::service::BatchMsg`]) and the adversary reads [`Path`]s, so
/// the corruptor decodes every label through the arena of shape
/// `(n, depth)` rooted at the envelope's root, built the first time that
/// root is seen and kept for the run. A label no such arena holds is
/// passed on untouched (the fill reads it as absent). The engine does not
/// expose the destination of an in-flight envelope, so the claim is
/// addressed to the root — equivocation across receivers comes from
/// per-link `Corrupt` flags, withholding/value choice from the
/// adversary's observed state. The re-claimed envelope keeps its instance,
/// root and label. Determinism: the engine invokes corruptors in its
/// single-threaded delivery order derived from [`simnet::SimRng`].
pub fn engine_corruptor<V: Clone + Ord + Send + 'static>(
    n: usize,
    depth: usize,
    mut adversary: Box<dyn AdaptiveAdversary<V>>,
) -> impl FnMut(&BatchMsg<V>, &mut simnet::SimRng) -> Option<BatchMsg<V>> {
    let mut arenas: BTreeMap<NodeId, Option<PathArena>> = BTreeMap::new();
    move |msg, _rng| {
        let arena = arenas
            .entry(msg.root)
            .or_insert_with(|| PathArena::try_new(n, msg.root, depth).ok());
        let Some(path) = arena
            .as_ref()
            .filter(|arena| msg.label.index() < arena.node_count())
            .map(|arena| arena.resolve_path(msg.label))
        else {
            return Some(msg.clone());
        };
        let round = path.len();
        adversary.observe(round, path.last(), &path, &msg.value);
        adversary
            .claim(round, &path, msg.root, &msg.value)
            .map(|value| BatchMsg {
                instance: msg.instance,
                root: msg.root,
                label: msg.label,
                value,
            })
    }
}

/// The display name for adversary id `id` (see [`adversary_by_id`]).
pub fn adversary_name(id: usize) -> &'static str {
    match id % ADAPTIVE_KINDS {
        0 => "majority-hijacker",
        1 => "split-brain",
        _ => "traffic-withholder",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Val;

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn hijacker_targets_the_observed_majority() {
        let mut adv: MajorityHijacker<u64> = MajorityHijacker::default();
        let root = Path::root(nid(0));
        for _ in 0..3 {
            adv.observe(1, nid(0), &root, &Val::Value(7));
        }
        adv.observe(1, nid(2), &root, &Val::Value(9));
        // Even receivers get the dominant observed value, odd ones V_d.
        assert_eq!(
            adv.claim(1, &root, nid(2), &Val::Value(1)),
            Some(Val::Value(7))
        );
        assert_eq!(
            adv.claim(1, &root, nid(3), &Val::Value(1)),
            Some(Val::Default)
        );
    }

    #[test]
    fn split_brain_withholds_from_the_unheard() {
        let mut adv: SplitBrain<u64> = SplitBrain::default();
        let root = Path::root(nid(0));
        adv.observe(1, nid(1), &root, &Val::Value(5));
        assert_eq!(
            adv.claim(1, &root, nid(1), &Val::Value(5)),
            Some(Val::Value(5))
        );
        assert_eq!(adv.claim(1, &root, nid(3), &Val::Value(5)), None);
    }

    #[test]
    fn withholder_starves_the_best_connected_peer() {
        let mut adv = TrafficWithholder::default();
        let root = Path::root(nid(0));
        for _ in 0..2 {
            AdaptiveAdversary::<u64>::observe(&mut adv, 1, nid(4), &root, &Val::Value(1));
        }
        AdaptiveAdversary::<u64>::observe(&mut adv, 1, nid(2), &root, &Val::Value(1));
        assert_eq!(adv.claim(1, &root, nid(4), &Val::Value(1)), None);
        assert_eq!(
            adv.claim(1, &root, nid(2), &Val::Value(1)),
            Some(Val::Value(1))
        );
    }

    #[test]
    fn adversaries_are_deterministic_given_the_same_observations() {
        // Two instances fed the same observation sequence must emit the
        // same claims — the determinism contract the fuzzer relies on.
        for id in 0..ADAPTIVE_KINDS {
            let mut a = adversary_by_id::<u64>(id);
            let mut b = adversary_by_id::<u64>(id);
            let root = Path::root(nid(0));
            for (round, src, v) in [(1, 1, 7u64), (1, 2, 9), (2, 1, 7)] {
                a.observe(round, nid(src), &root, &Val::Value(v));
                b.observe(round, nid(src), &root, &Val::Value(v));
            }
            for r in 0..5 {
                assert_eq!(
                    a.claim(2, &root, nid(r), &Val::Value(3)),
                    b.claim(2, &root, nid(r), &Val::Value(3)),
                    "kind {id} receiver {r}"
                );
            }
            assert_eq!(a.name(), adversary_name(id));
        }
    }
}
