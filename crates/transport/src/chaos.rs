//! Message-keyed link chaos, identical on every transport backend.
//!
//! The simulator's historical chaos layer draws from a sequential RNG
//! stream in message-*processing* order — reproducible inside one
//! simulator process, but meaningless on a real network where `n` nodes
//! process concurrently. This module re-keys every chaos decision on the
//! *message identity* instead: the verdict for an envelope is a pure
//! function of `(seed, fault kind, sending round, from, to, relay path)`.
//! Any backend — simulator, channels, TCP — evaluating the same
//! [`simnet::LinkFaultPlan`] under the same seed therefore injects exactly
//! the same faults on exactly the same envelopes, which is what makes the
//! sim-vs-real differential gate (`decisions must be bit-identical`)
//! meaningful under chaos.
//!
//! Kinds on a directed edge act in insertion order, mirroring
//! `simnet::engine`:
//!
//! * `Cut` drops everything from its round on (deterministic, no draw);
//! * `Drop`/`Corrupt` kill the envelope with probability `p` (corruption
//!   is *detectable* garbling under the oral-message axiom, so without a
//!   payload mutator it reads as absence — same default as the engine);
//! * `Duplicate` delivers two copies;
//! * `Reorder` delays delivery by `1..=window` extra rounds.
//!
//! Deterministic plans (`Cut`, and any `p = 1.0` fault) produce the *same*
//! fault pattern as the engine's stream-based layer, so those runs are
//! comparable against the pre-refactor oracle message-for-message;
//! probabilistic plans produce an equally-distributed but differently
//! keyed pattern, and the differential gate re-derives decisions through
//! the reference fold instead.

use degradable::Path;
use simnet::{LinkFaultKind, LinkFaultPlan, NodeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// Why the chaos layer killed an envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// A [`LinkFaultKind::Cut`] active on the edge.
    Cut,
    /// Probabilistic loss ([`LinkFaultKind::Drop`]).
    Loss,
    /// Detectable garbling ([`LinkFaultKind::Corrupt`]) — reads as absent.
    Corrupt,
}

/// The fate of one envelope on one directed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Deliver `copies` copies, each `delay_rounds` rounds late.
    Deliver {
        /// 1 normally, 2 under duplication.
        copies: usize,
        /// 0 normally; `1..=window` under reordering.
        delay_rounds: usize,
    },
    /// The envelope is lost (absent at the receiver).
    Dropped(DropCause),
}

/// An **online** chaos policy layered over the keyed plan: it sees every
/// envelope crossing the layer (with the plan's base verdict) and may
/// override the ruling based on the traffic observed so far — the
/// link-level counterpart of [`degradable::AdaptiveAdversary`].
///
/// Determinism contract: a policy's state must change only through
/// [`AdaptiveLink::ruling`] calls, so any driver that evaluates envelopes
/// in a fixed total order (the simulator, the lockstep fuzz driver)
/// reproduces the same rulings from the same seed. Thread-per-node meshes
/// evaluate dispositions concurrently *and twice* (sender and receiver),
/// so a mesh endpoint keeps the keyed plan of the layer it is given and
/// drops the policy.
pub trait AdaptiveLink: Send {
    /// A stable name for reports and repro files.
    fn name(&self) -> &'static str;

    /// The final fate of the envelope for `path` from `from` to `to` in
    /// `round`, given the keyed plan's `base` verdict.
    fn ruling(
        &mut self,
        round: usize,
        from: NodeId,
        to: NodeId,
        path: &Path,
        base: Disposition,
    ) -> Disposition;
}

/// An adaptive withholder: watches per-edge traffic and, once an edge has
/// carried `threshold` envelopes, cuts every *further* envelope on the
/// busiest edge seen so far — starving the protocol's hottest relay path,
/// which no offline plan can target because the hot edge depends on the
/// run itself.
#[derive(Debug, Clone)]
pub struct HotEdgeCutter {
    threshold: usize,
    traffic: BTreeMap<(NodeId, NodeId), usize>,
}

impl HotEdgeCutter {
    /// Cuts the busiest edge after observing `threshold` envelopes on it.
    pub fn new(threshold: usize) -> Self {
        HotEdgeCutter {
            threshold,
            traffic: BTreeMap::new(),
        }
    }

    fn hottest(&self) -> Option<(NodeId, NodeId)> {
        self.traffic
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(e, _)| *e)
    }
}

impl AdaptiveLink for HotEdgeCutter {
    fn name(&self) -> &'static str {
        "hot-edge-cutter"
    }

    fn ruling(
        &mut self,
        _round: usize,
        from: NodeId,
        to: NodeId,
        _path: &Path,
        base: Disposition,
    ) -> Disposition {
        let hot = self.hottest();
        let seen = self.traffic.entry((from, to)).or_insert(0);
        *seen += 1;
        if hot == Some((from, to)) && *seen > self.threshold {
            return Disposition::Dropped(DropCause::Cut);
        }
        base
    }
}

/// A [`LinkFaultPlan`] evaluated by message identity under a seed, with an
/// optional [`AdaptiveLink`] overlay.
#[derive(Clone)]
pub struct LinkChaos {
    plan: LinkFaultPlan,
    seed: u64,
    /// Shared across clones on purpose: every endpoint of one run feeds
    /// the same online policy, which is what "adaptive" means.
    adaptive: Option<Arc<Mutex<dyn AdaptiveLink>>>,
}

impl std::fmt::Debug for LinkChaos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkChaos")
            .field("plan", &self.plan)
            .field("seed", &self.seed)
            .field("adaptive", &self.adaptive.as_ref().map(|_| "<policy>"))
            .finish()
    }
}

impl LinkChaos {
    /// Keys `plan` under `seed`.
    pub fn new(plan: LinkFaultPlan, seed: u64) -> Self {
        LinkChaos {
            plan,
            seed,
            adaptive: None,
        }
    }

    /// A no-chaos layer (every envelope delivered once, on time).
    pub fn healthy() -> Self {
        LinkChaos::new(LinkFaultPlan::healthy(), 0)
    }

    /// Installs an online policy over the keyed plan. The policy rules on
    /// every envelope *after* the plan's verdict is computed and may
    /// override it; see the [`AdaptiveLink`] determinism contract for
    /// where this is legal.
    #[must_use]
    pub fn with_adaptive(mut self, policy: impl AdaptiveLink + 'static) -> Self {
        self.adaptive = Some(Arc::new(Mutex::new(policy)));
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_healthy(&self) -> bool {
        self.plan.is_empty() && self.adaptive.is_none()
    }

    /// Whether [`LinkChaos::disposition`] is a pure function of its
    /// arguments (no adaptive overlay) — the only kind of layer that may be
    /// consulted more than once per envelope, or concurrently.
    #[cfg(test)]
    pub(crate) fn is_pure(&self) -> bool {
        self.adaptive.is_none()
    }

    /// The keyed plan under its seed, without the adaptive overlay: what a
    /// mesh endpoint holds.
    pub(crate) fn keyed(&self) -> LinkChaos {
        LinkChaos::new(self.plan.clone(), self.seed)
    }

    /// The fate of the envelope for `path` sent from `from` to `to` in
    /// `round`. Without an adaptive overlay this is a pure function of the
    /// arguments and the seed, so every backend agrees on it; with one,
    /// the overlay's stateful ruling is final.
    pub fn disposition(&self, round: usize, from: NodeId, to: NodeId, path: &Path) -> Disposition {
        let base = self.base_disposition(round, from, to, path);
        match &self.adaptive {
            None => base,
            // Poison only says that a ruling panicked on another thread.
            // What it left is still a policy — the worst a half-made
            // update costs is determinism — so this ruling goes ahead.
            Some(policy) => policy
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .ruling(round, from, to, path, base),
        }
    }

    /// The keyed plan's verdict, ignoring any adaptive overlay.
    fn base_disposition(&self, round: usize, from: NodeId, to: NodeId, path: &Path) -> Disposition {
        let mut copies = 1usize;
        let mut delay_rounds = 0usize;
        for (slot, kind) in self.plan.kinds(from, to).iter().enumerate() {
            match *kind {
                LinkFaultKind::Cut { from_round } => {
                    if round >= from_round {
                        return Disposition::Dropped(DropCause::Cut);
                    }
                }
                LinkFaultKind::Drop { p } => {
                    if self.chance(p, slot, round, from, to, path) {
                        return Disposition::Dropped(DropCause::Loss);
                    }
                }
                LinkFaultKind::Corrupt { p } => {
                    // Detectable garbling = absence (no payload mutator on
                    // real transports; matches the engine's default).
                    if self.chance(p, slot, round, from, to, path) {
                        return Disposition::Dropped(DropCause::Corrupt);
                    }
                }
                LinkFaultKind::Duplicate { p } => {
                    if copies == 1 && self.chance(p, slot, round, from, to, path) {
                        copies = 2;
                    }
                }
                LinkFaultKind::Reorder { window } => {
                    if window > 0 && delay_rounds == 0 {
                        let d = self.below(window as u64 + 1, slot, round, from, to, path);
                        delay_rounds = d as usize;
                    }
                }
            }
        }
        Disposition::Deliver {
            copies,
            delay_rounds,
        }
    }

    /// A keyed uniform draw in `[0, 1)` compared against `p`.
    fn chance(
        &self,
        p: f64,
        slot: usize,
        round: usize,
        from: NodeId,
        to: NodeId,
        path: &Path,
    ) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        unit_f64(self.key(slot, round, from, to, path)) < p
    }

    /// A keyed uniform draw in `[0, bound)`.
    fn below(
        &self,
        bound: u64,
        slot: usize,
        round: usize,
        from: NodeId,
        to: NodeId,
        path: &Path,
    ) -> u64 {
        debug_assert!(bound > 0);
        self.key(slot, round, from, to, path) % bound
    }

    /// The message-identity hash for fault slot `slot` on this edge.
    fn key(&self, slot: usize, round: usize, from: NodeId, to: NodeId, path: &Path) -> u64 {
        message_key(self.seed, slot as u64, round, from, to, path)
    }
}

/// The shared message-identity hash: a pure function of its arguments.
/// `domain` separates independent consumers (fault slots use their slot
/// index; [`crate::sim::RelaxedTiming`] uses a reserved domain).
/// `DefaultHasher::new()` is keyed with fixed constants, so the value is
/// stable across processes and machines — required for multi-process TCP
/// runs to agree on fault verdicts.
pub(crate) fn message_key(
    seed: u64,
    domain: u64,
    round: usize,
    from: NodeId,
    to: NodeId,
    path: &Path,
) -> u64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    domain.hash(&mut h);
    round.hash(&mut h);
    from.hash(&mut h);
    to.hash(&mut h);
    path.as_slice().hash(&mut h);
    h.finish()
}

/// Folds a hash into a uniform `[0, 1)` draw — 53 mantissa bits, the same
/// construction as `SimRng::unit_f64`.
pub(crate) fn unit_f64(h: u64) -> f64 {
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn root() -> Path {
        Path::root(nid(0))
    }

    #[test]
    fn healthy_delivers_everything_once() {
        let chaos = LinkChaos::healthy();
        assert!(chaos.is_healthy());
        assert_eq!(
            chaos.disposition(0, nid(0), nid(1), &root()),
            Disposition::Deliver {
                copies: 1,
                delay_rounds: 0
            }
        );
    }

    #[test]
    fn cut_is_deterministic_from_its_round() {
        let plan =
            LinkFaultPlan::healthy().with(nid(0), nid(1), LinkFaultKind::Cut { from_round: 1 });
        let chaos = LinkChaos::new(plan, 7);
        assert!(matches!(
            chaos.disposition(0, nid(0), nid(1), &root()),
            Disposition::Deliver { .. }
        ));
        assert_eq!(
            chaos.disposition(1, nid(0), nid(1), &root()),
            Disposition::Dropped(DropCause::Cut)
        );
        // The reverse direction is untouched.
        assert!(matches!(
            chaos.disposition(1, nid(1), nid(0), &root()),
            Disposition::Deliver { .. }
        ));
    }

    #[test]
    fn certain_faults_ignore_the_seed() {
        for seed in [0u64, 1, 99] {
            let drop = LinkChaos::new(
                LinkFaultPlan::healthy().with(nid(0), nid(1), LinkFaultKind::Drop { p: 1.0 }),
                seed,
            );
            assert_eq!(
                drop.disposition(0, nid(0), nid(1), &root()),
                Disposition::Dropped(DropCause::Loss)
            );
            let dup = LinkChaos::new(
                LinkFaultPlan::healthy().with(nid(0), nid(1), LinkFaultKind::Duplicate { p: 1.0 }),
                seed,
            );
            assert_eq!(
                dup.disposition(0, nid(0), nid(1), &root()),
                Disposition::Deliver {
                    copies: 2,
                    delay_rounds: 0
                }
            );
        }
    }

    #[test]
    fn verdicts_are_message_keyed_not_order_dependent() {
        let plan = LinkFaultPlan::healthy().with(nid(0), nid(1), LinkFaultKind::Drop { p: 0.5 });
        let chaos = LinkChaos::new(plan, 42);
        let p1 = root();
        let p2 = root().child(nid(2));
        // Same message, any evaluation order: same verdict.
        let a = chaos.disposition(1, nid(0), nid(1), &p1);
        let _ = chaos.disposition(1, nid(0), nid(1), &p2);
        let b = chaos.disposition(1, nid(0), nid(1), &p1);
        assert_eq!(a, b);
    }

    #[test]
    fn probabilistic_draws_hit_both_outcomes() {
        let plan = LinkFaultPlan::healthy().with(nid(0), nid(1), LinkFaultKind::Drop { p: 0.5 });
        let chaos = LinkChaos::new(plan, 3);
        let mut dropped = 0;
        let mut delivered = 0;
        for round in 0..200 {
            match chaos.disposition(round, nid(0), nid(1), &root()) {
                Disposition::Dropped(_) => dropped += 1,
                Disposition::Deliver { .. } => delivered += 1,
            }
        }
        assert!(dropped > 50, "p=0.5 over 200 draws: {dropped}");
        assert!(delivered > 50, "p=0.5 over 200 draws: {delivered}");
    }

    #[test]
    fn reorder_delays_within_window() {
        let plan =
            LinkFaultPlan::healthy().with(nid(0), nid(1), LinkFaultKind::Reorder { window: 2 });
        let chaos = LinkChaos::new(plan, 9);
        let mut saw_delay = false;
        for round in 0..100 {
            match chaos.disposition(round, nid(0), nid(1), &root()) {
                Disposition::Deliver {
                    copies,
                    delay_rounds,
                } => {
                    assert_eq!(copies, 1);
                    assert!(delay_rounds <= 2);
                    saw_delay |= delay_rounds > 0;
                }
                d => panic!("reorder never drops: {d:?}"),
            }
        }
        assert!(
            saw_delay,
            "window=2 over 100 draws must delay at least once"
        );
    }

    #[test]
    fn adaptive_overlay_is_flagged_impure() {
        let plain = LinkChaos::healthy();
        assert!(plain.is_pure());
        assert!(plain.is_healthy());
        let adaptive = LinkChaos::healthy().with_adaptive(HotEdgeCutter::new(1));
        assert!(!adaptive.is_pure());
        assert!(!adaptive.is_healthy(), "an overlay can inject faults");
    }

    #[test]
    fn hot_edge_cutter_targets_the_busiest_edge() {
        let chaos = LinkChaos::healthy().with_adaptive(HotEdgeCutter::new(2));
        // Edge (0,1) carries three envelopes; (0,2) one. The third (0,1)
        // envelope exceeds the threshold on the hottest edge and is cut.
        assert!(matches!(
            chaos.disposition(0, nid(0), nid(1), &root()),
            Disposition::Deliver { .. }
        ));
        assert!(matches!(
            chaos.disposition(0, nid(0), nid(2), &root()),
            Disposition::Deliver { .. }
        ));
        assert!(matches!(
            chaos.disposition(1, nid(0), nid(1), &root()),
            Disposition::Deliver { .. }
        ));
        assert_eq!(
            chaos.disposition(2, nid(0), nid(1), &root()),
            Disposition::Dropped(DropCause::Cut)
        );
        // The cold edge is untouched.
        assert!(matches!(
            chaos.disposition(2, nid(0), nid(2), &root()),
            Disposition::Deliver { .. }
        ));
    }

    #[test]
    fn clones_share_one_adaptive_policy() {
        // Every endpoint of a run clones the chaos layer; the policy must
        // see the union of their traffic, not per-clone copies.
        let a = LinkChaos::healthy().with_adaptive(HotEdgeCutter::new(1));
        let b = a.clone();
        assert!(matches!(
            a.disposition(0, nid(0), nid(1), &root()),
            Disposition::Deliver { .. }
        ));
        // The clone's second envelope on the same edge trips the shared
        // threshold.
        assert_eq!(
            b.disposition(1, nid(0), nid(1), &root()),
            Disposition::Dropped(DropCause::Cut)
        );
    }

    #[test]
    fn adaptive_rulings_are_deterministic_for_a_fixed_order() {
        let run = || {
            let chaos = LinkChaos::new(
                LinkFaultPlan::healthy().with(nid(0), nid(1), LinkFaultKind::Drop { p: 0.4 }),
                11,
            )
            .with_adaptive(HotEdgeCutter::new(3));
            let mut fates = Vec::new();
            for round in 0..20 {
                for to in 1..4 {
                    fates.push(chaos.disposition(round, nid(0), nid(to), &root()));
                }
            }
            fates
        };
        assert_eq!(run(), run());
    }
}
