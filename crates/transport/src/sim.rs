//! The deterministic virtual-time backend.
//!
//! [`SimWorld`] owns one [`simnet::EventQueue`] holding every pending
//! delivery and every per-node round boundary; [`SimTransport`] is a
//! per-node handle onto it. The queue's strict `(time, class, seq)` order
//! makes the whole run a single totally-ordered event sequence, so the
//! outcome is bit-identical across processes, worker counts, and polling
//! patterns: `poll` releases the *head* event only to the endpoint that
//! owns it and answers [`PollOutcome::Pending`] to everyone else.
//!
//! A node's rounds close in its endpoint core (`endpoint.rs`), the
//! barrier a mesh endpoint runs: node `i`'s boundary into round `r`, at
//! virtual time `r * quantum`, brings it every peer's mark for round
//! `r − 1`, as synchronized clocks would. An envelope sent while round `r`
//! closes is scheduled for `(r + 1 + delay) * quantum + skew`. With no
//! skew it lands *exactly on* the next boundary, where the queue's
//! Deliver-before-Timer tie-break makes it present — absence only happens
//! to messages strictly later than the boundary.
//!
//! [`RelaxedTiming`] models §6 of the paper. BYZ's absence detection
//! (assumption (b)) is only guaranteed while clock synchronization holds,
//! and the degradable clock protocol keeps clocks synchronized only up to
//! `m` faults. [`RelaxedTiming::when_degraded`], the one way to build one,
//! refuses to produce skew when `f <= m`; beyond `m` it injects keyed
//! per-envelope skew that pushes some fault-free traffic past the
//! receiver's boundary — a *false* absence detection. The late envelope
//! still folds as a direct observation (never relayed), and the D.3/D.4
//! verdicts must survive, which the §6 test suite asserts.

use crate::chaos::{message_key, unit_f64, LinkChaos};
use crate::endpoint::{QueuedDelivery, RunState};
use crate::{PollOutcome, Transport, TransportStats};
use degradable::{ByzMsg, Path};
use obs::TraceCtx;
use simnet::{EventClass, EventQueue, NodeId, SimTime};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

/// Reserved `domain` for skew draws in [`crate::chaos::message_key`]
/// (fault slots use their index, which never reaches `u64::MAX`).
const SKEW_DOMAIN: u64 = u64::MAX;

/// §6 relaxed absence detection: keyed clock-skew injection.
///
/// Built only by [`RelaxedTiming::when_degraded`], which enforces the
/// paper's rule that detection may only be incorrect once the fault count
/// exceeds `m` (below that, degradable clock synchronization holds and
/// timeouts are exact).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelaxedTiming {
    /// Per-envelope probability of arriving after the receiver's boundary.
    skew_p: f64,
    /// Maximum skew past the boundary, in virtual time units (≥ 1 for the
    /// injection to do anything).
    max_skew: u64,
    /// Seed for the keyed draws.
    seed: u64,
}

impl RelaxedTiming {
    /// Skew injection for a run with `f` actual faults under parameter
    /// `m`: `None` when `f <= m` (clocks synchronized, detection must be
    /// correct — §6's precondition), the injector otherwise.
    pub fn when_degraded(
        f: usize,
        m: usize,
        skew_p: f64,
        max_skew: u64,
        seed: u64,
    ) -> Option<Self> {
        (f > m).then_some(RelaxedTiming {
            skew_p,
            max_skew,
            seed,
        })
    }

    /// The keyed skew for one envelope: 0 (on time) or `1..=max_skew`
    /// virtual time units past the receiver's round boundary.
    fn skew(&self, round: usize, from: NodeId, to: NodeId, path: &Path) -> u64 {
        let h = message_key(self.seed, SKEW_DOMAIN, round, from, to, path);
        if self.max_skew > 0 && unit_f64(h) < self.skew_p {
            1 + h % self.max_skew
        } else {
            0
        }
    }
}

/// Payloads in the world's event queue.
enum WorldEvent {
    /// An envelope arriving at `dst`, `delay` rounds late by its sender's
    /// verdict. `late` marks it skewed past its nominal round boundary (a
    /// §6 false timeout at the receiver).
    Deliver {
        dst: NodeId,
        envelope: QueuedDelivery,
        delay: usize,
        late: bool,
    },
    /// Node `node`'s boundary into round `round`: round 0 opens the run,
    /// and every later boundary brings every peer's mark for the round
    /// before it, as synchronized clocks would.
    Boundary { node: NodeId, round: usize },
}

impl WorldEvent {
    fn owner(&self) -> NodeId {
        match *self {
            WorldEvent::Deliver { dst, .. } => dst,
            WorldEvent::Boundary { node, .. } => node,
        }
    }
}

/// The shared virtual-time world behind a set of [`SimTransport`]s.
pub struct SimWorld {
    quantum: SimTime,
    end: SimTime,
    queue: EventQueue<WorldEvent>,
    relaxed: Option<RelaxedTiming>,
    faulty: BTreeSet<NodeId>,
    /// Node `i`'s endpoint core, whose chaos layer is the world's, adaptive
    /// overlay and all: every verdict is reached once, at the sender.
    cores: Vec<RunState>,
}

impl SimWorld {
    /// Builds a world for `n` nodes running `depth + 1` rounds and returns
    /// the per-node endpoints. `faulty` lists the Byzantine nodes (used
    /// only to classify false timeouts as fault-free-to-fault-free).
    pub fn endpoints(
        n: usize,
        depth: usize,
        chaos: LinkChaos,
        relaxed: Option<RelaxedTiming>,
        faulty: BTreeSet<NodeId>,
    ) -> Vec<SimTransport> {
        // The quantum must exceed the largest possible skew so a skewed
        // envelope still lands inside the *next* round's window (late,
        // folded as a direct observation) rather than overshooting it.
        let quantum = relaxed.map_or(1, |r| r.max_skew + 1) as SimTime;
        let mut queue = EventQueue::new();
        for round in 0..=depth {
            for node in NodeId::all(n) {
                let boundary = WorldEvent::Boundary { node, round };
                queue.schedule(round as SimTime * quantum, EventClass::Timer, boundary);
            }
        }
        // No deadline: a round closes on the marks its boundary brings.
        let core = |me| RunState::new(me, n, depth, chaos.clone(), Duration::MAX);
        let world = Rc::new(RefCell::new(SimWorld {
            quantum,
            end: depth as SimTime * quantum,
            queue,
            relaxed,
            faulty,
            cores: NodeId::all(n).map(core).collect(),
        }));
        NodeId::all(n)
            .map(|me| SimTransport {
                me,
                world: Rc::clone(&world),
            })
            .collect()
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: ByzMsg<u64>, trace: Option<TraceCtx>) {
        let sender = &mut self.cores[from.index()];
        let round = sender.round;
        let Some((copies, delay)) = sender.send(to, &msg.path) else {
            return;
        };
        let skew = self
            .relaxed
            .map_or(0, |r| r.skew(round, from, to, &msg.path));
        let arrival = (round + 1 + delay) as SimTime * self.quantum + skew as SimTime;
        if arrival > self.end {
            // Past the final boundary: nobody will ever process it.
            self.cores[to.index()].stats.lost += copies as u64;
            return;
        }
        for _ in 0..copies {
            let envelope = (from, msg.clone(), trace.clone());
            let deliver = WorldEvent::Deliver {
                dst: to,
                envelope,
                delay,
                late: skew > 0,
            };
            self.queue.schedule(arrival, EventClass::Deliver, deliver);
        }
    }

    fn poll_for(&mut self, me: NodeId) -> PollOutcome {
        let head = match self.queue.peek() {
            // Only the owner may pop the head: the queue's total order is
            // the run's event order no matter who polls when.
            Some(head) if head.payload.owner() != me => return PollOutcome::Pending,
            Some(_) => self.queue.pop(),
            None => None,
        };
        let Some(ev) = head else {
            return PollOutcome::Closed;
        };
        let n = self.cores.len();
        let core = &mut self.cores[me.index()];
        match ev.payload {
            WorldEvent::Boundary { round: 0, .. } => {
                return PollOutcome::Event(core.start(Duration::ZERO))
            }
            WorldEvent::Boundary { round, .. } => {
                for peer in NodeId::all(n).filter(|&p| p != me) {
                    core.mark(peer, round - 1);
                }
            }
            WorldEvent::Deliver {
                envelope,
                delay,
                late,
                ..
            } => {
                let src = envelope.0;
                if late && !self.faulty.contains(&src) && !self.faulty.contains(&me) {
                    // A fault-free node's envelope to a fault-free node
                    // missed the round boundary: §6's false absence
                    // detection.
                    core.stats.false_timeouts += 1;
                }
                core.file(envelope, delay);
            }
        }
        let event = core.next(Duration::ZERO, &BTreeSet::new());
        event.map_or(PollOutcome::Pending, PollOutcome::Event)
    }
}

/// One node's endpoint onto a [`SimWorld`].
pub struct SimTransport {
    me: NodeId,
    world: Rc<RefCell<SimWorld>>,
}

impl Transport for SimTransport {
    fn me(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.world.borrow().cores.len()
    }

    fn send(&mut self, to: NodeId, msg: ByzMsg<u64>) {
        self.world.borrow_mut().send(self.me, to, msg, None);
    }

    fn send_traced(&mut self, to: NodeId, msg: ByzMsg<u64>, trace: Option<TraceCtx>) {
        self.world.borrow_mut().send(self.me, to, msg, trace);
    }

    fn last_trace(&self) -> Option<TraceCtx> {
        self.world.borrow().cores[self.me.index()]
            .last_trace
            .clone()
    }

    fn poll(&mut self) -> PollOutcome {
        self.world.borrow_mut().poll_for(self.me)
    }

    fn stats(&self) -> TransportStats {
        self.world.borrow().cores[self.me.index()].stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use degradable::{AgreementValue, NodeEvent};

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn when_degraded_respects_the_m_threshold() {
        assert!(RelaxedTiming::when_degraded(1, 1, 0.5, 3, 0).is_none());
        assert!(RelaxedTiming::when_degraded(0, 2, 0.5, 3, 0).is_none());
        let r = RelaxedTiming::when_degraded(2, 1, 0.5, 3, 0).unwrap();
        assert_eq!(r.max_skew, 3);
    }

    #[test]
    fn skew_stays_within_bounds_and_hits_both_outcomes() {
        let r = RelaxedTiming {
            skew_p: 0.5,
            max_skew: 4,
            seed: 11,
        };
        let path = Path::root(nid(0));
        let (mut zero, mut nonzero) = (0, 0);
        for round in 0..200 {
            let s = r.skew(round, nid(0), nid(1), &path);
            assert!(s <= 4);
            if s == 0 {
                zero += 1;
            } else {
                nonzero += 1;
            }
        }
        assert!(zero > 40, "p=0.5: {zero} on-time of 200");
        assert!(nonzero > 40, "p=0.5: {nonzero} skewed of 200");
        let never = RelaxedTiming {
            skew_p: 0.0,
            max_skew: 4,
            seed: 11,
        };
        assert_eq!(never.skew(0, nid(0), nid(1), &path), 0);
    }

    #[test]
    fn boundary_arrival_beats_the_timer() {
        // n=2, one round beyond round 0: node 0's round-0 send arrives at
        // exactly node 1's round-1 timer time, and must pop *before* it
        // (the §6 boundary edge case — present, not absent).
        let mut eps = SimWorld::endpoints(2, 1, LinkChaos::healthy(), None, BTreeSet::new());
        let msg = ByzMsg {
            path: Path::root(nid(0)),
            value: AgreementValue::Value(5u64),
        };
        // Pop both round-0 timers.
        assert!(matches!(
            eps[0].poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        ));
        assert!(matches!(eps[0].poll(), PollOutcome::Pending));
        eps[0].send(nid(1), msg.clone());
        assert!(matches!(
            eps[1].poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        ));
        // Head is now the delivery at t=1 — same time as node 0's round-1
        // timer, but Deliver sorts first and it belongs to node 1.
        assert!(matches!(eps[0].poll(), PollOutcome::Pending));
        match eps[1].poll() {
            PollOutcome::Event(NodeEvent::Deliver { src, msg: got }) => {
                assert_eq!(src, nid(0));
                assert_eq!(got, msg);
            }
            other => panic!("expected boundary delivery, got {other:?}"),
        }
        // Only now the round-1 timers.
        assert!(matches!(
            eps[0].poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        ));
        assert!(matches!(
            eps[1].poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        ));
        assert!(matches!(eps[0].poll(), PollOutcome::Closed));
        assert_eq!(eps[1].stats().delivered, 1);
        assert_eq!(eps[1].stats().false_timeouts, 0);
    }

    #[test]
    fn skewed_arrival_misses_the_timer_and_counts_false_timeout() {
        // Force every envelope late: skew_p = 1. The round-0 send then
        // arrives strictly after node 1's round-1 timer.
        let relaxed = RelaxedTiming {
            skew_p: 1.0,
            max_skew: 2,
            seed: 0,
        };
        let mut eps =
            SimWorld::endpoints(2, 2, LinkChaos::healthy(), Some(relaxed), BTreeSet::new());
        let msg = ByzMsg {
            path: Path::root(nid(0)),
            value: AgreementValue::Value(5u64),
        };
        assert!(matches!(
            eps[0].poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        ));
        eps[0].send(nid(1), msg);
        assert!(matches!(
            eps[1].poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        ));
        // Round-1 timers fire before the (skewed) delivery.
        assert!(matches!(
            eps[0].poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        ));
        assert!(matches!(
            eps[1].poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        ));
        assert!(matches!(
            eps[1].poll(),
            PollOutcome::Event(NodeEvent::Deliver { .. })
        ));
        assert_eq!(eps[1].stats().false_timeouts, 1);
    }

    #[test]
    fn false_timeouts_under_churn_count_fault_free_pairs_only() {
        // Churn accounting (DESIGN §5f): a crashed node is in the faulty
        // set for its epoch. With every envelope skewed late, only the
        // fault-free→fault-free pair (0→1) may count as a false timeout;
        // traffic from the crashed node 2, and traffic addressed to it,
        // is not a *false* detection — the peer really is faulty.
        let relaxed = RelaxedTiming {
            skew_p: 1.0,
            max_skew: 2,
            seed: 3,
        };
        let faulty: BTreeSet<NodeId> = [nid(2)].into_iter().collect();
        let mut eps = SimWorld::endpoints(3, 2, LinkChaos::healthy(), Some(relaxed), faulty);
        let msg = |src: usize| ByzMsg {
            path: Path::root(nid(src)),
            value: AgreementValue::Value(5u64),
        };
        let mut closed = [false; 3];
        while !closed.iter().all(|&c| c) {
            for i in 0..3 {
                match eps[i].poll() {
                    PollOutcome::Event(NodeEvent::Timeout { round: 0 }) => match i {
                        0 => {
                            eps[0].send(nid(1), msg(0));
                            eps[0].send(nid(2), msg(0));
                        }
                        2 => eps[2].send(nid(1), msg(2)),
                        _ => {}
                    },
                    PollOutcome::Closed => closed[i] = true,
                    _ => {}
                }
            }
        }
        assert_eq!(eps[1].stats().delivered, 2, "node 1 hears 0 and 2");
        assert_eq!(eps[2].stats().delivered, 1, "node 2 hears 0");
        assert_eq!(
            eps[1].stats().false_timeouts,
            1,
            "only the fault-free pair 0->1 counts"
        );
        assert_eq!(
            eps[2].stats().false_timeouts,
            0,
            "late traffic *to* the crashed node is not a false timeout"
        );
    }

    #[test]
    fn skew_past_the_final_round_is_lost() {
        let relaxed = RelaxedTiming {
            skew_p: 1.0,
            max_skew: 2,
            seed: 0,
        };
        // depth = 1: a skewed round-0 send lands past the last timer.
        let mut eps =
            SimWorld::endpoints(2, 1, LinkChaos::healthy(), Some(relaxed), BTreeSet::new());
        let msg = ByzMsg {
            path: Path::root(nid(0)),
            value: AgreementValue::Value(5u64),
        };
        assert!(matches!(
            eps[0].poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        ));
        eps[0].send(nid(1), msg);
        assert_eq!(eps[1].stats().lost, 1);
        assert_eq!(eps[0].stats().sent, 1);
    }
}
