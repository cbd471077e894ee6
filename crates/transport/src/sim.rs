//! The deterministic virtual-time backend.
//!
//! [`SimWorld`] owns one [`simnet::EventQueue`] holding every pending
//! delivery and every per-node round timer; [`SimTransport`] is a per-node
//! handle onto it. The queue's strict `(time, class, seq)` order makes the
//! whole run a single totally-ordered event sequence, so the outcome is
//! bit-identical across processes, worker counts, and polling patterns:
//! `poll` releases the *head* event only to the endpoint that owns it and
//! answers [`PollOutcome::Pending`] to everyone else, which means the
//! driver's iteration order cannot influence the event order.
//!
//! Rounds are emergent. Node `i`'s round-`r` timer fires at virtual time
//! `r * quantum`; an envelope sent while round `r` closes is scheduled for
//! `(r + 1 + delay) * quantum + skew`. With no skew it lands *exactly on*
//! the next boundary, where the queue's Deliver-before-Timer tie-break
//! makes it present — absence only happens to messages strictly later than
//! the timeout.
//!
//! [`RelaxedTiming`] models §6 of the paper. BYZ's absence detection
//! (assumption (b)) is only guaranteed while clock synchronization holds,
//! and the degradable clock protocol keeps clocks synchronized only up to
//! `m` faults. [`RelaxedTiming::when_degraded`] therefore refuses to
//! produce skew when `f <= m`; beyond `m` it injects keyed per-envelope
//! skew that pushes some fault-free traffic past the receiver's timeout —
//! a *false* absence detection. The late envelope still folds into the
//! receiver's view as a direct observation (never relayed), and the D.3/D.4
//! verdicts must survive, which the §6 test suite asserts.

use crate::chaos::{message_key, unit_f64, LinkChaos};
use crate::{Disposition, DropCause, PollOutcome, Transport, TransportStats};
use degradable::{ByzMsg, NodeEvent, Path};
use obs::TraceCtx;
use serde::{Deserialize, Serialize};
use simnet::{EventClass, EventQueue, NodeId, SimTime};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Reserved `domain` for skew draws in [`crate::chaos::message_key`]
/// (fault slots use their index, which never reaches `u64::MAX`).
const SKEW_DOMAIN: u64 = u64::MAX;

/// §6 relaxed absence detection: keyed clock-skew injection.
///
/// Constructed via [`RelaxedTiming::when_degraded`], which enforces the
/// paper's rule that detection may only be incorrect once the fault count
/// exceeds `m` (below that, degradable clock synchronization holds and
/// timeouts are exact).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelaxedTiming {
    /// Per-envelope probability of arriving after the receiver's timeout.
    pub skew_p: f64,
    /// Maximum skew past the boundary, in virtual time units (≥ 1 for the
    /// injection to do anything).
    pub max_skew: u64,
    /// Seed for the keyed draws.
    pub seed: u64,
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
        if self.max_skew == 0 {
            return 0;
        }
        let h = message_key(self.seed, SKEW_DOMAIN, round, from, to, path);
        if unit_f64(h) < self.skew_p {
            1 + h % self.max_skew
        } else {
            0
        }
    }
}

/// Payloads in the world's event queue.
enum WorldEvent {
    /// An envelope arriving at `dst`. `late` marks it skewed past its
    /// nominal round boundary (a §6 false timeout at the receiver).
    Deliver {
        dst: NodeId,
        src: NodeId,
        msg: ByzMsg<u64>,
        late: bool,
        trace: Option<TraceCtx>,
    },
    /// Node `node`'s round-`round` timeout.
    Timer { node: NodeId, round: usize },
}

impl WorldEvent {
    fn owner(&self) -> NodeId {
        match *self {
            WorldEvent::Deliver { dst, .. } => dst,
            WorldEvent::Timer { node, .. } => node,
        }
    }
}

/// The shared virtual-time world behind a set of [`SimTransport`]s.
pub struct SimWorld {
    n: usize,
    quantum: SimTime,
    end: SimTime,
    queue: EventQueue<WorldEvent>,
    chaos: LinkChaos,
    relaxed: Option<RelaxedTiming>,
    faulty: BTreeSet<NodeId>,
    stats: Vec<TransportStats>,
    /// Per-node trace context of the most recently surfaced delivery.
    last_trace: Vec<Option<TraceCtx>>,
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
                queue.schedule(
                    round as SimTime * quantum,
                    EventClass::Timer,
                    WorldEvent::Timer { node, round },
                );
            }
        }
        let world = Rc::new(RefCell::new(SimWorld {
            n,
            quantum,
            end: depth as SimTime * quantum,
            queue,
            chaos,
            relaxed,
            faulty,
            stats: vec![TransportStats::default(); n],
            last_trace: vec![None; n],
        }));
        NodeId::all(n)
            .map(|me| SimTransport {
                me,
                world: Rc::clone(&world),
            })
            .collect()
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: ByzMsg<u64>, trace: Option<TraceCtx>) {
        let round = (self.queue.now() / self.quantum) as usize;
        self.stats[from.index()].sent += 1;
        let (copies, delay) = match self.chaos.disposition(round, from, to, &msg.path) {
            Disposition::Dropped(cause) => {
                let s = &mut self.stats[from.index()];
                match cause {
                    DropCause::Cut => s.dropped_cut += 1,
                    DropCause::Loss => s.dropped_loss += 1,
                    DropCause::Corrupt => s.dropped_corrupt += 1,
                }
                return;
            }
            Disposition::Deliver {
                copies,
                delay_rounds,
            } => (copies, delay_rounds),
        };
        if delay > 0 {
            self.stats[from.index()].delayed += 1;
        }
        if copies > 1 {
            self.stats[from.index()].duplicated += (copies - 1) as u64;
        }
        let skew = self
            .relaxed
            .map_or(0, |r| r.skew(round, from, to, &msg.path));
        let arrival = (round + 1 + delay) as SimTime * self.quantum + skew as SimTime;
        for _ in 0..copies {
            if arrival > self.end {
                // Past the final timeout: nobody will ever process it.
                self.stats[to.index()].lost += 1;
                continue;
            }
            self.queue.schedule(
                arrival,
                EventClass::Deliver,
                WorldEvent::Deliver {
                    dst: to,
                    src: from,
                    msg: msg.clone(),
                    late: skew > 0,
                    trace: trace.clone(),
                },
            );
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
        match ev.payload {
            WorldEvent::Timer { round, .. } => PollOutcome::Event(NodeEvent::Timeout { round }),
            WorldEvent::Deliver {
                dst,
                src,
                msg,
                late,
                trace,
            } => {
                let s = &mut self.stats[dst.index()];
                s.delivered += 1;
                if late && !self.faulty.contains(&src) && !self.faulty.contains(&dst) {
                    // A fault-free node's envelope to a fault-free node
                    // missed the timeout: §6's false absence detection.
                    s.false_timeouts += 1;
                }
                self.last_trace[dst.index()] = trace;
                PollOutcome::Event(NodeEvent::Deliver { src, msg })
            }
        }
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
        self.world.borrow().n
    }

    fn send(&mut self, to: NodeId, msg: ByzMsg<u64>) {
        self.world.borrow_mut().send(self.me, to, msg, None);
    }

    fn send_traced(&mut self, to: NodeId, msg: ByzMsg<u64>, trace: Option<TraceCtx>) {
        self.world.borrow_mut().send(self.me, to, msg, trace);
    }

    fn last_trace(&self) -> Option<TraceCtx> {
        self.world.borrow().last_trace[self.me.index()].clone()
    }

    fn poll(&mut self) -> PollOutcome {
        self.world.borrow_mut().poll_for(self.me)
    }

    fn stats(&self) -> TransportStats {
        self.world.borrow().stats[self.me.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use degradable::AgreementValue;

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
