//! The sans-io core of one endpoint: what a node's end of the network
//! decides for one instance — the round barrier of the paper's
//! message-absence detection (assumption (b)) and the booking of the chaos
//! verdicts on its sends — with the time passed in. It does no I/O and
//! reads no clock: a mesh endpoint ([`crate::mesh`]) files the frames its
//! links read and passes the wall clock; the simulator ([`crate::sim`])
//! files envelopes and round-boundary marks and sets no deadline a round
//! can reach.

use crate::chaos::LinkChaos;
use crate::frame::Frame;
use crate::{Disposition, DropCause, TransportStats};
use degradable::{ByzMsg, NodeEvent, Path};
use obs::TraceCtx;
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

/// An envelope awaiting delivery to the local machine: source, message,
/// and the sender's causal trace context if one came with it.
pub(crate) type QueuedDelivery = (NodeId, ByzMsg<u64>, Option<TraceCtx>);

type Event = NodeEvent<u64>;

/// Everything an endpoint knows about the instance it is running; an
/// endpoint that outlives it replaces this whole. Times are [`Duration`]s
/// since an origin the driver picks.
pub(crate) struct RunState {
    me: NodeId,
    n: usize,
    pub(crate) depth: usize,
    /// What rules on this node's sends, and on a mesh endpoint also the
    /// delay of what it receives.
    pub(crate) chaos: LinkChaos,
    round_timeout: Duration,
    /// The open round; `depth` once the last one has closed.
    pub(crate) round: usize,
    pub(crate) started: bool,
    mark_due: bool,
    pub(crate) deadline: Duration,
    /// Ready envelopes, in arrival order.
    pub(crate) deliver_queue: VecDeque<QueuedDelivery>,
    /// Envelopes gated until `round` reaches their effective round.
    future: BTreeMap<usize, VecDeque<QueuedDelivery>>,
    /// Trace context of the most recently surfaced delivery.
    pub(crate) last_trace: Option<TraceCtx>,
    /// Peers heard finishing each round, for rounds not closed when the
    /// mark arrived.
    pub(crate) marks: BTreeMap<usize, BTreeSet<NodeId>>,
    pub(crate) stats: TransportStats,
}

impl RunState {
    /// Node `me` of `n` for `depth + 1` rounds; a round that has not closed
    /// on marks `round_timeout` after it opened closes at the deadline.
    pub(crate) fn new(
        me: NodeId,
        n: usize,
        depth: usize,
        chaos: LinkChaos,
        round_timeout: Duration,
    ) -> Self {
        RunState {
            me,
            n,
            depth,
            chaos,
            round_timeout,
            round: 0,
            started: false,
            mark_due: false,
            deadline: Duration::ZERO,
            deliver_queue: VecDeque::new(),
            future: BTreeMap::new(),
            last_trace: None,
            marks: BTreeMap::new(),
            stats: TransportStats::default(),
        }
    }

    /// Opens round 0 at `now`: an instance's first event.
    pub(crate) fn start(&mut self, now: Duration) -> Event {
        (self.started, self.mark_due) = (true, true);
        self.deadline = now.saturating_add(self.round_timeout);
        NodeEvent::Timeout { round: 0 }
    }

    /// The round whose mark is due, once per opened round: the first ask
    /// after a `Timeout` comes once the driver has sent the round's
    /// envelopes.
    pub(crate) fn take_mark_due(&mut self) -> Option<usize> {
        let due = std::mem::take(&mut self.mark_due) && self.round < self.depth;
        due.then_some(self.round)
    }

    /// Books one send to `to` and rules on it: how many copies go out and
    /// how many rounds late, or `None`. After the last round has closed the
    /// receiver would count the envelope lost, so it is counted here and
    /// never sent: a node's last mark is the last frame of its instance.
    pub(crate) fn send(&mut self, to: NodeId, path: &Path) -> Option<(usize, usize)> {
        let s = &mut self.stats;
        s.sent += 1;
        if self.round >= self.depth {
            s.lost += 1;
            return None;
        }
        match self.chaos.disposition(self.round, self.me, to, path) {
            Disposition::Dropped(cause) => {
                match cause {
                    DropCause::Cut => s.dropped_cut += 1,
                    DropCause::Loss => s.dropped_loss += 1,
                    DropCause::Corrupt => s.dropped_corrupt += 1,
                }
                None
            }
            Disposition::Deliver {
                copies,
                delay_rounds,
            } => {
                s.delayed += u64::from(delay_rounds > 0);
                s.duplicated += copies as u64 - 1;
                Some((copies, delay_rounds))
            }
        }
    }

    /// Whether `peer`'s mark for `round` has arrived.
    pub(crate) fn heard(&self, peer: NodeId, round: usize) -> bool {
        self.marks.get(&round).is_some_and(|m| m.contains(&peer))
    }

    /// Files `peer`'s mark for `round`. Only a round still to close can use
    /// one, so that is all that is kept: `depth` rounds of at most `n − 1`
    /// peers, whatever round numbers a peer makes up.
    pub(crate) fn mark(&mut self, peer: NodeId, round: usize) {
        if (self.round..self.depth).contains(&round) {
            self.marks.entry(round).or_default().insert(peer);
        }
    }

    /// Files an envelope its sender's verdict delays `delay` rounds. A level-k envelope is sent while round k − 1 closes,
    /// so one of round `s` goes to the machine during round `s + delay`
    /// (folding at the next close, late if `delay > 0`) and waits here till
    /// then — which also holds back a peer a round ahead, whose envelopes
    /// the machine would discard as from the future.
    pub(crate) fn file(&mut self, envelope: QueuedDelivery, delay: usize) {
        let effective = envelope.1.path.len().saturating_sub(1) + delay;
        if effective + 1 > self.depth {
            // Would fold at a round past the end of the run.
            self.stats.lost += 1;
        } else if effective <= self.round {
            self.deliver_queue.push_back(envelope);
        } else {
            self.future
                .entry(effective)
                .or_default()
                .push_back(envelope);
        }
    }

    /// Files one frame off a mesh link, whose `src` is the link's peer. An
    /// envelope's delay comes from the endpoint's keyed plan, the pure
    /// function its sender ruled by; one the sender would have dropped
    /// reads as absent.
    pub(crate) fn ingest(&mut self, f: Frame) {
        match f {
            Frame::Mark { src, round } => self.mark(src, round),
            Frame::Envelope { src, msg, trace } => {
                let sent = msg.path.len().saturating_sub(1);
                let verdict = self.chaos.disposition(sent, src, self.me, &msg.path);
                if let Disposition::Deliver { delay_rounds, .. } = verdict {
                    self.file((src, msg, trace), delay_rounds);
                }
            }
        }
    }

    /// The next event at `now`: a ready envelope first, else the close of
    /// the open round once every peer's mark for it is in — `gone` peers
    /// send none and are not waited for — or `now` has reached its
    /// deadline, which declares each live peer not heard silent, dead or
    /// merely slow: a false timeout. `None` while the round is open, and
    /// once the last one has closed.
    pub(crate) fn next(&mut self, now: Duration, gone: &BTreeSet<NodeId>) -> Option<Event> {
        if self.round == self.depth {
            return None;
        }
        if let Some((src, msg, trace)) = self.deliver_queue.pop_front() {
            self.stats.delivered += 1;
            self.last_trace = trace;
            return Some(NodeEvent::Deliver { src, msg });
        }
        let heard = self.marks.get(&self.round).map_or(0, BTreeSet::len);
        let gone = gone.iter().filter(|&&p| !self.heard(p, self.round)).count();
        let unheard = (self.n - 1).saturating_sub(heard + gone);
        if unheard > 0 && now < self.deadline {
            return None;
        }
        self.stats.false_timeouts += unheard as u64;
        (self.round, self.mark_due) = (self.round + 1, true);
        self.deadline = now.saturating_add(self.round_timeout);
        while let Some(gated) = self.future.first_entry().filter(|e| *e.key() <= self.round) {
            self.deliver_queue.extend(gated.remove());
        }
        Some(NodeEvent::Timeout { round: self.round })
    }

    /// Every round closed on marks, and nothing is left to hand over.
    pub(crate) fn ended_clean(&self) -> bool {
        self.round == self.depth
            && self.stats.false_timeouts == 0
            && self.deliver_queue.is_empty()
            && self.future.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use degradable::AgreementValue;

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    const TIMEOUT: Duration = Duration::from_millis(10);

    fn ms(t: u64) -> Duration {
        Duration::from_millis(t)
    }

    /// Node 0 of `n`, `depth` deep, healthy links, round 0 opened at 0 ms.
    fn started(n: usize, depth: usize) -> RunState {
        let mut run = RunState::new(nid(0), n, depth, LinkChaos::healthy(), TIMEOUT);
        assert_eq!(run.start(ms(0)), NodeEvent::Timeout { round: 0 });
        run
    }

    fn envelope(path: Path) -> ByzMsg<u64> {
        ByzMsg {
            path,
            value: AgreementValue::Value(4),
        }
    }

    const NONE_GONE: &BTreeSet<NodeId> = &BTreeSet::new();

    #[test]
    fn the_deadline_closes_a_round_and_counts_the_unheard_live_peers() {
        let mut run = started(5, 2);
        run.mark(nid(1), 0);
        assert_eq!(run.next(ms(9), NONE_GONE), None, "before the deadline");
        assert_eq!(
            run.next(ms(10), NONE_GONE),
            Some(NodeEvent::Timeout { round: 1 })
        );
        assert_eq!(
            run.stats.false_timeouts, 3,
            "peers 2, 3 and 4 were not heard"
        );
        // The next round's deadline runs from the close.
        run.mark(nid(1), 1);
        run.mark(nid(2), 1);
        assert_eq!(run.next(ms(19), NONE_GONE), None);
        assert_eq!(
            run.next(ms(25), NONE_GONE),
            Some(NodeEvent::Timeout { round: 2 })
        );
        assert_eq!(run.stats.false_timeouts, 5);
        assert_eq!(
            run.next(ms(99), NONE_GONE),
            None,
            "the last round has closed"
        );
        assert!(!run.ended_clean());
    }

    #[test]
    fn gone_peers_are_never_counted_and_never_waited_for() {
        let gone: BTreeSet<NodeId> = [nid(3), nid(4)].into_iter().collect();
        let mut run = started(5, 2);
        run.mark(nid(1), 0);
        run.mark(nid(2), 0);
        assert_eq!(
            run.next(ms(1), &gone),
            Some(NodeEvent::Timeout { round: 1 })
        );
        // A gone peer's mark that did arrive counts once, as heard.
        run.mark(nid(1), 1);
        run.mark(nid(3), 1);
        assert_eq!(run.next(ms(2), &gone), None, "peer 2 is live and unheard");
        assert_eq!(
            run.next(ms(11), &gone),
            Some(NodeEvent::Timeout { round: 2 })
        );
        assert_eq!(run.stats.false_timeouts, 1, "peer 2 alone");
    }

    #[test]
    fn a_round_closes_on_the_last_mark_before_the_deadline() {
        let mut run = started(4, 2);
        run.mark(nid(1), 0);
        run.mark(nid(3), 0);
        assert_eq!(run.next(ms(3), NONE_GONE), None);
        run.mark(nid(2), 0);
        assert_eq!(
            run.next(ms(3), NONE_GONE),
            Some(NodeEvent::Timeout { round: 1 })
        );
        assert_eq!(run.deadline, ms(13));
        for peer in 1..4 {
            run.mark(nid(peer), 1);
        }
        assert_eq!(
            run.next(ms(4), NONE_GONE),
            Some(NodeEvent::Timeout { round: 2 })
        );
        assert_eq!(run.stats.false_timeouts, 0);
        assert!(run.ended_clean());
    }

    #[test]
    fn a_mark_for_a_round_already_closed_is_not_kept() {
        let mut run = started(4, 2);
        for peer in 1..4 {
            run.mark(nid(peer), 0);
        }
        assert_eq!(
            run.next(ms(0), NONE_GONE),
            Some(NodeEvent::Timeout { round: 1 })
        );
        run.marks.clear();
        run.mark(nid(1), 0);
        run.mark(nid(1), 2);
        run.mark(nid(1), usize::MAX);
        assert!(run.marks.is_empty(), "{:?}", run.marks);
        run.mark(nid(1), 1);
        assert!(run.heard(nid(1), 1));
    }

    #[test]
    fn a_reordered_envelope_waits_until_its_effective_round() {
        let mut run = started(4, 2);
        let root = Path::root(nid(1));
        // Sent in round 0, one round late: handed over during round 1.
        run.file((nid(1), envelope(root.clone()), None), 1);
        assert_eq!(run.next(ms(0), NONE_GONE), None);
        for peer in 1..4 {
            run.mark(nid(peer), 0);
        }
        assert_eq!(
            run.next(ms(0), NONE_GONE),
            Some(NodeEvent::Timeout { round: 1 })
        );
        let delivered = run.next(ms(0), NONE_GONE);
        assert_eq!(
            delivered,
            Some(NodeEvent::Deliver {
                src: nid(1),
                msg: envelope(root.clone())
            })
        );
        // Two rounds late it would fold past the end of the run.
        run.file((nid(1), envelope(root), None), 2);
        assert_eq!(run.stats.lost, 1);
        assert_eq!(run.stats.delivered, 1);
    }

    #[test]
    fn a_send_is_booked_once_and_none_leaves_after_the_last_round() {
        let mut run = started(4, 1);
        let root = Path::root(nid(0));
        assert_eq!(run.send(nid(1), &root), Some((1, 0)));
        assert_eq!(run.take_mark_due(), Some(0));
        assert_eq!(run.take_mark_due(), None, "one mark per round");
        for peer in 1..4 {
            run.mark(nid(peer), 0);
        }
        assert_eq!(
            run.next(ms(0), NONE_GONE),
            Some(NodeEvent::Timeout { round: 1 })
        );
        assert_eq!(run.take_mark_due(), None, "no round left to mark");
        assert_eq!(run.send(nid(1), &root), None);
        assert_eq!((run.stats.sent, run.stats.lost), (2, 1));
    }
}
