//! Event-driven synchronous round engine.
//!
//! The engine implements the paper's system model:
//!
//! * execution proceeds in numbered rounds, but the rounds are *emergent*:
//!   the engine drains a deterministic event queue ([`crate::sched`]) of
//!   per-node round-timeout timers and reorder-held message copies, and a
//!   node executes round `r` when its round-`r` timer fires;
//! * a message sent in round `r` is delivered at the start of round `r+1`
//!   (if it survives faults, links and the deadline);
//! * a receiver can *detect absence*: when its timer fires, its inbox
//!   simply lacks an entry from the silent sender, and [`RoundCtx::from`]
//!   returns `None` — absence detection is a timeout, not an oracle;
//! * the source of every delivered message is authentic ([`RoundCtx`]
//!   stamps the true sender; processes cannot forge the `src` field —
//!   matching the paper's "oral messages" assumption (c)).
//!
//! Virtual time is quantised: round `r` occupies `[r*(deadline+1),
//! (r+1)*(deadline+1))`, so a sampled latency within the deadline lands the
//! message before the receiver's next timer and a latency beyond it misses
//! the round entirely (read as absent — the late message is discarded at
//! the boundary, never delivered stale). Delivery events sort before
//! timers at equal time, so an arrival *exactly at* the timeout boundary
//! is present, not absent.
//!
//! An on-time message never enters the queue. Every one of them would be
//! scheduled at the same key prefix `((r+1)·quantum, Deliver)`, so the
//! queue would pop them in `seq` order — the order they were sent — ahead
//! of every round-`r+1` timer, and land each in its receiver's buffer.
//! Pushing the message straight into the receiver's next-round buffer at
//! send time builds exactly that sequence with no heap entry, no key
//! comparison and no payload copy. Only reorder-held copies, whose arrival
//! round differs per message, still need the queue's ordering. Nor is
//! there an outbox: [`RoundCtx::send`] takes the message through node
//! faults, topology, link chaos and the deadline on the spot — a node's
//! sends meet the network in the order they are made, which is the order
//! they were always processed in.
//!
//! The engine keeps one record of a run: the [`Outcome`], one counter per
//! fate a message can meet. A message sent is dropped under exactly one
//! cause, or lands and is booked as delivered once per copy when it
//! reaches a receiver's buffer; DESIGN §5b states the conservation law
//! these counters obey, and the copies it leaves uncounted.

use crate::fault::{FaultPlan, FaultSchedule};
use crate::id::NodeId;
use crate::latency::LatencyModel;
use crate::linkfault::{LinkFaultKind, LinkFaultPlan, LinkFaultTable};
use crate::rng::SimRng;
use crate::sched::{EventClass, EventQueue, SimTime};
use crate::topology::Topology;

/// Protocol-supplied mutator applied to messages hit by
/// [`LinkFaultKind::Corrupt`]. Returning `Some` delivers the garbled
/// payload; returning `None` drops the message (absence — the engine's
/// default when no corruptor is installed, matching the oral-message axiom
/// that detectably damaged messages read as absent).
pub type Corruptor<M> = Box<dyn FnMut(&M, &mut SimRng) -> Option<M>>;

/// Stream label for the dedicated link-chaos RNG fork: chaos draws must not
/// perturb the engine's main stream (latency, omission), so existing seeded
/// runs stay bit-identical when no link faults are configured.
const LINK_CHAOS_STREAM: u64 = 0x4C49_4E4B;

/// Payload of a scheduled engine event: a reorder-held message copy or a
/// per-node round timer.
enum EngineEvent<M> {
    /// A copy held back by [`LinkFaultKind::Reorder`] arriving at `dst`.
    /// It is booked as delivered when it lands, not when it was sent — a
    /// copy still held when the run ends is never booked.
    Held {
        dst: NodeId,
        src: NodeId,
        payload: M,
    },
    /// Node `node`'s round-`round` timeout fires: whatever has not arrived
    /// by now is absent for this round.
    Timer { node: usize, round: usize },
}

/// Per-node, per-round context handed to process logic.
pub struct RoundCtx<'a, M> {
    n: usize,
    inbox: Vec<(NodeId, M)>,
    peers: &'a [NodeId],
    wire: &'a mut Wire<M>,
}

impl<M: std::fmt::Debug> std::fmt::Debug for RoundCtx<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundCtx")
            .field("me", &self.wire.src)
            .field("round", &self.wire.round)
            .field("n", &self.n)
            .field("inbox", &self.inbox)
            .field("peers", &self.peers)
            .finish_non_exhaustive()
    }
}

impl<'a, M: Clone> RoundCtx<'a, M> {
    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.wire.src
    }

    /// The current round number (0-based).
    pub fn round(&self) -> usize {
        self.wire.round
    }

    /// Total number of nodes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Ids of this node's direct neighbours, ascending. Borrowed from the
    /// engine — this is called in the per-round hot path, so it must not
    /// allocate.
    pub fn peers(&self) -> &[NodeId] {
        self.peers
    }

    /// Messages delivered at the start of this round, as `(src, payload)`
    /// sorted by source id (stable for determinism). Multiple messages from
    /// the same source are all present.
    pub fn inbox(&self) -> &[(NodeId, M)] {
        &self.inbox
    }

    /// Hands the inbox over by value, in the same order as
    /// [`RoundCtx::inbox`], leaving it empty: a process that keeps what it
    /// received takes the messages instead of cloning them.
    pub fn take_inbox(&mut self) -> std::vec::Drain<'_, (NodeId, M)> {
        self.inbox.drain(..)
    }

    /// First message from `src` this round, if any. `None` means the
    /// message is *detectably absent* (paper assumption (b)).
    pub fn from(&self, src: NodeId) -> Option<&M> {
        self.inbox.iter().find(|(s, _)| *s == src).map(|(_, m)| m)
    }

    /// Whether no message from `src` arrived this round.
    pub fn absent(&self, src: NodeId) -> bool {
        self.from(src).is_none()
    }

    /// Hands a message for `to` to the network: it meets its fate (node
    /// faults, topology, link chaos, deadline) here and now, and if it
    /// survives it is delivered next round.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.wire.carry(to, msg);
    }

    /// Sends `msg` to every direct neighbour.
    pub fn broadcast(&mut self, msg: M) {
        let peers = self.peers;
        for (&p, copy) in peers.iter().zip(std::iter::repeat_n(msg, peers.len())) {
            self.wire.carry(p, copy);
        }
    }
}

/// Perf counters for the arena-backed EIG engine (`degradable::engine`).
///
/// Protocol adapters that fold their receive trees through the shared
/// arena engine attach these counters to [`Outcome::eig`] so experiment
/// reports can surface memoization effectiveness alongside the network
/// counters.
///
/// Equality deliberately **ignores the wall-time fields**
/// (`fill_nanos`, `resolve_nanos`): two runs that performed identical
/// work compare equal even though their timings differ, which keeps
/// `Outcome` comparisons bit-stable across machines and worker counts.
/// These two stamps are the one clock kept outside `benchmark/` (and the
/// mesh deadlines): the engine and the service stamp them, the ledger
/// reads them for its fill/resolve split, and no report prints them.
#[derive(Debug, Clone, Copy, Default)]
pub struct EigPerf {
    /// EIG nodes allocated in the shared arena (one per label σ, shared
    /// by all receivers).
    pub arena_nodes: u64,
    /// VOTE applications actually computed during bottom-up resolution.
    pub votes_evaluated: u64,
    /// VOTE applications answered from a memoized uniform-subtree
    /// summary instead of being recomputed per receiver.
    pub votes_memo_hit: u64,
    /// Tree slots materialized from relay envelopes (first writes only;
    /// duplicates are folded idempotently and not counted).
    pub messages_materialized: u64,
    /// Wall time of the breadth-first fill phase, in nanoseconds.
    /// Ignored by `==`.
    pub fill_nanos: u64,
    /// Wall time of the bottom-up resolution phase, in nanoseconds.
    /// Ignored by `==`.
    pub resolve_nanos: u64,
}

impl PartialEq for EigPerf {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: adding a counter to EigPerf without
        // deciding whether it participates in equality is a compile
        // error here.
        let EigPerf {
            arena_nodes,
            votes_evaluated,
            votes_memo_hit,
            messages_materialized,
            fill_nanos: _,
            resolve_nanos: _,
        } = *self;
        let EigPerf {
            arena_nodes: o_arena_nodes,
            votes_evaluated: o_votes_evaluated,
            votes_memo_hit: o_votes_memo_hit,
            messages_materialized: o_messages_materialized,
            fill_nanos: _,
            resolve_nanos: _,
        } = *other;
        arena_nodes == o_arena_nodes
            && votes_evaluated == o_votes_evaluated
            && votes_memo_hit == o_votes_memo_hit
            && messages_materialized == o_messages_materialized
    }
}

impl Eq for EigPerf {}

impl EigPerf {
    /// Deterministic counters only (everything `==` compares), in a
    /// stable order: arena nodes, votes evaluated, votes memo-hit,
    /// messages materialized. Handy for reports that must stay
    /// bit-identical across worker counts.
    pub fn deterministic_counters(&self) -> [u64; 4] {
        [
            self.arena_nodes,
            self.votes_evaluated,
            self.votes_memo_hit,
            self.messages_materialized,
        ]
    }

    /// Folds the deterministic counters into an observability registry
    /// under the canonical `eig.*` names — the compat shim that lets
    /// report schema v4 re-express `EigPerf` as registry counters.
    pub fn fold_into(&self, registry: &mut obs::Registry) {
        registry.add("eig.arena_nodes", self.arena_nodes);
        registry.add("eig.votes_evaluated", self.votes_evaluated);
        registry.add("eig.votes_memo_hit", self.votes_memo_hit);
        registry.add("eig.messages_materialized", self.messages_materialized);
    }

    /// Accumulate another run's counters into this one (timings add
    /// too, so aggregated wall times stay meaningful).
    pub fn absorb(&mut self, other: &EigPerf) {
        self.arena_nodes += other.arena_nodes;
        self.votes_evaluated += other.votes_evaluated;
        self.votes_memo_hit += other.votes_memo_hit;
        self.messages_materialized += other.messages_materialized;
        self.fill_nanos += other.fill_nanos;
        self.resolve_nanos += other.resolve_nanos;
    }
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Rounds executed.
    pub rounds_run: usize,
    /// Messages handed to the engine by processes.
    pub sent: usize,
    /// Messages delivered before the deadline.
    pub delivered: usize,
    /// Messages dropped by crash faults.
    pub dropped_crash: usize,
    /// Messages dropped by omission faults.
    pub dropped_omission: usize,
    /// Messages that arrived after the deadline (absent to the receiver).
    pub late: usize,
    /// Messages discarded for lack of a topology link.
    pub no_link: usize,
    /// Messages dropped by a link cut.
    pub dropped_link_cut: usize,
    /// Messages lost to probabilistic link loss.
    pub dropped_link_loss: usize,
    /// Extra copies injected by link duplication.
    pub duplicated: usize,
    /// Messages delayed at least one extra round by link reordering.
    pub reordered: usize,
    /// Messages garbled in flight but still delivered (corruptor produced a
    /// mutated payload).
    pub corrupted: usize,
    /// Messages garbled in flight and discarded (no corruptor, or the
    /// corruptor mapped them to absence).
    pub dropped_corrupt: usize,
    /// Arena-backed EIG evaluation counters, populated by protocol
    /// adapters that resolve their receive trees through the shared
    /// engine (zeroed for runs that never fold an EIG tree). Wall-time
    /// fields do not participate in `Outcome` equality.
    pub eig: EigPerf,
}

impl Outcome {
    /// Total chaos-layer injections (cuts, losses, duplicates, reorders and
    /// corruptions) — the per-trial injected-fault count experiments report.
    pub fn link_fault_injections(&self) -> usize {
        self.dropped_link_cut
            + self.dropped_link_loss
            + self.duplicated
            + self.reordered
            + self.corrupted
            + self.dropped_corrupt
    }
}

/// The network between the processes: everything that decides what becomes
/// of one message between [`RoundCtx::send`] and a receiver's inbox.
///
/// The buffers belong to the engine rather than to one run, so an engine
/// driven repeatedly ([`RoundEngine::reseed`]) keeps their capacity: after
/// the first run a fill allocates nothing and touches no fresh pages.
struct Wire<M> {
    rng: SimRng,
    /// Chaos draws come from a dedicated fork of `rng`, taken at the start
    /// of each run: configurations without link faults replay the exact
    /// pre-chaos main stream (latency, omission), keeping historical
    /// seeded runs bit-identical.
    link_rng: SimRng,
    /// The link-fault plan, laid out for the per-message path: built once,
    /// in [`RoundEngine::with_link_faults`].
    link_table: LinkFaultTable,
    corruptor: Option<Corruptor<M>>,
    latency: LatencyModel,
    deadline: u64,
    /// `linked[a][b]`: the topology has the edge `a`–`b`. One indexed load
    /// per message instead of an ordered-set lookup.
    linked: Vec<Vec<bool>>,
    /// Timers and reorder-held copies.
    queue: EventQueue<EngineEvent<M>>,
    /// `arriving[d]`: on-time messages `d` receives in the round in
    /// progress, already in inbox order.
    arriving: Vec<Vec<(NodeId, M)>>,
    /// `next[d]`: on-time messages sent to `d` during the round in
    /// progress; becomes `arriving[d]` at the next boundary. Timers fire
    /// in ascending node id and a node's sends are carried in order, so it
    /// is built already sorted by source, ties in send order — the
    /// paper-visible inbox order.
    next: Vec<Vec<(NodeId, M)>>,
    /// `held[d]`: reorder-held copies popped at the current boundary.
    held: Vec<Vec<(NodeId, M)>>,
    /// Counters of the run in progress.
    outcome: Outcome,
    /// The timer in progress: who is sending, when, and what the active
    /// fault plan says about that sender — the same for every message of
    /// the timer.
    src: NodeId,
    round: usize,
    crashed: bool,
    omission_p: f64,
    extra_delay: u64,
    /// Nothing configured can touch a message of this timer: no node fault
    /// on the sender, no link fault on any of its outgoing edges, and a
    /// run with zero latency and no deadline. Decided once per
    /// timer; past the topology check [`Wire::carry`] lands such a
    /// message without looking at the link table, the latency model or the
    /// deadline.
    clean: bool,
}

impl<M: Clone> Wire<M> {
    /// Round `r` occupies virtual time `[r*quantum, (r+1)*quantum)`: any
    /// within-deadline latency lands on or before the receiver's next
    /// timer boundary.
    fn boundary(&self, round: usize) -> SimTime {
        round as SimTime * SimTime::from(self.deadline).saturating_add(1)
    }

    /// Whether this configuration applies nothing to a message beyond node
    /// faults, the topology and link faults: the run-wide half of
    /// [`Wire::clean`].
    fn quiet(&self) -> bool {
        self.latency == LatencyModel::Zero && self.deadline == u64::MAX
    }

    /// Decides the fate of one message from the node whose timer is in
    /// progress.
    fn carry(&mut self, dst: NodeId, mut payload: M) {
        let (src, round) = (self.src, self.round);
        self.outcome.sent += 1;
        if self.crashed {
            self.outcome.dropped_crash += 1;
            return;
        }
        if self.omission_p > 0.0 && self.rng.chance(self.omission_p) {
            self.outcome.dropped_omission += 1;
            return;
        }
        if self.linked[src.index()].get(dst.index()) != Some(&true) {
            self.outcome.no_link += 1;
            return;
        }
        if self.clean {
            // No kind on any of this sender's edges, zero latency against
            // no deadline: nothing below can touch the message, and
            // neither stream is drawn from (an absent fault draws nothing
            // below either).
            return self.land(dst, 0, payload);
        }
        // Link chaos: each configured kind on this directed edge acts in
        // insertion order, drawing only from the dedicated chaos stream.
        let mut duplicate = false;
        let mut extra_rounds = 0usize;
        for &kind in self.link_table.kinds(src, dst) {
            match kind {
                LinkFaultKind::Cut { from_round } => {
                    if round >= from_round {
                        self.outcome.dropped_link_cut += 1;
                        return;
                    }
                }
                LinkFaultKind::Drop { p } => {
                    if p > 0.0 && self.link_rng.chance(p) {
                        self.outcome.dropped_link_loss += 1;
                        return;
                    }
                }
                LinkFaultKind::Corrupt { p } => {
                    if p > 0.0 && self.link_rng.chance(p) {
                        let garbled = self
                            .corruptor
                            .as_mut()
                            .and_then(|c| c(&payload, &mut self.link_rng));
                        match garbled {
                            Some(g) => {
                                payload = g;
                                self.outcome.corrupted += 1;
                            }
                            None => {
                                self.outcome.dropped_corrupt += 1;
                                return;
                            }
                        }
                    }
                }
                LinkFaultKind::Duplicate { p } => {
                    if p > 0.0 && !duplicate && self.link_rng.chance(p) {
                        duplicate = true;
                        self.outcome.duplicated += 1;
                    }
                }
                LinkFaultKind::Reorder { window } => {
                    if window > 0 && extra_rounds == 0 {
                        let d = self.link_rng.below(window as u64 + 1) as usize;
                        if d > 0 {
                            extra_rounds = d;
                            self.outcome.reordered += 1;
                        }
                    }
                }
            }
        }
        if self.latency.sample(&mut self.rng) + self.extra_delay > self.deadline {
            self.outcome.late += 1;
            return;
        }
        if duplicate {
            self.land(dst, extra_rounds, payload.clone());
        }
        self.land(dst, extra_rounds, payload);
    }

    /// Puts one surviving copy on its way to `dst`.
    fn land(&mut self, dst: NodeId, extra_rounds: usize, payload: M) {
        let (src, round) = (self.src, self.round);
        if extra_rounds > 0 {
            // Delivery shifts from round+1 to round+1+extra_rounds; events
            // scheduled past the final timer are never popped — messages
            // still in flight when the run ends are lost.
            let at = self.boundary(round + 1 + extra_rounds);
            let held = EngineEvent::Held { dst, src, payload };
            self.queue.schedule(at, EventClass::Deliver, held);
            return;
        }
        // On time: booked now and put straight into the receiver's
        // next-round buffer (see the module docs for why this is the
        // queue's pop order).
        self.outcome.delivered += 1;
        self.next[dst.index()].push((src, payload));
    }
}

/// The synchronous round engine.
///
/// ```
/// use simnet::prelude::*;
///
/// let mut engine = RoundEngine::<u32>::new(Topology::complete(3), 1);
/// let outcome = engine.run(1, |ctx| {
///     ctx.broadcast(ctx.me().index() as u32);
/// });
/// assert_eq!(outcome.sent, 6); // 3 nodes x 2 peers
/// ```
pub struct RoundEngine<M> {
    topo: Topology,
    /// `peers[i]`: node `i`'s neighbours, ascending.
    peers: Vec<Vec<NodeId>>,
    faults: FaultPlan,
    schedule: Option<FaultSchedule>,
    wire: Wire<M>,
}

impl<M> std::fmt::Debug for RoundEngine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundEngine")
            .field("topo", &self.topo)
            .field("faults", &self.faults)
            .field("schedule", &self.schedule)
            .field("link_faults", &self.wire.link_table)
            .field("corruptor", &self.wire.corruptor.as_ref().map(|_| "<fn>"))
            .field("latency", &self.wire.latency)
            .field("deadline", &self.wire.deadline)
            .finish_non_exhaustive()
    }
}

impl<M: Clone> RoundEngine<M> {
    /// Creates an engine over `topo` with the given seed, no faults, zero
    /// latency and an infinite deadline.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let n = topo.node_count();
        let peers: Vec<Vec<NodeId>> = (0..n)
            .map(|i| topo.graph().neighbors(NodeId::new(i)).collect())
            .collect();
        let mut linked = vec![vec![false; n]; n];
        for (row, row_peers) in linked.iter_mut().zip(&peers) {
            for p in row_peers {
                row[p.index()] = true;
            }
        }
        let per_node = || (0..n).map(|_| Vec::new()).collect();
        let rng = SimRng::seed(seed);
        RoundEngine {
            topo,
            peers,
            faults: FaultPlan::healthy(),
            schedule: None,
            wire: Wire {
                link_rng: rng.fork(LINK_CHAOS_STREAM),
                rng,
                link_table: LinkFaultTable::default(),
                corruptor: None,
                latency: LatencyModel::Zero,
                deadline: u64::MAX,
                linked,
                queue: EventQueue::new(),
                arriving: per_node(),
                next: per_node(),
                held: per_node(),
                outcome: Outcome::default(),
                src: NodeId::new(0),
                round: 0,
                crashed: false,
                omission_p: 0.0,
                extra_delay: 0,
                clean: false,
            },
        }
    }

    /// Restarts the engine's random stream from `seed`, as
    /// [`RoundEngine::new`] would: the next run is the run a fresh engine
    /// with this configuration and seed performs, on buffers that are
    /// already warm.
    pub fn reseed(&mut self, seed: u64) {
        self.wire.rng = SimRng::seed(seed);
    }

    /// Sets the fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets a time-varying fault schedule (overrides the static plan).
    #[must_use]
    pub fn with_fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Sets the link-fault (chaos) plan. Link faults apply after node
    /// faults and the topology check, drawing randomness from a dedicated
    /// fork of the engine seed so runs without link faults are unaffected.
    #[must_use]
    pub fn with_link_faults(mut self, link_faults: LinkFaultPlan) -> Self {
        self.wire.link_table = LinkFaultTable::new(&link_faults, self.topo.node_count());
        self
    }

    /// Installs the corruption mutator used by [`LinkFaultKind::Corrupt`].
    /// Without one, corrupted messages are dropped (read as absent).
    #[must_use]
    pub fn with_corruptor(
        mut self,
        corruptor: impl FnMut(&M, &mut SimRng) -> Option<M> + 'static,
    ) -> Self {
        self.wire.corruptor = Some(Box::new(corruptor));
        self
    }

    /// Sets the latency model.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.wire.latency = latency;
        self
    }

    /// Sets the round deadline: messages with sampled latency strictly
    /// greater than `deadline` are late (absent to the receiver).
    #[must_use]
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.wire.deadline = deadline;
        self
    }

    /// Runs `rounds` rounds where every node executes the same closure.
    pub fn run(&mut self, rounds: usize, mut step: impl FnMut(&mut RoundCtx<'_, M>)) -> Outcome {
        self.run_with(rounds, |_, ctx| step(ctx))
    }

    /// Core loop: `step(i, ctx)` is invoked for node `i` each round.
    pub fn run_with(
        &mut self,
        rounds: usize,
        mut step: impl FnMut(usize, &mut RoundCtx<'_, M>),
    ) -> Outcome {
        let n = self.topo.node_count();
        let wire = &mut self.wire;
        let quiet = wire.quiet();
        wire.outcome = Outcome::default();
        wire.link_rng = wire.rng.fork(LINK_CHAOS_STREAM);
        // Whatever a previous run left in flight is lost; the buffers keep
        // their allocations.
        wire.queue = EventQueue::new();
        for buffers in [&mut wire.arriving, &mut wire.next, &mut wire.held] {
            buffers.iter_mut().for_each(Vec::clear);
        }
        // Rounds are emergent from timers: every node gets one timeout per
        // round, scheduled in (round, node) order so equal-time timers pop
        // in ascending node id.
        for round in 0..rounds {
            for node in 0..n {
                wire.queue.schedule(
                    wire.boundary(round),
                    EventClass::Timer,
                    EngineEvent::Timer { node, round },
                );
            }
        }

        for round in 0..rounds {
            let boundary = wire.boundary(round);
            let active: &FaultPlan = match &self.schedule {
                Some(s) => s.active(round),
                None => &self.faults,
            };
            std::mem::swap(&mut wire.arriving, &mut wire.next);
            // Drain every event at this round's boundary. Held copies pop
            // before timers (a message arriving exactly at the timeout is
            // present), timers pop in node-id order, and each fired timer
            // may schedule held copies for strictly later boundaries.
            while wire.queue.peek_time() == Some(boundary) {
                let event = wire.queue.pop().expect("peeked event exists");
                let i = match event.payload {
                    EngineEvent::Held { dst, src, payload } => {
                        wire.outcome.delivered += 1;
                        wire.held[dst.index()].push((src, payload));
                        continue;
                    }
                    EngineEvent::Timer { node, round: r } => {
                        debug_assert_eq!(r, round, "timer fired outside its round");
                        node
                    }
                };
                let me = NodeId::new(i);
                // Absence detection: whatever is not in the buffers when
                // this timer fires is absent for round `round`.
                let mut inbox = std::mem::take(&mut wire.arriving[i]);
                debug_assert!(inbox.is_sorted_by_key(|(s, _)| *s));
                if !wire.held[i].is_empty() {
                    // Held copies go after the on-time traffic of the same
                    // source: append, then a stable sort by source.
                    inbox.append(&mut wire.held[i]);
                    inbox.sort_by_key(|(s, _)| *s);
                }
                wire.src = me;
                wire.round = round;
                wire.crashed = active.crashed(me, round);
                wire.omission_p = active.omission_p(me);
                wire.extra_delay = active.extra_delay(me);
                wire.clean = quiet
                    && !wire.crashed
                    && wire.omission_p <= 0.0
                    && wire.extra_delay == 0
                    && !wire.link_table.touches(me);
                let mut ctx = RoundCtx {
                    n,
                    inbox,
                    peers: &self.peers[i],
                    wire,
                };
                step(i, &mut ctx);
                // The buffer goes back into circulation with its capacity:
                // it collects this node's mail again the round after next.
                let mut spent = ctx.inbox;
                spent.clear();
                wire.arriving[i] = spent;
            }
            wire.outcome.rounds_run += 1;
        }
        wire.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn broadcast_delivers_next_round() {
        let mut engine = RoundEngine::<u64>::new(Topology::complete(3), 1);
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); 3];
        engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 {
                ctx.broadcast(10 + i as u64);
            } else {
                seen[i] = ctx.inbox().iter().map(|(_, m)| *m).collect();
            }
        });
        assert_eq!(seen[0], vec![11, 12]);
        assert_eq!(seen[1], vec![10, 12]);
        assert_eq!(seen[2], vec![10, 11]);
    }

    #[test]
    fn crash_fault_silences_sender() {
        let faults = FaultPlan::healthy().with(n(0), FaultKind::Crash { from_round: 0 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(3), 1).with_faults(faults);
        let mut got_from_zero = false;
        let outcome = engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 {
                ctx.broadcast(1);
            } else if i != 0 && !ctx.absent(n(0)) {
                got_from_zero = true;
            }
        });
        assert!(!got_from_zero, "crashed node must be absent");
        assert_eq!(outcome.dropped_crash, 2);
    }

    #[test]
    fn absence_is_detectable() {
        let mut engine = RoundEngine::<u8>::new(Topology::complete(3), 1);
        let mut absent_seen = false;
        engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 && i != 1 {
                ctx.broadcast(7); // node 1 stays silent
            }
            if ctx.round() == 1 && i == 0 {
                absent_seen = ctx.absent(n(1)) && !ctx.absent(n(2));
            }
        });
        assert!(absent_seen);
    }

    #[test]
    fn messages_to_non_neighbors_are_discarded() {
        let mut engine = RoundEngine::<u8>::new(Topology::path(3), 1);
        let outcome = engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 && i == 0 {
                ctx.send(n(2), 5); // no 0-2 edge in a path
                ctx.send(n(1), 5);
            }
        });
        assert_eq!(outcome.no_link, 1);
        assert_eq!(outcome.delivered, 1);
    }

    #[test]
    fn deadline_makes_slow_messages_absent() {
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 3)
            .with_latency(LatencyModel::Fixed(10))
            .with_deadline(5);
        let mut delivered_any = false;
        let outcome = engine.run_with(2, |_, ctx| {
            if ctx.round() == 0 {
                ctx.broadcast(1);
            } else if !ctx.inbox().is_empty() {
                delivered_any = true;
            }
        });
        assert!(!delivered_any);
        assert_eq!(outcome.late, 2);
    }

    #[test]
    fn delay_fault_pushes_past_deadline() {
        let faults = FaultPlan::healthy().with(n(0), FaultKind::Delay { extra: 100 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 3)
            .with_faults(faults)
            .with_deadline(50);
        let outcome = engine.run_with(2, |_, ctx| {
            if ctx.round() == 0 {
                ctx.broadcast(1);
            }
        });
        assert_eq!(outcome.late, 1); // node 0's message
        assert_eq!(outcome.delivered, 1); // node 1's message
    }

    #[test]
    fn fault_schedule_bursts_and_recovers() {
        use crate::fault::FaultSchedule;
        // Node 0 crashes only during rounds 1..3.
        let schedule = FaultSchedule::healthy()
            .then_from(
                1,
                FaultPlan::healthy().with(n(0), FaultKind::Crash { from_round: 0 }),
            )
            .then_from(3, FaultPlan::healthy());
        let mut engine =
            RoundEngine::<u8>::new(Topology::complete(2), 1).with_fault_schedule(schedule);
        let mut heard_from_zero = [false; 5];
        engine.run_with(5, |i, ctx| {
            ctx.broadcast(1);
            if i == 1 && ctx.round() > 0 {
                heard_from_zero[ctx.round()] = !ctx.absent(n(0));
            }
        });
        // round r inbox reflects sends of round r-1: silent in 1..3.
        assert!(heard_from_zero[1]); // sent in round 0 (healthy)
        assert!(!heard_from_zero[2]); // sent in round 1 (crashed)
        assert!(!heard_from_zero[3]); // sent in round 2 (crashed)
        assert!(heard_from_zero[4]); // sent in round 3 (recovered)
    }

    /// A chaotic configuration that exercises every kind of engine state a
    /// run can leave behind: held copies in flight past the end, on-time
    /// sends of the final round, both random streams.
    fn chaotic_engine(seed: u64) -> RoundEngine<u64> {
        let links = LinkFaultPlan::uniform_complete(
            4,
            &[
                LinkFaultKind::Reorder { window: 2 },
                LinkFaultKind::Duplicate { p: 0.3 },
            ],
        );
        RoundEngine::<u64>::new(Topology::complete(4), seed)
            .with_link_faults(links)
            .with_latency(LatencyModel::Uniform { lo: 0, hi: 9 })
            .with_deadline(7)
    }

    /// Every inbox in timer order, and the outcome of one run.
    type Observed = (Vec<Vec<(NodeId, u64)>>, Outcome);

    /// Runs `rounds` rounds of all-to-all chatter.
    fn chatter(engine: &mut RoundEngine<u64>, rounds: usize) -> Observed {
        let mut seen = Vec::new();
        let outcome = engine.run_with(rounds, |i, ctx| {
            seen.push(ctx.inbox().to_vec());
            ctx.broadcast((ctx.round() * 10 + i) as u64);
        });
        (seen, outcome)
    }

    #[test]
    fn static_plan_equals_its_one_segment_schedule() {
        let plan = FaultPlan::healthy()
            .with(n(0), FaultKind::Crash { from_round: 2 })
            .with(n(1), FaultKind::Omission { p: 0.4 })
            .with(n(2), FaultKind::Delay { extra: 3 });
        let mut fixed = chaotic_engine(11).with_faults(plan.clone());
        let mut scheduled = chaotic_engine(11).with_fault_schedule(FaultSchedule::constant(plan));
        let (a, b) = (chatter(&mut fixed, 5), chatter(&mut scheduled, 5));
        assert!(a.1.dropped_crash > 0 && a.1.dropped_omission > 0 && a.1.late > 0);
        assert_eq!(a, b);
    }

    #[test]
    fn reseeded_engine_replays_a_fresh_engine() {
        // The first run ends with held copies still queued and final-round
        // sends still buffered; none of it may leak into the second.
        let mut reused = chaotic_engine(3);
        let first = chatter(&mut reused, 3);
        assert!(first.1.reordered > 0, "seed-checked: copies were held");
        reused.reseed(5);
        assert_eq!(chatter(&mut reused, 4), chatter(&mut chaotic_engine(5), 4));
        reused.reseed(3);
        assert_eq!(chatter(&mut reused, 3), first);
    }

    #[test]
    fn identical_seeds_identical_outcomes() {
        let faults = FaultPlan::healthy().with(n(1), FaultKind::Omission { p: 0.5 });
        let run = |seed: u64| {
            let mut engine =
                RoundEngine::<u8>::new(Topology::complete(4), seed).with_faults(faults.clone());
            engine.run_with(3, |_, ctx| {
                ctx.broadcast(0);
            })
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).dropped_omission, 0); // at least one drop at p=0.5 over 9 msgs (seed-checked)
    }

    #[test]
    fn link_cut_drops_from_its_round() {
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Cut { from_round: 1 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1).with_link_faults(plan);
        let mut heard = [false; 3];
        let outcome = engine.run_with(3, |i, ctx| {
            ctx.broadcast(1);
            if i == 1 && ctx.round() > 0 {
                heard[ctx.round()] = !ctx.absent(n(0));
            }
        });
        assert!(heard[1], "round-0 send predates the cut");
        assert!(!heard[2], "round-1 send hits the cut");
        assert_eq!(outcome.dropped_link_cut, 2); // rounds 1 and 2
    }

    #[test]
    fn link_drop_is_one_directional() {
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Drop { p: 1.0 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1).with_link_faults(plan);
        let mut one_heard = false;
        let mut zero_heard = false;
        let outcome = engine.run_with(2, |i, ctx| {
            ctx.broadcast(1);
            if ctx.round() == 1 {
                if i == 1 {
                    one_heard = !ctx.absent(n(0));
                } else {
                    zero_heard = !ctx.absent(n(1));
                }
            }
        });
        assert!(!one_heard, "0->1 is fully lossy");
        assert!(zero_heard, "1->0 is healthy");
        assert_eq!(outcome.dropped_link_loss, 2);
    }

    #[test]
    fn link_duplicate_delivers_two_copies() {
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Duplicate { p: 1.0 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1).with_link_faults(plan);
        let mut copies = 0;
        let outcome = engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 && i == 0 {
                ctx.send(n(1), 7);
            }
            if ctx.round() == 1 && i == 1 {
                copies = ctx.inbox().iter().filter(|(s, _)| *s == n(0)).count();
            }
        });
        assert_eq!(copies, 2);
        assert_eq!(outcome.duplicated, 1);
        assert_eq!(outcome.delivered, 2);
        assert_eq!(outcome.sent, 1);
    }

    #[test]
    fn link_reorder_delays_delivery_by_window_rounds() {
        // window = 1 forces delay in {0, 1}; run enough messages that both
        // on-time and delayed deliveries occur, and assert every message
        // arrives exactly once, in round +1 or +2.
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Reorder { window: 1 });
        let mut engine = RoundEngine::<u64>::new(Topology::complete(2), 5).with_link_faults(plan);
        let mut arrivals: Vec<(usize, u64)> = Vec::new(); // (arrival round, tag)
        let outcome = engine.run_with(8, |i, ctx| {
            if i == 0 && ctx.round() < 5 {
                ctx.send(n(1), ctx.round() as u64);
            }
            if i == 1 {
                for (_, tag) in ctx.inbox() {
                    arrivals.push((ctx.round(), *tag));
                }
            }
        });
        assert_eq!(arrivals.len(), 5, "every message arrives exactly once");
        for (arrived, tag) in &arrivals {
            let sent = *tag as usize;
            assert!(
                *arrived == sent + 1 || *arrived == sent + 2,
                "tag {tag} sent r{sent} arrived r{arrived}"
            );
        }
        assert!(outcome.reordered > 0, "seed-checked: some delay drawn");
        assert_eq!(outcome.delivered, 5);
    }

    #[test]
    fn corrupt_without_corruptor_reads_as_absence() {
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Corrupt { p: 1.0 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1).with_link_faults(plan);
        let mut heard = false;
        let outcome = engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 && i == 0 {
                ctx.send(n(1), 7);
            }
            if ctx.round() == 1 && i == 1 {
                heard = !ctx.absent(n(0));
            }
        });
        assert!(!heard, "corruption without a corruptor is absence");
        assert_eq!((outcome.dropped_corrupt, outcome.corrupted), (1, 0));
    }

    #[test]
    fn corruptor_mutates_payload_in_flight() {
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Corrupt { p: 1.0 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1)
            .with_link_faults(plan)
            .with_corruptor(|m: &u8, _rng: &mut SimRng| Some(m ^ 0xFF));
        let mut got = None;
        let outcome = engine.run_with(2, |i, ctx| {
            if ctx.round() == 0 && i == 0 {
                ctx.send(n(1), 7);
            }
            if ctx.round() == 1 && i == 1 {
                got = ctx.from(n(0)).copied();
            }
        });
        assert_eq!(got, Some(7 ^ 0xFF));
        assert_eq!(outcome.corrupted, 1);
        assert_eq!(outcome.dropped_corrupt, 0);
    }

    #[test]
    fn chaos_draws_leave_main_stream_untouched() {
        // A run with link faults on an *unused* edge direction must produce
        // the same omission/latency decisions as a run without any plan:
        // chaos randomness comes only from the dedicated fork.
        let faults = FaultPlan::healthy().with(n(1), FaultKind::Omission { p: 0.5 });
        let run = |plan: LinkFaultPlan| {
            let mut engine = RoundEngine::<u8>::new(Topology::complete(4), 9)
                .with_faults(faults.clone())
                .with_link_faults(plan);
            engine.run_with(3, |_, ctx| {
                ctx.broadcast(0);
            })
        };
        let clean = run(LinkFaultPlan::healthy());
        let chaotic =
            run(LinkFaultPlan::healthy().with(n(2), n(3), LinkFaultKind::Duplicate { p: 1.0 }));
        assert_eq!(clean.dropped_omission, chaotic.dropped_omission);
        assert!(chaotic.duplicated > 0);
    }

    /// The clean-sender shortcut of [`Wire::carry`] against the full
    /// pipeline. Stacking a never-firing `Drop { p: 0.0 }` on every edge is
    /// observationally inert — it draws nothing — and defeats the shortcut
    /// for every sender, so the two runs of a configuration
    /// must agree in everything a protocol can see — the [`Outcome`], every
    /// (round, node) inbox — and leave the main stream at the same
    /// position. The configurations mix senders the shortcut applies to
    /// with crashed, omitting, delayed and chaos-linked ones, on topologies
    /// with missing links, under static plans and schedules.
    #[test]
    fn clean_senders_are_carried_exactly_as_the_full_pipeline_carries_them() {
        use rand::RngCore;
        let mut shortcut_taken = 0;
        for config in 0..64u64 {
            let mut rng = SimRng::derive(0x00C1_EA11, config);
            let nodes = 3 + rng.below(5) as usize;
            let rounds = 2 + rng.below(4) as usize;
            let build = |rng: &mut SimRng, defeat_shortcut: bool| {
                let topo = match rng.below(4) {
                    0 => Topology::ring(nodes),
                    1 => Topology::star(nodes),
                    _ => Topology::complete(nodes),
                };
                let mut links = LinkFaultPlan::healthy();
                for _ in 0..rng.below(nodes as u64) {
                    let (from, to) = (rng.below(nodes as u64), rng.below(nodes as u64));
                    let kind = match rng.below(4) {
                        0 => LinkFaultKind::Cut { from_round: 1 },
                        1 => LinkFaultKind::Drop { p: 0.5 },
                        2 => LinkFaultKind::Duplicate { p: 0.5 },
                        _ => LinkFaultKind::Reorder { window: 2 },
                    };
                    if from != to {
                        links = links.with(n(from as usize), n(to as usize), kind);
                    }
                }
                if defeat_shortcut {
                    let inert = [LinkFaultKind::Drop { p: 0.0 }];
                    links = links.stacked_with(&LinkFaultPlan::uniform_complete(nodes, &inert));
                }
                let plan = |rng: &mut SimRng| {
                    let mut plan = FaultPlan::healthy();
                    let faulty = rng.below(3) as usize;
                    for node in rng.choose_indices(nodes, faulty) {
                        let kind = match rng.below(3) {
                            0 => FaultKind::Crash {
                                from_round: rng.below(rounds as u64) as usize,
                            },
                            1 => FaultKind::Omission { p: 0.4 },
                            _ => FaultKind::Delay { extra: 3 },
                        };
                        plan.insert(n(node), kind);
                    }
                    plan
                };
                let engine =
                    RoundEngine::<(u32, u32)>::new(topo, 77 + config).with_link_faults(links);
                let engine = if rng.below(3) == 0 {
                    let schedule = FaultSchedule::healthy().then_from(1, plan(rng));
                    engine.with_fault_schedule(schedule)
                } else {
                    engine.with_faults(plan(rng))
                };
                // One configuration in eight is not quiet: no sender of it
                // may take the shortcut, defeated or not.
                if rng.below(8) == 0 {
                    engine
                        .with_latency(LatencyModel::Uniform { lo: 0, hi: 6 })
                        .with_deadline(4)
                } else {
                    engine
                }
            };
            let run = |mut engine: RoundEngine<(u32, u32)>| {
                let mut script = rng.fork(7);
                let mut inboxes = Vec::new();
                let mut clean_timers = 0;
                let outcome = engine.run_with(rounds, |i, ctx| {
                    inboxes.push((ctx.round(), i, ctx.inbox().to_vec()));
                    clean_timers += usize::from(ctx.wire.clean);
                    ctx.broadcast((ctx.round() as u32, u32::MAX));
                    for k in 0..script.below(4) as u32 {
                        // Non-neighbours and nodes that do not exist too.
                        ctx.send(n(script.below(nodes as u64 + 1) as usize), (i as u32, k));
                    }
                });
                (outcome, inboxes, engine.wire.rng.next_u64(), clean_timers)
            };
            let as_is = run(build(&mut rng.fork(1), false));
            let full = run(build(&mut rng.fork(1), true));
            assert_eq!(full.3, 0, "config {config}: every sender is linked");
            shortcut_taken += as_is.3;
            assert_eq!(as_is.0, full.0, "config {config}: outcome");
            assert_eq!(as_is.1, full.1, "config {config}: inboxes");
            assert_eq!(as_is.2, full.2, "config {config}: main stream position");
        }
        assert!(
            shortcut_taken > 200,
            "the shortcut ran: {shortcut_taken} timers"
        );
    }

    #[test]
    fn scheduled_crash_then_link_cut_does_not_double_count() {
        // Satellite: a node that crashes mid-run and *later* also has its
        // links cut. Every undelivered message must be attributed to
        // exactly one cause (crash wins, being checked first), and the
        // node-fault count ignores link faults entirely.
        use crate::fault::FaultSchedule;
        let schedule = FaultSchedule::healthy().then_from(
            1,
            FaultPlan::healthy().with(n(0), FaultKind::Crash { from_round: 0 }),
        );
        let plan = LinkFaultPlan::healthy()
            .with(n(0), n(1), LinkFaultKind::Cut { from_round: 2 })
            .with(n(1), n(0), LinkFaultKind::Cut { from_round: 2 });
        assert_eq!(schedule.peak_fault_count(), 1, "link cuts add no faults");
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1)
            .with_fault_schedule(schedule)
            .with_link_faults(plan);
        let outcome = engine.run_with(4, |_, ctx| {
            ctx.broadcast(1);
        });
        // Node 0 sends 4 messages: round 0 delivered, rounds 1-3 crash.
        // Node 1 sends 4: rounds 0-1 delivered, rounds 2-3 link-cut.
        assert_eq!(outcome.dropped_crash, 3);
        assert_eq!(outcome.dropped_link_cut, 2);
        assert_eq!(outcome.delivered, 3);
        assert_eq!(
            outcome.dropped_crash + outcome.dropped_link_cut + outcome.delivered,
            outcome.sent,
            "each message has exactly one disposition"
        );
    }

    #[test]
    fn mid_run_fault_activation_with_cuts_recovers() {
        // FaultSchedule burst + link cut overlapping, then both clear
        // (the cut stays; the crash clears) — deliveries resume only on
        // the uncut direction.
        use crate::fault::FaultSchedule;
        let schedule = FaultSchedule::healthy()
            .then_from(
                1,
                FaultPlan::healthy().with(n(1), FaultKind::Crash { from_round: 0 }),
            )
            .then_from(2, FaultPlan::healthy());
        let plan = LinkFaultPlan::healthy().with(n(0), n(1), LinkFaultKind::Cut { from_round: 1 });
        let mut engine = RoundEngine::<u8>::new(Topology::complete(2), 1)
            .with_fault_schedule(schedule)
            .with_link_faults(plan);
        let mut zero_heard_in = Vec::new();
        engine.run_with(4, |i, ctx| {
            ctx.broadcast(1);
            if i == 0 && ctx.round() > 0 && !ctx.absent(n(1)) {
                zero_heard_in.push(ctx.round());
            }
        });
        // 1->0 is never cut: only node 1's round-1 crash silences it.
        assert_eq!(zero_heard_in, vec![1, 3]);
    }

    #[test]
    fn eig_perf_counters_and_fold_exclude_wall_fields() {
        let perf = EigPerf {
            arena_nodes: 1,
            votes_evaluated: 2,
            votes_memo_hit: 3,
            messages_materialized: 4,
            fill_nanos: 5,
            resolve_nanos: 6,
        };
        assert_eq!(perf.deterministic_counters(), [1, 2, 3, 4]);
        let mut reg = obs::Registry::new();
        perf.fold_into(&mut reg);
        assert_eq!(reg.counter("eig.votes_evaluated"), 2);
        assert_eq!(reg.counters().count(), 4);
    }

    #[test]
    fn closure_run_variant() {
        let mut engine = RoundEngine::<u32>::new(Topology::complete(3), 1);
        let outcome = engine.run(1, |ctx| ctx.broadcast(1));
        assert_eq!(outcome.sent, 6);
        assert_eq!(outcome.rounds_run, 1);
    }
}
