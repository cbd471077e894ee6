//! Real-concurrency backends: one OS thread per node, over in-process
//! channels or loopback TCP.
//!
//! Both share [`MeshTransport`], which implements the paper's
//! message-absence detection (assumption (b)) with a **round-barrier
//! protocol** over [`Frame`]s:
//!
//! 1. the first `poll` opens round 0 with a `Timeout { 0 }` event;
//! 2. after the driver has dispatched the machine's sends for round `r`,
//!    the next `poll` broadcasts `Mark(r)` — FIFO links guarantee every
//!    round-`r` envelope precedes it. That `poll` is also the **flush
//!    point** of a TCP link: `send` only encodes into the link's buffer,
//!    and the poll writes the round's envelopes and the mark behind them
//!    with one `write_all` per link, so nothing reaches a socket until
//!    the driver polls;
//! 3. a node closes round `r` (emits `Timeout { r + 1 }`) once it holds
//!    `Mark(r)` from all `n − 1` peers **or** its wall-clock deadline
//!    expires. The deadline path is real, possibly-false absence detection:
//!    a live-but-slow peer is declared silent, exactly the failure mode
//!    §6 tolerates beyond `m` faults.
//!
//! Marks bypass the chaos layer: they are absence-detection
//! *infrastructure* (the stand-in for the paper's synchronized clocks),
//! not protocol messages, so a fault plan perturbs what BYZ says, never
//! the round structure itself.
//!
//! Chaos is evaluated twice, by the same pure function
//! ([`LinkChaos::disposition`]): the sender drops doomed envelopes and
//! emits duplicates; the receiver recomputes the verdict to learn the
//! reorder delay and *gates* the envelope until its effective round —
//! an envelope of round `s` delayed `d` rounds is handed to the machine
//! during round `s + d`, folding at the close of round `s + d + 1` as a
//! late direct observation, exactly as on the simulator backend. The
//! gate also holds back genuinely early traffic from peers that are a
//! round ahead, which the state machine would otherwise discard as
//! coming from the future.

use crate::chaos::LinkChaos;
use crate::frame::{self, Frame, MAX_FRAME_LEN};
use crate::{Disposition, DropCause, PollOutcome, Transport, TransportStats};
use degradable::{ByzMsg, NodeEvent};
use obs::TraceCtx;
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for a mesh run.
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Wall-clock budget per round before absent peers are timed out.
    /// Generous by default so healthy runs are mark-driven (deterministic);
    /// shorten it to exercise real (possibly false) absence detection.
    pub round_timeout: Duration,
    /// How long `tcp` setup keeps retrying dials to peers that have not
    /// bound their listener yet.
    pub dial_timeout: Duration,
    /// How many times a broken TCP link is re-dialed before the peer is
    /// declared permanently gone. Zero disables reconnection.
    pub reconnect_attempts: u32,
    /// Base delay of the deterministic exponential backoff between
    /// reconnect attempts: attempt `k` (0-based) waits
    /// [`reconnect_delay`]`(base, k)` = `min(base << k, `
    /// [`RECONNECT_DELAY_CAP`]`)`.
    pub reconnect_backoff: Duration,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            round_timeout: Duration::from_secs(5),
            dial_timeout: Duration::from_secs(10),
            reconnect_attempts: 3,
            reconnect_backoff: Duration::from_millis(10),
        }
    }
}

/// Hard ceiling on one reconnect wait. The doubling schedule used to
/// saturate only at `base * u32::MAX` — roughly 49 days at the default
/// 10ms base — so a link that flapped long enough would sleep for an
/// absurd span instead of retrying. No single backoff sleep may exceed
/// this cap.
pub const RECONNECT_DELAY_CAP: Duration = Duration::from_secs(30);

/// The deterministic backoff schedule: attempt `k` (0-based) waits
/// `base * 2^k`, clamped to [`RECONNECT_DELAY_CAP`]. Pure, so operators
/// and tests can predict the exact schedule from the config — no jitter
/// by design (the mesh is a reproducibility instrument, not an internet
/// service).
pub fn reconnect_delay(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
        .min(RECONNECT_DELAY_CAP)
}

/// Redial material for links this endpoint originally dialed.
struct Redial {
    addr: SocketAddr,
    me: NodeId,
}

/// Replacement write-streams published by the acceptor thread when a peer
/// re-dials us mid-run, keyed by peer id.
type Replacements = Arc<Mutex<Vec<(NodeId, TcpStream)>>>;

/// The write half of one loopback TCP connection.
struct TcpLink {
    stream: TcpStream,
    /// Links this endpoint dialed carry [`Redial`] material for mid-run
    /// reconnects; accepted links are repaired by the peer re-dialing us
    /// instead.
    redial: Option<Redial>,
    /// Encoded frames not yet on the wire, in send order.
    unflushed: Vec<u8>,
}

/// An outgoing link to one peer.
enum PeerLink {
    /// In-process: frames pass through an `mpsc` channel un-encoded.
    Channel(Sender<Frame>),
    /// Loopback TCP: frames cross the codec in [`frame`].
    Tcp(TcpLink),
}

/// What one link-level send or flush concluded.
enum SendStatus {
    /// Delivered to the link (possibly into a buffer, ours or the OS's).
    Sent,
    /// Delivered after re-establishing the connection.
    Reconnected,
    /// The link is dead and the reconnect budget is exhausted.
    Gone,
}

impl PeerLink {
    /// Queues `frame` behind everything already sent on this link. A
    /// channel link delivers at once (a closed channel means the peer
    /// thread is gone for good); a TCP link only encodes — the bytes move
    /// at the next [`flush`](Self::flush).
    fn send(&mut self, frame: &Frame) -> SendStatus {
        match self {
            PeerLink::Channel(tx) => match tx.send(frame.clone()) {
                Ok(()) => SendStatus::Sent,
                Err(_) => SendStatus::Gone,
            },
            PeerLink::Tcp(link) => {
                frame::encode_into(&mut link.unflushed, frame);
                SendStatus::Sent
            }
        }
    }

    /// Puts a TCP link's buffered frames on the wire with one `write_all`,
    /// attempting a bounded reconnect if the connection is broken. The
    /// re-dialed connection carries the whole unflushed batch, so per-link
    /// order survives the repair; a batch the broken connection half-took
    /// arrives twice, which the protocol reads as a duplicate. On `Gone`
    /// the batch stays buffered for a replacement link to take over.
    fn flush(
        &mut self,
        config: &MeshConfig,
        inbox_tx: &Sender<Frame>,
        stop: &Arc<AtomicBool>,
    ) -> SendStatus {
        let PeerLink::Tcp(link) = self else {
            return SendStatus::Sent;
        };
        if link.unflushed.is_empty() {
            return SendStatus::Sent;
        }
        if link.stream.write_all(&link.unflushed).is_ok() {
            link.unflushed.clear();
            return SendStatus::Sent;
        }
        let Some(redial) = &link.redial else {
            // An accepted link: the dialing side owns reconnection. Keep
            // the link around — the acceptor thread swaps in a replacement
            // stream if the peer comes back.
            return SendStatus::Gone;
        };
        for attempt in 0..config.reconnect_attempts {
            thread::sleep(reconnect_delay(config.reconnect_backoff, attempt));
            let Ok(mut s) = dial(redial.addr, redial.me) else {
                continue;
            };
            let Ok(reader) = s.try_clone() else { continue };
            if s.write_all(&link.unflushed).is_err() {
                continue;
            }
            let tx = inbox_tx.clone();
            let stop = Arc::clone(stop);
            thread::spawn(move || reader_loop(reader, tx, stop));
            link.stream = s;
            link.unflushed.clear();
            return SendStatus::Reconnected;
        }
        SendStatus::Gone
    }
}

/// Opens a connection to `addr` and announces `me` on it: Nagle off (a
/// round's batch and the next must not wait on the peer's delayed ACK),
/// then the 4-byte little-endian id handshake.
fn dial(addr: SocketAddr, me: NodeId) -> io::Result<TcpStream> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.write_all(&(me.index() as u32).to_le_bytes())?;
    Ok(s)
}

/// How long [`MeshTransport::wait`] blocks at most. A frame or the round
/// deadline ends the wait by itself; the cap is for what does not — a
/// replacement link the acceptor published for `poll` to adopt. An idle
/// node wakes five hundred times a second, not ten thousand.
const WAIT_SLICE: Duration = Duration::from_millis(2);

/// An envelope awaiting delivery to the local machine: source, message,
/// and the sender's causal trace context if one crossed the wire.
type QueuedDelivery = (NodeId, ByzMsg<u64>, Option<TraceCtx>);

/// One node's endpoint of a channel or TCP mesh.
pub struct MeshTransport {
    me: NodeId,
    n: usize,
    depth: usize,
    chaos: LinkChaos,
    links: BTreeMap<NodeId, PeerLink>,
    inbox: Receiver<Frame>,
    /// Sender half of `inbox`, handed to reader threads spawned for
    /// reconnected links.
    inbox_tx: Sender<Frame>,
    /// Replacement write-streams from peers that re-dialed us.
    replacements: Replacements,
    config: MeshConfig,
    round: usize,
    started: bool,
    mark_due: bool,
    deadline: Instant,
    /// Ready envelopes, in arrival order.
    deliver_queue: VecDeque<QueuedDelivery>,
    /// Envelopes gated until `self.round` reaches their effective round.
    future: BTreeMap<usize, VecDeque<QueuedDelivery>>,
    /// Trace context of the most recently surfaced delivery.
    last_trace: Option<TraceCtx>,
    /// Peers heard finishing each round.
    marks: BTreeMap<usize, BTreeSet<NodeId>>,
    /// Peers declared permanently gone (link dead, reconnect budget
    /// exhausted). The round barrier stops waiting for them.
    gone: BTreeSet<NodeId>,
    /// Successful mid-run link re-establishments.
    reconnects: u64,
    /// Set when every peer is permanently gone: the clean-error surface.
    failure: Option<String>,
    stats: TransportStats,
    /// Tells this endpoint's TCP reader threads to exit.
    stop: Arc<AtomicBool>,
}

impl MeshTransport {
    #[allow(clippy::too_many_arguments)]
    fn new(
        me: NodeId,
        n: usize,
        depth: usize,
        chaos: LinkChaos,
        links: BTreeMap<NodeId, PeerLink>,
        inbox: Receiver<Frame>,
        inbox_tx: Sender<Frame>,
        replacements: Replacements,
        config: MeshConfig,
        stop: Arc<AtomicBool>,
    ) -> Self {
        MeshTransport {
            me,
            n,
            depth,
            chaos,
            links,
            inbox,
            inbox_tx,
            replacements,
            config,
            round: 0,
            started: false,
            mark_due: false,
            deadline: Instant::now() + config.round_timeout,
            deliver_queue: VecDeque::new(),
            future: BTreeMap::new(),
            last_trace: None,
            marks: BTreeMap::new(),
            gone: BTreeSet::new(),
            reconnects: 0,
            failure: None,
            stats: TransportStats::default(),
            stop,
        }
    }

    /// Peers declared permanently gone after an exhausted reconnect
    /// budget. The round barrier no longer waits for them.
    pub fn gone_peers(&self) -> &BTreeSet<NodeId> {
        &self.gone
    }

    /// Successful mid-run link re-establishments (dialer side).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The clean-error surface: `Some` once *every* peer is permanently
    /// gone, at which point the endpoint fast-forwards its remaining
    /// rounds (all-absent) instead of hanging on wall-clock deadlines.
    pub fn failure(&self) -> Option<&str> {
        self.failure.as_deref()
    }

    /// Adopts replacement write-streams from peers that re-dialed us: the
    /// acceptor thread publishes them, we swap them into the link (only
    /// peers we accepted re-dial, so it has no redial material to lose)
    /// and un-declare the peer gone. Whatever the old stream had not
    /// flushed stays queued, still ahead of anything sent later.
    fn adopt_replacements(&mut self) {
        let fresh: Vec<(NodeId, TcpStream)> = {
            let mut guard = self.replacements.lock().expect("replacements poisoned");
            guard.drain(..).collect()
        };
        for (peer, stream) in fresh {
            let Some(PeerLink::Tcp(link)) = self.links.get_mut(&peer) else {
                continue;
            };
            link.stream = stream;
            if self.gone.remove(&peer) {
                self.failure = None;
            }
        }
    }

    /// Books what a link-level send or flush concluded: reconnects are
    /// counted, a dead link declares its peer gone.
    fn note(&mut self, to: NodeId, status: SendStatus) {
        match status {
            SendStatus::Sent => {}
            SendStatus::Reconnected => self.reconnects += 1,
            SendStatus::Gone => {
                self.gone.insert(to);
                if self.gone.len() == self.n - 1 {
                    self.failure = Some(format!(
                        "node {}: all {} peers permanently gone (reconnect budget {} exhausted) \
                         in round {}",
                        self.me,
                        self.n - 1,
                        self.config.reconnect_attempts,
                        self.round
                    ));
                }
            }
        }
    }

    /// Sends one frame on one link. Gone peers are skipped: their link is
    /// not touched again until a replacement un-declares them.
    fn link_send(&mut self, to: NodeId, frame: &Frame) {
        if self.gone.contains(&to) {
            return;
        }
        let Some(link) = self.links.get_mut(&to) else {
            return;
        };
        let status = link.send(frame);
        self.note(to, status);
    }

    fn broadcast_mark(&mut self, round: usize) {
        let mark = Frame::Mark {
            src: self.me,
            round,
        };
        let peers: Vec<NodeId> = self.links.keys().copied().collect();
        for peer in peers {
            self.link_send(peer, &mark);
        }
    }

    /// Flushes every live link: the one point at which a TCP link's bytes
    /// reach its socket (a no-op for links with nothing buffered).
    fn flush_links(&mut self) {
        let mut noted = Vec::new();
        for (&peer, link) in &mut self.links {
            if self.gone.contains(&peer) {
                continue;
            }
            match link.flush(&self.config, &self.inbox_tx, &self.stop) {
                SendStatus::Sent => {}
                status => noted.push((peer, status)),
            }
        }
        for (peer, status) in noted {
            self.note(peer, status);
        }
    }

    /// Files one frame off the wire into the local queues.
    fn ingest(&mut self, f: Frame) {
        match f {
            Frame::Mark { src, round } => {
                self.marks.entry(round).or_default().insert(src);
            }
            Frame::Envelope { src, msg, trace } => {
                // The sending round is encoded in the path: a level-k
                // envelope is sent while round k-1 closes. Recompute
                // the keyed chaos verdict to learn its reorder delay —
                // sender and receiver evaluate the same pure function,
                // so they always agree.
                let sent_round = msg.path.len().saturating_sub(1);
                let delay = match self.chaos.disposition(sent_round, src, self.me, &msg.path) {
                    // The sender never puts a dropped envelope on the
                    // wire; tolerate one anyway (a dropped frame is an
                    // absent message, the protocol's bread and butter).
                    Disposition::Dropped(_) => return,
                    Disposition::Deliver { delay_rounds, .. } => delay_rounds,
                };
                let effective = sent_round + delay;
                if effective + 1 > self.depth {
                    // Would fold at a round past the end of the run.
                    self.stats.lost += 1;
                    return;
                }
                if effective <= self.round {
                    self.deliver_queue.push_back((src, msg, trace));
                } else {
                    self.future
                        .entry(effective)
                        .or_default()
                        .push_back((src, msg, trace));
                }
            }
        }
    }

    /// Moves everything that arrived on the wire into the local queues.
    fn drain_inbox(&mut self) {
        while let Ok(f) = self.inbox.try_recv() {
            self.ingest(f);
        }
    }

    /// Blocks until a frame arrives, the round deadline passes, or
    /// [`WAIT_SLICE`] elapses, whichever is first — what a driver does on
    /// [`PollOutcome::Pending`] instead of sleeping blind. It only waits:
    /// the next [`poll`](Transport::poll) acts on whatever ended the wait.
    pub fn wait(&mut self) {
        let until_deadline = self.deadline.saturating_duration_since(Instant::now());
        if let Ok(f) = self.inbox.recv_timeout(until_deadline.min(WAIT_SLICE)) {
            self.ingest(f);
        }
    }

    /// Closes the current round and opens the next.
    fn advance(&mut self) -> PollOutcome {
        self.round += 1;
        self.mark_due = true;
        self.deadline = Instant::now() + self.config.round_timeout;
        let due: Vec<usize> = self
            .future
            .keys()
            .copied()
            .take_while(|&k| k <= self.round)
            .collect();
        for k in due {
            if let Some(q) = self.future.remove(&k) {
                self.deliver_queue.extend(q);
            }
        }
        PollOutcome::Event(NodeEvent::Timeout { round: self.round })
    }
}

impl Transport for MeshTransport {
    fn me(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.n
    }

    fn send(&mut self, to: NodeId, msg: ByzMsg<u64>) {
        self.send_traced(to, msg, None);
    }

    fn send_traced(&mut self, to: NodeId, msg: ByzMsg<u64>, trace: Option<TraceCtx>) {
        self.stats.sent += 1;
        let copies = match self.chaos.disposition(self.round, self.me, to, &msg.path) {
            Disposition::Dropped(cause) => {
                match cause {
                    DropCause::Cut => self.stats.dropped_cut += 1,
                    DropCause::Loss => self.stats.dropped_loss += 1,
                    DropCause::Corrupt => self.stats.dropped_corrupt += 1,
                }
                return;
            }
            Disposition::Deliver {
                copies,
                delay_rounds,
            } => {
                if delay_rounds > 0 {
                    self.stats.delayed += 1;
                }
                if copies > 1 {
                    self.stats.duplicated += (copies - 1) as u64;
                }
                copies
            }
        };
        let frame = Frame::Envelope {
            src: self.me,
            msg,
            trace,
        };
        for _ in 0..copies {
            self.link_send(to, &frame);
        }
    }

    fn last_trace(&self) -> Option<TraceCtx> {
        self.last_trace.clone()
    }

    fn poll(&mut self) -> PollOutcome {
        if !self.started {
            self.started = true;
            self.mark_due = true;
            self.deadline = Instant::now() + self.config.round_timeout;
            return PollOutcome::Event(NodeEvent::Timeout { round: 0 });
        }
        self.adopt_replacements();
        if self.mark_due {
            // This poll is the first since a Timeout event: the driver has
            // dispatched every send of that round, so the mark goes out
            // now — after the envelopes, per-link FIFO.
            self.mark_due = false;
            if self.round < self.depth {
                self.broadcast_mark(self.round);
            }
        }
        // One write per link carries the round's envelopes and the mark
        // just queued behind them.
        self.flush_links();
        if self.round == self.depth {
            // The final timeout has been emitted; the machine is done.
            return PollOutcome::Closed;
        }
        self.drain_inbox();
        if let Some((src, msg, trace)) = self.deliver_queue.pop_front() {
            self.stats.delivered += 1;
            self.last_trace = trace;
            return PollOutcome::Event(NodeEvent::Deliver { src, msg });
        }
        let heard = self.marks.get(&self.round).map_or(0, BTreeSet::len);
        // Gone peers never produce marks: the barrier stops waiting for
        // them (their envelopes read as absent, the protocol's normal
        // fault mode) instead of burning a wall-clock deadline per round.
        let gone = self
            .gone
            .iter()
            .filter(|p| !self.marks.get(&self.round).is_some_and(|m| m.contains(p)))
            .count();
        if heard + gone >= self.n - 1 {
            return self.advance();
        }
        if Instant::now() >= self.deadline {
            // Deadline-expiry absence detection: unheard peers are
            // declared silent for this round whether they are dead or
            // merely slow — the latter is a false timeout. Permanently
            // gone peers are real absences, not false timeouts.
            self.stats.false_timeouts += (self.n - 1 - heard - gone) as u64;
            return self.advance();
        }
        PollOutcome::Pending
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

impl Drop for MeshTransport {
    /// Tells this endpoint's threads to stop and half-closes its TCP
    /// links. The FIN travels behind everything already written, so no
    /// flushed frame is lost, and the peer's reader sees end-of-stream at
    /// once instead of idling out a read timeout; once the peer does the
    /// same, so do ours.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for link in self.links.values() {
            if let PeerLink::Tcp(link) = link {
                let _ = link.stream.shutdown(Shutdown::Write);
            }
        }
    }
}

/// Builds an `n`-node in-process mesh over `std::sync::mpsc` channels.
/// Element `i` of the result is node `i`'s endpoint; move each to its own
/// thread and drive them concurrently.
pub fn channel_mesh(
    n: usize,
    depth: usize,
    chaos: &LinkChaos,
    config: MeshConfig,
) -> Vec<MeshTransport> {
    let mut txs = Vec::with_capacity(n);
    let mut rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    rxs.into_iter()
        .enumerate()
        .map(|(i, rx)| {
            let me = NodeId::new(i);
            let links = NodeId::all(n)
                .filter(|&p| p != me)
                .map(|p| (p, PeerLink::Channel(txs[p.index()].clone())))
                .collect();
            MeshTransport::new(
                me,
                n,
                depth,
                chaos.clone(),
                links,
                rx,
                txs[i].clone(),
                Arc::new(Mutex::new(Vec::new())),
                config,
                Arc::new(AtomicBool::new(false)),
            )
        })
        .collect()
}

/// Builds an `n`-node mesh over loopback TCP with ephemeral ports: binds
/// `n` listeners, performs the full dial/accept handshake on worker
/// threads, and returns node `i`'s endpoint at element `i`.
pub fn tcp_mesh(
    n: usize,
    depth: usize,
    chaos: &LinkChaos,
    config: MeshConfig,
) -> io::Result<Vec<MeshTransport>> {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(l.local_addr()?);
        listeners.push(l);
    }
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let addrs = addrs.clone();
            let chaos = chaos.clone();
            thread::spawn(move || {
                join_with_listener(NodeId::new(i), listener, &addrs, depth, chaos, config)
            })
        })
        .collect();
    let mut out = Vec::with_capacity(n);
    for h in handles {
        out.push(h.join().expect("tcp mesh setup thread panicked")?);
    }
    Ok(out)
}

/// Joins a TCP mesh as node `me` of `addrs.len()` nodes at explicit
/// addresses — the `dagree serve` entry point, where each node is its own
/// process. Binds `addrs[me]`, dials every lower-indexed peer (retrying
/// until [`MeshConfig::dial_timeout`], since peers may not be up yet) and
/// accepts connections from every higher-indexed one.
pub fn tcp_join(
    me: NodeId,
    addrs: &[SocketAddr],
    depth: usize,
    chaos: LinkChaos,
    config: MeshConfig,
) -> io::Result<MeshTransport> {
    let listener = TcpListener::bind(addrs[me.index()])?;
    join_with_listener(me, listener, addrs, depth, chaos, config)
}

/// The shared dial-lower/accept-higher handshake. Every connection opens
/// with a 4-byte little-endian node index from the dialer, so the acceptor
/// knows who it is talking to (transport-level authentication, the paper's
/// oral-message assumption (c) — good enough on loopback).
fn join_with_listener(
    me: NodeId,
    listener: TcpListener,
    addrs: &[SocketAddr],
    depth: usize,
    chaos: LinkChaos,
    config: MeshConfig,
) -> io::Result<MeshTransport> {
    let n = addrs.len();
    let mut raw: BTreeMap<NodeId, (TcpStream, Option<Redial>)> = BTreeMap::new();
    for (peer, &addr) in addrs.iter().enumerate().take(me.index()) {
        let s = dial_with_retry(addr, me, config.dial_timeout)?;
        raw.insert(NodeId::new(peer), (s, Some(Redial { addr, me })));
    }
    for _ in me.index() + 1..n {
        let (mut s, _) = listener.accept()?;
        let peer = accept_handshake(&mut s, me, n, config.dial_timeout)?;
        // A second connection under one id would silently overwrite the
        // first and leave the mesh a peer short.
        if raw.insert(peer, (s, None)).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "handshake announced a node id that is already connected",
            ));
        }
    }
    let (tx, rx) = channel();
    let stop = Arc::new(AtomicBool::new(false));
    let replacements: Replacements = Arc::new(Mutex::new(Vec::new()));
    let mut links = BTreeMap::new();
    for (peer, (stream, redial)) in raw {
        let reader = stream.try_clone()?;
        let reader_tx = tx.clone();
        let reader_stop = Arc::clone(&stop);
        thread::spawn(move || reader_loop(reader, reader_tx, reader_stop));
        links.insert(
            peer,
            PeerLink::Tcp(TcpLink {
                stream,
                redial,
                unflushed: Vec::new(),
            }),
        );
    }
    // The listener stays alive for the whole run: peers whose outgoing
    // link to us breaks re-dial with the same id handshake, and the
    // acceptor publishes the fresh stream as a replacement link.
    {
        let tx = tx.clone();
        let stop = Arc::clone(&stop);
        let replacements = Arc::clone(&replacements);
        thread::spawn(move || acceptor_loop(listener, me, n, tx, stop, replacements));
    }
    Ok(MeshTransport::new(
        me,
        n,
        depth,
        chaos,
        links,
        rx,
        tx,
        replacements,
        config,
        stop,
    ))
}

/// The accepting side of the id handshake: Nagle off, then the dialer's
/// 4-byte id, which must arrive within `patience` (a peer that connects
/// and never speaks must not hang the acceptor) and must name a node that
/// dials us — only higher-indexed peers do.
fn accept_handshake(
    s: &mut TcpStream,
    me: NodeId,
    n: usize,
    patience: Duration,
) -> io::Result<NodeId> {
    s.set_nodelay(true)?;
    // A zero timeout is an error to the socket API, not "do not wait".
    s.set_read_timeout(Some(patience.max(Duration::from_millis(1))))?;
    let mut id = [0u8; 4];
    s.read_exact(&mut id).map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => io::Error::new(
            io::ErrorKind::TimedOut,
            "peer connected but never announced its node id",
        ),
        _ => e,
    })?;
    let peer = u32::from_le_bytes(id) as usize;
    if peer <= me.index() || peer >= n {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "handshake announced a node id that does not dial this node",
        ));
    }
    Ok(NodeId::new(peer))
}

/// Post-setup acceptor: keeps the listener open so disconnected peers can
/// re-dial mid-run. Each accepted connection re-runs the 4-byte id
/// handshake; its read half feeds the endpoint's inbox through a fresh
/// reader thread and its write half is published as a replacement link.
fn acceptor_loop(
    listener: TcpListener,
    me: NodeId,
    n: usize,
    tx: Sender<Frame>,
    stop: Arc<AtomicBool>,
    replacements: Replacements,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((mut s, _)) => {
                if s.set_nonblocking(false).is_err() {
                    continue;
                }
                let Ok(peer) = accept_handshake(&mut s, me, n, Duration::from_millis(500)) else {
                    continue;
                };
                let Ok(reader) = s.try_clone() else { continue };
                let reader_tx = tx.clone();
                let reader_stop = Arc::clone(&stop);
                thread::spawn(move || reader_loop(reader, reader_tx, reader_stop));
                replacements
                    .lock()
                    .expect("replacements poisoned")
                    .push((peer, s));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return,
        }
    }
}

fn dial_with_retry(addr: SocketAddr, me: NodeId, budget: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + budget;
    loop {
        match dial(addr, me) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Per-connection reader: accumulates bytes and forwards complete frames.
/// A finished peer half-closes, so the usual exit is end-of-stream right
/// behind its last frame. Reading with a timeout (rather than blocking
/// forever) is the fallback for a peer that outlives us: the thread
/// notices the endpoint's stop flag instead of being stranded on a
/// half-open socket. Partial frames survive across timeouts — the
/// accumulator only ever consumes whole frames.
fn reader_loop(mut stream: TcpStream, tx: Sender<Frame>, stop: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut acc: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(k) => {
                acc.extend_from_slice(&buf[..k]);
                // One read can carry a whole round's batch: walk it by
                // offset and drop the consumed prefix once, not per frame.
                let mut at = 0;
                while acc.len() - at >= 4 {
                    let len = u32::from_le_bytes(acc[at..at + 4].try_into().expect("4-byte slice"))
                        as usize;
                    if len > MAX_FRAME_LEN as usize {
                        return; // corrupt stream: stop feeding it onward
                    }
                    if acc.len() - at < 4 + len {
                        break;
                    }
                    match frame::decode(&acc[at + 4..at + 4 + len]) {
                        Ok(f) => {
                            if tx.send(f).is_err() {
                                return;
                            }
                        }
                        Err(_) => return,
                    }
                    at += 4 + len;
                }
                acc.drain(..at);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use degradable::{AgreementValue, Path};

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn envelope(src: usize, path: Path, v: u64) -> Frame {
        Frame::Envelope {
            src: nid(src),
            msg: ByzMsg {
                path,
                value: AgreementValue::Value(v),
            },
            trace: None,
        }
    }

    /// Drives a 2-node channel mesh by hand: node 1 should see Timeout 0,
    /// the delivery, then timeouts driven by node 0's marks.
    #[test]
    fn channel_mesh_round_trip_with_marks() {
        let mut mesh = channel_mesh(2, 2, &LinkChaos::healthy(), MeshConfig::default());
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();

        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        n0.send(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(9u64),
            },
        );
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        // Node 1's next poll flushes its Mark(0) and must surface the
        // envelope before any round advance.
        match n1.poll() {
            PollOutcome::Event(NodeEvent::Deliver { src, msg }) => {
                assert_eq!(src, nid(0));
                assert_eq!(msg.path, Path::root(nid(0)));
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        // Node 0 flushes Mark(0), hears node 1's, advances; then node 1
        // hears node 0's mark and follows.
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        // Round 1 closes the same way; round 2 is the final timeout.
        assert_eq!(n1.poll(), PollOutcome::Pending, "peer mark not in yet");
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 2 })
        );
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 2 })
        );
        assert_eq!(n1.poll(), PollOutcome::Closed);
        assert_eq!(n0.poll(), PollOutcome::Closed);
        assert_eq!(n1.stats().delivered, 1);
        assert_eq!(n0.stats().sent, 1);
        assert_eq!(n0.stats().false_timeouts, 0);
    }

    #[test]
    fn dead_peer_times_out_but_round_structure_survives() {
        let mut mesh = channel_mesh(
            2,
            1,
            &LinkChaos::healthy(),
            MeshConfig {
                round_timeout: Duration::from_millis(30),
                ..MeshConfig::default()
            },
        );
        let mut n0 = mesh.remove(0);
        // Node 1's endpoint stays alive but is never polled: a *hung* peer.
        // Its inbox channel stays open, so sends succeed and the dead-link
        // detector never fires — only the wall-clock deadline can close the
        // round, and that expiry is a (possibly false) timeout. A *gone*
        // peer (channel closed) is the separate, instantly-detected case —
        // see `gone_channel_peer_is_detected_and_rounds_advance_without_deadline`.
        let _hung_peer = mesh;
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        let start = Instant::now();
        loop {
            match n0.poll() {
                PollOutcome::Pending => thread::sleep(Duration::from_millis(2)),
                PollOutcome::Event(NodeEvent::Timeout { round: 1 }) => break,
                other => panic!("expected round-1 timeout, got {other:?}"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "no deadline fired"
            );
        }
        assert_eq!(n0.poll(), PollOutcome::Closed);
        assert_eq!(n0.stats().false_timeouts, 1);
    }

    #[test]
    fn early_envelopes_are_gated_until_their_round() {
        // Hand-feed node 0's inbox: a level-2 envelope (round-1 traffic
        // from a peer that has raced ahead) must not surface during round
        // 0 — the machine would discard it as from the future.
        let (tx, rx) = channel();
        let mut t = MeshTransport::new(
            nid(0),
            3,
            2,
            LinkChaos::healthy(),
            BTreeMap::new(),
            rx,
            tx.clone(),
            Arc::new(Mutex::new(Vec::new())),
            MeshConfig::default(),
            Arc::new(AtomicBool::new(false)),
        );
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        tx.send(envelope(2, Path::root(nid(1)).child(nid(2)), 7))
            .unwrap();
        assert_eq!(t.poll(), PollOutcome::Pending, "future envelope gated");
        // Marks for round 0 from both peers release the next round.
        tx.send(Frame::Mark {
            src: nid(1),
            round: 0,
        })
        .unwrap();
        tx.send(Frame::Mark {
            src: nid(2),
            round: 0,
        })
        .unwrap();
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        match t.poll() {
            PollOutcome::Event(NodeEvent::Deliver { src, .. }) => assert_eq!(src, nid(2)),
            other => panic!("gated envelope should release in round 1, got {other:?}"),
        }
    }

    #[test]
    fn reconnect_backoff_schedule_is_deterministic() {
        let base = Duration::from_millis(10);
        assert_eq!(reconnect_delay(base, 0), Duration::from_millis(10));
        assert_eq!(reconnect_delay(base, 1), Duration::from_millis(20));
        assert_eq!(reconnect_delay(base, 2), Duration::from_millis(40));
        assert_eq!(reconnect_delay(base, 3), Duration::from_millis(80));
        // The schedule is clamped: attempt 11 would be 10ms << 11 =
        // 20.48s, attempt 12 crosses the 30s cap, and absurd attempt
        // counts (including the shift-overflow range >= 32) all pin at
        // exactly the cap instead of sleeping for days.
        assert_eq!(reconnect_delay(base, 11), Duration::from_millis(20_480));
        assert_eq!(reconnect_delay(base, 12), RECONNECT_DELAY_CAP);
        assert_eq!(reconnect_delay(base, 31), RECONNECT_DELAY_CAP);
        assert_eq!(reconnect_delay(base, 32), RECONNECT_DELAY_CAP);
        assert_eq!(reconnect_delay(base, 63), RECONNECT_DELAY_CAP);
        assert_eq!(reconnect_delay(base, u32::MAX), RECONNECT_DELAY_CAP);
        // A base already above the cap is clamped from attempt 0.
        assert_eq!(
            reconnect_delay(Duration::from_secs(60), 0),
            RECONNECT_DELAY_CAP
        );
    }

    #[test]
    fn gone_channel_peer_is_detected_and_rounds_advance_without_deadline() {
        // Node 1's endpoint (and thus its inbox receiver) is dropped: node
        // 0's first send fails cleanly, the peer is marked gone, and every
        // remaining round advances immediately instead of burning the
        // round deadline — with a generous timeout this test would hang
        // for seconds if the gone-peer path regressed.
        let mut mesh = channel_mesh(
            2,
            2,
            &LinkChaos::healthy(),
            MeshConfig {
                round_timeout: Duration::from_secs(30),
                ..MeshConfig::default()
            },
        );
        let mut n0 = mesh.remove(0);
        drop(mesh);
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        n0.send(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(9u64),
            },
        );
        assert_eq!(
            n0.gone_peers().iter().copied().collect::<Vec<_>>(),
            [nid(1)]
        );
        assert!(n0.failure().is_some(), "all peers gone is a clean error");
        let start = Instant::now();
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 2 })
        );
        assert_eq!(n0.poll(), PollOutcome::Closed);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "gone peers must not cost a deadline per round"
        );
        // Real absences, not false timeouts.
        assert_eq!(n0.stats().false_timeouts, 0);
    }

    /// The write half of the TCP link to `peer`.
    fn tcp_stream(t: &MeshTransport, peer: usize) -> &TcpStream {
        match t.links.get(&nid(peer)) {
            Some(PeerLink::Tcp(link)) => &link.stream,
            _ => panic!("expected a TCP link to node {peer}"),
        }
    }

    #[test]
    fn every_tcp_link_has_nagle_off() {
        // Dialed and accepted alike: a round's batch must never wait on
        // the peer's delayed ACK of the previous one.
        let mesh = tcp_mesh(3, 1, &LinkChaos::healthy(), MeshConfig::default()).unwrap();
        for t in &mesh {
            for peer in (0..3).filter(|&p| p != t.me.index()) {
                assert!(
                    tcp_stream(t, peer).nodelay().unwrap(),
                    "link {} -> {peer}",
                    t.me
                );
            }
        }
    }

    #[test]
    fn tcp_link_reconnects_after_peer_drops_the_connection() {
        // Node 1 dialed node 0 (dial-lower), so node 1 owns the redial
        // path. Node 0 severs the accepted connection mid-run; node 1's
        // next flush must re-dial (bounded, backed off), re-handshake, and
        // deliver the whole unflushed batch in order — and node 0's
        // persistent acceptor must splice the replacement in so traffic
        // keeps flowing.
        let mut mesh = tcp_mesh(2, 3, &LinkChaos::healthy(), MeshConfig::default()).unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        // Node 0 severs the link it accepted from node 1 — both halves.
        tcp_stream(&n0, 1).shutdown(Shutdown::Both).unwrap();
        thread::sleep(Duration::from_millis(100)); // let the shutdown land

        // Node 1 sends batches of five and polls (the flush point) after
        // each. The kernel may swallow the first write to the broken
        // socket, so keep going until a flush fails and the reconnect
        // path fires (bounded by the test timeout, not by hope).
        const BATCH: u64 = 5;
        let start = Instant::now();
        let mut batches = 0u64;
        while n1.reconnects() == 0 {
            for k in 0..BATCH {
                n1.send(
                    nid(0),
                    ByzMsg {
                        path: Path::root(nid(1)),
                        value: AgreementValue::Value(batches * BATCH + k),
                    },
                );
            }
            batches += 1;
            n1.poll();
            assert!(n1.gone_peers().is_empty(), "reconnect must succeed");
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "reconnect never triggered"
            );
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(n1.reconnects(), 1);
        assert!(tcp_stream(&n1, 0).nodelay().unwrap(), "re-dialed link");
        // The re-dialed connection reaches node 0 through its acceptor:
        // polling adopts the replacement, and every frame of the batch
        // whose flush failed arrives, in the order it was sent.
        let resent: Vec<u64> = ((batches - 1) * BATCH..batches * BATCH).collect();
        let mut got = Vec::new();
        let start = Instant::now();
        while got.last() != resent.last() {
            match n0.poll() {
                PollOutcome::Event(NodeEvent::Deliver { src, msg }) => {
                    assert_eq!(src, nid(1));
                    match msg.value {
                        AgreementValue::Value(v) => got.push(v),
                        AgreementValue::Default => panic!("no V_d was sent"),
                    }
                }
                PollOutcome::Event(NodeEvent::Timeout { .. }) => {}
                PollOutcome::Pending => n0.wait(),
                PollOutcome::Closed => panic!("closed before the reconnected batch arrived"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "replacement link never delivered"
            );
        }
        assert!(
            got.ends_with(&resent),
            "the unflushed batch {resent:?} must arrive whole and in order, got {got:?}"
        );
        assert!(tcp_stream(&n0, 1).nodelay().unwrap(), "adopted replacement");
    }

    #[test]
    fn replacement_link_inherits_the_unflushed_batch() {
        // Frames queued on a link when the peer's re-dial replaces it are
        // not on any wire yet: they must move to the replacement, or a
        // repair would cost the round's envelopes and its mark.
        let mut mesh = tcp_mesh(2, 1, &LinkChaos::healthy(), MeshConfig::default()).unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        n0.poll();
        n1.poll();
        n0.send(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(31u64),
            },
        );
        // Node 1 re-dials by hand, as its flush would after a failure.
        let Some(PeerLink::Tcp(link)) = n1.links.get_mut(&nid(0)) else {
            panic!("expected a TCP link");
        };
        let redial = link.redial.as_ref().expect("node 1 dialed node 0");
        let fresh = dial(redial.addr, redial.me).unwrap();
        let reader = fresh.try_clone().unwrap();
        let (tx, stop) = (n1.inbox_tx.clone(), Arc::clone(&n1.stop));
        thread::spawn(move || reader_loop(reader, tx, stop));
        link.stream = fresh;
        // Once node 0's acceptor has published the replacement, its next
        // poll adopts it and flushes the envelope queued before the swap.
        let start = Instant::now();
        while n0.replacements.lock().unwrap().is_empty() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "the acceptor never published the re-dialed connection"
            );
            thread::sleep(Duration::from_millis(1));
        }
        loop {
            n0.poll();
            match n1.poll() {
                PollOutcome::Event(NodeEvent::Deliver { src, msg }) => {
                    assert_eq!(src, nid(0));
                    assert_eq!(msg.value, AgreementValue::Value(31));
                    break;
                }
                PollOutcome::Pending => n1.wait(),
                other => panic!("expected the inherited envelope, got {other:?}"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "the queued envelope was lost with the replaced link"
            );
        }
    }

    /// Binds a listener for node 0 of an `n`-node mesh and runs the set-up
    /// handshake on a worker thread, handing back the address a hostile
    /// dialer should connect to.
    fn join_as_node_0(
        n: usize,
        config: MeshConfig,
    ) -> (SocketAddr, thread::JoinHandle<io::Result<MeshTransport>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let addrs = vec![addr; n];
        let join = thread::spawn(move || {
            join_with_listener(nid(0), listener, &addrs, 1, LinkChaos::healthy(), config)
        });
        (addr, join)
    }

    #[test]
    fn handshake_rejects_ids_that_cannot_dial_us_and_duplicates() {
        // An id at or below ours (those peers are dialed, never accepted)
        // and an id past the mesh are both refused.
        for bad in [0u32, 3] {
            let (addr, join) = join_as_node_0(3, MeshConfig::default());
            let mut hostile = TcpStream::connect(addr).unwrap();
            hostile.write_all(&bad.to_le_bytes()).unwrap();
            let err = join
                .join()
                .unwrap()
                .err()
                .expect("an undialable id is refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "id {bad}");
        }
        // The same id twice: the second would overwrite the first link
        // and leave the mesh one peer short.
        let (addr, join) = join_as_node_0(3, MeshConfig::default());
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(&1u32.to_le_bytes()).unwrap();
        let mut second = TcpStream::connect(addr).unwrap();
        second.write_all(&1u32.to_le_bytes()).unwrap();
        let err = join.join().unwrap().err().expect("duplicate id refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn handshake_gives_up_on_a_peer_that_never_speaks() {
        let (addr, join) = join_as_node_0(
            2,
            MeshConfig {
                dial_timeout: Duration::from_millis(50),
                ..MeshConfig::default()
            },
        );
        let start = Instant::now();
        let _mute = TcpStream::connect(addr).unwrap();
        let err = join.join().unwrap().err().expect("a mute peer is refused");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the handshake read must be bounded by dial_timeout"
        );
    }

    #[test]
    fn traced_send_surfaces_last_trace_at_the_receiver() {
        let mut mesh = channel_mesh(2, 2, &LinkChaos::healthy(), MeshConfig::default());
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        let ctx = TraceCtx::new(4, vec![0]);
        n0.send_traced(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(11u64),
            },
            Some(ctx.clone()),
        );
        match n1.poll() {
            PollOutcome::Event(NodeEvent::Deliver { src, .. }) => assert_eq!(src, nid(0)),
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(n1.last_trace(), Some(ctx.clone()));
        // Untraced traffic resets the slot: the context never outlives
        // the delivery it was stamped on.
        n0.send(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(12u64),
            },
        );
        match n1.poll() {
            PollOutcome::Event(NodeEvent::Deliver { .. }) => {}
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(n1.last_trace(), None);
    }

    #[test]
    fn tcp_mesh_handshake_carries_frames_both_ways() {
        let mut mesh = tcp_mesh(2, 1, &LinkChaos::healthy(), MeshConfig::default()).unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        n0.send(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(1234u64),
            },
        );
        // `send` only buffers; the sender's next poll is the flush point
        // (it also queues Mark(0) behind the envelope).
        assert_eq!(n0.poll(), PollOutcome::Pending);
        // Spin until the reader thread forwards the frame.
        let start = Instant::now();
        loop {
            match n1.poll() {
                PollOutcome::Event(NodeEvent::Deliver { src, msg }) => {
                    assert_eq!(src, nid(0));
                    assert_eq!(msg.value, AgreementValue::Value(1234));
                    break;
                }
                PollOutcome::Event(NodeEvent::Timeout { .. }) => {
                    panic!("round advanced before the envelope was drained")
                }
                PollOutcome::Pending => thread::sleep(Duration::from_millis(1)),
                PollOutcome::Closed => panic!("closed early"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "frame never arrived"
            );
        }
    }
}
