//! Real-concurrency backends: one OS thread per node, over in-process
//! byte pipes or loopback TCP — the node's driver, and no other: a
//! [`MeshTransport`] owns no thread. Both meshes run one link code over a
//! byte stream: every frame crosses the codec in [`frame`], a link hands
//! over no frame in another node's name, and its writes are bounded and
//! flushed in order. An endpoint's streams are non-blocking and it reads
//! them itself, in `poll`; the one place it blocks is
//! [`MeshTransport::wait`], on the one stream that can end the wait. An
//! endpoint can therefore sit idle between instances at no cost, which is
//! what lets a mesh outlive its instance (`run_tcp` keeps one standing,
//! each endpoint with its driver parked until the next one).
//!
//! Both share [`MeshTransport`], whose round barrier — the paper's
//! message-absence detection (assumption (b)) — is the endpoint core's
//! (`endpoint.rs`), over [`Frame`]s and the wall clock, which the
//! endpoint reads once per `poll`:
//!
//! 1. the first `poll` opens round 0 with a `Timeout { 0 }` event;
//! 2. after the driver has dispatched the machine's sends for round `r`,
//!    the next `poll` broadcasts `Mark(r)` — FIFO links guarantee every
//!    round-`r` envelope precedes it. That `poll` is also the **flush
//!    point** of a link: `send` only encodes into the link's buffer,
//!    and the poll writes the round's envelopes and the mark behind them
//!    with one `write` per link, so nothing reaches a stream until the
//!    driver polls (what a full socket does not take stays queued for the
//!    next poll — a peer that stops reading cannot stall the node);
//! 3. the core closes round `r` (emits `Timeout { r + 1 }`) once it holds
//!    `Mark(r)` from all `n − 1` live peers **or** the clock has passed the
//!    round's deadline. The deadline path is real, possibly-false absence
//!    detection: a live-but-slow peer is declared silent, exactly the
//!    failure mode §6 tolerates beyond `m` faults. Until then an endpoint
//!    reads only links whose peer's `Mark(r)` is missing: a driver sends
//!    only on a `Timeout`, so what follows a mark is a later round's, and
//!    it waits in the stream until round `r` closes.
//!
//! Marks bypass the chaos layer: they are absence-detection
//! *infrastructure* (the stand-in for the paper's synchronized clocks),
//! not protocol messages, so a fault plan perturbs what BYZ says, never
//! the round structure itself.
//!
//! An endpoint keeps the keyed plan of the chaos layer it is given, never
//! an adaptive overlay: sender and receiver each look an envelope's
//! disposition up, on their own threads, and only a pure function gives
//! both the same answer. The sender drops doomed envelopes and emits
//! duplicates; the receiver's core learns the reorder delay from the same
//! verdict and gates the envelope until its effective round, exactly as on
//! the simulator backend.

use crate::chaos::LinkChaos;
use crate::endpoint::RunState;
use crate::frame::{self, Frame, MAX_FRAME_LEN};
use crate::{PollOutcome, Transport, TransportStats};
use degradable::ByzMsg;
use obs::TraceCtx;
use simnet::NodeId;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
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
#[derive(Clone, Copy)]
struct Redial {
    addr: SocketAddr,
    me: NodeId,
}

/// Walks `bytes`, read off the link to `peer`, frame by frame, handing
/// every whole frame to `sink`, and returns how many bytes those frames
/// took — the rest is the head of a frame still arriving. `None` is a
/// corrupt stream (a length prefix past [`MAX_FRAME_LEN`], a body that
/// does not decode, a frame in another node's name): the frames before
/// the bad one have been delivered, nothing after it may be.
///
/// The last is the transport half of the paper's assumption (c): the
/// mesh named the node at the other end of this link (the TCP handshake,
/// or the pipe's place in the channel mesh), so that is who every frame on
/// it is from, whatever the frame says. This is the only way off a link,
/// so nothing downstream meets a forged origin.
fn take_frames(bytes: &[u8], peer: NodeId, sink: &mut impl FnMut(Frame)) -> Option<usize> {
    let mut at = 0;
    while let Some(prefix) = bytes[at..].first_chunk::<4>() {
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME_LEN as usize {
            return None;
        }
        let Some(body) = bytes[at + 4..].get(..len) else {
            break;
        };
        let frame = frame::decode(body).ok().filter(|f| f.src() == peer)?;
        sink(frame);
        at += 4 + len;
    }
    Some(at)
}

/// The receive half of one link: bytes in, whole frames out.
struct Intake {
    /// The node the mesh named at the other end of the link.
    peer: NodeId,
    /// The head of a frame whose tail has not arrived: after every
    /// [`absorb`](Self::absorb) a strict prefix of one frame, so never
    /// more than `4 + MAX_FRAME_LEN` bytes.
    acc: Vec<u8>,
    /// Cleared at end-of-stream, on a read error and on a corrupt frame;
    /// nothing is read from the stream after that.
    open: bool,
}

impl Intake {
    fn new(peer: NodeId) -> Self {
        Intake {
            peer,
            acc: Vec::new(),
            open: true,
        }
    }

    /// Takes one read's worth of bytes. A read usually carries whole
    /// frames only (a round's batch is one write), so they are decoded
    /// where they lie and only a split frame's head is copied.
    fn absorb(&mut self, bytes: &[u8], sink: &mut impl FnMut(Frame)) {
        let whole = if self.acc.is_empty() {
            take_frames(bytes, self.peer, sink)
                .map(|used| self.acc.extend_from_slice(&bytes[used..]))
        } else {
            self.acc.extend_from_slice(bytes);
            take_frames(&self.acc, self.peer, sink).map(|used| drop(self.acc.drain(..used)))
        };
        if whole.is_none() {
            self.open = false;
            self.acc = Vec::new();
        }
    }
}

/// The byte stream under a [`Link`]: a loopback TCP connection or one end
/// of an in-process [`Pipe`]. Reads and writes may answer `WouldBlock`; a
/// read of no bytes is end-of-stream.
trait ByteStream: Any + Send {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// A [`read`](Self::read) that waits at most `patience` for bytes;
    /// zero does not wait.
    fn read_within(&mut self, buf: &mut [u8], patience: Duration) -> io::Result<usize>;
    /// Ends this direction: the far end reads end-of-stream behind
    /// everything already written.
    fn shutdown_write(&mut self);
}

impl ByteStream for TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        Read::read(self, buf)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Write::write(self, buf)
    }

    /// Makes the socket blocking for the one read.
    fn read_within(&mut self, buf: &mut [u8], patience: Duration) -> io::Result<usize> {
        // A zero timeout is an error to the socket API, not "do not wait".
        if patience.is_zero() {
            return Read::read(self, buf);
        }
        self.set_nonblocking(false)?;
        let read = self
            .set_read_timeout(Some(patience))
            .and_then(|()| Read::read(self, buf));
        let _ = self.set_nonblocking(true);
        read
    }

    fn shutdown_write(&mut self) {
        let _ = self.shutdown(Shutdown::Write);
    }
}

/// One end of an in-process duplex byte pipe: a queue of byte chunks each
/// way, and end-of-stream once the far end has shut its write half or
/// dropped.
struct Pipe {
    tx: Option<std::sync::mpsc::Sender<Vec<u8>>>,
    rx: std::sync::mpsc::Receiver<Vec<u8>>,
    /// The chunk being read, and how much of it has been.
    held: Vec<u8>,
    at: usize,
}

/// Both ends of a fresh pipe.
fn pipe() -> (Pipe, Pipe) {
    let ((a_tx, b_rx), (b_tx, a_rx)) = (std::sync::mpsc::channel(), std::sync::mpsc::channel());
    let end = |tx, rx| Pipe {
        tx: Some(tx),
        rx,
        held: Vec::new(),
        at: 0,
    };
    (end(a_tx, a_rx), end(b_tx, b_rx))
}

impl ByteStream for Pipe {
    /// Fills `buf` from the queued chunks, as a socket read takes all it
    /// holds. An empty chunk reads as nothing: only a far end that shut
    /// down or dropped reads as end-of-stream.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut k = 0;
        while k < buf.len() {
            if self.at == self.held.len() {
                match self.rx.try_recv() {
                    Ok(chunk) => (self.held, self.at) = (chunk, 0),
                    Err(_) if k > 0 => break,
                    Err(std::sync::mpsc::TryRecvError::Disconnected) => return Ok(0),
                    Err(_) => return Err(io::ErrorKind::WouldBlock.into()),
                }
            }
            let take = (buf.len() - k).min(self.held.len() - self.at);
            buf[k..k + take].copy_from_slice(&self.held[self.at..self.at + take]);
            (k, self.at) = (k + take, self.at + take);
        }
        Ok(k)
    }

    /// Takes all of `buf`, as one chunk.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match &self.tx {
            Some(tx) if tx.send(buf.to_vec()).is_ok() => Ok(buf.len()),
            _ => Err(io::ErrorKind::BrokenPipe.into()),
        }
    }

    fn read_within(&mut self, buf: &mut [u8], patience: Duration) -> io::Result<usize> {
        if self.at == self.held.len() && !patience.is_zero() {
            match self.rx.recv_timeout(patience) {
                Ok(chunk) => (self.held, self.at) = (chunk, 0),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    return Err(io::ErrorKind::WouldBlock.into())
                }
                Err(_) => return Ok(0),
            }
        }
        self.read(buf)
    }

    fn shutdown_write(&mut self) {
        self.tx = None;
    }
}

/// One connection to a peer, non-blocking, read and written by the
/// endpoint that owns it: a TCP socket or a pipe, through the same code.
struct Link {
    stream: Box<dyn ByteStream>,
    /// Links this endpoint dialed carry [`Redial`] material for mid-run
    /// reconnects; accepted links are repaired by the peer re-dialing us
    /// instead, and a pipe is never repaired.
    redial: Option<Redial>,
    /// Encoded frames queued for the wire, in send order, from a frame
    /// boundary on.
    unflushed: Vec<u8>,
    /// How much of `unflushed` the current connection has taken. The
    /// buffer is emptied only once all of it has, so a replacement
    /// connection can start over at a frame boundary.
    flushed: usize,
    intake: Intake,
}

/// What one link-level flush concluded.
enum SendStatus {
    /// Delivered to the link (possibly into a buffer, ours or the OS's).
    Sent,
    /// Delivered after re-establishing the connection.
    Reconnected,
    /// The link is dead and the reconnect budget is exhausted.
    Gone,
}

impl Link {
    fn new(peer: NodeId, stream: impl ByteStream, redial: Option<Redial>) -> Self {
        Link {
            stream: Box::new(stream),
            redial,
            unflushed: Vec::new(),
            flushed: 0,
            intake: Intake::new(peer),
        }
    }

    /// Nothing queued, nothing half-read, still readable.
    fn is_idle(&self) -> bool {
        self.intake.open && self.intake.acc.is_empty() && self.unflushed.is_empty()
    }

    /// Writes what the stream takes. A full socket is not an error: the
    /// rest stays queued for a later flush, so a peer that stops reading
    /// costs its own link's frames and never the node's round deadline.
    fn write_queued(&mut self) -> io::Result<()> {
        while self.flushed < self.unflushed.len() {
            match self.stream.write(&self.unflushed[self.flushed..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => self.flushed += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.unflushed.clear();
        self.flushed = 0;
        Ok(())
    }

    /// Puts the queued frames on the wire, attempting a bounded reconnect
    /// if the connection is broken. The re-dialed connection carries the
    /// whole queue from its start, so per-link order survives the repair;
    /// what the broken connection half-took arrives twice, which the
    /// protocol reads as a duplicate. On `Gone` the queue stays for a
    /// replacement connection to take over.
    fn flush(&mut self, config: &MeshConfig, sink: &mut impl FnMut(Frame)) -> SendStatus {
        if self.write_queued().is_ok() {
            return SendStatus::Sent;
        }
        let Some(redial) = self.redial else {
            // An accepted link or a pipe: the dialing side owns
            // reconnection, and `MeshTransport::admit` swaps its new
            // connection in if it comes back.
            return SendStatus::Gone;
        };
        for attempt in 0..config.reconnect_attempts {
            thread::sleep(reconnect_delay(config.reconnect_backoff, attempt));
            let Ok(s) = dial(redial.addr, redial.me) else {
                continue;
            };
            self.replace_stream(s, sink);
            if self.write_queued().is_ok() {
                return SendStatus::Reconnected;
            }
        }
        SendStatus::Gone
    }

    /// Swaps in a fresh connection: whole frames the old one still holds
    /// are read out first, a frame it delivered half of is discarded, and
    /// the write queue starts over.
    fn replace_stream(&mut self, stream: impl ByteStream, sink: &mut impl FnMut(Frame)) {
        self.drain(sink);
        self.stream = Box::new(stream);
        self.flushed = 0;
        self.intake = Intake::new(self.intake.peer);
    }

    /// One read, waiting at most `patience` for bytes; whole frames go to
    /// `sink`. `true` if the buffer came back full, that is, if the stream
    /// may hold more.
    fn read_once(&mut self, patience: Duration, sink: &mut impl FnMut(Frame)) -> bool {
        let mut buf = [0u8; 4096];
        match self.stream.read_within(&mut buf, patience) {
            Ok(0) => self.intake.open = false,
            Ok(k) => {
                self.intake.absorb(&buf[..k], sink);
                return k == buf.len();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => self.intake.open = false,
        }
        false
    }

    /// Reads whatever the stream holds, without blocking.
    fn drain(&mut self, sink: &mut impl FnMut(Frame)) {
        while self.intake.open && self.read_once(Duration::ZERO, sink) {}
    }

    /// After the half-close: reads and discards until the peer's
    /// end-of-stream or `until`. Closing with bytes unread, or still
    /// arriving, makes the kernel answer with a reset, which can cost the
    /// peer frames of ours it has not read yet.
    fn linger(&mut self, until: Instant) {
        let mut buf = [0u8; 4096];
        while self.intake.open {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            match self.stream.read_within(&mut buf, left) {
                Ok(k) if k > 0 => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }
}

/// Whether `run`'s open round waits on `link` to `peer`: the link is live
/// and the peer's mark for the round is missing (module doc, step 3).
fn unheard(run: &RunState, gone: &BTreeSet<NodeId>, peer: NodeId, link: &Link) -> bool {
    link.intake.open && !gone.contains(&peer) && !run.heard(peer, run.round)
}

/// Opens a connection to `addr` and announces `me` on it: Nagle off (a
/// round's batch and the next must not wait on the peer's delayed ACK),
/// then the 4-byte little-endian id handshake, then non-blocking like
/// every socket of a running mesh.
fn dial(addr: SocketAddr, me: NodeId) -> io::Result<TcpStream> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.write_all(&(me.index() as u32).to_le_bytes())?;
    s.set_nonblocking(true)?;
    Ok(s)
}

/// How long [`MeshTransport::wait`] blocks at most. A frame from the
/// awaited peer or the round deadline ends the wait by itself; the cap is
/// for what does not — a queue the socket did not take whole, a peer
/// re-dialing our listener. An idle node wakes five hundred times a
/// second, not ten thousand.
const WAIT_SLICE: Duration = Duration::from_millis(2);

/// How long a connection accepted mid-run has to announce its node id.
const KNOCK_PATIENCE: Duration = Duration::from_millis(500);

/// How long an endpoint that timed a live peer out of its last round
/// keeps reading after its half-close (see [`Link::linger`]).
const LINGER: Duration = Duration::from_millis(50);

/// A connection accepted mid-run that has not finished announcing who it
/// is. It is read without blocking, so a mute dialer costs the node
/// nothing but the slot.
struct Knock {
    stream: TcpStream,
    since: Instant,
    id: [u8; 4],
    have: usize,
}

/// One node's endpoint of a channel or TCP mesh. It owns no thread: the
/// driver that polls it is the only one there is.
pub struct MeshTransport {
    me: NodeId,
    n: usize,
    config: MeshConfig,
    links: BTreeMap<NodeId, Link>,
    /// A TCP endpoint's listener, non-blocking and open for the
    /// endpoint's whole life: a peer whose link to us breaks re-dials it
    /// with the same id handshake. A channel endpoint has none.
    listener: Option<TcpListener>,
    knocking: Vec<Knock>,
    /// What the endpoint decides for the instance it runs.
    run: RunState,
    /// The origin of the times `run` is given: the endpoint reads the wall
    /// clock once per `poll`, and once per `wait`.
    origin: Instant,
    /// When `wait` last asked the listener, since `origin`.
    asked: Duration,
    /// Peers declared permanently gone (link dead, reconnect budget
    /// exhausted). The round barrier stops waiting for them.
    gone: BTreeSet<NodeId>,
    /// Successful mid-run link re-establishments.
    reconnects: u64,
    /// Set when every peer is permanently gone: the clean-error surface.
    failure: Option<String>,
}

impl MeshTransport {
    fn new(
        me: NodeId,
        n: usize,
        depth: usize,
        chaos: &LinkChaos,
        links: BTreeMap<NodeId, Link>,
        listener: Option<TcpListener>,
        config: MeshConfig,
    ) -> Self {
        MeshTransport {
            me,
            n,
            config,
            links,
            listener,
            knocking: Vec::new(),
            run: RunState::new(me, n, depth, chaos.keyed(), config.round_timeout),
            origin: Instant::now(),
            asked: Duration::ZERO,
            gone: BTreeSet::new(),
            reconnects: 0,
            failure: None,
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

    /// Arms the endpoint for a new instance on the links it has, under
    /// `config` — nothing about a built link depends on the configuration
    /// it was built under (`dial_timeout` is set-up's alone, the reconnect
    /// budget is read when a flush fails). Only an endpoint that
    /// [`ended_clean`](Self::ended_clean) — or has not run yet — may be
    /// re-armed.
    pub(crate) fn rearm(&mut self, depth: usize, chaos: &LinkChaos, config: MeshConfig) {
        self.config = config;
        self.run = RunState::new(self.me, self.n, depth, chaos.keyed(), config.round_timeout);
    }

    /// The health rule of a standing mesh: this endpoint closed every
    /// round of its instance by marks — no deadline, no peer gone, no
    /// reconnect — and has nothing queued, half-read, unflushed or
    /// knocking. Every frame of an instance precedes its sender's last
    /// mark (`send_traced` sees to it), so when *every* endpoint of a
    /// mesh ended clean, every link of it is empty in both directions.
    pub(crate) fn ended_clean(&self) -> bool {
        self.run.ended_clean()
            && self.gone.is_empty()
            && self.reconnects == 0
            && self.knocking.is_empty()
            && self.links.values().all(Link::is_idle)
    }

    /// Queues one frame behind everything already sent on the link to
    /// `to`; the bytes move at the next flush. Gone peers are skipped:
    /// their link is not touched again until a replacement un-declares
    /// them.
    fn link_send(&mut self, to: NodeId, frame: &Frame) {
        if let Some(link) = self.links.get_mut(&to).filter(|_| !self.gone.contains(&to)) {
            frame::encode_into(&mut link.unflushed, frame);
        }
    }

    /// Flushes every live link: the one point at which a link's bytes
    /// reach its stream (a no-op for links with nothing queued). Books
    /// what the flushes concluded: reconnects are counted, and a dead link
    /// declares its peer gone.
    fn flush_links(&mut self) {
        let run = &mut self.run;
        for (&peer, link) in &mut self.links {
            if self.gone.contains(&peer) {
                continue;
            }
            match link.flush(&self.config, &mut |f| run.ingest(f)) {
                SendStatus::Sent => {}
                SendStatus::Reconnected => self.reconnects += 1,
                SendStatus::Gone => {
                    self.gone.insert(peer);
                }
            }
        }
        if self.gone.len() == self.n - 1 && self.failure.is_none() {
            self.failure = Some(format!(
                "node {}: all {} peers permanently gone (reconnect budget {} exhausted) in round {}",
                self.me,
                self.n - 1,
                self.config.reconnect_attempts,
                self.run.round
            ));
        }
    }

    /// Whether a live link still holds bytes its stream did not take.
    fn flush_pending(&self) -> bool {
        self.links
            .iter()
            .any(|(peer, link)| !link.unflushed.is_empty() && !self.gone.contains(peer))
    }

    /// Moves what has arrived on the links the open round waits on into
    /// the core, without blocking: a link is read up to its peer's mark.
    fn drain(&mut self) {
        let run = &mut self.run;
        for (&peer, link) in &mut self.links {
            while unheard(run, &self.gone, peer, link)
                && link.read_once(Duration::ZERO, &mut |f| run.ingest(f))
            {}
        }
    }

    /// Blocks until something can have changed, the round deadline passes
    /// or `WAIT_SLICE` elapses, whichever is first — what a driver does
    /// on [`PollOutcome::Pending`] instead of sleeping blind. It only
    /// waits and reads: the next [`poll`](Transport::poll) acts on it.
    ///
    /// An endpoint waits on *one* link, that of the first live peer whose
    /// mark for the current round is missing: the round cannot close
    /// before that mark or the deadline, and what the other peers send
    /// meanwhile waits in their links until the next `poll`. Then it lets
    /// in peers that re-dialed: after every wait while a link has ended or
    /// a peer is gone, else at most once per `WAIT_SLICE`, so a healthy
    /// mesh's short waits cost no `accept`. `poll` asks the listener only
    /// while some peer is gone.
    pub fn wait(&mut self) {
        let run = &mut self.run;
        let now = self.origin.elapsed();
        let patience = run.deadline.saturating_sub(now).min(WAIT_SLICE);
        let mut links = self.links.iter_mut();
        if let Some((_, link)) = links.find(|(p, l)| unheard(run, &self.gone, **p, l)) {
            link.read_once(patience, &mut |f| run.ingest(f));
        } else {
            thread::sleep(patience);
        }
        let healthy = self.gone.is_empty() && self.links.values().all(|l| l.intake.open);
        if !healthy || now >= self.asked + WAIT_SLICE {
            self.asked = now;
            self.admit();
        }
    }

    /// Lets re-dialing peers in, without ever blocking: accepts what the
    /// listener holds (at most `n − 1` unannounced connections at once),
    /// reads what id bytes have arrived, and swaps a connection that named
    /// a peer whose link has ended into that link — whatever the old
    /// connection had not flushed stays queued, ahead of anything sent
    /// later — and un-declares that peer gone. A connection that stays
    /// mute past [`KNOCK_PATIENCE`], names a node that does not dial us,
    /// or names one whose link is still up (a duplicate) is dropped.
    fn admit(&mut self) {
        if let Some(listener) = &self.listener {
            while self.knocking.len() < self.n - 1 {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_ok() && stream.set_nodelay(true).is_ok()
                        {
                            self.knocking.push(Knock {
                                stream,
                                since: Instant::now(),
                                id: [0; 4],
                                have: 0,
                            });
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }
        let run = &mut self.run;
        for mut knock in std::mem::take(&mut self.knocking) {
            match Read::read(&mut knock.stream, &mut knock.id[knock.have..]) {
                Ok(0) => continue,
                Ok(k) => knock.have += k,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => continue,
            }
            if knock.have < knock.id.len() {
                if knock.since.elapsed() < KNOCK_PATIENCE {
                    self.knocking.push(knock);
                }
                continue;
            }
            // Only higher-indexed peers dial us, so only they re-dial; an id
            // no `NodeId` holds is nobody's.
            let Some(peer) = NodeId::try_new(u32::from_le_bytes(knock.id)).filter(|p| *p > self.me)
            else {
                continue;
            };
            let Some(link) = self.links.get_mut(&peer) else {
                continue;
            };
            link.drain(&mut |f| run.ingest(f));
            if !link.intake.open {
                link.replace_stream(knock.stream, &mut |f| run.ingest(f));
                if self.gone.remove(&peer) {
                    self.failure = None;
                }
            }
        }
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
        let Some((copies, _)) = self.run.send(to, &msg.path) else {
            return;
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
        self.run.last_trace.clone()
    }

    fn poll(&mut self) -> PollOutcome {
        let now = self.origin.elapsed();
        if !self.run.started {
            return PollOutcome::Event(self.run.start(now));
        }
        if let Some(round) = self.run.take_mark_due() {
            // This poll is the first since a Timeout event: the driver has
            // dispatched every send of that round, so the mark goes out
            // now — after the envelopes, per-link FIFO.
            let me = self.me;
            let mark = Frame::Mark { src: me, round };
            for peer in NodeId::all(self.n).filter(|&p| p != me) {
                self.link_send(peer, &mark);
            }
        }
        // One write per link carries the round's envelopes and the mark
        // just queued behind them.
        self.flush_links();
        if !self.gone.is_empty() {
            // A peer whose link just failed may have re-dialed already:
            // look before the barrier stops waiting for it.
            self.admit();
        }
        if self.run.round == self.run.depth {
            // The final timeout has been emitted; the machine is done. The
            // endpoint is once its sockets have taken everything queued —
            // or, for a peer that does not read, at the deadline.
            if self.flush_pending() && now < self.run.deadline {
                return PollOutcome::Pending;
            }
            return PollOutcome::Closed;
        }
        if self.run.deliver_queue.is_empty() {
            self.drain();
        }
        let event = self.run.next(now, &self.gone);
        event.map_or(PollOutcome::Pending, PollOutcome::Event)
    }

    fn stats(&self) -> TransportStats {
        self.run.stats
    }
}

impl Drop for MeshTransport {
    /// Half-closes every link: the end-of-stream travels behind
    /// everything already written, so no flushed frame is lost. An endpoint
    /// that heard every live peer's last mark has nothing left to arrive
    /// and closes at once. One that ran to its end without — it closed the
    /// last round by deadline — keeps reading those peers until their
    /// end-of-stream or `LINGER`, so that a slow peer's late frames do
    /// not meet a closed socket and bounce back as a reset.
    fn drop(&mut self) {
        for link in self.links.values_mut() {
            link.stream.shutdown_write();
        }
        let run = &self.run;
        if run.round < run.depth || run.depth == 0 {
            return;
        }
        let until = Instant::now() + LINGER;
        for (peer, link) in &mut self.links {
            if !self.gone.contains(peer) && !run.heard(*peer, run.depth - 1) {
                link.linger(until);
            }
        }
    }
}

/// Builds an `n`-node in-process mesh: one byte pipe per pair of nodes,
/// each end a link of the kind a TCP connection makes, with no listener
/// behind it and no redial. Element `i` of the result is node `i`'s
/// endpoint; move each to its own thread and drive them concurrently.
pub fn channel_mesh(
    n: usize,
    depth: usize,
    chaos: &LinkChaos,
    config: MeshConfig,
) -> Vec<MeshTransport> {
    let mut links: Vec<BTreeMap<NodeId, Link>> = (0..n).map(|_| BTreeMap::new()).collect();
    for a in NodeId::all(n) {
        for b in NodeId::all(n).filter(|&b| b > a) {
            let (at_a, at_b) = pipe();
            links[a.index()].insert(b, Link::new(b, at_a, None));
            links[b.index()].insert(a, Link::new(a, at_b, None));
        }
    }
    NodeId::all(n)
        .zip(links)
        .map(|(me, links)| MeshTransport::new(me, n, depth, chaos, links, None, config))
        .collect()
}

/// Builds an `n`-node mesh over loopback TCP with ephemeral ports and
/// returns node `i`'s endpoint at element `i`, all on the calling thread:
/// it binds `n` listeners, makes every node dial every lower-indexed peer,
/// then lets every node accept its higher-indexed ones. No accept waits:
/// each dial has completed in the kernel and sits in the listener's accept
/// queue, id handshake and all, before the first accept. That needs a
/// listener to queue `n − 1` pending connections — 63 at the `n = 64` the
/// arena engines stop at — and `std` listens with a backlog of 128
/// (`LISTEN_BACKLOG`). A larger mesh is refused with `InvalidInput`: its
/// dials would wait in `connect` for accepts that only come after them.
/// The mesh itself runs no thread.
pub fn tcp_mesh(
    n: usize,
    depth: usize,
    chaos: &LinkChaos,
    config: MeshConfig,
) -> io::Result<Vec<MeshTransport>> {
    if n > LISTEN_BACKLOG + 1 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a loopback mesh this large overflows a listener's accept queue",
        ));
    }
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(l.local_addr()?);
        listeners.push(l);
    }
    let dialed = NodeId::all(n)
        .map(|me| dial_lower(me, &addrs, config.dial_timeout))
        .collect::<io::Result<Vec<_>>>()?;
    NodeId::all(n)
        .zip(listeners)
        .zip(dialed)
        .map(|((me, listener), links)| accept_higher(me, n, listener, links, depth, chaos, config))
        .collect()
}

/// Joins a TCP mesh as node `me` of `addrs.len()` nodes at explicit
/// addresses — the `dagree serve` entry point, where each node is its own
/// process. Binds `addrs[me]`, dials every lower-indexed peer (retrying
/// until [`MeshConfig::dial_timeout`], since peers may not be up yet) and
/// accepts connections from every higher-indexed one, waiting for them no
/// longer than the same `dial_timeout`.
pub fn tcp_join(
    me: NodeId,
    addrs: &[SocketAddr],
    depth: usize,
    chaos: LinkChaos,
    config: MeshConfig,
) -> io::Result<MeshTransport> {
    let listener = TcpListener::bind(addrs[me.index()])?;
    let links = dial_lower(me, addrs, config.dial_timeout)?;
    accept_higher(me, addrs.len(), listener, links, depth, &chaos, config)
}

/// The backlog `std` passes to `listen(2)` on Linux: how many dialed
/// connections a listener holds before its first accept.
const LISTEN_BACKLOG: usize = 128;

/// The pause between two tries at something a peer has to do first: a
/// dial before the peer listens, an accept before the peer dials.
const RETRY_PAUSE: Duration = Duration::from_millis(20);

/// The dialing half of the set-up handshake: `me` connects to every
/// lower-indexed peer at `addrs`, retrying each for up to `budget`. Every
/// connection opens with a 4-byte little-endian node index from the
/// dialer, so the acceptor knows who it is talking to (transport-level
/// authentication, the paper's oral-message assumption (c) — good enough
/// on loopback).
fn dial_lower(
    me: NodeId,
    addrs: &[SocketAddr],
    budget: Duration,
) -> io::Result<BTreeMap<NodeId, Link>> {
    let mut links = BTreeMap::new();
    for (peer, &addr) in addrs.iter().enumerate().take(me.index()) {
        let s = dial_with_retry(addr, me, budget)?;
        let peer = NodeId::new(peer);
        links.insert(peer, Link::new(peer, s, Some(Redial { addr, me })));
    }
    Ok(links)
}

/// The accepting half: `me` adds a link from every higher-indexed peer of
/// `n` to the `links` it dialed, waiting for them no longer than the
/// `dial_timeout` of `config`, and becomes an endpoint that keeps
/// `listener` for the peers that re-dial later.
fn accept_higher(
    me: NodeId,
    n: usize,
    listener: TcpListener,
    mut links: BTreeMap<NodeId, Link>,
    depth: usize,
    chaos: &LinkChaos,
    config: MeshConfig,
) -> io::Result<MeshTransport> {
    // The listener is never blocked on: peers that have not dialed yet are
    // waited for in short pauses, and not past the deadline.
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + config.dial_timeout;
    let mut pause = Duration::from_micros(50);
    while links.len() < n - 1 {
        match listener.accept() {
            Ok((mut s, _)) => {
                let left = deadline.saturating_duration_since(Instant::now());
                let peer = accept_handshake(&mut s, me, n, left)?;
                // A second connection under one id would silently overwrite
                // the first and leave the mesh a peer short.
                if links.insert(peer, Link::new(peer, s, None)).is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "handshake announced a node id that is already connected",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "a higher-indexed peer never dialed",
                    ));
                }
                // In-process the peers are microseconds away; across
                // processes the pause settles at the dialers' cadence.
                thread::sleep(pause);
                pause = (pause * 2).min(RETRY_PAUSE);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let listener = Some(listener);
    Ok(MeshTransport::new(
        me, n, depth, chaos, links, listener, config,
    ))
}

/// The accepting side of the set-up handshake: Nagle off, then the
/// dialer's 4-byte id, which must arrive within `patience` (a peer that
/// connects and never speaks must not hang the acceptor) and must name a
/// node that dials us — only higher-indexed peers do. The connection
/// leaves non-blocking.
fn accept_handshake(
    s: &mut TcpStream,
    me: NodeId,
    n: usize,
    patience: Duration,
) -> io::Result<NodeId> {
    s.set_nonblocking(false)?;
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
    let peer = NodeId::try_new(u32::from_le_bytes(id))
        .filter(|peer| *peer > me && peer.index() < n)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "handshake announced a node id that does not dial this node",
            )
        })?;
    s.set_nonblocking(true)?;
    Ok(peer)
}

fn dial_with_retry(addr: SocketAddr, me: NodeId, budget: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + budget;
    loop {
        match dial(addr, me) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => thread::sleep(RETRY_PAUSE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Disposition, DropCause};
    use degradable::{AgreementValue, NodeEvent, Path};

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
        // `send` only queues: node 0's next poll is the flush point, and
        // it puts the envelope on the pipe with Mark(0) behind it.
        assert_eq!(n0.poll(), PollOutcome::Pending);
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
        // Node 0 hears node 1's Mark(0) and advances; node 1 read node
        // 0's mark with the envelope and follows.
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
        // Its end of the pipe stays open, so flushes succeed and the
        // dead-link detector never fires — only the wall-clock deadline can
        // close the round, and that expiry is a (possibly false) timeout. A
        // *gone* peer (pipe closed) is the separate, instantly-detected
        // case — see
        // `gone_channel_peer_is_detected_and_rounds_advance_without_deadline`.
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

    /// Node 0 of an `n`-node mesh whose links are pipes, and the far end
    /// of each link in peer order: what a test writes at `far[p - 1]`
    /// reaches node 0 as node `p`'s bytes.
    fn piped_node_0(n: usize, depth: usize) -> (MeshTransport, Vec<Pipe>) {
        let (links, far) = (1..n)
            .map(|p| {
                let (near, far) = pipe();
                ((nid(p), Link::new(nid(p), near, None)), far)
            })
            .unzip();
        let chaos = LinkChaos::healthy();
        let config = MeshConfig::default();
        let t = MeshTransport::new(nid(0), n, depth, &chaos, links, None, config);
        (t, far)
    }

    /// Writes `f`, encoded, at one end of a pipe.
    fn put(end: &mut Pipe, f: &Frame) {
        let bytes = frame::encode(f);
        assert_eq!(end.write(&bytes).unwrap(), bytes.len());
    }

    #[test]
    fn early_envelopes_are_gated_until_their_round() {
        // Hand-feed node 0's link from node 2: a level-2 envelope (round-1
        // traffic from a peer that has raced ahead) must not surface during
        // round 0 — the machine would discard it as from the future.
        let (mut t, mut far) = piped_node_0(3, 2);
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        put(
            &mut far[1],
            &envelope(2, Path::root(nid(1)).child(nid(2)), 7),
        );
        assert_eq!(t.poll(), PollOutcome::Pending, "future envelope gated");
        // Marks for round 0 from both peers, each on its own link, release
        // the next round.
        put(&mut far[0], &mark(1, 0));
        put(&mut far[1], &mark(2, 0));
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
        // Node 1's endpoint (and thus its end of the pipe) is dropped: node
        // 0's first flush fails cleanly, the peer is marked gone, and every
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
        let start = Instant::now();
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        // The dead link is found where a TCP one is: at the flush, which
        // is that poll.
        assert_eq!(
            n0.gone_peers().iter().copied().collect::<Vec<_>>(),
            [nid(1)]
        );
        assert!(n0.failure().is_some(), "all peers gone is a clean error");
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

    /// The link to `peer`.
    fn tcp_link(t: &mut MeshTransport, peer: usize) -> &mut Link {
        t.links.get_mut(&nid(peer)).expect("a link to the peer")
    }

    /// The stream under `link`, as the type it is.
    fn stream_of<S: ByteStream>(link: &Link) -> &S {
        let stream: &dyn Any = &*link.stream;
        stream.downcast_ref().expect("a stream of that type")
    }

    /// The connection under the TCP link to `peer`.
    fn tcp_stream(t: &MeshTransport, peer: usize) -> &TcpStream {
        stream_of(&t.links[&nid(peer)])
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
        // deliver the whole unflushed batch in order — and node 0 must
        // let the new connection in through its listener so traffic keeps
        // flowing.
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
        // The re-dialed connection reaches node 0 through its listener:
        // driving it adopts the replacement, and every frame of the batch
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
        let link = tcp_link(&mut n1, 0);
        let redial = link.redial.expect("node 1 dialed node 0");
        let fresh = dial(redial.addr, redial.me).unwrap();
        link.replace_stream(fresh, &mut |_| {});
        // Node 0 lets the new connection in after a wait, and its next
        // poll flushes the envelope queued before the swap onto it.
        let start = Instant::now();
        loop {
            n0.wait();
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

    /// Binds a listener for node 0 of an `n`-node mesh and runs the
    /// accepting half of the set-up handshake on a worker thread, handing
    /// back the address a hostile dialer should connect to.
    fn join_as_node_0(
        n: usize,
        config: MeshConfig,
    ) -> (SocketAddr, thread::JoinHandle<io::Result<MeshTransport>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = thread::spawn(move || {
            let chaos = LinkChaos::healthy();
            accept_higher(nid(0), n, listener, BTreeMap::new(), 1, &chaos, config)
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
    fn a_mesh_that_would_overflow_an_accept_queue_is_refused() {
        let err = tcp_mesh(
            LISTEN_BACKLOG + 2,
            1,
            &LinkChaos::healthy(),
            MeshConfig::default(),
        )
        .err()
        .expect("refused before any listener is bound");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
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
    fn set_up_gives_up_on_a_peer_that_never_dials() {
        // Node 0 of two accepts node 1's connection — which never comes.
        let (_addr, join) = join_as_node_0(
            2,
            MeshConfig {
                dial_timeout: Duration::from_millis(50),
                ..MeshConfig::default()
            },
        );
        let start = Instant::now();
        let err = join.join().unwrap().err().expect("nobody dialed");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the set-up accept must be bounded by dial_timeout"
        );
    }

    /// Polls and waits like a driver until the endpoint produces something
    /// other than `Pending`.
    fn next_outcome(t: &mut MeshTransport) -> PollOutcome {
        let start = Instant::now();
        loop {
            match t.poll() {
                PollOutcome::Pending => t.wait(),
                outcome => return outcome,
            }
            assert!(start.elapsed() < Duration::from_secs(10), "endpoint hung");
        }
    }

    #[test]
    fn mute_and_lying_dialers_mid_round_cost_the_node_nothing() {
        let mut mesh = tcp_mesh(3, 1, &LinkChaos::healthy(), MeshConfig::default()).unwrap();
        for t in &mut mesh {
            assert_eq!(
                t.poll(),
                PollOutcome::Event(NodeEvent::Timeout { round: 0 })
            );
        }
        let mut n0 = mesh.remove(0);
        let addr = n0.listener.as_ref().unwrap().local_addr().unwrap();
        let link_to_1 = tcp_stream(&n0, 1).peer_addr().unwrap();
        // Three liars — an id that does not dial node 0, one past the
        // mesh, one whose link is up — and a dialer that never speaks.
        let _liars: Vec<TcpStream> = [0u32, 9, 1, 65_538]
            .into_iter()
            .map(|id| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&id.to_le_bytes()).unwrap();
                s
            })
            .collect();
        let _mute = TcpStream::connect(addr).unwrap();
        // The peers have not sent their marks, so every wait runs its
        // slice and then looks at the listener; none may sit in a read of
        // the mute dialer's id (that used to be a 500 ms blocking read).
        let start = Instant::now();
        for _ in 0..10 {
            assert_eq!(n0.poll(), PollOutcome::Pending);
            n0.wait();
        }
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "ten waits took {:?}",
            start.elapsed()
        );
        assert_eq!(n0.knocking.len(), 1, "only the mute one waits");
        // The round closes when the marks arrive — by marks, on time, on
        // the links the mesh was built with.
        for t in &mut mesh {
            t.poll();
        }
        assert_eq!(
            next_outcome(&mut n0),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(n0.stats().false_timeouts, 0);
        assert_eq!(tcp_stream(&n0, 1).peer_addr().unwrap(), link_to_1);
        assert!(n0.gone_peers().is_empty());
        // And the mute dialer's slot is freed once its patience is spent.
        thread::sleep(KNOCK_PATIENCE);
        n0.wait();
        assert!(n0.knocking.is_empty());
    }

    #[test]
    fn a_healthy_endpoint_lets_a_mid_round_dialer_knock_within_two_slices() {
        let mut mesh = tcp_mesh(3, 1, &LinkChaos::healthy(), MeshConfig::default()).unwrap();
        for t in &mut mesh {
            assert_eq!(
                t.poll(),
                PollOutcome::Event(NodeEvent::Timeout { round: 0 })
            );
        }
        let mut n0 = mesh.remove(0);
        // Mid-round on a mesh with every link up: the peers have not
        // flushed their marks, so each wait runs its whole slice.
        for _ in 0..3 {
            assert_eq!(n0.poll(), PollOutcome::Pending);
            n0.wait();
        }
        let addr = n0.listener.as_ref().unwrap().local_addr().unwrap();
        let _dialer = TcpStream::connect(addr).unwrap();
        for _ in 0..2 {
            assert_eq!(n0.poll(), PollOutcome::Pending);
            n0.wait();
        }
        assert_eq!(n0.knocking.len(), 1, "the dialer waited past two slices");
        assert!(n0.gone_peers().is_empty());
    }

    fn mark(src: usize, round: usize) -> Frame {
        Frame::Mark {
            src: nid(src),
            round,
        }
    }

    /// Feeds `chunks` to a fresh intake of the link to node 1, one absorb
    /// each.
    fn absorb_all(chunks: &[&[u8]]) -> (Intake, Vec<Frame>) {
        let mut intake = Intake::new(nid(1));
        let mut got = Vec::new();
        for chunk in chunks {
            intake.absorb(chunk, &mut |f| got.push(f));
            assert!(intake.acc.len() <= 4 + MAX_FRAME_LEN as usize);
        }
        (intake, got)
    }

    #[test]
    fn a_batch_split_at_any_byte_decodes_to_the_same_frames() {
        let frames = [
            envelope(1, Path::root(nid(0)).child(nid(1)), 7),
            mark(1, 0),
            Frame::Envelope {
                src: nid(1),
                msg: ByzMsg {
                    path: Path::root(nid(0)),
                    value: AgreementValue::Default,
                },
                trace: Some(TraceCtx::new(3, vec![0, 1])),
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            frame::encode_into(&mut wire, f);
        }
        for cut in 0..=wire.len() {
            let (intake, got) = absorb_all(&[&wire[..cut], &wire[cut..]]);
            assert_eq!(got, frames, "split at byte {cut}");
            assert!(intake.open && intake.acc.is_empty(), "split at byte {cut}");
        }
    }

    #[test]
    fn the_length_prefix_is_bounded_and_so_is_the_accumulator() {
        // One past the limit closes the intake on the prefix alone.
        let (intake, got) = absorb_all(&[&(MAX_FRAME_LEN + 1).to_le_bytes()]);
        assert!(!intake.open && got.is_empty() && intake.acc.is_empty());
        // Exactly the limit is a frame like any other: a traced envelope
        // whose trace section is padded out (a malformed trace degrades to
        // an untraced delivery), arriving in 64 KiB reads behind a frame
        // and ahead of another.
        let mut big = frame::encode(&Frame::Envelope {
            src: nid(1),
            msg: ByzMsg {
                path: Path::root(nid(1)),
                value: AgreementValue::Value(5),
            },
            trace: Some(TraceCtx::new(3, vec![1])),
        });
        big.resize(4 + MAX_FRAME_LEN as usize, 0);
        big[..4].copy_from_slice(&MAX_FRAME_LEN.to_le_bytes());
        let mut wire = frame::encode(&mark(1, 0));
        wire.extend_from_slice(&big);
        wire.extend_from_slice(&frame::encode(&mark(1, 1)));
        let chunks: Vec<&[u8]> = wire.chunks(64 << 10).collect();
        let (intake, got) = absorb_all(&chunks);
        assert!(intake.open && intake.acc.is_empty());
        assert_eq!(
            got,
            [mark(1, 0), envelope(1, Path::root(nid(1)), 5), mark(1, 1)]
        );
    }

    #[test]
    fn a_corrupt_frame_delivers_what_came_before_it_and_nothing_after() {
        // One 4 KiB read of a hundred frames, the 41st with an unknown tag.
        let mut wire = Vec::new();
        let mut bad_at = 0;
        for k in 0..100 {
            if k == 40 {
                bad_at = wire.len() + 4;
            }
            frame::encode_into(&mut wire, &envelope(1, Path::root(nid(1)), k));
        }
        assert!(wire.len() <= 4096);
        wire[bad_at] = 0x7f;
        let (intake, got) = absorb_all(&[&wire]);
        let before: Vec<Frame> = (0..40)
            .map(|k| envelope(1, Path::root(nid(1)), k))
            .collect();
        assert_eq!(got, before);
        assert!(!intake.open && intake.acc.is_empty());
        // A frame that decodes but names a node other than the link's peer
        // is the same thing: this stream is not node 1 speaking any more.
        let mut wire = Vec::new();
        for f in [mark(1, 0), mark(2, 0), mark(1, 1)] {
            frame::encode_into(&mut wire, &f);
        }
        let (intake, got) = absorb_all(&[&wire]);
        assert_eq!(got, [mark(1, 0)]);
        assert!(!intake.open && intake.acc.is_empty());
    }

    #[test]
    fn marks_for_rounds_that_cannot_close_any_more_are_not_kept() {
        let (n, depth) = (4, 2);
        let (mut t, mut far) = piped_node_0(n, depth);
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        // 10 003 marks: every peer's for rounds 0 and 1, and for 3 333
        // rounds this instance does not have (a peer can name 2³² of them).
        for round in 0..3_334 {
            for peer in 1..n {
                put(&mut far[peer - 1], &mark(peer, round));
            }
        }
        put(&mut far[0], &mark(1, u32::MAX as usize));
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        let kept = |t: &MeshTransport| t.run.marks.values().map(BTreeSet::len).sum::<usize>();
        assert_eq!(kept(&t), depth * (n - 1));
        // Nor is a mark for a round already closed.
        t.run.marks.clear();
        put(&mut far[0], &mark(1, 0));
        assert_eq!(t.poll(), PollOutcome::Pending);
        assert_eq!(kept(&t), 0);
    }

    /// BYZ(1,1) at N = 4 with node 0 the sender.
    fn byz_1_1() -> degradable::ByzInstance {
        let params = degradable::Params::new(1, 1).unwrap();
        degradable::ByzInstance::new(4, params, nid(0)).unwrap()
    }

    /// Runs one honest node of [`byz_1_1`] — node 0 sends 7 — on
    /// `endpoint` as `dagree serve` would, its events recorded.
    fn honest_node(endpoint: MeshTransport) -> crate::NodeOutcome {
        let (instance, me) = (byz_1_1(), endpoint.me());
        let machine =
            degradable::NodeStateMachine::new(&instance, me, AgreementValue::Value(7), None);
        let options = crate::MeshDriveOptions {
            record_events: true,
            ..Default::default()
        };
        crate::drive_mesh(endpoint, machine, &options)
    }

    /// What a Byzantine node 3 of [`byz_1_1`] says on its link to `peer`:
    /// its own marks for both rounds and no envelope (f = 1 ≤ m, so D.1
    /// binds), and `to_victim` after them on the link to node 1.
    fn node_3_says(peer: usize, to_victim: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for round in 0..byz_1_1().depth() {
            frame::encode_into(&mut bytes, &mark(3, round));
        }
        if peer == 1 {
            bytes.extend_from_slice(to_victim);
        }
        bytes
    }

    /// The config every honest node of the hostile runs is built with.
    fn hostile_run_config() -> MeshConfig {
        MeshConfig {
            round_timeout: Duration::from_secs(3),
            ..MeshConfig::default()
        }
    }

    /// Three honest nodes of [`byz_1_1`], each joined and driven on its own
    /// thread as `dagree serve` would, and a Byzantine node 3 played by
    /// hand: it dials all three, announces itself and says
    /// [`node_3_says`] to each — all of that well before it lets the
    /// sender start (node 0 waits for its last peer to dial), so whatever
    /// `to_victim` can do to node 1 it has done before the sender's value
    /// is on its way. Returns the honest nodes' outcomes, event logs
    /// included.
    fn run_against_a_hostile_node_3(to_victim: &[u8]) -> Vec<crate::NodeOutcome> {
        let listeners: Vec<TcpListener> = (0..3)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let mut addrs: Vec<SocketAddr> =
            listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        addrs.push(addrs[0]); // nobody dials the highest node
        let drivers: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let addrs = addrs.clone();
                thread::spawn(move || {
                    let config = hostile_run_config();
                    let (me, n, patience) = (nid(i), addrs.len(), config.dial_timeout);
                    let (chaos, depth) = (LinkChaos::healthy(), byz_1_1().depth());
                    let endpoint = dial_lower(me, &addrs, patience)
                        .and_then(|links| {
                            accept_higher(me, n, listener, links, depth, &chaos, config)
                        })
                        .expect("set-up");
                    honest_node(endpoint)
                })
            })
            .collect();
        let hostile: Vec<TcpStream> = [1, 2, 0]
            .into_iter()
            .map(|peer| {
                if peer == 0 {
                    thread::sleep(Duration::from_millis(150));
                }
                let mut s = TcpStream::connect(addrs[peer]).unwrap();
                s.write_all(&3u32.to_le_bytes()).unwrap();
                s.write_all(&node_3_says(peer, to_victim)).unwrap();
                s
            })
            .collect();
        let outcomes = drivers
            .into_iter()
            .map(|d| d.join().expect("an honest node died"))
            .collect();
        drop(hostile);
        outcomes
    }

    /// [`run_against_a_hostile_node_3`] over a channel mesh: node 3's
    /// endpoint is taken apart, and its ends of the pipes say
    /// [`node_3_says`] before any honest node runs.
    fn run_against_a_hostile_node_3_over_pipes(to_victim: &[u8]) -> Vec<crate::NodeOutcome> {
        let depth = byz_1_1().depth();
        let mut mesh = channel_mesh(4, depth, &LinkChaos::healthy(), hostile_run_config());
        let mut hostile = std::mem::take(&mut mesh.pop().unwrap().links);
        for (peer, link) in &mut hostile {
            let bytes = node_3_says(peer.index(), to_victim);
            assert_eq!(link.stream.write(&bytes).unwrap(), bytes.len());
        }
        let drivers: Vec<_> = mesh
            .into_iter()
            .map(|endpoint| thread::spawn(move || honest_node(endpoint)))
            .collect();
        let outcomes = drivers
            .into_iter()
            .map(|d| d.join().expect("an honest node died"))
            .collect();
        drop(hostile);
        outcomes
    }

    /// The honest outcomes of node 3 saying `to_victim`, over TCP and over
    /// pipes: the link code that refuses it is one.
    fn against_a_hostile_node_3(to_victim: &[u8]) -> [Vec<crate::NodeOutcome>; 2] {
        [
            run_against_a_hostile_node_3(to_victim),
            run_against_a_hostile_node_3_over_pipes(to_victim),
        ]
    }

    /// Every honest receiver decided the fault-free sender's 7, and every
    /// round closed on marks.
    fn assert_d1_held(outcomes: &[crate::NodeOutcome]) {
        assert_eq!(outcomes[0].decision, None, "the sender does not decide");
        for o in &outcomes[1..] {
            assert_eq!(
                o.decision,
                Some(AgreementValue::Value(7)),
                "node {}",
                o.node
            );
        }
        for o in outcomes {
            assert_eq!(o.stats.false_timeouts, 0, "node {}", o.node);
        }
    }

    #[test]
    fn marks_forged_in_other_nodes_names_cannot_close_a_round() {
        // Four 13-byte frames: with them believed, node 1 closes both
        // rounds before node 0's value arrives and relays nothing, and both
        // fault-free receivers decide V_d against a fault-free sender.
        let mut forged = Vec::new();
        for round in 0..2 {
            for name in [0, 2] {
                frame::encode_into(&mut forged, &mark(name, round));
            }
        }
        assert_eq!(forged.len(), 4 * 13);
        for outcomes in against_a_hostile_node_3(&forged) {
            assert_d1_held(&outcomes);
        }
    }

    #[test]
    fn an_envelope_forged_in_another_nodes_name_never_reaches_the_machine() {
        // Node 2's relay of the sender's value, as node 3 would have it.
        let label = Path::root(nid(0)).child(nid(2));
        let forged = frame::encode(&envelope(2, label.clone(), 99));
        for outcomes in against_a_hostile_node_3(&forged) {
            assert_d1_held(&outcomes);
            let victim = &outcomes[1];
            for event in &victim.events {
                if let degradable::Step::Deliver { msg, .. } = event {
                    assert_eq!(msg.value, AgreementValue::Value(7), "{event:?}");
                }
            }
            assert_eq!(victim.view.seen(&label), AgreementValue::Value(7));
        }
    }

    #[test]
    fn a_frame_whose_path_repeats_an_id_ends_the_link_not_the_node() {
        // 22 bytes on the wire, mid-round: `01 | src | 00 | len=2 | 0 | 0`.
        let mut hostile = 18u32.to_le_bytes().to_vec();
        hostile.push(0x01);
        hostile.extend_from_slice(&3u32.to_le_bytes());
        hostile.push(0x00);
        for word in [2u32, 0, 0] {
            hostile.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(hostile.len(), 22);
        for outcomes in against_a_hostile_node_3(&hostile) {
            assert_d1_held(&outcomes);
        }
    }

    #[test]
    fn a_peer_that_stops_reading_cannot_hold_the_round_past_its_deadline() {
        let round_timeout = Duration::from_millis(100);
        let (addr, join) = join_as_node_0(
            2,
            MeshConfig {
                round_timeout,
                ..MeshConfig::default()
            },
        );
        let mut mute = TcpStream::connect(addr).unwrap();
        mute.write_all(&1u32.to_le_bytes()).unwrap();
        let mut n0 = join.join().unwrap().unwrap();
        let start = Instant::now();
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        // 24 MiB for a peer that reads nothing: more than a loopback
        // socket pair buffers, so a blocking write would hang here.
        let ctx = TraceCtx::new(1, vec![0; 1000]);
        for k in 0..3 << 10 {
            n0.send_traced(
                nid(1),
                ByzMsg {
                    path: Path::root(nid(0)),
                    value: AgreementValue::Value(k),
                },
                Some(ctx.clone()),
            );
        }
        assert_eq!(
            next_outcome(&mut n0),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        assert!(start.elapsed() >= round_timeout, "closed by the deadline");
        assert_eq!(n0.stats().false_timeouts, 1);
        let link = tcp_link(&mut n0, 1);
        assert!(
            0 < link.flushed && link.flushed < link.unflushed.len(),
            "the socket took {} of {} bytes",
            link.flushed,
            link.unflushed.len()
        );
        // The endpoint holds out for the rest of the queue until the next
        // deadline, and no longer.
        assert_eq!(next_outcome(&mut n0), PollOutcome::Closed);
        assert!(start.elapsed() >= 2 * round_timeout);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(!n0.ended_clean());
    }

    #[test]
    fn an_endpoint_that_timed_a_peer_out_of_the_last_round_lingers_for_it() {
        let config = MeshConfig {
            round_timeout: Duration::from_millis(30),
            ..MeshConfig::default()
        };
        let mut mesh = tcp_mesh(2, 1, &LinkChaos::healthy(), config).unwrap();
        let mut n1 = mesh.pop().unwrap();
        let mut n0 = mesh.pop().unwrap();
        let greeting = |from: usize| ByzMsg {
            path: Path::root(nid(from)),
            value: AgreementValue::Value(from as u64),
        };
        // Node 0 runs its one round while node 1 is stalled, times it
        // out, and closes: the half-close goes out, the socket stays.
        assert_eq!(
            n0.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        n0.send(nid(1), greeting(0));
        assert_eq!(
            next_outcome(&mut n0),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        assert_eq!(n0.poll(), PollOutcome::Closed);
        assert_eq!(n0.stats().false_timeouts, 1);
        assert!(!n0.ended_clean());
        let closing = thread::spawn(move || {
            let start = Instant::now();
            drop(n0);
            start.elapsed()
        });
        // Node 1 wakes up late: what it sends meets an open socket, and
        // everything node 0 flushed to it — envelope, mark, end-of-stream
        // — is there to read.
        assert_eq!(
            n1.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        n1.send(nid(0), greeting(1));
        match next_outcome(&mut n1) {
            PollOutcome::Event(NodeEvent::Deliver { src, msg }) => {
                assert_eq!((src, msg), (nid(0), greeting(0)));
            }
            other => panic!("expected node 0's envelope, got {other:?}"),
        }
        assert_eq!(
            next_outcome(&mut n1),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        assert_eq!(n1.poll(), PollOutcome::Closed);
        assert_eq!(n1.stats().false_timeouts, 0);
        assert!(n1.gone_peers().is_empty() && n1.reconnects() == 0);
        // Node 1 stays open, so node 0 lingers its full time and no more.
        let took = closing.join().unwrap();
        assert!(took >= LINGER, "closed after {took:?}");
        assert!(took < Duration::from_secs(2), "closed after {took:?}");
        // Node 1 heard node 0's last mark: nothing is left to arrive, and
        // it closes at once.
        let start = Instant::now();
        drop(n1);
        assert!(start.elapsed() < LINGER);
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
        // A traced envelope and an untraced one behind it, both sent in
        // round 0 as a driver would: before the flush that puts Mark(0)
        // behind them.
        let ctx = TraceCtx::new(4, vec![0]);
        n0.send_traced(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(11u64),
            },
            Some(ctx.clone()),
        );
        n0.send(
            nid(1),
            ByzMsg {
                path: Path::root(nid(0)),
                value: AgreementValue::Value(12u64),
            },
        );
        assert_eq!(n0.poll(), PollOutcome::Pending, "the flush point");
        match n1.poll() {
            PollOutcome::Event(NodeEvent::Deliver { src, .. }) => assert_eq!(src, nid(0)),
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(n1.last_trace(), Some(ctx.clone()));
        // Untraced traffic resets the slot: the context never outlives
        // the delivery it was stamped on.
        match n1.poll() {
            PollOutcome::Event(NodeEvent::Deliver { .. }) => {}
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(n1.last_trace(), None);
    }

    #[test]
    fn an_endpoint_keeps_the_keyed_plan_and_drops_the_adaptive_overlay() {
        let cut = simnet::LinkFaultKind::Cut { from_round: 0 };
        let plan = simnet::LinkFaultPlan::healthy().with(nid(0), nid(1), cut);
        let impure = LinkChaos::new(plan, 3).with_adaptive(crate::HotEdgeCutter::new(1));
        assert!(!impure.is_pure());
        let root = Path::root(nid(0));
        let holds_the_plan_alone = |t: &MeshTransport| {
            t.run.chaos.is_pure()
                && t.run.chaos.disposition(0, nid(0), nid(1), &root)
                    == Disposition::Dropped(DropCause::Cut)
        };
        let mut mesh = channel_mesh(2, 2, &impure, MeshConfig::default());
        mesh.extend(tcp_mesh(2, 2, &impure, MeshConfig::default()).unwrap());
        assert!(mesh.iter().all(holds_the_plan_alone));
        for t in &mut mesh {
            t.rearm(2, &impure, MeshConfig::default());
        }
        assert!(mesh.iter().all(holds_the_plan_alone));
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
        // Spin until the frame has crossed the loopback.
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

    /// A byte stream that plays a schedule, for driving the one link code
    /// through what loopback only does by chance. Reads: `stalls`
    /// `WouldBlock`s before each, then 1, 2, … up to `read_max` bytes in
    /// turn of `incoming`, which ends after byte `cut` — in end-of-stream,
    /// or in a reset if `reset`. Writes: the next of `budgets`, in turn,
    /// is what a write takes; a zero budget answers `WouldBlock`.
    struct Scripted {
        incoming: Vec<u8>,
        at: usize,
        cut: usize,
        reset: bool,
        read_max: usize,
        stalls: usize,
        reads: usize,
        budgets: Vec<usize>,
        writes: usize,
        written: Vec<u8>,
    }

    impl Scripted {
        /// `incoming` whole, in reads of 1..=`read_max` bytes with
        /// `stalls` `WouldBlock`s before each; every write taken whole.
        fn reading(incoming: &[u8], read_max: usize, stalls: usize) -> Self {
            Scripted {
                incoming: incoming.to_vec(),
                at: 0,
                cut: incoming.len(),
                reset: false,
                read_max,
                stalls,
                reads: 0,
                budgets: vec![usize::MAX],
                writes: 0,
                written: Vec::new(),
            }
        }

        /// Nothing to read, and writes that take `budgets` in turn.
        fn writing(budgets: &[usize]) -> Self {
            Scripted {
                budgets: budgets.to_vec(),
                ..Scripted::reading(&[], 1, 0)
            }
        }
    }

    impl ByteStream for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let turn = self.reads / (self.stalls + 1);
            if !self.reads.is_multiple_of(self.stalls + 1) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            if self.at == self.cut {
                return match self.reset {
                    true => Err(io::ErrorKind::ConnectionReset.into()),
                    false => Ok(0),
                };
            }
            let k = (1 + turn % self.read_max)
                .min(buf.len())
                .min(self.cut - self.at);
            buf[..k].copy_from_slice(&self.incoming[self.at..self.at + k]);
            self.at += k;
            Ok(k)
        }

        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let budget = self.budgets[self.writes % self.budgets.len()];
            self.writes += 1;
            if budget == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let k = budget.min(buf.len());
            self.written.extend_from_slice(&buf[..k]);
            Ok(k)
        }

        fn read_within(&mut self, buf: &mut [u8], _patience: Duration) -> io::Result<usize> {
            self.read(buf)
        }

        fn shutdown_write(&mut self) {}
    }

    /// Frames of every kind and a spread of sizes, from node 1.
    fn frames_from_1() -> Vec<Frame> {
        let mut frames = vec![
            mark(1, 0),
            envelope(1, Path::root(nid(1)), 3),
            Frame::Envelope {
                src: nid(1),
                msg: ByzMsg {
                    path: Path::root(nid(0)).child(nid(1)),
                    value: AgreementValue::Default,
                },
                trace: Some(TraceCtx::new(9, vec![0, 1, 2])),
            },
        ];
        let long = (2..40).fold(Path::root(nid(0)).child(nid(1)), |p, i| p.child(nid(i)));
        frames.push(envelope(1, long, u64::MAX));
        frames.push(mark(1, 1));
        frames
    }

    fn encoded(frames: &[Frame]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for f in frames {
            frame::encode_into(&mut bytes, f);
        }
        bytes
    }

    /// Drains `link` until its stream ends, checking the accumulator's
    /// bound after every drain; returns the frames it handed over.
    fn read_to_the_end(link: &mut Link) -> Vec<Frame> {
        let mut got = Vec::new();
        for _ in 0..1 << 20 {
            if !link.intake.open {
                return got;
            }
            link.drain(&mut |f| got.push(f));
            assert!(link.intake.acc.len() <= 4 + MAX_FRAME_LEN as usize);
        }
        panic!("the stream never ended");
    }

    #[test]
    fn a_link_hands_over_every_frame_once_and_in_order_at_any_read_split() {
        let frames = frames_from_1();
        let bytes = encoded(&frames);
        for read_max in (1..=24).chain([bytes.len(), 4096]) {
            for stalls in 0..3 {
                let stream = Scripted::reading(&bytes, read_max, stalls);
                let mut link = Link::new(nid(1), stream, None);
                assert_eq!(read_to_the_end(&mut link), frames, "reads ≤ {read_max}");
                assert!(link.intake.acc.is_empty(), "reads ≤ {read_max}");
                assert_eq!(stream_of::<Scripted>(&link).at, bytes.len());
            }
        }
    }

    #[test]
    fn a_link_puts_every_frame_on_the_stream_once_and_in_order_at_any_write_budget() {
        let frames = frames_from_1();
        let schedules: [&[usize]; 5] = [&[1], &[3, 0], &[7, 0, 0, 2], &[64, 0], &[4096]];
        for budgets in schedules {
            let mut link = Link::new(nid(1), Scripted::writing(budgets), None);
            for f in &frames {
                frame::encode_into(&mut link.unflushed, f);
            }
            let config = MeshConfig::default();
            for _ in 0..1 << 16 {
                assert!(matches!(link.flush(&config, &mut |_| {}), SendStatus::Sent));
                if link.unflushed.is_empty() {
                    break;
                }
                assert!(!link.is_idle(), "{budgets:?}");
            }
            assert!(link.is_idle() && link.flushed == 0, "{budgets:?}");
            let written = &stream_of::<Scripted>(&link).written;
            let mut out = Vec::new();
            assert_eq!(
                take_frames(written, nid(1), &mut |f| out.push(f)),
                Some(written.len())
            );
            assert_eq!(out, frames, "{budgets:?}");
        }
    }

    #[test]
    fn what_a_write_did_not_take_leaves_first_at_the_next_flush() {
        let (first, second) = (envelope(0, Path::root(nid(0)), 1), mark(0, 0));
        let mut link = Link::new(nid(1), Scripted::writing(&[5, 0, usize::MAX]), None);
        frame::encode_into(&mut link.unflushed, &first);
        let config = MeshConfig::default();
        assert!(matches!(link.flush(&config, &mut |_| {}), SendStatus::Sent));
        // Five bytes went, the stream would take no more: the rest stays
        // queued, from the frame's start, and the link is not idle.
        assert_eq!(link.flushed, 5);
        assert_eq!(link.unflushed, frame::encode(&first));
        assert!(!link.is_idle());
        frame::encode_into(&mut link.unflushed, &second);
        assert!(matches!(link.flush(&config, &mut |_| {}), SendStatus::Sent));
        assert!(link.is_idle());
        assert_eq!(
            stream_of::<Scripted>(&link).written,
            encoded(&[first, second])
        );
    }

    #[test]
    fn a_stream_cut_at_any_byte_delivers_the_whole_frames_before_it_and_closes_the_link() {
        let frames = frames_from_1();
        let bytes = encoded(&frames);
        let ends: Vec<usize> = frames
            .iter()
            .scan(0, |at, f| {
                *at += frame::encode(f).len();
                Some(*at)
            })
            .collect();
        for cut in 0..=bytes.len() {
            for reset in [false, true] {
                let mut stream = Scripted::reading(&bytes, 1 + cut % 7, cut % 2);
                (stream.cut, stream.reset) = (cut, reset);
                let mut link = Link::new(nid(1), stream, None);
                let whole = ends.iter().filter(|&&end| end <= cut).count();
                let at = format!("cut at byte {cut}, reset {reset}");
                assert_eq!(read_to_the_end(&mut link), frames[..whole], "{at}");
                assert!(!link.intake.open && !link.is_idle(), "{at}");
            }
        }
    }

    #[test]
    fn the_accumulator_holds_at_the_frame_bound_through_a_link() {
        // A frame of exactly the bound, between two marks, in reads of up
        // to 4 KiB: a traced envelope whose trace section is padded out (a
        // malformed trace degrades to an untraced delivery).
        let mut big = frame::encode(&Frame::Envelope {
            src: nid(1),
            msg: ByzMsg {
                path: Path::root(nid(1)),
                value: AgreementValue::Value(5),
            },
            trace: Some(TraceCtx::new(3, vec![1])),
        });
        big.resize(4 + MAX_FRAME_LEN as usize, 0);
        big[..4].copy_from_slice(&MAX_FRAME_LEN.to_le_bytes());
        let mut bytes = frame::encode(&mark(1, 0));
        bytes.extend_from_slice(&big);
        bytes.extend_from_slice(&frame::encode(&mark(1, 1)));
        let mut link = Link::new(nid(1), Scripted::reading(&bytes, 4096, 1), None);
        assert_eq!(
            read_to_the_end(&mut link),
            [mark(1, 0), envelope(1, Path::root(nid(1)), 5), mark(1, 1)]
        );
        assert!(link.intake.acc.is_empty());
        // One byte past the bound ends the link on the prefix alone.
        let mut bytes = frame::encode(&mark(1, 0));
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        bytes.resize(bytes.len() + 4096, 0);
        let mut link = Link::new(nid(1), Scripted::reading(&bytes, 4096, 0), None);
        assert_eq!(read_to_the_end(&mut link), [mark(1, 0)]);
        assert!(!link.intake.open && link.intake.acc.is_empty());
        assert!(
            stream_of::<Scripted>(&link).at < bytes.len(),
            "nothing read after it"
        );
    }

    /// Node 0 of three for `depth` rounds, its links to nodes 1 and 2 over
    /// `one` and `two`.
    fn node_0_over(one: impl ByteStream, two: impl ByteStream, depth: usize) -> MeshTransport {
        let links = BTreeMap::from([
            (nid(1), Link::new(nid(1), one, None)),
            (nid(2), Link::new(nid(2), two, None)),
        ]);
        let (chaos, config) = (LinkChaos::healthy(), MeshConfig::default());
        MeshTransport::new(nid(0), 3, depth, &chaos, links, None, config)
    }

    /// How many reads the scripted stream under the link to `peer` has
    /// answered, and how many of its bytes it has handed over.
    fn scripted_progress(t: &MeshTransport, peer: usize) -> (usize, usize) {
        let stream = stream_of::<Scripted>(&t.links[&nid(peer)]);
        (stream.reads, stream.at)
    }

    /// A round-1 envelope from node 1: its relay of node 2's value.
    fn relay_from_1(v: u64) -> Frame {
        envelope(1, Path::root(nid(2)).child(nid(1)), v)
    }

    #[test]
    fn a_link_whose_mark_is_in_is_not_read_again_until_the_round_closes() {
        // Node 1 says its round-0 mark, then its round-1 relay and mark, in
        // reads of a few bytes; node 2 says its round-0 mark after a run of
        // `WouldBlock`s, so node 1 is heard first.
        let one = encoded(&[mark(1, 0), relay_from_1(5), mark(1, 1)]);
        let two = encoded(&[mark(2, 0), mark(2, 1)]);
        let mut t = node_0_over(
            Scripted::reading(&one, 16, 0),
            Scripted::reading(&two, 16, 40),
            2,
        );
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        while !t.run.heard(nid(1), 0) {
            assert_eq!(t.poll(), PollOutcome::Pending);
        }
        let (reads, at) = scripted_progress(&t, 1);
        assert!(at < one.len(), "node 1's round-1 frames are still unread");
        let closed = loop {
            match t.poll() {
                PollOutcome::Pending => {
                    assert_eq!(
                        scripted_progress(&t, 1),
                        (reads, at),
                        "a heard link was read"
                    );
                    t.wait();
                    assert_eq!(
                        scripted_progress(&t, 1),
                        (reads, at),
                        "a heard link was waited on"
                    );
                }
                outcome => break outcome,
            }
        };
        assert_eq!(closed, PollOutcome::Event(NodeEvent::Timeout { round: 1 }));
        // The round is closed: the link is read again, from where it
        // stopped, and round 1 closes on both peers' marks.
        match next_outcome(&mut t) {
            PollOutcome::Event(NodeEvent::Deliver { src, msg }) => {
                assert_eq!((src, msg.value), (nid(1), AgreementValue::Value(5)));
            }
            other => panic!("expected node 1's relay, got {other:?}"),
        }
        assert!(scripted_progress(&t, 1).0 > reads);
        assert_eq!(
            next_outcome(&mut t),
            PollOutcome::Event(NodeEvent::Timeout { round: 2 })
        );
        assert_eq!(t.poll(), PollOutcome::Closed);
        assert_eq!(t.stats().false_timeouts, 0);
        assert!(t.ended_clean());
    }

    #[test]
    fn frames_behind_a_mark_surface_in_the_next_round_once_and_in_order() {
        // Far more than one read takes, each frame its own write: the first
        // drain stops with most of round 1 still in the pipe.
        let (mut one, mut two) = (pipe(), pipe());
        put(&mut one.0, &envelope(1, Path::root(nid(1)), 1_000));
        put(&mut one.0, &mark(1, 0));
        for v in 0..500 {
            put(&mut one.0, &relay_from_1(v));
        }
        put(&mut one.0, &mark(1, 1));
        let mut t = node_0_over(one.1, two.1, 2);
        let delivered = |t: &mut MeshTransport| {
            let mut values = Vec::new();
            while let PollOutcome::Event(NodeEvent::Deliver { src, msg }) = t.poll() {
                assert_eq!(src, nid(1));
                match msg.value {
                    AgreementValue::Value(v) => values.push(v),
                    AgreementValue::Default => panic!("no V_d was sent"),
                }
            }
            values
        };
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        assert_eq!(delivered(&mut t), [1_000], "round 0 hands over round 0's");
        assert!(t.run.heard(nid(1), 0));
        put(&mut two.0, &mark(2, 0));
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        assert_eq!(delivered(&mut t), (0..500).collect::<Vec<_>>());
        assert!(t.run.heard(nid(1), 1));
        put(&mut two.0, &mark(2, 1));
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 2 })
        );
        assert_eq!(t.poll(), PollOutcome::Closed);
        let stats = t.stats();
        assert_eq!(
            (stats.delivered, stats.lost, stats.false_timeouts),
            (501, 0, 0)
        );
        assert!(t.ended_clean());
    }

    #[test]
    fn a_mebibyte_behind_a_mark_costs_the_round_nothing() {
        // Node 1 marks round 0 and then writes a frame of exactly the bound
        // (a traced round-1 relay whose trace section is padded out) before
        // its round-1 mark: 1 MiB the open round has no use for.
        let mut big = frame::encode(&Frame::Envelope {
            src: nid(1),
            msg: ByzMsg {
                path: Path::root(nid(2)).child(nid(1)),
                value: AgreementValue::Value(5),
            },
            trace: Some(TraceCtx::new(3, vec![2, 1])),
        });
        big.resize(4 + MAX_FRAME_LEN as usize, 0);
        big[..4].copy_from_slice(&MAX_FRAME_LEN.to_le_bytes());
        let mut one = frame::encode(&mark(1, 0));
        one.extend_from_slice(&big);
        one.extend_from_slice(&frame::encode(&mark(1, 1)));
        let mut two = pipe();
        let mut t = node_0_over(Scripted::reading(&one, 4096, 0), two.1, 2);
        let bounded = |t: &MeshTransport| {
            let acc = t.links[&nid(1)].intake.acc.len();
            assert!(acc <= 4 + MAX_FRAME_LEN as usize, "{acc} bytes held");
        };
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 0 })
        );
        while !t.run.heard(nid(1), 0) {
            assert_eq!(t.poll(), PollOutcome::Pending);
        }
        let (reads, at) = scripted_progress(&t, 1);
        for _ in 0..20 {
            assert_eq!(t.poll(), PollOutcome::Pending);
            t.wait();
            bounded(&t);
        }
        // The round closes by marks, having read none of the mebibyte past
        // the read that brought the mark.
        put(&mut two.0, &mark(2, 0));
        assert_eq!(
            t.poll(),
            PollOutcome::Event(NodeEvent::Timeout { round: 1 })
        );
        assert_eq!(scripted_progress(&t, 1), (reads, at));
        assert!(at <= 13 + 4096, "{at} bytes read in round 0");
        assert_eq!(t.stats().false_timeouts, 0);
        // Round 1 reads it, hands the relay over once, and closes too.
        put(&mut two.0, &mark(2, 1));
        let mut relays = 0;
        loop {
            match t.poll() {
                PollOutcome::Event(NodeEvent::Deliver { src, msg }) => {
                    assert_eq!((src, msg.value), (nid(1), AgreementValue::Value(5)));
                    relays += 1;
                }
                PollOutcome::Event(NodeEvent::Timeout { round }) => {
                    assert_eq!(round, 2);
                    break;
                }
                PollOutcome::Pending => {}
                PollOutcome::Closed => panic!("closed before round 1 did"),
            }
            bounded(&t);
        }
        assert_eq!(relays, 1);
        assert_eq!(scripted_progress(&t, 1).1, one.len());
        assert_eq!(t.stats().false_timeouts, 0);
    }

    #[test]
    fn a_zero_length_write_on_a_pipe_never_reads_as_end_of_stream() {
        let (mut near, far) = pipe();
        let mut link = Link::new(nid(1), far, None);
        assert_eq!(near.write(&[]).unwrap(), 0);
        link.drain(&mut |_| panic!("no frame was written"));
        link.read_once(Duration::from_millis(5), &mut |_| panic!("nor here"));
        assert!(link.intake.open, "an empty write is not end-of-stream");
        put(&mut near, &mark(1, 0));
        let mut got = Vec::new();
        link.drain(&mut |f| got.push(f));
        assert_eq!(got, [mark(1, 0)]);
        assert!(link.is_idle());
        // What does end the stream: the write half shut, or the end gone.
        near.shutdown_write();
        link.drain(&mut |_| panic!("no frame was written"));
        assert!(!link.intake.open);
    }
}
