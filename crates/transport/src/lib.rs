//! # transport — pluggable backends for the BYZ node state machine
//!
//! One protocol engine, three networks. The sans-io
//! [`degradable::NodeStateMachine`] consumes [`NodeEvent`]s and emits
//! [`NodeAction`](degradable::NodeAction)s; this crate supplies the [`Transport`] implementations
//! that feed it:
//!
//! | backend | module | concurrency | determinism |
//! |---------|--------|-------------|-------------|
//! | [`SimTransport`] | [`sim`] | none (virtual time) | bit-exact, replayable |
//! | channel mesh | [`mesh`] | one thread per node + in-process byte pipes | decisions deterministic |
//! | TCP mesh | [`mesh`] | one thread per node + real sockets | decisions deterministic |
//!
//! All three see the **same fault pattern** for a given
//! [`simnet::LinkFaultPlan`] and seed, because chaos verdicts are keyed on
//! message identity ([`chaos::LinkChaos`]) rather than drawn from a
//! sequential stream. That is what makes the differential gate — *sim,
//! channel, and loopback-TCP runs decide identically* — a meaningful
//! statement about the protocol rather than about scheduling luck.
//!
//! The paper's message-absence detection (assumption (b)) is one round
//! barrier, a sans-io core every endpoint runs: after finishing round
//! `r`'s sends, each node marks it to its peers, and a node closes round
//! `r` when it holds all `n−1` peer marks or the time it is given passes
//! the round's deadline, whichever is first. A mesh endpoint sends
//! `Mark(r)` frames and passes the wall clock, so its deadline path is a
//! *real* (possibly false) timeout, §6's relaxed detection. The simulator
//! delivers every peer's mark at each virtual round boundary and sets no
//! deadline; its §6 false timeouts are skewed arrivals
//! ([`sim::RelaxedTiming`]).
//!
//! The value type is fixed to `u64` payloads ([`degradable::Val`])
//! throughout: the experiments never need more, and a closed value type
//! keeps the TCP codec ([`frame`]) dependency-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Bytes off a socket, peers and their threads are adversary-controlled in
// this crate's threat model: outside tests nothing here may panic on them.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod chaos;
mod endpoint;
pub mod frame;
pub mod mesh;
pub mod runner;
pub mod sim;

pub use chaos::{AdaptiveLink, Disposition, DropCause, HotEdgeCutter, LinkChaos};
pub use frame::{Frame, FrameError};
pub use mesh::{
    channel_mesh, reconnect_delay, tcp_join, tcp_mesh, MeshConfig, MeshTransport,
    RECONNECT_DELAY_CAP,
};
pub use runner::{
    drive_mesh, run_channel, run_kind_with, run_sim, run_tcp, MeshDriveOptions, NodeOutcome,
    NodeTracer, RunOptions, TransportRun,
};
pub use sim::{RelaxedTiming, SimTransport, SimWorld};

use degradable::{ByzMsg, NodeEvent};
use serde::{Deserialize, Serialize};
use simnet::NodeId;
use std::fmt;
use std::str::FromStr;

/// What a [`Transport::poll`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollOutcome {
    /// An event ready for the node's state machine.
    Event(NodeEvent<u64>),
    /// Nothing right now; poll again (real transports: after yielding —
    /// a mesh endpoint blocks in [`MeshTransport::wait`]).
    Pending,
    /// The run is over for this node; polling is pointless.
    Closed,
}

/// A network backend serving exactly one node of the protocol.
///
/// The driver loop is the same on every backend: `poll`, feed the event to
/// the machine, perform the returned actions (`Send` → [`Transport::send`],
/// `Decide` → record), repeat until [`PollOutcome::Closed`]. Timeout events
/// are *produced by the transport* — absence detection is a property of the
/// network layer, not the protocol.
pub trait Transport {
    /// The node this endpoint belongs to.
    fn me(&self) -> NodeId;

    /// Cluster size.
    fn n(&self) -> usize;

    /// Queues `msg` for delivery to `to`, subject to the backend's chaos
    /// layer. Sends are fire-and-forget (the paper's absence handling
    /// lives in the machine, not in delivery errors).
    ///
    /// Queued is all it promises. The next [`poll`](Self::poll) is the
    /// **flush point**: the driver polls after dispatching an event's
    /// sends, and a backend may hold them until then — the TCP mesh does,
    /// writing each link's batch and the round mark behind it in one go.
    /// A message sent and never followed by a `poll` may never leave.
    fn send(&mut self, to: NodeId, msg: ByzMsg<u64>);

    /// [`send`](Self::send) with an attached causal [`TraceCtx`](obs::TraceCtx).
    ///
    /// Tracing is observability, not protocol: the default implementation
    /// drops the context and delegates to `send`, so backends that cannot
    /// carry metadata still work — they just deliver untraced. Backends
    /// that do carry it surface the context to the receiving driver via
    /// [`last_trace`](Self::last_trace).
    fn send_traced(&mut self, to: NodeId, msg: ByzMsg<u64>, trace: Option<obs::TraceCtx>) {
        let _ = trace;
        self.send(to, msg);
    }

    /// The trace context attached to the most recent
    /// [`Deliver`](NodeEvent::Deliver) event this endpoint produced, if
    /// the sender stamped one and the backend carried it. Meaningful only
    /// immediately after a `poll` that returned a delivery. Returned by
    /// value: contexts are a few words and some backends keep theirs
    /// behind interior mutability.
    fn last_trace(&self) -> Option<obs::TraceCtx> {
        None
    }

    /// Produces the next event for this node, if any.
    fn poll(&mut self) -> PollOutcome;

    /// Cumulative traffic statistics attributed to this endpoint (sends
    /// and chaos verdicts at the sender, deliveries at the receiver), so
    /// summing over all endpoints gives run totals on every backend.
    fn stats(&self) -> TransportStats;
}

/// Which backend to run a scenario on — the harness/CLI knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum TransportKind {
    /// Deterministic virtual-time simulator (the default).
    #[default]
    Sim,
    /// One OS thread per node, length-prefixed frames over in-process
    /// byte pipes, through the TCP mesh's link code.
    Channel,
    /// One OS thread per node, length-prefixed frames over loopback TCP.
    Tcp,
}

impl TransportKind {
    /// All kinds, in sweep order.
    pub const ALL: [TransportKind; 3] = [
        TransportKind::Sim,
        TransportKind::Channel,
        TransportKind::Tcp,
    ];
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportKind::Sim => "sim",
            TransportKind::Channel => "channel",
            TransportKind::Tcp => "tcp",
        })
    }
}

impl FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(TransportKind::Sim),
            "channel" => Ok(TransportKind::Channel),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!(
                "unknown transport '{other}' (expected sim, channel, or tcp)"
            )),
        }
    }
}

/// Traffic counters, comparable across backends.
///
/// Every field except [`false_timeouts`](Self::false_timeouts) and
/// [`lost`](Self::lost) is fully determined by the scenario and the
/// message-keyed chaos layer, so differential tests assert
/// [`TransportStats::chaos_signature`] equality across sim, channel, and
/// TCP runs. `false_timeouts` is backend-specific by nature (injected skew
/// in the simulator, real deadline expiry on a mesh).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    /// `send` calls made by state machines (pre-chaos).
    pub sent: u64,
    /// Envelopes handed to state machines (post-chaos; duplicates count).
    pub delivered: u64,
    /// Envelopes killed by a link cut.
    pub dropped_cut: u64,
    /// Envelopes killed by probabilistic loss.
    pub dropped_loss: u64,
    /// Envelopes killed by detectable corruption (reads as absent).
    pub dropped_corrupt: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Envelopes delayed by reordering (counted once per send).
    pub delayed: u64,
    /// Envelopes that missed the final round entirely (delayed or skewed
    /// past the end of the run).
    pub lost: u64,
    /// Round closures that wrongly declared a live peer absent — injected
    /// clock skew in the simulator (§6 relaxed detection), real wall-clock
    /// deadline expiry on a mesh.
    pub false_timeouts: u64,
}

impl TransportStats {
    /// Adds `other`'s counters into `self` (per-node → run aggregation).
    pub fn merge(&mut self, other: &TransportStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped_cut += other.dropped_cut;
        self.dropped_loss += other.dropped_loss;
        self.dropped_corrupt += other.dropped_corrupt;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.lost += other.lost;
        self.false_timeouts += other.false_timeouts;
    }

    /// The counters determined purely by the scenario and the keyed chaos
    /// layer — identical across backends for the same plan and seed (the
    /// differential suite asserts exactly this).
    pub fn chaos_signature(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.sent,
            self.dropped_cut,
            self.dropped_loss,
            self.dropped_corrupt,
            self.duplicated,
            self.delayed,
        )
    }

    /// Total envelopes dropped by the chaos layer, any cause.
    pub fn dropped(&self) -> u64 {
        self.dropped_cut + self.dropped_loss + self.dropped_corrupt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_kind_round_trips_through_strings() {
        for kind in TransportKind::ALL {
            assert_eq!(kind.to_string().parse::<TransportKind>().unwrap(), kind);
        }
        assert!("udp".parse::<TransportKind>().is_err());
        assert_eq!(TransportKind::default(), TransportKind::Sim);
    }

    #[test]
    fn stats_merge_and_signature() {
        let mut a = TransportStats {
            sent: 10,
            delivered: 8,
            dropped_loss: 2,
            ..TransportStats::default()
        };
        let b = TransportStats {
            sent: 5,
            delivered: 5,
            duplicated: 1,
            false_timeouts: 3,
            ..TransportStats::default()
        };
        a.merge(&b);
        assert_eq!(a.sent, 15);
        assert_eq!(a.delivered, 13);
        assert_eq!(a.dropped(), 2);
        // false_timeouts is deliberately absent from the signature.
        assert_eq!(a.chaos_signature(), (15, 0, 2, 0, 1, 0));
    }
}
