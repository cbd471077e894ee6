//! Execution traces.
//!
//! When enabled, the round engine records one [`TraceEvent`] per message
//! disposition, so experiments can audit *why* a receiver observed a value
//! as absent (crash? omission? late? no such link?) and tests can assert on
//! mechanism rather than just outcome.

use crate::id::NodeId;
use obs::JsonValue;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a message missed the round deadline.
///
/// Before this distinction existed, a single `Late` event covered both "the
/// sampled network latency exceeded the deadline" and "a delay *fault* on
/// the sender pushed it over" — experiments auditing fault attribution
/// could not tell the two apart. The cause makes the attribution explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LateCause {
    /// The sampled latency alone exceeded the deadline (no fault involved).
    Deadline,
    /// A [`crate::fault::FaultKind::Delay`] fault on the sender pushed an
    /// otherwise on-time message past the deadline.
    DelayFault,
}

impl fmt::Display for LateCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LateCause::Deadline => write!(f, "deadline"),
            LateCause::DelayFault => write!(f, "delay fault"),
        }
    }
}

/// One message-level event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A process handed a message to the engine.
    Sent {
        /// Sending round.
        round: usize,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// The message arrived before the deadline and was delivered.
    Delivered {
        /// Sending round.
        round: usize,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Sampled latency.
        latency: u64,
    },
    /// Dropped because the sender had crashed.
    DroppedCrash {
        /// Sending round.
        round: usize,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// Dropped by the sender's omission fault.
    DroppedOmission {
        /// Sending round.
        round: usize,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// Arrived after the round deadline; the receiver saw it as absent.
    Late {
        /// Sending round.
        round: usize,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Sampled latency (exceeds the deadline).
        latency: u64,
        /// Whether the deadline alone or a delay fault caused the miss.
        cause: LateCause,
    },
    /// Discarded because the topology has no `src`-`dst` link.
    NoLink {
        /// Sending round.
        round: usize,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// Dropped because the link is cut ([`crate::linkfault::LinkFaultKind::Cut`]).
    LinkCut {
        /// Sending round.
        round: usize,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// Lost to link-level loss ([`crate::linkfault::LinkFaultKind::Drop`]).
    LinkDropped {
        /// Sending round.
        round: usize,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// A second copy was injected by the link
    /// ([`crate::linkfault::LinkFaultKind::Duplicate`]).
    LinkDuplicated {
        /// Sending round.
        round: usize,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// Held back by link reordering
    /// ([`crate::linkfault::LinkFaultKind::Reorder`]); delivery shifts from
    /// round `round + 1` to `round + 1 + delay`.
    LinkReordered {
        /// Sending round.
        round: usize,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Extra rounds of delay (at least 1).
        delay: usize,
    },
    /// Garbled in flight ([`crate::linkfault::LinkFaultKind::Corrupt`]).
    /// `delivered` tells whether the corruptor produced a mutated payload
    /// (delivered garbled) or the message was discarded (absence — the
    /// default when no corruptor is installed or it returns `None`).
    LinkCorrupted {
        /// Sending round.
        round: usize,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Whether a garbled payload was still delivered.
        delivered: bool,
    },
}

impl TraceEvent {
    /// The event as a flat JSON object, e.g.
    /// `{"event":"delivered","round":0,"src":0,"dst":1,"latency":5}`.
    /// The `event` tag names the variant in snake_case; extra fields
    /// (`latency`, `cause`, `delay`, `delivered`) appear as needed.
    pub fn to_json(&self) -> JsonValue {
        let (kind, round, src, dst) = match *self {
            TraceEvent::Sent { round, src, dst } => ("sent", round, src, dst),
            TraceEvent::Delivered {
                round, src, dst, ..
            } => ("delivered", round, src, dst),
            TraceEvent::DroppedCrash { round, src, dst } => ("dropped_crash", round, src, dst),
            TraceEvent::DroppedOmission { round, src, dst } => {
                ("dropped_omission", round, src, dst)
            }
            TraceEvent::Late {
                round, src, dst, ..
            } => ("late", round, src, dst),
            TraceEvent::NoLink { round, src, dst } => ("no_link", round, src, dst),
            TraceEvent::LinkCut { round, src, dst } => ("link_cut", round, src, dst),
            TraceEvent::LinkDropped { round, src, dst } => ("link_dropped", round, src, dst),
            TraceEvent::LinkDuplicated { round, src, dst } => ("link_duplicated", round, src, dst),
            TraceEvent::LinkReordered {
                round, src, dst, ..
            } => ("link_reordered", round, src, dst),
            TraceEvent::LinkCorrupted {
                round, src, dst, ..
            } => ("link_corrupted", round, src, dst),
        };
        let mut fields = vec![
            ("event".to_string(), JsonValue::Str(kind.to_string())),
            ("round".to_string(), JsonValue::UInt(round as u64)),
            ("src".to_string(), JsonValue::UInt(src.index() as u64)),
            ("dst".to_string(), JsonValue::UInt(dst.index() as u64)),
        ];
        match *self {
            TraceEvent::Delivered { latency, .. } => {
                fields.push(("latency".into(), latency.into()));
            }
            TraceEvent::Late { latency, cause, .. } => {
                fields.push(("latency".into(), latency.into()));
                let cause = match cause {
                    LateCause::Deadline => "deadline",
                    LateCause::DelayFault => "delay_fault",
                };
                fields.push(("cause".into(), JsonValue::Str(cause.into())));
            }
            TraceEvent::LinkReordered { delay, .. } => {
                fields.push(("delay".into(), (delay as u64).into()));
            }
            TraceEvent::LinkCorrupted { delivered, .. } => {
                fields.push(("delivered".into(), JsonValue::Bool(delivered)));
            }
            _ => {}
        }
        JsonValue::Object(fields)
    }

    /// The inverse of [`TraceEvent::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &JsonValue) -> Result<TraceEvent, String> {
        let kind = value
            .get("event")
            .and_then(JsonValue::as_str)
            .ok_or("trace event missing string `event`")?;
        let num = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or(format!("`{kind}` event missing u64 `{key}`"))
        };
        let round = num("round")? as usize;
        let node = |key: &str| -> Result<NodeId, String> {
            NodeId::try_new(num(key)?).ok_or(format!(
                "`{kind}` event names a `{key}` beyond the node id range"
            ))
        };
        let (src, dst) = (node("src")?, node("dst")?);
        Ok(match kind {
            "sent" => TraceEvent::Sent { round, src, dst },
            "delivered" => TraceEvent::Delivered {
                round,
                src,
                dst,
                latency: num("latency")?,
            },
            "dropped_crash" => TraceEvent::DroppedCrash { round, src, dst },
            "dropped_omission" => TraceEvent::DroppedOmission { round, src, dst },
            "late" => TraceEvent::Late {
                round,
                src,
                dst,
                latency: num("latency")?,
                cause: match value.get("cause").and_then(JsonValue::as_str) {
                    Some("deadline") => LateCause::Deadline,
                    Some("delay_fault") => LateCause::DelayFault,
                    other => return Err(format!("bad late cause {other:?}")),
                },
            },
            "no_link" => TraceEvent::NoLink { round, src, dst },
            "link_cut" => TraceEvent::LinkCut { round, src, dst },
            "link_dropped" => TraceEvent::LinkDropped { round, src, dst },
            "link_duplicated" => TraceEvent::LinkDuplicated { round, src, dst },
            "link_reordered" => TraceEvent::LinkReordered {
                round,
                src,
                dst,
                delay: num("delay")? as usize,
            },
            "link_corrupted" => TraceEvent::LinkCorrupted {
                round,
                src,
                dst,
                delivered: value
                    .get("delivered")
                    .and_then(JsonValue::as_bool)
                    .ok_or("`link_corrupted` event missing bool `delivered`")?,
            },
            other => return Err(format!("unknown trace event kind `{other}`")),
        })
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::Sent { round, src, dst } => write!(f, "[r{round}] {src}->{dst} sent"),
            TraceEvent::Delivered {
                round,
                src,
                dst,
                latency,
            } => write!(f, "[r{round}] {src}->{dst} delivered (lat {latency})"),
            TraceEvent::DroppedCrash { round, src, dst } => {
                write!(f, "[r{round}] {src}->{dst} dropped: crash")
            }
            TraceEvent::DroppedOmission { round, src, dst } => {
                write!(f, "[r{round}] {src}->{dst} dropped: omission")
            }
            TraceEvent::Late {
                round,
                src,
                dst,
                latency,
                cause,
            } => write!(f, "[r{round}] {src}->{dst} late (lat {latency}, {cause})"),
            TraceEvent::NoLink { round, src, dst } => {
                write!(f, "[r{round}] {src}->{dst} discarded: no link")
            }
            TraceEvent::LinkCut { round, src, dst } => {
                write!(f, "[r{round}] {src}->{dst} dropped: link cut")
            }
            TraceEvent::LinkDropped { round, src, dst } => {
                write!(f, "[r{round}] {src}->{dst} dropped: link loss")
            }
            TraceEvent::LinkDuplicated { round, src, dst } => {
                write!(f, "[r{round}] {src}->{dst} duplicated by link")
            }
            TraceEvent::LinkReordered {
                round,
                src,
                dst,
                delay,
            } => write!(f, "[r{round}] {src}->{dst} reordered (+{delay} rounds)"),
            TraceEvent::LinkCorrupted {
                round,
                src,
                dst,
                delivered,
            } => {
                let fate = if delivered {
                    "delivered garbled"
                } else {
                    "dropped"
                };
                write!(f, "[r{round}] {src}->{dst} corrupted: {fate}")
            }
        }
    }
}

/// Trace retention policy.
///
/// The default (`capacity: None`) keeps every event, matching the
/// historical append-only behaviour. A bounded config turns the trace
/// into a ring buffer of the most recent `capacity` events, so long
/// sweeps with tracing enabled no longer grow memory without bound;
/// evicted events are tallied in [`Trace::dropped`] (and folded into
/// the observability registry as `sim.trace_dropped` by the engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events retained (`None` = unbounded).
    pub capacity: Option<usize>,
}

impl TraceConfig {
    /// Unbounded retention (the historical behaviour).
    pub fn unbounded() -> Self {
        TraceConfig { capacity: None }
    }

    /// Keep only the most recent `capacity` events.
    pub fn bounded(capacity: usize) -> Self {
        TraceConfig {
            capacity: Some(capacity),
        }
    }
}

/// An event log: append-only by default, a most-recent-events ring
/// buffer under a bounded [`TraceConfig`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: Option<usize>,
    /// Ring head: index of the oldest retained event once wrapped.
    start: usize,
    dropped: u64,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        // Two traces are equal when they retain the same events in the
        // same order and evicted the same number — the physical ring
        // rotation (`start`) and configured capacity are representation
        // details.
        self.dropped == other.dropped && self.events().eq(other.events())
    }
}

impl Trace {
    /// An empty, unbounded trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// An empty trace with the given retention policy.
    pub fn with_config(config: TraceConfig) -> Self {
        Trace {
            capacity: config.capacity,
            ..Trace::default()
        }
    }

    /// Appends an event, evicting the oldest retained event (and
    /// counting it as dropped) when a bounded capacity is full.
    pub fn record(&mut self, event: TraceEvent) {
        match self.capacity {
            Some(0) => self.dropped += 1,
            Some(cap) if self.events.len() == cap => {
                self.events[self.start] = event;
                self.start = (self.start + 1) % cap;
                self.dropped += 1;
            }
            _ => self.events.push(event),
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, head) = self.events.split_at(self.start);
        head.iter().chain(wrapped.iter())
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace retains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring buffer (zero when unbounded).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count of retained events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events().filter(|e| pred(e)).count()
    }

    /// The trace as JSON: `{"dropped": n, "events": [...]}` with
    /// events oldest-first (see [`TraceEvent::to_json`]).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("dropped".into(), self.dropped.into()),
            (
                "events".into(),
                JsonValue::Array(self.events().map(TraceEvent::to_json).collect()),
            ),
        ])
    }

    /// Rebuilds a trace from [`Trace::to_json`] output. The result is
    /// unbounded (retention policy is not part of the serialized form).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed event.
    pub fn from_json(value: &JsonValue) -> Result<Trace, String> {
        let mut trace = Trace::new();
        trace.dropped = value
            .get("dropped")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        for event in value
            .get("events")
            .and_then(JsonValue::as_array)
            .ok_or("trace missing `events` array")?
        {
            trace.events.push(TraceEvent::from_json(event)?);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.record(TraceEvent::Sent {
            round: 0,
            src: NodeId::new(0),
            dst: NodeId::new(1),
        });
        t.record(TraceEvent::Late {
            round: 0,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            latency: 99,
            cause: LateCause::Deadline,
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.count(|e| matches!(e, TraceEvent::Late { .. })), 1);
        assert_eq!(
            t.count(|e| matches!(
                e,
                TraceEvent::Late {
                    cause: LateCause::DelayFault,
                    ..
                }
            )),
            0
        );
    }

    #[test]
    fn link_event_displays_name_their_cause() {
        let (src, dst) = (NodeId::new(0), NodeId::new(1));
        let cases = [
            (TraceEvent::LinkCut { round: 1, src, dst }, "link cut"),
            (TraceEvent::LinkDropped { round: 1, src, dst }, "link loss"),
            (
                TraceEvent::LinkDuplicated { round: 1, src, dst },
                "duplicated",
            ),
            (
                TraceEvent::LinkReordered {
                    round: 1,
                    src,
                    dst,
                    delay: 2,
                },
                "+2 rounds",
            ),
            (
                TraceEvent::LinkCorrupted {
                    round: 1,
                    src,
                    dst,
                    delivered: false,
                },
                "corrupted: dropped",
            ),
            (
                TraceEvent::Late {
                    round: 1,
                    src,
                    dst,
                    latency: 9,
                    cause: LateCause::DelayFault,
                },
                "delay fault",
            ),
        ];
        for (event, needle) in cases {
            assert!(
                event.to_string().contains(needle),
                "{event} should mention {needle:?}"
            );
        }
    }

    fn sent(round: usize) -> TraceEvent {
        TraceEvent::Sent {
            round,
            src: NodeId::new(0),
            dst: NodeId::new(1),
        }
    }

    #[test]
    fn bounded_trace_keeps_most_recent_and_counts_drops() {
        let mut t = Trace::with_config(TraceConfig::bounded(3));
        for round in 0..5 {
            t.record(sent(round));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let rounds: Vec<usize> = t
            .events()
            .map(|e| match e {
                TraceEvent::Sent { round, .. } => *round,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rounds, vec![2, 3, 4], "oldest evicted, order preserved");
    }

    #[test]
    fn zero_capacity_trace_drops_everything() {
        let mut t = Trace::with_config(TraceConfig::bounded(0));
        t.record(sent(0));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn unbounded_trace_never_drops() {
        let mut t = Trace::with_config(TraceConfig::unbounded());
        for round in 0..100 {
            t.record(sent(round));
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn trace_equality_ignores_ring_rotation() {
        // Same retained events via different physical layouts.
        let mut wrapped = Trace::with_config(TraceConfig::bounded(2));
        for round in 0..3 {
            wrapped.record(sent(round));
        }
        let mut plain = Trace::new();
        plain.record(sent(1));
        plain.record(sent(2));
        plain.dropped = 1;
        assert_eq!(wrapped, plain);
    }

    #[test]
    fn every_event_kind_round_trips_through_json() {
        let (src, dst) = (NodeId::new(2), NodeId::new(5));
        let all = [
            TraceEvent::Sent { round: 0, src, dst },
            TraceEvent::Delivered {
                round: 1,
                src,
                dst,
                latency: 9,
            },
            TraceEvent::DroppedCrash { round: 2, src, dst },
            TraceEvent::DroppedOmission { round: 3, src, dst },
            TraceEvent::Late {
                round: 4,
                src,
                dst,
                latency: 77,
                cause: LateCause::Deadline,
            },
            TraceEvent::Late {
                round: 4,
                src,
                dst,
                latency: 78,
                cause: LateCause::DelayFault,
            },
            TraceEvent::NoLink { round: 5, src, dst },
            TraceEvent::LinkCut { round: 6, src, dst },
            TraceEvent::LinkDropped { round: 7, src, dst },
            TraceEvent::LinkDuplicated { round: 8, src, dst },
            TraceEvent::LinkReordered {
                round: 9,
                src,
                dst,
                delay: 2,
            },
            TraceEvent::LinkCorrupted {
                round: 10,
                src,
                dst,
                delivered: true,
            },
            TraceEvent::LinkCorrupted {
                round: 10,
                src,
                dst,
                delivered: false,
            },
        ];
        for event in all {
            let json = event.to_json();
            let text = json.to_json_string();
            let parsed = obs::JsonValue::parse(&text).unwrap();
            assert_eq!(TraceEvent::from_json(&parsed).unwrap(), event, "{text}");
        }
        let mut trace = Trace::new();
        for event in all {
            trace.record(event);
        }
        let text = trace.to_json().to_json_string();
        let back = Trace::from_json(&obs::JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn from_json_rejects_unknown_kind_and_missing_fields() {
        for bad in [
            "{\"event\":\"warp\",\"round\":0,\"src\":0,\"dst\":1}",
            "{\"event\":\"late\",\"round\":0,\"src\":0,\"dst\":1,\"latency\":5}",
            "{\"round\":0,\"src\":0,\"dst\":1}",
        ] {
            let v = obs::JsonValue::parse(bad).unwrap();
            assert!(TraceEvent::from_json(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn display_is_informative() {
        let e = TraceEvent::Delivered {
            round: 3,
            src: NodeId::new(1),
            dst: NodeId::new(2),
            latency: 5,
        };
        assert_eq!(e.to_string(), "[r3] n1->n2 delivered (lat 5)");
    }
}
