//! Length-prefixed wire frames for BYZ envelopes and round marks.
//!
//! The TCP backend needs a codec; to keep the container dependency-free it
//! is hand-rolled: every frame is a little-endian `u32` byte length
//! followed by that many payload bytes. The payload is a tagged binary
//! encoding of [`Frame`]:
//!
//! ```text
//! frame    := tag:u8 body
//! envelope := 0x01 src:u32 value path          (a BYZ protocol message)
//! mark     := 0x02 src:u32 round:u32           (round-barrier control)
//! traced   := 0x03 src:u32 value path trace    (envelope + causal context)
//! value    := 0x00 | 0x01 v:u64                (V_d | Value(v))
//! path     := len:u32 id:u32 ...               (relay path, sender first)
//! trace    := instance:u64 hop:u32 len:u32 id:u64 ...
//! ```
//!
//! Wire payloads are `u64` ([`Val`]); the experiments never need more, and
//! fixing the value type keeps the codec closed (no serde data format in
//! the tree). Decoding is total and linear in the frame: every error is a
//! [`FrameError`], never a panic, because bytes off a socket are
//! adversary-controlled in this codebase's threat model — the crate's
//! lint holds this file to it, a relay path is bounded ([`MAX_PATH_LEN`])
//! before its ids are read, an id beyond [`NodeId::MAX_INDEX`] is refused
//! rather than narrowed, and the path is built through the fallible
//! [`Path::from_ids`], so a path that names a node twice is a malformed
//! frame like any other.
//!
//! Trace context is observability metadata, not protocol state, so its
//! failure domain is deliberately smaller: a `0x03` frame whose envelope
//! part decodes but whose trace section is truncated or malformed degrades
//! to an **untraced** delivery (`trace: None`) instead of poisoning the
//! connection. Corruption in the envelope part itself stays fatal, exactly
//! as for `0x01`.

use degradable::{AgreementValue, ByzMsg, Path, Val};
use obs::TraceCtx;
use simnet::NodeId;

/// Hard cap on a frame's payload size (1 MiB). A length prefix beyond this
/// is treated as a corrupt stream rather than an allocation request.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Longest relay path a frame may carry: a path names each of its nodes
/// once, and no tree this program can run has more than 64 (the arena's
/// node ceiling). Checked before any id is read, so a length field cannot
/// buy more decoding work than a 64-id path costs.
pub const MAX_PATH_LEN: usize = 64;

const TAG_ENVELOPE: u8 = 0x01;
const TAG_MARK: u8 = 0x02;
const TAG_TRACED: u8 = 0x03;
const VAL_DEFAULT: u8 = 0x00;
const VAL_VALUE: u8 = 0x01;

/// One unit of inter-node traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A BYZ protocol message from `src`.
    Envelope {
        /// The node that put the message on the wire.
        src: NodeId,
        /// The relay-path-tagged claim.
        msg: ByzMsg<u64>,
        /// Causal trace context stamped by the sender, when tracing is
        /// on. Untraced envelopes use wire tag `0x01`, traced ones
        /// `0x03`; a malformed trace section on the wire decodes as
        /// `None`, never as a frame error.
        trace: Option<TraceCtx>,
    },
    /// "`src` has finished sending for `round`" — the barrier control
    /// frame real transports use for message-absence detection.
    Mark {
        /// The node whose round is complete.
        src: NodeId,
        /// The completed round.
        round: usize,
    },
}

impl Frame {
    /// The node that emitted this frame.
    pub fn src(&self) -> NodeId {
        match *self {
            Frame::Envelope { src, .. } | Frame::Mark { src, .. } => src,
        }
    }
}

/// Why a byte stream failed to parse as a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended inside a frame.
    Truncated,
    /// A tag, length, or id field held an impossible value.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated mid-stream"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes `frame` as a length-prefixed byte vector.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(40);
    encode_into(&mut out, frame);
    out
}

/// Appends `frame`, length prefix included, to `out` — the batching form:
/// a TCP link encodes a whole round's frames back to back into one buffer
/// and puts them on the wire with a single write.
pub fn encode_into(out: &mut Vec<u8>, frame: &Frame) {
    let start = out.len();
    put_u32(out, 0); // length prefix, patched once the body is in place
    match frame {
        Frame::Envelope { src, msg, trace } => {
            out.push(if trace.is_some() {
                TAG_TRACED
            } else {
                TAG_ENVELOPE
            });
            put_u32(out, src.index() as u32);
            match msg.value {
                AgreementValue::Default => out.push(VAL_DEFAULT),
                AgreementValue::Value(v) => {
                    out.push(VAL_VALUE);
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            let ids = msg.path.as_slice();
            put_u32(out, ids.len() as u32);
            for id in ids {
                put_u32(out, id.index() as u32);
            }
            if let Some(ctx) = trace {
                out.extend_from_slice(&ctx.instance.to_le_bytes());
                put_u32(out, ctx.hop);
                put_u32(out, ctx.path.len() as u32);
                for node in &ctx.path {
                    out.extend_from_slice(&node.to_le_bytes());
                }
            }
        }
        Frame::Mark { src, round } => {
            out.push(TAG_MARK);
            put_u32(out, src.index() as u32);
            put_u32(out, *round as u32);
        }
    }
    let body_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Decodes one frame body (the bytes after the length prefix). The whole
/// body must be consumed — trailing bytes are malformed.
pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
    let mut cur = Cursor { buf: body, pos: 0 };
    let frame = match cur.u8()? {
        tag @ (TAG_ENVELOPE | TAG_TRACED) => {
            let src = cur.node_id()?;
            let value: Val = match cur.u8()? {
                VAL_DEFAULT => AgreementValue::Default,
                VAL_VALUE => AgreementValue::Value(cur.u64()?),
                _ => return Err(FrameError::Malformed("unknown value tag")),
            };
            let path_len = cur.u32()? as usize;
            if path_len > MAX_PATH_LEN {
                return Err(FrameError::Malformed("relay path exceeds MAX_PATH_LEN"));
            }
            let mut ids = [NodeId::new(0); MAX_PATH_LEN];
            for id in &mut ids[..path_len] {
                *id = cur.node_id()?;
            }
            let path = Path::from_ids(&ids[..path_len]).ok_or(FrameError::Malformed(
                "relay path is empty or names a node twice",
            ))?;
            let trace = if tag == TAG_TRACED {
                // Observability metadata degrades instead of failing:
                // whatever is wrong with the trace section, the envelope
                // is still a valid protocol message, so consume the rest
                // of the body and deliver it untraced.
                let ctx = decode_trace_section(&mut cur);
                if ctx.is_none() {
                    cur.pos = body.len();
                }
                ctx
            } else {
                None
            };
            Frame::Envelope {
                src,
                msg: ByzMsg { path, value },
                trace,
            }
        }
        TAG_MARK => {
            let src = cur.node_id()?;
            let round = cur.u32()? as usize;
            Frame::Mark { src, round }
        }
        _ => return Err(FrameError::Malformed("unknown frame tag")),
    };
    if cur.pos != body.len() {
        return Err(FrameError::Malformed("trailing bytes after frame body"));
    }
    Ok(frame)
}

/// Parses the trace section of a `0x03` frame. `None` on any truncation,
/// oversized claim, or trailing garbage — the caller degrades the frame
/// to an untraced envelope rather than surfacing an error.
fn decode_trace_section(cur: &mut Cursor<'_>) -> Option<TraceCtx> {
    let instance = cur.u64().ok()?;
    let hop = cur.u32().ok()?;
    let path_len = cur.u32().ok()? as usize;
    let mut path = Vec::new();
    for _ in 0..path_len {
        path.push(cur.u64().ok()?);
    }
    if cur.pos != cur.buf.len() {
        return None;
    }
    Some(TraceCtx {
        instance,
        path,
        hop,
    })
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    /// The next `K` bytes, as the array the integer decoders take.
    fn array<const K: usize>(&mut self) -> Result<[u8; K], FrameError> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let bytes = rest.first_chunk::<K>().ok_or(FrameError::Truncated)?;
        self.pos += K;
        Ok(*bytes)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        self.array().map(u8::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A node id as the wire carries it (`u32`). One beyond what a
    /// [`NodeId`] holds names no node of any mesh: malformed, never
    /// narrowed to the id it is congruent to.
    fn node_id(&mut self) -> Result<NodeId, FrameError> {
        NodeId::try_new(self.u32()?).ok_or(FrameError::Malformed("node id beyond the id range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Envelope {
                src: nid(0),
                msg: ByzMsg {
                    path: Path::root(nid(0)),
                    value: AgreementValue::Value(u64::MAX),
                },
                trace: None,
            },
            Frame::Envelope {
                src: nid(3),
                msg: ByzMsg {
                    path: Path::root(nid(0)).child(nid(2)).child(nid(3)),
                    value: AgreementValue::Default,
                },
                trace: None,
            },
            Frame::Envelope {
                src: nid(3),
                msg: ByzMsg {
                    path: Path::root(nid(0)).child(nid(3)),
                    value: AgreementValue::Value(42),
                },
                trace: Some(TraceCtx::new(5, vec![0, 3])),
            },
            Frame::Mark {
                src: nid(7),
                round: 0,
            },
            Frame::Mark {
                src: nid(1),
                round: 4096,
            },
        ]
    }

    /// Splits a byte stream of whole frames at its length prefixes and
    /// decodes each body.
    fn decode_stream(mut wire: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        while !wire.is_empty() {
            let len = u32::from_le_bytes(*wire.first_chunk().unwrap()) as usize;
            frames.push(decode(&wire[4..4 + len]).unwrap());
            wire = &wire[4 + len..];
        }
        frames
    }

    #[test]
    fn roundtrip_through_a_byte_stream() {
        let frames = sample_frames();
        let wire: Vec<u8> = frames.iter().flat_map(encode).collect();
        assert_eq!(decode_stream(&wire), frames);
    }

    #[test]
    fn encode_into_appends_exactly_what_encode_returns() {
        let frames = sample_frames();
        let mut batch = vec![0xEE]; // bytes already in the buffer stay put
        let mut one_by_one = vec![0xEE];
        for f in &frames {
            encode_into(&mut batch, f);
            one_by_one.extend_from_slice(&encode(f));
        }
        assert_eq!(batch, one_by_one);
        assert_eq!(decode_stream(&batch[1..]), frames);
    }

    #[test]
    fn junk_tag_and_trailing_bytes_are_malformed() {
        assert!(matches!(decode(&[0xff]), Err(FrameError::Malformed(_))));
        let mut body = encode(&Frame::Mark {
            src: nid(0),
            round: 1,
        })[4..]
            .to_vec();
        body.push(0);
        assert!(matches!(decode(&body), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn empty_path_is_rejected() {
        // envelope, src 0, V_d, path_len 0
        let mut body = vec![TAG_ENVELOPE];
        put_u32(&mut body, 0);
        body.push(VAL_DEFAULT);
        put_u32(&mut body, 0);
        assert!(matches!(decode(&body), Err(FrameError::Malformed(_))));
    }

    /// The body of an envelope frame for `ids`, built by hand: no [`Path`]
    /// can hold what these tests put on the wire.
    fn envelope_body(src: u32, ids: &[u32]) -> Vec<u8> {
        let mut body = vec![TAG_ENVELOPE];
        put_u32(&mut body, src);
        body.push(VAL_DEFAULT);
        put_u32(&mut body, ids.len() as u32);
        for &id in ids {
            put_u32(&mut body, id);
        }
        body
    }

    #[test]
    fn a_path_that_repeats_an_id_is_malformed_not_a_panic() {
        // 18 bytes of body, 22 on the wire: the frame that used to assert
        // inside `Path::child`, on the node's only thread.
        let smallest = envelope_body(0, &[0, 0]);
        assert_eq!(smallest.len(), 18);
        assert!(matches!(decode(&smallest), Err(FrameError::Malformed(_))));
        // A repeat of any earlier id, at every position of a 2-, 3- and
        // 4-id path.
        for len in 2..=4u32 {
            let clean: Vec<u32> = (0..len).collect();
            assert!(decode(&envelope_body(len - 1, &clean)).is_ok());
            for at in 1..len as usize {
                for of in 0..at {
                    let mut ids = clean.clone();
                    ids[at] = ids[of];
                    assert!(
                        matches!(
                            decode(&envelope_body(0, &ids)),
                            Err(FrameError::Malformed(_))
                        ),
                        "{ids:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn an_id_beyond_the_range_is_malformed_never_its_alias() {
        // 65 539 = 65 536 + 3: narrowed to 16 bits it would be node 3, and
        // `[0, 65 539]` from link 3 a frame `admit` accepts.
        const ALIAS_OF_3: u32 = 65_539;
        let refused = |body: &[u8]| matches!(decode(body), Err(FrameError::Malformed(_)));
        for tag in [TAG_ENVELOPE, TAG_TRACED] {
            let retag = |mut body: Vec<u8>| {
                body[0] = tag;
                body
            };
            assert!(decode(&retag(envelope_body(3, &[0, 3]))).is_ok());
            assert!(refused(&retag(envelope_body(ALIAS_OF_3, &[0, 3]))), "src");
            assert!(refused(&retag(envelope_body(3, &[0, ALIAS_OF_3]))), "id");
            assert!(refused(&retag(envelope_body(3, &[ALIAS_OF_3, 1]))), "root");
        }
        let mark = |src: u32| {
            let mut body = vec![TAG_MARK];
            put_u32(&mut body, src);
            put_u32(&mut body, 1);
            body
        };
        assert!(decode(&mark(NodeId::MAX_INDEX as u32)).is_ok());
        assert!(refused(&mark(ALIAS_OF_3)));
        assert!(refused(&mark(u32::MAX)));
    }

    #[test]
    fn the_path_length_is_bounded_before_any_id_is_read() {
        let distinct = |len: u32| envelope_body(0, &(0..len).collect::<Vec<_>>());
        match decode(&distinct(MAX_PATH_LEN as u32)).unwrap() {
            Frame::Envelope { msg, .. } => assert_eq!(msg.path.len(), MAX_PATH_LEN),
            other => panic!("expected envelope, got {other:?}"),
        }
        // One past the bound, and the longest path a frame under
        // `MAX_FRAME_LEN` can spell: chaining 262 140 distinct ids through
        // `Path::child` took time quadratic in their number (seconds at
        // 80 000).
        for len in [MAX_PATH_LEN as u32 + 1, 262_140] {
            let body = distinct(len);
            assert!(body.len() <= MAX_FRAME_LEN as usize);
            // The quickest of five tries: the bound is on the decoder, not
            // on the scheduler.
            let quickest = (0..5)
                .map(|_| {
                    let start = std::time::Instant::now();
                    assert!(matches!(decode(&body), Err(FrameError::Malformed(_))));
                    start.elapsed()
                })
                .min()
                .unwrap();
            assert!(
                quickest < std::time::Duration::from_millis(1),
                "refusing a path of {len} ids took {quickest:?}"
            );
        }
    }

    #[test]
    fn ten_thousand_mutated_frames_never_panic() {
        let mut rng = simnet::SimRng::seed(0xF2A3E);
        let valid: Vec<Vec<u8>> = sample_frames()
            .iter()
            .map(|f| encode(f)[4..].to_vec())
            .collect();
        for _ in 0..10_000 {
            let mut body = rng.pick(&valid).unwrap().clone();
            for _ in 0..=rng.below(3) {
                let at = rng.below(body.len() as u64) as usize;
                match rng.below(4) {
                    0 => body[at] = rng.below(256) as u8,
                    1 => body[at] ^= 1 << rng.below(8),
                    2 => body.truncate(at.max(1)),
                    _ => body.insert(at, rng.below(256) as u8),
                }
            }
            // Whatever the verdict, it is a value; and a frame that
            // decodes says the same thing encoded again.
            if let Ok(frame) = decode(&body) {
                assert_eq!(decode(&encode(&frame)[4..]).unwrap(), frame);
            }
        }
    }

    #[test]
    fn untraced_envelopes_keep_the_v1_wire_tag() {
        let wire = encode(&sample_frames()[0]);
        assert_eq!(wire[4], TAG_ENVELOPE);
        let wire = encode(&sample_frames()[2]);
        assert_eq!(wire[4], TAG_TRACED);
    }

    #[test]
    fn traced_envelope_round_trips_its_context() {
        let frame = &sample_frames()[2];
        let wire = encode(frame);
        let back = decode(&wire[4..]).unwrap();
        assert_eq!(&back, frame);
        match back {
            Frame::Envelope { trace, .. } => {
                assert_eq!(trace, Some(TraceCtx::new(5, vec![0, 3])));
            }
            other => panic!("expected envelope, got {other:?}"),
        }
    }

    /// The satellite invariant: a `0x03` frame whose trace section is
    /// truncated, padded, or garbage still decodes — as an *untraced*
    /// envelope — so one corrupt trace never kills a mesh connection.
    #[test]
    fn malformed_trace_sections_degrade_to_untraced() {
        let frame = sample_frames()[2].clone();
        let untraced = match &frame {
            Frame::Envelope { src, msg, .. } => Frame::Envelope {
                src: *src,
                msg: msg.clone(),
                trace: None,
            },
            other => panic!("expected envelope, got {other:?}"),
        };
        let body = &encode(&frame)[4..];
        // Chop the trace section at every possible length, including
        // removing it entirely; the envelope part is bytes [0, split).
        let split = body.len() - (8 + 4 + 4 + 2 * 8);
        for cut in split..body.len() {
            let got = decode(&body[..cut])
                .unwrap_or_else(|e| panic!("truncated trace at {cut} must degrade, got {e}"));
            assert_eq!(got, untraced, "cut at {cut}");
        }
        // Trailing garbage after a complete trace section.
        let mut padded = body.to_vec();
        padded.push(0xAA);
        assert_eq!(decode(&padded).unwrap(), untraced);
        // An absurd path-length claim inside the trace section.
        let mut bloated = body[..split].to_vec();
        bloated.extend_from_slice(&7u64.to_le_bytes());
        put_u32(&mut bloated, 2);
        put_u32(&mut bloated, u32::MAX);
        assert_eq!(decode(&bloated).unwrap(), untraced);
        // But corruption in the *envelope* part stays fatal.
        assert!(matches!(decode(&body[..3]), Err(FrameError::Truncated)));
    }

    #[test]
    fn frame_src_accessor() {
        for f in sample_frames() {
            let _ = f.src();
        }
        assert_eq!(sample_frames()[1].src(), nid(3));
    }
}
