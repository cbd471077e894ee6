//! Causal trace context for protocol messages.
//!
//! A [`TraceCtx`] identifies one protocol envelope causally: which
//! agreement *instance* it belongs to, the EIG relay *path* it claims,
//! and how many *hops* it has traversed. The sender stamps it at send
//! time; transports propagate it (the TCP mesh puts it on the wire, see
//! `transport::frame`), and receivers record it alongside their
//! `trace.deliver` spans — so a trace file contains enough to rebuild
//! the full send → deliver → fill → resolve → decide chain of any
//! message after the fact.
//!
//! Everything here is plain deterministic data: under
//! [`TimeMode::Logical`](crate::TimeMode) a traced run serializes
//! bit-identically across reruns and worker counts. Span attributes are
//! `u64`-valued, so the context flattens to the args
//! `instance`, `hop`, `path_len`, `p0`.. `p{len-1}` and parses back via
//! [`TraceCtx::from_span_args`].

use crate::json::JsonValue;
use crate::span::Label;
use std::fmt;

/// Causal identity of one protocol envelope.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct TraceCtx {
    /// Agreement instance the envelope belongs to (0 for single-instance
    /// runs; the slot index in batched streams).
    pub instance: u64,
    /// The claimed EIG relay path, root (sender) first.
    pub path: Vec<u64>,
    /// Hops traversed when the envelope was sent (= the sending round;
    /// equals `path.len()` for well-formed envelopes, carried separately
    /// so re-sends and malformed claims stay distinguishable).
    pub hop: u32,
}

impl TraceCtx {
    /// A context for an envelope of `instance` carrying `path`, stamped
    /// at hop `path.len()`.
    pub fn new(instance: u64, path: Vec<u64>) -> Self {
        let hop = path.len() as u32;
        TraceCtx {
            instance,
            path,
            hop,
        }
    }

    /// The context flattened to span attributes:
    /// `[("instance", i), ("hop", h), ("path_len", L), ("p0", n0), ...]`.
    pub fn span_args(&self) -> Vec<(Label, u64)> {
        let mut args: Vec<(Label, u64)> = vec![
            ("instance".into(), self.instance),
            ("hop".into(), u64::from(self.hop)),
            ("path_len".into(), self.path.len() as u64),
        ];
        for (i, node) in self.path.iter().enumerate() {
            args.push((format!("p{i}").into(), *node));
        }
        args
    }

    /// Rebuilds a context from span attributes written by
    /// [`TraceCtx::span_args`]. Returns `None` when the args carry no
    /// trace context (not an error: most spans are not trace events).
    pub fn from_span_args(args: &[(Label, u64)]) -> Option<TraceCtx> {
        let get = |key: &str| args.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        let instance = get("instance")?;
        let hop = get("hop")? as u32;
        let path_len = get("path_len")? as usize;
        let mut path = Vec::with_capacity(path_len);
        for i in 0..path_len {
            path.push(get(&format!("p{i}"))?);
        }
        Some(TraceCtx {
            instance,
            path,
            hop,
        })
    }

    /// The context as a flat JSON object:
    /// `{"instance":0,"path":[0,2,5],"hop":2}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("instance".into(), self.instance.into()),
            ("path".into(), self.path.clone().into()),
            ("hop".into(), u64::from(self.hop).into()),
        ])
    }

    /// The inverse of [`TraceCtx::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &JsonValue) -> Result<TraceCtx, String> {
        let instance = value
            .get("instance")
            .and_then(JsonValue::as_u64)
            .ok_or("trace ctx missing u64 `instance`")?;
        let hop = value
            .get("hop")
            .and_then(JsonValue::as_u64)
            .ok_or("trace ctx missing u64 `hop`")? as u32;
        let path = value
            .get("path")
            .and_then(JsonValue::as_array)
            .ok_or("trace ctx missing array `path`")?
            .iter()
            .map(|v| v.as_u64().ok_or("trace ctx path element not a u64"))
            .collect::<Result<Vec<u64>, _>>()?;
        Ok(TraceCtx {
            instance,
            path,
            hop,
        })
    }

    /// Whether `other`'s path extends this context's path by exactly one
    /// hop within the same instance — the causal-chain successor test
    /// the critical-path reconstruction uses.
    pub fn is_parent_of(&self, other: &TraceCtx) -> bool {
        self.instance == other.instance
            && other.path.len() == self.path.len() + 1
            && other.path.starts_with(&self.path)
    }
}

impl fmt::Display for TraceCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst {} path ", self.instance)?;
        if self.path.is_empty() {
            write!(f, "(empty)")?;
        } else {
            for (i, node) in self.path.iter().enumerate() {
                if i > 0 {
                    write!(f, "->")?;
                }
                write!(f, "{node}")?;
            }
        }
        write!(f, " hop {}", self.hop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_args_round_trip() {
        let ctx = TraceCtx::new(3, vec![0, 2, 5]);
        assert_eq!(ctx.hop, 3);
        let args = ctx.span_args();
        assert_eq!(args[0], ("instance".into(), 3));
        assert_eq!(args[2], ("path_len".into(), 3));
        assert_eq!(TraceCtx::from_span_args(&args), Some(ctx));
    }

    #[test]
    fn span_args_absent_on_plain_spans() {
        assert_eq!(TraceCtx::from_span_args(&[("level".into(), 2)]), None);
        // A truncated path (missing p1) is no context at all.
        let args: Vec<(Label, u64)> = vec![
            ("instance".into(), 0),
            ("hop".into(), 2),
            ("path_len".into(), 2),
            ("p0".into(), 0),
        ];
        assert_eq!(TraceCtx::from_span_args(&args), None);
    }

    #[test]
    fn json_round_trip() {
        let ctx = TraceCtx::new(7, vec![0, 4]);
        let text = ctx.to_json().to_json_string();
        assert_eq!(text, "{\"instance\":7,\"path\":[0,4],\"hop\":2}");
        let back = TraceCtx::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ctx);
    }

    #[test]
    fn from_json_rejects_malformed() {
        for bad in [
            "{\"path\":[0],\"hop\":1}",
            "{\"instance\":0,\"hop\":1}",
            "{\"instance\":0,\"path\":[\"x\"],\"hop\":1}",
        ] {
            let v = JsonValue::parse(bad).unwrap();
            assert!(TraceCtx::from_json(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn parenthood_is_one_hop_extension_same_instance() {
        let root = TraceCtx::new(0, vec![0]);
        let child = TraceCtx::new(0, vec![0, 2]);
        let grandchild = TraceCtx::new(0, vec![0, 2, 4]);
        let foreign = TraceCtx::new(1, vec![0, 2]);
        assert!(root.is_parent_of(&child));
        assert!(child.is_parent_of(&grandchild));
        assert!(!root.is_parent_of(&grandchild));
        assert!(!root.is_parent_of(&foreign));
        assert!(!child.is_parent_of(&root));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            TraceCtx::new(2, vec![0, 3, 1]).to_string(),
            "inst 2 path 0->3->1 hop 3"
        );
        assert_eq!(
            TraceCtx::new(0, vec![]).to_string(),
            "inst 0 path (empty) hop 0"
        );
    }
}
