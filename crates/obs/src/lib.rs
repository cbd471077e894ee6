//! Deterministic observability core for the degradable-agreement
//! workspace.
//!
//! `obs` sits at the bottom of the dependency graph (zero external
//! dependencies, std only) and gives every layer above it — simnet,
//! the EIG engine, the sweep harness, the CLI and the benches — one
//! shared vocabulary for instrumentation:
//!
//! * [`Registry`] — named counters, gauges and fixed-bucket
//!   histograms with sorted, bit-stable JSON snapshots.
//! * [`Obs`] / [`SpanRecord`] / [`span!`] — lightweight spans that
//!   record *both* wall nanoseconds and a deterministic **logical
//!   cost** (events delivered, votes evaluated, messages
//!   materialized). Equality compares only the logical dimension, so
//!   reports and golden traces stay bit-identical across machines and
//!   worker counts; wall time rides along for humans.
//! * [`export`] — a Chrome `trace_event` exporter (loadable in
//!   `chrome://tracing`/Perfetto) and a flat JSONL exporter, plus the
//!   parser the `cli obs` subcommand uses to read either back.
//! * [`scrub_timing`] — the one place the "wall time is not part of
//!   the result" rule lives; `EigPerf` and the harness report both
//!   route through it.
//!
//! The design generalizes the `EigPerf` convention that predates this
//! crate: carry the clock, never compare it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod registry;
mod span;
pub mod tracectx;

pub use export::{chrome_trace_json, jsonl, parse_trace, ParsedTrace, TimeMode};
pub use json::JsonValue;
pub use registry::{Histogram, Registry};
pub use span::{Label, Obs, SpanRecord, SpanTimer};
pub use tracectx::TraceCtx;

/// Types that carry wall-clock measurements alongside deterministic
/// counters, and can zero the former while keeping the latter.
///
/// Implementations should destructure `self` exhaustively so that a
/// newly added field is a compile error until it is classified as
/// logical (kept) or timing (scrubbed).
pub trait ScrubTiming {
    /// Zeroes every wall-time field, leaving logical counters intact.
    fn scrub_timing(&mut self);
}

/// Zeroes wall-time fields on any [`ScrubTiming`] value — the single
/// entry point used by `--no-timing` style flags across the workspace.
pub fn scrub_timing<T: ScrubTiming + ?Sized>(value: &mut T) {
    value.scrub_timing();
}
