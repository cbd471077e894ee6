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
//!   record a deterministic **logical cost** (events delivered, votes
//!   evaluated, messages materialized) and no wall time.
//! * [`export`] — a Chrome `trace_event` exporter (loadable in
//!   `chrome://tracing`/Perfetto, laid out by logical cost) and a flat
//!   JSONL exporter, plus the parser the `cli obs` subcommand uses to
//!   read either back.
//!
//! Nothing here reads a clock, so every recorder, report section and
//! trace file is a pure function of code and seed: bit-identical across
//! machines, reruns and worker counts. Wall time belongs to the
//! `benchmark/` ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod registry;
mod span;
pub mod tracectx;

pub use export::{chrome_trace_json, jsonl, parse_trace, ParsedTrace};
pub use json::JsonValue;
pub use registry::{Histogram, Registry};
pub use span::{Label, Obs, SpanRecord, SpanTimer};
pub use tracectx::TraceCtx;
