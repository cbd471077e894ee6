//! # harness — the experiment-execution layer
//!
//! Every experiment in this workspace is some composition of the same four
//! ingredients, which this crate owns end to end:
//!
//! * [`Scenario`] — a declarative description of one agreement experiment:
//!   `(n, m, u)`, the sender and its value, per-node Byzantine
//!   [`Strategy`](degradable::Strategy) assignments, a
//!   [`Topology`](simnet::Topology), and a master seed.
//! * [`Executor`] — the "how to run it" abstraction with two
//!   implementations: [`ReferenceExecutor`] (the `degradable::eig`
//!   behaviour-function executor) and [`ProtocolExecutor`] (the real
//!   message-passing protocol on the `simnet` round engine). Equivalence
//!   checks and sweeps are written once against the trait.
//! * [`SweepRunner`] — deterministic parallel trial execution. Each
//!   trial's RNG is derived as
//!   [`SimRng::derive(master_seed, trial_index)`](simnet::SimRng::derive),
//!   never from the worker id, so results are **bit-identical for any
//!   worker count** (see `tests/determinism.rs`).
//! * [`report`] — ASCII tables and versioned JSON reports written to
//!   `results/*.json` (schema `degradable-harness-report`, versioned; see
//!   [`report`]).
//!
//! ```
//! use harness::{Executor, ReferenceExecutor, Scenario, SweepRunner};
//!
//! // P(agreement) under one random faulty node, over 64 seeded trials —
//! // identical results whether run on 1 worker or 8.
//! let runner = SweepRunner::new(4);
//! let outcomes = runner.run(0xD1CE, 64, |_trial, mut rng| {
//!     let scenario = Scenario::new(5, 1, 2).randomize_faults(1, &mut rng);
//!     ReferenceExecutor.execute(&scenario).expect("valid scenario")
//! });
//! assert_eq!(outcomes.len(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod fuzz;
pub mod report;
pub mod scenario;
pub mod slo;
pub mod sweep;

pub use executor::{Executor, ProtocolExecutor, ReferenceExecutor, TransportExecutor};
pub use fuzz::{fuzz, fuzz_trial, replay, write_repro, FuzzConfig, FuzzPlan, Mutation};
pub use report::{JsonValue, Report, Table};
pub use scenario::{ChaosConfig, Scenario};
pub use slo::SloSpec;
pub use sweep::SweepRunner;
