//! Monte Carlo reliability comparison (Section 3's motivation, quantified).
//!
//! Sweeps a per-node fault probability and measures, at the external
//! entity, the probability of a correct, default, and incorrect outcome
//! for each architecture. The paper's qualitative claim made measurable:
//! the degradable system converts the Byzantine system's *incorrect*
//! outcomes into *default* (safe) outcomes once faults exceed `m`.
//!
//! Trials are independent and seeded; they are distributed over worker
//! threads by [`harness::SweepRunner`], which derives each trial's RNG
//! from `(seed, trial_index)` — so the sweep's result is bit-identical
//! for any worker count.

use crate::system::{Architecture, ChannelSystem, ExternalOutcome};
use degradable::adversary::Strategy;
use harness::SweepRunner;
use serde::{Deserialize, Serialize};
use simnet::{NodeId, SimRng};
use std::collections::BTreeMap;

/// Aggregated outcome distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Trials ending correct.
    pub correct: usize,
    /// Trials ending in the default (safe) outcome.
    pub default: usize,
    /// Trials ending incorrect (unsafe).
    pub incorrect: usize,
}

impl OutcomeCounts {
    /// Total trials.
    pub fn total(&self) -> usize {
        self.correct + self.default + self.incorrect
    }

    /// Fraction of incorrect trials.
    pub fn p_incorrect(&self) -> f64 {
        self.incorrect as f64 / self.total().max(1) as f64
    }

    /// Fraction of correct trials.
    pub fn p_correct(&self) -> f64 {
        self.correct as f64 / self.total().max(1) as f64
    }

    /// Fraction of default trials.
    pub fn p_default(&self) -> f64 {
        self.default as f64 / self.total().max(1) as f64
    }

    fn add(&mut self, outcome: ExternalOutcome) {
        match outcome {
            ExternalOutcome::Correct => self.correct += 1,
            ExternalOutcome::Default => self.default += 1,
            ExternalOutcome::Incorrect => self.incorrect += 1,
        }
    }

    /// Accumulates another count set (e.g. when aggregating shards).
    pub fn merge(&mut self, other: OutcomeCounts) {
        self.correct += other.correct;
        self.default += other.default;
        self.incorrect += other.incorrect;
    }
}

/// Configuration of a Monte Carlo sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Probability that each *channel* is faulty in a trial (the sender is
    /// kept fault-free: the comparison targets conditions B.1/C.1/C.2,
    /// which assume a fault-free sender).
    pub channel_fault_p: f64,
    /// Number of trials.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            channel_fault_p: 0.1,
            trials: 2_000,
            seed: 77,
            workers: 4,
        }
    }
}

/// Sweep result split by whether the sampled fault count stayed within the
/// architecture's design limit (`u` for degradable, `m` for Byzantine, 0
/// for naive) — the conditions only promise anything within that limit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepResult {
    /// All trials.
    pub overall: OutcomeCounts,
    /// Trials with `f <= design limit`.
    pub within_design: OutcomeCounts,
    /// Trials with `f > design limit` (no promise made).
    pub beyond_design: OutcomeCounts,
}

impl SweepResult {
    /// Accumulates another sweep's counts (e.g. when aggregating shards).
    pub fn merge(&mut self, other: SweepResult) {
        self.overall.merge(other.overall);
        self.within_design.merge(other.within_design);
        self.beyond_design.merge(other.beyond_design);
    }
}

/// The architecture's design fault limit for channel faults.
pub fn design_limit(arch: Architecture) -> usize {
    match arch {
        Architecture::Byzantine { m } => m,
        Architecture::Degradable { params } => params.u(),
        Architecture::Naive { .. } => 0,
        Architecture::Crusader { t } => t,
    }
}

/// Runs one trial: sample a fault set and strategies, run one cycle.
/// Returns the fault count and the outcome.
fn run_trial(system: &ChannelSystem, rng: &mut SimRng, p: f64) -> (usize, ExternalOutcome) {
    let channels = system.architecture().channel_count();
    let sensor = rng.below(1 << 32);
    let wrong = sensor ^ (1 + rng.below(1 << 16));
    let mut strategies: BTreeMap<NodeId, Strategy<u64>> = BTreeMap::new();
    let battery = Strategy::battery(sensor, wrong, rng.below(u64::MAX - 1));
    for ch in 1..=channels {
        if rng.chance(p) {
            let (_, strat) = battery[rng.below(battery.len() as u64) as usize].clone();
            strategies.insert(NodeId::new(ch), strat);
        }
    }
    let f = strategies.len();
    (f, system.run_cycle(sensor, &strategies).outcome)
}

/// Runs the sweep for one architecture, parallelized over workers.
///
/// Results depend only on the config (not the worker count): trial `i`
/// draws from `SimRng::derive(config.seed, i)` via the shared
/// [`SweepRunner`].
pub fn run_monte_carlo(arch: Architecture, config: MonteCarloConfig) -> SweepResult {
    let system = ChannelSystem::new(arch);
    let limit = design_limit(arch);
    let p = config.channel_fault_p;
    SweepRunner::new(config.workers).fold(
        config.seed,
        config.trials,
        |_, mut rng| run_trial(&system, &mut rng, p),
        SweepResult::default(),
        |mut counts, (f, outcome)| {
            counts.overall.add(outcome);
            if f <= limit {
                counts.within_design.add(outcome);
            } else {
                counts.beyond_design.add(outcome);
            }
            counts
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use degradable::Params;

    fn byz() -> Architecture {
        Architecture::Byzantine { m: 1 }
    }

    fn deg() -> Architecture {
        Architecture::Degradable {
            params: Params::new(1, 2).unwrap(),
        }
    }

    fn config(trials: usize, p: f64) -> MonteCarloConfig {
        MonteCarloConfig {
            channel_fault_p: p,
            trials,
            seed: 99,
            workers: 4,
        }
    }

    #[test]
    fn zero_fault_probability_always_correct() {
        let c = run_monte_carlo(deg(), config(200, 0.0));
        assert_eq!(c.overall.correct, 200);
        assert_eq!(c.overall.total(), 200);
        assert_eq!(c.beyond_design.total(), 0);
    }

    #[test]
    fn degradable_never_incorrect_within_design() {
        // Within f <= u the degradable system's external outcome is
        // correct-or-default — C.1/C.2 — for *every* sampled adversary.
        let c = run_monte_carlo(deg(), config(2_000, 0.25));
        assert_eq!(
            c.within_design.incorrect, 0,
            "degradable system violated C.2: {c:?}"
        );
        assert!(c.within_design.default > 0, "expected some degraded trials");
    }

    #[test]
    fn byzantine_system_incorrect_beyond_design() {
        // The 3-channel system beyond m = 1 faults does produce incorrect
        // outcomes (colluding lies get through 2-of-3), while within the
        // design limit it is always correct.
        let c = run_monte_carlo(byz(), config(2_000, 0.25));
        assert_eq!(c.within_design.incorrect, 0);
        assert_eq!(c.within_design.default, 0, "B.1 promises correctness");
        assert!(
            c.beyond_design.incorrect > 0,
            "expected the Byzantine system to fail beyond m: {c:?}"
        );
    }

    #[test]
    fn results_are_reproducible() {
        let a = run_monte_carlo(deg(), config(500, 0.2));
        let b = run_monte_carlo(deg(), config(500, 0.2));
        assert_eq!(a, b);
    }

    #[test]
    fn results_are_worker_count_independent() {
        let run_on = |workers| {
            run_monte_carlo(
                deg(),
                MonteCarloConfig {
                    channel_fault_p: 0.2,
                    trials: 300,
                    seed: 99,
                    workers,
                },
            )
        };
        let reference = run_on(1);
        assert_eq!(run_on(2), reference);
        assert_eq!(run_on(8), reference);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let c = run_monte_carlo(byz(), config(400, 0.3)).overall;
        let sum = c.p_correct() + c.p_default() + c.p_incorrect();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(c.total(), 400);
    }

    #[test]
    fn design_limits() {
        assert_eq!(design_limit(byz()), 1);
        assert_eq!(design_limit(deg()), 2);
        assert_eq!(design_limit(Architecture::Naive { channels: 3 }), 0);
    }
}
