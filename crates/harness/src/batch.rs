//! Batched scenarios: many agreement slots over one [`Scenario`] network.
//!
//! A [`BatchScenario`] wraps a base [`Scenario`] (which contributes the
//! node count, fault set, link-fault plan / chaos config, and master
//! seed) with a list of `(sender, value)` slots, and executes all slots
//! concurrently through the arena-backed batch service
//! ([`degradable::run_batch`]). The two common shapes have constructors:
//!
//! * [`BatchScenario::stream`] — K slots from the base scenario's sender
//!   (a replicated-log / sensor-stream workload; one shared arena).
//! * [`BatchScenario::interactive_consistency`] — one slot per node
//!   (the IC workload of the paper's Section 6; one arena per sender).
//!
//! [`BatchScenario::run_sequential`] executes the same slots one at a
//! time through [`degradable::run_protocol_with`] under the same link
//! plan — the baseline for experiment E16. With healthy links or a
//! deterministic plan (cuts, `p = 1.0` duplication) the sequential
//! decisions are bit-identical to the batch; under probabilistic chaos
//! the two draw the shared link RNG in different orders, so identity is
//! instead asserted between the batch arena fold and per-receiver
//! [`degradable::EigView`] folds of the same observations
//! (`degradable::BatchOptions::views`).

use crate::scenario::{Scenario, ScenarioError};
use degradable::{
    run_batch, run_protocol_with, BatchInstance, BatchRun, ByzInstance, ProtocolRun, Val,
};
use obs::Obs;
use simnet::NodeId;

/// A batch of agreement slots executed over one scenario's network.
#[derive(Debug, Clone)]
pub struct BatchScenario {
    /// The base scenario: `(n, m, u)`, fault strategies, topology,
    /// link-fault plan and chaos config, master seed. The base's own
    /// `sender`/`sender_value` are *not* implicitly a slot — `slots`
    /// alone defines the workload.
    pub base: Scenario,
    /// `(sender, value)` per slot, in execution order.
    pub slots: Vec<(NodeId, Val)>,
}

impl BatchScenario {
    /// K-slot stream: every value sent by the base scenario's sender.
    #[must_use]
    pub fn stream(base: Scenario, values: Vec<Val>) -> Self {
        let sender = base.sender;
        Self {
            slots: values.into_iter().map(|v| (sender, v)).collect(),
            base,
        }
    }

    /// Interactive consistency: slot `i` sent by node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != base.n`.
    #[must_use]
    pub fn interactive_consistency(base: Scenario, values: Vec<Val>) -> Self {
        assert_eq!(values.len(), base.n, "IC needs one value per node");
        Self {
            slots: values
                .into_iter()
                .enumerate()
                .map(|(i, v)| (NodeId::new(i), v))
                .collect(),
            base,
        }
    }

    /// The slots as batch-service instances.
    #[must_use]
    pub fn instances(&self) -> Vec<BatchInstance<u64>> {
        self.slots
            .iter()
            .map(|(sender, value)| BatchInstance {
                sender: *sender,
                value: *value,
            })
            .collect()
    }

    /// Checks parameters, topology (the batch service multiplexes the
    /// fully-connected protocol, so the base must be complete), and every
    /// distinct slot sender against the instance bounds.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let params = self.base.params()?;
        if !self.base.is_complete_topology() {
            return Err(ScenarioError::TopologyUnsupported {
                topology: self.base.topology.name().to_string(),
                executor: "batch",
            });
        }
        for (sender, _) in &self.slots {
            ByzInstance::new(self.base.n, params, *sender).map_err(ScenarioError::Instance)?;
        }
        Ok(())
    }

    /// Runs every slot concurrently through the arena-backed batch
    /// service, with the base scenario's effective link plan installed.
    pub fn run(&self) -> Result<BatchRun<u64>, ScenarioError> {
        self.run_observed(1, &mut Obs::disabled())
    }

    /// [`BatchScenario::run`] with a resolve worker count and an obs
    /// recorder (decisions are worker-count-independent).
    pub fn run_observed(
        &self,
        workers: usize,
        obs: &mut Obs,
    ) -> Result<BatchRun<u64>, ScenarioError> {
        self.validate()?;
        let run = run_batch(
            self.base.params()?,
            self.base.n,
            &self.instances(),
            &self.base.strategies,
            self.base.master_seed,
            self.base.network_options().workers(workers).obs(obs),
        );
        Ok(run.expect("validated above"))
    }

    /// The one-at-a-time baseline: each slot as its own
    /// [`run_protocol_with`] execution under the same link plan and the
    /// same master seed.
    pub fn run_sequential(&self) -> Result<Vec<ProtocolRun<u64>>, ScenarioError> {
        self.validate()?;
        let params = self.base.params()?;
        self.slots
            .iter()
            .map(|(sender, value)| {
                let instance = ByzInstance::new(self.base.n, params, *sender)
                    .map_err(ScenarioError::Instance)?;
                Ok(run_protocol_with(
                    &instance,
                    value,
                    &self.base.strategies,
                    self.base.master_seed,
                    self.base.network_options(),
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ChaosConfig;
    use degradable::Strategy;
    use simnet::{SimRng, Topology};

    fn base() -> Scenario {
        let mut s = Scenario::new(5, 1, 2);
        s.strategies
            .insert(NodeId::new(3), Strategy::ConstantLie(Val::Value(9)));
        s.master_seed = 0xBA7C;
        s
    }

    fn vals(k: usize) -> Vec<Val> {
        (0..k).map(|i| Val::Value(100 + i as u64)).collect()
    }

    #[test]
    fn stream_batch_matches_sequential_on_healthy_links() {
        let batch = BatchScenario::stream(base(), vals(6));
        let run = batch.run().expect("valid");
        assert_eq!(run.arena_builds, 1, "one sender, one arena");
        let seq = batch.run_sequential().expect("valid");
        for (k, solo) in seq.iter().enumerate() {
            assert_eq!(run.decisions[k], solo.decisions, "slot {k}");
        }
        assert_eq!(
            run.net.sent,
            seq.iter().map(|r| r.net.sent).sum::<usize>(),
            "multiplexing sends exactly the union of the solo traffic"
        );
    }

    #[test]
    fn ic_batch_builds_one_arena_per_sender() {
        let batch = BatchScenario::interactive_consistency(base(), vals(5));
        let run = batch.run().expect("valid");
        assert_eq!(run.arena_builds, 5);
        let seq = batch.run_sequential().expect("valid");
        for (k, solo) in seq.iter().enumerate() {
            assert_eq!(run.decisions[k], solo.decisions, "slot {k}");
        }
    }

    #[test]
    fn chaotic_batch_is_worker_count_invariant() {
        let mut b = base();
        b.chaos = Some(ChaosConfig {
            drop_p: 0.2,
            duplicate_p: 0.2,
            reorder_window: 2,
            corrupt_p: 0.1,
        });
        let mut rng = SimRng::derive(b.master_seed, 0);
        let b = b.randomize_faults(1, &mut rng);
        let batch = BatchScenario::stream(b, vals(4));
        let one = batch.run_observed(1, &mut Obs::disabled()).expect("valid");
        let eight = batch.run_observed(8, &mut Obs::disabled()).expect("valid");
        assert_eq!(one.decisions, eight.decisions);
        assert_eq!(one.net.eig, eight.net.eig);
        assert!(one.net.link_fault_injections() > 0);
    }

    #[test]
    fn sparse_topology_is_rejected() {
        let mut s = base();
        s.topology = Topology::ring(5);
        let batch = BatchScenario::stream(s, vals(2));
        assert!(matches!(
            batch.run(),
            Err(ScenarioError::TopologyUnsupported {
                executor: "batch",
                ..
            })
        ));
    }

    #[test]
    fn out_of_range_slot_sender_is_rejected() {
        let mut batch = BatchScenario::stream(base(), vals(2));
        batch.slots.push((NodeId::new(9), Val::Value(1)));
        assert!(matches!(batch.run(), Err(ScenarioError::Instance(_))));
    }
}
