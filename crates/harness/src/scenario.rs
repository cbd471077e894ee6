//! Declarative description of one agreement experiment.

use degradable::adversary::Strategy;
use degradable::{BatchMsg, BatchOptions, ByzError, ByzInstance, Params, ParamsError, Val};
use serde::{Deserialize, Serialize};
use simnet::{LinkFaultKind, LinkFaultPlan, NodeId, RoundEngine, SimRng, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use transport::TransportKind;

/// Uniform link-chaos intensity knobs, applied to **every** directed edge
/// of the execution topology on top of any explicit
/// [`Scenario::link_faults`] plan.
///
/// Each non-zero knob becomes one [`LinkFaultKind`] per directed edge;
/// [`ChaosConfig::quiet`] (all zeros) injects nothing, so a scenario with a
/// quiet config is byte-identical in behaviour to one with no config.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Per-message silent-loss probability.
    pub drop_p: f64,
    /// Per-message duplication probability.
    pub duplicate_p: f64,
    /// Maximum extra rounds a message may be delayed (0 disables
    /// reordering).
    pub reorder_window: usize,
    /// Per-message corruption probability; corrupted envelopes are
    /// *detectably* garbled and read as absent (`V_d`), never as a wrong
    /// value — the paper's oral-message axiom.
    pub corrupt_p: f64,
}

impl ChaosConfig {
    /// No chaos at all.
    pub fn quiet() -> Self {
        ChaosConfig {
            drop_p: 0.0,
            duplicate_p: 0.0,
            reorder_window: 0,
            corrupt_p: 0.0,
        }
    }

    /// Whether every knob is zero (nothing would be injected).
    fn is_quiet(&self) -> bool {
        self.drop_p == 0.0
            && self.duplicate_p == 0.0
            && self.reorder_window == 0
            && self.corrupt_p == 0.0
    }

    /// The non-zero knobs as link-fault kinds (in a fixed application
    /// order: drop, duplicate, reorder, corrupt).
    fn kinds(&self) -> Vec<LinkFaultKind> {
        let mut kinds = Vec::new();
        if self.drop_p > 0.0 {
            kinds.push(LinkFaultKind::Drop { p: self.drop_p });
        }
        if self.duplicate_p > 0.0 {
            kinds.push(LinkFaultKind::Duplicate {
                p: self.duplicate_p,
            });
        }
        if self.reorder_window > 0 {
            kinds.push(LinkFaultKind::Reorder {
                window: self.reorder_window,
            });
        }
        if self.corrupt_p > 0.0 {
            kinds.push(LinkFaultKind::Corrupt { p: self.corrupt_p });
        }
        kinds
    }

    /// Expands the knobs into a plan covering every directed pair of `n`
    /// nodes (the complete execution topology of the protocol executor).
    fn plan_for_complete(&self, n: usize) -> LinkFaultPlan {
        LinkFaultPlan::uniform_complete(n, &self.kinds())
    }
}

/// A fully specified agreement experiment, independent of how it is
/// executed (see [`crate::Executor`]).
///
/// Construction is builder-style from [`Scenario::new`]; every field is
/// public so sweeps can also mutate scenarios in place.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Number of nodes.
    pub n: usize,
    /// Full-agreement fault tolerance `m`.
    pub m: usize,
    /// Degraded-agreement fault tolerance `u` (`m <= u`).
    pub u: usize,
    /// The designated sender.
    pub sender: NodeId,
    /// The sender's nominal value.
    pub sender_value: Val,
    /// Strategy per faulty node; the key set *is* the fault set.
    pub strategies: BTreeMap<NodeId, Strategy<u64>>,
    /// Network topology. Executors for the fully-connected protocol
    /// (reference and message-passing BYZ) require a complete graph and
    /// report the mismatch as an error; the field exists so sparse-network
    /// executors and reports share the same scenario type.
    pub topology: Topology,
    /// Master seed: drives every derived random choice (engine schedules,
    /// fault placement via [`Scenario::randomize_faults`]).
    pub master_seed: u64,
    /// Explicit link-fault plan (cuts, per-edge chaos) injected into the
    /// message-passing executor's engine. `None` means healthy links.
    pub link_faults: Option<LinkFaultPlan>,
    /// Uniform chaos intensity applied to every directed edge, layered on
    /// top of `link_faults`. `None` (or a quiet config) injects nothing.
    pub chaos: Option<ChaosConfig>,
    /// Which network backend [`crate::TransportExecutor`] runs the
    /// scenario on. Defaults to the deterministic simulator; absent from
    /// older serialized scenarios, which deserialize to the default.
    #[serde(default)]
    pub transport: TransportKind,
}

/// Why a [`Scenario`] cannot be instantiated or executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// `(m, u)` is not a valid parameter pair (`u < m`).
    Params(ParamsError),
    /// The instance violates the node-count or sender-range bound.
    Instance(ByzError),
    /// The executor requires a complete topology but the scenario names a
    /// different one.
    TopologyUnsupported {
        /// The topology's name.
        topology: String,
        /// The executor that rejected it.
        executor: &'static str,
    },
    /// The scenario requests link faults or chaos, but the executor has no
    /// message layer to inject them into (e.g. the reference executor
    /// computes decisions directly from the behaviour function).
    ChaosUnsupported {
        /// The executor that rejected the scenario.
        executor: &'static str,
    },
    /// The selected network backend failed to come up (socket setup on the
    /// TCP mesh — the only backend that can actually fail).
    Transport {
        /// The backend that failed.
        kind: transport::TransportKind,
        /// The underlying failure, rendered.
        error: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Params(e) => write!(f, "invalid parameters: {e}"),
            ScenarioError::Instance(e) => write!(f, "invalid instance: {e}"),
            ScenarioError::TopologyUnsupported { topology, executor } => {
                write!(
                    f,
                    "executor {executor} requires a complete topology, got {topology}"
                )
            }
            ScenarioError::ChaosUnsupported { executor } => {
                write!(
                    f,
                    "executor {executor} has no message layer to inject link faults into"
                )
            }
            ScenarioError::Transport { kind, error } => {
                write!(f, "transport backend {kind} failed: {error}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ParamsError> for ScenarioError {
    fn from(e: ParamsError) -> Self {
        ScenarioError::Params(e)
    }
}

impl From<ByzError> for ScenarioError {
    fn from(e: ByzError) -> Self {
        ScenarioError::Instance(e)
    }
}

impl Scenario {
    /// A scenario with `n` nodes and parameters `(m, u)`: sender 0 holding
    /// value 1, no faults, complete topology, master seed 0.
    pub fn new(n: usize, m: usize, u: usize) -> Self {
        Scenario {
            n,
            m,
            u,
            sender: NodeId::new(0),
            sender_value: Val::Value(1),
            strategies: BTreeMap::new(),
            topology: Topology::complete(n),
            master_seed: 0,
            link_faults: None,
            chaos: None,
            transport: TransportKind::default(),
        }
    }

    /// Replaces the sender's value.
    pub fn with_sender_value(mut self, value: Val) -> Self {
        self.sender_value = value;
        self
    }

    /// Replaces the full strategy map.
    pub fn with_strategies(mut self, strategies: BTreeMap<NodeId, Strategy<u64>>) -> Self {
        self.strategies = strategies;
        self
    }

    /// Marks one node faulty with the given strategy.
    pub fn with_strategy(mut self, node: NodeId, strategy: Strategy<u64>) -> Self {
        self.strategies.insert(node, strategy);
        self
    }

    /// Replaces the topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Replaces the master seed.
    pub fn with_master_seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// Installs an explicit link-fault plan (cuts, per-edge chaos).
    pub fn with_link_faults(mut self, plan: LinkFaultPlan) -> Self {
        self.link_faults = Some(plan);
        self
    }

    /// Installs uniform chaos intensity knobs.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Selects the network backend for [`crate::TransportExecutor`].
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Whether this scenario asks for any link-level fault injection.
    pub fn has_link_chaos(&self) -> bool {
        self.link_faults.as_ref().is_some_and(|p| !p.is_empty())
            || self.chaos.is_some_and(|c| !c.is_quiet())
    }

    /// The merged link-fault plan the message-passing executor installs:
    /// the explicit [`Scenario::link_faults`] plan with the uniform
    /// [`Scenario::chaos`] knobs layered on every directed pair. `None`
    /// when nothing would be injected.
    pub fn effective_link_plan(&self) -> Option<LinkFaultPlan> {
        if !self.has_link_chaos() {
            return None;
        }
        let mut plan = self.link_faults.clone().unwrap_or_default();
        if let Some(chaos) = self.chaos.filter(|c| !c.is_quiet()) {
            plan = plan.stacked_with(&chaos.plan_for_complete(self.n));
        }
        Some(plan)
    }

    /// [`Scenario::effective_link_plan`] as simulated-network options. No
    /// corruptor is installed: the engine's default drops corrupted
    /// envelopes, i.e. corruption reads as absence (`V_d`), the paper's
    /// oral-message axiom.
    pub(crate) fn network_options<'a>(&self) -> BatchOptions<'a, u64> {
        match self.effective_link_plan() {
            Some(plan) => BatchOptions::new()
                .network(|e: RoundEngine<BatchMsg<u64>>| e.with_link_faults(plan)),
            None => BatchOptions::new(),
        }
    }

    /// Assigns `f` uniformly-placed faulty nodes, each with a strategy
    /// drawn from the standard [`Strategy::battery`], consuming randomness
    /// from `rng` only (so placement is reproducible from the trial seed).
    pub fn randomize_faults(mut self, f: usize, rng: &mut SimRng) -> Self {
        let alpha = match self.sender_value {
            Val::Value(v) => v,
            Val::Default => 0,
        };
        let battery = Strategy::battery(alpha, alpha ^ 0xBAD, rng.below(u64::MAX));
        self.strategies = rng
            .choose_indices(self.n, f.min(self.n))
            .into_iter()
            .map(|i| {
                let (_, s) = battery[rng.below(battery.len() as u64) as usize].clone();
                (NodeId::new(i), s)
            })
            .collect();
        self
    }

    /// The `(m, u)` parameter pair.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Params`] when `u < m`.
    pub fn params(&self) -> Result<Params, ScenarioError> {
        Ok(Params::new(self.m, self.u)?)
    }

    /// The validated BYZ instance for this scenario.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Params`] or [`ScenarioError::Instance`] when the
    /// scenario violates the parameter or node-count bounds.
    pub fn instance(&self) -> Result<ByzInstance, ScenarioError> {
        Ok(ByzInstance::new(self.n, self.params()?, self.sender)?)
    }

    /// The fault set (the strategy map's key set).
    pub fn faulty(&self) -> BTreeSet<NodeId> {
        self.strategies.keys().copied().collect()
    }

    /// Number of faulty nodes.
    pub fn f(&self) -> usize {
        self.strategies.len()
    }

    /// Whether the scenario's topology is the complete graph on `n` nodes.
    pub fn is_complete_topology(&self) -> bool {
        let g = self.topology.graph();
        self.topology.node_count() == self.n && g.edge_count() == self.n * (self.n - 1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let s = Scenario {
            sender: NodeId::new(2),
            ..Scenario::new(5, 1, 2)
        }
        .with_sender_value(Val::Value(9))
        .with_strategy(NodeId::new(4), Strategy::Silent)
        .with_master_seed(7);
        assert_eq!(s.sender, NodeId::new(2));
        assert_eq!(s.sender_value, Val::Value(9));
        assert_eq!(s.f(), 1);
        assert!(s.faulty().contains(&NodeId::new(4)));
        assert_eq!(s.master_seed, 7);
        assert!(s.is_complete_topology());
        assert!(s.instance().is_ok());
    }

    #[test]
    fn invalid_bounds_surface_as_errors() {
        assert!(matches!(
            Scenario::new(4, 1, 2).instance(),
            Err(ScenarioError::Instance(_))
        ));
        assert!(matches!(
            Scenario::new(9, 3, 1).instance(),
            Err(ScenarioError::Params(_))
        ));
    }

    #[test]
    fn quiet_chaos_injects_nothing() {
        let s = Scenario::new(5, 1, 2).with_chaos(ChaosConfig::quiet());
        assert!(!s.has_link_chaos());
        assert!(s.effective_link_plan().is_none());
        assert!(Scenario::new(5, 1, 2).effective_link_plan().is_none());
        assert!(!Scenario::new(5, 1, 2)
            .with_link_faults(LinkFaultPlan::healthy())
            .has_link_chaos());
    }

    #[test]
    fn chaos_knobs_expand_to_every_directed_pair() {
        let chaos = ChaosConfig {
            drop_p: 0.1,
            duplicate_p: 0.2,
            reorder_window: 0,
            corrupt_p: 0.0,
        };
        let s = Scenario::new(4, 1, 1).with_chaos(chaos);
        assert!(s.has_link_chaos());
        let plan = s.effective_link_plan().unwrap();
        assert_eq!(plan.faulty_link_count(), 4 * 3);
        let kinds = plan.kinds(NodeId::new(0), NodeId::new(3));
        assert_eq!(
            kinds,
            &[
                LinkFaultKind::Drop { p: 0.1 },
                LinkFaultKind::Duplicate { p: 0.2 }
            ]
        );
    }

    #[test]
    fn explicit_plan_and_chaos_knobs_merge() {
        let plan = LinkFaultPlan::healthy().with(
            NodeId::new(0),
            NodeId::new(1),
            LinkFaultKind::Cut { from_round: 0 },
        );
        let chaos = ChaosConfig {
            drop_p: 0.5,
            ..ChaosConfig::quiet()
        };
        let merged = Scenario::new(5, 1, 2)
            .with_link_faults(plan)
            .with_chaos(chaos)
            .effective_link_plan()
            .unwrap();
        let kinds = merged.kinds(NodeId::new(0), NodeId::new(1));
        assert_eq!(
            kinds,
            &[
                LinkFaultKind::Cut { from_round: 0 },
                LinkFaultKind::Drop { p: 0.5 }
            ]
        );
        assert_eq!(merged.faulty_link_count(), 5 * 4);
    }

    #[test]
    fn transport_knob_defaults_to_sim_and_round_trips() {
        let s = Scenario::new(5, 1, 2);
        assert_eq!(s.transport, TransportKind::Sim);
        let s = s.with_transport(TransportKind::Tcp);
        assert_eq!(s.transport, TransportKind::Tcp);
        // The knob never leaks into chaos/topology validity.
        assert!(s.instance().is_ok());
    }

    #[test]
    fn randomize_faults_is_reproducible_and_bounded() {
        let mut r1 = SimRng::seed(11);
        let mut r2 = SimRng::seed(11);
        let a = Scenario::new(7, 1, 4).randomize_faults(3, &mut r1);
        let b = Scenario::new(7, 1, 4).randomize_faults(3, &mut r2);
        assert_eq!(a.faulty(), b.faulty());
        assert_eq!(a.strategies, b.strategies);
        assert_eq!(a.f(), 3);
        assert!(a.faulty().iter().all(|x| x.index() < 7));
    }
}
