//! Seeded input generators. The seed drives senders' values, fault sets,
//! strategy assignment and lie values; the program under test receives
//! only the generated inputs. Every wave (and wire instance) is a pure
//! function of `(workload, seed, index)`, so the same seed gives the same
//! inputs no matter how many operations a run gets through.

use degradable::{BatchInstance, Params, Strategy, Val};
use simnet::{NodeId, SimRng};
use std::collections::{BTreeMap, BTreeSet};

/// The senders' value domain.
const VALUES: [u64; 5] = [11, 22, 33, 44, 55];

/// What every layer needs to know about a workload: system size and
/// `(m, u)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// System size.
    pub n: usize,
    /// `(m, u)`.
    pub params: Params,
}

/// How a service workload draws its fault set per wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// Nobody is faulty.
    None,
    /// Exactly this many faulty nodes in every wave.
    Fixed(usize),
    /// Wave `w` has `w mod (u + 1)` faulty nodes: both regimes.
    Rotating,
}

/// One of the `svc_*` workloads: a persistent `ServiceState` fed in waves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvcSpec {
    /// Workload name.
    pub name: &'static str,
    /// System size (the minimal `2m + u + 1`).
    pub n: usize,
    /// Full-agreement threshold.
    pub m: usize,
    /// Degraded-agreement threshold.
    pub u: usize,
    /// Instances per wave.
    pub wave: usize,
    /// Fault regime.
    pub faults: Faults,
    /// Every `check_every`-th instance of a wave goes through
    /// `check_degradable` (1 = all of them).
    pub check_every: usize,
}

impl SvcSpec {
    /// The workload's `(m, u)`.
    pub fn params(&self) -> Params {
        Params::new(self.m, self.u).expect("workload parameters satisfy m <= u")
    }

    /// The workload's size and parameters.
    pub fn shape(&self) -> Shape {
        Shape {
            n: self.n,
            params: self.params(),
        }
    }

    /// Consecutive waves that make one full cycle of the inputs.
    pub fn period(&self) -> usize {
        match self.faults {
            Faults::Rotating => self.u + 1,
            Faults::None | Faults::Fixed(_) => 1,
        }
    }
}

/// The wire workload's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSpec {
    /// Workload name.
    pub name: &'static str,
    /// System size.
    pub n: usize,
    /// Full-agreement threshold.
    pub m: usize,
    /// Degraded-agreement threshold.
    pub u: usize,
}

impl WireSpec {
    /// The workload's `(m, u)`.
    pub fn params(&self) -> Params {
        Params::new(self.m, self.u).expect("workload parameters satisfy m <= u")
    }

    /// The workload's size and parameters.
    pub fn shape(&self) -> Shape {
        Shape {
            n: self.n,
            params: self.params(),
        }
    }

    /// Consecutive instances that make one full cycle of the inputs: the
    /// sender rotates through every node and the regime alternates.
    pub fn period(&self) -> usize {
        2 * self.n
    }
}

/// The good case on the N=13 tree.
pub const SVC_FAULTFREE_N13: SvcSpec = SvcSpec {
    name: "svc_faultfree_n13",
    n: 13,
    m: 2,
    u: 8,
    wave: 16,
    faults: Faults::None,
    check_every: 1,
};

/// The degraded regime (`m < f <= u`) on the same tree and wave size.
pub const SVC_BYZANTINE_N13: SvcSpec = SvcSpec {
    name: "svc_byzantine_n13",
    n: 13,
    m: 2,
    u: 8,
    wave: 16,
    faults: Faults::Fixed(5),
    check_every: 1,
};

/// Tiny tree, huge waves: per-instance overhead dominates.
pub const SVC_SMALL_N5: SvcSpec = SvcSpec {
    name: "svc_small_n5",
    n: 5,
    m: 1,
    u: 2,
    wave: 1000,
    faults: Faults::Rotating,
    check_every: 8,
};

/// One BYZ instance at a time across a loopback TCP mesh.
pub const WIRE_TCP_N7: WireSpec = WireSpec {
    name: "wire_tcp_n7",
    n: 7,
    m: 2,
    u: 2,
};

/// Every service workload.
pub const SVC_WORKLOADS: [SvcSpec; 3] = [SVC_FAULTFREE_N13, SVC_BYZANTINE_N13, SVC_SMALL_N5];

/// Every workload name, in reporting order.
pub const WORKLOAD_NAMES: [&str; 4] = [
    SVC_FAULTFREE_N13.name,
    SVC_BYZANTINE_N13.name,
    SVC_SMALL_N5.name,
    WIRE_TCP_N7.name,
];

/// One wave: what is ingested, who lies how, and the drain's engine seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wave {
    /// Caller-assigned ids, unique across the run.
    pub ids: Vec<u64>,
    /// The instances, senders round-robin.
    pub instances: Vec<BatchInstance<u64>>,
    /// The wave's Byzantine nodes and their behaviour.
    pub strategies: BTreeMap<NodeId, Strategy<u64>>,
    /// Seed handed to `ServiceState::drain`.
    pub drain_seed: u64,
}

impl Wave {
    /// The wave's true fault set.
    pub fn faulty(&self) -> BTreeSet<NodeId> {
        self.strategies.keys().copied().collect()
    }

    /// The wave's first instance, as the wire path takes it.
    pub fn first_as_wire_instance(&self) -> WireInstance {
        WireInstance {
            sender: self.instances[0].sender,
            value: self.instances[0].value,
            strategies: self.strategies.clone(),
        }
    }
}

/// One wire instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireInstance {
    /// The designated sender.
    pub sender: NodeId,
    /// Its value.
    pub value: Val,
    /// Byzantine nodes and their behaviour (empty on even instances).
    pub strategies: BTreeMap<NodeId, Strategy<u64>>,
}

impl WireInstance {
    /// The instance's true fault set.
    pub fn faulty(&self) -> BTreeSet<NodeId> {
        self.strategies.keys().copied().collect()
    }
}

/// FNV-1a, so each workload draws from its own stream of one seed.
fn stream_of(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn rng_for(name: &str, seed: u64, index: u64) -> SimRng {
    SimRng::derive(seed ^ stream_of(name), index)
}

fn value(rng: &mut SimRng) -> Val {
    Val::Value(VALUES[rng.below(VALUES.len() as u64) as usize])
}

/// A wrong value: never one a sender would propose, so D.3's "sender's
/// value or `V_d`" is a real test.
fn lie(rng: &mut SimRng) -> Val {
    Val::Value(100 + rng.below(100))
}

/// The five misbehaviours of the battery, in a seed-drawn order. Taking a
/// prefix gives distinct strategies, so a wave with five faulty nodes has
/// exactly one `Silent` node and its message count barely depends on the
/// draw.
fn shuffled_strategies(rng: &mut SimRng) -> Vec<Strategy<u64>> {
    let mut all = vec![
        Strategy::ConstantLie(lie(rng)),
        Strategy::TwoFaced {
            even: lie(rng),
            odd: lie(rng),
        },
        Strategy::RandomLie {
            domain: vec![Val::Default, lie(rng), lie(rng)],
            seed: rng.below(u64::MAX),
        },
        Strategy::Silent,
        Strategy::AlternatingDepth(lie(rng)),
    ];
    for i in (1..all.len()).rev() {
        all.swap(i, rng.below(i as u64 + 1) as usize);
    }
    all
}

/// Wave `index` of `spec` under `seed`.
pub fn wave(spec: &SvcSpec, seed: u64, index: u64) -> Wave {
    let mut rng = rng_for(spec.name, seed, index);
    let first = index * spec.wave as u64;
    let ids: Vec<u64> = (first..first + spec.wave as u64).collect();
    let instances = ids
        .iter()
        .map(|id| BatchInstance {
            sender: NodeId::new((id % spec.n as u64) as usize),
            value: value(&mut rng),
        })
        .collect();
    let f = match spec.faults {
        Faults::None => 0,
        Faults::Fixed(f) => f,
        Faults::Rotating => (index % (spec.u as u64 + 1)) as usize,
    };
    let strategies = rng
        .choose_indices(spec.n, f)
        .into_iter()
        .map(NodeId::new)
        .zip(shuffled_strategies(&mut rng))
        .collect();
    Wave {
        ids,
        instances,
        strategies,
        drain_seed: index,
    }
}

/// Wire instance `index` under `seed`: the sender rotates, even instances
/// are fault-free, odd ones have `f = 2` (a two-faced and a constant liar
/// on seed-drawn nodes).
pub fn wire_instance(spec: &WireSpec, seed: u64, index: u64) -> WireInstance {
    let mut rng = rng_for(spec.name, seed, index);
    let sender = NodeId::new((index % spec.n as u64) as usize);
    let value = value(&mut rng);
    let mut strategies = BTreeMap::new();
    if index % 2 == 1 {
        let nodes = rng.choose_indices(spec.n, 2);
        strategies.insert(
            NodeId::new(nodes[0]),
            Strategy::TwoFaced {
                even: lie(&mut rng),
                odd: lie(&mut rng),
            },
        );
        strategies.insert(NodeId::new(nodes[1]), Strategy::ConstantLie(lie(&mut rng)));
    }
    WireInstance {
        sender,
        value,
        strategies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for spec in &SVC_WORKLOADS {
            for index in [0, 1, 7] {
                assert_eq!(wave(spec, 42, index), wave(spec, 42, index));
            }
            assert_ne!(wave(spec, 42, 3), wave(spec, 43, 3), "{}", spec.name);
        }
        assert_eq!(
            wire_instance(&WIRE_TCP_N7, 42, 5),
            wire_instance(&WIRE_TCP_N7, 42, 5)
        );
        assert_ne!(
            wire_instance(&WIRE_TCP_N7, 42, 5),
            wire_instance(&WIRE_TCP_N7, 43, 5)
        );
    }

    #[test]
    fn waves_have_the_stated_shape() {
        let w = wave(&SVC_BYZANTINE_N13, 1, 9);
        assert_eq!(w.instances.len(), SVC_BYZANTINE_N13.wave);
        assert_eq!(w.strategies.len(), 5);
        let silent = w
            .strategies
            .values()
            .filter(|s| matches!(s, Strategy::Silent))
            .count();
        assert_eq!(silent, 1, "five faulty nodes, five distinct strategies");
        // Senders continue round-robin across waves, ids never repeat.
        assert_eq!(w.ids[0], 9 * SVC_BYZANTINE_N13.wave as u64);
        assert_eq!(w.instances[0].sender.index(), (w.ids[0] % 13) as usize);

        assert!(wave(&SVC_FAULTFREE_N13, 1, 9).strategies.is_empty());
        let fs: Vec<usize> = (0..6)
            .map(|i| wave(&SVC_SMALL_N5, 1, i).strategies.len())
            .collect();
        assert_eq!(fs, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn every_workload_runs_at_the_minimal_node_count() {
        for spec in &SVC_WORKLOADS {
            assert_eq!(spec.n, spec.params().min_nodes(), "{}", spec.name);
        }
        assert_eq!(WIRE_TCP_N7.n, WIRE_TCP_N7.params().min_nodes());
    }

    #[test]
    fn wire_instances_alternate_regimes() {
        assert!(wire_instance(&WIRE_TCP_N7, 3, 0).strategies.is_empty());
        assert_eq!(wire_instance(&WIRE_TCP_N7, 3, 1).strategies.len(), 2);
        assert_eq!(wire_instance(&WIRE_TCP_N7, 3, 8).sender.index(), 1);
    }
}
