//! Replicated command log over degradable agreement.
//!
//! The paper frames degradable agreement as a way to keep redundant
//! computation channels "in an identical state" (B.2 / C.3). The natural
//! systems generalization is a replicated log: a leader sequences
//! commands and distributes each via one `m/u`-degradable agreement
//! instance; replicas append what they decide. The paper's conditions then
//! become log properties:
//!
//! * `f <= m` — all fault-free replica logs are **identical** and carry
//!   the leader's commands (forward progress despite faults);
//! * `m < f <= u` — per slot, fault-free replicas hold at most two values,
//!   one of which is a **hole** (`V_d`): logs diverge only by holes, never
//!   by conflicting commands, so replica states are always consistent
//!   where defined;
//! * holes are *detected* divergence: a later [`ReplicatedLog::repair`]
//!   round (backward recovery, Section 3) re-runs agreement for the slot
//!   and fills it on every replica that still has the hole — safely,
//!   because non-hole replicas already hold the unique non-default value
//!   for that slot.

use degradable::adversary::Strategy;
use degradable::{AdversaryRun, ByzInstance, Params, Val};
use serde::{Deserialize, Serialize};
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of appending (or repairing) one slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotReport {
    /// Slot index.
    pub slot: usize,
    /// Replicas that recorded the command.
    pub applied: BTreeSet<NodeId>,
    /// Replicas that recorded a hole.
    pub holes: BTreeSet<NodeId>,
}

/// Violations of the log guarantees.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogViolation {
    /// Two fault-free replicas hold two different non-hole commands in the
    /// same slot.
    ConflictingSlot {
        /// Slot index.
        slot: usize,
        /// One command.
        a: u64,
        /// A different command.
        b: u64,
    },
    /// `f <= m` for every slot so far, yet logs differ.
    LogsDiffer {
        /// First replica.
        a: NodeId,
        /// Second replica.
        b: NodeId,
        /// Slot where they differ.
        slot: usize,
    },
}

/// A replicated command log: node 0 is the leader/sequencer, nodes
/// `1..n` are replicas.
#[derive(Debug, Clone)]
pub struct ReplicatedLog {
    params: Params,
    n: usize,
    logs: BTreeMap<NodeId, Vec<Val>>,
}

impl ReplicatedLog {
    /// Creates an empty log system with `params.min_nodes()` nodes.
    pub fn new(params: Params) -> Self {
        let n = params.min_nodes();
        ReplicatedLog {
            params,
            n,
            logs: NodeId::all(n)
                .filter(|r| r.index() != 0)
                .map(|r| (r, Vec::new()))
                .collect(),
        }
    }

    /// Number of nodes (leader + replicas).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of slots appended so far.
    pub fn len(&self) -> usize {
        self.logs.values().next().map_or(0, Vec::len)
    }

    /// Whether no slot has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The log of one replica.
    pub fn log_of(&self, replica: NodeId) -> &[Val] {
        &self.logs[&replica]
    }

    /// Appends one command: the leader distributes it via degradable
    /// agreement under the given fault scenario; every replica appends its
    /// decision. Returns who applied and who recorded a hole (counting
    /// only fault-free replicas).
    pub fn append(
        &mut self,
        command: u64,
        strategies: &BTreeMap<NodeId, Strategy<u64>>,
    ) -> SlotReport {
        let slot = self.len();
        let decisions = self.run_agreement(command, strategies);
        let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
        let mut applied = BTreeSet::new();
        let mut holes = BTreeSet::new();
        for (r, v) in decisions {
            self.logs.get_mut(&r).expect("replica").push(v);
            if !faulty.contains(&r) {
                if v.is_default() {
                    holes.insert(r);
                } else {
                    applied.insert(r);
                }
            }
        }
        SlotReport {
            slot,
            applied,
            holes,
        }
    }

    /// Backward recovery for one slot: re-runs agreement for the slot's
    /// command and fills the hole on every replica that still has one.
    /// Replicas that already hold a value keep it (the degraded guarantee
    /// makes the non-hole value unique, so filling holes can never
    /// introduce a conflict).
    pub fn repair(
        &mut self,
        slot: usize,
        command: u64,
        strategies: &BTreeMap<NodeId, Strategy<u64>>,
    ) -> SlotReport {
        let decisions = self.run_agreement(command, strategies);
        let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
        let mut applied = BTreeSet::new();
        let mut holes = BTreeSet::new();
        for (r, v) in decisions {
            let log = self.logs.get_mut(&r).expect("replica");
            if log[slot].is_default() && !v.is_default() {
                log[slot] = v;
            }
            if !faulty.contains(&r) {
                if log[slot].is_default() {
                    holes.insert(r);
                } else {
                    applied.insert(r);
                }
            }
        }
        SlotReport {
            slot,
            applied,
            holes,
        }
    }

    /// Appends several commands in one **multiplexed** execution
    /// ([`degradable::run_batch`]): all slots share a single
    /// message-passing run instead of one per slot — the transport a real
    /// deployment would use for a pipeline of log entries.
    pub fn append_batch(
        &mut self,
        commands: &[u64],
        strategies: &BTreeMap<NodeId, Strategy<u64>>,
    ) -> Vec<SlotReport> {
        let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
        let instances: Vec<degradable::BatchInstance<u64>> = commands
            .iter()
            .map(|&c| degradable::BatchInstance {
                sender: NodeId::new(0),
                value: Val::Value(c),
            })
            .collect();
        let opts = degradable::BatchOptions::new();
        let batch =
            degradable::run_batch(self.params, self.n, &instances, strategies, 0xBA7C, opts)
                .expect("n = min_nodes admits the params, and node 0 exists");
        let mut reports = Vec::with_capacity(commands.len());
        for decisions in batch.decisions {
            let slot = self.len();
            let mut applied = BTreeSet::new();
            let mut holes = BTreeSet::new();
            for (r, v) in decisions {
                self.logs.get_mut(&r).expect("replica").push(v);
                if !faulty.contains(&r) {
                    if v.is_default() {
                        holes.insert(r);
                    } else {
                        applied.insert(r);
                    }
                }
            }
            reports.push(SlotReport {
                slot,
                applied,
                holes,
            });
        }
        reports
    }

    fn run_agreement(
        &self,
        command: u64,
        strategies: &BTreeMap<NodeId, Strategy<u64>>,
    ) -> BTreeMap<NodeId, Val> {
        let instance = ByzInstance::new(self.n, self.params, NodeId::new(0))
            .expect("n = min_nodes by construction");
        AdversaryRun {
            instance,
            sender_value: Val::Value(command),
            strategies: strategies.clone(),
        }
        .run()
        .decisions
    }

    /// Checks the log guarantees over the fault-free replicas: non-hole
    /// entries must agree per slot; if additionally `max_f_seen <= m`,
    /// entire logs must be identical.
    pub fn check(&self, faulty: &BTreeSet<NodeId>, max_f_seen: usize) -> Option<LogViolation> {
        let holders: Vec<NodeId> = self
            .logs
            .keys()
            .copied()
            .filter(|r| !faulty.contains(r))
            .collect();
        for slot in 0..self.len() {
            let mut nonhole: Option<u64> = None;
            for &h in &holders {
                if let Val::Value(c) = self.logs[&h][slot] {
                    match nonhole {
                        None => nonhole = Some(c),
                        Some(prev) if prev != c => {
                            return Some(LogViolation::ConflictingSlot {
                                slot,
                                a: prev,
                                b: c,
                            })
                        }
                        _ => {}
                    }
                }
            }
        }
        if max_f_seen <= self.params.m() {
            for w in holders.windows(2) {
                for slot in 0..self.len() {
                    if self.logs[&w[0]][slot] != self.logs[&w[1]][slot] {
                        return Some(LogViolation::LogsDiffer {
                            a: w[0],
                            b: w[1],
                            slot,
                        });
                    }
                }
            }
        }
        None
    }

    /// The state of a replica: the fold (here: order-sensitive hash) of
    /// its applied commands, skipping holes. Two replicas whose logs agree
    /// on non-hole entries but differ in holes will differ in state —
    /// *detectably*, which is what makes backward recovery possible.
    pub fn state_of(&self, replica: NodeId) -> u64 {
        self.logs[&replica]
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |acc, v| match v {
                Val::Value(c) => acc
                    .rotate_left(5)
                    .wrapping_mul(0x1000_0000_01b3)
                    .wrapping_add(*c),
                Val::Default => acc, // holes do not advance the state
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn log12() -> ReplicatedLog {
        ReplicatedLog::new(Params::new(1, 2).unwrap()) // 5 nodes
    }

    #[test]
    fn fault_free_logs_identical() {
        let mut log = log12();
        for c in 0..10u64 {
            let r = log.append(c, &BTreeMap::new());
            assert_eq!(r.applied.len(), 4);
            assert!(r.holes.is_empty());
        }
        assert!(log.check(&BTreeSet::new(), 0).is_none());
        let states: BTreeSet<u64> = (1..5).map(|i| log.state_of(n(i))).collect();
        assert_eq!(states.len(), 1);
    }

    #[test]
    fn one_fault_logs_still_identical() {
        let mut log = log12();
        let strategies: BTreeMap<_, _> = [(n(4), Strategy::ConstantLie(Val::Value(99)))]
            .into_iter()
            .collect();
        for c in 0..10u64 {
            log.append(c, &strategies);
        }
        let faulty: BTreeSet<_> = [n(4)].into_iter().collect();
        assert!(log.check(&faulty, 1).is_none());
        // The three fault-free replicas applied every command.
        for i in 1..4 {
            assert!(log.log_of(n(i)).iter().all(|v| !v.is_default()));
        }
    }

    #[test]
    fn two_faults_only_holes_never_conflicts() {
        let mut log = log12();
        let strategies: BTreeMap<_, _> = [
            (n(3), Strategy::ConstantLie(Val::Value(99))),
            (n(4), Strategy::ConstantLie(Val::Value(99))),
        ]
        .into_iter()
        .collect();
        for c in 0..10u64 {
            log.append(c, &strategies);
        }
        let faulty: BTreeSet<_> = [n(3), n(4)].into_iter().collect();
        assert!(log.check(&faulty, 2).is_none());
    }

    #[test]
    fn repair_fills_holes_after_transient() {
        let mut log = log12();
        // Slot 0 appended under a double fault that forces holes:
        let silent: BTreeMap<_, _> = [(n(1), Strategy::Silent), (n(2), Strategy::Silent)]
            .into_iter()
            .collect();
        let r = log.append(7, &silent);
        assert!(!r.holes.is_empty(), "expected degraded slot: {r:?}");
        // Transient cleared: repair with no faults.
        let r = log.repair(0, 7, &BTreeMap::new());
        assert_eq!(r.holes.len(), 0, "{r:?}");
        assert!(log.check(&BTreeSet::new(), 0).is_none());
        // All replicas now carry the command.
        for i in 1..5 {
            assert_eq!(log.log_of(n(i))[0], Val::Value(7));
        }
    }

    #[test]
    fn repair_never_overwrites_applied_values() {
        let mut log = log12();
        log.append(7, &BTreeMap::new());
        // Malicious repair attempt with a different command under faults:
        let strategies: BTreeMap<_, _> = [
            (n(3), Strategy::ConstantLie(Val::Value(1))),
            (n(4), Strategy::ConstantLie(Val::Value(1))),
        ]
        .into_iter()
        .collect();
        log.repair(0, 8, &strategies);
        for i in 1..5 {
            assert_eq!(
                log.log_of(n(i))[0],
                Val::Value(7),
                "replica {i} overwritten"
            );
        }
    }

    #[test]
    fn states_diverge_only_by_holes() {
        let mut log = log12();
        let strategies: BTreeMap<_, _> = [(n(3), Strategy::Silent), (n(4), Strategy::Silent)]
            .into_iter()
            .collect();
        for c in 0..5u64 {
            log.append(c, &strategies);
        }
        let faulty: BTreeSet<_> = [n(3), n(4)].into_iter().collect();
        assert!(log.check(&faulty, 2).is_none());
        // Replica 1 and 2 are fault-free: where both applied, values equal.
        for slot in 0..5 {
            let (a, b) = (log.log_of(n(1))[slot], log.log_of(n(2))[slot]);
            if !a.is_default() && !b.is_default() {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn batch_append_matches_sequential() {
        let strategies: BTreeMap<_, _> = [
            (n(3), Strategy::ConstantLie(Val::Value(99))),
            (n(4), Strategy::Silent),
        ]
        .into_iter()
        .collect();
        let mut seq = log12();
        for c in 10..15u64 {
            seq.append(c, &strategies);
        }
        let mut batched = log12();
        let reports = batched.append_batch(&[10, 11, 12, 13, 14], &strategies);
        assert_eq!(reports.len(), 5);
        for i in 1..5 {
            assert_eq!(seq.log_of(n(i)), batched.log_of(n(i)), "replica {i}");
        }
        let faulty: BTreeSet<_> = strategies.keys().copied().collect();
        assert!(batched.check(&faulty, 2).is_none());
    }

    #[test]
    fn checker_catches_planted_conflict() {
        let mut log = log12();
        log.append(7, &BTreeMap::new());
        log.logs.get_mut(&n(2)).unwrap()[0] = Val::Value(8);
        assert!(matches!(
            log.check(&BTreeSet::new(), 2),
            Some(LogViolation::ConflictingSlot { slot: 0, .. })
        ));
    }
}
