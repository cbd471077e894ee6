//! The correctness gate: every decision the program hands back is checked
//! outside the timed sections, and an instance that was shed, refused,
//! left undecided, violates D.1–D.4 or disagrees with the oracle counts
//! as failed.

use crate::gen::{SvcSpec, Wave, WireInstance, WireSpec};
use degradable::conditions::{check_degradable, RunRecord};
use degradable::{reference_eval, Params, Path, Strategy, Val, VoteRule};
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Every receiver's decision for one instance.
pub type Decisions = BTreeMap<NodeId, Val>;

/// Attempted and failed instances, with the first few reasons kept for
/// the report.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Instances offered to the program.
    pub attempted: u64,
    /// Instances that failed any check.
    pub failed: u64,
    /// Why the first failures failed.
    pub reasons: Vec<String>,
}

impl Tally {
    const KEPT_REASONS: usize = 8;

    /// Counts one attempted instance and its verdict.
    pub fn count(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.fail(reason);
        }
    }

    /// Fails an operation whose instances are already counted — a replay
    /// through a lower layer that decided differently.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < Self::KEPT_REASONS {
            self.reasons.push(reason);
        }
    }

    /// Failed ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// The oracle: one instance re-decided through `reference_eval`.
pub fn reference_decisions(
    params: Params,
    n: usize,
    sender: NodeId,
    value: &Val,
    strategies: &BTreeMap<NodeId, Strategy<u64>>,
) -> Decisions {
    let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
    let mut fabricate = |path: &Path, receiver: NodeId, truthful: &Val| {
        strategies[&path.last()].claim(path, receiver, truthful)
    };
    reference_eval(
        n,
        sender,
        params.rounds(),
        VoteRule::Degradable { m: params.m() },
        value,
        &faulty,
        &mut fabricate,
    )
    .decisions
}

/// What the checks of one instance need to know about it.
pub struct Scenario<'a> {
    /// The workload's `(m, u)`.
    pub params: Params,
    /// System size.
    pub n: usize,
    /// The designated sender.
    pub sender: NodeId,
    /// Its value.
    pub value: &'a Val,
    /// Byzantine nodes and their behaviour.
    pub strategies: &'a BTreeMap<NodeId, Strategy<u64>>,
    /// The true fault set (the strategies' keys).
    pub faulty: &'a BTreeSet<NodeId>,
}

impl Scenario<'_> {
    /// Every fault-free receiver holds a decision.
    pub fn decided(&self, decisions: &Decisions) -> Result<(), String> {
        match NodeId::all(self.n)
            .find(|r| *r != self.sender && !self.faulty.contains(r) && !decisions.contains_key(r))
        {
            Some(r) => Err(format!("fault-free receiver {r} has no decision")),
            None => Ok(()),
        }
    }

    /// D.1–D.4 under the true fault set.
    pub fn conditions(&self, decisions: &Decisions) -> Result<(), String> {
        let verdict = check_degradable(&RunRecord {
            params: self.params,
            n: self.n,
            sender: self.sender,
            sender_value: *self.value,
            faulty: self.faulty.clone(),
            decisions: decisions.clone(),
        });
        if verdict.is_satisfied() {
            Ok(())
        } else {
            Err(format!(
                "sender {} f={}: {verdict:?}",
                self.sender,
                self.faulty.len()
            ))
        }
    }

    /// Bit-identical to the oracle.
    pub fn matches_reference(&self, decisions: &Decisions) -> Result<(), String> {
        let expected = reference_decisions(
            self.params,
            self.n,
            self.sender,
            self.value,
            self.strategies,
        );
        if *decisions == expected {
            Ok(())
        } else {
            Err(format!(
                "sender {} f={}: decided {decisions:?}, reference_eval says {expected:?}",
                self.sender,
                self.faulty.len()
            ))
        }
    }
}

/// Checks one drained wave. `ids` and `decisions` are what the service
/// returned (index-aligned, in ingestion order); an instance of the wave
/// whose id is not among them was shed or refused. Every instance is checked for a complete set
/// of decisions, every `spec.check_every`-th for D.1–D.4, and with
/// `with_reference` the whole wave is re-decided through the oracle.
pub fn check_wave(
    spec: &SvcSpec,
    wave: &Wave,
    ids: &[u64],
    decisions: &[Decisions],
    with_reference: bool,
    tally: &mut Tally,
) {
    let faulty = wave.faulty();
    let mut returned = ids.iter().zip(decisions).peekable();
    for (k, (id, inst)) in wave.ids.iter().zip(&wave.instances).enumerate() {
        let scenario = Scenario {
            params: spec.params(),
            n: spec.n,
            sender: inst.sender,
            value: &inst.value,
            strategies: &wave.strategies,
            faulty: &faulty,
        };
        let verdict = match returned.next_if(|(returned_id, _)| *returned_id == id) {
            None => Err(format!("instance {id} was shed or refused")),
            Some((_, decided)) => scenario
                .decided(decided)
                .and_then(|()| {
                    if k % spec.check_every == 0 {
                        scenario.conditions(decided)
                    } else {
                        Ok(())
                    }
                })
                .and_then(|()| {
                    if with_reference {
                        scenario.matches_reference(decided)
                    } else {
                        Ok(())
                    }
                }),
        };
        tally.count(verdict.map_err(|e| format!("{} wave of id {id}: {e}", spec.name)));
    }
}

/// Checks one wire instance against all three gates. `decisions` is
/// `None` when the mesh could not be set up or a node reported failure.
pub fn check_wire(
    spec: &WireSpec,
    instance: &WireInstance,
    decisions: Result<&Decisions, String>,
    tally: &mut Tally,
) {
    let faulty = instance.faulty();
    let scenario = Scenario {
        params: spec.params(),
        n: spec.n,
        sender: instance.sender,
        value: &instance.value,
        strategies: &instance.strategies,
        faulty: &faulty,
    };
    tally.count(decisions.and_then(|decided| {
        scenario.decided(decided)?;
        scenario.conditions(decided)?;
        scenario.matches_reference(decided)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{wave, SVC_SMALL_N5};
    use degradable::{ServiceConfig, ServiceState};

    fn drained(spec: &SvcSpec, w: &Wave) -> (Vec<u64>, Vec<Decisions>) {
        let mut svc = ServiceState::new(spec.params(), spec.n, ServiceConfig::default()).unwrap();
        for (id, inst) in w.ids.iter().zip(&w.instances) {
            svc.ingest(*id, inst.clone()).unwrap();
        }
        let batch = svc.drain(&w.strategies, w.drain_seed);
        (batch.ids, batch.run.decisions)
    }

    #[test]
    fn honest_waves_pass_in_both_regimes() {
        let mut tally = Tally::default();
        for index in 0..3 {
            let w = wave(&SVC_SMALL_N5, 7, index);
            let (ids, decisions) = drained(&SVC_SMALL_N5, &w);
            check_wave(&SVC_SMALL_N5, &w, &ids, &decisions, true, &mut tally);
        }
        assert_eq!(tally.attempted, 3 * SVC_SMALL_N5.wave as u64);
        assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
        assert_eq!(tally.failed_share(), 0.0);
    }

    #[test]
    fn a_flipped_decision_raises_failed_share() {
        let w = wave(&SVC_SMALL_N5, 7, 0); // f = 0: D.1 applies
        let (ids, mut decisions) = drained(&SVC_SMALL_N5, &w);
        let receiver = NodeId::new(if w.instances[0].sender.index() == 1 {
            2
        } else {
            1
        });
        decisions[0].insert(receiver, Val::Value(999));
        let mut tally = Tally::default();
        check_wave(&SVC_SMALL_N5, &w, &ids, &decisions, false, &mut tally);
        assert_eq!(tally.failed, 1, "D.1 catches it without the oracle");
        assert!(tally.failed_share() > 0.0);

        // An instance outside the D-condition sample is caught by the oracle.
        let (ids, mut decisions) = drained(&SVC_SMALL_N5, &w);
        let receiver = NodeId::new(if w.instances[1].sender.index() == 1 {
            2
        } else {
            1
        });
        decisions[1].insert(receiver, Val::Value(999));
        let mut sampled = Tally::default();
        check_wave(&SVC_SMALL_N5, &w, &ids, &decisions, false, &mut sampled);
        assert_eq!(sampled.failed, 0, "instance 1 is not in the 1-in-8 sample");
        let mut full = Tally::default();
        check_wave(&SVC_SMALL_N5, &w, &ids, &decisions, true, &mut full);
        assert_eq!(full.failed, 1);
    }

    #[test]
    fn a_shed_instance_raises_failed_share() {
        let w = wave(&SVC_SMALL_N5, 7, 0);
        let mut svc = ServiceState::new(
            SVC_SMALL_N5.params(),
            SVC_SMALL_N5.n,
            ServiceConfig {
                queue_capacity: w.ids.len() - 3,
                workers: 1,
            },
        )
        .unwrap();
        let refused = w
            .ids
            .iter()
            .zip(&w.instances)
            .filter(|(id, inst)| svc.ingest(**id, (*inst).clone()).is_err())
            .count();
        assert_eq!(refused, 3);
        let batch = svc.drain(&w.strategies, w.drain_seed);
        let mut tally = Tally::default();
        check_wave(
            &SVC_SMALL_N5,
            &w,
            &batch.ids,
            &batch.run.decisions,
            false,
            &mut tally,
        );
        assert_eq!((tally.attempted, tally.failed), (w.ids.len() as u64, 3));
        assert!(tally.failed_share() > 0.0);
    }

    #[test]
    fn a_missing_decision_fails_the_instance() {
        let w = wave(&SVC_SMALL_N5, 7, 0);
        let (ids, mut decisions) = drained(&SVC_SMALL_N5, &w);
        let receiver = NodeId::new(if w.instances[5].sender.index() == 1 {
            2
        } else {
            1
        });
        decisions[5].remove(&receiver);
        let mut tally = Tally::default();
        check_wave(&SVC_SMALL_N5, &w, &ids, &decisions, false, &mut tally);
        assert_eq!(tally.failed, 1);
    }
}
