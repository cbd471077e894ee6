//! Live churn: crash/rejoin of nodes across epochs of the batched
//! service.
//!
//! The batched service ([`crate::service`]) runs one membership for one
//! multiplexed execution. Deployed systems lose nodes mid-stream and get
//! them back: a crashed node is *silent* for a while (the cleanest
//! Byzantine behaviour — absence everywhere), then rejoins with no state.
//! This module runs a sequence of **epochs** — each a full
//! [`run_batch`] execution — under a per-epoch membership mask:
//!
//! * a node with `alive[i] == false` is crashed for the epoch: it sends
//!   nothing (modelled as [`Strategy::Silent`]), and it counts into the
//!   epoch's fault set alongside the genuinely Byzantine nodes, so the
//!   D.1–D.4 verdicts and the C-corollary class sizes are judged against
//!   the *effective* fault count `f = |byzantine ∪ crashed|`;
//! * a rejoin is membership-level, not state-level: epochs carry
//!   independent instances, so a rejoined node simply participates again
//!   (and its instance slots become live targets for cross-instance
//!   spoofing — the batch spoof check must keep holding, which
//!   [`ChurnRun`] counts per epoch and tests pin).
//!
//! Per-epoch observability: verdict counters
//! (`churn.verdict.{satisfied,violated,beyond_u}`), crash/rejoin
//! counters, spoof counts, and a histogram of the largest fault-free
//! agreeing class (`churn.largest_class`) — the paper's `m+1` corollary
//! made measurable under churn.

use crate::adversary::Strategy;
use crate::conditions::{check_degradable, RunRecord, Verdict};
use crate::params::Params;
use crate::service::{run_batch, BatchInstance, BatchMsg, BatchOptions};
use obs::Obs;
use simnet::{NodeId, RoundEngine};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

/// One epoch of a churn run: who is alive, and what is agreed on.
#[derive(Debug, Clone)]
pub struct EpochPlan<V> {
    /// Per-node liveness mask (length `n`). Dead nodes are silent for the
    /// whole epoch.
    pub alive: Vec<bool>,
    /// The agreement instances of this epoch.
    pub instances: Vec<BatchInstance<V>>,
}

/// What one epoch produced.
#[derive(Debug, Clone)]
pub struct EpochOutcome<V: Ord> {
    /// Nodes crashed this epoch.
    pub crashed: BTreeSet<NodeId>,
    /// One record per instance, with the effective fault set.
    pub records: Vec<RunRecord<V>>,
    /// One verdict per instance.
    pub verdicts: Vec<Verdict<V>>,
    /// Cross-instance spoofs rejected during the epoch.
    pub spoofs_rejected: u64,
    /// Envelopes sent during the epoch.
    pub sent: usize,
}

impl<V: Clone + Ord> EpochOutcome<V> {
    /// Whether every instance's verdict is satisfied or (legitimately)
    /// beyond `u`.
    pub fn all_within_model(&self) -> bool {
        self.verdicts
            .iter()
            .all(|v| !matches!(v, Verdict::Violated(_)))
    }
}

/// The outcome of a whole churn run.
#[derive(Debug, Clone)]
pub struct ChurnRun<V: Ord> {
    /// Per-epoch outcomes, in order.
    pub epochs: Vec<EpochOutcome<V>>,
    /// Total crash transitions (alive in epoch `e-1`, dead in `e`;
    /// epoch 0 crashes count from an all-alive baseline).
    pub crashes: usize,
    /// Total rejoin transitions (dead in epoch `e-1`, alive in `e`).
    pub rejoins: usize,
}

impl<V: Clone + Ord> ChurnRun<V> {
    /// Total spoofs rejected across all epochs.
    pub fn spoofs_rejected(&self) -> u64 {
        self.epochs.iter().map(|e| e.spoofs_rejected).sum()
    }

    /// Count of epochs×instances whose verdict was an outright violation.
    pub fn violations(&self) -> usize {
        self.epochs
            .iter()
            .flat_map(|e| &e.verdicts)
            .filter(|v| matches!(v, Verdict::Violated(_)))
            .count()
    }
}

/// The per-epoch engine seed: decorrelated from `master_seed` per epoch
/// index, stable across workers and processes.
fn epoch_seed(master_seed: u64, epoch: usize) -> u64 {
    master_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(epoch as u64 + 1)
}

/// Runs `epochs` sequentially over the batched service, handing each
/// epoch's [`RoundEngine`] to `network` (for link-fault plans, adaptive
/// corruptors, tracing; `|_, e| e` for a healthy network) before the
/// epoch executes.
///
/// # Panics
///
/// Panics if any mask's length differs from `n`, or an epoch's shape is
/// one [`run_batch`] rejects.
pub fn run_churn<V: Clone + Ord + Hash + Send + Sync>(
    params: Params,
    n: usize,
    epochs: &[EpochPlan<V>],
    strategies: &BTreeMap<NodeId, Strategy<V>>,
    seed: u64,
    obs: &mut Obs,
    mut network: impl FnMut(usize, RoundEngine<BatchMsg<V>>) -> RoundEngine<BatchMsg<V>>,
) -> ChurnRun<V> {
    let mut out = Vec::with_capacity(epochs.len());
    let mut crashes = 0usize;
    let mut rejoins = 0usize;
    let mut prev_alive: Vec<bool> = vec![true; n];
    for (e, epoch) in epochs.iter().enumerate() {
        assert_eq!(epoch.alive.len(), n, "epoch {e} mask length != n");
        let crashed: BTreeSet<NodeId> = NodeId::all(n)
            .filter(|node| !epoch.alive[node.index()])
            .collect();
        for node in NodeId::all(n) {
            match (prev_alive[node.index()], epoch.alive[node.index()]) {
                (true, false) => crashes += 1,
                (false, true) => rejoins += 1,
                _ => {}
            }
        }
        prev_alive = epoch.alive.clone();

        // Crashed nodes are silent; a node both Byzantine and crashed is
        // silent too (crash wins — it cannot send at all).
        let mut effective = strategies.clone();
        for node in &crashed {
            effective.insert(*node, Strategy::Silent);
        }
        let run = run_batch(
            params,
            n,
            &epoch.instances,
            &effective,
            epoch_seed(seed, e),
            BatchOptions::new()
                .network(|eng| network(e, eng))
                .obs(&mut *obs),
        )
        .unwrap_or_else(|err| panic!("epoch {e}: {err}"));

        // Effective fault set: declared Byzantine ∪ crashed.
        let faulty: BTreeSet<NodeId> = strategies
            .keys()
            .copied()
            .chain(crashed.iter().copied())
            .collect();
        let mut records = Vec::with_capacity(epoch.instances.len());
        let mut verdicts = Vec::with_capacity(epoch.instances.len());
        for (k, inst) in epoch.instances.iter().enumerate() {
            let record = RunRecord {
                params,
                n,
                sender: inst.sender,
                sender_value: inst.value.clone(),
                faulty: faulty.clone(),
                decisions: run.decisions[k].clone(),
            };
            let verdict = check_degradable(&record);
            match &verdict {
                Verdict::Satisfied(sat) => {
                    obs.add("churn.verdict.satisfied", 1);
                    obs.observe(
                        "churn.largest_class",
                        &[1, 2, 4, 8, 16],
                        sat.largest_agreeing as u64,
                    );
                }
                Verdict::Violated(_) => obs.add("churn.verdict.violated", 1),
                Verdict::BeyondU { .. } => obs.add("churn.verdict.beyond_u", 1),
            }
            records.push(record);
            verdicts.push(verdict);
        }
        obs.add("churn.spoofs_rejected", run.spoofs_rejected);
        out.push(EpochOutcome {
            crashed,
            records,
            verdicts,
            spoofs_rejected: run.spoofs_rejected,
            sent: run.net.sent,
        });
    }
    obs.add("churn.epochs", epochs.len() as u64);
    obs.add("churn.crashes", crashes as u64);
    obs.add("churn.rejoins", rejoins as u64);
    ChurnRun {
        epochs: out,
        crashes,
        rejoins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Val;
    use simnet::{LinkFaultKind, LinkFaultPlan};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn params() -> Params {
        Params::new(1, 2).unwrap()
    }

    fn slot(sender: usize, v: u64) -> BatchInstance<u64> {
        BatchInstance {
            sender: n(sender),
            value: Val::Value(v),
        }
    }

    #[test]
    fn crash_degrades_and_rejoin_restores() {
        // Epoch 0: all alive, f = 0 → D.1. Epoch 1: two crashed, f = 2 →
        // D.3 (degraded but satisfied). Epoch 2: all back → D.1 again.
        let epochs = vec![
            EpochPlan {
                alive: vec![true; 5],
                instances: vec![slot(0, 10)],
            },
            EpochPlan {
                alive: vec![true, true, true, false, false],
                instances: vec![slot(0, 20)],
            },
            EpochPlan {
                alive: vec![true; 5],
                instances: vec![slot(0, 30)],
            },
        ];
        let run = run_churn(
            params(),
            5,
            &epochs,
            &BTreeMap::new(),
            7,
            &mut Obs::disabled(),
            |_, e| e,
        );
        assert_eq!(run.crashes, 2);
        assert_eq!(run.rejoins, 2);
        assert_eq!(run.violations(), 0);
        use crate::conditions::Condition;
        let conditions: Vec<Condition> = run
            .epochs
            .iter()
            .map(|e| match &e.verdicts[0] {
                Verdict::Satisfied(s) => s.condition,
                other => panic!("expected satisfied, got {other:?}"),
            })
            .collect();
        assert_eq!(conditions, [Condition::D1, Condition::D3, Condition::D1]);
    }

    #[test]
    fn crashed_sender_epoch_reads_as_faulty_sender() {
        // The sender crashes for one epoch: every honest receiver must
        // land on V_d (silent sender), judged under D.2 (f = 1 ≤ m).
        let epochs = vec![EpochPlan {
            alive: vec![false, true, true, true, true],
            instances: vec![slot(0, 10)],
        }];
        let run = run_churn(
            params(),
            5,
            &epochs,
            &BTreeMap::new(),
            3,
            &mut Obs::disabled(),
            |_, e| e,
        );
        let epoch = &run.epochs[0];
        assert!(epoch.all_within_model());
        for (r, d) in epoch.records[0].fault_free_decisions() {
            assert_eq!(d, Val::Default, "receiver {r}");
        }
    }

    #[test]
    fn byzantine_plus_crash_counts_into_one_fault_set() {
        // One liar and one crashed node: f = 2 > m, so the verdict is
        // judged under the degraded conditions, not D.1/D.2.
        let strategies: BTreeMap<NodeId, Strategy<u64>> =
            [(n(4), Strategy::ConstantLie(Val::Value(9)))]
                .into_iter()
                .collect();
        let epochs = vec![EpochPlan {
            alive: vec![true, true, true, false, true],
            instances: vec![slot(0, 10), slot(1, 20)],
        }];
        let run = run_churn(
            params(),
            5,
            &epochs,
            &strategies,
            11,
            &mut Obs::disabled(),
            |_, e| e,
        );
        let epoch = &run.epochs[0];
        assert_eq!(epoch.records[0].f(), 2);
        assert!(epoch.all_within_model(), "{:?}", epoch.verdicts);
    }

    #[test]
    fn spoof_rejection_when_a_crashed_senders_slot_is_reused_after_rejoin() {
        // Node 1 is a sender in epoch 0, crashes in epoch 1, rejoins in
        // epoch 2 reusing its slot. A corrupting relayer in epoch 2
        // re-tags instance-0 envelopes with node 1's reclaimed slot id;
        // the path-root pin must reject every one of them and decisions
        // must match the corruption-as-absence run.
        let epochs = vec![
            EpochPlan {
                alive: vec![true; 5],
                instances: vec![slot(0, 10), slot(1, 20)],
            },
            EpochPlan {
                alive: vec![true, false, true, true, true],
                instances: vec![slot(0, 11)],
            },
            EpochPlan {
                alive: vec![true; 5],
                instances: vec![slot(0, 12), slot(1, 22)],
            },
        ];
        let plan = LinkFaultPlan::uniform_complete(5, &[LinkFaultKind::Corrupt { p: 0.5 }]);
        let spoofing = run_churn(
            params(),
            5,
            &epochs,
            &BTreeMap::new(),
            9,
            &mut Obs::disabled(),
            |epoch, eng| {
                if epoch == 2 {
                    // Re-tag instance-0 envelopes with node 1's reclaimed
                    // slot id; pass everything else through untouched so
                    // the two runs keep identical message streams.
                    eng.with_link_faults(plan.clone())
                        .with_corruptor(|msg: &BatchMsg<u64>, _| {
                            Some(BatchMsg {
                                instance: if msg.instance == 0 { 1 } else { msg.instance },
                                label: msg.label,
                                root: msg.root,
                                value: msg.value,
                            })
                        })
                } else {
                    eng
                }
            },
        );
        let absent = run_churn(
            params(),
            5,
            &epochs,
            &BTreeMap::new(),
            9,
            &mut Obs::disabled(),
            |epoch, eng| {
                if epoch == 2 {
                    // Absence baseline: drop exactly the envelopes the
                    // spoofing run re-tags, deliver the rest unchanged.
                    eng.with_link_faults(plan.clone())
                        .with_corruptor(|msg: &BatchMsg<u64>, _| {
                            if msg.instance == 0 {
                                None
                            } else {
                                Some(msg.clone())
                            }
                        })
                } else {
                    eng
                }
            },
        );
        assert_eq!(spoofing.epochs[0].spoofs_rejected, 0);
        assert_eq!(spoofing.epochs[1].spoofs_rejected, 0);
        assert!(
            spoofing.epochs[2].spoofs_rejected > 0,
            "re-tagged envelopes must be rejected"
        );
        for k in 0..2 {
            assert_eq!(
                spoofing.epochs[2].records[k].decisions, absent.epochs[2].records[k].decisions,
                "slot {k}: spoofs must read as absence"
            );
        }
    }

    #[test]
    fn adaptive_corruptor_hooks_into_the_epoch_engine() {
        // The simnet-engine hook: an adaptive adversary rides the
        // corruptor, observing traffic on corrupt-flagged links and
        // rewriting claims online. The run must stay within the model
        // (corruption on a link is absence or a re-claim the vote
        // absorbs) and be deterministic across invocations.
        let epochs = vec![
            EpochPlan {
                alive: vec![true; 5],
                instances: vec![slot(0, 10)],
            },
            EpochPlan {
                alive: vec![true, true, true, true, false],
                instances: vec![slot(0, 20)],
            },
        ];
        let plan = LinkFaultPlan::healthy()
            .with(n(3), n(1), LinkFaultKind::Corrupt { p: 1.0 })
            .with(n(3), n(2), LinkFaultKind::Corrupt { p: 1.0 });
        let runs: Vec<ChurnRun<u64>> = (0..2)
            .map(|_| {
                run_churn(
                    params(),
                    5,
                    &epochs,
                    &BTreeMap::new(),
                    5,
                    &mut Obs::disabled(),
                    |_, eng| {
                        eng.with_link_faults(plan.clone()).with_corruptor(
                            crate::adaptive::engine_corruptor(
                                5,
                                params().rounds(),
                                crate::adaptive::adversary_by_id::<u64>(0),
                            ),
                        )
                    },
                )
            })
            .collect();
        for epoch in &runs[0].epochs {
            // Link corruption is attributable to the link's source node
            // (node 3 here): with it folded into the fault set the
            // verdicts must hold.
            for record in &epoch.records {
                let mut rec = record.clone();
                rec.faulty.insert(n(3));
                assert!(
                    !matches!(check_degradable(&rec), Verdict::Violated(_)),
                    "{rec:?}"
                );
            }
        }
        let digest = |r: &ChurnRun<u64>| -> Vec<_> {
            r.epochs
                .iter()
                .map(|e| (e.records[0].decisions.clone(), e.spoofs_rejected))
                .collect()
        };
        assert_eq!(digest(&runs[0]), digest(&runs[1]), "determinism");
    }

    #[test]
    fn epoch_observability_is_recorded() {
        let epochs = vec![
            EpochPlan {
                alive: vec![true; 5],
                instances: vec![slot(0, 1)],
            },
            EpochPlan {
                alive: vec![true, true, true, true, false],
                instances: vec![slot(0, 2)],
            },
        ];
        let mut obs = Obs::enabled();
        run_churn(
            params(),
            5,
            &epochs,
            &BTreeMap::new(),
            1,
            &mut obs,
            |_, e| e,
        );
        let reg = obs.registry();
        assert_eq!(reg.counter("churn.epochs"), 2);
        assert_eq!(reg.counter("churn.crashes"), 1);
        assert_eq!(reg.counter("churn.rejoins"), 0);
        assert_eq!(reg.counter("churn.verdict.satisfied"), 2);
        assert!(reg.histogram("churn.largest_class").is_some());
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn mask_length_is_checked() {
        let epochs = vec![EpochPlan {
            alive: vec![true; 4],
            instances: vec![slot(0, 1)],
        }];
        run_churn::<u64>(
            params(),
            5,
            &epochs,
            &BTreeMap::new(),
            1,
            &mut Obs::disabled(),
            |_, e| e,
        );
    }
}
