//! Section 6.1: algorithm BYZ under **relaxed absence detection**.
//!
//! The paper proves BYZ correct assuming absence of a message is detected
//! correctly, then observes the assumption can be relaxed:
//!
//! 1. with `f <= m` faults, absence/presence detection must be correct
//!    (this needs clock synchronization, achievable since `m < N/3`);
//! 2. with `m < f <= u`, a fault-free node may *incorrectly* declare a
//!    message from another fault-free node absent (timeouts) — and the
//!    degraded conditions D.3/D.4 still hold.
//!
//! We reproduce both directions on the message-passing executor: random
//! late-message injection (latency spikes past the round deadline) never
//! breaks D.3/D.4 when `m < f <= u`; and we exhibit that the *same*
//! timeout process can break D.1 when `f <= m` — which is exactly why the
//! paper needs correct detection below `m`.

use degradable::adversary::Strategy;
use degradable::{check_degradable, run_protocol_with, BatchOptions, ByzInstance, Params, Val};
use simnet::{LatencyModel, NodeId};
use std::collections::{BTreeMap, BTreeSet};

fn spike_latency() -> LatencyModel {
    // ~20% of messages arrive after the deadline.
    LatencyModel::Spike {
        base: 1,
        spike_p: 0.2,
        spike: 100,
    }
}

#[test]
fn d3_d4_hold_under_timeouts_beyond_m() {
    let inst = ByzInstance::new(5, Params::new(1, 2).unwrap(), NodeId::new(0)).unwrap();
    for sender_faulty in [false, true] {
        for seed in 0..30u64 {
            let mut strategies: BTreeMap<NodeId, Strategy<u64>> = BTreeMap::new();
            if sender_faulty {
                strategies.insert(
                    NodeId::new(0),
                    Strategy::TwoFaced {
                        even: Val::Value(1),
                        odd: Val::Value(2),
                    },
                );
                strategies.insert(NodeId::new(4), Strategy::ConstantLie(Val::Value(3)));
            } else {
                strategies.insert(NodeId::new(3), Strategy::ConstantLie(Val::Value(3)));
                strategies.insert(NodeId::new(4), Strategy::ConstantLie(Val::Value(3)));
            }
            let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
            let run = run_protocol_with(
                &inst,
                &Val::Value(7),
                &strategies,
                seed,
                BatchOptions::new().network(|e| e.with_latency(spike_latency()).with_deadline(50)),
            );
            let record = run.record(&inst, Val::Value(7), faulty);
            let verdict = check_degradable(&record);
            assert!(
                verdict.is_satisfied(),
                "seed {seed} sender_faulty={sender_faulty}: {verdict:?} ({:?})",
                record.decisions
            );
        }
    }
}

#[test]
fn timeouts_can_break_d1_below_m() {
    // The complementary direction: with f <= m the paper *requires*
    // correct absence detection. Random timeouts between fault-free nodes
    // do break D.1 for some schedule — demonstrating the requirement is
    // not gratuitous.
    let inst = ByzInstance::new(5, Params::new(1, 2).unwrap(), NodeId::new(0)).unwrap();
    let strategies: BTreeMap<NodeId, Strategy<u64>> =
        [(NodeId::new(4), Strategy::ConstantLie(Val::Value(3)))]
            .into_iter()
            .collect();
    let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
    let mut broke = false;
    for seed in 0..200u64 {
        let run = run_protocol_with(
            &inst,
            &Val::Value(7),
            &strategies,
            seed,
            BatchOptions::new().network(|e| {
                e.with_latency(LatencyModel::Spike {
                    base: 1,
                    spike_p: 0.4,
                    spike: 100,
                })
                .with_deadline(50)
            }),
        );
        let record = run.record(&inst, Val::Value(7), faulty.clone());
        if check_degradable(&record).is_violated() {
            broke = true;
            break;
        }
    }
    assert!(
        broke,
        "expected some timeout schedule to break D.1 at f <= m (the assumption is load-bearing)"
    );
}

#[test]
fn reliable_network_restores_d1_below_m() {
    // Same scenario, deadline comfortably above worst-case latency: D.1
    // holds for every seed.
    let inst = ByzInstance::new(5, Params::new(1, 2).unwrap(), NodeId::new(0)).unwrap();
    let strategies: BTreeMap<NodeId, Strategy<u64>> =
        [(NodeId::new(4), Strategy::ConstantLie(Val::Value(3)))]
            .into_iter()
            .collect();
    let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
    for seed in 0..50u64 {
        let run = run_protocol_with(
            &inst,
            &Val::Value(7),
            &strategies,
            seed,
            BatchOptions::new().network(|e| e.with_latency(spike_latency()).with_deadline(1_000)),
        );
        let record = run.record(&inst, Val::Value(7), faulty.clone());
        let verdict = check_degradable(&record);
        assert!(verdict.is_satisfied(), "seed {seed}: {verdict:?}");
        // and specifically D.1: everyone decided the sender's value
        for (r, v) in record.fault_free_decisions() {
            assert_eq!(v, Val::Value(7), "receiver {r}");
        }
    }
}

#[test]
fn crash_and_omission_faults_within_u_stay_degraded() {
    // Engine-level crash/omission faults (special cases of Byzantine)
    // count toward f; with f = u = 2 the degraded conditions hold.
    use simnet::{FaultKind, FaultPlan};
    let inst = ByzInstance::new(5, Params::new(1, 2).unwrap(), NodeId::new(0)).unwrap();
    // Nodes 3 and 4 are faulty at the engine level only (processes honest).
    let plan = FaultPlan::healthy()
        .with(NodeId::new(3), FaultKind::Crash { from_round: 1 })
        .with(NodeId::new(4), FaultKind::Omission { p: 0.6 });
    let faulty: BTreeSet<NodeId> = [NodeId::new(3), NodeId::new(4)].into_iter().collect();
    for seed in 0..30u64 {
        let run = run_protocol_with(
            &inst,
            &Val::Value(7),
            &BTreeMap::new(),
            seed,
            BatchOptions::new().network(|e| e.with_faults(plan.clone())),
        );
        let record = run.record(&inst, Val::Value(7), faulty.clone());
        let verdict = check_degradable(&record);
        assert!(verdict.is_satisfied(), "seed {seed}: {verdict:?}");
    }
}
