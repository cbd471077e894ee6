//! **Experiment E11** — deadline tuning under relaxed absence detection
//! (Section 6.1 companion).
//!
//! With more than `m` faults, clock synchronization may be degraded and a
//! fault-free node may falsely time out another fault-free node's message.
//! BYZ stays *safe* under this relaxation (D.3/D.4 hold — see the
//! `relaxed_absence` integration tests) but not *free*: every false
//! timeout pushes receivers toward `V_d`. This experiment quantifies the
//! trade: sweeping the round deadline against a heavy-tailed latency
//! distribution, how much of the fault-free receivers' mass degrades from
//! the sender's value to the default — while the safety conditions hold at
//! every point.
//!
//! Per deadline, the seeded runs fan out over [`harness::SweepRunner`]
//! workers (each trial's protocol seed derived from the master seed and
//! trial index).

use crate::Run;
use degradable::adversary::Strategy;
use degradable::{check_degradable, run_protocol_with, BatchOptions, ByzInstance, Params, Val};
use harness::report::{pct, Table};
use harness::{Report, SweepRunner};
use simnet::{LatencyModel, NodeId};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Default)]
struct DeadlineStats {
    sender_value_decisions: usize,
    default_decisions: usize,
    late_total: usize,
    satisfied: usize,
}

pub(crate) fn run(workers: usize) -> Run {
    let inst = ByzInstance::new(6, Params::new(1, 3).expect("1 <= 3"), NodeId::new(0))
        .expect("6 = 2m+u+1");
    // m < f <= u puts the system in the relaxation regime (false timeouts
    // between fault-free nodes are permitted). The two faulty nodes behave
    // *truthfully* — a Byzantine node may — so that every degradation in
    // the sweep is attributable to the timeout process alone.
    let strategies: BTreeMap<NodeId, Strategy<u64>> = [
        (NodeId::new(4), Strategy::Truthful),
        (NodeId::new(5), Strategy::Truthful),
    ]
    .into_iter()
    .collect();
    let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
    let latency = LatencyModel::Uniform { lo: 1, hi: 150 };
    let trials: usize = 400;
    let master_seed: u64 = 0xE11;
    let runner = SweepRunner::new(workers);

    let mut rows = Vec::new();
    let mut always_safe = true;
    for deadline in [20u64, 60, 100, 140, 200] {
        let stats = runner.fold(
            master_seed.wrapping_add(deadline),
            trials,
            |_, mut rng| {
                let run = run_protocol_with(
                    &inst,
                    &Val::Value(7),
                    &strategies,
                    rng.below(u64::MAX),
                    BatchOptions::new()
                        .network(|e| e.with_latency(latency).with_deadline(deadline)),
                );
                let late = run.net.late;
                let record = run.record(&inst, Val::Value(7), faulty.clone());
                let safe = check_degradable(&record).is_satisfied();
                let mut sender_value = 0usize;
                let mut default = 0usize;
                for (_, v) in record.fault_free_decisions() {
                    if v == Val::Value(7) {
                        sender_value += 1;
                    } else if v.is_default() {
                        default += 1;
                    }
                }
                (late, safe, sender_value, default)
            },
            DeadlineStats::default(),
            |mut acc, (late, safe, sender_value, default)| {
                acc.late_total += late;
                acc.satisfied += usize::from(safe);
                acc.sender_value_decisions += sender_value;
                acc.default_decisions += default;
                acc
            },
        );
        always_safe &= stats.satisfied == trials;
        let total = stats.sender_value_decisions + stats.default_decisions;
        rows.push(vec![
            deadline.to_string(),
            format!("{:.1}", stats.late_total as f64 / trials.max(1) as f64),
            pct(stats.sender_value_decisions as f64 / total.max(1) as f64),
            pct(stats.default_decisions as f64 / total.max(1) as f64),
            format!("{}/{trials}", stats.satisfied),
        ]);
    }

    let mut report = Report::new("timeout_tuning");
    report
        .set_meta("trials_per_deadline", trials)
        .set_meta("seed", master_seed)
        .set_metric("always_safe", always_safe)
        .add_table(Table::with_rows(
            format!(
                "1/3-degradable, N=6, f=2 (truthful), uniform latency 1..150, {trials} seeded runs per row"
            ),
            &[
                "deadline",
                "avg late msgs/run",
                "fault-free decisions = sender value",
                "= V_d",
                "conditions held",
            ],
            rows,
        ));
    Run::new(report, &[("always_safe", always_safe)], None)
}
