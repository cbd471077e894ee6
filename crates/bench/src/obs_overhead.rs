//! **Experiment E20** — the observability layer is passive and its
//! registry is exact.
//!
//! The experiment drives fault-free BYZ(2,2) batches through
//! [`degradable::run_batch`] twice per repetition on identical inputs:
//! once with a disabled recorder, once with an enabled one.
//!
//! Gates:
//!
//! * decisions from traced and untraced runs are bit-identical on every
//!   repetition (observation must never perturb the protocol);
//! * the declarative [`SloSpec`] over the merged traced registry passes:
//!   every instance sent exactly the closed-form message count and
//!   settled exactly the closed-form vote count (1 464 and 144 at
//!   N = 13), all `reps × k` instances were recorded, and
//!   there were zero decision mismatches — emitted as the report's `slo`
//!   section.
//!
//! The recorder's wall-clock cost is measured in one place only: the perf
//! ledger's `obs.recorder_overhead_ratio` (`benchmark/`), on the real
//! service path. This experiment reads no clock, so its report
//! (`results/obs_overhead.json`) is deterministic. It runs one-shot
//! batches, each one shard, so the worker count has nothing to split.

use crate::Run;
use degradable::analysis::message_complexity;
use degradable::{run_batch, BatchInstance, BatchOptions, Params, Val};
use harness::report::Table;
use harness::{Report, SloSpec};
use obs::Obs;
use simnet::NodeId;
use std::collections::BTreeMap;

pub(crate) fn run(_workers: usize) -> Run {
    let (reps, n, k) = (15, 13, 16);
    let master_seed: u64 = 0xE20;

    let params = Params::new(2, 2).expect("BYZ(2,2) is valid");
    let instances: Vec<BatchInstance<u64>> = (0..k)
        .map(|slot| BatchInstance {
            sender: NodeId::new(0),
            value: Val::Value(7 + slot as u64),
        })
        .collect();
    let no_faults: BTreeMap<NodeId, degradable::Strategy<u64>> = BTreeMap::new();

    let mut obs_rec = Obs::enabled();
    let mut matched: Vec<bool> = Vec::with_capacity(reps);
    for rep in 0..reps {
        let seed = master_seed
            .wrapping_add(rep as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let plain = run_batch(params, n, &instances, &no_faults, seed, BatchOptions::new())
            .expect("n >= 3m + 1, sender 0");
        let traced = run_batch(
            params,
            n,
            &instances,
            &no_faults,
            seed,
            BatchOptions::new().obs(&mut obs_rec),
        )
        .expect("n >= 3m + 1, sender 0");
        matched.push(traced.decisions == plain.decisions);
    }

    let mismatches = matched.iter().filter(|ok| !**ok).count();
    obs_rec.add("e20.decision_mismatches", mismatches as u64);

    // The SLO contract this cell promises, evaluated over the merged
    // traced registry (reps × k fault-free instances). Fault-free, every
    // instance sends every message of the EIG unfolding and settles one
    // vote per (internal label, receiver), so both bounds are exact.
    let depth = params.rounds();
    let messages = message_complexity(n, depth) as u64;
    let votes = message_complexity(n, depth - 1) as u64;
    let spec = SloSpec::new("e20-faultfree-byz22")
        .max_at_most("svc.instance.messages", messages)
        .max_at_most("svc.instance.logical", votes)
        .counter_at_least("batch.instances", (reps * k) as u64)
        .zero("e20.decision_mismatches")
        .zero("batch.spoofs_rejected");
    let slo = spec.evaluate(obs_rec.registry());
    let slo_passed = slo.passed();

    let mut report = Report::new("obs_overhead");
    report
        .set_meta("master_seed", master_seed)
        .set_meta("n", n)
        .set_meta("instances_per_batch", k)
        .set_meta("reps", reps)
        .set_metric("decision_mismatches", mismatches);
    report.set_obs_registry(obs_rec.registry());
    report.set_slo(slo);
    report.add_table(Table::with_rows(
        "traced vs untraced service runs (identical inputs per rep)",
        &["rep", "decisions"],
        matched
            .iter()
            .enumerate()
            .map(|(i, ok)| vec![i.to_string(), if *ok { "ok" } else { "MISMATCH" }.into()])
            .collect(),
    ));
    Run::new(
        report,
        &[
            ("decision_mismatches == 0", mismatches == 0),
            ("slo e20-faultfree-byz22 passed", slo_passed),
        ],
        Some(obs_rec),
    )
}
