//! **Experiment E20** — the observability layer is passive and its
//! registry is exact.
//!
//! This bin drives fault-free BYZ(2,2) batches through
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
//!   N = 13, the default), all `reps × k` instances were recorded, and
//!   there were zero decision mismatches — emitted as the report's `slo`
//!   section.
//!
//! The recorder's wall-clock cost is measured in one place only: the perf
//! ledger's `obs.recorder_overhead_ratio` (`benchmark/`), on the real
//! service path. This bin reads no clock, so its report is deterministic:
//! bit-identical across reruns. Every instance has one sender, so the
//! resolve is one shard and `--workers` has nothing to split. The report
//! is written to **`results/obs_overhead.json`** (override with `--out`).

use degradable::analysis::message_complexity;
use degradable::{run_batch, BatchInstance, BatchOptions, Params, Val};
use harness::report::Table;
use harness::{Report, RunArgs, SloSpec};
use obs::{Obs, TimeMode};
use simnet::NodeId;
use std::collections::BTreeMap;

fn main() {
    println!("E20: observability is passive and exact (fault-free BYZ(2,2))");
    let args = RunArgs::parse();
    let mut reps = 15usize;
    let mut n = 13usize;
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--reps" => {
                if let Some(v) = raw.next().and_then(|v| v.parse().ok()) {
                    reps = v;
                }
            }
            "--n" => {
                if let Some(v) = raw.next().and_then(|v| v.parse().ok()) {
                    n = v;
                }
            }
            _ => {}
        }
    }
    let master_seed = args.seed_or(0xE20);
    let k = args.trials_or(16);

    let params = Params::new(2, 2).expect("BYZ(2,2) is valid");
    assert!(params.admits(n), "--n must satisfy n >= 2m + u + 1 = 7");
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
    // Span walls are the recorder's only clock reading; this report does
    // not use them.
    obs::scrub_timing(&mut obs_rec);

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
    let slo_failures: Vec<String> = slo.failures().iter().map(|s| s.to_string()).collect();

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
    report.print_tables();

    if let Some(trace_path) = args.trace_out_path() {
        let trace = obs::chrome_trace_json(&obs_rec, TimeMode::Logical);
        match std::fs::write(trace_path, trace) {
            Ok(()) => println!("\ntrace: {}", trace_path.display()),
            Err(e) => eprintln!("\ntrace write failed: {e}"),
        }
    }
    match report.write(args.out_path()) {
        Ok(path) => println!("\nreport: {}", path.display()),
        Err(e) => eprintln!("\nreport write failed: {e}"),
    }

    if mismatches == 0 && slo_passed {
        println!("\nRESULT: all SLOs met, 0 mismatches");
    } else {
        println!("\nRESULT: FAIL (mismatches={mismatches}, slo_failures={slo_failures:?})");
        std::process::exit(1);
    }
}
