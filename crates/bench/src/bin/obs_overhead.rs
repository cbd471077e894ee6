//! **Experiment E20** — recorder overhead and SLO gates for the
//! observability layer.
//!
//! The causal-tracing + histogram instrumentation added to
//! `degradable::service` is only acceptable if it is effectively free
//! when armed and exactly free when disabled. This bin drives fault-free
//! BYZ(2,2) batches through [`degradable::run_batch`] twice per
//! repetition on identical inputs: once with a disabled recorder,
//! once with an enabled one. Repetitions interleave the two modes so
//! machine drift hits both sides equally.
//!
//! Gates:
//!
//! * decisions from traced and untraced runs are bit-identical on every
//!   repetition (observation must never perturb the protocol);
//! * the declarative [`SloSpec`] over the merged traced registry passes:
//!   per-instance message and logical-cost quantile bounds, the
//!   full-regime instance count, and zero decision mismatches — emitted
//!   as the schema-v6 `slo` report section;
//! * with timing on, the median traced wall time is at most **1.10×**
//!   the median untraced wall time (`overhead_ratio_x100 <= 110`).
//!
//! The report is written to **`BENCH_obs_overhead.json` at the repo
//! root** (override with `--out`). Under `--no-timing` the wall gate is
//! skipped and the registry is scrubbed of wall-named series, so the
//! report is bit-identical across `--workers 1/2/8` and across reruns.

use degradable::{run_batch, BatchInstance, BatchOptions, Params, Val};
use harness::report::Table;
use harness::{Report, RunArgs, SloSpec, SweepRunner};
use obs::{Obs, TimeMode};
use simnet::NodeId;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One interleaved repetition: wall nanos per mode plus the equivalence
/// verdict between the two runs' decision vectors.
struct Rep {
    untraced_nanos: u64,
    traced_nanos: u64,
    mismatch: bool,
}

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

fn main() {
    println!("E20: observability recorder overhead + SLO gates (fault-free BYZ(2,2))");
    let args = RunArgs::parse();
    let mut timing = true;
    let mut reps = 15usize;
    let mut n = 13usize;
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--no-timing" => timing = false,
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
    let workers = args.workers_or(1);
    // The worker count parallelizes per-instance resolution inside the
    // service (SweepRunner is not used: both modes of a repetition must
    // run back to back on one thread for the wall comparison to mean
    // anything). It must not change any deterministic output.
    let _ = SweepRunner::new(workers);

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
    let mut rows: Vec<Rep> = Vec::with_capacity(reps);
    for rep in 0..reps {
        let seed = master_seed
            .wrapping_add(rep as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);

        let t0 = Instant::now();
        let options = || BatchOptions::new().workers(workers);
        let plain = run_batch(params, n, &instances, &no_faults, seed, options())
            .expect("n >= 3m + 1, sender 0");
        let t1 = Instant::now();
        let traced = run_batch(
            params,
            n,
            &instances,
            &no_faults,
            seed,
            options().obs(&mut obs_rec),
        )
        .expect("n >= 3m + 1, sender 0");
        let t2 = Instant::now();

        rows.push(Rep {
            untraced_nanos: if timing {
                (t1 - t0).as_nanos() as u64
            } else {
                0
            },
            traced_nanos: if timing {
                (t2 - t1).as_nanos() as u64
            } else {
                0
            },
            mismatch: traced.decisions != plain.decisions,
        });
    }

    let mismatches = rows.iter().filter(|r| r.mismatch).count();
    obs_rec.add("e20.decision_mismatches", mismatches as u64);

    let untraced_median = median(rows.iter().map(|r| r.untraced_nanos).collect());
    let traced_median = median(rows.iter().map(|r| r.traced_nanos).collect());
    // Zero medians only under --no-timing, where the ratio is unused.
    let ratio_x100 = (traced_median * 100)
        .checked_div(untraced_median)
        .unwrap_or(0);

    if !timing {
        // Wall-named registry series (svc.instance.wall_ns) and span wall
        // times are the only nondeterministic content; scrubbing them
        // makes the report bit-identical across workers and reruns.
        obs::scrub_timing(&mut obs_rec);
    }

    // The SLO contract this cell promises — evaluated over the merged
    // traced registry (reps × k fault-free instances). Quantile bounds
    // are the histogram bucket edges above the deterministic per-instance
    // counts at N = 13 (1 464 messages, 144 votes settled).
    let spec = SloSpec::new("e20-faultfree-byz22")
        .p50_at_most("svc.instance.messages", 2048)
        .p99_at_most("svc.instance.messages", 2048)
        .p99_at_most("svc.instance.logical", 256)
        .counter_at_least("svc.regime.full.instances", (reps * k) as u64)
        .counter_at_most("svc.regime.degraded.instances", 0)
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
        .set_meta("timing", timing)
        .set_metric("decision_mismatches", mismatches);
    if timing {
        report
            .set_metric("untraced_median_ns", untraced_median)
            .set_metric("traced_median_ns", traced_median)
            .set_metric("overhead_ratio_x100", ratio_x100);
    }
    report.set_obs_registry(obs_rec.registry());
    report.set_slo(slo);
    let rep_cells = |r: &Rep, i: usize| {
        vec![
            i.to_string(),
            if timing {
                r.untraced_nanos.to_string()
            } else {
                "-".into()
            },
            if timing {
                r.traced_nanos.to_string()
            } else {
                "-".into()
            },
            if r.mismatch {
                "MISMATCH".into()
            } else {
                "ok".into()
            },
        ]
    };
    report.add_table(Table::with_rows(
        "traced vs untraced service runs (identical inputs per rep)",
        &["rep", "untraced_ns", "traced_ns", "decisions"],
        rows.iter()
            .enumerate()
            .map(|(i, r)| rep_cells(r, i))
            .collect(),
    ));
    report.print_tables();

    if let Some(trace_path) = args.trace_out_path() {
        let mode = if timing {
            TimeMode::Wall
        } else {
            TimeMode::Logical
        };
        match std::fs::write(trace_path, obs::chrome_trace_json(&obs_rec, mode)) {
            Ok(()) => println!("\ntrace: {}", trace_path.display()),
            Err(e) => eprintln!("\ntrace write failed: {e}"),
        }
    }
    let default_out = Path::new("BENCH_obs_overhead.json");
    let out = args.out_path().unwrap_or(default_out);
    match report.write(Some(out)) {
        Ok(path) => println!("\nreport: {}", path.display()),
        Err(e) => eprintln!("\nreport write failed: {e}"),
    }

    let overhead_ok = !timing || ratio_x100 <= 110;
    if mismatches == 0 && slo_passed && overhead_ok {
        if timing {
            println!(
                "\nRESULT: recorder overhead {}.{:02}x (traced {traced_median} ns vs \
                 untraced {untraced_median} ns median), all SLOs met, 0 mismatches",
                ratio_x100 / 100,
                ratio_x100 % 100,
            );
        } else {
            println!("\nRESULT: all SLOs met, 0 mismatches (timing suppressed)");
        }
    } else {
        println!(
            "\nRESULT: FAIL (mismatches={mismatches}, overhead_ratio_x100={ratio_x100}, \
             slo_failures={slo_failures:?})"
        );
        std::process::exit(1);
    }
}
