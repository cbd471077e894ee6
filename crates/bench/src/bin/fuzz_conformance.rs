//! **Experiment E18** — conformance fuzzing as a standing experiment:
//! randomized BYZ(m, u) executions checked step-by-step against the
//! abstract spec machine, plus a seeded-mutant gate proving the checker
//! has teeth.
//!
//! Three campaigns, one report (`results/fuzz_conformance.json`,
//! schema v5):
//!
//! 1. **Conformance sweep** — `--trials` (default 200) randomized
//!    [`FuzzPlan`](harness::FuzzPlan)s with N ∈ {4..`--max-n`}: random valid `(m, u)`
//!    shapes, mixed static / adaptive / crash faults, optional
//!    message-keyed link chaos and a hot-edge-cutting online adversary. Every delivered message, every
//!    per-round relay set, and every final decision is validated by
//!    [`degradable::spec::SpecChecker`]; model-clean plans additionally
//!    pass `check_degradable`. Every fourth trial is replayed through
//!    two real backends — the batched agreement service
//!    (`run_batch` with a trace sink) and the TCP mesh — and those executions are
//!    checked against the same spec machine. The gate: zero violations,
//!    main run and backend replays alike. Any failure is shrunk to a
//!    minimal `(seed, plan)` repro and written to `results/repros/`.
//! 2. **Mutant battery** — `--mutant-budget` (default 24) executions
//!    per mutation for *each* of the four seeded bugs (relay
//!    suppression, wrong-value relay, early decision, vote off-by-one).
//!    The gate inverts: the checker **must** catch every mutant, and
//!    each mutation's first catch is minimized and written to
//!    `results/repros/` as evidence.
//! 3. **Churn sweep** — `--trials`-independent seeds of a fixed
//!    crash/rejoin schedule over the batched service
//!    ([`degradable::run_churn`]): a Byzantine node with corrupt
//!    outgoing links spoofing a rejoined sender's reclaimed slot id.
//!    The gate: every epoch's D.1–D.4 verdicts stay within the model
//!    and the path-root pin rejects at least one spoof.
//!
//! Flags beyond the shared [`RunArgs`]:
//!
//! * `--max-n N` — cluster-size ceiling for generated plans (CI trims);
//! * `--mutant-budget B` — executions in the mutant gate;
//! * `--no-timing` — logical-clock trace under `--trace-out`, wall
//!   times scrubbed from the obs registry.
//!
//! The report contains no worker-count field and only deterministic
//! counters (plan coverage, violation counts, spoof counts) — it is
//! bit-identical for any `--workers` value: trial `t` always draws from
//! `SimRng::derive(master_seed, t)` and the spec checker consumes no
//! randomness at all.

use degradable::adversary::Strategy;
use degradable::{BatchInstance, BatchMsg, EpochPlan, Params, Val};
use harness::fuzz::{FaultSpec, FuzzConfig, FuzzFailure, Mutation, TrialReport, ALL_MUTATIONS};
use harness::report::Table;
use harness::{Report, RunArgs, SweepRunner};
use obs::{Obs, TimeMode};
use simnet::{LinkFaultKind, LinkFaultPlan, NodeId, SimRng};
use std::collections::BTreeMap;

/// What one trial adds to the coverage table, column by column after `n`:
/// plans, faults, adaptive, crash, chaotic, backend, steps.
fn coverage(row: &TrialReport) -> [usize; 7] {
    let plan = &row.plan;
    let any = |kind: fn(&FaultSpec) -> bool| usize::from(plan.faults.values().any(kind));
    [
        1,
        plan.faults.len(),
        any(|f| matches!(f, FaultSpec::Adaptive(_))),
        any(|f| matches!(f, FaultSpec::Crash { .. })),
        usize::from(!plan.is_model_clean()),
        row.backend_executions,
        row.steps,
    ]
}

/// One conformance (or mutant) trial — [`harness::fuzz_trial`], the trial
/// `dagree fuzz` runs, so a failure here reproduces there under the same
/// seed and trial index — with its coverage counted into the registry.
fn fuzz_cell(config: &FuzzConfig, trial: usize, obs: &mut Obs) -> TrialReport {
    let span = obs.span("fuzz.trial", vec![("trial", trial as u64)]);
    let row = harness::fuzz_trial(config, trial);
    let [execs, _, adaptive, crash, chaotic, backend, steps] = coverage(&row);
    obs.finish(span, steps as u64);
    obs.add("fuzz.execs", execs as u64);
    obs.add("fuzz.backend_execs", backend as u64);
    obs.add("fuzz.steps", steps as u64);
    obs.add("fuzz.adaptive_plans", adaptive as u64);
    obs.add("fuzz.crash_plans", crash as u64);
    obs.add("fuzz.chaos_plans", chaotic as u64);
    row
}

/// One churn-sweep trial outcome (deterministic counters only).
struct ChurnRow {
    crashes: usize,
    rejoins: usize,
    spoofs_rejected: u64,
    violations: usize,
    sent: usize,
}

/// The fixed churn schedule: BYZ(1, 2) at n = 5, node 3 declared
/// Byzantine, node 4 crashing for one epoch and rejoining, and — in the
/// final epoch — node 3's corrupt outgoing links re-tagging instance-0
/// envelopes with the rejoined sender's reclaimed slot id (spoofing).
fn churn_cell(trial: usize, mut rng: SimRng, obs: &mut Obs) -> ChurnRow {
    let span = obs.span("fuzz.churn_trial", vec![("trial", trial as u64)]);
    let n = |i: usize| NodeId::new(i);
    let slot = |sender: usize, value: u64| BatchInstance {
        sender: n(sender),
        value: Val::Value(value),
    };
    let epochs = vec![
        EpochPlan {
            alive: vec![true; 5],
            instances: vec![slot(0, 10), slot(1, 20)],
        },
        // Node 4 crashes: effective f = |{3, 4}| = 2 = u, still in model.
        EpochPlan {
            alive: vec![true, true, true, true, false],
            instances: vec![slot(0, 11)],
        },
        // Node 4 rejoins; node 1's sender slot is reused and node 3
        // spoofs it (corrupt links re-tag instance 0 as instance 1).
        EpochPlan {
            alive: vec![true; 5],
            instances: vec![slot(0, 12), slot(1, 22)],
        },
    ];
    let strategies: BTreeMap<NodeId, Strategy<u64>> =
        [(n(3), Strategy::ConstantLie(Val::Value(9)))].into();
    let plan = LinkFaultPlan::healthy()
        .with(n(3), n(0), LinkFaultKind::Corrupt { p: 1.0 })
        .with(n(3), n(1), LinkFaultKind::Corrupt { p: 1.0 })
        .with(n(3), n(2), LinkFaultKind::Corrupt { p: 1.0 })
        .with(n(3), n(4), LinkFaultKind::Corrupt { p: 1.0 });
    let run = degradable::run_churn(
        Params::new(1, 2).expect("u >= m"),
        5,
        &epochs,
        &strategies,
        rng.below(u64::MAX),
        obs,
        |epoch, eng| {
            if epoch == 2 {
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
    let sent: usize = run.epochs.iter().map(|e| e.sent).sum();
    obs.finish(span, sent as u64);
    ChurnRow {
        crashes: run.crashes,
        rejoins: run.rejoins,
        spoofs_rejected: run.spoofs_rejected(),
        violations: run.violations(),
        sent,
    }
}

fn main() {
    println!("E18: conformance fuzz gate (spec machine / mutant / churn)");
    let args = RunArgs::parse();
    let master_seed = args.seed_or(0xF055_F0CC);
    let budget = args.trials_or(200);
    let runner = SweepRunner::new(args.workers_or(4));

    // Binary-specific flags (RunArgs skips what it does not recognize).
    let mut max_n = 9usize;
    let mut mutant_budget = 24usize;
    let mut timing = true;
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--no-timing" => timing = false,
            "--max-n" => {
                if let Some(v) = raw.next().and_then(|v| v.parse().ok()) {
                    max_n = v;
                }
            }
            "--mutant-budget" => {
                if let Some(v) = raw.next().and_then(|v| v.parse().ok()) {
                    mutant_budget = v;
                }
            }
            _ => {
                if let Some(v) = arg.strip_prefix("--max-n=").and_then(|v| v.parse().ok()) {
                    max_n = v;
                } else if let Some(v) = arg
                    .strip_prefix("--mutant-budget=")
                    .and_then(|v| v.parse().ok())
                {
                    mutant_budget = v;
                }
            }
        }
    }

    let mut obs_rec = Obs::enabled();

    // Campaign 1: conformance sweep — no injected bug, zero violations
    // expected. Same derive as `dagree fuzz`, so failures cross-repro.
    // Every fourth trial replays through the batched service and the
    // TCP mesh.
    let campaign = |seed, budget, mutation: Option<Mutation>| FuzzConfig {
        seed,
        budget,
        max_n,
        mutation,
        backends: mutation.is_none(),
    };
    let config = campaign(master_seed, budget, None);
    let fuzz_rows = runner.run_observed(master_seed, budget, &mut obs_rec, |trial, _, obs| {
        fuzz_cell(&config, trial, obs)
    });

    // Campaign 2: mutant battery — each seeded bug injected everywhere
    // over its own seed stream; the checker must catch all of them.
    let mutant_rows: Vec<(Mutation, Vec<TrialReport>)> = ALL_MUTATIONS
        .iter()
        .enumerate()
        .map(|(i, &mutation)| {
            let seed = master_seed ^ 0xBADD ^ ((i as u64) << 16);
            let config = campaign(seed, mutant_budget, Some(mutation));
            let rows = runner.run_observed(seed, mutant_budget, &mut obs_rec, |trial, _, obs| {
                fuzz_cell(&config, trial, obs)
            });
            (mutation, rows)
        })
        .collect();

    // Campaign 3: churn sweep — crash/rejoin epochs with slot spoofing.
    let churn_trials = 8usize;
    let churn_rows =
        runner.run_observed(master_seed ^ 0xC4B2, churn_trials, &mut obs_rec, churn_cell);

    // Coverage table: one row per cluster size.
    let mut by_n: BTreeMap<usize, [usize; 7]> = BTreeMap::new();
    for row in &fuzz_rows {
        let sums = by_n.entry(row.plan.n).or_default();
        for (sum, x) in sums.iter_mut().zip(coverage(row)) {
            *sum += x;
        }
    }
    let coverage_rows: Vec<Vec<String>> = by_n
        .iter()
        .map(|(n, sums)| {
            std::iter::once(n)
                .chain(sums)
                .map(usize::to_string)
                .collect()
        })
        .collect();
    let churn_table_rows: Vec<Vec<String>> = churn_rows
        .iter()
        .enumerate()
        .map(|(t, r)| {
            vec![
                t.to_string(),
                r.crashes.to_string(),
                r.rejoins.to_string(),
                r.spoofs_rejected.to_string(),
                r.violations.to_string(),
                r.sent.to_string(),
            ]
        })
        .collect();

    let fuzz_violations = fuzz_rows.iter().filter(|r| r.failure.is_some()).count();
    let backend_executions: usize = fuzz_rows.iter().map(|r| r.backend_executions).sum();
    let backend_violations = fuzz_rows
        .iter()
        .filter(|r| !r.backend_violations.is_empty())
        .count();
    let battery: Vec<(Mutation, usize, usize)> = mutant_rows
        .iter()
        .map(|(mutation, rows)| {
            (
                *mutation,
                rows.len(),
                rows.iter().filter(|r| r.failure.is_some()).count(),
            )
        })
        .collect();
    let mutant_trials: usize = battery.iter().map(|(_, trials, _)| trials).sum();
    let mutants_caught: usize = battery.iter().map(|(_, _, caught)| caught).sum();
    let mutants_missed: Vec<&str> = battery
        .iter()
        .filter(|(_, _, caught)| *caught == 0)
        .map(|(m, _, _)| m.name())
        .collect();
    let total_steps: usize = fuzz_rows.iter().map(|r| r.steps).sum();
    let churn_violations: usize = churn_rows.iter().map(|r| r.violations).sum();
    let spoofs_rejected: u64 = churn_rows.iter().map(|r| r.spoofs_rejected).sum();
    let crashes: usize = churn_rows.iter().map(|r| r.crashes).sum();
    let rejoins: usize = churn_rows.iter().map(|r| r.rejoins).sum();

    // Repro files: every conformance failure (should be none), plus
    // each mutation's first catch as evidence the checker bites.
    for row in &fuzz_rows {
        if let Some(failure) = &row.failure {
            write_repro_line(failure, master_seed, None);
        }
    }
    for (i, (mutation, rows)) in mutant_rows.iter().enumerate() {
        if let Some(failure) = rows.iter().find_map(|r| r.failure.as_ref()) {
            let seed = master_seed ^ 0xBADD ^ ((i as u64) << 16);
            write_repro_line(failure, seed, Some(*mutation));
        }
    }

    let mut report = Report::new("fuzz_conformance");
    report
        .set_meta("master_seed", master_seed)
        .set_meta("budget", budget)
        .set_meta("mutant_budget", mutant_budget)
        .set_meta("churn_trials", churn_trials)
        .set_meta("max_n", max_n)
        .set_metric("executions", fuzz_rows.len())
        .set_metric("fuzz_violations", fuzz_violations)
        .set_metric("backend_executions", backend_executions)
        .set_metric("backend_violations", backend_violations)
        .set_metric("total_steps", total_steps)
        .set_metric("mutant_trials", mutant_trials)
        .set_metric("mutants_caught", mutants_caught)
        .set_metric("mutations_in_battery", battery.len())
        .set_metric("mutations_caught", battery.len() - mutants_missed.len())
        .set_metric("churn_violations", churn_violations)
        .set_metric("spoofs_rejected", spoofs_rejected)
        .set_metric("crashes", crashes)
        .set_metric("rejoins", rejoins)
        .add_table(Table::with_rows(
            "conformance sweep: plan coverage per cluster size",
            &[
                "n", "plans", "faults", "adaptive", "crash", "chaotic", "backend", "steps",
            ],
            coverage_rows,
        ))
        .add_table(Table::with_rows(
            "mutant battery: seeded bugs caught by the spec checker",
            &["mutation", "trials", "caught"],
            battery
                .iter()
                .map(|(m, trials, caught)| {
                    vec![m.name().to_string(), trials.to_string(), caught.to_string()]
                })
                .collect(),
        ))
        .add_table(Table::with_rows(
            "churn sweep: crash/rejoin epochs with slot spoofing",
            &[
                "trial",
                "crashes",
                "rejoins",
                "spoofs_rejected",
                "violations",
                "sent",
            ],
            churn_table_rows,
        ));
    if !timing {
        obs::scrub_timing(&mut obs_rec);
    }
    report.set_obs_registry(obs_rec.registry());
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
    match report.write(args.out_path()) {
        Ok(path) => println!("\nreport: {}", path.display()),
        Err(e) => eprintln!("\nreport write failed: {e}"),
    }

    let ok = fuzz_violations == 0
        && backend_violations == 0
        && mutants_missed.is_empty()
        && churn_violations == 0
        && spoofs_rejected > 0;
    if ok {
        println!(
            "\nRESULT: {} executions ({backend_executions} backend replays) conformant to \
             the abstract BYZ(m, u) machine; all {} mutations caught \
             ({mutants_caught}/{mutant_trials} trials); churn held through {crashes} crashes, \
             {rejoins} rejoins, {spoofs_rejected} spoofs rejected",
            fuzz_rows.len(),
            battery.len()
        );
    } else {
        println!(
            "\nRESULT: GATE FAILED (fuzz_violations={fuzz_violations}, \
             backend_violations={backend_violations}, mutations_missed={mutants_missed:?}, \
             churn_violations={churn_violations}, spoofs_rejected={spoofs_rejected})"
        );
        std::process::exit(1);
    }
}

/// Writes one failure's repro file and prints where it went.
fn write_repro_line(failure: &FuzzFailure, seed: u64, mutation: Option<Mutation>) {
    match harness::write_repro(
        std::path::Path::new("results/repros"),
        failure,
        seed,
        mutation,
    ) {
        Ok(path) => println!("repro: {} ({})", path.display(), failure.violation),
        Err(e) => eprintln!("repro write failed: {e}"),
    }
}
