//! **Experiment E14** — committed performance baseline for the
//! arena-backed EIG engine.
//!
//! Sweeps BYZ(m,m) instances over `m ∈ {1, 2}` and `N` from the
//! feasibility floor `3m + 1` up to `--max-n` (default 16). Every trial
//! draws a random fault set and random battery strategies, runs **both**
//! executors on identical inputs — [`degradable::reference_eval`] (the
//! per-receiver recursive oracle) and the shared `EigEngine` arena —
//! asserts their decisions are bit-identical, and accumulates the
//! engine's deterministic [`EigPerf`] counters.
//!
//! The report is written to **`BENCH_perf_baseline.json` at the repo
//! root** (override with `--out`) so future PRs have a perf trajectory
//! to regress against. Two extra flags beyond the shared [`RunArgs`]:
//!
//! * `--max-n N` — cap the sweep (CI smoke uses `--max-n 10`);
//! * `--no-timing` — suppress wall-clock columns and the speedup
//!   metric/acceptance gate, leaving only deterministic counters so the
//!   report is bit-identical across `--workers 1/2/8`.
//!
//! The run is observed end to end (`bench.cell` spans plus the sweep and
//! engine registries; the registry snapshot lands in the report's v6
//! `obs` section). With the shared `--trace-out PATH` flag a Chrome
//! `trace_event` file is written too — wall-clock based normally,
//! logical-clock based (and fully deterministic) under `--no-timing`.
//! Summarize it with `dagree obs PATH`.
//!
//! The engine runs with a single resolve worker here: the measured
//! speedup is the memoization + arena win alone, not thread-level
//! parallelism. Acceptance (timing mode, `--max-n >= 13`): the engine
//! must be at least **1.5× faster** than the reference at `N = 13,
//! m = 2`, and memo-hit counters must be nonzero overall.

use degradable::adversary::Strategy;
use degradable::{reference_eval, ByzInstance, Params, Val};
use harness::report::Table;
use harness::{Report, RunArgs, SweepRunner};
use obs::{Obs, TimeMode};
use simnet::{EigPerf, NodeId, SimRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// One sweep cell: a BYZ(m,m) instance shape (u = m, sender 0).
#[derive(Debug, Clone, Copy)]
struct Cell {
    m: usize,
    n: usize,
}

/// Per-cell aggregate: counters, wall times, and the equivalence tally.
struct Row {
    m: usize,
    n: usize,
    trials: usize,
    perf: EigPerf,
    ref_nanos: u64,
    eng_nanos: u64,
    mismatches: usize,
}

impl Row {
    fn speedup(&self) -> f64 {
        if self.eng_nanos == 0 {
            return 0.0;
        }
        self.ref_nanos as f64 / self.eng_nanos as f64
    }

    fn cells(&self, timing: bool) -> Vec<String> {
        let mut out = vec![
            self.m.to_string(),
            self.n.to_string(),
            self.trials.to_string(),
            self.perf.arena_nodes.to_string(),
            self.perf.votes_evaluated.to_string(),
            self.perf.votes_memo_hit.to_string(),
            self.perf.messages_materialized.to_string(),
        ];
        if timing {
            out.push(self.ref_nanos.to_string());
            out.push(self.eng_nanos.to_string());
            out.push(format!("{:.2}", self.speedup()));
        } else {
            out.extend(["-".to_string(), "-".to_string(), "-".to_string()]);
        }
        out
    }
}

fn run_cell(cell: &Cell, trials: usize, timing: bool, mut rng: SimRng, obs: &mut Obs) -> Row {
    let span = obs.span(
        "bench.cell",
        vec![("m", cell.m as u64), ("n", cell.n as u64)],
    );
    let Cell { m, n } = *cell;
    let params = Params::new(m, m).expect("u = m is valid");
    let inst = ByzInstance::new(n, params, NodeId::new(0)).expect("n >= 3m + 1");
    // One arena per shape, shared by every trial — the whole point.
    let engine = inst.engine();

    let mut perf = EigPerf::default();
    let mut ref_nanos = 0u64;
    let mut eng_nanos = 0u64;
    let mut mismatches = 0usize;

    for _ in 0..trials {
        // Up to m + u faulty relayers among the non-sender nodes, each
        // with an independently drawn battery strategy.
        let fault_count = rng.below(2 * m as u64 + 1) as usize;
        let battery = Strategy::battery(3, 9, rng.below(u64::MAX));
        let strategies: BTreeMap<NodeId, Strategy<u64>> = rng
            .choose_indices(n - 1, fault_count)
            .into_iter()
            .map(|i| {
                let strategy = rng.pick(&battery).expect("battery non-empty").1.clone();
                (NodeId::new(i + 1), strategy)
            })
            .collect();
        let faulty: BTreeSet<NodeId> = strategies.keys().copied().collect();
        let sender_value = Val::Value(7);

        let mut fabricate = |path: &degradable::Path, receiver: NodeId, truthful: &Val| {
            strategies
                .get(&path.last())
                .expect("fabricate only called for faulty relayers")
                .claim(path, receiver, truthful)
        };

        let t0 = Instant::now();
        let reference = reference_eval(
            n,
            inst.sender(),
            inst.depth(),
            inst.rule(),
            &sender_value,
            &faulty,
            &mut fabricate,
        );
        let t1 = Instant::now();
        let run = inst.run_engine(&engine, &sender_value, &faulty, &mut fabricate);
        let t2 = Instant::now();

        if timing {
            ref_nanos += (t1 - t0).as_nanos() as u64;
            eng_nanos += (t2 - t1).as_nanos() as u64;
        }
        if run.decisions != reference.decisions {
            mismatches += 1;
        }
        perf.absorb(&run.perf);
    }

    // Per-cell span cost = votes settled (worker-count independent), and
    // the cell's deterministic counters fold into the trial registry.
    obs.finish(span, perf.votes_evaluated + perf.votes_memo_hit);
    if let Some(registry) = obs.registry_mut() {
        perf.fold_into(registry);
    }

    Row {
        m,
        n,
        trials,
        perf,
        ref_nanos,
        eng_nanos,
        mismatches,
    }
}

fn main() {
    println!("E14: arena-backed EIG engine perf baseline vs reference_eval");
    let args = RunArgs::parse();
    // Binary-specific flags (RunArgs skips what it does not recognize).
    let mut max_n = 16usize;
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
            _ => {
                if let Some(v) = arg.strip_prefix("--max-n=").and_then(|v| v.parse().ok()) {
                    max_n = v;
                }
            }
        }
    }

    let master_seed = args.seed_or(0xE14);
    let trials = args.trials_or(24);
    let runner = SweepRunner::new(args.workers_or(1));

    let mut cells = Vec::new();
    for m in [1usize, 2] {
        for n in (3 * m + 1)..=max_n {
            cells.push(Cell { m, n });
        }
    }
    let mut obs_rec = Obs::enabled();
    let rows = runner.map_observed(master_seed, &cells, &mut obs_rec, |_, cell, rng, obs| {
        run_cell(cell, trials, timing, rng, obs)
    });

    let mut total = EigPerf::default();
    let mut mismatches = 0usize;
    for row in &rows {
        total.absorb(&row.perf);
        mismatches += row.mismatches;
    }
    // Wall times stay out of the report: only deterministic counters are
    // bit-compared across worker counts.
    obs::scrub_timing(&mut total);
    let speedup_n13_m2 = rows
        .iter()
        .find(|r| r.n == 13 && r.m == 2)
        .map(Row::speedup);

    let headers = [
        "m",
        "n",
        "trials",
        "arena_nodes",
        "votes_evaluated",
        "votes_memo_hit",
        "messages",
        "ref_ns",
        "engine_ns",
        "speedup",
    ];
    let mut report = Report::new("perf_baseline");
    report
        .set_meta("master_seed", master_seed)
        .set_meta("trials_per_cell", trials)
        .set_meta("max_n", max_n)
        .set_meta("timing", timing)
        .set_metric("decision_mismatches", mismatches)
        .set_eig_perf(&total);
    if timing {
        if let Some(s) = speedup_n13_m2 {
            report.set_metric("speedup_n13_m2_x100", (s * 100.0).round() as u64);
        }
    }
    report.set_obs_registry(obs_rec.registry());
    report.add_table(Table::with_rows(
        "reference_eval vs arena engine (per-cell totals; timing columns '-' under --no-timing)",
        &headers,
        rows.iter().map(|r| r.cells(timing)).collect(),
    ));
    report.print_tables();
    if let Some(trace_path) = args.trace_out_path() {
        // Under --no-timing the exported trace is fully deterministic:
        // wall times are scrubbed, timestamps derive from logical cost,
        // and the per-worker fan-out spans (the only worker-count-
        // dependent content) are stripped, so trace files cmp equal
        // across --workers 1/2/8.
        let mode = if timing {
            TimeMode::Wall
        } else {
            obs_rec = obs_rec.without_spans(&["sweep.worker"]);
            obs::scrub_timing(&mut obs_rec);
            TimeMode::Logical
        };
        match std::fs::write(trace_path, obs::chrome_trace_json(&obs_rec, mode)) {
            Ok(()) => println!("\ntrace: {}", trace_path.display()),
            Err(e) => eprintln!("\ntrace write failed: {e}"),
        }
    }
    let default_out = Path::new("BENCH_perf_baseline.json");
    let out = args.out_path().unwrap_or(default_out);
    match report.write(Some(out)) {
        Ok(path) => println!("\nreport: {}", path.display()),
        Err(e) => eprintln!("\nreport write failed: {e}"),
    }

    let memo_ok = total.votes_memo_hit > 0;
    let speedup_ok = !timing || max_n < 13 || speedup_n13_m2.map(|s| s >= 1.5).unwrap_or(false);
    if mismatches == 0 && memo_ok && speedup_ok {
        match speedup_n13_m2 {
            Some(s) if timing => println!(
                "\nRESULT: engine bit-identical to reference on every trial, \
                 {memo} memo hits, {s:.2}x at N=13 m=2",
                memo = total.votes_memo_hit,
            ),
            _ => println!(
                "\nRESULT: engine bit-identical to reference on every trial, \
                 {memo} memo hits (timing suppressed)",
                memo = total.votes_memo_hit
            ),
        }
    } else {
        println!(
            "\nRESULT: FAIL (mismatches={mismatches}, memo_hits={}, \
             speedup_n13_m2={speedup_n13_m2:?})",
            total.votes_memo_hit,
        );
        std::process::exit(1);
    }
}
