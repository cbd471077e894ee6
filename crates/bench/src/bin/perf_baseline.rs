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
//!
//! **Experiment E19** rides along: early stopping vs the arena engine —
//! the plain engine against the same engine with protocol-level early
//! stopping (`with_early_stop`), at the largest swept BYZ(2,2) cell
//! (capped at N = 13). Decisions must stay bit-identical, fault-free
//! trials must report `messages_saved > 0`, and — with timing on at
//! N = 13 — the early-stopped engine must be at least **2× faster** on the
//! fault-free class, the case early stopping targets. With an honest
//! sender at m = 2 no internal path can contain the whole fault set, so
//! faulty trials cannot prune: that class is gated on counts, not wall
//! time — the same votes evaluated as the arena engine, and no message
//! saved.

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

/// **E19** aggregate: the arena engine vs the same engine with
/// protocol-level early stopping, split by fault class (early stopping is
/// an expected-case win — it prunes most aggressively when the certified
/// fault set is small).
#[derive(Default)]
struct E19Class {
    trials: usize,
    /// The early-stopped engine's counters.
    perf: EigPerf,
    /// Votes the arena engine evaluated on the same trials.
    base_votes_evaluated: u64,
    base_nanos: u64,
    opt_nanos: u64,
    mismatches: usize,
}

impl E19Class {
    fn speedup(&self) -> f64 {
        if self.opt_nanos == 0 {
            return 0.0;
        }
        self.base_nanos as f64 / self.opt_nanos as f64
    }

    fn cells(&self, class: &str, timing: bool) -> Vec<String> {
        let mut out = vec![
            class.to_string(),
            self.trials.to_string(),
            self.perf.subtrees_pruned.to_string(),
            self.perf.messages_saved.to_string(),
            self.perf.votes_evaluated.to_string(),
            self.perf.votes_memo_hit.to_string(),
        ];
        if timing {
            out.push(self.base_nanos.to_string());
            out.push(self.opt_nanos.to_string());
            out.push(format!("{:.2}", self.speedup()));
        } else {
            out.extend(["-".to_string(), "-".to_string(), "-".to_string()]);
        }
        out
    }

    fn absorb(&mut self, other: &E19Class) {
        self.trials += other.trials;
        self.perf.absorb(&other.perf);
        self.base_votes_evaluated += other.base_votes_evaluated;
        self.base_nanos += other.base_nanos;
        self.opt_nanos += other.opt_nanos;
        self.mismatches += other.mismatches;
    }
}

/// Runs the E19 head-to-head at BYZ(2,2), cluster size `n`: every trial
/// drives the plain arena engine and the early-stopped engine on
/// identical inputs and asserts bit-identical decisions. The
/// early-stopped engine is rebuilt per trial (the early-stop mask is
/// per-run state) **outside** the timed region.
fn run_e19(n: usize, trials: usize, timing: bool, mut rng: SimRng, obs: &mut Obs) -> [E19Class; 2] {
    let span = obs.span("bench.e19", vec![("n", n as u64)]);
    let m = 2usize;
    let params = Params::new(m, m).expect("u = m is valid");
    let inst = ByzInstance::new(n, params, NodeId::new(0)).expect("n >= 3m + 1");
    let baseline = inst.engine();

    // [0] = fault-free trials, [1] = trials with faults.
    let mut classes = [E19Class::default(), E19Class::default()];
    for _ in 0..trials {
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

        let optimized = baseline.clone().with_early_stop(&faulty);
        let t0 = Instant::now();
        let base_run = inst.run_engine(&baseline, &sender_value, &faulty, &mut fabricate);
        let t1 = Instant::now();
        let opt_run = inst.run_engine(&optimized, &sender_value, &faulty, &mut fabricate);
        let t2 = Instant::now();

        let class = &mut classes[usize::from(!faulty.is_empty())];
        class.trials += 1;
        if timing {
            class.base_nanos += (t1 - t0).as_nanos() as u64;
            class.opt_nanos += (t2 - t1).as_nanos() as u64;
        }
        if opt_run.decisions != base_run.decisions {
            class.mismatches += 1;
        }
        class.perf.absorb(&opt_run.perf);
        class.base_votes_evaluated += base_run.perf.votes_evaluated;
    }

    let settled: u64 = classes
        .iter()
        .map(|c| c.perf.votes_evaluated + c.perf.votes_memo_hit)
        .sum();
    obs.finish(span, settled);
    if let Some(registry) = obs.registry_mut() {
        for class in &classes {
            class.perf.fold_into(registry);
        }
    }
    classes
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

    // E19: early stop vs the arena engine at the largest swept
    // BYZ(2,2) cell, capped at the N = 13 reference point. Single cell,
    // run after the sweep on a derived stream — deterministic for any
    // `--workers` value.
    let e19_n = max_n.min(13);
    let e19 = (e19_n >= 7).then(|| {
        run_e19(
            e19_n,
            trials,
            timing,
            SimRng::derive(master_seed, 0xE19),
            &mut obs_rec,
        )
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
    let mut e19_all = E19Class::default();
    if let Some(classes) = &e19 {
        for class in classes {
            e19_all.absorb(class);
        }
        let faultfree = &classes[0];
        report
            .set_meta("e19_n", e19_n)
            .set_metric("e19_trials", e19_all.trials)
            .set_metric("e19_decision_mismatches", e19_all.mismatches)
            .set_metric("e19_subtrees_pruned", e19_all.perf.subtrees_pruned)
            .set_metric("e19_messages_saved", e19_all.perf.messages_saved)
            .set_metric("e19_faultfree_trials", faultfree.trials)
            .set_metric(
                "e19_faultfree_messages_saved",
                faultfree.perf.messages_saved,
            );
        if timing {
            report.set_metric(
                "e19_speedup_x100",
                (e19_all.speedup() * 100.0).round() as u64,
            );
            report.set_metric(
                "e19_faultfree_speedup_x100",
                (faultfree.speedup() * 100.0).round() as u64,
            );
        }
    }
    report.set_obs_registry(obs_rec.registry());
    report.add_table(Table::with_rows(
        "reference_eval vs arena engine (per-cell totals; timing columns '-' under --no-timing)",
        &headers,
        rows.iter().map(|r| r.cells(timing)).collect(),
    ));
    if let Some(classes) = &e19 {
        report.add_table(Table::with_rows(
            "E19: early stop vs the arena engine at BYZ(2,2)",
            &[
                "class",
                "trials",
                "subtrees_pruned",
                "messages_saved",
                "votes_evaluated",
                "votes_memo_hit",
                "base_ns",
                "opt_ns",
                "speedup",
            ],
            vec![
                classes[0].cells("fault-free", timing),
                classes[1].cells("faulty", timing),
                e19_all.cells("all", timing),
            ],
        ));
    }
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
    // E19 gates (when the cell ran): decisions bit-identical to the
    // arena engine, fault-free runs actually saved messages, and — at the
    // N = 13 reference point with timing on — at least 2x faster on the
    // fault-free class, the expected case early stopping targets. With an
    // honest sender at m = 2 no internal path can contain the whole fault
    // set, so faulty trials cannot prune: they must take the arena
    // engine's votes and save nothing (DESIGN.md §5h).
    let e19_ok = match &e19 {
        None => true,
        Some([faultfree, faulty]) => {
            e19_all.mismatches == 0
                && faultfree.perf.messages_saved > 0
                && faulty.perf.messages_saved == 0
                && faulty.perf.votes_evaluated == faulty.base_votes_evaluated
                && (!timing || e19_n < 13 || faultfree.speedup() >= 2.0)
        }
    };
    if mismatches == 0 && memo_ok && speedup_ok && e19_ok {
        match speedup_n13_m2 {
            Some(s) if timing => println!(
                "\nRESULT: engine bit-identical to reference on every trial, \
                 {memo} memo hits, {s:.2}x at N=13 m=2; E19 early stop \
                 {ff:.2}x fault-free / {fy:.2}x faulty over the arena engine \
                 ({saved} messages saved, 0 mismatches)",
                memo = total.votes_memo_hit,
                ff = e19.as_ref().map(|c| c[0].speedup()).unwrap_or(0.0),
                fy = e19.as_ref().map(|c| c[1].speedup()).unwrap_or(0.0),
                saved = e19_all.perf.messages_saved
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
             speedup_n13_m2={speedup_n13_m2:?}, e19_mismatches={}, \
             e19_speedup={:.2}, e19_faultfree_saved={})",
            total.votes_memo_hit,
            e19_all.mismatches,
            e19_all.speedup(),
            e19.as_ref().map(|c| c[0].perf.messages_saved).unwrap_or(0)
        );
        std::process::exit(1);
    }
}
