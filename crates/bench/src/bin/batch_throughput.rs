//! **Experiment E16** — batched agreement throughput: the arena-backed
//! batch service vs one-at-a-time execution.
//!
//! Workload: a K-slot single-sender stream (node 0 proposes K values —
//! a replicated-log shape) on BYZ(m,m) instances, with a random fault
//! set and random battery strategies per trial. Every trial runs the
//! same slots two ways on identical inputs:
//!
//! 1. [`degradable::run_batch`] — one multiplexed engine run, one shared
//!    arena per sender, memoized bottom-up resolve per instance;
//! 2. sequential [`degradable::run_protocol`] — K one-instance batches:
//!    the same executor, but each run rebuilds its arena and pays its own
//!    engine execution.
//!
//! Decisions must be bit-identical between the two, and the batch's
//! total message count must equal the sequential sum (multiplexing is
//! pure transport fusion). The report lands in
//! **`BENCH_batch_throughput.json`** at the repo root (override with
//! `--out`). Flags beyond the shared [`RunArgs`]: `--max-n N` caps the
//! sweep (CI smoke uses `--max-n 8`), `--no-timing` drops wall columns
//! and the wall gate so the report is bit-identical across
//! `--workers 1/2/8`.
//!
//! Acceptance: zero decision mismatches between the two, and
//! the batch's sent count must equal the sequential sum (transport
//! fusion changes nothing semantically). The **≥ 2× gate** is on
//! materialization: per trial, one-at-a-time execution materializes K
//! arenas of interned path labels where the single-sender batch
//! materializes exactly one, so at K = 16 the advantage is 16×
//! (`arena_reuse_k16_x100`) — deterministic, enforced in every mode.
//! Wall times are reported for the trajectory (`x_seq`) and not gated:
//! end-to-end wall is dominated by the shared per-envelope transport
//! cost, which the batch neither adds to nor removes, and CI wall clocks
//! are noisy.

use degradable::adversary::Strategy;
use degradable::{run_batch, run_protocol, BatchInstance, BatchOptions, ByzInstance, Params, Val};
use harness::report::Table;
use harness::{Report, RunArgs, SweepRunner};
use obs::{Obs, TimeMode};
use simnet::{EigPerf, NodeId, SimRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One sweep cell: a BYZ(m,m) shape and a stream length.
#[derive(Debug, Clone, Copy)]
struct Cell {
    m: usize,
    n: usize,
    k: usize,
}

/// Per-cell aggregate across trials.
struct Row {
    m: usize,
    n: usize,
    k: usize,
    trials: usize,
    perf: EigPerf,
    arena_builds: usize,
    batch_sent: usize,
    batch_nanos: u64,
    seq_nanos: u64,
    mismatches: usize,
}

impl Row {
    /// Arena builds saved by sender-sharing: sequential execution builds
    /// one arena per slot, the batch one per distinct sender.
    fn reuse_factor(&self) -> f64 {
        if self.arena_builds == 0 {
            return 0.0;
        }
        (self.k * self.trials) as f64 / self.arena_builds as f64
    }

    fn speedup_seq(&self) -> f64 {
        if self.batch_nanos == 0 {
            return 0.0;
        }
        self.seq_nanos as f64 / self.batch_nanos as f64
    }

    fn cells(&self, timing: bool) -> Vec<String> {
        let mut out = vec![
            self.m.to_string(),
            self.n.to_string(),
            self.k.to_string(),
            self.trials.to_string(),
            self.batch_sent.to_string(),
            self.arena_builds.to_string(),
            format!("{:.0}", self.reuse_factor()),
            self.perf.messages_materialized.to_string(),
            self.perf.votes_evaluated.to_string(),
            self.perf.votes_memo_hit.to_string(),
        ];
        if timing {
            out.push(self.batch_nanos.to_string());
            out.push(self.seq_nanos.to_string());
            out.push(format!("{:.2}", self.speedup_seq()));
        } else {
            out.extend(std::iter::repeat_n("-".to_string(), 3));
        }
        out
    }
}

fn run_cell(cell: &Cell, trials: usize, timing: bool, mut rng: SimRng, obs: &mut Obs) -> Row {
    let span = obs.span(
        "bench.batch_cell",
        vec![
            ("m", cell.m as u64),
            ("n", cell.n as u64),
            ("k", cell.k as u64),
        ],
    );
    let Cell { m, n, k } = *cell;
    let params = Params::new(m, m).expect("u = m is valid");
    let sender = NodeId::new(0);
    let instances: Vec<BatchInstance<u64>> = (0..k)
        .map(|slot| BatchInstance {
            sender,
            value: Val::Value(7 + slot as u64),
        })
        .collect();

    let mut perf = EigPerf::default();
    let mut arena_builds = 0usize;
    let mut batch_sent = 0usize;
    let mut batch_nanos = 0u64;
    let mut seq_nanos = 0u64;
    let mut mismatches = 0usize;

    for _ in 0..trials {
        // Up to 2m faulty relayers among the non-sender nodes, each with
        // an independently drawn battery strategy — same fault model as
        // the E14 baseline.
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
        let seed = rng.below(u64::MAX);

        let t0 = Instant::now();
        let opts = BatchOptions::new();
        let batch = run_batch(params, n, &instances, &strategies, seed, opts)
            .expect("n >= 3m + 1, sender 0");
        let t1 = Instant::now();
        let single = ByzInstance::new(n, params, sender).expect("n >= 3m + 1");
        let mut seq_sent = 0usize;
        for (slot, inst) in instances.iter().enumerate() {
            let solo = run_protocol(&single, &inst.value, &strategies, seed);
            seq_sent += solo.net.sent;
            if solo.decisions != batch.decisions[slot] {
                mismatches += 1;
            }
        }
        let t2 = Instant::now();
        if batch.net.sent != seq_sent {
            mismatches += 1; // transport fusion must not change traffic
        }
        if timing {
            batch_nanos += (t1 - t0).as_nanos() as u64;
            seq_nanos += (t2 - t1).as_nanos() as u64;
        }
        perf.absorb(&batch.net.eig);
        arena_builds += batch.arena_builds;
        batch_sent += batch.net.sent;
    }

    obs.finish(span, perf.votes_evaluated + perf.votes_memo_hit);
    if let Some(registry) = obs.registry_mut() {
        perf.fold_into(registry);
    }

    Row {
        m,
        n,
        k,
        trials,
        perf,
        arena_builds,
        batch_sent,
        batch_nanos,
        seq_nanos,
        mismatches,
    }
}

fn main() {
    println!("E16: batched agreement throughput — arena batch vs sequential run_protocol");
    let args = RunArgs::parse();
    let mut max_n = 13usize;
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

    let master_seed = args.seed_or(0xE16);
    let trials = args.trials_or(8);
    let runner = SweepRunner::new(args.workers_or(1));

    let mut cells = Vec::new();
    for (m, n) in [(1usize, 5usize), (1, 8), (2, 9), (2, 13)] {
        if n > max_n {
            continue;
        }
        for k in [1usize, 4, 16] {
            cells.push(Cell { m, n, k });
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
    obs::scrub_timing(&mut total);
    let gate_row = rows.iter().find(|r| r.n == 13 && r.m == 2 && r.k == 16);
    let reuse_k16 = rows
        .iter()
        .filter(|r| r.k == 16)
        .map(Row::reuse_factor)
        .fold(f64::INFINITY, f64::min);

    let headers = [
        "m",
        "n",
        "k",
        "trials",
        "sent",
        "arena_builds",
        "reuse",
        "messages",
        "votes_evaluated",
        "votes_memo_hit",
        "batch_ns",
        "seq_ns",
        "x_seq",
    ];
    let mut report = Report::new("batch_throughput");
    report
        .set_meta("master_seed", master_seed)
        .set_meta("trials_per_cell", trials)
        .set_meta("max_n", max_n)
        .set_meta("timing", timing)
        .set_metric("decision_mismatches", mismatches)
        .set_metric("arena_reuse_k16_x100", (reuse_k16 * 100.0).round() as u64)
        // The acceptance gate: interned path-label materializations,
        // one-at-a-time (K arenas) vs batch (one per distinct sender).
        .set_metric(
            "materialization_advantage_k16_x100",
            (reuse_k16 * 100.0).round() as u64,
        )
        .set_eig_perf(&total);
    if timing {
        if let Some(r) = gate_row {
            report.set_metric(
                "speedup_seq_n13_m2_k16_x100",
                (r.speedup_seq() * 100.0).round() as u64,
            );
        }
    }
    report.set_obs_registry(obs_rec.registry());
    report.add_table(Table::with_rows(
        "arena batch vs sequential run_protocol \
         (per-cell totals; timing columns '-' under --no-timing)",
        &headers,
        rows.iter().map(|r| r.cells(timing)).collect(),
    ));
    report.print_tables();
    if let Some(trace_path) = args.trace_out_path() {
        let mode = if timing {
            TimeMode::Wall
        } else {
            obs::scrub_timing(&mut obs_rec);
            TimeMode::Logical
        };
        match std::fs::write(trace_path, obs::chrome_trace_json(&obs_rec, mode)) {
            Ok(()) => println!("\ntrace: {}", trace_path.display()),
            Err(e) => eprintln!("\ntrace write failed: {e}"),
        }
    }
    let default_out = Path::new("BENCH_batch_throughput.json");
    let out = args.out_path().unwrap_or(default_out);
    match report.write(Some(out)) {
        Ok(path) => println!("\nreport: {}", path.display()),
        Err(e) => eprintln!("\nreport write failed: {e}"),
    }

    // Gates: decisions and the >=2x materialization advantage, both
    // deterministic. Wall time is reported, not gated.
    let reuse_ok = reuse_k16 >= 2.0;
    if mismatches == 0 && reuse_ok {
        match gate_row.map(Row::speedup_seq) {
            Some(s) if timing => println!(
                "\nRESULT: batch and sequential bit-identical, {reuse_k16:.0}x arena reuse \
                 at K=16, {s:.2}x vs sequential at N=13 m=2 K=16"
            ),
            _ => println!(
                "\nRESULT: batch and sequential bit-identical, {reuse_k16:.0}x arena reuse \
                 at K=16 (timing suppressed)"
            ),
        }
    } else {
        println!("\nRESULT: FAIL (mismatches={mismatches}, reuse_k16={reuse_k16:.1})");
        std::process::exit(1);
    }
}
