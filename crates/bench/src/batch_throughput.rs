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
//! pure transport fusion). The report (`results/batch_throughput.json`)
//! holds only deterministic counters.
//!
//! Acceptance: zero decision mismatches between the two, and
//! the batch's sent count must equal the sequential sum (transport
//! fusion changes nothing semantically). The **≥ 2× gate** is on
//! materialization: per trial, one-at-a-time execution materializes K
//! arenas of interned path labels where the single-sender batch
//! materializes exactly one, so at K = 16 the advantage is 16×
//! (`arena_reuse_k16_x100`). The batch's wall-time advantage is the
//! ledger's `service.batch_speedup` row (`benchmark/`).

use crate::Run;
use degradable::adversary::Strategy;
use degradable::{run_batch, run_protocol, BatchInstance, BatchOptions, ByzInstance, Params, Val};
use harness::report::Table;
use harness::{Report, SweepRunner};
use obs::Obs;
use simnet::{EigPerf, NodeId, SimRng};
use std::collections::BTreeMap;

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

    fn cells(&self) -> Vec<String> {
        vec![
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
        ]
    }
}

fn run_cell(cell: &Cell, trials: usize, mut rng: SimRng, obs: &mut Obs) -> Row {
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

        let opts = BatchOptions::new();
        let batch = run_batch(params, n, &instances, &strategies, seed, opts)
            .expect("n >= 3m + 1, sender 0");
        let single = ByzInstance::new(n, params, sender).expect("n >= 3m + 1");
        let mut seq_sent = 0usize;
        for (slot, inst) in instances.iter().enumerate() {
            let solo = run_protocol(&single, &inst.value, &strategies, seed);
            seq_sent += solo.net.sent;
            if solo.decisions != batch.decisions[slot] {
                mismatches += 1;
            }
        }
        if batch.net.sent != seq_sent {
            mismatches += 1; // transport fusion must not change traffic
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
        mismatches,
    }
}

pub(crate) fn run(workers: usize) -> Run {
    let max_n = 13usize;
    let master_seed: u64 = 0xE16;
    let trials = 8;
    let runner = SweepRunner::new(workers);

    let mut cells = Vec::new();
    for (m, n) in [(1usize, 5usize), (1, 8), (2, 9), (2, 13)] {
        for k in [1usize, 4, 16] {
            cells.push(Cell { m, n, k });
        }
    }
    let mut obs_rec = Obs::enabled();
    let rows = runner.map_observed(master_seed, &cells, &mut obs_rec, |_, cell, rng, obs| {
        run_cell(cell, trials, rng, obs)
    });

    let mut total = EigPerf::default();
    let mut mismatches = 0usize;
    for row in &rows {
        total.absorb(&row.perf);
        mismatches += row.mismatches;
    }
    let reuse_k16 = rows
        .iter()
        .filter(|r| r.k == 16)
        .map(Row::reuse_factor)
        .fold(f64::INFINITY, f64::min);
    let reuse_k16_x100 = (reuse_k16 * 100.0).round() as u64;

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
    ];
    let mut report = Report::new("batch_throughput");
    report
        .set_meta("master_seed", master_seed)
        .set_meta("trials_per_cell", trials)
        .set_meta("max_n", max_n)
        .set_metric("decision_mismatches", mismatches)
        .set_metric("arena_reuse_k16_x100", reuse_k16_x100)
        // The acceptance gate: interned path-label materializations,
        // one-at-a-time (K arenas) vs batch (one per distinct sender).
        .set_metric("materialization_advantage_k16_x100", reuse_k16_x100)
        .set_eig_perf(&total)
        .set_obs_registry(obs_rec.registry())
        .add_table(Table::with_rows(
            "arena batch vs sequential run_protocol (per-cell totals)",
            &headers,
            rows.iter().map(Row::cells).collect(),
        ));
    Run::new(
        report,
        &[
            ("decision_mismatches == 0", mismatches == 0),
            // One arena per distinct sender: exactly 16x at K = 16, which
            // is past the >= 2x gate.
            (
                "materialization_advantage_k16_x100 == 1600",
                reuse_k16_x100 == 1600,
            ),
        ],
        Some(obs_rec),
    )
}
