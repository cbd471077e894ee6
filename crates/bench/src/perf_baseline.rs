//! **Experiment E14** — the arena-backed EIG engine against
//! `reference_eval`: decision equivalence and exact work counters.
//!
//! Sweeps BYZ(m,m) instances over `m ∈ {1, 2}` and `N` from the
//! feasibility floor `3m + 1` up to 16. Every trial
//! draws a random fault set and random battery strategies, runs **both**
//! executors on identical inputs — [`degradable::reference_eval`] (the
//! per-receiver recursive oracle) and the shared `EigEngine` arena —
//! asserts their decisions are bit-identical, and accumulates the
//! engine's deterministic [`EigPerf`] counters.
//!
//! The report (`results/perf_baseline.json`) holds only deterministic
//! counters. The engine's wall time per instance is the ledger's
//! `eig.reference_us_per_instance` / `engine.*` rows (`benchmark/`), not a
//! column here.
//!
//! The run is observed end to end (`bench.cell` spans plus the sweep and
//! engine registries; the registry snapshot lands in the report's `obs`
//! section). `dagree exp E14 --trace-out PATH` writes its spans as a
//! Chrome `trace_event` file; summarize it with `dagree obs PATH`.
//!
//! Acceptance: the engine decides bit-identically to the reference on
//! every trial, and memo-hit counters are nonzero overall.

use crate::Run;
use degradable::adversary::Strategy;
use degradable::{reference_eval, ByzInstance, Params, Val};
use harness::report::Table;
use harness::{Report, SweepRunner};
use obs::Obs;
use simnet::{EigPerf, NodeId, SimRng};
use std::collections::{BTreeMap, BTreeSet};

/// One sweep cell: a BYZ(m,m) instance shape (u = m, sender 0).
#[derive(Debug, Clone, Copy)]
struct Cell {
    m: usize,
    n: usize,
}

/// Per-cell aggregate: counters and the equivalence tally.
struct Row {
    m: usize,
    n: usize,
    trials: usize,
    perf: EigPerf,
    mismatches: usize,
}

impl Row {
    fn cells(&self) -> Vec<String> {
        vec![
            self.m.to_string(),
            self.n.to_string(),
            self.trials.to_string(),
            self.perf.arena_nodes.to_string(),
            self.perf.votes_evaluated.to_string(),
            self.perf.votes_memo_hit.to_string(),
            self.perf.messages_materialized.to_string(),
        ]
    }
}

fn run_cell(cell: &Cell, trials: usize, mut rng: SimRng, obs: &mut Obs) -> Row {
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

        let reference = reference_eval(
            n,
            inst.sender(),
            inst.depth(),
            inst.rule(),
            &sender_value,
            &faulty,
            &mut fabricate,
        );
        let run = inst.run_engine(&engine, &sender_value, &faulty, &mut fabricate);
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
        mismatches,
    }
}

pub(crate) fn run(workers: usize) -> Run {
    let max_n = 16;
    let master_seed: u64 = 0xE14;
    let trials = 24;
    let runner = SweepRunner::new(workers);

    let mut cells = Vec::new();
    for m in [1usize, 2] {
        for n in (3 * m + 1)..=max_n {
            cells.push(Cell { m, n });
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

    let headers = [
        "m",
        "n",
        "trials",
        "arena_nodes",
        "votes_evaluated",
        "votes_memo_hit",
        "messages",
    ];
    let mut report = Report::new("perf_baseline");
    report
        .set_meta("master_seed", master_seed)
        .set_meta("trials_per_cell", trials)
        .set_meta("max_n", max_n)
        .set_metric("decision_mismatches", mismatches)
        .set_eig_perf(&total)
        .set_obs_registry(obs_rec.registry())
        .add_table(Table::with_rows(
            "reference_eval vs arena engine (per-cell totals)",
            &headers,
            rows.iter().map(Row::cells).collect(),
        ));
    Run::new(
        report,
        &[
            ("decision_mismatches == 0", mismatches == 0),
            ("eig_votes_memo_hit > 0", total.votes_memo_hit > 0),
        ],
        Some(obs_rec),
    )
}
