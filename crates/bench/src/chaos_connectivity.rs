//! **Experiment E13** — empirical certification of the Theorem 3
//! connectivity bound under link-level chaos.
//!
//! Two campaigns, one report (`results/chaos_connectivity.json`; both
//! campaigns' chaos counters also land in the `obs` registry section, and
//! the run's spans are its trace):
//!
//! 1. **Relay sweep** — BYZ over [`sender_cut_topology`] with the cut-set
//!    size swept around `m+u+1` and the full Theorem 3 cut adversary (`u`
//!    faulty cut members corrupting crossing copies and lying as
//!    participants), overlaid with benign link chaos (duplication +
//!    arrival reordering) at increasing intensity. Expected: **zero**
//!    D.1–D.4 violations at connectivity `m+u+1` across every chaos
//!    intensity, and **at least one** at `m+u` — the bound is exact and
//!    chaos-stable.
//! 2. **Engine sweep** — BYZ as a message-passing protocol on the round
//!    engine with uniform [`ChaosConfig`] intensity (loss, duplication,
//!    reordering, corruption). Corruption is detectably garbled and reads
//!    as absence (`V_d`), so no chaos intensity may ever manufacture a
//!    *foreign* value at a fault-free receiver. Per-trial injected-fault
//!    counts are aggregated into the report.

use crate::Run;
use degradable::adversary::Strategy;
use degradable::{
    check_degradable, run_sparse_chaotic, sender_cut_topology, ByzInstance, Params, RelayChaos,
    RelayCorruption, Val,
};
use harness::report::Table;
use harness::{ChaosConfig, ProtocolExecutor, Report, Scenario, SweepRunner};
use obs::Obs;
use simnet::linkfault::Partition;
use simnet::{vertex_connectivity, NodeId};
use std::collections::BTreeMap;

/// One relay-sweep cell: parameters, cut size, and benign chaos level.
#[derive(Debug, Clone, Copy)]
struct RelayCell {
    m: usize,
    u: usize,
    n: usize,
    cut: usize,
    duplicate_p: f64,
    reorder: bool,
}

struct RelayRow {
    cells: Vec<String>,
    at_bound: bool,
    violations: usize,
    chaos_events: usize,
}

fn relay_cell(cell: &RelayCell, trials: usize, mut rng: simnet::SimRng, obs: &mut Obs) -> RelayRow {
    let span = obs.span(
        "chaos.relay_cell",
        vec![("cut", cell.cut as u64), ("n", cell.n as u64)],
    );
    let RelayCell {
        m,
        u,
        n,
        cut,
        duplicate_p,
        reorder,
    } = *cell;
    let params = Params::new(m, u).expect("u >= m");
    let inst = ByzInstance::new(n, params, NodeId::new(0)).expect("n within bounds");
    let topo = sender_cut_topology(n, cut);
    // The topology realizes exactly the claimed connectivity, and the
    // minimum vertex cut found by the Partition helper has that size.
    assert_eq!(vertex_connectivity(topo.graph()), cut);
    let separator = Partition::of(topo.graph()).expect("non-complete graph has a cut");
    assert_eq!(separator.len(), cut);

    // Theorem 3 cut adversary: u faulty cut members lie as participants
    // and corrupt every crossing copy to 9.
    let strategies: BTreeMap<NodeId, Strategy<u64>> = (2..2 + u)
        .map(|i| (NodeId::new(i), Strategy::ConstantLie(Val::Value(9))))
        .collect();
    let faulty: std::collections::BTreeSet<NodeId> = strategies.keys().copied().collect();

    let mut violations = 0usize;
    let mut chaos_events = 0usize;
    for _ in 0..trials {
        let chaos = RelayChaos {
            drop_p: 0.0,
            corrupt_p: 0.0,
            duplicate_p,
            reorder,
            seed: rng.below(u64::MAX),
        };
        let run = run_sparse_chaotic(
            &inst,
            &topo,
            &Val::Value(7),
            &strategies,
            &RelayCorruption::ReplaceWith(Val::Value(9)),
            true,
            &chaos,
        )
        .expect("below-bound runs allowed");
        chaos_events += run.chaos_events;
        let record = run.record(&inst, Val::Value(7), faulty.clone());
        if check_degradable(&record).is_violated() {
            violations += 1;
        }
    }

    obs.finish(span, chaos_events as u64);
    obs.add("chaos.relay_events", chaos_events as u64);
    obs.add("chaos.relay_violations", violations as u64);

    let at_bound = cut > m + u;
    RelayRow {
        cells: vec![
            format!("{m}/{u}"),
            n.to_string(),
            cut.to_string(),
            if at_bound { "m+u+1" } else { "m+u" }.to_string(),
            format!("{duplicate_p:.1}"),
            reorder.to_string(),
            trials.to_string(),
            chaos_events.to_string(),
            violations.to_string(),
        ],
        at_bound,
        violations,
        chaos_events,
    }
}

/// One engine-sweep row: uniform chaos intensity on the complete graph.
#[derive(Debug, Clone, Copy)]
struct EngineCell {
    drop_p: f64,
    corrupt_p: f64,
    duplicate_p: f64,
    reorder_window: usize,
}

struct EngineRow {
    cells: Vec<String>,
    foreign: usize,
    injected: usize,
}

fn engine_cell(
    cell: &EngineCell,
    trials: usize,
    mut rng: simnet::SimRng,
    obs: &mut Obs,
) -> EngineRow {
    let span = obs.span(
        "chaos.engine_cell",
        vec![("reorder_w", cell.reorder_window as u64)],
    );
    let chaos = ChaosConfig {
        drop_p: cell.drop_p,
        duplicate_p: cell.duplicate_p,
        reorder_window: cell.reorder_window,
        corrupt_p: cell.corrupt_p,
    };
    let mut foreign = 0usize;
    let mut injected = 0usize;
    let mut degraded_runs = 0usize;
    for _ in 0..trials {
        let scenario = Scenario::new(7, 1, 2)
            .with_sender_value(Val::Value(7))
            .with_strategy(NodeId::new(3), Strategy::ConstantLie(Val::Value(9)))
            .with_strategy(NodeId::new(5), Strategy::ConstantLie(Val::Value(9)))
            .with_master_seed(rng.below(u64::MAX))
            .with_chaos(chaos);
        let faulty = scenario.faulty();
        let (record, net) = ProtocolExecutor
            .execute_detailed(&scenario)
            .expect("valid scenario");
        injected += net.link_fault_injections();
        let mut saw_default = false;
        for (node, decision) in &record.decisions {
            if faulty.contains(node) {
                continue;
            }
            match decision {
                Val::Value(7) => {}
                Val::Default => saw_default = true,
                // Anything else is a value the chaos layer manufactured:
                // corruption must read as absence, never as a wrong value.
                Val::Value(_) => foreign += 1,
            }
        }
        if saw_default {
            degraded_runs += 1;
        }
    }
    obs.finish(span, injected as u64);
    obs.add("chaos.engine_injected", injected as u64);
    obs.add("chaos.engine_foreign_values", foreign as u64);

    EngineRow {
        cells: vec![
            format!("{:.2}", cell.drop_p),
            format!("{:.2}", cell.corrupt_p),
            format!("{:.2}", cell.duplicate_p),
            cell.reorder_window.to_string(),
            trials.to_string(),
            injected.to_string(),
            degraded_runs.to_string(),
            foreign.to_string(),
        ],
        foreign,
        injected,
    }
}

pub(crate) fn run(workers: usize) -> Run {
    let master_seed: u64 = 0xC4A05;
    let trials = 12;
    let runner = SweepRunner::new(workers);

    // Campaign 1: relay sweep around the bound. Cases use u > m so the
    // below-bound cut attack deterministically tricks the acceptance rule
    // (u = k-m corrupted copies versus only m honest ones).
    let mut relay_cells = Vec::new();
    for &(m, u, n) in &[(1usize, 2usize, 8usize), (1, 3, 8)] {
        for cut in [m + u, m + u + 1] {
            for &(duplicate_p, reorder) in &[(0.0, false), (0.5, true), (1.0, true)] {
                relay_cells.push(RelayCell {
                    m,
                    u,
                    n,
                    cut,
                    duplicate_p,
                    reorder,
                });
            }
        }
    }
    let mut obs_rec = Obs::enabled();
    let relay_rows = runner.map_observed(
        master_seed,
        &relay_cells,
        &mut obs_rec,
        |_, cell, rng, obs| relay_cell(cell, trials, rng, obs),
    );

    // Campaign 2: engine sweep on the complete graph.
    let engine_cells = [
        EngineCell {
            drop_p: 0.0,
            corrupt_p: 0.0,
            duplicate_p: 0.0,
            reorder_window: 0,
        },
        EngineCell {
            drop_p: 0.2,
            corrupt_p: 0.0,
            duplicate_p: 0.0,
            reorder_window: 0,
        },
        EngineCell {
            drop_p: 0.0,
            corrupt_p: 0.2,
            duplicate_p: 0.0,
            reorder_window: 0,
        },
        EngineCell {
            drop_p: 0.0,
            corrupt_p: 0.0,
            duplicate_p: 1.0,
            reorder_window: 2,
        },
        EngineCell {
            drop_p: 0.15,
            corrupt_p: 0.15,
            duplicate_p: 0.3,
            reorder_window: 2,
        },
    ];
    let engine_rows = runner.map_observed(
        master_seed ^ 0xE16,
        &engine_cells,
        &mut obs_rec,
        |_, cell, rng, obs| engine_cell(cell, trials, rng, obs),
    );

    // Aggregate pass/fail.
    let violations_at_bound: usize = relay_rows
        .iter()
        .filter(|r| r.at_bound)
        .map(|r| r.violations)
        .sum();
    let violations_below_bound: usize = relay_rows
        .iter()
        .filter(|r| !r.at_bound)
        .map(|r| r.violations)
        .sum();
    let relay_chaos_events: usize = relay_rows.iter().map(|r| r.chaos_events).sum();
    let foreign_values: usize = engine_rows.iter().map(|r| r.foreign).sum();
    let engine_injected: usize = engine_rows.iter().map(|r| r.injected).sum();

    let relay_headers = [
        "m/u",
        "n",
        "cut",
        "regime",
        "dup_p",
        "reorder",
        "trials",
        "chaos_events",
        "violations",
    ];
    let engine_headers = [
        "drop_p",
        "corrupt_p",
        "dup_p",
        "reorder_w",
        "trials",
        "injected_faults",
        "degraded_runs",
        "foreign_values",
    ];

    let mut report = Report::new("chaos_connectivity");
    report
        .set_meta("master_seed", master_seed)
        .set_meta("trials_per_cell", trials)
        .set_metric("violations_at_bound", violations_at_bound)
        .set_metric("violations_below_bound", violations_below_bound)
        .set_metric("relay_chaos_events", relay_chaos_events)
        .set_metric("foreign_values_total", foreign_values)
        .set_metric("injected_faults_total", engine_injected)
        .add_table(Table::with_rows(
            "relay sweep: cut adversary + benign chaos around the m+u+1 bound",
            &relay_headers,
            relay_rows.iter().map(|r| r.cells.clone()).collect(),
        ))
        .add_table(Table::with_rows(
            "engine sweep: uniform chaos on the complete graph (corruption reads as absence)",
            &engine_headers,
            engine_rows.iter().map(|r| r.cells.clone()).collect(),
        ));
    report.set_obs_registry(obs_rec.registry());
    Run::new(
        report,
        &[
            ("violations_at_bound == 0", violations_at_bound == 0),
            ("violations_below_bound > 0", violations_below_bound > 0),
            ("foreign_values_total == 0", foreign_values == 0),
            ("injected_faults_total > 0", engine_injected > 0),
            ("relay_chaos_events > 0", relay_chaos_events > 0),
        ],
        Some(obs_rec),
    )
}
