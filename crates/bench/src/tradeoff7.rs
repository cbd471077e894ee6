//! **Experiment E3** — the Section 2 trade-off: "given a system consisting
//! of 7 nodes, one may achieve 2/2-degradable, 1/4-degradable, or
//! 0/6-degradable agreement".
//!
//! For each configuration the fault count `f` is swept from 0 to 6; every
//! combination of (fault placement sample, strategy battery member,
//! sender value) is run and the applicable guarantee is checked:
//!
//! * `f <= m`: full Byzantine agreement (D.1/D.2);
//! * `m < f <= u`: degraded agreement (D.3/D.4);
//! * `f > u`: no promise (reported as `beyond u`).
//!
//! Each `(config, f)` cell is an independent sweep fanned out over
//! [`harness::SweepRunner`] workers (placements drawn from the cell's
//! derived RNG).
//!
//! Legend: full = D.1/D.2 (Byzantine agreement); degraded = D.3/D.4
//! (classes with `V_d`); degraded* = degraded regime but every sampled
//! adversary still produced full agreement; beyond u = outside the
//! contract, nothing checked.

use crate::Run;
use degradable::adversary::Strategy;
use degradable::analysis::tradeoffs;
use degradable::{AdversaryRun, ByzInstance, Params, Val, Verdict};
use harness::report::Table;
use harness::{Report, SweepRunner};
use simnet::{NodeId, SimRng};
use std::collections::BTreeMap;

const N: usize = 7;
const PLACEMENTS_PER_F: usize = 8;

/// One grid cell: all sampled adversaries for one `(params, f)` pair.
fn cell(params: Params, f: usize, placements: usize, mut rng: SimRng) -> (String, bool) {
    let mut runs = 0usize;
    let mut violations = 0usize;
    let mut degraded_runs = 0usize;
    for placement in 0..placements {
        let faulty = rng.choose_indices(N, f);
        for (_, strat) in Strategy::battery(1, 2, placement as u64) {
            let strategies: BTreeMap<NodeId, Strategy<u64>> = faulty
                .iter()
                .map(|&i| (NodeId::new(i), strat.clone()))
                .collect();
            let instance =
                ByzInstance::new(N, params, NodeId::new(0)).expect("7 nodes fit all three configs");
            let sc = AdversaryRun {
                instance,
                sender_value: Val::Value(1),
                strategies,
            };
            runs += 1;
            match sc.verdict() {
                Verdict::Satisfied(s) => {
                    if matches!(
                        s.condition,
                        degradable::Condition::D3 | degradable::Condition::D4
                    ) {
                        degraded_runs += 1;
                    }
                }
                Verdict::Violated(_) => violations += 1,
                Verdict::BeyondU { .. } => {}
            }
        }
        if f == 0 {
            break; // only one empty placement
        }
    }
    let label = if violations > 0 {
        format!("VIOLATED {violations}/{runs}")
    } else if f <= params.m() {
        "full".to_string()
    } else if f <= params.u() {
        if degraded_runs > 0 {
            "degraded".to_string()
        } else {
            "degraded*".to_string() // conditions held as full agreement
        }
    } else {
        "beyond u".to_string()
    };
    (label, violations == 0)
}

pub(crate) fn run(workers: usize) -> Run {
    let configs = tradeoffs(N);

    let grid: Vec<(Params, usize)> = configs
        .iter()
        .flat_map(|&params| (0..N).map(move |f| (params, f)))
        .collect();
    let runner = SweepRunner::new(workers);
    let labels = runner.map(0xE3, &grid, |_, &(params, f), rng| {
        cell(params, f, PLACEMENTS_PER_F, rng)
    });
    let all_ok = labels.iter().all(|(_, ok)| *ok);

    // Regroup the flat grid into one row per configuration.
    let rows: Vec<Vec<String>> = configs
        .iter()
        .enumerate()
        .map(|(ci, params)| {
            std::iter::once(params.to_string())
                .chain(labels[ci * N..(ci + 1) * N].iter().map(|(l, _)| l.clone()))
                .collect()
        })
        .collect();

    let headers: Vec<String> = std::iter::once("config".to_string())
        .chain((0..N).map(|f| format!("f={f}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut report = Report::new("tradeoff7");
    report
        .set_meta("placements_per_f", PLACEMENTS_PER_F)
        .set_metric("all_ok", all_ok)
        .add_table(Table::with_rows(
            "guarantee achieved per fault count",
            &header_refs,
            rows,
        ));
    Run::new(report, &[("all_ok", all_ok)], None)
}
