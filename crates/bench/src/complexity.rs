//! **Experiment P1 (analysis half)** — message and storage complexity of
//! algorithm BYZ versus the baselines, analytically and as measured on the
//! message-passing executor (the counts must coincide exactly).
//!
//! The paper presents BYZ "with no attempt … to present an efficient
//! algorithm"; this table documents what the recursion costs and how the
//! degradable trade-off changes it: for fixed `N`, choosing a smaller `m`
//! (and larger `u`) shrinks the recursion depth and the message count
//! exponentially — the price of full agreement is paid in messages.
//!
//! The per-`(N, m/u)` measurements fan out over [`harness::SweepRunner`]
//! workers (the larger grid points dominate). At N = 13, 4/4 vs 1/10 vs
//! 0/12 differ by orders of magnitude.

use crate::Run;
use degradable::analysis::{message_complexity, storage_complexity, tradeoffs};
use degradable::{run_protocol, ByzInstance, Val};
use harness::report::Table;
use harness::{Report, SweepRunner};
use simnet::NodeId;
use std::collections::BTreeMap;

pub(crate) fn run(workers: usize) -> Run {
    // Per-(N, m) costs, validated against the protocol executor. Each grid
    // point is an independent protocol run, fanned out over workers.
    let grid: Vec<(usize, degradable::Params)> = [4usize, 5, 7, 9, 11, 13]
        .into_iter()
        .flat_map(|n| tradeoffs(n).into_iter().map(move |p| (n, p)))
        .collect();
    let runner = SweepRunner::new(workers);
    let points = runner.map(1, &grid, |_, &(n, params), _rng| {
        let inst = ByzInstance::new(n, params, NodeId::new(0)).expect("maximal u fits");
        let depth = inst.depth();
        let analytic = message_complexity(n, depth);
        let measured = run_protocol(&inst, &Val::Value(1), &BTreeMap::new(), 1)
            .net
            .sent as u128;
        (n, params, depth, analytic, measured)
    });
    let all_match = points
        .iter()
        .all(|&(_, _, _, analytic, measured)| analytic == measured);

    let mut rows = Vec::new();
    for &(n, params, depth, analytic, measured) in &points {
        rows.push(vec![
            n.to_string(),
            params.to_string(),
            depth.to_string(),
            analytic.to_string(),
            measured.to_string(),
            storage_complexity(n, depth).to_string(),
            if analytic == measured {
                "="
            } else {
                "MISMATCH"
            }
            .to_string(),
        ]);
    }

    // Protocol family comparison at fixed tolerance.
    use degradable::analysis::{crusader_message_complexity, sm_honest_message_complexity};
    let mut family_rows = Vec::new();
    for m in 1..=3usize {
        let n_om = 3 * m + 1;
        let n_sm = m + 2;
        family_rows.push(vec![
            m.to_string(),
            format!("OM({m}) @ N={n_om}: {}", message_complexity(n_om, m + 1)),
            format!("Crusader @ N={n_om}: {}", crusader_message_complexity(n_om)),
            format!(
                "SM({m}) @ N={n_sm}: {} (honest)",
                sm_honest_message_complexity(n_sm)
            ),
            format!(
                "BYZ({m},{m}) @ N={}: {}",
                3 * m + 1,
                message_complexity(3 * m + 1, m + 1)
            ),
        ]);
    }

    let mut report = Report::new("complexity");
    report
        .set_metric("analytic_matches_measured", all_match)
        .add_table(Table::with_rows(
            "BYZ cost per (N, m/u): rounds, messages (analytic vs measured), stored paths",
            &[
                "N",
                "params",
                "rounds",
                "messages (analytic)",
                "messages (measured)",
                "paths",
                "check",
            ],
            rows,
        ))
        .add_table(Table::with_rows(
            "protocol family cost at tolerance m (minimum nodes each)",
            &[
                "m",
                "oral (OM)",
                "crusader",
                "signed (SM)",
                "degradable m/m",
            ],
            family_rows,
        ));
    Run::new(report, &[("analytic_matches_measured", all_match)], None)
}
