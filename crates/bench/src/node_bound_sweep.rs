//! **Experiment E4** — Theorem 2 generalized: sweeping the node count `N`
//! around `2m+u+1` for several `(m, u)` and reporting, per `N`, whether
//! the structured below-bound adversary (u colluding constant liars with a
//! fault-free sender) breaks BYZ. The violation region must end exactly at
//! `N = 2m+u+1`.
//!
//! Runs through [`harness::SweepRunner`] (one worker task per `(m, u)`
//! row).

use crate::Run;
use degradable::adversary::Strategy;
use degradable::{AdversaryRun, ByzInstance, Params, Val};
use harness::report::Table;
use harness::{Report, SweepRunner};
use simnet::NodeId;
use std::collections::BTreeMap;

fn verdict_at(n: usize, m: usize, u: usize) -> &'static str {
    let params = Params::new(m, u).expect("u >= m");
    // Inapplicable below u+2 (need u faulty receivers plus a fault-free
    // one) or below 2m+1 (the recursion's vote thresholds degenerate).
    if n < u + 2 || n < 2 * m + 1 {
        return "·";
    }
    let inst = match ByzInstance::new(n, params, NodeId::new(0)) {
        Ok(i) => i,
        Err(_) => ByzInstance::new_below_bound(n, params, NodeId::new(0)).expect("in range"),
    };
    let strategies: BTreeMap<NodeId, Strategy<u64>> = (n - u..n)
        .map(|i| (NodeId::new(i), Strategy::ConstantLie(Val::Value(2))))
        .collect();
    let verdict = AdversaryRun {
        instance: inst,
        sender_value: Val::Value(1),
        strategies,
    }
    .verdict();
    if verdict.is_violated() {
        "VIOLATED"
    } else {
        "ok"
    }
}

pub(crate) fn run(workers: usize) -> Run {
    let cases = [(1usize, 1usize), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)];
    let max_n = 14usize;

    let headers: Vec<String> = std::iter::once("m/u (N_min)".to_string())
        .chain((3..=max_n).map(|n| n.to_string()))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    // Each (m, u) row is an independent deterministic sweep; the runner
    // fans the rows out over workers and keeps them in case order.
    let runner = SweepRunner::new(workers);
    let per_case = runner.map(0xE4, &cases, |_, &(m, u), _rng| {
        let n_min = 2 * m + u + 1;
        let mut cells = vec![format!("{m}/{u} ({n_min})")];
        let mut exact = true;
        for n in 3..=max_n {
            let v = verdict_at(n, m, u);
            // The bound must be exact: violated at N = n_min - 1 (when the
            // scenario is runnable), ok from n_min on.
            if n >= n_min && v == "VIOLATED" {
                exact = false;
            }
            if n == n_min - 1 && v == "ok" && m >= 1 {
                exact = false;
            }
            cells.push(v.to_string());
        }
        (cells, exact)
    });
    let threshold_exact = per_case.iter().all(|(_, exact)| *exact);
    let rows: Vec<Vec<String>> = per_case.into_iter().map(|(cells, _)| cells).collect();

    let mut report = Report::new("node_bound_sweep");
    report
        .set_metric("threshold_exact", threshold_exact)
        .add_table(Table::with_rows(
            "structured adversary outcome per node count (ok / VIOLATED / · = inapplicable)",
            &header_refs,
            rows,
        ));
    Run::new(report, &[("threshold_exact", threshold_exact)], None)
}
