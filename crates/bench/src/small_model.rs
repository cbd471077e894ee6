//! **Experiment E10** — small-model certification of Theorem 1.
//!
//! For the smallest interesting instances, *every* quantifier of the
//! theorem is closed by enumeration: every sender position, every fault
//! set of size up to `u`, and every deterministic adversary over the
//! domain `{V_d, α, β}` (sufficient by value-symmetry — BYZ only compares
//! values for equality). A run of this experiment is a machine-checked proof
//! of Theorem 1 for these instances, and the matching below-bound
//! enumeration exhibits Theorem 2's violations the same way.

use crate::Run;
use degradable::{certify, ExhaustiveSearch, Params, Val};
use harness::report::Table;
use harness::Report;
use simnet::NodeId;
use std::collections::BTreeSet;

pub(crate) fn run(_workers: usize) -> Run {
    let mut report = Report::new("small_model");
    let mut rows = Vec::new();
    let mut all_ok = true;

    for (m, u) in [(1usize, 1usize), (1, 2)] {
        let params = Params::new(m, u).expect("u >= m");
        let n = params.min_nodes();
        let cert = certify(params, n, 50_000_000).expect("within budget");
        all_ok &= cert.certified();
        rows.push(vec![
            format!("{params} @ N={n}"),
            cert.configurations.to_string(),
            cert.adversaries.to_string(),
            if cert.certified() {
                "CERTIFIED".to_string()
            } else {
                format!(
                    "VIOLATION: {:?}",
                    cert.violation.as_ref().map(|w| &w.violation)
                )
            },
        ]);
    }
    report.add_table(Table::with_rows(
        "Theorem 1, machine-checked for small instances",
        &["instance", "configurations", "adversary tables", "outcome"],
        rows,
    ));

    // The matching Theorem 2 side: at N-1 a violating adversary exists,
    // found by the same enumeration.
    let mut rows = Vec::new();
    for (m, u) in [(1usize, 1usize), (1, 2)] {
        let params = Params::new(m, u).expect("u >= m");
        let n = params.min_nodes() - 1;
        let inst =
            degradable::ByzInstance::new_below_bound(n, params, NodeId::new(0)).expect("in range");
        let faulty: BTreeSet<NodeId> = (n - u..n).map(NodeId::new).collect();
        let search = ExhaustiveSearch::new(
            inst,
            Val::Value(1),
            faulty,
            vec![Val::Default, Val::Value(1), Val::Value(2)],
        );
        let witness = search.find_violation().expect("small space");
        all_ok &= witness.is_some();
        rows.push(vec![
            format!("{params} @ N={n}"),
            search.combination_count().to_string(),
            match witness {
                Some(w) => format!("violation found: {}", w.violation),
                None => "UNEXPECTEDLY clean".to_string(),
            },
        ]);
    }
    report
        .add_table(Table::with_rows(
            "Theorem 2, witnessed one node below the bound",
            &["instance", "adversary tables", "outcome"],
            rows,
        ))
        .set_metric("certified_and_witnessed", all_ok);
    Run::new(report, &[("certified_and_witnessed", all_ok)], None)
}
