//! **Experiment E10** — small-model certification of Theorem 1.
//!
//! For the smallest interesting instances, *every* quantifier of the
//! theorem is closed by enumeration: every sender position, every fault
//! set of size up to `u`, and every deterministic adversary over the
//! domain `{V_d, α, β}` (sufficient by value-symmetry — BYZ only compares
//! values for equality). A run of this binary is a machine-checked proof
//! of Theorem 1 for these instances, and the matching below-bound
//! enumeration exhibits Theorem 2's violations the same way.

use agreement_bench::print_table;
use degradable::{certify, ExhaustiveSearch, Params, Val};
use simnet::NodeId;
use std::collections::BTreeSet;

fn main() {
    println!("E10: small-model certification (all senders x all fault sets x all adversaries)");
    let mut rows = Vec::new();
    let mut all_ok = true;

    for (m, u) in [(1usize, 1usize), (1, 2)] {
        let params = Params::new(m, u).expect("u >= m");
        let n = params.min_nodes();
        let report = certify(params, n, 50_000_000).expect("within budget");
        all_ok &= report.certified();
        rows.push(vec![
            format!("{params} @ N={n}"),
            report.configurations.to_string(),
            report.adversaries.to_string(),
            if report.certified() {
                "CERTIFIED".to_string()
            } else {
                format!(
                    "VIOLATION: {:?}",
                    report.violation.as_ref().map(|w| &w.violation)
                )
            },
        ]);
    }
    print_table(
        "Theorem 1, machine-checked for small instances",
        &["instance", "configurations", "adversary tables", "outcome"],
        &rows,
    );

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
    print_table(
        "Theorem 2, witnessed one node below the bound",
        &["instance", "adversary tables", "outcome"],
        &rows,
    );

    if all_ok {
        println!("\nRESULT: Theorem 1 certified and Theorem 2 witnessed on the small models");
    } else {
        println!("\nRESULT: MISMATCH");
        std::process::exit(1);
    }
}
