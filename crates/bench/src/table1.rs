//! **Experiment T1** — the Section 2 table: minimum number of nodes
//! necessary for `m/u`-degradable agreement, plus empirical certification
//! of the threshold:
//!
//! * at `N = 2m+u` a concrete adversary breaks BYZ (Theorem 2);
//! * at `N = 2m+u+1` the same adversary — and every adversary the search
//!   covers — is harmless (Theorem 1).
//!
//! Certification method per cell: exhaustive enumeration of all
//! deterministic adversaries over the domain `{V_d, α, β}` where feasible,
//! seeded randomized search otherwise (the method column says which).
//! Cells certify independently, so they fan out over
//! [`harness::SweepRunner`] workers.

use crate::Run;
use degradable::analysis::{min_nodes_table, MinNodesCell};
use degradable::lower_bound::{same_adversary_at_bound, violation_below_bound};
use degradable::{ByzInstance, ExhaustiveSearch, Params, RandomizedSearch, Val};
use harness::report::Table;
use harness::{Report, SweepRunner};
use simnet::NodeId;
use std::collections::BTreeSet;

const MAX_M: usize = 3;
const MAX_U: usize = 6;
const RAND_TRIALS: usize = 2_000;
const SEED: u64 = 0xA11CE;

fn certify(m: usize, u: usize, rand_trials: usize, search_seed: u64) -> Vec<String> {
    let params = Params::new(m, u).expect("u >= m");
    let n_min = params.min_nodes();

    let below = violation_below_bound(m, u);
    let at = same_adversary_at_bound(m, u);

    // Search at the bound: exhaustive when the space is small enough,
    // randomized otherwise. Fault set: the u highest-numbered receivers
    // (the structurally worst placement for D.3).
    let sender = NodeId::new(0);
    let inst = ByzInstance::new(n_min, params, sender).expect("at bound");
    let faulty: BTreeSet<NodeId> = (n_min - u..n_min).map(NodeId::new).collect();
    let domain = vec![Val::Default, Val::Value(1), Val::Value(2)];
    let search = ExhaustiveSearch::new(inst, Val::Value(1), faulty, domain.clone());
    let (method, clean) = if search.combination_count() <= 2_000_000 {
        let witness = search.find_violation().expect("budget checked");
        (
            format!("exhaustive ({} combos)", search.combination_count()),
            witness.is_none(),
        )
    } else {
        let rs = RandomizedSearch::new(inst, Val::Value(1), domain)
            .with_trials(rand_trials)
            .with_seed(search_seed);
        let mut clean = true;
        for f in 1..=u {
            if rs.find_violation(f).0.is_some() {
                clean = false;
            }
        }
        (
            format!("randomized ({rand_trials} trials x f=1..{u})"),
            clean,
        )
    };

    vec![
        format!("{m}/{u}"),
        n_min.to_string(),
        if below.is_violated() {
            "violated (as required)"
        } else {
            "UNEXPECTED"
        }
        .to_string(),
        if at.is_satisfied() {
            "clean"
        } else {
            "UNEXPECTED"
        }
        .to_string(),
        if clean {
            "no violation found"
        } else {
            "VIOLATION FOUND"
        }
        .to_string(),
        method,
    ]
}

pub(crate) fn run(workers: usize) -> Run {
    // The paper's table.
    let table = min_nodes_table(MAX_M, MAX_U);
    let headers: Vec<String> = std::iter::once("m \\ u".to_string())
        .chain((1..=MAX_U).map(|u| u.to_string()))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = table
        .iter()
        .enumerate()
        .map(|(mi, row)| {
            std::iter::once(format!("{}", mi + 1))
                .chain(row.iter().map(|c| match c {
                    MinNodesCell::Invalid => "-".to_string(),
                    MinNodesCell::Nodes(n) => n.to_string(),
                }))
                .collect()
        })
        .collect();

    // Empirical certification: one independent unit of work per (m, u)
    // cell, fanned out over workers in cell order.
    let cells: Vec<(usize, usize)> = (1..=MAX_M)
        .flat_map(|m| (m..=MAX_U).map(move |u| (m, u)))
        .collect();
    let runner = SweepRunner::new(workers);
    let cert_rows = runner.map(SEED, &cells, |_, &(m, u), _rng| {
        certify(m, u, RAND_TRIALS, SEED)
    });
    let bad = cert_rows.iter().any(|r| {
        r.iter()
            .any(|c| c.contains("UNEXPECTED") || c.contains("VIOLATION FOUND"))
    });

    let mut report = Report::new("table1");
    report
        .set_meta("rand_trials", RAND_TRIALS)
        .set_meta("search_seed", SEED)
        .add_table(Table::with_rows(
            "minimum nodes 2m+u+1 (\"-\" = invalid u < m)",
            &header_refs,
            rows,
        ))
        .add_table(Table::with_rows(
            "threshold certification",
            &[
                "m/u",
                "N_min",
                "BYZ at N_min-1",
                "structured adversary at N_min",
                "search at N_min",
                "method",
            ],
            cert_rows,
        ))
        .set_metric("threshold_certified", !bad);
    Run::new(report, &[("threshold_certified", !bad)], None)
}
