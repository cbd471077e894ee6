//! **Experiment E5** — Theorem 3: network connectivity `m+u+1` is
//! necessary and sufficient for `m/u`-degradable agreement.
//!
//! * **Sufficiency**: BYZ composed with disjoint-path degradable relays on
//!   topologies of connectivity exactly `m+u+1` (Harary graphs and the
//!   sender-cut construction) satisfies D.1–D.4 under the adversary
//!   battery.
//! * **Necessity**: at connectivity `m+u`, the proof's cut adversary
//!   (faults `F_2 ⊂ F`, `|F_2| = u`, corrupting crossing copies) makes a
//!   fault-free receiver accept a wrong value — D.3 violated.

use crate::Run;
use degradable::adversary::Strategy;
use degradable::sparse::{run_sparse, sender_cut_topology, RelayCorruption};
use degradable::{check_degradable, ByzInstance, Params, Val};
use harness::report::Table;
use harness::Report;
use simnet::{vertex_connectivity, NodeId, Topology};
use std::collections::BTreeMap;

pub(crate) fn run(_workers: usize) -> Run {
    let mut rows = Vec::new();
    let mut all_ok = true;

    for (m, u, n) in [(1usize, 1usize, 8usize), (1, 2, 8), (1, 3, 10), (2, 2, 10)] {
        let params = Params::new(m, u).expect("u >= m");
        let kappa_req = params.min_connectivity();
        let inst = ByzInstance::new(n, params, NodeId::new(0)).expect("enough nodes");

        // --- Sufficiency on Harary graphs at exactly m+u+1 ---
        let topo = Topology::harary(kappa_req, n);
        let kappa = vertex_connectivity(topo.graph());
        let mut suff_ok = true;
        for fcase in 1..=u {
            let strategies: BTreeMap<NodeId, Strategy<u64>> = (1..=fcase)
                .map(|i| (NodeId::new(n - i), Strategy::ConstantLie(Val::Value(9))))
                .collect();
            let faulty = strategies.keys().copied().collect();
            let run = run_sparse(
                &inst,
                &topo,
                &Val::Value(7),
                &strategies,
                &RelayCorruption::ReplaceWith(Val::Value(9)),
                false,
            )
            .expect("connectivity satisfied");
            let verdict = check_degradable(&run.record(&inst, Val::Value(7), faulty));
            if !verdict.is_satisfied() {
                suff_ok = false;
            }
        }
        rows.push(vec![
            format!("{m}/{u}"),
            topo.name().to_string(),
            format!("{kappa} (= m+u+1 = {kappa_req})"),
            "battery f=1..u".into(),
            if suff_ok {
                "all conditions hold".into()
            } else {
                "VIOLATION".to_string()
            },
        ]);
        all_ok &= suff_ok;

        // --- Necessity on the sender-cut topology at m+u ---
        let below = sender_cut_topology(n, kappa_req - 1);
        let kappa_below = vertex_connectivity(below.graph());
        let f2: BTreeMap<NodeId, Strategy<u64>> = (1..=u)
            .map(|i| (NodeId::new(i), Strategy::ConstantLie(Val::Value(9))))
            .collect();
        let faulty = f2.keys().copied().collect();
        let run = run_sparse(
            &inst,
            &below,
            &Val::Value(7),
            &f2,
            &RelayCorruption::ReplaceWith(Val::Value(9)),
            true,
        )
        .expect("below-bound run allowed");
        let verdict = check_degradable(&run.record(&inst, Val::Value(7), faulty));
        let necessity_shown = verdict.is_violated();
        rows.push(vec![
            format!("{m}/{u}"),
            below.name().to_string(),
            format!("{kappa_below} (= m+u = {})", kappa_req - 1),
            format!("cut adversary F_2 (|F_2| = {u})"),
            if necessity_shown {
                "VIOLATED (as the theorem requires)".into()
            } else {
                "UNEXPECTEDLY satisfied".to_string()
            },
        ]);
        all_ok &= necessity_shown;
    }

    let mut report = Report::new("connectivity");
    report
        .set_metric("bound_exact", all_ok)
        .add_table(Table::with_rows(
            "degradable agreement over sparse topologies",
            &["params", "topology", "connectivity", "adversary", "outcome"],
            rows,
        ));
    Run::new(report, &[("bound_exact", all_ok)], None)
}
