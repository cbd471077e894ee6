//! **Experiment E7** — the Section 2 corollary: with `N > 2m+u`, for any
//! `f <= u` at least `m+1` fault-free nodes (sender included) agree on an
//! identical value.
//!
//! Sweeps fault counts, placements and the adversary battery at
//! `N = 2m+u+1` and reports the *minimum observed* size of the largest
//! agreeing fault-free class — which must never drop below `m+1`.
//!
//! Each `(m, u)` pair sweeps independently on a [`harness::SweepRunner`]
//! worker (placements from the pair's derived RNG, forked per fault
//! count).

use crate::Run;
use degradable::adversary::Strategy;
use degradable::{largest_fault_free_class, AdversaryRun, ByzInstance, Params, Val};
use harness::report::Table;
use harness::{Report, SweepRunner};
use simnet::{NodeId, SimRng};
use std::collections::BTreeMap;

fn sweep_pair(m: usize, u: usize, placements: usize, rng: SimRng) -> Vec<String> {
    let params = Params::new(m, u).expect("u >= m");
    let n = params.min_nodes();
    let instance = ByzInstance::new(n, params, NodeId::new(0)).expect("at bound");
    let mut min_class = usize::MAX;
    let mut runs = 0usize;
    for f in 0..=u {
        let mut rng = rng.fork(f as u64);
        for placement in 0..placements {
            let faulty = rng.choose_indices(n, f);
            for (_, strat) in Strategy::battery(1, 2, placement as u64) {
                let strategies: BTreeMap<NodeId, Strategy<u64>> = faulty
                    .iter()
                    .map(|&i| (NodeId::new(i), strat.clone()))
                    .collect();
                let record = AdversaryRun {
                    instance,
                    sender_value: Val::Value(1),
                    strategies,
                }
                .run();
                min_class = min_class.min(largest_fault_free_class(&record));
                runs += 1;
            }
            if f == 0 {
                break;
            }
        }
    }
    let ok = min_class > m;
    vec![
        format!("{m}/{u}"),
        n.to_string(),
        runs.to_string(),
        (m + 1).to_string(),
        min_class.to_string(),
        if ok { "holds" } else { "VIOLATED" }.to_string(),
    ]
}

pub(crate) fn run(workers: usize) -> Run {
    let placements = 10;
    let pairs = [(1usize, 1usize), (1, 2), (1, 4), (2, 2), (2, 3), (0, 6)];
    let runner = SweepRunner::new(workers);
    let rows = runner.map(0xE7, &pairs, |_, &(m, u), rng| {
        sweep_pair(m, u, placements, rng)
    });
    let all_ok = rows.iter().all(|r| r.last().is_some_and(|s| s == "holds"));

    let mut report = Report::new("m_plus_one");
    report
        .set_meta("placements_per_f", placements)
        .set_metric("all_ok", all_ok)
        .add_table(Table::with_rows(
            "minimum observed agreeing fault-free class over all sweeps (f <= u)",
            &[
                "params",
                "N",
                "runs",
                "required (m+1)",
                "min observed",
                "status",
            ],
            rows,
        ));
    Run::new(report, &[("all_ok", all_ok)], None)
}
