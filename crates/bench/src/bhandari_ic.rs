//! **Experiment E9** — the Bhandari boundary (Section 2 discussion).
//!
//! Bhandari proved that algorithms achieving interactive consistency up to
//! `⌊(N-1)/3⌋` faults cannot degrade gracefully beyond `N/3` faults. The
//! paper stresses this does **not** apply to `m/u`-degradable agreement
//! with `m < ⌊(N-1)/3⌋`. This experiment exhibits both sides on `N = 7`:
//!
//! * classic max-strength IC (OM-based, `m = 2 = ⌊6/3⌋`): at `f = 3 > N/3`
//!   the fault-free vectors disagree arbitrarily — no graceful
//!   degradation, matching Bhandari;
//! * degradable IC with `m = 1 < 2`, `u = 4`: at `f = 3` (and `f = 4`)
//!   the per-slot degraded guarantees still hold — the graceful
//!   degradation Bhandari forbids for max-strength IC is available once
//!   strength is traded down.

use crate::Run;
use degradable::adversary::Strategy;
use degradable::baselines::run_interactive_consistency;
use degradable::ic::{check_degradable_ic, run_degradable_ic};
use degradable::{Params, Val};
use harness::report::Table;
use harness::Report;
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};

const N: usize = 7;

fn values() -> Vec<Val> {
    (0..N).map(|i| Val::Value(100 + i as u64)).collect()
}

fn classic_ic_consistent(f: usize) -> bool {
    // OM-based IC at maximal strength m = 2. Faulty nodes lie with a
    // receiver-dependent value (the standard splitter).
    let faulty: BTreeSet<NodeId> = (N - f..N).map(NodeId::new).collect();
    let mut fab = |_s: NodeId, p: &degradable::Path, r: NodeId, _t: &Val| {
        Val::Value((p.len() * 31 + r.index() * 7) as u64 % 5)
    };
    let vecs = run_interactive_consistency(N, 2, &values(), &faulty, &mut fab);
    // IC requires: all fault-free nodes agree on every slot (for the
    // non-self slots) and fault-free slots carry true values.
    let holders: Vec<NodeId> = NodeId::all(N).filter(|r| !faulty.contains(r)).collect();
    #[allow(clippy::needless_range_loop)]
    for slot in 0..N {
        let mut seen = BTreeSet::new();
        for &h in &holders {
            if h.index() != slot {
                seen.insert(vecs[&h][slot]);
            }
        }
        if seen.len() > 1 {
            return false;
        }
        let sender = NodeId::new(slot);
        if !faulty.contains(&sender) {
            for &h in &holders {
                if vecs[&h][slot] != values()[slot] {
                    return false;
                }
            }
        }
    }
    true
}

fn degradable_ic_holds(f: usize) -> bool {
    let params = Params::new(1, 4).expect("1 <= 4");
    let strategies: BTreeMap<NodeId, Strategy<u64>> = (N - f..N)
        .map(|i| {
            (
                NodeId::new(i),
                Strategy::TwoFaced {
                    even: Val::Value(1),
                    odd: Val::Value(2),
                },
            )
        })
        .collect();
    let out = run_degradable_ic(params, &values(), &strategies);
    check_degradable_ic(&out).is_none()
}

pub(crate) fn run(_workers: usize) -> Run {
    let mut rows = Vec::new();
    let mut story_holds = true;
    for f in 0..=4usize {
        let classic = classic_ic_consistent(f);
        let degr = degradable_ic_holds(f);
        // expectations
        let classic_expected = f <= 2;
        if classic != classic_expected && f != 3 && f != 4 {
            story_holds = false;
        }
        if !degr {
            story_holds = false; // degradable guarantee must hold through u = 4
        }
        rows.push(vec![
            f.to_string(),
            format!(
                "{}{}",
                if classic {
                    "consistent"
                } else {
                    "INCONSISTENT"
                },
                if f > 2 { " (no promise)" } else { "" }
            ),
            if degr {
                "degraded guarantee holds"
            } else {
                "VIOLATED"
            }
            .to_string(),
        ]);
    }
    let mut report = Report::new("bhandari_ic");
    report
        .set_metric("story_holds", story_holds)
        .add_table(Table::with_rows(
            "per fault count: classic IC (m=2, OM) vs degradable IC (m=1, u=4)",
            &["f", "classic IC (max strength)", "degradable IC (1/4)"],
            rows,
        ));
    Run::new(report, &[("story_holds", story_holds)], None)
}
