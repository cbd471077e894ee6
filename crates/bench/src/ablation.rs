//! **Experiment A1 (ablation)** — why algorithm BYZ is built the way it
//! is. Two knobs distinguish BYZ from Lamport's OM on the same EIG
//! message pattern:
//!
//! 1. the fold: `VOTE(n'-1-m, n'-1)` **threshold** vote instead of strict
//!    majority;
//! 2. the depth: `m+1` rounds.
//!
//! Ablating either destroys the degraded guarantee:
//!
//! * with the *majority* fold (i.e. plain OM) at `N = 2m+u+1`, adversaries
//!   with `m < f <= u` make fault-free receivers adopt a **foreign value**
//!   (D.3 violated) — majority is too eager; the higher threshold is what
//!   forces "sender's value or `V_d`";
//! * with depth `m` (one round short), `f <= m` already breaks D.1/D.2 —
//!   the recursion depth is exactly the classic requirement.
//!
//! The un-ablated configuration passes the identical sweeps (control
//! rows). Each `(m, u)` case runs its control and ablated sweeps on a
//! [`harness::SweepRunner`] worker.
//!
//! For `u <= 2m` the battery finds no majority-fold break at these sizes:
//! a wrong value then needs more votes than `u` faults can supply; the
//! threshold vote is what extends the guarantee to every `u >= m`.

use crate::Run;
use degradable::adversary::Strategy;
use degradable::conditions::{check_degradable, RunRecord};
use degradable::eig::{run_eig, VoteRule};
use degradable::{Params, Val};
use harness::report::Table;
use harness::{Report, SweepRunner};
use simnet::{NodeId, SimRng};
use std::collections::{BTreeMap, BTreeSet};

/// Runs the EIG pattern with an explicit rule/depth and checks the
/// degradable conditions. Placements come from `rng`, forked per fault
/// count.
fn sweep(
    params: Params,
    rule: VoteRule,
    depth: usize,
    f_range: std::ops::RangeInclusive<usize>,
    placements: usize,
    rng: &SimRng,
) -> (usize, usize) {
    let n = params.min_nodes();
    let mut runs = 0usize;
    let mut violations = 0usize;
    for f in f_range {
        let mut rng = rng.fork(f as u64);
        for placement in 0..placements {
            let faulty: BTreeSet<NodeId> = rng
                .choose_indices(n, f)
                .into_iter()
                .map(NodeId::new)
                .collect();
            for (_, strat) in Strategy::battery(1, 2, placement as u64) {
                let strategies: BTreeMap<NodeId, Strategy<u64>> =
                    faulty.iter().map(|&i| (i, strat.clone())).collect();
                let mut fab = |p: &degradable::Path, r: NodeId, t: &Val| {
                    strategies.get(&p.last()).expect("faulty").claim(p, r, t)
                };
                let decisions = run_eig(
                    n,
                    NodeId::new(0),
                    depth,
                    rule,
                    &Val::Value(1),
                    &faulty,
                    &mut fab,
                );
                let record = RunRecord {
                    params,
                    n,
                    sender: NodeId::new(0),
                    sender_value: Val::Value(1),
                    faulty: faulty.clone(),
                    decisions,
                };
                runs += 1;
                if check_degradable(&record).is_violated() {
                    violations += 1;
                }
            }
            if f == 0 {
                break;
            }
        }
    }
    (violations, runs)
}

pub(crate) fn run(workers: usize) -> Run {
    let placements = 10;
    let runner = SweepRunner::new(workers);
    let seed = 0xAB1;

    // Ablation 1: majority fold (i.e. plain OM's rule). A wrong value can
    // carry a majority of the u faulty votes plus nothing else only when
    // u > (N-1)/2 = (2m+u)/2, i.e. u > 2m — test exactly there, with the
    // un-ablated control alongside.
    let fold_cases = [(1usize, 3usize), (1, 4), (2, 5)];
    let fold_rows = runner.map(seed, &fold_cases, |_, &(m, u), rng| {
        let params = Params::new(m, u).expect("u >= m");
        let depth = params.rounds();
        let ctrl = sweep(
            params,
            VoteRule::Degradable { m },
            depth,
            m + 1..=u,
            placements,
            &rng,
        );
        let major = sweep(
            params,
            VoteRule::Majority,
            depth,
            m + 1..=u,
            placements,
            &rng,
        );
        (params.to_string(), ctrl, major)
    });
    let mut ablation_story = fold_rows
        .iter()
        .all(|(_, (v_ctrl, _), (v_major, _))| *v_ctrl == 0 && *v_major > 0);

    // Ablation 2: one round short (depth m instead of m+1) breaks even the
    // classic regime f <= m.
    let depth_cases = [(1usize, 2usize), (1, 3), (2, 3)];
    let depth_rows = runner.map(seed ^ 0xD, &depth_cases, |_, &(m, u), rng| {
        let params = Params::new(m, u).expect("u >= m");
        let depth = params.rounds();
        let ctrl = sweep(
            params,
            VoteRule::Degradable { m },
            depth,
            0..=m,
            placements,
            &rng,
        );
        let shallow = sweep(
            params,
            VoteRule::Degradable { m },
            depth - 1,
            0..=m,
            placements,
            &rng,
        );
        (params.to_string(), ctrl, shallow)
    });
    ablation_story &= depth_rows
        .iter()
        .all(|(_, (v_ctrl, _), (v_shallow, _))| *v_ctrl == 0 && *v_shallow > 0);

    // (params label, control (violations, runs), ablated (violations, runs))
    type AblationRow = (String, (usize, usize), (usize, usize));
    let as_cells = |rows: &[AblationRow]| -> Vec<Vec<String>> {
        rows.iter()
            .map(|(p, (vc, rc), (va, ra))| {
                vec![p.clone(), format!("{vc}/{rc}"), format!("{va}/{ra}")]
            })
            .collect()
    };
    let mut report = Report::new("ablation");
    report
        .set_meta("placements_per_f", placements)
        .set_meta("seed", seed)
        .set_metric("ablation_story_holds", ablation_story)
        .add_table(Table::with_rows(
            "ablation 1 — fold rule, degraded regime (m < f <= u), u > 2m",
            &["params", "BYZ threshold vote (control)", "majority fold"],
            as_cells(&fold_rows),
        ))
        .add_table(Table::with_rows(
            "ablation 2 — recursion depth, classic regime (f <= m)",
            &["params", "depth m+1 (control)", "depth m"],
            as_cells(&depth_rows),
        ));
    Run::new(report, &[("ablation_story_holds", ablation_story)], None)
}
