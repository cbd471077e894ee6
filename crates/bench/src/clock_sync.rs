//! **Experiment E6** — Section 6: clock synchronization.
//!
//! Three parts:
//!
//! 1. the classical interactive-convergence baseline and its `n/3`
//!    breaking point (references \[3, 5\] of the paper);
//! 2. **degradable clock synchronization** (Section 6.1): the candidate
//!    protocol built on degradable agreement, swept over fault counts and
//!    the adversary battery — reporting how often conditions 1 and 2 of
//!    the paper's problem statement held (the paper only conjectures
//!    achievability);
//! 3. the Section 6.2 hardware alternative: decoupled clock-fault budgets
//!    and witness clocks.

use crate::Run;
use clocksync::prelude::*;
use degradable::adversary::Strategy;
use degradable::Params;
use harness::report::{pct, Table};
use harness::Report;
use simnet::{NodeId, SimRng};
use std::collections::BTreeMap;

pub(crate) fn run(_workers: usize) -> Run {
    let mut report = Report::new("clock_sync");

    // Part 1: interactive convergence baseline.
    let mut rows = Vec::new();
    let cfg = ConvergenceConfig::default();
    for (n, faulty) in [
        (4usize, vec![]),
        (4, vec![3]),
        (3, vec![2]),
        (7, vec![5, 6]),
    ] {
        let clocks: Vec<Clock> = if n == 3 && faulty == vec![2] {
            // the targeted two-faced clock that defeats n = 3
            vec![
                Clock::healthy(-900, 0),
                Clock::healthy(900, 0),
                Clock::faulty(
                    0,
                    0,
                    ClockFault::PerObserver {
                        deltas: [-2_800, 2_800, 0, 0, 0, 0, 0, 0],
                    },
                ),
            ]
        } else {
            ensemble(n, 1_000, 10, &faulty, 17)
        };
        let healthy: Vec<bool> = (0..n).map(|i| !faulty.contains(&i)).collect();
        let out = run_convergence(&clocks, &healthy, cfg);
        rows.push(vec![
            n.to_string(),
            faulty.len().to_string(),
            format!(
                "{}",
                if 3 * faulty.len() < n {
                    "f < n/3"
                } else {
                    "f >= n/3"
                }
            ),
            out.skew_per_round
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    report.add_table(Table::with_rows(
        "interactive convergence: fault-free skew per round (microticks)",
        &["n", "f", "regime", "skew trajectory"],
        rows,
    ));

    // Part 2: degradable clock synchronization.
    let mut rows = Vec::new();
    let mut conjecture_held = true;
    for (m, u, n) in [(1usize, 2usize, 5usize), (1, 4, 7), (2, 2, 7)] {
        let params = Params::new(m, u).expect("u >= m");
        let config = SyncConfig {
            params,
            sync_tolerance: 10,
            real_time_tolerance: 2_000,
        };
        for f in 0..=u {
            let mut checked = 0usize;
            let mut held = 0usize;
            let mut detections = 0usize;
            let mut rng = SimRng::seed(0xC10C + f as u64);
            for trial in 0..12usize {
                let faulty_idx = rng.choose_indices(n, f);
                for (_, strat) in Strategy::battery(10_000_000, 10_050_000, trial as u64) {
                    let clocks = ensemble(n, 1_000, 0, &faulty_idx, 31 + trial as u64);
                    let strategies: BTreeMap<NodeId, Strategy<u64>> = faulty_idx
                        .iter()
                        .map(|&i| (NodeId::new(i), strat.clone()))
                        .collect();
                    let out = run_degradable_sync(&clocks, &strategies, config, 10_000_000);
                    checked += 1;
                    let ok = match (out.condition1, out.condition2) {
                        (Some(c1), _) => c1,
                        (_, Some(c2)) => c2,
                        _ => true,
                    };
                    if ok {
                        held += 1;
                    }
                    if !out.detectors.is_empty() {
                        detections += 1;
                    }
                }
                if f == 0 {
                    break;
                }
            }
            if held != checked {
                conjecture_held = false;
            }
            rows.push(vec![
                format!("{m}/{u} (n={n})"),
                f.to_string(),
                if f <= m { "condition 1" } else { "condition 2" }.to_string(),
                format!("{held}/{checked}"),
                pct(detections as f64 / checked as f64),
            ]);
        }
    }
    report.add_table(Table::with_rows(
        "degradable clock sync: paper conditions held per fault count",
        &["params", "f", "applicable", "held", "runs w/ detection"],
        rows,
    ));

    // Part 2b: periodic resynchronization under drift.
    let mut rows = Vec::new();
    for (label, faulty, strat) in [
        ("no faults", vec![], None),
        (
            "1 liar (f<=m)",
            vec![4usize],
            Some(Strategy::ConstantLie(degradable::Val::Value(77))),
        ),
        ("2 silent (m<f<=u)", vec![3, 4], Some(Strategy::Silent)),
    ] {
        let clocks = ensemble(5, 1_000, 100, &faulty, 23);
        let strategies: BTreeMap<NodeId, Strategy<u64>> = match &strat {
            None => BTreeMap::new(),
            Some(s) => faulty
                .iter()
                .map(|&i| (NodeId::new(i), s.clone()))
                .collect(),
        };
        let out = run_periodic_sync(
            &clocks,
            &strategies,
            PeriodicConfig {
                sync: SyncConfig {
                    params: Params::new(1, 2).expect("1 <= 2"),
                    sync_tolerance: 10,
                    real_time_tolerance: 2_000,
                },
                period: 1_000_000,
                rounds: 8,
            },
        );
        rows.push(vec![
            label.to_string(),
            out.skew_per_round
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(" "),
            out.failed_rounds.len().to_string(),
        ]);
        conjecture_held &= out.failed_rounds.is_empty();
    }
    report.add_table(Table::with_rows(
        "periodic degradable sync under ±100ppm drift (1/2, n=5): skew after each resync",
        &[
            "scenario",
            "skew per round (microticks)",
            "condition failures",
        ],
        rows,
    ));

    // Part 3: hardware clocks and witnesses (Section 6.2).
    let mut rows = Vec::new();
    for (n, witnesses, clock_faults) in [(5usize, 0usize, 1usize), (5, 0, 2), (5, 2, 2)] {
        let total = n + witnesses;
        let faulty_idx: Vec<usize> = (0..clock_faults).collect();
        let flags: Vec<bool> = (0..total).map(|i| faulty_idx.contains(&i)).collect();
        let e = HardwareEnsemble::new(
            ensemble(n, 500, 0, &faulty_idx, 41),
            ensemble(witnesses, 500, 0, &[], 43),
            flags,
        );
        let viable = e.clock_plane_viable();
        let skew = if viable {
            e.synchronize(ConvergenceConfig::default())
                .final_skew()
                .to_string()
        } else {
            "-".to_string()
        };
        rows.push(vec![
            n.to_string(),
            witnesses.to_string(),
            clock_faults.to_string(),
            e.tolerable_clock_faults().to_string(),
            viable.to_string(),
            skew,
        ]);
    }
    report.add_table(Table::with_rows(
        "hardware clock plane (Section 6.2): witnesses raise the clock-fault budget",
        &[
            "processors",
            "witness clocks",
            "clock faults",
            "tolerable",
            "viable",
            "final skew",
        ],
        rows,
    ));
    // The paper only conjectures achievability: this records whether the
    // candidate protocol met the conditions in every sampled scenario.
    report.set_metric("conjecture_held", conjecture_held);
    Run::new(report, &[("conjecture_held", conjecture_held)], None)
}
