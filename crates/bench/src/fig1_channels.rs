//! **Experiment F1** — Figure 1: the 3-channel 2-of-3 Byzantine system
//! (a) versus the 4-channel 3-of-4 degradable system (b), under every
//! fault placement and a diverse strategy battery, for `f = 0, 1, 2`
//! faulty channels (fault-free sender, per conditions B.1 / C.1 / C.2).
//!
//! Reported per (architecture, f): the distribution of external-entity
//! outcomes and whether the applicable paper condition held in every run.

use crate::Run;
use channels::prelude::*;
use degradable::adversary::Strategy;
use degradable::Params;
use harness::report::{pct, Table};
use harness::Report;
use simnet::NodeId;
use std::collections::BTreeMap;

fn placements(channels: usize, f: usize) -> Vec<Vec<usize>> {
    // all f-subsets of 1..=channels
    fn rec(
        start: usize,
        channels: usize,
        f: usize,
        acc: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if acc.len() == f {
            out.push(acc.clone());
            return;
        }
        for c in start..=channels {
            acc.push(c);
            rec(c + 1, channels, f, acc, out);
            acc.pop();
        }
    }
    let mut out = Vec::new();
    rec(1, channels, f, &mut Vec::new(), &mut out);
    out
}

pub(crate) fn run(_workers: usize) -> Run {
    let archs = [
        Architecture::Byzantine { m: 1 },
        Architecture::Crusader { t: 1 },
        Architecture::Degradable {
            params: Params::new(1, 2).expect("1 <= 2"),
        },
    ];

    let mut rows = Vec::new();
    let mut safety_broken = false;
    for arch in archs {
        let system = ChannelSystem::new(arch);
        let channels = arch.channel_count();
        for f in 0..=2usize {
            let mut counts = [0usize; 3]; // correct, default, incorrect
            let mut class_bound_ok = true;
            let mut runs = 0usize;
            for placement in placements(channels, f) {
                for (_, strat) in Strategy::battery(42, 13, 5) {
                    for sensor in [7u64, 42, 1_000_003] {
                        let strategies: BTreeMap<NodeId, Strategy<u64>> = placement
                            .iter()
                            .map(|&c| (NodeId::new(c), strat.clone()))
                            .collect();
                        let r = system.run_cycle(sensor, &strategies);
                        runs += 1;
                        match r.outcome {
                            ExternalOutcome::Correct => counts[0] += 1,
                            ExternalOutcome::Default => counts[1] += 1,
                            ExternalOutcome::Incorrect => counts[2] += 1,
                        }
                        // B.2 / C.3 class bounds for the degradable system:
                        let bound = if f <= 1 { 1 } else { 2 };
                        if matches!(arch, Architecture::Degradable { .. })
                            && r.fault_free_input_classes > bound
                        {
                            class_bound_ok = false;
                        }
                    }
                }
                if f == 0 {
                    break;
                }
            }
            // Condition check: B.1/C.1 at f <= m demand all-correct; C.2 at
            // f <= u demands no incorrect.
            let cond = match (arch, f) {
                (Architecture::Byzantine { m }, f) if f <= m => {
                    if counts[0] == runs {
                        "B.1 holds"
                    } else {
                        "B.1 VIOLATED"
                    }
                }
                (Architecture::Byzantine { .. }, _) => {
                    if counts[2] > 0 {
                        "fails unsafely (expected)"
                    } else {
                        "no promise"
                    }
                }
                (Architecture::Degradable { params }, f) if f <= params.m() => {
                    if counts[0] == runs {
                        "C.1 holds"
                    } else {
                        "C.1 VIOLATED"
                    }
                }
                (Architecture::Degradable { .. }, _) => {
                    if counts[2] == 0 && class_bound_ok {
                        "C.2 & C.3 hold"
                    } else {
                        "C.2/C.3 VIOLATED"
                    }
                }
                (Architecture::Crusader { t }, f) if f <= t => {
                    if counts[0] == runs {
                        "correct (within t)"
                    } else {
                        "VIOLATED"
                    }
                }
                (Architecture::Crusader { .. }, _) => {
                    if counts[2] > 0 {
                        "fails unsafely (expected)"
                    } else {
                        "no promise"
                    }
                }
                (Architecture::Naive { .. }, _) => "n/a",
            };
            if cond.contains("VIOLATED") {
                safety_broken = true;
            }
            rows.push(vec![
                arch.label(),
                f.to_string(),
                runs.to_string(),
                pct(counts[0] as f64 / runs as f64),
                pct(counts[1] as f64 / runs as f64),
                pct(counts[2] as f64 / runs as f64),
                cond.to_string(),
            ]);
        }
    }
    let mut report = Report::new("fig1_channels");
    report
        .set_metric("conditions_hold", !safety_broken)
        .add_table(Table::with_rows(
            "external-entity outcomes by architecture and fault count (fault-free sender)",
            &[
                "architecture",
                "f",
                "runs",
                "correct",
                "default",
                "incorrect",
                "condition",
            ],
            rows,
        ));
    Run::new(report, &[("conditions_hold", !safety_broken)], None)
}
