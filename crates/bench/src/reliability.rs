//! **Experiment E8** — the Section 3 motivation quantified: Monte Carlo
//! reliability of the Figure 1 architectures as the per-channel fault
//! probability grows.
//!
//! The series to compare (the "figure" this regenerates): the probability
//! of an **incorrect** external output. The Byzantine 3-channel system's
//! unsafe probability grows with the fault rate; the degradable 4-channel
//! system converts those cases into safe defaults whenever `f <= u`
//! (its residual unsafe probability comes only from trials with `f > u`).
//!
//! Every sweep point runs through [`harness::SweepRunner`] (inside
//! [`run_monte_carlo`]). Within the design envelope the degradable
//! system's `P(incorrect | f <= u)` column must be 0: all unsafe mass is
//! converted into safe defaults.

use crate::Run;
use channels::prelude::*;
use degradable::Params;
use harness::report::{pct, Table};
use harness::Report;

pub(crate) fn run(workers: usize) -> Run {
    let archs = [
        Architecture::Naive { channels: 3 },
        Architecture::Byzantine { m: 1 },
        Architecture::Degradable {
            params: Params::new(1, 2).expect("1 <= 2"),
        },
    ];
    let ps = [0.02f64, 0.05, 0.1, 0.2, 0.3];
    let trials = 4_000;
    let seed = 0xE8;

    let mut rows = Vec::new();
    let mut deg_safe_within_design = true;
    for arch in archs {
        for &p in &ps {
            let result = run_monte_carlo(
                arch,
                MonteCarloConfig {
                    channel_fault_p: p,
                    trials,
                    seed,
                    workers,
                },
            );
            let o = result.overall;
            if matches!(arch, Architecture::Degradable { .. }) && result.within_design.incorrect > 0
            {
                deg_safe_within_design = false;
            }
            rows.push(vec![
                arch.label(),
                format!("{p:.2}"),
                pct(o.p_correct()),
                pct(o.p_default()),
                pct(o.p_incorrect()),
                pct(result.within_design.p_incorrect()),
                result.beyond_design.total().to_string(),
            ]);
        }
    }

    let mut report = Report::new("reliability");
    report
        .set_meta("trials_per_point", trials)
        .set_meta("seed", seed)
        .set_metric("deg_safe_within_design", deg_safe_within_design)
        .add_table(Table::with_rows(
            format!(
                "external outcome probabilities ({trials} trials per point, fault-free sender)"
            ),
            &[
                "architecture",
                "p(channel fault)",
                "P(correct)",
                "P(default)",
                "P(incorrect)",
                "P(incorrect | f<=design)",
                "trials beyond design",
            ],
            rows,
        ));
    Run::new(
        report,
        &[("deg_safe_within_design", deg_safe_within_design)],
        None,
    )
}
