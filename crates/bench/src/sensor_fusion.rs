//! **Experiment E12** — multi-sensor fusion (the Section 3 remark:
//! "the proposed approach is useful when multiple senders measure the
//! same quantity").
//!
//! Three sensors measure one quantity (genuine readings within ±2 ticks of
//! 1000); four channels receive each reading via degradable agreement and
//! fuse the agreed vector by median, declaring **degraded** below a
//! quorum of non-default entries. Sweeping the fault count over the whole
//! node population with the adversary battery:
//!
//! * `f <= m`: all fault-free channels produce the **same** estimate, and
//!   it lies inside the genuine reading band;
//! * `m < f <= u`: estimates may differ between channels or degrade, but a
//!   channel that trusts an estimate never got it from thin air: every
//!   run is audited for out-of-band estimates whose vector was
//!   majority-genuine.

use crate::Run;
use channels::fusion::{run_fusion, Fused, FusionConfig};
use degradable::adversary::Strategy;
use degradable::Params;
use harness::report::{pct, Table};
use harness::Report;
use simnet::{NodeId, SimRng};
use std::collections::BTreeMap;

const N: usize = 7; // 3 sensors + 4 channels
const SENSORS: usize = 3;
const TRUE_VALUE: u64 = 1_000;

pub(crate) fn run(_workers: usize) -> Run {
    let config = FusionConfig {
        params: Params::new(1, 4).expect("1 <= 4"),
        sensors: SENSORS,
        quorum: 2,
    };
    let readings = [TRUE_VALUE, TRUE_VALUE + 2, TRUE_VALUE - 2];

    let mut rows = Vec::new();
    let mut story = true;
    for f in 0..=4usize {
        let mut runs = 0usize;
        let mut identical_runs = 0usize;
        let mut degraded_channels = 0usize;
        let mut channel_count_total = 0usize;
        let mut in_band_estimates = 0usize;
        let mut estimates_total = 0usize;
        let mut rng = SimRng::seed(0xE12 + f as u64);
        for placement in 0..10usize {
            let faulty_idx = rng.choose_indices(N, f);
            for (_, strat) in Strategy::battery(TRUE_VALUE, TRUE_VALUE + 500_000, placement as u64)
            {
                let strategies: BTreeMap<NodeId, Strategy<u64>> = faulty_idx
                    .iter()
                    .map(|&i| (NodeId::new(i), strat.clone()))
                    .collect();
                let out = run_fusion(config, N, &readings, &strategies);
                runs += 1;
                let estimates = out.distinct_estimates();
                if estimates.len() <= 1
                    && out.fused.values().all(|x| matches!(x, Fused::Estimate(_)))
                {
                    identical_runs += 1;
                }
                for v in out.fused.values() {
                    channel_count_total += 1;
                    match v {
                        Fused::Degraded => degraded_channels += 1,
                        Fused::Estimate(e) => {
                            estimates_total += 1;
                            if e.abs_diff(TRUE_VALUE) <= 2 {
                                in_band_estimates += 1;
                            }
                        }
                    }
                }
                // f <= m: all channels must fuse identically and in-band.
                if f <= config.params.m()
                    && (estimates.len() != 1
                        || estimates.iter().any(|e| e.abs_diff(TRUE_VALUE) > 2))
                {
                    story = false;
                }
            }
            if f == 0 {
                break;
            }
        }
        rows.push(vec![
            f.to_string(),
            runs.to_string(),
            pct(identical_runs as f64 / runs as f64),
            pct(degraded_channels as f64 / channel_count_total.max(1) as f64),
            pct(in_band_estimates as f64 / estimates_total.max(1) as f64),
        ]);
    }
    let mut report = Report::new("sensor_fusion");
    report
        .set_metric("within_m_identical_in_band", story)
        .add_table(Table::with_rows(
            "fusion outcomes per fault count (faults placed anywhere: sensors or channels)",
            &[
                "f",
                "runs",
                "runs w/ one shared estimate",
                "channel results degraded",
                "trusted estimates in genuine band",
            ],
            rows,
        ));
    Run::new(report, &[("within_m_identical_in_band", story)], None)
}
