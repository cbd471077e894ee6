//! `compare BASE.json NEW.json`: the regression gate over two result files
//! `run` wrote. One row per (workload, end-to-end metric); exact equality
//! on the counts that repeat exactly.

use crate::report::{
    Better, EndToEndDef, Measured, PassReport, END_TO_END, FAILED_SHARE, PER_LAYER,
    SETUP_ABSOLUTE_SLACK_S,
};
use obs::JsonValue;

/// What `compare` concluded about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Better than the base by more than the bound.
    Improved,
    /// Worse than the base by more than the bound.
    Regressed,
    /// A side's own segments disagree by more than the bound and the two
    /// runs overlap: noise, not a result.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// The end-to-end pass.
    pub end_to_end: PassReport,
    /// The traced pass.
    pub per_layer: PassReport,
}

/// Reads a result file's workloads.
pub fn parse_result(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let json = JsonValue::parse(text)?;
    if json.get("schema").and_then(JsonValue::as_str) != Some(crate::runall::RESULT_SCHEMA) {
        return Err(format!("not a `{}` file", crate::runall::RESULT_SCHEMA));
    }
    json.get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("missing list `workloads`")?
        .iter()
        .map(|w| {
            let pass = |key: &str| {
                PassReport::from_json(w.get(key).ok_or_else(|| format!("missing `{key}`"))?)
                    .map_err(|e| format!("{key}: {e}"))
            };
            Ok(WorkloadResult {
                name: w
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("workload without a name")?
                    .to_string(),
                end_to_end: pass("end_to_end")?,
                per_layer: pass("per_layer")?,
            })
        })
        .collect()
}

/// By what share of the base `new` is worse (negative: better).
fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / base.abs()
    }
}

/// Judges one end-to-end metric.
pub fn judge(def: &EndToEndDef, base: &Measured, new: &Measured) -> Verdict {
    let worse = worse_by(def.better, base.value, new.value);
    if def.name == "messages_per_decision" {
        // A count: any increase regresses, whatever the bound says.
        return match worse {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Ok,
        };
    }
    let (b, n) = (base.spread(), new.spread());
    // Set-up repeats are not segments of the run: their range is shown,
    // never used to call the comparison noise.
    let noisy =
        def.name != "setup_s" && (b.relative_width() > def.bound || n.relative_width() > def.bound);
    if noisy && b.overlaps(&n) {
        return Verdict::Unresolved;
    }
    let beyond_slack =
        def.name != "setup_s" || (new.value - base.value).abs() > SETUP_ABSOLUTE_SLACK_S;
    if worse > def.bound && beyond_slack {
        Verdict::Regressed
    } else if worse < -def.bound && beyond_slack {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Compares two result files, prints the table, and returns whether the
/// new one passes (no `regressed` row, no higher `failed_share`, no
/// changed exact count).
pub fn compare(base: &[WorkloadResult], new: &[WorkloadResult]) -> bool {
    let mut pass = true;
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for b in base {
        let Some(n) = new.iter().find(|n| n.name == b.name) else {
            println!("{:<20} missing from the new file: regressed", b.name);
            pass = false;
            continue;
        };
        for def in &END_TO_END {
            let (Some(bm), Some(nm)) =
                (b.end_to_end.metric(def.name), n.end_to_end.metric(def.name))
            else {
                println!("{:<20} {:<24} missing: regressed", b.name, def.name);
                pass = false;
                continue;
            };
            let verdict = judge(def, bm, nm);
            pass &= verdict != Verdict::Regressed;
            println!(
                "{:<20} {:<24} {:>14.4} {:>14.4} {:>9.4} {:>6.0}%  {}",
                b.name,
                def.name,
                bm.value,
                nm.value,
                nm.value / bm.value,
                def.bound * 100.0,
                verdict.as_str()
            );
        }
        let (bf, nf) = (
            b.end_to_end
                .tally
                .failed_share()
                .max(b.per_layer.tally.failed_share()),
            n.end_to_end
                .tally
                .failed_share()
                .max(n.per_layer.tally.failed_share()),
        );
        let verdict = if nf > bf {
            pass = false;
            Verdict::Regressed
        } else if nf < bf {
            Verdict::Improved
        } else {
            Verdict::Ok
        };
        println!(
            "{:<20} {:<24} {:>14.6} {:>14.6} {:>9} {:>6.0}%  {}",
            b.name,
            FAILED_SHARE,
            bf,
            nf,
            "-",
            0.0,
            verdict.as_str()
        );
        if b.per_layer.ops != n.per_layer.ops {
            println!(
                "{:<20} per-layer counts not compared: {} traced operations against {}",
                b.name, b.per_layer.ops, n.per_layer.ops
            );
            continue;
        }
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let (Some(bm), Some(nm)) = (b.per_layer.metric(def.name), n.per_layer.metric(def.name))
            else {
                continue;
            };
            if bm.value != nm.value {
                pass = false;
                println!(
                    "{:<20} {:<24} {:>14.4} {:>14.4} {:>9} {:>7}  regressed (exact count changed)",
                    b.name, def.name, bm.value, nm.value, "-", "exact"
                );
            }
        }
    }
    println!(
        "{}",
        if pass {
            "compare: no regression"
        } else {
            "compare: REGRESSED"
        }
    );
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, min: f64, max: f64) -> Measured {
        Measured {
            name: "x".into(),
            unit: "u".into(),
            value,
            range: Some((min, max)),
        }
    }

    fn def(name: &str) -> &'static EndToEndDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lat = def("latency_p50_ms");
        let base = m(10.0, 9.9, 10.1);
        assert_eq!(judge(lat, &base, &m(11.5, 11.4, 11.6)), Verdict::Ok);
        assert_eq!(judge(lat, &base, &m(12.5, 12.4, 12.6)), Verdict::Regressed);
        assert_eq!(judge(lat, &base, &m(7.5, 7.4, 7.6)), Verdict::Improved);
        let rate = def("decisions_per_s");
        let base = m(1000.0, 990.0, 1010.0);
        assert_eq!(
            judge(rate, &base, &m(700.0, 690.0, 710.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(rate, &base, &m(1300.0, 1290.0, 1310.0)),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let lat = def("latency_p50_ms");
        let base = m(10.0, 8.0, 12.0); // 40 % wide
        assert_eq!(judge(lat, &base, &m(11.5, 11.4, 11.6)), Verdict::Unresolved);
        assert_eq!(judge(lat, &base, &m(10.0, 9.9, 10.1)), Verdict::Unresolved);
        // Every segment of the new run beyond every one of the base: wide,
        // but resolved.
        assert_eq!(judge(lat, &base, &m(14.0, 13.0, 15.0)), Verdict::Regressed);
        assert_eq!(judge(lat, &base, &m(6.0, 5.5, 6.5)), Verdict::Improved);
    }

    #[test]
    fn message_counts_are_exact_and_setup_has_absolute_slack() {
        let msgs = def("messages_per_decision");
        let base = m(1464.0, 1464.0, 1464.0);
        assert_eq!(judge(msgs, &base, &m(1464.0, 1464.0, 1464.0)), Verdict::Ok);
        assert_eq!(
            judge(msgs, &base, &m(1464.5, 1464.0, 1465.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(msgs, &base, &m(1400.0, 1400.0, 1400.0)),
            Verdict::Improved
        );
        let setup = def("setup_s");
        // +50 % but only +10 ms: inside the absolute slack.
        assert_eq!(
            judge(setup, &m(0.02, 0.01, 0.2), &m(0.03, 0.03, 0.03)),
            Verdict::Ok
        );
        assert_eq!(
            judge(setup, &m(0.4, 0.4, 0.4), &m(0.6, 0.6, 0.6)),
            Verdict::Regressed
        );
    }
}
