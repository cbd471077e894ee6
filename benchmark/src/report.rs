//! The metric catalogue (names, units, directions, bounds) and the report
//! one pass over one workload produces: printed for a reader, written as
//! JSON for `run`/`compare`, and summarised on the last line of standard
//! output for the driver.

use crate::check::Tally;
use crate::span::Ledger;
use crate::stats::Spread;
use obs::JsonValue;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the base by which it may worsen
/// before `compare` calls the change a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndDef {
    /// Metric name, the same on every workload.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening as a share of the base value.
    pub bound: f64,
}

/// The end-to-end metrics, in `BENCHMARK.json` order. On the `svc_*`
/// workloads the timings are on the compensated clock of [`crate::e2e`].
///
/// The timing bounds are several times the inter-quartile spread of ten
/// 25-second runs of one commit on the shared 2-core box the benchmark was
/// written on (throughput and p50: 2 to 5 %; p95: 8 to 13 %, so its bound
/// is the widest the driver allows).
///
/// Two more end-to-end readings live elsewhere. `failed_share` is
/// reported by `run` and judged by `compare` (any increase regresses), and
/// reaches the driver as `failed`/`attempted`, because the driver's
/// metrics must never be 0. CPU per decision swings by a quarter on the
/// wire workload (it is mostly kernel time for timer wake-ups), beyond any
/// bound the driver allows, and equals the inverse of the throughput on
/// the single-threaded service workloads, so it is the per-layer
/// `process.cpu_us_per_decision`.
pub const END_TO_END: [EndToEndDef; 6] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "decisions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEndDef {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEndDef {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "messages_per_decision",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// The failure metric's name in `run`'s and `compare`'s output.
pub const FAILED_SHARE: &str = "failed_share";

/// `setup_s` regresses only beyond its relative bound *and* this many
/// seconds: set-up is tens of milliseconds on the service workloads.
pub const SETUP_ABSOLUTE_SLACK_S: f64 = 0.05;

/// A per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerDef {
    /// `layer.metric`, the layer being the repository's module name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// A count that repeats exactly for a fixed seed and operation count;
    /// `compare` requires equality on these.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        exact,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a workload
/// does not run reads 0 on that workload.
pub const PER_LAYER: [LayerDef; 50] = [
    layer("host.yardstick_us", "us", Lower, false),
    layer("process.cpu_us_per_decision", "us", Lower, false),
    layer("service.ingest_ns_per_instance", "ns", Lower, false),
    layer("service.drain_ns_per_instance", "ns", Lower, false),
    layer("service.drain_ns_per_message", "ns", Lower, false),
    layer("service.warmup_ms", "ms", Lower, false),
    layer("service.arena_reuse_ratio", "ratio", Higher, false),
    layer("service.store_reuse_ratio", "ratio", Higher, false),
    layer("service.shed_count", "count", Lower, true),
    layer("service.overhead_ratio", "ratio", Lower, false),
    layer("service.batch_speedup", "ratio", Higher, false),
    layer("service.fill_share", "ratio", Lower, false),
    layer("service.resolve_share", "ratio", Lower, false),
    layer("simnet.protocol_us_per_instance", "us", Lower, false),
    layer("simnet.protocol_ns_per_message", "ns", Lower, false),
    layer("engine.arena_build_us", "us", Lower, false),
    layer("engine.fill_ns_per_slot", "ns", Lower, false),
    layer("engine.resolve_ns_per_vote", "ns", Lower, false),
    layer("engine.resolve_packed_ns_per_vote", "ns", Lower, false),
    layer("engine.slots_per_instance", "count", Lower, true),
    layer("engine.votes_evaluated_per_instance", "count", Lower, true),
    layer("engine.memo_hit_ratio", "ratio", Higher, false),
    layer("vote.ns_per_call", "ns", Lower, false),
    layer("eig.reference_us_per_instance", "us", Lower, false),
    layer("eig.view_resolve_us_per_node", "us", Lower, false),
    layer("node.on_event_ns_per_event", "ns", Lower, false),
    layer("node.events_per_instance", "count", Lower, true),
    layer("node.sends_per_instance", "count", Lower, true),
    layer("frame.encode_ns_per_msg", "ns", Lower, false),
    layer("frame.decode_ns_per_msg", "ns", Lower, false),
    layer("frame.bytes_per_msg", "count", Lower, true),
    layer("mesh.tcp_setup_ms", "ms", Lower, false),
    layer("mesh.channel_setup_us", "us", Lower, false),
    layer("mesh.round_ms_p50", "ms", Lower, false),
    layer("mesh.poll_wait_share", "ratio", Lower, false),
    layer("mesh.send_ns_per_msg", "ns", Lower, false),
    layer("mesh.teardown_ms", "ms", Lower, false),
    layer("mesh.false_timeouts", "count", Lower, false),
    layer("mesh.reconnects", "count", Lower, false),
    layer("mesh.failed_nodes", "count", Lower, false),
    layer("runner.sim_us_per_instance", "us", Lower, false),
    layer("runner.channel_us_per_instance", "us", Lower, false),
    layer("runner.tcp_ms_per_instance", "ms", Lower, false),
    layer("sim.poll_ns_per_event", "ns", Lower, false),
    layer("chaos.disposition_ns_per_call", "ns", Lower, false),
    layer("obs.recorder_overhead_ratio", "ratio", Lower, false),
    layer("obs.spans_per_instance", "count", Lower, true),
    layer("trace.overhead_ratio", "ratio", Lower, false),
    layer("ledger.attributed_share", "ratio", Higher, false),
    layer("ledger.unattributed_share", "ratio", Lower, false),
];

/// One measured metric of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value (for end-to-end timings, over the whole run).
    pub value: f64,
    /// Smallest and largest segment of the run (for `setup_s`, repeat),
    /// when the metric has them.
    pub range: Option<(f64, f64)>,
}

impl Measured {
    /// The metric with its range (a metric without one is a point).
    pub fn spread(&self) -> Spread {
        let (min, max) = self.range.unwrap_or((self.value, self.value));
        Spread {
            median: self.value,
            min,
            max,
        }
    }
}

/// What one pass (end-to-end or traced) over one workload measured.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this is the traced (per-layer) pass.
    pub traced: bool,
    /// Operations (waves or wire instances) measured.
    pub ops: u64,
    /// Instances offered, instances failed, and why.
    pub tally: Tally,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Measured>,
    /// End-to-end metrics whose segments disagree by more than their
    /// bound.
    pub unstable: Vec<String>,
    /// Traced pass: each blocking-path span's share of the operation
    /// wall, largest first, the unattributed residual last; sums to 1.
    pub ledger: Vec<(String, f64)>,
    /// End-to-end pass: what a reader needs beside the numbers — sample
    /// counts, what the yardstick read, the timings as measured.
    pub notes: Vec<String>,
}

impl PassReport {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Whether every operation passed verification.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each value with all its digits.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    JsonValue::Object(vec![
                        ("value".into(), m.value.into()),
                        ("unit".into(), m.unit.as_str().into()),
                    ]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".into(), self.correct().into()),
            ("attempted".into(), self.tally.attempted.into()),
            ("failed".into(), self.tally.failed.into()),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
        .to_json_string()
    }

    /// The full report, as `run` stores it.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), JsonValue::from(m.value)),
                    ("unit".to_string(), m.unit.as_str().into()),
                ];
                if let Some((min, max)) = m.range {
                    fields.push(("min".into(), min.into()));
                    fields.push(("max".into(), max.into()));
                }
                (m.name.clone(), JsonValue::Object(fields))
            })
            .collect();
        JsonValue::Object(vec![
            ("workload".into(), self.workload.as_str().into()),
            ("seed".into(), self.seed.into()),
            ("traced".into(), self.traced.into()),
            ("ops".into(), self.ops.into()),
            ("attempted".into(), self.tally.attempted.into()),
            ("failed".into(), self.tally.failed.into()),
            ("failed_share".into(), self.tally.failed_share().into()),
            ("failure_reasons".into(), self.tally.reasons.clone().into()),
            ("unstable".into(), self.unstable.clone().into()),
            ("notes".into(), self.notes.clone().into()),
            (
                "ledger".into(),
                JsonValue::Object(
                    self.ledger
                        .iter()
                        .map(|(name, share)| (name.clone(), (*share).into()))
                        .collect(),
                ),
            ),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
    }

    /// Reads back what [`PassReport::to_json`] wrote.
    pub fn from_json(json: &JsonValue) -> Result<PassReport, String> {
        let text = |key: &str| {
            json.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let number = |key: &str| {
            json.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing count `{key}`"))
        };
        let strings = |key: &str| -> Result<Vec<String>, String> {
            json.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("missing list `{key}`"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("`{key}` holds a non-string"))
                })
                .collect()
        };
        let metrics = json
            .get("metrics")
            .and_then(JsonValue::as_object)
            .ok_or("missing object `metrics`")?
            .iter()
            .map(|(name, m)| {
                let field = |key: &str| m.get(key).and_then(as_f64);
                Ok(Measured {
                    name: name.clone(),
                    unit: m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("metric `{name}` has no unit"))?
                        .to_string(),
                    value: field("value").ok_or_else(|| format!("metric `{name}` has no value"))?,
                    range: field("min").zip(field("max")),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PassReport {
            workload: text("workload")?,
            seed: number("seed")?,
            traced: json
                .get("traced")
                .and_then(JsonValue::as_bool)
                .ok_or("missing flag `traced`")?,
            ops: number("ops")?,
            tally: Tally {
                attempted: number("attempted")?,
                failed: number("failed")?,
                reasons: strings("failure_reasons")?,
            },
            metrics,
            unstable: strings("unstable")?,
            notes: strings("notes")?,
            ledger: json
                .get("ledger")
                .and_then(JsonValue::as_object)
                .ok_or("missing object `ledger`")?
                .iter()
                .map(|(name, share)| {
                    as_f64(share)
                        .map(|share| (name.clone(), share))
                        .ok_or_else(|| format!("ledger entry `{name}` is not a number"))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        let pass = if self.traced {
            "per-layer (traced)"
        } else {
            "end-to-end"
        };
        println!(
            "{} — {pass}, seed {}, {} operations, {} instances attempted, {} failed (failed_share {})",
            self.workload,
            self.seed,
            self.ops,
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed_share()
        );
        for m in &self.metrics {
            match m.range {
                Some((min, max)) => println!(
                    "  {:<36} {:>14.4} {:<6} [{:.4}, {:.4}]",
                    m.name, m.value, m.unit, min, max
                ),
                None => println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit),
            }
        }
        for note in &self.notes {
            println!("  ({note})");
        }
        if !self.unstable.is_empty() {
            println!(
                "  unstable (the run's segments disagree by more than the bound): {}",
                self.unstable.join(", ")
            );
        }
        if !self.ledger.is_empty() {
            println!("  ledger (share of operation wall on the blocking path):");
            for (name, share) in &self.ledger {
                println!("    {:<34} {:>8.2} %", name, share * 100.0);
            }
        }
        for reason in &self.tally.reasons {
            println!("  FAILED: {reason}");
        }
    }
}

/// The traced pass's metric list: every catalogue entry in order, with 0
/// for a layer this workload did not run.
///
/// # Panics
///
/// If `values` names a metric the catalogue does not have.
pub fn layer_metrics(values: &BTreeMap<&'static str, f64>) -> Vec<Measured> {
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|d| d.name == *name),
            "`{name}` is not in the per-layer catalogue"
        );
    }
    PER_LAYER
        .iter()
        .map(|def| Measured {
            name: def.name.to_string(),
            unit: def.unit.to_string(),
            value: values.get(def.name).copied().unwrap_or(0.0),
            range: None,
        })
        .collect()
}

/// Closes a traced pass: adds the ledger's two metrics to `values` and
/// assembles the report.
pub fn traced_report(
    workload: &str,
    seed: u64,
    ops: u64,
    tally: Tally,
    mut values: BTreeMap<&'static str, f64>,
    ledger: &Ledger,
) -> PassReport {
    values.insert("ledger.attributed_share", ledger.attributed_share());
    values.insert("ledger.unattributed_share", 1.0 - ledger.attributed_share());
    PassReport {
        workload: workload.to_string(),
        seed,
        traced: true,
        ops,
        tally,
        metrics: layer_metrics(&values),
        unstable: Vec::new(),
        ledger: ledger.shares(),
        notes: Vec::new(),
    }
}

/// `numerator ÷ denominator`, 0 when nothing was measured.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// A JSON number as `f64`, whichever variant the parser chose for it.
/// `null` (how a non-finite float is written) reads as `NaN`.
pub fn as_f64(value: &JsonValue) -> Option<f64> {
    match *value {
        JsonValue::Float(f) => Some(f),
        JsonValue::UInt(u) => Some(u as f64),
        JsonValue::Int(i) => Some(i as f64),
        JsonValue::Null => Some(f64::NAN),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PassReport {
        PassReport {
            workload: "svc_small_n5".into(),
            seed: 42,
            traced: false,
            ops: 80,
            tally: Tally {
                attempted: 80_000,
                failed: 1,
                reasons: vec!["instance 7 was shed or refused".into()],
            },
            metrics: vec![
                Measured {
                    name: "decisions_per_s".into(),
                    unit: "1/s".into(),
                    value: 175_123.456_789,
                    range: Some((170_000.5, 180_000.25)),
                },
                Measured {
                    name: "messages_per_decision".into(),
                    unit: "count".into(),
                    value: 16.0,
                    range: None,
                },
            ],
            unstable: vec!["latency_p95_ms".into()],
            ledger: vec![
                ("service.drain".into(), 0.75),
                ("unattributed".into(), 0.25),
            ],
            notes: vec!["16 latency samples, 0 beyond p95".into()],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample();
        let text = report.to_json().to_json_string();
        let back = PassReport::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = sample().driver_line();
        let json = JsonValue::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct").unwrap().as_bool(), Some(false));
        let m = json.get("metrics").unwrap().get("decisions_per_s").unwrap();
        assert_eq!(as_f64(m.get("value").unwrap()), Some(175_123.456_789));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
    }

    /// `BENCHMARK.json` is what the driver and later issues read; the
    /// catalogue is what the program prints. They must name the same
    /// things.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| -> Vec<Vec<String>> {
            json.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|row| {
                    row.as_object()
                        .unwrap()
                        .iter()
                        .map(|(k, v)| match as_f64(v) {
                            Some(n) => format!("{k}={n}"),
                            None => format!("{k}={}", v.as_str().unwrap()),
                        })
                        .collect()
                })
                .collect()
        };
        let end_to_end: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|d| {
                vec![
                    format!("name={}", d.name),
                    format!("unit={}", d.unit),
                    format!("better={}", d.better.as_str()),
                    format!("bound={}", d.bound),
                ]
            })
            .collect();
        assert_eq!(rows("end_to_end"), end_to_end);
        let per_layer: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|d| {
                vec![
                    format!("name={}", d.name),
                    format!("unit={}", d.unit),
                    format!("better={}", d.better.as_str()),
                ]
            })
            .collect();
        assert_eq!(rows("per_layer"), per_layer);
        let workloads: Vec<String> = rows("workloads")
            .into_iter()
            .map(|w| w[0].clone())
            .collect();
        let expected: Vec<String> = crate::gen::WORKLOAD_NAMES
            .iter()
            .map(|n| format!("name={n}"))
            .collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .collect();
        names.push(FAILED_SHARE);
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
    }
}
