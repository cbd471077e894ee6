//! Declarative service-level objectives evaluated against
//! [`obs::Registry`] snapshots.
//!
//! An [`SloSpec`] is a named list of objectives over the deterministic
//! quantities an experiment records in its registry — ceilings on a
//! histogram's exact maximum, ceilings and floors on counters, minimum
//! ratios between counters, and "must be zero" invariants. Evaluating a spec
//! ([`SloSpec::evaluate`]) produces an [`SloReport`]: one pass/fail row
//! per objective plus an overall verdict, which lands in the report JSON
//! as the schema-v6 `slo` section (see [`crate::report`]) so an
//! experiment's verdict can gate on it (E20 and E21 do).
//!
//! Everything here is integer arithmetic over exact registry contents:
//! maxima and counters compare as recorded and ratios cross-multiply, so
//! an SLO verdict is bit-identical across worker counts and reruns
//! whenever the registry is — the same determinism contract the rest of
//! the reporting stack keeps.
//!
//! Missing instrumentation fails closed: an objective over a histogram
//! that was never observed is a **violation**, not a vacuous pass, because
//! in a gating context "no data" almost always means the recorder was
//! accidentally disabled.

use crate::report::JsonValue;

/// One objective over a registry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SloObjective {
    /// The largest value observed into histogram `hist` must be ≤
    /// `bound`. Fails if the histogram is absent or empty.
    MaxAtMost {
        /// Histogram name in the registry.
        hist: String,
        /// Inclusive upper bound, in the histogram's value units.
        bound: u64,
    },
    /// Counter `counter` must be ≥ `bound`. An absent counter reads 0.
    CounterAtLeast {
        /// Counter name in the registry.
        counter: String,
        /// Inclusive lower bound.
        bound: u64,
    },
    /// `num / den ≥ min_x100 / 100`, evaluated as
    /// `num * 100 ≥ den * min_x100` (no floats). Fails when `den` is 0:
    /// a ratio floor over an empty denominator means the instrumentation
    /// the spec assumed never ran.
    RatioAtLeast {
        /// Numerator counter name.
        num: String,
        /// Denominator counter name.
        den: String,
        /// Minimum ratio in ×100 fixed point (10 = 10%).
        min_x100: u64,
    },
    /// Counter `counter` must be exactly 0 (absent counts as 0). The
    /// shape for "zero spec violations" invariants.
    CounterZero {
        /// Counter name in the registry.
        counter: String,
    },
}

impl SloObjective {
    /// A stable, human-readable label for report rows
    /// (e.g. `max(svc.instance.logical) <= 144`).
    fn label(&self) -> String {
        match self {
            SloObjective::MaxAtMost { hist, bound } => format!("max({hist}) <= {bound}"),
            SloObjective::CounterAtLeast { counter, bound } => format!("{counter} >= {bound}"),
            SloObjective::RatioAtLeast { num, den, min_x100 } => {
                format!("{num}/{den} >= {min_x100}%")
            }
            SloObjective::CounterZero { counter } => format!("{counter} == 0"),
        }
    }

    /// Evaluates this objective against `registry`, returning the
    /// observed value (`None` when the quantity does not exist) and the
    /// verdict.
    fn evaluate(&self, registry: &obs::Registry) -> SloResult {
        let (observed, pass) = match self {
            SloObjective::MaxAtMost { hist, bound } => {
                match registry.histogram(hist).and_then(obs::Histogram::max) {
                    Some(max) => (Some(max), max <= *bound),
                    None => (None, false),
                }
            }
            SloObjective::CounterAtLeast { counter, bound } => {
                let v = registry.counter(counter);
                (Some(v), v >= *bound)
            }
            SloObjective::RatioAtLeast { num, den, min_x100 } => {
                let n = registry.counter(num);
                let d = registry.counter(den);
                // Ratio in ×100 fixed point, floor-rounded; the pass
                // verdict cross-multiplies so it never rounds at all. A
                // zero denominator fails closed.
                match (n * 100).checked_div(d) {
                    Some(ratio) => (Some(ratio), n * 100 >= d * min_x100),
                    None => (None, false),
                }
            }
            SloObjective::CounterZero { counter } => {
                let v = registry.counter(counter);
                (Some(v), v == 0)
            }
        };
        SloResult {
            label: self.label(),
            observed,
            pass,
        }
    }
}

/// A named bundle of objectives — the declarative SLO contract one
/// experiment (or one fault regime within it) promises to meet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloSpec {
    name: String,
    objectives: Vec<SloObjective>,
}

impl SloSpec {
    /// An empty spec with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SloSpec {
            name: name.into(),
            objectives: Vec::new(),
        }
    }

    fn objective(mut self, o: SloObjective) -> Self {
        self.objectives.push(o);
        self
    }

    /// Every value observed into `hist` must be ≤ `bound` (value units).
    pub fn max_at_most(self, hist: impl Into<String>, bound: u64) -> Self {
        self.objective(SloObjective::MaxAtMost {
            hist: hist.into(),
            bound,
        })
    }

    /// Counter floor: `counter ≥ bound`.
    pub fn counter_at_least(self, counter: impl Into<String>, bound: u64) -> Self {
        self.objective(SloObjective::CounterAtLeast {
            counter: counter.into(),
            bound,
        })
    }

    /// Ratio floor: `num/den ≥ min_x100 %` (e.g. minimum memo-hit ratio).
    pub fn ratio_at_least(
        self,
        num: impl Into<String>,
        den: impl Into<String>,
        min_x100: u64,
    ) -> Self {
        self.objective(SloObjective::RatioAtLeast {
            num: num.into(),
            den: den.into(),
            min_x100,
        })
    }

    /// Invariant: `counter == 0` (e.g. zero spec violations).
    pub fn zero(self, counter: impl Into<String>) -> Self {
        self.objective(SloObjective::CounterZero {
            counter: counter.into(),
        })
    }

    /// Evaluates every objective against `registry`.
    pub fn evaluate(&self, registry: &obs::Registry) -> SloReport {
        SloReport {
            name: self.name.clone(),
            results: self
                .objectives
                .iter()
                .map(|o| o.evaluate(registry))
                .collect(),
        }
    }
}

/// One evaluated objective: its label, what the registry held, and the
/// verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SloResult {
    /// The objective's label.
    label: String,
    /// The observed value the bound compared against — a counter value, a
    /// histogram's maximum, or a ratio in ×100 fixed point. `None` when
    /// the quantity was absent (which fails).
    observed: Option<u64>,
    /// Whether the objective held.
    pass: bool,
}

/// The outcome of evaluating an [`SloSpec`]: per-objective rows plus an
/// overall verdict. Serializes as the schema-v6 `slo` report section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloReport {
    /// The spec's name.
    name: String,
    /// Per-objective outcomes, in declaration order.
    results: Vec<SloResult>,
}

impl SloReport {
    /// `true` when every objective held. An empty spec passes vacuously.
    pub fn passed(&self) -> bool {
        self.results.iter().all(|r| r.pass)
    }

    /// The section as JSON:
    /// `{"name":...,"passed":bool,"objectives":[{"objective":...,"observed":...,"pass":bool}]}`.
    /// Absent observations serialize as the string `"absent"` so strict
    /// integer consumers notice them.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("name".into(), self.name.as_str().into()),
            ("passed".into(), JsonValue::Bool(self.passed())),
            (
                "objectives".into(),
                JsonValue::Array(
                    self.results
                        .iter()
                        .map(|r| {
                            JsonValue::Object(vec![
                                ("objective".into(), r.label.as_str().into()),
                                (
                                    "observed".into(),
                                    match r.observed {
                                        Some(v) => JsonValue::UInt(v),
                                        None => "absent".into(),
                                    },
                                ),
                                ("pass".into(), JsonValue::Bool(r.pass)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> obs::Registry {
        let mut reg = obs::Registry::new();
        reg.add("net.sent", 120);
        reg.add("eig.votes_memo_hit", 30);
        reg.add("eig.arena_nodes", 100);
        for v in [1u64, 2, 3, 4, 100] {
            reg.observe("lat", &[1, 2, 4, 8, 16, 128], v);
        }
        reg
    }

    #[test]
    fn objectives_evaluate_against_the_registry() {
        let reg = registry();
        let report = SloSpec::new("smoke")
            .max_at_most("lat", 100)
            .counter_at_least("net.sent", 100)
            .ratio_at_least("eig.votes_memo_hit", "eig.arena_nodes", 25)
            .zero("spec.violations")
            .evaluate(&reg);
        assert!(report.passed(), "{report:?}");
        assert_eq!(report.results.len(), 4);
        // Maxima and counters observe their raw value; ratios observe ×100.
        assert_eq!(report.results[0].observed, Some(100));
        assert_eq!(report.results[1].observed, Some(120));
        assert_eq!(report.results[2].observed, Some(30));
    }

    #[test]
    fn each_objective_kind_can_fail() {
        let reg = registry();
        for spec in [
            SloSpec::new("hist").max_at_most("lat", 99),
            SloSpec::new("min").counter_at_least("net.sent", 1000),
            SloSpec::new("ratio").ratio_at_least("eig.votes_memo_hit", "eig.arena_nodes", 31),
            SloSpec::new("zero").zero("net.sent"),
        ] {
            let report = spec.evaluate(&reg);
            assert!(!report.passed(), "{} should fail", report.name);
            assert_eq!(report.results.iter().filter(|r| !r.pass).count(), 1);
        }
    }

    #[test]
    fn missing_instrumentation_fails_closed() {
        let empty =
            "{\"histograms\":{\"empty\":{\"bounds\":[1],\"buckets\":[0,0],\"count\":0,\"sum\":0}}}";
        let reg = obs::Registry::from_json(&JsonValue::parse(empty).unwrap()).unwrap();
        let report = SloSpec::new("absent")
            .max_at_most("no.such.hist", 1_000_000)
            .max_at_most("empty", 1_000_000)
            .ratio_at_least("a", "b", 1)
            .evaluate(&reg);
        assert!(!report.passed());
        assert!(report.results.iter().all(|r| r.observed.is_none()));
        // But absent counters read 0, so zero-invariants over them pass.
        assert!(SloSpec::new("ok")
            .zero("no.such.counter")
            .evaluate(&reg)
            .passed());
    }

    #[test]
    fn report_serializes_with_verdict_and_absent_marker() {
        let reg = registry();
        let json = SloSpec::new("gate")
            .zero("net.sent")
            .max_at_most("missing", 1)
            .evaluate(&reg)
            .to_json()
            .to_json_string();
        assert_eq!(
            json,
            "{\"name\":\"gate\",\"passed\":false,\"objectives\":[\
             {\"objective\":\"net.sent == 0\",\"observed\":120,\"pass\":false},\
             {\"objective\":\"max(missing) <= 1\",\"observed\":\"absent\",\"pass\":false}]}"
        );
    }

    #[test]
    fn verdicts_are_integer_exact_at_the_boundary() {
        let mut reg = obs::Registry::new();
        reg.add("num", 1);
        reg.add("den", 3);
        // 1/3 ≥ 33%? cross-multiplied: 100 ≥ 99 — yes, with no float
        // round-trip to get it wrong. 1/3 ≥ 34%: 100 < 102 — no.
        assert!(SloSpec::new("b")
            .ratio_at_least("num", "den", 33)
            .evaluate(&reg)
            .passed());
        assert!(!SloSpec::new("b")
            .ratio_at_least("num", "den", 34)
            .evaluate(&reg)
            .passed());
    }
}
