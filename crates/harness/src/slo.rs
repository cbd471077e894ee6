//! Declarative service-level objectives evaluated against
//! [`obs::Registry`] snapshots.
//!
//! An [`SloSpec`] is a named list of objectives over the deterministic
//! quantities an experiment records in its registry — latency-quantile
//! bounds on histograms, ceilings and floors on counters, minimum ratios
//! between counters, and "must be zero" invariants. Evaluating a spec
//! ([`SloSpec::evaluate`]) produces an [`SloReport`]: one pass/fail row
//! per objective plus an overall verdict, which lands in the report JSON
//! as the schema-v6 `slo` section (see [`crate::report`]) so bench
//! binaries can gate on it (`dagree`'s CI does exactly this for E20).
//!
//! Everything here is integer arithmetic over registry contents:
//! quantiles compare in `×100` fixed point ([`obs::Histogram::quantile_x100`])
//! and ratios cross-multiply, so an SLO verdict is bit-identical across
//! worker counts and reruns whenever the registry is — the same
//! determinism contract the rest of the reporting stack keeps.
//!
//! Missing instrumentation fails closed: an objective over a histogram
//! that was never observed is a **violation**, not a vacuous pass, because
//! in a gating context "no data" almost always means the recorder was
//! accidentally disabled.

use crate::report::JsonValue;

/// One objective over a registry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SloObjective {
    /// The `q`-quantile estimate of histogram `hist` must be ≤ `bound`
    /// (value units; the comparison happens in ×100 fixed point).
    /// Fails if the histogram is absent or empty.
    QuantileAtMost {
        /// Histogram name in the registry.
        hist: String,
        /// Quantile in ×100 fixed point (50 = p50, 99 = p99).
        q_x100: u64,
        /// Inclusive upper bound, in the histogram's value units.
        bound: u64,
    },
    /// Counter `counter` must be ≤ `bound`. An absent counter reads 0.
    CounterAtMost {
        /// Counter name in the registry.
        counter: String,
        /// Inclusive upper bound.
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
    /// (e.g. `p99(svc.instance.logical) <= 4096`).
    pub fn label(&self) -> String {
        match self {
            SloObjective::QuantileAtMost {
                hist,
                q_x100,
                bound,
            } => {
                format!("p{q_x100}({hist}) <= {bound}")
            }
            SloObjective::CounterAtMost { counter, bound } => format!("{counter} <= {bound}"),
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
    pub fn evaluate(&self, registry: &obs::Registry) -> SloResult {
        let (observed, pass) = match self {
            SloObjective::QuantileAtMost {
                hist,
                q_x100,
                bound,
            } => {
                let q = *q_x100 as f64 / 100.0;
                match registry.histogram(hist).and_then(|h| h.quantile_x100(q)) {
                    Some(est_x100) => (Some(est_x100), est_x100 <= bound * 100),
                    None => (None, false),
                }
            }
            SloObjective::CounterAtMost { counter, bound } => {
                let v = registry.counter(counter);
                (Some(v), v <= *bound)
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

    /// The spec's name (becomes the `name` field of the `slo` section).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The objectives in declaration order.
    pub fn objectives(&self) -> &[SloObjective] {
        &self.objectives
    }

    /// Adds an arbitrary objective.
    pub fn objective(mut self, o: SloObjective) -> Self {
        self.objectives.push(o);
        self
    }

    /// p50 of `hist` must be ≤ `bound` (value units).
    pub fn p50_at_most(self, hist: impl Into<String>, bound: u64) -> Self {
        self.objective(SloObjective::QuantileAtMost {
            hist: hist.into(),
            q_x100: 50,
            bound,
        })
    }

    /// p99 of `hist` must be ≤ `bound` (value units).
    pub fn p99_at_most(self, hist: impl Into<String>, bound: u64) -> Self {
        self.objective(SloObjective::QuantileAtMost {
            hist: hist.into(),
            q_x100: 99,
            bound,
        })
    }

    /// Counter ceiling: `counter ≤ bound` (e.g. max messages).
    pub fn counter_at_most(self, counter: impl Into<String>, bound: u64) -> Self {
        self.objective(SloObjective::CounterAtMost {
            counter: counter.into(),
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
pub struct SloResult {
    /// The objective's [`SloObjective::label`].
    pub label: String,
    /// The observed value the bound compared against — a counter value, a
    /// quantile estimate in ×100 fixed point, or a ratio in ×100 fixed
    /// point. `None` when the quantity was absent (which fails).
    pub observed: Option<u64>,
    /// Whether the objective held.
    pub pass: bool,
}

/// The outcome of evaluating an [`SloSpec`]: per-objective rows plus an
/// overall verdict. Serializes as the schema-v6 `slo` report section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloReport {
    /// The spec's name.
    pub name: String,
    /// Per-objective outcomes, in declaration order.
    pub results: Vec<SloResult>,
}

impl SloReport {
    /// `true` when every objective held. An empty spec passes vacuously.
    pub fn passed(&self) -> bool {
        self.results.iter().all(|r| r.pass)
    }

    /// The failing objectives' labels, for error messages and gate logs.
    pub fn failures(&self) -> Vec<&str> {
        self.results
            .iter()
            .filter(|r| !r.pass)
            .map(|r| r.label.as_str())
            .collect()
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
            .p50_at_most("lat", 4)
            .p99_at_most("lat", 128)
            .counter_at_most("net.sent", 200)
            .counter_at_least("net.sent", 100)
            .ratio_at_least("eig.votes_memo_hit", "eig.arena_nodes", 25)
            .zero("spec.violations")
            .evaluate(&reg);
        assert!(report.passed(), "{:?}", report.failures());
        assert_eq!(report.results.len(), 6);
        // Counters observe their raw value; ratios observe ×100.
        assert_eq!(report.results[2].observed, Some(120));
        assert_eq!(report.results[4].observed, Some(30));
    }

    #[test]
    fn each_objective_kind_can_fail() {
        let reg = registry();
        for spec in [
            SloSpec::new("q").p50_at_most("lat", 1),
            SloSpec::new("max").counter_at_most("net.sent", 10),
            SloSpec::new("min").counter_at_least("net.sent", 1000),
            SloSpec::new("ratio").ratio_at_least("eig.votes_memo_hit", "eig.arena_nodes", 31),
            SloSpec::new("zero").zero("net.sent"),
        ] {
            let report = spec.evaluate(&reg);
            assert!(!report.passed(), "{} should fail", report.name);
            assert_eq!(report.failures().len(), 1);
        }
    }

    #[test]
    fn missing_instrumentation_fails_closed() {
        let reg = obs::Registry::new();
        let report = SloSpec::new("absent")
            .p99_at_most("no.such.hist", 1_000_000)
            .ratio_at_least("a", "b", 1)
            .evaluate(&reg);
        assert!(!report.passed());
        assert_eq!(report.results[0].observed, None);
        assert_eq!(report.results[1].observed, None);
        // But absent counters read 0, so ceilings and zero-invariants
        // over them pass.
        assert!(SloSpec::new("ok")
            .counter_at_most("no.such.counter", 5)
            .zero("no.such.counter")
            .evaluate(&reg)
            .passed());
    }

    #[test]
    fn report_serializes_with_verdict_and_absent_marker() {
        let reg = registry();
        let json = SloSpec::new("gate")
            .zero("net.sent")
            .p50_at_most("missing", 1)
            .evaluate(&reg)
            .to_json()
            .to_json_string();
        assert_eq!(
            json,
            "{\"name\":\"gate\",\"passed\":false,\"objectives\":[\
             {\"objective\":\"net.sent == 0\",\"observed\":120,\"pass\":false},\
             {\"objective\":\"p50(missing) <= 1\",\"observed\":\"absent\",\"pass\":false}]}"
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
