//! The paper's experiments as one table.
//!
//! Each row of [`EXPERIMENTS`] regenerates one table, figure or standing
//! gate of the reproduction: its runner sweeps the experiment at its
//! default size and returns the [`Report`] plus the experiment's
//! [`Verdict`]. `dagree exp <id>` runs one row and writes
//! `results/<name>.json`; `dagree check` runs every row through [`check`],
//! holding it to its committed report. See `DESIGN.md` (per-experiment
//! index) and `EXPERIMENTS.md` (paper-vs-measured record).
//!
//! Every report is a pure function of code and seed: runners read no
//! clock, record no worker count, and derive each trial's randomness from
//! the master seed and trial index alone, so the committed
//! `results/*.json` are byte-for-byte goldens.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use harness::Report;
use obs::Obs;
use std::path::Path;

mod ablation;
mod authenticated;
mod batch_throughput;
mod bhandari_ic;
mod chaos_connectivity;
mod clock_sync;
mod complexity;
mod connectivity;
mod fig1_channels;
mod fig2_lower_bound;
mod fuzz_conformance;
mod m_plus_one;
mod node_bound_sweep;
mod obs_overhead;
mod perf_baseline;
mod reliability;
mod sensor_fusion;
mod service_throughput;
mod small_model;
mod table1;
mod timeout_tuning;
mod tradeoff7;
mod transport_diff;

/// One experiment: its id, its report name and its runner.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The id `DESIGN.md` and `EXPERIMENTS.md` use (`T1`, `E14`, ...).
    pub id: &'static str,
    /// The report name: the run writes `results/<name>.json`.
    pub name: &'static str,
    /// Runs the experiment at its default size on this many sweep
    /// workers. The report does not depend on the count.
    pub run: fn(usize) -> Run,
}

/// What one run of an experiment produced.
#[derive(Debug)]
pub struct Run {
    /// The versioned report (tables, metrics, registry snapshot).
    pub report: Report,
    /// Whether the run reproduced what the experiment claims.
    pub verdict: Verdict,
    /// The run's span recorder, for experiments that trace.
    pub trace: Option<Obs>,
}

impl Run {
    /// A run whose verdict is these `(clause, holds)` pairs.
    pub fn new(report: Report, clauses: &[(&'static str, bool)], trace: Option<Obs>) -> Self {
        let mut verdict = Verdict::default();
        for &(clause, holds) in clauses {
            verdict.require(clause, holds);
        }
        Run {
            report,
            verdict,
            trace,
        }
    }

    /// The run's spans as a Chrome `trace_event` file, laid out by
    /// logical cost. The per-worker fan-out spans are the only
    /// worker-count-dependent spans, so they are left out.
    pub fn trace_json(&self) -> Option<String> {
        let trace = self.trace.as_ref()?;
        Some(obs::chrome_trace_json(
            &trace.without_spans(&["sweep.worker"]),
        ))
    }
}

/// The clauses an experiment's result must satisfy; it passes when none
/// failed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    failed: Vec<&'static str>,
}

impl Verdict {
    /// Records one clause; `clause` names it when it does not hold.
    pub fn require(&mut self, clause: &'static str, holds: bool) -> &mut Self {
        if !holds {
            self.failed.push(clause);
        }
        self
    }

    /// Whether every clause held.
    pub fn passed(&self) -> bool {
        self.failed.is_empty()
    }

    /// The clauses that did not hold, in the order they were required.
    pub fn failed(&self) -> &[&'static str] {
        &self.failed
    }
}

/// Every experiment, in the order of the `DESIGN.md` index.
pub const EXPERIMENTS: [Experiment; 23] = [
    row("T1", "table1", table1::run),
    row("F1", "fig1_channels", fig1_channels::run),
    row("F2", "fig2_lower_bound", fig2_lower_bound::run),
    row("E3", "tradeoff7", tradeoff7::run),
    row("E4", "node_bound_sweep", node_bound_sweep::run),
    row("E5", "connectivity", connectivity::run),
    row("E6", "clock_sync", clock_sync::run),
    row("E7", "m_plus_one", m_plus_one::run),
    row("E8", "reliability", reliability::run),
    row("P1", "complexity", complexity::run),
    row("E9", "bhandari_ic", bhandari_ic::run),
    row("E10", "small_model", small_model::run),
    row("A1", "ablation", ablation::run),
    row("A2", "authenticated", authenticated::run),
    row("E11", "timeout_tuning", timeout_tuning::run),
    row("E12", "sensor_fusion", sensor_fusion::run),
    row("E13", "chaos_connectivity", chaos_connectivity::run),
    row("E14", "perf_baseline", perf_baseline::run),
    row("E16", "batch_throughput", batch_throughput::run),
    row("E17", "transport_diff", transport_diff::run),
    row("E18", "fuzz_conformance", fuzz_conformance::run),
    row("E20", "obs_overhead", obs_overhead::run),
    row("E21", "service_throughput", service_throughput::run),
];

const fn row(id: &'static str, name: &'static str, run: fn(usize) -> Run) -> Experiment {
    Experiment { id, name, run }
}

/// The experiment with this id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// The worker counts [`check`] runs every experiment at.
pub const CHECK_WORKERS: [usize; 2] = [1, 8];

/// Runs `exp` at each of [`CHECK_WORKERS`] and holds it to the committed
/// report at `golden`: the verdict passes at every count, the reports (and
/// traces, where the experiment traces) are byte-identical across counts,
/// and the report equals `golden` byte for byte. Writes nothing.
///
/// # Errors
///
/// One line per rule the experiment broke.
pub fn check(exp: &Experiment, golden: &Path) -> Result<(), String> {
    let runs: Vec<(usize, Run)> = CHECK_WORKERS.iter().map(|&w| (w, (exp.run)(w))).collect();
    let mut problems = Vec::new();
    for (workers, run) in &runs {
        if !run.verdict.passed() {
            problems.push(format!(
                "verdict failed at {workers} workers: {}",
                run.verdict.failed().join(", ")
            ));
        }
    }
    let (_, first) = &runs[0];
    let report = first.report.to_json_string();
    for (workers, run) in &runs[1..] {
        if run.report.to_json_string() != report {
            problems.push(format!("report differs between 1 and {workers} workers"));
        }
        if run.trace_json() != first.trace_json() {
            problems.push(format!("trace differs between 1 and {workers} workers"));
        }
    }
    match std::fs::read_to_string(golden) {
        Ok(text) if text.strip_suffix('\n') == Some(report.as_str()) => {}
        Ok(_) => problems.push(format!("report differs from {}", golden.display())),
        Err(e) => problems.push(format!("cannot read {}: {e}", golden.display())),
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::PathBuf;

    fn results_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    fn f2() -> &'static Experiment {
        find("F2").expect("F2 is a row")
    }

    #[test]
    fn ids_and_names_are_unique_and_match_the_committed_results() {
        let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len());
        assert_eq!(names.len(), EXPERIMENTS.len());
        let committed: BTreeSet<String> = std::fs::read_dir(results_dir())
            .expect("results/ is committed")
            .map(|entry| entry.expect("readable entry").path())
            .filter(|path| path.is_file())
            .map(|path| path.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        let expected: BTreeSet<String> = names.iter().map(|n| format!("{n}.json")).collect();
        assert_eq!(committed, expected);
    }

    #[test]
    fn check_passes_on_the_committed_golden() {
        check(f2(), &results_dir().join("fig2_lower_bound.json")).unwrap();
    }

    #[test]
    fn check_fails_on_a_golden_altered_by_one_byte() {
        let golden = std::fs::read(results_dir().join("fig2_lower_bound.json")).unwrap();
        let mut altered = golden.clone();
        let at = altered
            .iter()
            .position(|&b| b == b'A')
            .expect("F2 names node A");
        altered[at] = b'Z';
        let path = std::env::temp_dir().join(format!("f2-golden-{}.json", std::process::id()));
        std::fs::write(&path, altered).unwrap();
        let err = check(f2(), &path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err, format!("report differs from {}", path.display()));
    }

    #[test]
    fn check_fails_when_a_verdict_clause_is_false() {
        fn forced(workers: usize) -> Run {
            let mut run = (find("F2").unwrap().run)(workers);
            run.verdict.require("forced false", false);
            run
        }
        let exp = Experiment {
            run: forced,
            ..*f2()
        };
        let err = check(&exp, &results_dir().join("fig2_lower_bound.json")).unwrap_err();
        assert_eq!(
            err,
            "verdict failed at 1 workers: forced false\nverdict failed at 8 workers: forced false"
        );
    }

    #[test]
    fn pct_formats() {
        use harness::report::pct;
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn tables_do_not_panic() {
        let t = harness::Table::with_rows(
            "t",
            &["a", "bee"],
            vec![vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(
            t.to_ascii(),
            "\n== t ==\na    bee\n---  ---\n1    2\n333  4\n"
        );
        let t = harness::Table::with_rows("t", &["a"], vec![vec!["x".into()]]);
        assert_eq!(t.to_ascii(), "\n== t ==\na\n-\nx\n");
    }

    #[test]
    fn wide_rows_get_real_widths() {
        // Regression: rows wider than the header list used to print at a
        // hard-coded width of 8.
        let t = harness::Table::with_rows(
            "t",
            &["a"],
            vec![vec!["1".into(), "a-wide-trailing-cell".into()]],
        );
        assert!(t.to_ascii().ends_with("1  a-wide-trailing-cell\n"));
    }

    #[test]
    fn verdict_lists_failed_clauses_in_order() {
        let mut v = Verdict::default();
        assert!(v.passed());
        v.require("a", true).require("b", false).require("c", false);
        assert!(!v.passed());
        assert_eq!(v.failed(), ["b", "c"]);
    }
}
