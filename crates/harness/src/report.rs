//! Experiment reporting: ASCII tables and versioned JSON files under
//! `results/`.
//!
//! ## The JSON schema
//!
//! Every report file is a single JSON object:
//!
//! ```json
//! {
//!   "schema": "degradable-harness-report",
//!   "version": 8,
//!   "experiment": "reliability",
//!   "meta": { "master_seed": 232, "trials": 4000 },
//!   "metrics": { "p_incorrect_overall": 0.0 },
//!   "perf": { "eig_votes_evaluated": 1200, "eig_votes_memo_hit": 3400 },
//!   "obs": { "counters": { "sweep.trials": 4000 } },
//!   "tables": [
//!     { "title": "...", "headers": ["..."], "rows": [["..."]] }
//!   ]
//! }
//! ```
//!
//! `schema`/`version` are bumped together on breaking changes so report
//! consumers can dispatch. Key order is insertion order (deterministic),
//! which keeps byte-identical reports for identical runs — the property
//! the determinism test asserts.
//!
//! ### Version history
//!
//! * **v8** — reports are goldens. `meta` records no run parameter that
//!   leaves the result unchanged (the worker count is gone), so a report
//!   is byte-identical for any `--workers` value and the committed
//!   `results/*.json` are compared byte for byte.
//! * **v7** — exact histograms. Histograms in the `obs` section carry
//!   exact `min`/`max` (emitted when non-empty) and no estimates.
//! * **v6** — SLO-aware reports. An optional `slo` object sits between
//!   `obs` and `tables`, carrying an evaluated [`crate::slo::SloSpec`]
//!   (`{"name", "passed", "objectives": [...]}` — see
//!   [`crate::slo::SloReport::to_json`]) recorded via [`Report::set_slo`].
//!   SLO verdicts are integer arithmetic over the deterministic registry,
//!   so the section is bit-identical across worker counts; it is omitted
//!   when no spec was evaluated, leaving a v5-shaped body under the v6
//!   tag.
//! * **v5** — annotated registry snapshots. Histograms in the `obs`
//!   section gained `count`, `sum`, and fixed-point estimates
//!   interpolated from the buckets (dropped in v7). Purely additive
//!   inside the `obs` object, but strict consumers that enumerated
//!   histogram keys had to skip the annotations, hence the bump.
//! * **v4** — observability-aware reports. An optional `obs` object sits
//!   between `perf` and `tables`, carrying an [`obs::Registry`] snapshot
//!   (sorted-name counters/gauges/histograms — see
//!   `obs::Registry::to_json`) recorded via [`Report::set_obs_registry`].
//!   The registry holds only deterministic quantities, so the section is
//!   bit-identical across `--workers` values; it is omitted when the
//!   registry is empty (or never set), leaving a v3-shaped body under the
//!   v4 tag. `JsonValue` is now re-exported from the `obs` crate rather
//!   than defined here — same shape, same serialization.
//! * **v3** — perf-aware reports. An optional `perf` object sits between
//!   `metrics` and `tables`, carrying deterministic work counters from
//!   the arena-backed EIG engine (`simnet::EigPerf`: arena nodes, votes
//!   evaluated, votes memo-hit, messages materialized). `perf` is
//!   omitted when empty, so experiments that record nothing there emit
//!   a v2-shaped body under the v3 version tag. Reports remain
//!   bit-identical across `--workers` values: only deterministic
//!   counters belong in `perf`.
//! * **v2** — chaos-aware reports. Experiments that inject link faults
//!   record per-trial injected-fault counts in `meta`/`metrics`
//!   (`injected_faults_total`, plus per-kind counters such as
//!   `dropped_link_cut`, `dropped_link_loss`, `duplicated`, `reordered`,
//!   `corrupted`, `dropped_corrupt` where the experiment surfaces them).
//!   The envelope layout (`schema`/`version`/`experiment`/`meta`/
//!   `metrics`/`tables`) is unchanged, so v1 consumers that ignore unknown
//!   keys keep working; strict consumers dispatch on `version`.
//! * **v1** — initial envelope.
//!
//! JSON emission is hand-rolled (the vendored `serde` is derive-only, see
//! `vendor/README.md`): reports build [`JsonValue`] trees, re-exported
//! from the zero-dependency `obs` crate since schema v4 so report bodies
//! and registry snapshots share one value model.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// The JSON value model (insertion-ordered object keys), shared with the
/// observability layer. Re-exported so existing `harness::report::JsonValue`
/// users keep compiling.
pub use obs::JsonValue;

/// Identifier of the report file format.
const SCHEMA: &str = "degradable-harness-report";

/// Version of the report file format; bump on breaking layout changes.
/// See the module docs for the version history.
const SCHEMA_VERSION: u64 = 8;

/// A titled table: the unit shared by ASCII printing and JSON reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; rows may be wider than the header list.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A table populated with the given rows (the common case in
    /// experiments that build all rows up front).
    pub fn with_rows(title: impl Into<String>, headers: &[&str], rows: Vec<Vec<String>>) -> Self {
        let mut table = Table::new(title, headers);
        table.rows = rows;
        table
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Column widths sized from the widest cell in *any* row — including
    /// rows wider than the header list, which previously fell back to a
    /// hard-coded width of 8.
    fn column_widths(&self) -> Vec<usize> {
        let columns = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }

    /// The table rendered as fixed-width ASCII (title banner, header row,
    /// separator, data rows; trailing newline): what `dagree exp` prints,
    /// and `dagree obs` reuses it for trace summaries.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let widths = self.column_widths();
        let fmt_row = |out: &mut String, cells: &[String]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(cell.len());
                let _ = write!(line, "{:<w$}  ", cell, w = w);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        };
        fmt_row(&mut out, &self.headers);
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// The table as a JSON object (`title`, `headers`, `rows`).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("title".into(), self.title.as_str().into()),
            (
                "headers".into(),
                JsonValue::Array(self.headers.iter().map(|h| h.as_str().into()).collect()),
            ),
            (
                "rows".into(),
                JsonValue::Array(
                    self.rows
                        .iter()
                        .map(|r| JsonValue::Array(r.iter().map(|c| c.as_str().into()).collect()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A versioned experiment report: metadata, scalar metrics, and tables.
/// Build one per experiment run; [`Report::tables`] is what a human
/// reads, [`Report::write`] what the machines do.
#[derive(Debug, Clone, Default)]
pub struct Report {
    experiment: String,
    meta: Vec<(String, JsonValue)>,
    metrics: Vec<(String, JsonValue)>,
    perf: Vec<(String, JsonValue)>,
    obs: obs::Registry,
    slo: Option<crate::slo::SloReport>,
    tables: Vec<Table>,
}

impl Report {
    /// A report for the named experiment.
    pub fn new(experiment: impl Into<String>) -> Self {
        Report {
            experiment: experiment.into(),
            ..Report::default()
        }
    }

    /// Records a metadata field (seed, trial count, sweep size, ...).
    /// Re-setting a key overwrites it in place (order preserved).
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        let (key, value) = (key.into(), value.into());
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.meta.push((key, value));
        }
        self
    }

    /// Records a scalar result metric. Re-setting a key overwrites it.
    pub fn set_metric(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        let (key, value) = (key.into(), value.into());
        if let Some(slot) = self.metrics.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.metrics.push((key, value));
        }
        self
    }

    /// Records a perf counter (schema v3). Re-setting a key overwrites
    /// it in place. The `perf` object is emitted only when at least one
    /// counter was recorded. Record deterministic counters only, so
    /// reports stay bit-identical across worker counts.
    fn set_perf(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        let (key, value) = (key.into(), value.into());
        if let Some(slot) = self.perf.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.perf.push((key, value));
        }
        self
    }

    /// Records the four deterministic counters of a
    /// [`simnet::EigPerf`] under `eig_`-prefixed keys; its wall-time
    /// stamps never enter the report.
    pub fn set_eig_perf(&mut self, perf: &simnet::EigPerf) -> &mut Self {
        self.set_perf("eig_arena_nodes", perf.arena_nodes)
            .set_perf("eig_votes_evaluated", perf.votes_evaluated)
            .set_perf("eig_votes_memo_hit", perf.votes_memo_hit)
            .set_perf("eig_messages_materialized", perf.messages_materialized)
    }

    /// Merges an [`obs::Registry`] snapshot into the report's `obs`
    /// section (schema v4). Counters add, gauges keep their max, and
    /// histograms merge bucket-wise, so calling this once per phase
    /// accumulates. The section is emitted only when non-empty. Registries
    /// hold deterministic quantities by construction, so this keeps
    /// reports bit-identical across worker counts.
    pub fn set_obs_registry(&mut self, registry: &obs::Registry) -> &mut Self {
        self.obs.merge(registry);
        self
    }

    /// Records an evaluated SLO spec (schema v6). The `slo` section is
    /// emitted only when set; a second call replaces the first (one
    /// verdict per report — evaluate one composite spec if an experiment
    /// gates on several objectives).
    pub fn set_slo(&mut self, slo: crate::slo::SloReport) -> &mut Self {
        self.slo = Some(slo);
        self
    }

    /// Appends a table.
    pub fn add_table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// The tables recorded so far.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// The full report as a JSON value (see the module docs for the
    /// schema).
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("schema".into(), SCHEMA.into()),
            ("version".into(), SCHEMA_VERSION.into()),
            ("experiment".into(), self.experiment.as_str().into()),
            ("meta".into(), JsonValue::Object(self.meta.clone())),
            ("metrics".into(), JsonValue::Object(self.metrics.clone())),
        ];
        if !self.perf.is_empty() {
            fields.push(("perf".into(), JsonValue::Object(self.perf.clone())));
        }
        if !self.obs.is_empty() {
            fields.push(("obs".into(), self.obs.to_json()));
        }
        if let Some(slo) = &self.slo {
            fields.push(("slo".into(), slo.to_json()));
        }
        fields.push((
            "tables".into(),
            JsonValue::Array(self.tables.iter().map(Table::to_json).collect()),
        ));
        JsonValue::Object(fields)
    }

    /// The full report as compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }

    /// The default output path: `results/<experiment>.json`.
    fn default_path(&self) -> PathBuf {
        PathBuf::from("results").join(format!("{}.json", self.experiment))
    }

    /// Writes the report to `path` (creating parent directories), or to
    /// `results/<experiment>.json` when `path` is `None`. Returns the path
    /// written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory creation or the write.
    pub fn write(&self, path: Option<&Path>) -> io::Result<PathBuf> {
        let path = path.map_or_else(|| self.default_path(), Path::to_path_buf);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut text = self.to_json_string();
        text.push('\n');
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_json_value_serializes_like_before() {
        // The v4 change swapped the local JsonValue for obs::JsonValue;
        // this pins the serialization contract consumers relied on (the
        // exhaustive escaping tests live in the obs crate).
        let v = JsonValue::Object(vec![
            ("s".into(), "a\"b".into()),
            ("u".into(), JsonValue::UInt(u64::MAX)),
            ("a".into(), vec![1u64, 2].into()),
        ]);
        assert_eq!(
            v.to_json_string(),
            "{\"s\":\"a\\\"b\",\"u\":18446744073709551615,\"a\":[1,2]}"
        );
    }

    #[test]
    fn wide_rows_size_the_columns() {
        // The regression this fixes: a row with more cells than headers
        // used to be printed at a hard-coded width of 8.
        let mut t = Table::new("t", &["a"]);
        t.push_row(vec!["x".into(), "a-cell-much-wider-than-8".into()]);
        let widths = t.column_widths();
        assert_eq!(widths.len(), 2);
        assert_eq!(widths[1], "a-cell-much-wider-than-8".len());
        assert!(t.to_ascii().ends_with("x  a-cell-much-wider-than-8\n"));
    }

    #[test]
    fn report_json_is_versioned_and_ordered() {
        let mut r = Report::new("smoke");
        r.set_meta("master_seed", 7u64)
            .set_meta("trials", 10usize)
            .set_metric("p", 0.5);
        let mut t = Table::new("tab", &["h"]);
        t.push_row(vec!["v".into()]);
        r.add_table(t);
        let json = r.to_json_string();
        assert!(json.starts_with(
            "{\"schema\":\"degradable-harness-report\",\"version\":8,\"experiment\":\"smoke\""
        ));
        assert!(json.contains("\"meta\":{\"master_seed\":7,\"trials\":10}"));
        assert!(json.contains("\"metrics\":{\"p\":0.5}"));
        assert!(json.contains("\"tables\":[{\"title\":\"tab\""));
        // Nothing recorded in the optional sections: all are omitted.
        assert!(!json.contains("\"perf\""));
        assert!(!json.contains("\"obs\""));
        assert!(!json.contains("\"slo\""));
    }

    #[test]
    fn slo_section_sits_between_obs_and_tables() {
        let mut r = Report::new("gated");
        let mut reg = obs::Registry::default();
        reg.add("sweep.trials", 9);
        r.set_obs_registry(&reg);
        r.set_slo(
            crate::slo::SloSpec::new("gate")
                .counter_at_least("sweep.trials", 9)
                .evaluate(&reg),
        );
        let json = r.to_json_string();
        assert!(json.contains(
            "\"obs\":{\"counters\":{\"sweep.trials\":9}},\
             \"slo\":{\"name\":\"gate\",\"passed\":true,\"objectives\":[\
             {\"objective\":\"sweep.trials >= 9\",\"observed\":9,\"pass\":true}]},\"tables\":[]"
        ));
    }

    #[test]
    fn perf_section_sits_between_metrics_and_tables() {
        let mut r = Report::new("perf");
        r.set_metric("p", 1u64);
        r.set_eig_perf(&simnet::EigPerf {
            arena_nodes: 3,
            votes_evaluated: 4,
            votes_memo_hit: 5,
            messages_materialized: 6,
            fill_nanos: 999,
            resolve_nanos: 999,
        });
        r.set_perf("eig_votes_memo_hit", 7u64); // overwrite in place
        let json = r.to_json_string();
        assert!(json.contains(
            "\"metrics\":{\"p\":1},\"perf\":{\"eig_arena_nodes\":3,\"eig_votes_evaluated\":4,\
             \"eig_votes_memo_hit\":7,\"eig_messages_materialized\":6},\"tables\":[]"
        ));
        // Wall times never leak through set_eig_perf.
        assert!(!json.contains("999"));
    }

    #[test]
    fn obs_section_sits_between_perf_and_tables_and_accumulates() {
        let mut r = Report::new("obs");
        r.set_metric("p", 1u64);
        r.set_perf("eig_arena_nodes", 3u64);
        let mut phase1 = obs::Registry::default();
        phase1.add("sweep.trials", 10);
        let mut phase2 = obs::Registry::default();
        phase2.add("sweep.trials", 5);
        phase2.set_gauge("sweep.queue_depth", 5);
        r.set_obs_registry(&phase1).set_obs_registry(&phase2);
        let json = r.to_json_string();
        // Counters added across the two merges; section between perf and
        // tables.
        assert!(json.contains(
            "\"perf\":{\"eig_arena_nodes\":3},\
             \"obs\":{\"counters\":{\"sweep.trials\":15},\
             \"gauges\":{\"sweep.queue_depth\":5}},\"tables\":[]"
        ));
    }

    #[test]
    fn to_ascii_matches_print_shape() {
        let mut t = Table::new("title", &["h1", "long-header"]);
        t.push_row(vec!["a".into(), "b".into()]);
        let ascii = t.to_ascii();
        assert!(ascii.starts_with("\n== title ==\n"));
        assert!(ascii.contains("h1  long-header"));
        assert!(ascii.contains("--  -----------"));
        assert!(ascii.ends_with("a   b\n"));
        // A data cell wider than its header widens the column.
        let t = Table::with_rows(
            "t",
            &["a", "bee"],
            vec![vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(
            t.to_ascii(),
            "\n== t ==\na    bee\n---  ---\n1    2\n333  4\n"
        );
    }

    #[test]
    fn set_meta_overwrites_in_place() {
        let mut r = Report::new("x");
        r.set_meta("k", 1u64)
            .set_meta("j", 2u64)
            .set_meta("k", 3u64);
        let json = r.to_json_string();
        assert!(json.contains("\"meta\":{\"k\":3,\"j\":2}"));
    }

    #[test]
    fn write_creates_results_dir() {
        let dir = std::env::temp_dir().join(format!("harness-report-{}", std::process::id()));
        let path = dir.join("nested").join("r.json");
        let r = Report::new("t");
        let written = r.write(Some(&path)).unwrap();
        let text = std::fs::read_to_string(&written).unwrap();
        assert!(text.ends_with("}\n"));
        assert_eq!(written, path);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_path_is_under_results() {
        assert_eq!(
            Report::new("reliability").default_path(),
            PathBuf::from("results/reliability.json")
        );
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
