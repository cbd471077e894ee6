//! `run`: every workload in its own child process (so set-up time and
//! peak memory belong to that workload), first untraced for the
//! end-to-end metrics, then a shorter traced pass for the per-layer ones.
//! Fixed operation counts, so that counts repeat exactly for a seed.

use crate::gen::WORKLOAD_NAMES;
use crate::report::PassReport;
use obs::JsonValue;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Schema tag of the result file.
pub const RESULT_SCHEMA: &str = "dagree-benchmark-result";

/// The seed `run` uses when none is given.
pub const DEFAULT_SEED: u64 = 42;

/// Operations of the end-to-end pass per workload, sized on the commit
/// that added the benchmark for roughly 25 to 35 seconds each on a 2-core
/// box. Every workload keeps at least 240 latency samples.
pub const FULL_OPS: [u64; 4] = [3000, 3000, 4000, 240];

/// The traced pass runs this share of the operations.
const TRACED_DIVISOR: u64 = 4;

/// `--smoke` gives every pass this many seconds instead of a fixed
/// operation count — about a fiftieth of the full run.
const SMOKE_SECONDS: &str = "1";

/// Where passes leave their detail and trace files: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The detail file one pass over one workload writes.
pub fn detail_path(workload: &str, traced: bool) -> PathBuf {
    let pass = if traced { "layers" } else { "e2e" };
    out_dir().join(format!("{workload}.{pass}.json"))
}

/// The trace file the traced pass over one workload writes.
pub fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("{workload}.trace.json"))
}

fn run_pass(
    workload: &str,
    seed: u64,
    budget: [&str; 2],
    traced: bool,
) -> Result<(PassReport, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let detail = detail_path(workload, traced);
    // A stale file from an earlier run must not pass for this one's.
    let _ = std::fs::remove_file(&detail);
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(budget)
        .args(["--trace", if traced { "1" } else { "0" }])
        .status()
        .map_err(|e| format!("cannot start the {workload} pass: {e}"))?;
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("{workload}: no report at {}: {e}", detail.display()))?;
    let report = PassReport::from_json(&JsonValue::parse(&text)?)?;
    println!();
    Ok((report, status.success()))
}

fn budget_args(smoke: bool, ops: &str) -> [&str; 2] {
    if smoke {
        ["--seconds", SMOKE_SECONDS]
    } else {
        ["--ops", ops]
    }
}

/// Runs everything and writes the result file. `Ok(true)` when every
/// operation of every pass passed verification.
pub fn run_all(seed: u64, smoke: bool, out: &Path) -> Result<bool, String> {
    let mut all_correct = true;
    let mut unstable = Vec::new();
    let mut workloads = Vec::new();
    for (name, full_ops) in WORKLOAD_NAMES.iter().zip(FULL_OPS) {
        let (ops, traced_ops) = (
            full_ops.to_string(),
            (full_ops / TRACED_DIVISOR).to_string(),
        );
        let (end_to_end, ok) = run_pass(name, seed, budget_args(smoke, &ops), false)?;
        all_correct &= ok && end_to_end.correct();
        let (per_layer, ok) = run_pass(name, seed, budget_args(smoke, &traced_ops), true)?;
        all_correct &= ok && per_layer.correct();
        unstable.extend(end_to_end.unstable.iter().map(|m| format!("{m} on {name}")));
        workloads.push(JsonValue::Object(vec![
            ("name".into(), (*name).into()),
            ("end_to_end".into(), end_to_end.to_json()),
            ("per_layer".into(), per_layer.to_json()),
        ]));
    }
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let result = JsonValue::Object(vec![
        ("schema".into(), RESULT_SCHEMA.into()),
        ("version".into(), 1u64.into()),
        ("seed".into(), seed.into()),
        ("smoke".into(), smoke.into()),
        ("available_parallelism".into(), parallelism.into()),
        ("workloads".into(), JsonValue::Array(workloads)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, result.to_json_string() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("result written to {}", out.display());
    if !unstable.is_empty() {
        println!(
            "unstable (the run's segments disagree by more than the bound): {}",
            unstable.join("; ")
        );
    }
    println!(
        "{}",
        if all_correct {
            "run: every operation passed verification"
        } else {
            "run: VERIFICATION FAILED"
        }
    );
    Ok(all_correct)
}
