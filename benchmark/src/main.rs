//! The repository's performance ledger.
//!
//! * `--workload W --seed N (--seconds S | --ops K) --trace 0|1` — one
//!   pass over one workload in this process; the last line of standard
//!   output is the result as one JSON object.
//! * `run [--seed S] [--smoke] [--out FILE]` — every workload, end to end
//!   and traced, each pass in its own child process.
//! * `compare BASE.json NEW.json` — the regression gate.
//!
//! See `benchmark/README.md`.

mod check;
mod compare;
mod e2e;
mod gen;
mod procfs;
mod report;
mod runall;
mod span;
mod stats;
mod svc;
mod svclayers;
mod wire;
mod wirelayers;

use e2e::Budget;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  dagree-benchmark --workload <name> --seed <n> (--seconds <s> | --ops <k>) --trace <0|1>
  dagree-benchmark run [--seed <n>] [--smoke] [--out <file>]
  dagree-benchmark compare <base.json> <new.json>
workloads: svc_faultfree_n13 svc_byzantine_n13 svc_small_n5 wire_tcp_n7";

/// `--flag value` pairs and bare words of a command line.
struct Args(Vec<String>);

impl Args {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read `{v}`")))
            .transpose()
    }

    fn flag(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

/// One pass over one workload, in this process.
fn run_pass(mut args: Args) -> Result<bool, String> {
    let workload = args.value("--workload")?.ok_or("--workload is required")?;
    let seed: u64 = args.parsed("--seed")?.ok_or("--seed is required")?;
    let traced = match args.value("--trace")?.as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let budget = match (
        args.parsed::<f64>("--seconds")?,
        args.parsed::<u64>("--ops")?,
    ) {
        (Some(s), None) if s > 0.0 => Budget::Seconds(s),
        (None, Some(k)) if k > 0 => Budget::Ops(k),
        _ => return Err("give exactly one of --seconds <s> or --ops <k>, above zero".into()),
    };
    args.finish()?;

    let trace_path = runall::trace_path(&workload);
    let report = if workload == gen::WIRE_TCP_N7.name {
        if traced {
            wire::run_traced(&gen::WIRE_TCP_N7, seed, budget, &trace_path)
        } else {
            wire::run_end_to_end(&gen::WIRE_TCP_N7, seed, budget)
        }
    } else {
        let spec = gen::SVC_WORKLOADS
            .iter()
            .find(|s| s.name == workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?;
        if traced {
            svc::run_traced(spec, seed, budget, &trace_path)
        } else {
            svc::run_end_to_end(spec, seed, budget)
        }
    };

    report.print();
    if traced {
        println!("  spans written to {}", trace_path.display());
    }
    let detail = runall::detail_path(&workload, traced);
    std::fs::create_dir_all(runall::out_dir())
        .and_then(|()| std::fs::write(&detail, report.to_json().to_json_string() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", detail.display()))?;
    println!("{}", report.driver_line());
    Ok(report.correct())
}

fn run_all(mut args: Args) -> Result<bool, String> {
    let seed = args.parsed("--seed")?.unwrap_or(runall::DEFAULT_SEED);
    let smoke = args.flag("--smoke");
    let out = args
        .value("--out")?
        .map_or_else(|| runall::out_dir().join("result.json"), PathBuf::from);
    args.finish()?;
    runall::run_all(seed, smoke, &out)
}

fn compare(args: Args) -> Result<bool, String> {
    let [base, new] = args.0.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| compare::parse_result(&text).map_err(|e| format!("{path}: {e}")))
    };
    Ok(compare::compare(&load(base)?, &load(new)?))
}

fn main() -> ExitCode {
    let mut words: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match words.first().map(String::as_str) {
        Some("run") => run_all(Args(words.split_off(1))),
        Some("compare") => compare(Args(words.split_off(1))),
        Some(_) => run_pass(Args(words)),
        None => Err("no arguments".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("dagree-benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
