//! Implementation of the `dagree` command-line explorer.
//!
//! Argument parsing is hand-rolled (no external dependency) and lives in
//! [`args`]; each subcommand is a function in [`commands`] returning the
//! text to print, which keeps everything unit-testable without spawning
//! processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{parse_args, Command, ParseError};

/// Why `dagree` did not succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The arguments did not parse: the message and the usage text.
    Usage(String),
    /// The command ran and its verdict failed: its full output.
    Failed(String),
}

impl Error {
    /// The process exit code: 2 for a usage error, 1 for a failed verdict.
    pub fn exit_code(&self) -> i32 {
        match self {
            Error::Usage(_) => 2,
            Error::Failed(_) => 1,
        }
    }
}

/// Entry point shared by the binary and the tests: parse and dispatch.
///
/// # Errors
///
/// [`Error::Usage`] when the arguments are invalid, [`Error::Failed`] when
/// a fuzz campaign, replay, experiment or check fails.
pub fn run(argv: &[String]) -> Result<String, Error> {
    let cmd = parse_args(argv).map_err(|e| Error::Usage(format!("{e}\n\n{}", args::USAGE)))?;
    commands::dispatch(&cmd).map_err(Error::Failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_dispatches_table() {
        let out = run(&sv(&["table"])).unwrap();
        assert!(out.contains("minimum nodes"));
    }

    #[test]
    fn run_reports_parse_errors_with_usage() {
        let err = run(&sv(&["bogus"])).unwrap_err();
        let Error::Usage(text) = &err else {
            panic!("{err:?}")
        };
        assert!(text.contains("unknown subcommand"));
        assert!(text.contains("USAGE"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn empty_argv_prints_usage() {
        assert!(run(&[]).unwrap().contains("USAGE"));
    }

    fn failed(argv: &[&str]) -> String {
        match run(&sv(argv)) {
            Err(Error::Failed(text)) => text,
            other => panic!("{argv:?}: {other:?}"),
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dagree-{tag}-{}", std::process::id()))
    }

    #[test]
    fn every_seeded_mutant_is_caught_and_its_repro_replays() {
        let dir = temp_dir("mutants");
        for mutant in harness::fuzz::ALL_MUTATIONS {
            let repros = dir.join(mutant.name());
            let out = run(&sv(&[
                "fuzz",
                "--budget",
                "16",
                "--seed",
                "7",
                "--max-n",
                "6",
                "--mutate",
                mutant.name(),
                "--repro-dir",
                repros.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("MUTANT CAUGHT"), "{out}");
            let repro = std::fs::read_dir(&repros)
                .unwrap()
                .next()
                .expect("a repro is written")
                .unwrap()
                .path();
            let replay = run(&sv(&["fuzz", "--replay", repro.to_str().unwrap()])).unwrap();
            assert!(replay.contains("REPRODUCED"), "{replay}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_verdicts_are_errors_with_exit_code_one() {
        // A mutant no execution can catch: the campaign runs nothing.
        let text = failed(&["fuzz", "--budget", "0", "--mutate", "early-decision"]);
        assert!(text.contains("MUTANT MISSED"), "{text}");
        assert_eq!(Error::Failed(text).exit_code(), 1);
        // A replay that cannot read its file.
        let text = failed(&["fuzz", "--replay", "/nonexistent/repro.json"]);
        assert!(text.starts_with("error: cannot read"), "{text}");
        // A replay that no longer reproduces: a committed mutant repro
        // replayed without its mutant.
        let committed = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/repros/repro-00000000f0544a11-0.json"
        );
        let text = std::fs::read_to_string(committed).unwrap();
        let fixed = text.replace("\"mutation\":\"wrong-value-relay\"", "\"mutation\":null");
        assert_ne!(fixed, text);
        let dir = temp_dir("replay");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fixed.json");
        std::fs::write(&path, fixed).unwrap();
        let text = failed(&["fuzz", "--replay", path.to_str().unwrap()]);
        std::fs::remove_dir_all(&dir).ok();
        assert!(text.contains("NO LONGER REPRODUCES"), "{text}");
        // An experiment asked for a trace it does not record.
        let dir = temp_dir("exp-trace");
        let out = dir.join("f2.json");
        let trace = dir.join("f2.trace.json");
        let text = failed(&[
            "exp",
            "F2",
            "--out",
            out.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]);
        std::fs::remove_dir_all(&dir).ok();
        assert!(text.ends_with("error: F2 records no trace"), "{text}");
    }

    #[test]
    fn exp_writes_the_committed_report() {
        let dir = temp_dir("exp");
        let out = dir.join("f2.json");
        let text = run(&sv(&[
            "exp",
            "F2",
            "--workers",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(text.contains("== indistinguishability"), "{text}");
        assert!(text.ends_with("verdict: pass"), "{text}");
        let written = std::fs::read(&out).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let committed = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/fig2_lower_bound.json"
        );
        assert_eq!(written, std::fs::read(committed).unwrap());
    }

    #[test]
    fn the_e14_trace_reads_back_through_obs() {
        let dir = temp_dir("e14");
        let out = dir.join("perf_baseline.json");
        let trace = dir.join("perf_baseline.trace.json");
        let (out, trace) = (out.to_str().unwrap(), trace.to_str().unwrap());
        run(&sv(&["exp", "E14", "--out", out, "--trace-out", trace])).unwrap();
        let summary = run(&sv(&["obs", trace, "--top", "10"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(summary.contains("bench.cell"), "{summary}");
        assert!(summary.contains("eig.votes_memo_hit"), "{summary}");
    }
}
