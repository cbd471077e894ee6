//! Minimal command-line overrides shared by every experiment binary.

use std::path::PathBuf;

/// Overrides parsed from an experiment binary's command line.
///
/// Recognized flags (both `--flag value` and `--flag=value`):
///
/// * `--trials N` — trial count override (CI smoke runs use a small one);
/// * `--workers N` — worker-thread count for [`crate::SweepRunner`];
/// * `--seed N` — master seed;
/// * `--max-n N` — cap on the sweep's node count (CI smoke runs trim);
/// * `--out PATH` — where to write the JSON report (default
///   `results/<experiment>.json`);
/// * `--trace-out PATH` — where to write a Chrome `trace_event` file of
///   the run's observability spans (off when absent; `cli obs PATH`
///   summarizes the result).
///
/// Unknown arguments are ignored so binaries can add their own flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunArgs {
    /// `--trials` override.
    pub trials: Option<usize>,
    /// `--workers` override.
    pub workers: Option<usize>,
    /// `--seed` override.
    pub seed: Option<u64>,
    /// `--max-n` override.
    pub max_n: Option<usize>,
    /// `--out` override.
    pub out: Option<PathBuf>,
    /// `--trace-out` override.
    pub trace_out: Option<PathBuf>,
}

impl RunArgs {
    /// Parses the process's command line (skipping `argv[0]`).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (used by tests).
    pub fn parse_from<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = RunArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            let (flag, value) = if let Some((flag, value)) = arg.split_once('=') {
                (flag.to_string(), value.to_string())
            } else if matches!(
                arg,
                "--trials" | "--workers" | "--seed" | "--max-n" | "--out" | "--trace-out"
            ) {
                match iter.next() {
                    Some(v) => (arg.to_string(), v.as_ref().to_string()),
                    None => break,
                }
            } else {
                continue;
            };
            match flag.as_str() {
                "--trials" => out.trials = value.parse().ok(),
                "--workers" => out.workers = value.parse().ok(),
                "--seed" => out.seed = value.parse().ok(),
                "--max-n" => out.max_n = value.parse().ok(),
                "--out" => out.out = Some(PathBuf::from(value)),
                "--trace-out" => out.trace_out = Some(PathBuf::from(value)),
                _ => {}
            }
        }
        out
    }

    /// The trial count, with `default` when not overridden.
    pub fn trials_or(&self, default: usize) -> usize {
        self.trials.unwrap_or(default)
    }

    /// The worker count, with `default` when not overridden.
    pub fn workers_or(&self, default: usize) -> usize {
        self.workers.unwrap_or(default)
    }

    /// The master seed, with `default` when not overridden.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The node-count cap, with `default` when not overridden.
    pub fn max_n_or(&self, default: usize) -> usize {
        self.max_n.unwrap_or(default)
    }

    /// The report output path override, if any.
    pub fn out_path(&self) -> Option<&std::path::Path> {
        self.out.as_deref()
    }

    /// The trace output path, if `--trace-out` was given.
    pub fn trace_out_path(&self) -> Option<&std::path::Path> {
        self.trace_out.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_flag_styles() {
        let a = RunArgs::parse_from([
            "--trials",
            "50",
            "--seed=9",
            "--out",
            "results/x.json",
            "--max-n",
            "10",
        ]);
        assert_eq!(a.trials, Some(50));
        assert_eq!(a.seed, Some(9));
        assert_eq!(a.max_n_or(16), 10);
        assert_eq!(a.out, Some(PathBuf::from("results/x.json")));
        assert_eq!(a.workers, None);
    }

    #[test]
    fn unknown_flags_are_ignored() {
        let a = RunArgs::parse_from(["--verbose", "--workers=3", "positional"]);
        assert_eq!(a.workers, Some(3));
        assert_eq!(a.trials, None);
    }

    #[test]
    fn defaults_apply() {
        let a = RunArgs::default();
        assert_eq!(a.trials_or(100), 100);
        assert_eq!(a.workers_or(4), 4);
        assert_eq!(a.seed_or(7), 7);
        assert!(a.out_path().is_none());
    }

    #[test]
    fn garbage_values_fall_back_to_none() {
        let a = RunArgs::parse_from(["--trials", "not-a-number"]);
        assert_eq!(a.trials, None);
    }

    #[test]
    fn trace_out_parses_in_both_styles() {
        let a = RunArgs::parse_from(["--trace-out", "trace.json"]);
        assert_eq!(a.trace_out_path(), Some(std::path::Path::new("trace.json")));
        let b = RunArgs::parse_from(["--trace-out=t.json"]);
        assert_eq!(b.trace_out, Some(PathBuf::from("t.json")));
        assert!(RunArgs::default().trace_out_path().is_none());
    }
}
