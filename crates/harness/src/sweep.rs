//! Deterministic parallel trial execution.

use obs::{Obs, SpanRecord};
use simnet::SimRng;
use std::time::Instant;

/// Runs independent trials across worker threads with **worker-count
/// independent** results.
///
/// The design rule that makes this work: a trial's randomness comes from
/// [`SimRng::derive`]`(master_seed, trial_index)` — a pure function of the
/// master seed and the trial's index — never from the worker id or any
/// shared mutable state. Workers own contiguous chunks of the result
/// vector (`split_at_mut`), so the output order is the trial-index order
/// regardless of scheduling, and the whole result is bit-identical for 1,
/// 2, or 64 workers (proved by `tests/determinism.rs`).
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    workers: usize,
}

impl Default for SweepRunner {
    /// One worker per available CPU (at least one).
    fn default() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        SweepRunner::new(cpus)
    }
}

impl SweepRunner {
    /// A runner with the given worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        SweepRunner {
            workers: workers.max(1),
        }
    }

    /// A single-threaded runner (useful as the reference in determinism
    /// checks).
    pub fn single_threaded() -> Self {
        SweepRunner::new(1)
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `trials` independent trials, returning their results in trial
    /// order. `trial(index, rng)` receives its own derived generator.
    pub fn run<R, F>(&self, master_seed: u64, trials: usize, trial: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, SimRng) -> R + Sync,
    {
        self.run_observed(master_seed, trials, &mut Obs::disabled(), |i, rng, _| {
            trial(i, rng)
        })
    }

    /// [`SweepRunner::run`] with observability. Each trial receives its
    /// own recorder (same enabled state as `obs`); per-trial recorders
    /// are merged back into `obs` in **trial order**, so every
    /// registry-visible artifact stays worker-count independent. On top
    /// of whatever the trial records, the runner contributes:
    ///
    /// * a `sweep.trial` span per trial (logical cost 1, wall = trial
    ///   elapsed), merged in trial order;
    /// * a `sweep.queue_depth` gauge peaking at the number of trials
    ///   queued, and a `sweep.trials` counter;
    /// * one `sweep.worker` span per worker thread (logical cost = its
    ///   chunk length). These are recorded *after* all trial spans, in
    ///   worker order — deterministic for a fixed worker count, but
    ///   necessarily worker-count-*dependent* detail (they describe the
    ///   fan-out itself); they never touch the registry.
    pub fn run_observed<R, F>(
        &self,
        master_seed: u64,
        trials: usize,
        obs: &mut Obs,
        trial: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, SimRng, &mut Obs) -> R + Sync,
    {
        let enabled = obs.is_enabled();
        let mut results: Vec<Option<(R, Obs)>> = (0..trials).map(|_| None).collect();
        let workers = self.workers.min(trials.max(1));
        let per_worker = trials / workers;
        let remainder = trials % workers;

        let worker_spans = std::thread::scope(|scope| {
            let trial = &trial;
            let mut handles = Vec::new();
            let mut rest = results.as_mut_slice();
            let mut start = 0usize;
            for w in 0..workers {
                let len = per_worker + usize::from(w < remainder);
                let (chunk, tail) = rest.split_at_mut(len);
                rest = tail;
                let base = start;
                handles.push(scope.spawn(move || {
                    let worker_start = if enabled { Some(Instant::now()) } else { None };
                    for (offset, slot) in chunk.iter_mut().enumerate() {
                        let index = base + offset;
                        let rng = SimRng::derive(master_seed, index as u64);
                        let mut trial_obs = if enabled {
                            Obs::enabled()
                        } else {
                            Obs::disabled()
                        };
                        let timer = trial_obs.span("sweep.trial", vec![("trial", index as u64)]);
                        let result = trial(index, rng, &mut trial_obs);
                        trial_obs.finish(timer, 1);
                        *slot = Some((result, trial_obs));
                    }
                    SpanRecord {
                        name: "sweep.worker".into(),
                        args: vec![("worker".into(), w as u64), ("trials".into(), len as u64)],
                        logical: len as u64,
                        wall_nanos: worker_start
                            .map(|s| s.elapsed().as_nanos() as u64)
                            .unwrap_or(0),
                    }
                }));
                start += len;
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect::<Vec<_>>()
        });

        let mut out = Vec::with_capacity(trials);
        for slot in results {
            let (result, trial_obs) =
                slot.expect("every trial slot is filled by exactly one worker");
            obs.merge(&trial_obs);
            out.push(result);
        }
        if enabled {
            obs.add("sweep.trials", trials as u64);
            obs.gauge_max("sweep.queue_depth", trials as i64);
            for span in worker_spans {
                obs.record_span(span);
            }
        }
        out
    }

    /// Maps `f` over `items` in parallel (one derived RNG per item),
    /// returning results in item order. Convenience for grid sweeps where
    /// the "trials" are configuration points rather than repetitions.
    pub fn map<T, R, F>(&self, master_seed: u64, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, SimRng) -> R + Sync,
    {
        self.run(master_seed, items.len(), |i, rng| f(i, &items[i], rng))
    }

    /// [`SweepRunner::map`] with observability — the per-scenario
    /// variant of [`SweepRunner::run_observed`] (each item's `sweep.trial`
    /// span doubles as its scenario span).
    pub fn map_observed<T, R, F>(
        &self,
        master_seed: u64,
        items: &[T],
        obs: &mut Obs,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, SimRng, &mut Obs) -> R + Sync,
    {
        self.run_observed(master_seed, items.len(), obs, |i, rng, trial_obs| {
            f(i, &items[i], rng, trial_obs)
        })
    }

    /// Runs `trials` trials and folds the results in trial order —
    /// deterministic even for non-commutative folds.
    pub fn fold<R, A, F, G>(
        &self,
        master_seed: u64,
        trials: usize,
        trial: F,
        init: A,
        mut fold: G,
    ) -> A
    where
        R: Send,
        F: Fn(usize, SimRng) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        let mut acc = init;
        for r in self.run(master_seed, trials, trial) {
            acc = fold(acc, r);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::ScrubTiming as _;

    fn trial_value(i: usize, mut rng: SimRng) -> u64 {
        rng.below(1_000_000) ^ (i as u64)
    }

    #[test]
    fn results_are_in_trial_order_and_worker_independent() {
        let expected: Vec<u64> = (0..37)
            .map(|i| trial_value(i, SimRng::derive(42, i as u64)))
            .collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = SweepRunner::new(workers).run(42, 37, trial_value);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn zero_trials_is_fine() {
        let got: Vec<u64> = SweepRunner::new(4).run(1, 0, trial_value);
        assert!(got.is_empty());
    }

    #[test]
    fn more_workers_than_trials_is_fine() {
        let got = SweepRunner::new(16).run(7, 3, trial_value);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn map_preserves_item_order() {
        let items = ["a", "bb", "ccc"];
        let got = SweepRunner::new(2).map(0, &items, |i, item, _| (i, item.len()));
        assert_eq!(got, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn fold_is_deterministic() {
        let a = SweepRunner::new(1).fold(9, 100, trial_value, 0u64, u64::wrapping_add);
        let b = SweepRunner::new(8).fold(9, 100, trial_value, 0u64, u64::wrapping_add);
        assert_eq!(a, b);
    }

    /// Runs an observed sweep and returns its recorder with wall times
    /// scrubbed, so observed output can be compared across worker counts.
    fn observed(workers: usize, trials: usize) -> (Vec<u64>, Obs) {
        let mut obs = Obs::enabled();
        let got = SweepRunner::new(workers).run_observed(5, trials, &mut obs, |i, rng, obs| {
            obs.add("trial.work", (i as u64) + 1);
            trial_value(i, rng)
        });
        obs.scrub_timing();
        (got, obs)
    }

    #[test]
    fn observed_run_records_trial_spans_counters_and_gauge() {
        let (got, obs) = observed(3, 7);
        assert_eq!(got, SweepRunner::new(1).run(5, 7, trial_value));
        // 7 trial spans in trial order, then one span per worker.
        let spans: Vec<_> = obs.spans().iter().map(|s| s.name.as_ref()).collect();
        assert_eq!(
            spans,
            [
                ["sweep.trial"; 7].as_slice(),
                ["sweep.worker"; 3].as_slice()
            ]
            .concat()
        );
        for (i, span) in obs.spans().iter().take(7).enumerate() {
            assert_eq!(span.args, vec![("trial".into(), i as u64)]);
            assert_eq!(span.logical, 1);
        }
        let registry = obs.registry();
        assert_eq!(registry.counter("sweep.trials"), 7);
        assert_eq!(registry.counter("trial.work"), (1..=7).sum::<u64>());
        assert_eq!(registry.gauge("sweep.queue_depth"), Some(7));
    }

    #[test]
    fn observed_registry_and_trial_spans_are_worker_count_independent() {
        let (_, reference) = observed(1, 13);
        for workers in [2, 4, 8] {
            let (_, obs) = observed(workers, 13);
            assert_eq!(
                obs.registry(),
                reference.registry(),
                "registry differs at {workers} workers"
            );
            // Trial spans (everything before the worker-fan-out detail)
            // are identical too; only the sweep.worker tail may differ.
            let trial_spans = |o: &Obs| o.spans().iter().take(13).cloned().collect::<Vec<_>>();
            assert_eq!(
                trial_spans(&obs),
                trial_spans(&reference),
                "trial spans differ at {workers} workers"
            );
        }
    }

    #[test]
    fn disabled_obs_records_nothing_in_observed_run() {
        let mut obs = Obs::disabled();
        let got = SweepRunner::new(4).run_observed(5, 9, &mut obs, |i, rng, obs| {
            obs.add("trial.work", 1);
            trial_value(i, rng)
        });
        assert_eq!(got.len(), 9);
        assert!(obs.spans().is_empty());
        assert!(obs.registry().is_empty());
    }

    #[test]
    fn map_observed_passes_items_in_order() {
        let items = [10u64, 20, 30];
        let mut obs = Obs::enabled();
        let got = SweepRunner::new(2).map_observed(0, &items, &mut obs, |i, item, _, _| (i, *item));
        assert_eq!(got, vec![(0, 10), (1, 20), (2, 30)]);
        assert_eq!(obs.registry().counter("sweep.trials"), 3);
    }
}
