//! The end-to-end pass's bookkeeping, shared by the service and the wire
//! workloads: how long to run, how processor time is compensated for what
//! the rest of the host is doing, and how the operations turn into the
//! reported metrics.

use crate::check::Tally;
use crate::procfs;
use crate::report::{Measured, PassReport, END_TO_END};
use crate::stats::{median, percentile, samples_beyond, Spread};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The yardstick is read every this many operations — exactly: every whole
/// number of the workload's input periods nearest to it. About a tenth to
/// a quarter of a second: short enough to follow a neighbour's bursts.
pub const WINDOW_OPS: usize = 20;

/// What [`yardstick_ns`] reads on the box the benchmark was written on
/// when nothing else runs on the host. Compensated times are what the
/// operation would have taken at that speed.
pub const YARDSTICK_NOMINAL_NS: f64 = 150_000.0;

/// A run is cut into this many equal segments; beside each timing the
/// output shows the smallest and largest segment, and a metric whose
/// segments disagree by more than its bound is listed as unstable.
pub const SEGMENTS: usize = 5;

/// Set-up is repeated in the end-to-end pass until this many seconds have
/// gone into it (or a fifth of a shorter time budget), at least
/// [`SETUP_REPEATS_MIN`] and at most [`SETUP_REPEATS_MAX`] times;
/// `setup_s` is the median.
pub const SETUP_SECONDS: f64 = 2.0;
/// See [`SETUP_SECONDS`].
pub const SETUP_REPEATS_MIN: usize = 5;
/// See [`SETUP_SECONDS`].
pub const SETUP_REPEATS_MAX: usize = 50;

/// One operation in this many is re-decided through `reference_eval`.
pub const REFERENCE_EVERY: u64 = 16;

/// How much to measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Until this many seconds have passed since the first operation
    /// (generation and verification included) — the driver's mode.
    Seconds(f64),
    /// Exactly this many operations — `run`'s mode, so that counts repeat
    /// exactly for a seed.
    Ops(u64),
}

impl Budget {
    /// Whether there is room for another operation, `done` operations and
    /// `started.elapsed()` into the run.
    pub fn allows(self, done: u64, started: Instant) -> bool {
        match self {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() < s,
            Budget::Ops(n) => done < n,
        }
    }

    /// How long set-up may be repeated for.
    pub fn setup_seconds(self) -> f64 {
        match self {
            Budget::Seconds(s) => (s / 5.0).min(SETUP_SECONDS),
            Budget::Ops(_) => SETUP_SECONDS,
        }
    }
}

/// How the timings of a pass are to be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// As measured. For a path that mostly waits (the wire: round barriers,
    /// timers, the kernel's TCP stack), whose wall time does not follow the
    /// processor's speed.
    Wall,
    /// Scaled by the yardstick to the speed of an undisturbed host. For a
    /// path that is processor time only (the service on its simulated
    /// network).
    ///
    /// On a shared 2-core VM the same allocation- and branch-heavy code
    /// runs up to 2.3 times slower, for a fraction of a second or for
    /// minutes, when a neighbour on the host is busy (steal time stays
    /// zero; a dependent multiply chain does not move). Over twelve
    /// 8-second runs of `svc_small_n5` on such an afternoon the median
    /// wave latency ranged over 62 % of its median as measured, and over
    /// 8 % once every window of 21 waves was scaled by the yardstick read
    /// beside it (correlation of the two across windows: 0.94).
    Compensated,
}

/// Times a fixed piece of work that stresses the processor the way the
/// service path does — short-lived heap vectors, ordered-map inserts and
/// walks, branches on `Option`s — and nothing of the repository's code, so
/// that no change to the program can move it. About 0.15 ms.
pub fn yardstick_ns() -> u64 {
    let start = Instant::now();
    let mut sum = 0u64;
    for round in 0..10u64 {
        let mut map: BTreeMap<Vec<u8>, Vec<Option<u64>>> = BTreeMap::new();
        for a in 0..12u8 {
            for b in 0..11u8 {
                map.insert(vec![0, a, b], vec![Some(u64::from(a) + round); 13]);
            }
        }
        for (path, slots) in &map {
            sum += path.len() as u64 + slots.iter().flatten().sum::<u64>();
        }
    }
    black_box(sum);
    start.elapsed().as_nanos() as u64
}

/// The median of five yardstick readings, in nanoseconds.
pub fn read_yardstick() -> f64 {
    let readings: Vec<f64> = (0..5).map(|_| yardstick_ns() as f64).collect();
    median(&readings)
}

/// Times `f`: wall nanoseconds from offering an operation to its
/// decisions.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_nanos() as u64)
}

/// Sets up repeatedly for `seconds_budget` (see [`SETUP_SECONDS`]), keeps
/// the last state, and returns the seconds each repeat took, on `clock`
/// (a compensated repeat is scaled by the yardstick read before and after
/// it).
pub fn measure_setup<S>(
    clock: Clock,
    seconds_budget: f64,
    mut setup: impl FnMut() -> S,
) -> (S, Vec<f64>) {
    let began = Instant::now();
    let mut seconds = Vec::new();
    let mut state = None;
    let mut before = read_yardstick();
    while seconds.len() < SETUP_REPEATS_MIN
        || (seconds.len() < SETUP_REPEATS_MAX && began.elapsed().as_secs_f64() < seconds_budget)
    {
        drop(state.take());
        let start = Instant::now();
        state = Some(setup());
        let wall = start.elapsed().as_secs_f64();
        seconds.push(match clock {
            Clock::Wall => wall,
            Clock::Compensated => {
                let after = read_yardstick();
                let scale = YARDSTICK_NOMINAL_NS / ((before + after) / 2.0);
                before = after;
                wall * scale
            }
        });
    }
    (state.expect("set up at least once"), seconds)
}

#[derive(Debug, Clone, Copy)]
struct Op {
    /// As measured.
    wall_ns: u64,
    /// On the pass's clock; filled in when the operation's window closes.
    clock_ns: f64,
    decided: u64,
    sent: u64,
}

/// Throughput and latency percentiles of a stretch of operations, on the
/// pass's clock — the timing metrics in catalogue order after `setup_s`.
fn timings(ops: &[Op]) -> [f64; 3] {
    let latency_ms: Vec<f64> = ops.iter().map(|op| op.clock_ns / 1e6).collect();
    let decided: u64 = ops.iter().map(|op| op.decided).sum();
    let seconds: f64 = ops.iter().map(|op| op.clock_ns).sum::<f64>() / 1e9;
    [
        decided as f64 / seconds,
        percentile(&latency_ms, 50.0),
        percentile(&latency_ms, 95.0),
    ]
}

/// Collects the timed operations of one end-to-end run.
#[derive(Debug)]
pub struct Recorder {
    budget: Budget,
    window_len: usize,
    started: Instant,
    ops: Vec<Op>,
    /// Operations whose window has closed (a prefix of `ops`).
    closed: usize,
    /// On the compensated clock: every yardstick reading, the last one at
    /// the start of the open window. Empty on the wall clock.
    yardstick: Vec<f64>,
}

impl Recorder {
    /// Starts the measurement now. `period` is how many consecutive
    /// operations make one full cycle of the workload's inputs; the
    /// yardstick is read every whole number of periods (at least one)
    /// nearest to [`WINDOW_OPS`].
    pub fn start(budget: Budget, clock: Clock, period: usize) -> Recorder {
        let period = period.max(1);
        Recorder {
            budget,
            window_len: ((WINDOW_OPS + period / 2) / period).max(1) * period,
            started: Instant::now(),
            ops: Vec::new(),
            closed: 0,
            yardstick: match clock {
                Clock::Wall => Vec::new(),
                Clock::Compensated => vec![read_yardstick()],
            },
        }
    }

    /// Whether the budget has room for another operation.
    pub fn more(&self) -> bool {
        self.budget.allows(self.next_op(), self.started)
    }

    /// Index of the next operation.
    pub fn next_op(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Whether the next operation is one the oracle re-decides.
    pub fn reference_due(&self) -> bool {
        self.next_op().is_multiple_of(REFERENCE_EVERY)
    }

    /// Books one operation that decided `decided` instances with `sent`
    /// protocol envelopes, and closes the window if this was its last.
    pub fn record(&mut self, wall_ns: u64, decided: u64, sent: u64) {
        self.ops.push(Op {
            wall_ns,
            clock_ns: wall_ns as f64,
            decided,
            sent,
        });
        if self.ops.len() - self.closed == self.window_len {
            self.close_window();
        }
    }

    /// Puts the open window's operations on the pass's clock: scaled by
    /// the mean of the yardstick read when the window opened and now.
    fn close_window(&mut self) {
        if let Some(&opened_at) = self.yardstick.last() {
            let now = read_yardstick();
            let scale = YARDSTICK_NOMINAL_NS / ((opened_at + now) / 2.0);
            for op in &mut self.ops[self.closed..] {
                op.clock_ns = op.wall_ns as f64 * scale;
            }
            self.yardstick.push(now);
        }
        self.closed = self.ops.len();
    }

    /// Turns the operations into the end-to-end metrics.
    pub fn finish(
        mut self,
        workload: &str,
        seed: u64,
        setup_s: &[f64],
        tally: Tally,
    ) -> PassReport {
        if self.closed < self.ops.len() {
            self.close_window();
        }
        let ops = &self.ops;
        let segment_len = ops.len().div_ceil(SEGMENTS).max(1);
        let segments: Vec<[f64; 3]> = ops.chunks(segment_len).map(timings).collect();

        let mut spreads = vec![Spread::of(setup_s)];
        for (k, value) in timings(ops).into_iter().enumerate() {
            let each: Vec<f64> = segments.iter().map(|s| s[k]).collect();
            spreads.push(Spread {
                median: value,
                ..Spread::of(&each)
            });
        }
        let decided: u64 = ops.iter().map(|op| op.decided).sum();
        let sent: u64 = ops.iter().map(|op| op.sent).sum();
        spreads.push(Spread::of(&[sent as f64 / decided as f64]));
        spreads.push(Spread::of(&[procfs::peak_rss_mib()]));

        let mut metrics = Vec::with_capacity(END_TO_END.len());
        let mut unstable = Vec::new();
        for (def, spread) in END_TO_END.iter().zip(spreads) {
            // Set-up repeats are not segments of the run; their spread is
            // shown but never makes the run unstable.
            if def.name != "setup_s" && spread.relative_width() > def.bound {
                unstable.push(def.name.to_string());
            }
            metrics.push(Measured {
                name: def.name.to_string(),
                unit: def.unit.to_string(),
                value: spread.median,
                range: Some((spread.min, spread.max)),
            });
        }

        let mut notes = vec![format!(
            "{} latency samples, {} beyond p95; [smallest, largest] of {} segments \
             ({} set-up repeats)",
            ops.len(),
            samples_beyond(ops.len(), 95.0),
            segments.len(),
            setup_s.len()
        )];
        if !self.yardstick.is_empty() {
            let as_measured: Vec<Op> = ops
                .iter()
                .map(|op| Op {
                    clock_ns: op.wall_ns as f64,
                    ..*op
                })
                .collect();
            let [rate, p50, p95] = timings(&as_measured);
            let y = Spread::of(&self.yardstick);
            notes.push(format!(
                "timings are scaled to a yardstick of {:.0} us; it read {:.0} us \
                 [{:.0}, {:.0}] over {} readings",
                YARDSTICK_NOMINAL_NS / 1e3,
                y.median / 1e3,
                y.min / 1e3,
                y.max / 1e3,
                self.yardstick.len()
            ));
            notes.push(format!(
                "as measured: decisions_per_s {rate:.4}, latency_p50_ms {p50:.4}, \
                 latency_p95_ms {p95:.4}"
            ));
        }
        PassReport {
            workload: workload.to_string(),
            seed,
            traced: false,
            ops: ops.len() as u64,
            tally,
            metrics,
            unstable,
            ledger: Vec::new(),
            notes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(wall_ms: u64) -> u64 {
        wall_ms * 1_000_000
    }

    #[test]
    fn wall_clock_metrics_are_plain_sums_and_percentiles() {
        // 100 operations; the k-th takes 10 + k/20 ms (10 … 14 by segment),
        // except every 20th, which takes 40.
        let mut rec = Recorder::start(Budget::Ops(100), Clock::Wall, 1);
        while rec.more() {
            let k = rec.next_op();
            let wall = if k % 20 == 19 { 40 } else { 10 + k / 20 };
            rec.record(ms(wall), 4, 60 + k / 20);
        }
        let report = rec.finish("w", 1, &[0.3, 0.1, 0.2], Tally::default());
        assert_eq!(report.ops, 100);
        let get = |name: &str| report.metric(name).unwrap().clone();
        assert_eq!(get("setup_s").value, 0.2);
        assert_eq!(get("setup_s").range, Some((0.1, 0.3)));
        // 400 decisions in 19 × (10+11+12+13+14) + 5 × 40 ms.
        assert!((get("decisions_per_s").value - 400.0 / 1.34).abs() < 1e-9);
        assert_eq!(get("latency_p50_ms").value, 12.0);
        assert_eq!(get("latency_p50_ms").range, Some((10.0, 14.0)));
        assert_eq!(
            get("latency_p95_ms").value,
            14.0,
            "rank 95 of 100: 5 lie beyond"
        );
        assert_eq!(
            get("latency_p95_ms").range,
            Some((10.0, 14.0)),
            "rank 19 of 20"
        );
        // Messages: every operation counts, 60 … 64 per operation of 4.
        assert_eq!(get("messages_per_decision").value, 62.0 / 4.0);
        assert!(get("peak_rss_mb").value > 0.0);
        // 10 … 14 ms is a 33 % spread: wider than the latency bounds.
        assert!(report.unstable.contains(&"latency_p50_ms".to_string()));
        assert!(!report
            .unstable
            .contains(&"messages_per_decision".to_string()));
        assert!(!report.unstable.contains(&"setup_s".to_string()));
        assert!(report.notes[0].starts_with("100 latency samples, 5 beyond p95"));
    }

    #[test]
    fn compensated_clock_scales_each_window_by_the_yardstick_beside_it() {
        let mut rec = Recorder::start(Budget::Ops(50), Clock::Compensated, 1);
        while rec.more() {
            rec.record(ms(10), 1, 1);
        }
        assert_eq!(rec.closed, 40, "two windows of 20 have closed");
        let closed = rec.ops[..40].to_vec();
        let readings = rec.yardstick.clone();
        assert_eq!(readings.len(), 3);
        for (w, window) in closed.chunks(20).enumerate() {
            let scale = YARDSTICK_NOMINAL_NS / ((readings[w] + readings[w + 1]) / 2.0);
            for op in window {
                assert_eq!(op.clock_ns, 1e7 * scale);
            }
        }
        // The ten operations left over are scaled when the run ends.
        let report = rec.finish("w", 1, &[0.1], Tally::default());
        assert_eq!(report.ops, 50);
        assert!(report.notes.iter().any(|n| n.contains("over 4 readings")));
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("latency_p50_ms 10.0000")));
    }

    #[test]
    fn the_yardstick_is_read_every_whole_number_of_periods() {
        let window_len = |period| Recorder::start(Budget::Ops(1), Clock::Wall, period).window_len;
        assert_eq!(window_len(14), 14, "one period is nearer to 20 than two");
        assert_eq!(window_len(3), 21);
        assert_eq!(window_len(1), 20);
        assert_eq!(window_len(64), 64, "never less than a period");
    }

    #[test]
    fn the_yardstick_does_real_work() {
        let fastest = (0..20).map(|_| yardstick_ns()).min().unwrap();
        assert!(fastest > 20_000, "not optimised away: {fastest} ns");
        assert!(
            fastest < 20_000_000,
            "a fraction of a millisecond: {fastest} ns"
        );
    }

    #[test]
    fn reference_is_due_on_every_sixteenth_operation() {
        let mut rec = Recorder::start(Budget::Ops(40), Clock::Wall, 1);
        let mut due = Vec::new();
        while rec.more() {
            if rec.reference_due() {
                due.push(rec.next_op());
            }
            rec.record(ms(1), 1, 1);
        }
        assert_eq!(due, [0, 16, 32]);
    }

    #[test]
    fn setup_is_repeated_and_the_last_state_kept() {
        let mut built = 0;
        let (state, seconds) = measure_setup(Clock::Wall, SETUP_SECONDS, || {
            built += 1;
            built
        });
        // Instant set-up: the repeat cap ends it, not the clock.
        assert_eq!(
            (state, seconds.len()),
            (SETUP_REPEATS_MAX, SETUP_REPEATS_MAX)
        );
        let budget = Budget::Seconds(1.0).setup_seconds();
        assert_eq!(budget, 0.2);
        let slow = std::time::Duration::from_secs_f64(budget / 3.0);
        let (_, seconds) = measure_setup(Clock::Compensated, budget, || std::thread::sleep(slow));
        assert_eq!(seconds.len(), SETUP_REPEATS_MIN);
        assert_eq!(Budget::Ops(3).setup_seconds(), SETUP_SECONDS);
    }
}
