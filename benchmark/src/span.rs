//! The benchmark's own tracing: spans recorded around calls into each
//! layer's public API, kept in memory, written out when the run ends.
//! Nothing inside `crates/` is instrumented.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call (or group of calls) into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, the layer being the repository's module name.
    pub name: &'static str,
    /// The span that caused this one; `None` for an operation's root.
    pub parent: Option<SpanId>,
    /// The operation (wave or wire instance) all its spans share.
    pub op: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. A disabled tracer runs the timed closures and
/// records nothing, which is how the traced pass measures its own cost.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A recording tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The instant span times are measured from; threads that time their
    /// own spans share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a span that was timed elsewhere (another thread, or a
    /// duration the layer itself returned).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        let now = self.now_ns();
        self.record(name, parent, op, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span and returns its result with the wall
    /// nanoseconds it took (measured whether or not recording is on).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        self.record(name, parent, op, start, end);
        (result, end - start)
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are counted once, and a
/// child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children.entry(parent).or_default().push((start, end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let mut covered = 0u64;
            if let Some(intervals) = children.get_mut(&id) {
                intervals.sort_unstable();
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Where the wall time of the operations went.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Σ duration of the operations' root spans.
    pub total_ns: u64,
    /// Σ self time per span name below the roots, largest first.
    pub by_name: Vec<(&'static str, u64)>,
}

impl Ledger {
    /// Adds up self times over every tree rooted at a span named `root`,
    /// leaving out subtrees rooted at a span named `off_path`, if any (work
    /// that ran beside the blocking path, such as the other nodes' threads).
    /// The roots' own self time is the unattributed residual.
    pub fn of(spans: &[Span], root: &str, off_path: Option<&str>) -> Ledger {
        let own = self_times(spans);
        let mut on_path = vec![false; spans.len()];
        let mut total_ns = 0;
        let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (id, span) in spans.iter().enumerate() {
            match span.parent {
                None if span.name == root => {
                    on_path[id] = true;
                    total_ns += span.duration_ns();
                }
                // Parents are always recorded before their children.
                Some(parent) if on_path[parent] && Some(span.name) != off_path => {
                    on_path[id] = true;
                    *by_name.entry(span.name).or_default() += own[id];
                }
                _ => {}
            }
        }
        let mut by_name: Vec<_> = by_name.into_iter().collect();
        by_name.sort_by_key(|&(name, ns)| (std::cmp::Reverse(ns), name));
        Ledger { total_ns, by_name }
    }

    /// Σ layer self time ÷ operation wall.
    pub fn attributed_share(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.by_name.iter().map(|&(_, ns)| ns).sum::<u64>() as f64 / self.total_ns as f64
    }

    /// Each layer span's share of the operation wall, largest first, with
    /// the residual last — the shares sum to 1.
    pub fn shares(&self) -> Vec<(String, f64)> {
        let total = self.total_ns.max(1) as f64;
        let mut shares: Vec<(String, f64)> = self
            .by_name
            .iter()
            .map(|&(name, ns)| (name.to_string(), ns as f64 / total))
            .collect();
        shares.push(("unattributed".to_string(), 1.0 - self.attributed_share()));
        shares
    }
}

/// Writes the spans of one workload as JSON: one object per span with its
/// id, parent, operation, name, start and end.
pub fn write_trace(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"schema\":\"dagree-benchmark-trace\",\"version\":1,\"workload\":\"{workload}\",\
         \"seed\":{seed},\"unit\":\"ns\",\"spans\":["
    )?;
    for (id, span) in spans.iter().enumerate() {
        if id > 0 {
            out.write_all(b",")?;
        }
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        write!(
            out,
            "\n{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
            span.op, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, 0, 100),     // root
            span(Some(0), 10, 30),  // child
            span(Some(0), 20, 50),  // overlaps the first child
            span(Some(0), 90, 130), // sticks out of the parent: clipped
            span(Some(1), 12, 18),  // grandchild: only its parent pays
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 40, 6]);
    }

    #[test]
    fn self_times_of_one_tree_sum_to_the_root_duration() {
        let spans = vec![
            span(None, 0, 1000),
            span(Some(0), 0, 400),
            span(Some(0), 400, 900),
            span(Some(1), 100, 300),
            span(Some(2), 450, 500),
            span(Some(2), 500, 900),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn ledger_counts_the_blocking_path_only_and_sums_to_one() {
        let named = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        };
        let spans = vec![
            named("op", None, 0, 100),
            named("setup", Some(0), 0, 10),
            named("drive.blocking", Some(0), 10, 95),
            named("drive", Some(0), 10, 80), // ran beside the blocking node
            named("wait", Some(2), 20, 90),
            named("wait", Some(3), 15, 75), // off the path: not counted
            named("replay", None, 100, 500), // another root: not counted
            named("work", Some(6), 100, 400),
        ];
        let ledger = Ledger::of(&spans, "op", Some("drive"));
        assert_eq!(ledger.total_ns, 100);
        assert_eq!(
            ledger.by_name,
            vec![("wait", 70), ("drive.blocking", 15), ("setup", 10)]
        );
        assert!((ledger.attributed_share() - 0.95).abs() < 1e-12);
        let shares = ledger.shares();
        assert_eq!(shares.last().unwrap().0, "unattributed");
        assert!((shares.iter().map(|(_, s)| s).sum::<f64>() - 1.0).abs() < 1e-12);
        // Without an off-path name the second thread's spans count too.
        assert_eq!(Ledger::of(&spans, "op", None).by_name[0], ("wait", 130));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut tracer = Tracer::new();
        tracer.set_enabled(false);
        let (value, _ns) = tracer.time("x", None, 0, || 7);
        assert_eq!(value, 7);
        let id = tracer.open("y", None, 0);
        tracer.close(id);
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        let root = tracer.open("root", None, 1);
        tracer.time("leaf", root, 1, || ());
        tracer.close(root);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
    }
}
