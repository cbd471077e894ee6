//! Spans with a logical cost, and the [`Obs`] recorder that collects
//! them alongside a metric [`Registry`].
//!
//! A span measures one named unit of work by its **logical cost** — a
//! deterministic count of the work done (events delivered, votes
//! evaluated, messages materialized). It reads no clock, so a recorded
//! run is a pure function of code and seed: reports compare spans and
//! golden tests pin them byte for byte.
//!
//! The cheap path matters: a disabled [`Obs`] records nothing, so
//! instrumented hot loops cost a branch when observability is off.

use crate::json::JsonValue;
use crate::registry::Registry;

/// A span or attribute name. Recorders name their spans with literals,
/// which are borrowed — recording a span allocates only its attribute
/// list; names read back from JSON are owned.
pub type Label = std::borrow::Cow<'static, str>;

/// One finished span: a named, attributed unit of work with its
/// logical cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, e.g. `"resolve_level"`.
    pub name: Label,
    /// Key/value attributes, e.g. `[("level", 2)]`, in recording order.
    pub args: Vec<(Label, u64)>,
    /// Deterministic logical cost of the work (events/votes/messages).
    pub logical: u64,
}

impl SpanRecord {
    /// The span as a flat JSON object (the JSONL exporter's line
    /// shape):
    ///
    /// ```json
    /// {"span":"resolve_level","args":{"level":2},"logical":96}
    /// ```
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![("span".to_string(), JsonValue::Str(self.name.to_string()))];
        if !self.args.is_empty() {
            fields.push((
                "args".to_string(),
                JsonValue::Object(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.to_string(), JsonValue::UInt(*v)))
                        .collect(),
                ),
            ));
        }
        fields.push(("logical".to_string(), JsonValue::UInt(self.logical)));
        JsonValue::Object(fields)
    }

    /// The inverse of [`SpanRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &JsonValue) -> Result<SpanRecord, String> {
        let name = value
            .get("span")
            .and_then(JsonValue::as_str)
            .ok_or("span record missing string `span`")?
            .to_string()
            .into();
        let mut args = Vec::new();
        if let Some(raw) = value.get("args") {
            for (k, v) in raw.as_object().ok_or("`args` must be an object")? {
                args.push((
                    k.clone().into(),
                    v.as_u64().ok_or(format!("arg `{k}` not a u64"))?,
                ));
            }
        }
        let logical = value
            .get("logical")
            .and_then(JsonValue::as_u64)
            .ok_or("span record missing u64 `logical`")?;
        Ok(SpanRecord {
            name,
            args,
            logical,
        })
    }
}

/// An in-flight span handle returned by [`Obs::span`]; hand it back to
/// [`Obs::finish`] with the logical cost once the work is done.
///
/// Deliberately not `Drop`-finished: the logical cost is only known at
/// the end, and an explicit finish keeps recording order deterministic.
#[must_use = "finish the span with Obs::finish to record it"]
#[derive(Debug)]
pub struct SpanTimer {
    name: &'static str,
    args: Vec<(&'static str, u64)>,
}

/// The observability recorder: a metric [`Registry`] plus an ordered
/// list of finished spans.
///
/// A disabled recorder (the [`Obs::disabled`] default) makes every
/// call a no-op, so call sites can be instrumented unconditionally.
///
/// The unbounded default retains every span. [`Obs::enabled_bounded`]
/// caps retention: once full, recording a span evicts the oldest
/// retained span, and every eviction is tallied in
/// [`Obs::dropped_spans`] *and* mirrored into the registry as the
/// `obs.dropped_spans` counter — so a truncated trace is detectable
/// from the exported file itself, never silently short.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    enabled: bool,
    registry: Registry,
    spans: Vec<SpanRecord>,
    /// Maximum spans retained (`None` = unbounded).
    span_capacity: Option<usize>,
    /// Spans evicted by the bounded mode.
    dropped_spans: u64,
}

impl PartialEq for Obs {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: a new field must be classified
        // here. The configured capacity is a representation detail;
        // what was recorded (and how much was lost) is the content.
        let Obs {
            enabled,
            registry,
            spans,
            span_capacity: _,
            dropped_spans,
        } = self;
        *enabled == other.enabled
            && *registry == other.registry
            && *spans == other.spans
            && *dropped_spans == other.dropped_spans
    }
}

impl Eq for Obs {}

impl Obs {
    /// An enabled recorder with unbounded span retention.
    pub fn enabled() -> Self {
        Obs {
            enabled: true,
            registry: Registry::new(),
            spans: Vec::new(),
            span_capacity: None,
            dropped_spans: 0,
        }
    }

    /// An enabled recorder retaining at most `capacity` spans (oldest
    /// evicted first). Evictions count into [`Obs::dropped_spans`] and
    /// the `obs.dropped_spans` registry counter.
    pub fn enabled_bounded(capacity: usize) -> Self {
        Obs {
            span_capacity: Some(capacity),
            ..Obs::enabled()
        }
    }

    /// A disabled recorder; every method is a no-op.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// Spans evicted by the bounded ring (zero when unbounded).
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Appends a span, honoring the retention cap: when full, the
    /// oldest retained span is evicted (kept in logical order so
    /// [`Obs::spans`] stays a plain slice) and the eviction is counted
    /// both on the struct and as the `obs.dropped_spans` counter.
    fn push_span(&mut self, span: SpanRecord) {
        match self.span_capacity {
            Some(0) => {
                self.dropped_spans += 1;
                self.registry.add("obs.dropped_spans", 1);
            }
            Some(cap) if self.spans.len() >= cap => {
                self.spans.rotate_left(1);
                *self.spans.last_mut().expect("cap > 0") = span;
                self.dropped_spans += 1;
                self.registry.add("obs.dropped_spans", 1);
            }
            _ => self.spans.push(span),
        }
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a span. Prefer the [`span!`](crate::span!) macro, which
    /// stringifies attribute names for you.
    pub fn span(&self, name: &'static str, args: Vec<(&'static str, u64)>) -> SpanTimer {
        SpanTimer { name, args }
    }

    /// Finishes a span with its deterministic logical cost, recording
    /// it. No-op when disabled.
    pub fn finish(&mut self, timer: SpanTimer, logical: u64) {
        if !self.enabled {
            return;
        }
        self.push_span(SpanRecord {
            name: timer.name.into(),
            args: timer.args.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            logical,
        });
    }

    /// Records an already-built span (e.g. one assembled inside a
    /// worker thread). No-op when disabled.
    pub fn record_span(&mut self, span: SpanRecord) {
        if self.enabled {
            self.push_span(span);
        }
    }

    /// The finished spans, in recording order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The metric registry (immutable).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable registry access when enabled (`None` when disabled), for
    /// callers that fold externally accumulated counters in bulk (e.g.
    /// `EigPerf::fold_into`).
    pub fn registry_mut(&mut self) -> Option<&mut Registry> {
        if self.enabled {
            Some(&mut self.registry)
        } else {
            None
        }
    }

    /// Adds `delta` to a registry counter. No-op when disabled.
    pub fn add(&mut self, name: &str, delta: u64) {
        if self.enabled {
            self.registry.add(name, delta);
        }
    }

    /// Sets a registry counter. No-op when disabled.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        if self.enabled {
            self.registry.set_counter(name, value);
        }
    }

    /// Raises a registry gauge to `value` if higher. No-op when
    /// disabled.
    pub fn gauge_max(&mut self, name: &str, value: i64) {
        if self.enabled {
            self.registry.gauge_max(name, value);
        }
    }

    /// Observes into a registry histogram. No-op when disabled.
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        if self.enabled {
            self.registry.observe(name, bounds, value);
        }
    }

    /// Observes a run of values into one registry histogram (see
    /// [`Registry::observe_many`]). No-op when disabled.
    pub fn observe_many(
        &mut self,
        name: &str,
        bounds: &[u64],
        values: impl IntoIterator<Item = u64>,
    ) {
        if self.enabled {
            self.registry.observe_many(name, bounds, values);
        }
    }

    /// Folds another recorder in: spans append in order, registries
    /// merge. Merging recorders in deterministic (trial/chunk) order
    /// is what keeps multi-worker output bit-identical.
    pub fn merge(&mut self, other: &Obs) {
        if !self.enabled {
            return;
        }
        // Registry first (it carries `other`'s own eviction counter);
        // spans route through the cap, so merging can evict further —
        // each such eviction counts on top.
        self.registry.merge(&other.registry);
        self.dropped_spans += other.dropped_spans;
        for span in &other.spans {
            self.push_span(span.clone());
        }
    }

    /// A copy of this recorder with every span whose name is in `names`
    /// removed; the registry and drop tally carry over unchanged.
    ///
    /// Exporters use this to strip scheduling-dependent bookkeeping
    /// spans (e.g. a sweep's per-worker fan-out records, which describe
    /// the thread layout rather than the computation) from logical-mode
    /// artifacts that must be byte-identical across worker counts.
    pub fn without_spans(&self, names: &[&str]) -> Obs {
        let mut out = self.clone();
        out.spans.retain(|s| !names.contains(&s.name.as_ref()));
        out
    }
}

/// Starts a span on an [`Obs`] recorder, stringifying attribute names:
///
/// ```
/// # let obs = obs::Obs::enabled();
/// # let mut obs = obs;
/// let level = 2u64;
/// let timer = obs::span!(obs, "resolve_level", level);
/// // ... do the work ...
/// obs.finish(timer, 96);
/// ```
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr $(, $arg:expr)* $(,)?) => {
        $obs.span($name, vec![$((stringify!($arg), ($arg) as u64)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_json_round_trips() {
        let span = SpanRecord {
            name: "resolve_level".into(),
            args: vec![("level".into(), 2), ("width".into(), 12)],
            logical: 96,
        };
        let json = span.to_json();
        let back = SpanRecord::from_json(&json).unwrap();
        assert_eq!(back, span);
        assert_eq!(back.to_json().to_json_string(), json.to_json_string());
    }

    #[test]
    fn span_json_wall_nanos_is_optional() {
        // A line written before spans stopped reading the clock still
        // parses: the old field is simply not read.
        let old = r#"{"span":"x","args":{"level":2},"logical":3,"wall_nanos":1234}"#;
        let span = SpanRecord::from_json(&JsonValue::parse(old).unwrap()).unwrap();
        assert_eq!(span.logical, 3);
        assert_eq!(span.args, vec![("level".into(), 2)]);
        assert!(SpanRecord::from_json(&JsonValue::parse("{\"logical\":3}").unwrap()).is_err());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut obs = Obs::disabled();
        let timer = span!(obs, "work", 1u64);
        obs.finish(timer, 10);
        obs.add("c", 5);
        obs.gauge_max("g", 5);
        obs.observe("h", &[10], 5);
        assert!(obs.spans().is_empty());
        assert!(obs.registry().is_empty());
    }

    #[test]
    fn enabled_recorder_measures_wall_and_keeps_logical() {
        let mut obs = Obs::enabled();
        let level = 3u64;
        let timer = span!(obs, "resolve_level", level);
        obs.finish(timer, 96);
        assert_eq!(obs.spans().len(), 1);
        let span = &obs.spans()[0];
        assert_eq!(span.name, "resolve_level");
        assert_eq!(span.args, vec![("level".into(), 3)]);
        assert_eq!(span.logical, 96);
    }

    #[test]
    fn merge_appends_spans_and_folds_registry() {
        let mut a = Obs::enabled();
        let t = a.span("first", vec![]);
        a.finish(t, 1);
        a.add("c", 1);
        let mut b = Obs::enabled();
        let t = b.span("second", vec![]);
        b.finish(t, 2);
        b.add("c", 2);
        a.merge(&b);
        assert_eq!(a.spans().len(), 2);
        assert_eq!(a.spans()[1].name, "second");
        assert_eq!(a.registry().counter("c"), 3);
    }

    fn named(name: &'static str) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            args: vec![],
            logical: 1,
        }
    }

    #[test]
    fn bounded_recorder_evicts_oldest_and_counts_drops() {
        let mut obs = Obs::enabled_bounded(2);
        for name in ["a", "b", "c", "d"] {
            obs.record_span(named(name));
        }
        assert_eq!(obs.dropped_spans(), 2);
        assert_eq!(obs.registry().counter("obs.dropped_spans"), 2);
        let names: Vec<&str> = obs.spans().iter().map(|s| s.name.as_ref()).collect();
        assert_eq!(names, ["c", "d"], "oldest evicted, order preserved");
    }

    #[test]
    fn zero_capacity_recorder_drops_everything() {
        let mut obs = Obs::enabled_bounded(0);
        obs.record_span(named("a"));
        assert!(obs.spans().is_empty());
        assert_eq!(obs.dropped_spans(), 1);
        assert_eq!(obs.registry().counter("obs.dropped_spans"), 1);
    }

    #[test]
    fn unbounded_recorder_never_drops() {
        let mut obs = Obs::enabled();
        for _ in 0..100 {
            obs.record_span(named("x"));
        }
        assert_eq!(obs.spans().len(), 100);
        assert_eq!(obs.dropped_spans(), 0);
        assert_eq!(obs.registry().counter("obs.dropped_spans"), 0);
    }

    #[test]
    fn merge_into_bounded_recorder_keeps_accounting() {
        let mut sink = Obs::enabled_bounded(2);
        sink.record_span(named("old"));
        let mut src = Obs::enabled_bounded(4);
        for name in ["a", "b", "c"] {
            src.record_span(named(name));
        }
        sink.merge(&src);
        // "old" and "a" evicted on the way in; src dropped nothing.
        assert_eq!(sink.dropped_spans(), 2);
        assert_eq!(sink.registry().counter("obs.dropped_spans"), 2);
        let names: Vec<&str> = sink.spans().iter().map(|s| s.name.as_ref()).collect();
        assert_eq!(names, ["b", "c"]);
    }

    #[test]
    fn equality_ignores_capacity_but_not_drops() {
        let mut bounded = Obs::enabled_bounded(10);
        bounded.record_span(named("a"));
        let mut plain = Obs::enabled();
        plain.record_span(named("a"));
        assert_eq!(bounded, plain, "capacity is a representation detail");
        let mut wrapped = Obs::enabled_bounded(1);
        wrapped.record_span(named("x"));
        wrapped.record_span(named("a"));
        assert_ne!(wrapped, plain, "an eviction is observable state");
    }
}
