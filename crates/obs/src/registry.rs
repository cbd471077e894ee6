//! The metric registry: named counters, gauges and fixed-bucket
//! histograms with deterministic snapshots.
//!
//! Everything in a [`Registry`] is *logical* and *exact* — event
//! counts, vote counts, message counts, and histograms that keep their
//! count, sum, min and max — never wall time and never an estimate, so a
//! snapshot of a deterministic run is bit-identical across machines and
//! worker counts. Wall time lives on spans ([`crate::SpanRecord`]),
//! carried but excluded from equality.
//!
//! Names are free-form dotted strings (`"eig.votes_evaluated"`,
//! `"sim.dropped.crash"`). Storage is `BTreeMap`-backed, so iteration,
//! snapshots and JSON emission are in sorted-name order regardless of
//! recording order.

use crate::json::JsonValue;
use std::collections::BTreeMap;

/// A fixed-bucket histogram: cumulative-style upper bounds plus an
/// implicit overflow bucket, a total count, a sum, and the exact smallest
/// and largest observation. Every field is exact; nothing is estimated
/// from the buckets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, ascending.
    bounds: Vec<u64>,
    /// `buckets[i]` counts observations `<= bounds[i]` (and above the
    /// previous bound); the last entry is the overflow bucket.
    buckets: Vec<u64>,
    /// Observations recorded.
    count: u64,
    /// Sum of all observed values.
    sum: u64,
    /// `(min, max)` of the observed values; `None` while empty.
    extremes: Option<(u64, u64)>,
}

impl Histogram {
    /// A histogram with the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// If `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            extremes: None,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bucket_of(value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.widen(value, value);
    }

    /// The index of the bucket `value` falls in.
    fn bucket_of(&self, value: u64) -> usize {
        self.bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len())
    }

    /// Extends the recorded extremes to cover `[lo, hi]`.
    fn widen(&mut self, lo: u64, hi: u64) {
        self.extremes = Some(match self.extremes {
            Some((min, max)) => (min.min(lo), max.max(hi)),
            None => (lo, hi),
        });
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; one longer than [`Histogram::bounds`] (the
    /// last entry is the overflow bucket).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The smallest observed value; `None` when nothing was observed.
    pub fn min(&self) -> Option<u64> {
        self.extremes.map(|(min, _)| min)
    }

    /// The largest observed value; `None` when nothing was observed.
    pub fn max(&self) -> Option<u64> {
        self.extremes.map(|(_, max)| max)
    }

    /// Folds another histogram in; count, sum, min and max stay exact.
    /// Buckets add when the bounds match. Otherwise the other
    /// histogram's observations all land in the bucket of its mean — the
    /// values behind its buckets are gone — so only the bucket split is
    /// approximate. Mismatched bounds mean two tables for one name, which
    /// callers avoid by keeping one `const` table per name.
    pub fn merge(&mut self, other: &Histogram) {
        let Some((lo, hi)) = other.extremes else {
            return;
        };
        if self.bounds == other.bounds {
            for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
                *mine += theirs;
            }
        } else {
            let idx = self.bucket_of(other.sum / other.count);
            self.buckets[idx] += other.count;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.widen(lo, hi);
    }
}

/// A registry of named counters, gauges and histograms.
///
/// * **Counters** are monotone `u64` sums (`add`, or `set` for
///   re-expressing an externally accumulated total).
/// * **Gauges** are point-in-time `i64` levels (`set`); merging keeps
///   the maximum, the convention that makes "peak queue depth" style
///   gauges deterministic under merge order.
/// * **Histograms** are fixed-bucket distributions of logical sizes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `delta` to the named counter (created at zero). Only the
    /// first use of a name allocates its key.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(total) => *total += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the named counter to an externally accumulated total.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// The named counter's value (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Raises the named gauge to `value` if that is higher (peak
    /// tracking; also how merge combines gauges).
    pub fn gauge_max(&mut self, name: &str, value: i64) {
        let slot = self.gauges.entry(name.to_string()).or_insert(value);
        *slot = (*slot).max(value);
    }

    /// The named gauge's value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records one observation into the named histogram, creating it
    /// with `bounds` on first use (later calls ignore `bounds`).
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        self.observe_many(name, bounds, [value]);
    }

    /// [`Registry::observe`] for a run of values into one histogram: one
    /// name lookup for all of them. An empty run records nothing (the
    /// histogram is not created).
    pub fn observe_many(
        &mut self,
        name: &str,
        bounds: &[u64],
        values: impl IntoIterator<Item = u64>,
    ) {
        let mut values = values.into_iter().peekable();
        if values.peek().is_none() {
            return;
        }
        if !self.histograms.contains_key(name) {
            self.histograms
                .insert(name.to_string(), Histogram::new(bounds));
        }
        let histogram = self
            .histograms
            .get_mut(name)
            .expect("present or just inserted");
        values.for_each(|v| histogram.observe(v));
    }

    /// The named histogram, if ever observed into.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in sorted-name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in sorted-name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates histograms in sorted-name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another registry in: counters add, gauges keep the max,
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &Registry) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            self.gauge_max(name, *value);
        }
        for (name, theirs) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(theirs),
                None => {
                    self.histograms.insert(name.clone(), theirs.clone());
                }
            }
        }
    }

    /// The registry as a deterministic JSON snapshot:
    ///
    /// ```json
    /// {
    ///   "counters": {"eig.votes_evaluated": 42},
    ///   "gauges": {"sweep.queue_depth_peak": 8},
    ///   "histograms": {
    ///     "span.logical": {"bounds": [10, 100], "buckets": [1, 2, 0],
    ///                      "count": 3, "sum": 140, "min": 5, "max": 90}
    ///   }
    /// }
    /// ```
    ///
    /// Sections are omitted when empty; keys are in sorted-name order,
    /// so two equal registries serialize to identical bytes. A
    /// histogram's `min` and `max` are emitted only when it is non-empty.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = Vec::new();
        if !self.counters.is_empty() {
            fields.push((
                "counters".to_string(),
                JsonValue::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::UInt(*v)))
                        .collect(),
                ),
            ));
        }
        if !self.gauges.is_empty() {
            fields.push((
                "gauges".to_string(),
                JsonValue::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Int(*v)))
                        .collect(),
                ),
            ));
        }
        if !self.histograms.is_empty() {
            fields.push((
                "histograms".to_string(),
                JsonValue::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            let mut fields = vec![
                                ("bounds".into(), h.bounds.clone().into()),
                                ("buckets".into(), h.buckets.clone().into()),
                                ("count".into(), h.count.into()),
                                ("sum".into(), h.sum.into()),
                            ];
                            if let Some((min, max)) = h.extremes {
                                fields.push(("min".into(), min.into()));
                                fields.push(("max".into(), max.into()));
                            }
                            (k.clone(), JsonValue::Object(fields))
                        })
                        .collect(),
                ),
            ));
        }
        JsonValue::Object(fields)
    }

    /// Rebuilds a registry from a [`Registry::to_json`] snapshot (the
    /// inverse; used by `cli obs` to summarize and diff report files).
    /// Snapshots come from outside the program, so a histogram must be
    /// one [`Histogram::observe`] could have produced: strictly ascending
    /// bounds, buckets summing to `count`, and — when non-empty — `min`
    /// and `max` with `min <= sum / count <= max`.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first malformed entry.
    pub fn from_json(value: &JsonValue) -> Result<Registry, String> {
        let mut reg = Registry::new();
        if let Some(counters) = value.get("counters") {
            for (name, v) in counters.as_object().ok_or("`counters` must be an object")? {
                reg.set_counter(
                    name,
                    v.as_u64().ok_or(format!("counter `{name}` not a u64"))?,
                );
            }
        }
        if let Some(gauges) = value.get("gauges") {
            for (name, v) in gauges.as_object().ok_or("`gauges` must be an object")? {
                reg.set_gauge(
                    name,
                    v.as_i64().ok_or(format!("gauge `{name}` not an i64"))?,
                );
            }
        }
        if let Some(histograms) = value.get("histograms") {
            for (name, v) in histograms
                .as_object()
                .ok_or("`histograms` must be an object")?
            {
                let nums = |key: &str| -> Result<Vec<u64>, String> {
                    v.get(key)
                        .and_then(JsonValue::as_array)
                        .ok_or(format!("histogram `{name}` missing `{key}`"))?
                        .iter()
                        .map(|x| x.as_u64().ok_or(format!("bad `{key}` in `{name}`")))
                        .collect()
                };
                let num = |key: &str| -> Result<Option<u64>, String> {
                    v.get(key)
                        .map(|x| x.as_u64().ok_or(format!("bad `{key}` in `{name}`")))
                        .transpose()
                };
                let bounds = nums("bounds")?;
                let buckets = nums("buckets")?;
                let (Some(count), Some(sum)) = (num("count")?, num("sum")?) else {
                    return Err(format!("histogram `{name}` missing `count` or `sum`"));
                };
                if bounds.is_empty() || !bounds.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("histogram `{name}` bounds not strictly ascending"));
                }
                if buckets.len() != bounds.len() + 1 {
                    return Err(format!("histogram `{name}` bucket/bound length mismatch"));
                }
                if buckets.iter().map(|&b| b as u128).sum::<u128>() != count as u128 {
                    return Err(format!("histogram `{name}` buckets do not sum to `count`"));
                }
                let extremes = match (num("min")?, num("max")?) {
                    (None, None) if count == 0 && sum == 0 => None,
                    (Some(min), Some(max)) if count > 0 => {
                        if min > max {
                            return Err(format!("histogram `{name}` has `min` > `max`"));
                        }
                        let (n, total) = (count as u128, sum as u128);
                        if total < n * min as u128 || total > n * max as u128 {
                            return Err(format!(
                                "histogram `{name}` sum outside [min, max] × count"
                            ));
                        }
                        Some((min, max))
                    }
                    _ if count == 0 => {
                        return Err(format!("histogram `{name}` is empty but has a value"))
                    }
                    _ => {
                        return Err(format!(
                            "histogram `{name}` is non-empty but lacks `min`/`max`"
                        ))
                    }
                };
                reg.histograms.insert(
                    name.clone(),
                    Histogram {
                        bounds,
                        buckets,
                        count,
                        sum,
                        extremes,
                    },
                );
            }
        }
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_set() {
        let mut r = Registry::new();
        r.add("a", 2);
        r.add("a", 3);
        r.set_counter("b", 7);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("b"), 7);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn gauges_set_and_peak() {
        let mut r = Registry::new();
        r.set_gauge("depth", 4);
        r.gauge_max("depth", 2);
        assert_eq!(r.gauge("depth"), Some(4));
        r.gauge_max("depth", 9);
        assert_eq!(r.gauge("depth"), Some(9));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn observe_many_is_repeated_observe_and_empty_runs_leave_no_trace() {
        let (mut one_by_one, mut bulk) = (Registry::new(), Registry::new());
        for v in [3, 70, 700] {
            one_by_one.observe("h", &[8, 64], v);
        }
        bulk.observe_many("h", &[8, 64], [3, 70]);
        bulk.observe_many("h", &[8, 64], [700]);
        assert_eq!(one_by_one, bulk);
        bulk.observe_many("never", &[8, 64], []);
        assert!(bulk.histogram("never").is_none());
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [1, 10, 11, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.buckets(), &[2, 2, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1122);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn merge_adds_counters_maxes_gauges_folds_histograms() {
        let mut a = Registry::new();
        a.add("c", 1);
        a.set_gauge("g", 3);
        a.observe("h", &[10], 5);
        let mut b = Registry::new();
        b.add("c", 2);
        b.add("only_b", 9);
        b.set_gauge("g", 5);
        b.observe("h", &[10], 50);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("only_b"), 9);
        assert_eq!(a.gauge("g"), Some(5));
        assert_eq!(a.histogram("h").unwrap().buckets(), &[1, 1]);
    }

    #[test]
    fn merge_order_is_immaterial() {
        let make = |seed: u64| {
            let mut r = Registry::new();
            r.add("c", seed);
            r.gauge_max("g", seed as i64);
            r.observe("h", &[5, 50], seed);
            r
        };
        let parts = [make(1), make(7), make(60)];
        let mut fwd = Registry::new();
        let mut rev = Registry::new();
        for p in &parts {
            fwd.merge(p);
        }
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(
            fwd.to_json().to_json_string(),
            rev.to_json().to_json_string()
        );
    }

    #[test]
    fn snapshot_round_trips() {
        let mut r = Registry::new();
        r.add("eig.votes", 42);
        r.set_gauge("queue", -3);
        r.observe("sizes", &[10, 100], 7);
        r.observe("sizes", &[10, 100], 700);
        let json = r.to_json();
        let back = Registry::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json().to_json_string(), json.to_json_string());
    }

    /// A deterministic stream for the property test (splitmix64).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn count_sum_min_max_are_exact_under_merge_and_round_trip() {
        const BOUNDS: &[u64] = &[8, 64, 512];
        let mut rng = 0x0b5_u64;
        for trial in 0..400 {
            let len = (splitmix(&mut rng) % 24) as usize;
            let values: Vec<u64> = match trial % 5 {
                0 => Vec::new(),
                1 => vec![splitmix(&mut rng) % 1_000],
                2 => vec![splitmix(&mut rng) % 600; len + 2],
                // Every value past the last bound: all in the overflow bucket.
                3 => (0..=len)
                    .map(|_| 513 + splitmix(&mut rng) % 100_000)
                    .collect(),
                _ => (0..len).map(|_| splitmix(&mut rng) % 2_000).collect(),
            };
            let exact = (
                values.len() as u64,
                values.iter().sum::<u64>(),
                values.iter().min().copied(),
                values.iter().max().copied(),
            );
            let facts = |h: &Histogram| (h.count(), h.sum(), h.min(), h.max());

            // Three parts, folded in every order.
            let mut parts = vec![Histogram::new(BOUNDS); 3];
            for &v in &values {
                parts[(splitmix(&mut rng) % 3) as usize].observe(v);
            }
            for order in [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ] {
                let mut merged = Histogram::new(BOUNDS);
                for i in order {
                    merged.merge(&parts[i]);
                }
                assert_eq!(facts(&merged), exact, "{values:?} merged as {order:?}");
                assert_eq!(merged.buckets().iter().sum::<u64>(), exact.0);
            }

            let mut reg = Registry::new();
            let mut whole = Histogram::new(BOUNDS);
            values.iter().for_each(|&v| whole.observe(v));
            assert_eq!(facts(&whole), exact, "{values:?}");
            reg.histograms.insert("h".into(), whole);
            let text = reg.to_json().to_json_string();
            assert_eq!(text.contains("\"min\""), !values.is_empty(), "{text}");
            let back = Registry::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
            assert_eq!(back, reg);
            assert_eq!(back.to_json().to_json_string(), text);
        }
    }

    #[test]
    fn merge_across_mismatched_bounds_keeps_count_sum_min_max() {
        let mut a = Histogram::new(&[10, 100]);
        a.observe(3);
        let mut b = Histogram::new(&[50]);
        for v in [7, 8, 200] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!((a.count(), a.sum()), (4, 218));
        assert_eq!((a.min(), a.max()), (Some(3), Some(200)));
        // b's three observations land in the bucket of its mean, 71.
        assert_eq!(a.buckets(), &[1, 3, 0]);
        a.merge(&Histogram::new(&[1]));
        assert_eq!((a.count(), a.min(), a.max()), (4, Some(3), Some(200)));
    }

    #[test]
    fn snapshot_of_empty_registry_is_empty_object() {
        assert_eq!(Registry::new().to_json().to_json_string(), "{}");
        assert!(Registry::new().is_empty());
    }

    #[test]
    fn from_json_rejects_malformed() {
        for bad in [
            "{\"counters\":[]}",
            "{\"counters\":{\"a\":-1}}",
            "{\"gauges\":{\"a\":\"x\"}}",
            "{\"histograms\":{\"h\":{\"bounds\":[1],\"buckets\":[1],\"count\":1,\"sum\":1}}}",
        ] {
            let v = JsonValue::parse(bad).unwrap();
            assert!(Registry::from_json(&v).is_err(), "{bad}");
        }
        // Histograms no `observe` sequence could have produced.
        for (fields, why) in [
            (
                r#"[1],"buckets":[1,1],"count":1,"sum":1,"min":1,"max":1"#,
                "sum to",
            ),
            (
                r#"[1],"buckets":[1,1],"count":2,"sum":5,"min":4,"max":1"#,
                "> `max`",
            ),
            (
                r#"[1],"buckets":[0,1],"count":1,"sum":5"#,
                "lacks `min`/`max`",
            ),
            (
                r#"[1],"buckets":[0,0],"count":0,"sum":0,"min":0"#,
                "empty but",
            ),
            (r#"[1],"buckets":[0,0],"count":0,"sum":4"#, "empty but"),
            (
                r#"[1],"buckets":[0,2],"count":2,"sum":3,"min":2,"max":2"#,
                "sum outside",
            ),
            (r#"[5,1],"buckets":[0,0,0],"count":0,"sum":0"#, "ascending"),
        ] {
            let bad = format!("{{\"histograms\":{{\"h\":{{\"bounds\":{fields}}}}}}}");
            let err = Registry::from_json(&JsonValue::parse(&bad).unwrap()).unwrap_err();
            assert!(err.contains(why) && !err.contains('\n'), "{bad}: {err}");
        }
    }
}
