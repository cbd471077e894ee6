//! Exporters: Chrome `trace_event` JSON and flat JSONL, plus the
//! parser `cli obs` uses to read either format back.
//!
//! Both exporters are pure functions of an [`Obs`] recorder, so after
//! [`crate::scrub_timing`] their output is bit-identical across
//! machines and worker counts (the golden-trace tests pin exactly
//! this).

use crate::json::JsonValue;
use crate::registry::Registry;
use crate::span::{Obs, SpanRecord};

/// Which duration dimension the Chrome exporter maps onto `ts`/`dur`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeMode {
    /// `ts`/`dur` come from recorded wall nanoseconds (in µs, as the
    /// trace_event spec expects). Human-friendly, non-deterministic.
    Wall,
    /// `ts`/`dur` come from cumulative logical cost (one logical unit
    /// rendered as one "µs"). Deterministic: identical runs produce
    /// identical bytes.
    Logical,
}

/// Renders the recorder as Chrome `trace_event` JSON, loadable in
/// `chrome://tracing` or Perfetto.
///
/// Spans become complete (`"ph":"X"`) events laid out sequentially on
/// one track; each carries its attributes plus `logical` and
/// `wall_nanos` in `args`, so the trace is lossless regardless of
/// `mode`. Registry counters and gauges become counter (`"ph":"C"`)
/// events, and the full registry snapshot rides a metadata
/// (`"ph":"M"`) event named `obs.registry`.
pub fn chrome_trace_json(obs: &Obs, mode: TimeMode) -> String {
    let mut events = Vec::new();
    let mut cursor_us: u64 = 0;
    for span in obs.spans() {
        let dur = match mode {
            TimeMode::Wall => span.wall_nanos / 1_000,
            TimeMode::Logical => span.logical,
        };
        let mut args: Vec<(String, JsonValue)> = span
            .args
            .iter()
            .map(|(k, v)| (k.to_string(), JsonValue::UInt(*v)))
            .collect();
        args.push(("logical".into(), span.logical.into()));
        args.push(("wall_nanos".into(), span.wall_nanos.into()));
        events.push(JsonValue::Object(vec![
            ("name".into(), JsonValue::Str(span.name.to_string())),
            ("ph".into(), JsonValue::Str("X".into())),
            ("pid".into(), JsonValue::UInt(0)),
            ("tid".into(), JsonValue::UInt(0)),
            ("ts".into(), cursor_us.into()),
            ("dur".into(), dur.into()),
            ("args".into(), JsonValue::Object(args)),
        ]));
        cursor_us += dur;
    }
    let registry = obs.registry();
    for (name, value) in registry.counters() {
        events.push(counter_event(name, JsonValue::UInt(value)));
    }
    for (name, value) in registry.gauges() {
        events.push(counter_event(name, JsonValue::Int(value)));
    }
    if !registry.is_empty() {
        events.push(JsonValue::Object(vec![
            ("name".into(), JsonValue::Str("obs.registry".into())),
            ("ph".into(), JsonValue::Str("M".into())),
            ("pid".into(), JsonValue::UInt(0)),
            ("tid".into(), JsonValue::UInt(0)),
            ("ts".into(), JsonValue::UInt(0)),
            (
                "args".into(),
                JsonValue::Object(vec![("registry".into(), registry.to_json())]),
            ),
        ]));
    }
    JsonValue::Object(vec![("traceEvents".into(), JsonValue::Array(events))]).to_json_string()
}

fn counter_event(name: &str, value: JsonValue) -> JsonValue {
    JsonValue::Object(vec![
        ("name".into(), JsonValue::Str(name.to_string())),
        ("ph".into(), JsonValue::Str("C".into())),
        ("pid".into(), JsonValue::UInt(0)),
        ("tid".into(), JsonValue::UInt(0)),
        ("ts".into(), JsonValue::UInt(0)),
        (
            "args".into(),
            JsonValue::Object(vec![("value".into(), value)]),
        ),
    ])
}

/// Renders the recorder as flat JSONL: one `{"registry": ...}` line
/// (when non-empty) followed by one [`SpanRecord::to_json`] line per
/// span, in recording order.
pub fn jsonl(obs: &Obs) -> String {
    let mut out = String::new();
    let registry = obs.registry();
    if !registry.is_empty() {
        out.push_str(
            &JsonValue::Object(vec![("registry".into(), registry.to_json())]).to_json_string(),
        );
        out.push('\n');
    }
    for span in obs.spans() {
        out.push_str(&span.to_json().to_json_string());
        out.push('\n');
    }
    out
}

/// Spans and registry recovered from an exported trace file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedTrace {
    /// Spans in file order.
    pub spans: Vec<SpanRecord>,
    /// The embedded registry snapshot (empty if the file carried none).
    pub registry: Registry,
}

/// Parses either exporter's output back, auto-detecting the format:
/// a Chrome trace is one JSON object with a `traceEvents` array;
/// anything else is treated as JSONL.
///
/// # Errors
///
/// Returns a description of the first malformed line or event.
pub fn parse_trace(text: &str) -> Result<ParsedTrace, String> {
    let trimmed = text.trim_start();
    if trimmed.starts_with('{') {
        if let Ok(root) = JsonValue::parse(text) {
            if let Some(events) = root.get("traceEvents") {
                return parse_chrome_events(events);
            }
        }
    }
    parse_jsonl(text)
}

fn parse_chrome_events(events: &JsonValue) -> Result<ParsedTrace, String> {
    let events = events.as_array().ok_or("`traceEvents` must be an array")?;
    let mut parsed = ParsedTrace::default();
    for event in events {
        let ph = event
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or("trace event missing `ph`")?;
        match ph {
            "X" => {
                let name = event
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("span event missing `name`")?
                    .to_string();
                let args = event
                    .get("args")
                    .and_then(JsonValue::as_object)
                    .ok_or("span event missing `args`")?;
                let mut span = SpanRecord {
                    name: name.into(),
                    ..SpanRecord::default()
                };
                for (key, value) in args {
                    let value = value
                        .as_u64()
                        .ok_or(format!("span arg `{key}` not a u64"))?;
                    match key.as_str() {
                        "logical" => span.logical = value,
                        "wall_nanos" => span.wall_nanos = value,
                        _ => span.args.push((key.clone().into(), value)),
                    }
                }
                parsed.spans.push(span);
            }
            "M" if event.get("name").and_then(JsonValue::as_str) == Some("obs.registry") => {
                let snapshot = event
                    .get("args")
                    .and_then(|a| a.get("registry"))
                    .ok_or("obs.registry event missing `args.registry`")?;
                parsed.registry = Registry::from_json(snapshot)?;
            }
            // Counter events duplicate the registry snapshot; skip.
            _ => {}
        }
    }
    Ok(parsed)
}

fn parse_jsonl(text: &str) -> Result<ParsedTrace, String> {
    let mut parsed = ParsedTrace::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = JsonValue::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if let Some(snapshot) = value.get("registry") {
            parsed.registry = Registry::from_json(snapshot)?;
        } else {
            parsed.spans.push(
                SpanRecord::from_json(&value).map_err(|e| format!("line {}: {e}", lineno + 1))?,
            );
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub_timing;

    fn sample_obs() -> Obs {
        let mut obs = Obs::enabled();
        obs.record_span(SpanRecord {
            name: "fill".into(),
            args: vec![("n".into(), 4)],
            logical: 10,
            wall_nanos: 2_500,
        });
        obs.record_span(SpanRecord {
            name: "resolve_level".into(),
            args: vec![("level".into(), 1)],
            logical: 6,
            wall_nanos: 1_200,
        });
        obs.add("eig.votes_evaluated", 16);
        obs.gauge_max("queue_depth", 3);
        obs.observe("chunk.sizes", &[8, 64], 6);
        obs
    }

    #[test]
    fn chrome_trace_has_required_fields_and_layout() {
        let obs = sample_obs();
        let text = chrome_trace_json(&obs, TimeMode::Logical);
        let root = JsonValue::parse(&text).unwrap();
        let events = root.get("traceEvents").unwrap().as_array().unwrap();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        for event in &spans {
            for key in ["name", "ph", "pid", "tid", "ts", "dur", "args"] {
                assert!(event.get(key).is_some(), "span event missing `{key}`");
            }
        }
        // Logical mode: sequential layout in logical units.
        assert_eq!(spans[0].get("ts").unwrap().as_u64(), Some(0));
        assert_eq!(spans[0].get("dur").unwrap().as_u64(), Some(10));
        assert_eq!(spans[1].get("ts").unwrap().as_u64(), Some(10));
        assert_eq!(spans[1].get("dur").unwrap().as_u64(), Some(6));
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C")));
    }

    #[test]
    fn wall_mode_uses_wall_microseconds() {
        let obs = sample_obs();
        let root = JsonValue::parse(&chrome_trace_json(&obs, TimeMode::Wall)).unwrap();
        let events = root.get("traceEvents").unwrap().as_array().unwrap();
        let first = events
            .iter()
            .find(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .unwrap();
        assert_eq!(first.get("dur").unwrap().as_u64(), Some(2)); // 2_500ns -> 2µs
    }

    #[test]
    fn chrome_trace_round_trips() {
        let obs = sample_obs();
        let text = chrome_trace_json(&obs, TimeMode::Logical);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.spans, obs.spans());
        assert_eq!(parsed.spans[0].wall_nanos, 2_500); // lossless, not just Eq
        assert_eq!(&parsed.registry, obs.registry());
    }

    #[test]
    fn jsonl_round_trips() {
        let obs = sample_obs();
        let text = jsonl(&obs);
        assert_eq!(text.lines().count(), 3); // registry + 2 spans
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.spans, obs.spans());
        assert_eq!(&parsed.registry, obs.registry());
    }

    fn sample_obs_with_wall(wall_nanos: u64) -> Obs {
        let mut obs = Obs::enabled();
        for mut span in sample_obs().spans().iter().cloned() {
            span.wall_nanos = wall_nanos;
            obs.record_span(span);
        }
        obs.add("eig.votes_evaluated", 16);
        obs.gauge_max("queue_depth", 3);
        obs.observe("chunk.sizes", &[8, 64], 6);
        obs
    }

    #[test]
    fn logical_export_is_identical_after_scrub() {
        // Different wall times, same logical work.
        let mut a = sample_obs_with_wall(1);
        let mut b = sample_obs_with_wall(999);
        scrub_timing(&mut a);
        scrub_timing(&mut b);
        assert_eq!(
            chrome_trace_json(&a, TimeMode::Logical),
            chrome_trace_json(&b, TimeMode::Logical)
        );
        assert_eq!(jsonl(&a), jsonl(&b));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_trace("{\"traceEvents\":[{\"ts\":0}]}").is_err());
        assert!(parse_trace("{\"span\":42,\"logical\":1}").is_err());
        assert!(parse_trace("not json at all").is_err());
    }
}
