//! Exporters: Chrome `trace_event` JSON and flat JSONL, plus the
//! parser `cli obs` uses to read either format back.
//!
//! Both exporters are pure functions of an [`Obs`] recorder, and a
//! recorder holds no clock reading, so their output is bit-identical
//! across machines, reruns and worker counts (the golden-trace tests
//! pin exactly this).

use crate::json::JsonValue;
use crate::registry::Registry;
use crate::span::{Obs, SpanRecord};

/// Renders the recorder as Chrome `trace_event` JSON, loadable in
/// `chrome://tracing` or Perfetto.
///
/// Spans become complete (`"ph":"X"`) events laid out sequentially on
/// one track by logical cost (one logical unit rendered as one "µs"),
/// so identical runs produce identical bytes; each carries its
/// attributes plus `logical` in `args`. Registry counters and gauges become counter (`"ph":"C"`)
/// events, and the full registry snapshot rides a metadata
/// (`"ph":"M"`) event named `obs.registry`.
pub fn chrome_trace_json(obs: &Obs) -> String {
    let mut events = Vec::new();
    let mut cursor_us: u64 = 0;
    for span in obs.spans() {
        let dur = span.logical;
        let mut args: Vec<(String, JsonValue)> = span
            .args
            .iter()
            .map(|(k, v)| (k.to_string(), JsonValue::UInt(*v)))
            .collect();
        args.push(("logical".into(), span.logical.into()));
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

    fn sample_obs() -> Obs {
        let mut obs = Obs::enabled();
        obs.record_span(SpanRecord {
            name: "fill".into(),
            args: vec![("n".into(), 4)],
            logical: 10,
        });
        obs.record_span(SpanRecord {
            name: "resolve_level".into(),
            args: vec![("level".into(), 1)],
            logical: 6,
        });
        obs.add("eig.votes_evaluated", 16);
        obs.gauge_max("queue_depth", 3);
        obs.observe("chunk.sizes", &[8, 64], 6);
        obs
    }

    #[test]
    fn chrome_trace_has_required_fields_and_layout() {
        let obs = sample_obs();
        let text = chrome_trace_json(&obs);
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
        // Sequential layout in logical units.
        assert_eq!(spans[0].get("ts").unwrap().as_u64(), Some(0));
        assert_eq!(spans[0].get("dur").unwrap().as_u64(), Some(10));
        assert_eq!(spans[1].get("ts").unwrap().as_u64(), Some(10));
        assert_eq!(spans[1].get("dur").unwrap().as_u64(), Some(6));
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C")));
    }

    #[test]
    fn chrome_trace_round_trips() {
        let obs = sample_obs();
        let text = chrome_trace_json(&obs);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.spans, obs.spans());
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

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_trace("{\"traceEvents\":[{\"ts\":0}]}").is_err());
        assert!(parse_trace("{\"span\":42,\"logical\":1}").is_err());
        assert!(parse_trace("not json at all").is_err());
    }
}
