//! Deterministic JSON values: emission *and* parsing.
//!
//! This is the workspace's single hand-rolled JSON model (the vendored
//! `serde` is a derive-only marker stub — see `vendor/README.md`). It
//! began life as `harness::report::JsonValue` and moved here so the
//! observability layer below the harness can emit trace files and the
//! CLI above it can read them back; `harness::report` re-exports it
//! unchanged. Object keys keep insertion order, which is what makes
//! byte-identical reports and traces possible for identical runs.
//!
//! The parser follows RFC 8259 for escapes: `\uXXXX` surrogate *pairs*
//! decode to their astral-plane scalar (`\uD83D\uDE00` → 😀), lone or
//! mispaired surrogates decode to U+FFFD, and integers that fit neither
//! `u64` (non-negative) nor `i64` (negative) fall back to `Float` rather
//! than erroring — matching how the emitter serializes out-of-range
//! numbers.

// The parser reads files this program did not write (`dagree obs`, fuzz
// repros): outside tests nothing here may panic on them.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::fmt::Write as _;

/// A JSON value with deterministic (insertion-ordered) object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (seeds and counters exceed `i64` range).
    UInt(u64),
    /// A finite float (non-finite values serialize as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl JsonValue {
    /// Serializes to compact JSON text.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => escape_into(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, key);
                    out.push(':');
                    value.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text. Numbers without sign, fraction or exponent
    /// parse as [`JsonValue::UInt`]; other integers as
    /// [`JsonValue::Int`]; the rest as [`JsonValue::Float`] — matching
    /// what the emitter would have produced for each variant.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object (first match; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (UInt, or a non-negative Int / integral Float).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(u) => Some(u),
            JsonValue::Int(i) => u64::try_from(i).ok(),
            // `u64::MAX as f64` rounds *up* to 2^64, which is out of
            // range — the bound must be strict or the cast saturates.
            // Everything below 2^64 with zero fraction casts exactly.
            JsonValue::Float(f) if f >= 0.0 && f.fract() == 0.0 && f < u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// The value as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            JsonValue::Int(i) => Some(i),
            JsonValue::UInt(u) => i64::try_from(u).ok(),
            // `i64::MAX as f64` rounds up to 2^63 (out of range), so the
            // upper bound is strict; `i64::MIN as f64` is exactly -2^63
            // and stays inclusive.
            JsonValue::Float(f)
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f < i64::MAX as f64 =>
            {
                Some(f as i64)
            }
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| JsonValue::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = read_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        match hi {
                            // High surrogate: pairs with an immediately
                            // following `\uDC00..=\uDFFF` escape to form
                            // one astral-plane scalar; unpaired it reads
                            // as U+FFFD.
                            0xD800..=0xDBFF => {
                                let tail = *pos + 1;
                                let lo = if bytes.get(tail) == Some(&b'\\')
                                    && bytes.get(tail + 1) == Some(&b'u')
                                {
                                    read_hex4(bytes, tail + 2)
                                        .ok()
                                        .filter(|c| (0xDC00..=0xDFFF).contains(c))
                                } else {
                                    None
                                };
                                match lo {
                                    Some(lo) => {
                                        let code = 0x1_0000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                        *pos += 6;
                                    }
                                    None => out.push('\u{fffd}'),
                                }
                            }
                            // Lone low surrogate.
                            0xDC00..=0xDFFF => out.push('\u{fffd}'),
                            code => out.push(char::from_u32(code).unwrap_or('\u{fffd}')),
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance over one UTF-8 scalar (input is a &str, so
                // boundaries are valid).
                let ch = std::str::from_utf8(&bytes[*pos..])
                    .ok()
                    .and_then(|s| s.chars().next())
                    .ok_or("invalid utf-8 in string")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// Four hex digits starting at byte `at` (the body of a `\uXXXX` escape).
fn read_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes
        .get(at..at + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or("truncated \\u escape")?;
    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("bad number at byte {start}"))?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected a value at byte {start}"));
    }
    if !text.contains(['.', 'e', 'E']) {
        if text.starts_with('-') {
            // Negative integers below `i64::MIN` fall through to Float,
            // exactly like positives above `u64::MAX` do.
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        } else if let Ok(u) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Float)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_shapes() {
        let v = JsonValue::Object(vec![
            ("s".into(), "a\"b\\c\nd\u{1}".into()),
            ("i".into(), JsonValue::Int(-3)),
            ("u".into(), JsonValue::UInt(u64::MAX)),
            ("f".into(), JsonValue::Float(0.25)),
            ("nan".into(), JsonValue::Float(f64::NAN)),
            ("b".into(), true.into()),
            ("n".into(), JsonValue::Null),
            ("a".into(), vec![1u64, 2].into()),
        ]);
        assert_eq!(
            v.to_json_string(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\",\"i\":-3,\"u\":18446744073709551615,\
             \"f\":0.25,\"nan\":null,\"b\":true,\"n\":null,\"a\":[1,2]}"
        );
    }

    #[test]
    fn parse_round_trips_emitted_text() {
        let v = JsonValue::Object(vec![
            ("s".into(), "a\"b\\c\nd\u{1}".into()),
            ("i".into(), JsonValue::Int(-3)),
            ("u".into(), JsonValue::UInt(u64::MAX)),
            ("f".into(), JsonValue::Float(0.25)),
            ("b".into(), true.into()),
            ("n".into(), JsonValue::Null),
            ("a".into(), vec![1u64, 2].into()),
            ("o".into(), JsonValue::Object(vec![])),
        ]);
        let text = v.to_json_string();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(parsed, v);
        // And re-emission is byte-stable.
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn parse_accepts_whitespace_and_unicode() {
        let v = JsonValue::parse(" { \"k\" : [ 1 , -2.5 , \"\\u00e9é\" ] } ").unwrap();
        let arr = v.get("k").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], JsonValue::Float(-2.5));
        assert_eq!(arr[2].as_str(), Some("éé"));
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_scalars() {
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("😀")
        );
        // Mixed-case hex, with surrounding text.
        assert_eq!(
            JsonValue::parse("\"a\\uD83D\\uDE80b\"").unwrap().as_str(),
            Some("a🚀b")
        );
        // Raw astral-plane text round-trips through emit + parse.
        let v = JsonValue::Str("x😀𝕊🚀".into());
        let text = v.to_json_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
        assert_eq!(JsonValue::parse(&text).unwrap().to_json_string(), text);
    }

    #[test]
    fn lone_surrogates_become_replacement_chars() {
        for (text, expect) in [
            ("\"\\ud83d\"", "\u{fffd}"),                 // lone high at end
            ("\"\\ud83dx\"", "\u{fffd}x"),               // high + literal
            ("\"\\ud83d\\n\"", "\u{fffd}\n"),            // high + non-\u escape
            ("\"\\ude00\"", "\u{fffd}"),                 // lone low
            ("\"\\ud83d\\ud83d\\ude00\"", "\u{fffd}😀"), // high, then a pair
        ] {
            assert_eq!(
                JsonValue::parse(text).unwrap().as_str(),
                Some(expect),
                "{text}"
            );
        }
    }

    #[test]
    fn integer_overflow_falls_through_to_float() {
        assert_eq!(
            JsonValue::parse("-9223372036854775808").unwrap(),
            JsonValue::Int(i64::MIN)
        );
        // One below i64::MIN: must parse as Float, not error out.
        let below_min = JsonValue::parse("-9223372036854775809").unwrap();
        assert!(
            matches!(below_min, JsonValue::Float(f) if f == i64::MIN as f64),
            "{below_min:?}"
        );
        assert_eq!(
            JsonValue::parse("18446744073709551615").unwrap(),
            JsonValue::UInt(u64::MAX)
        );
        let above_max = JsonValue::parse("18446744073709551616").unwrap();
        assert!(
            matches!(above_max, JsonValue::Float(f) if f == u64::MAX as f64),
            "{above_max:?}"
        );
    }

    #[test]
    fn float_accessors_reject_out_of_range_boundaries() {
        // 2^64 and 2^63 are exactly representable floats but sit one past
        // the integer ranges; a saturating cast would silently clamp them.
        assert_eq!(JsonValue::Float(u64::MAX as f64).as_u64(), None);
        assert_eq!(
            JsonValue::Float(18446744073709549568.0).as_u64(), // 2^64 - 2048
            Some(18446744073709549568)
        );
        assert_eq!(JsonValue::Float(i64::MAX as f64).as_i64(), None);
        assert_eq!(JsonValue::Float(i64::MIN as f64).as_i64(), Some(i64::MIN));
        assert_eq!(
            JsonValue::Float(9223372036854774784.0).as_i64(), // 2^63 - 1024
            Some(9223372036854774784)
        );
        assert_eq!(JsonValue::Float(f64::NAN).as_u64(), None);
        assert_eq!(JsonValue::Float(f64::INFINITY).as_i64(), None);
        assert_eq!(JsonValue::Float(0.5).as_u64(), None);
        assert_eq!(JsonValue::Float(-1.0).as_u64(), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1x",
            "\"unterminated",
            "{}extra",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse("{\"a\":7,\"b\":-7,\"c\":\"x\"}").unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("b").unwrap().as_i64(), Some(-7));
        assert_eq!(v.get("b").unwrap().as_u64(), None);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert!(v.get("d").is_none());
        assert!(v.as_object().is_some());
        assert!(JsonValue::Null.get("a").is_none());
    }
}
