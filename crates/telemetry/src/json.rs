//! Minimal JSON writer + parser (no dependencies).
//!
//! Covers exactly what the telemetry sinks need: objects, arrays, strings
//! with escapes, integers, floats, booleans and null. The parser reads
//! JSON back: metrics JSONL for `sia report`, `/predict` request bodies,
//! calibration files and the round-trip tests.
//!
//! The parser recurses once per array or object level, so it refuses
//! documents nested deeper than [`MAX_DEPTH`] instead of letting hostile
//! input overflow the stack.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. Every document the
/// repo reads nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Why [`parse`] rejected a document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// An array or object opened at byte `at` nests deeper than
    /// [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the opening bracket.
        at: usize,
    },
    /// Malformed input, described with its byte offset.
    Syntax(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
            JsonError::Syntax(msg) => f.write_str(msg),
        }
    }
}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

impl From<String> for JsonError {
    fn from(msg: String) -> JsonError {
        JsonError::Syntax(msg)
    }
}

impl From<&str> for JsonError {
    fn from(msg: &str) -> JsonError {
        JsonError::Syntax(msg.to_string())
    }
}

type Parsed<T> = Result<T, JsonError>;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (order-insensitive).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member of an object, if this is an object and the key exists.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value as u64 (rounded), if this is a number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n.round() as u64)
    }

    /// String value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Appends a JSON string literal (with escapes) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Writes an f64 as JSON (finite → shortest round-trip form; non-finite →
/// `null`, which JSON cannot represent).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// [`JsonError::TooDeep`] past [`MAX_DEPTH`] nested arrays/objects;
/// [`JsonError::Syntax`], with the byte offset, on any other malformed
/// input.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}").into());
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Parsed<()> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char).into())
    }
}

/// One value inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Parsed<Json> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonError::TooDeep { at: *pos }),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Parsed<Json> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}").into())
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Parsed<Json> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}").into())
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Parsed<String> {
    expect(bytes, pos, b'"')?;
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}").into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // consume one UTF-8 scalar (multi-byte sequences included)
                let s = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("bad UTF-8 at byte {pos}"))?;
                let c = s.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Parsed<Json> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}").into()),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Parsed<Json> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}").into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc =
            r#"{"ev":"accel.layer","cycles":1234,"ok":true,"sub":{"a":[1,2.5,-3]},"s":"x\"y\n"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("ev").and_then(Json::as_str), Some("accel.layer"));
        assert_eq!(v.get("cycles").and_then(Json::as_u64), Some(1234));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            v.get("sub").and_then(|s| s.get("a")),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-3.0)
            ]))
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\"y\n"));
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\\ \u{1}héllo";
        let mut out = String::new();
        write_escaped(&mut out, nasty);
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn escape_round_trips_every_control_char() {
        // all of U+0000..U+001F must escape to legal JSON and parse back
        let controls: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let mut out = String::new();
        write_escaped(&mut out, &controls);
        // the literal bytes must not leak into the encoded form
        assert!(
            out.bytes().all(|b| b >= 0x20),
            "raw control byte in {out:?}"
        );
        assert_eq!(parse(&out).unwrap().as_str(), Some(controls.as_str()));
    }

    #[test]
    fn escape_round_trips_non_ascii_and_astral() {
        // BMP accents, CJK, and astral-plane (surrogate-pair) code points
        for s in ["héllo wörld", "層をまたぐ", "𝕊𝕀𝔸 🚀", "a\"b\\c\u{7f}d"] {
            let mut out = String::new();
            write_escaped(&mut out, s);
            assert_eq!(parse(&out).unwrap().as_str(), Some(s), "via {out:?}");
        }
    }

    #[test]
    fn escaped_strings_embed_in_jsonl_lines() {
        // a field value with quotes/backslashes must not break the line's
        // object framing — the exact failure mode of a JSONL sink
        let evil = "conv\"3x3\\64\n\tlayer";
        let mut line = String::from("{\"ev\":\"t\",\"name\":");
        write_escaped(&mut line, evil);
        line.push('}');
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("name").and_then(Json::as_str), Some(evil));
        // still a single physical line, as JSONL requires
        assert!(!line.contains('\n'));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&arrays(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep { at: MAX_DEPTH })
        );
        let objects = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(matches!(
            parse(&objects(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep { .. })
        ));
        // the `/predict` body that overflowed a server thread's stack
        let body = format!("{{\"image\":{}}}", arrays(300_000));
        assert_eq!(
            parse(&body),
            Err(JsonError::TooDeep {
                at: 9 + MAX_DEPTH - 1
            })
        );
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        out.clear();
        write_f64(&mut out, 1.5);
        assert_eq!(out, "1.5");
    }
}
