//! Minimal dependency-free JSON support for flat objects.
//!
//! The workspace builds offline with no external crates, so the JSONL
//! export hand-rolls its serialization. Only what the trace format needs
//! is implemented: flat objects whose values are strings, integers,
//! floats, or booleans. [`JsonObject`] builds a line; [`parse_flat`]
//! parses one back (used by the schema validator and by trace consumers).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string value.
    Str(String),
    /// A non-negative integer value (every numeric field in the trace is
    /// a count, an id, or a nanosecond timestamp).
    UInt(u64),
    /// A negative integer value. The program writes none, but the parser
    /// also reads JSON written elsewhere.
    Int(i64),
    /// A floating-point value.
    Float(f64),
    /// A boolean value.
    Bool(bool),
}

impl JsonValue {
    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// An ordered builder for one flat JSON object (one JSONL line).
///
/// Fields render in insertion order, so the export is byte-deterministic.
///
/// # Examples
///
/// ```
/// use rtpb_obs::json::JsonObject;
///
/// let mut line = JsonObject::new();
/// line.str_field("kind", "update_sent").uint_field("seq", 7);
/// assert_eq!(line.finish(), r#"{"kind":"update_sent","seq":7}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObject { buf: String::new() }
    }

    fn key(&mut self, key: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        escape_into(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Appends a string field.
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        escape_into(&mut self.buf, value);
        self
    }

    /// Appends an unsigned integer field.
    pub fn uint_field(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a float field (non-finite values render as `null`).
    pub fn float_field(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Appends a boolean field.
    pub fn bool_field(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the rendered line.
    #[must_use]
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

/// Escapes `s` as a JSON string (with surrounding quotes) into `buf`.
fn escape_into(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Why a JSONL line failed to parse as a flat object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Parses one flat JSON object (string/number/bool values only — the
/// trace schema) into an ordered map.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed input, nested containers, or
/// duplicate keys.
pub fn parse_flat(line: &str) -> Result<BTreeMap<String, JsonValue>, JsonError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let map = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(map)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            reason,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, reason: &'static str) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn object(&mut self) -> Result<BTreeMap<String, JsonValue>, JsonError> {
        self.skip_ws();
        self.expect(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            let value = self.value()?;
            if map.insert(key, value).is_some() {
                return Err(self.err("duplicate key"));
            }
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'{' | b'[') => Err(self.err("nested containers not allowed in flat schema")),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &'static str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-utf8 number"))?;
        if float {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| self.err("bad float"))
        } else if let Ok(v) = text.parse::<u64>() {
            Ok(JsonValue::UInt(v))
        } else {
            text.parse::<i64>()
                .map(JsonValue::Int)
                .map_err(|_| self.err("bad integer"))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("non-utf8 string"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_parses_round_trip() {
        let mut o = JsonObject::new();
        o.str_field("kind", "update \"sent\"\n")
            .uint_field("seq", 42)
            .float_field("rate", 0.5)
            .bool_field("lost", true);
        let line = o.finish();
        let map = parse_flat(&line).unwrap();
        assert_eq!(map["kind"], JsonValue::Str("update \"sent\"\n".into()));
        assert_eq!(map["seq"].as_u64(), Some(42));
        assert_eq!(map["rate"], JsonValue::Float(0.5));
        assert_eq!(map["lost"].as_bool(), Some(true));
    }

    #[test]
    fn parses_signed_integers_from_outside_json() {
        let map = parse_flat(r#"{"delta":-3,"big":-9223372036854775808}"#).unwrap();
        assert_eq!(map["delta"], JsonValue::Int(-3));
        assert_eq!(map["delta"].as_u64(), None);
        assert_eq!(map["big"], JsonValue::Int(i64::MIN));
        assert!(parse_flat(r#"{"a":-99999999999999999999}"#).is_err());
    }

    #[test]
    fn empty_object_is_valid() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert!(parse_flat("{}").unwrap().is_empty());
    }

    #[test]
    fn rejects_nested_and_malformed() {
        assert!(parse_flat(r#"{"a":{}}"#).is_err());
        assert!(parse_flat(r#"{"a":[1]}"#).is_err());
        assert!(parse_flat(r#"{"a":1"#).is_err());
        assert!(parse_flat(r#"{"a":1} extra"#).is_err());
        assert!(parse_flat(r#"{"a":1,"a":2}"#).is_err());
    }

    #[test]
    fn control_chars_are_escaped() {
        let mut o = JsonObject::new();
        o.str_field("m", "\u{1}x");
        let line = o.finish();
        assert!(line.contains("\\u0001"));
        let map = parse_flat(&line).unwrap();
        assert_eq!(map["m"].as_str(), Some("\u{1}x"));
    }

    #[test]
    fn unicode_survives_round_trip() {
        let mut o = JsonObject::new();
        o.str_field("m", "δ_i ≤ ℓ");
        let map = parse_flat(&o.finish()).unwrap();
        assert_eq!(map["m"].as_str(), Some("δ_i ≤ ℓ"));
    }
}
