//! The one JSON writer, and the validator that checks its output.
//!
//! The workspace has no JSON dependency, so every artifact the pipeline
//! emits — metrics reports, Chrome traces, tune files, bench-history
//! lines, fleet aggregation stats — is built with [`JsonWriter`]. It writes
//! keys in call order, escapes every key and string value with the one
//! escape rule (RFC 8259: `"`, `\` and U+0000–U+001F), and leaves number
//! formatting to the caller, so each artifact keeps its own precision.
//!
//! [`validate_json`] is a minimal recursive-descent parser that tests,
//! examples, CI and the tune-file loader use to check that an artifact
//! parses.
//!
//! ```
//! use psc_telemetry::json::{validate_json, JsonWriter, Layout};
//!
//! let mut point = JsonWriter::array(Layout::Inline);
//! point.item(1).item(2.5);
//! let mut doc = JsonWriter::object(Layout::Lines(0));
//! doc.string("name", "a\tb").field("point", point.finish());
//! let json = doc.finish();
//! assert_eq!(json, "{\n  \"name\": \"a\\tb\",\n  \"point\": [1, 2.5]\n}");
//! validate_json(&json).unwrap();
//! ```

use std::fmt::{Display, Write as _};

/// How a [`JsonWriter`] lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Every member on one line, separated by `", "`.
    Inline,
    /// One member per line. The container sits at nesting depth `d`
    /// (two spaces each); its members are indented one level deeper and
    /// its closing bracket sits on its own line at depth `d`.
    Lines(usize),
}

/// Builds one JSON object or array, member by member.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    layout: Layout,
    close: char,
    empty: bool,
}

impl JsonWriter {
    /// Start an object.
    #[must_use]
    pub fn object(layout: Layout) -> Self {
        Self { out: String::from("{"), layout, close: '}', empty: true }
    }

    /// Start an array.
    #[must_use]
    pub fn array(layout: Layout) -> Self {
        Self { out: String::from("["), layout, close: ']', empty: true }
    }

    /// Append the object member `"key": value`, writing `value` as it
    /// displays: a number in the caller's precision, `null`, or a nested
    /// container from [`JsonWriter::finish`].
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.separate();
        escape(&mut self.out, key);
        let _ = write!(self.out, ": {value}");
        self
    }

    /// Append the object member `"key": "value"`, with `value` escaped.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.separate();
        escape(&mut self.out, key);
        self.out.push_str(": ");
        escape(&mut self.out, value);
        self
    }

    /// Append one array element, written as it displays (see
    /// [`JsonWriter::field`]).
    pub fn item(&mut self, value: impl Display) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{value}");
        self
    }

    /// Close the container and return its text.
    #[must_use]
    pub fn finish(mut self) -> String {
        if let Layout::Lines(depth) = self.layout {
            self.newline(depth);
        }
        self.out.push(self.close);
        self.out
    }

    fn separate(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        match self.layout {
            Layout::Inline if !self.empty => self.out.push(' '),
            Layout::Inline => {}
            Layout::Lines(depth) => self.newline(depth + 1),
        }
        self.empty = false;
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", depth));
    }
}

/// Append `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// and every control character U+0000–U+001F gets its short escape or a
/// `\u00XX` one, as RFC 8259 requires.
fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Check that `input` is one syntactically valid JSON value (the
/// air-gapped workspace has no JSON dependency, so emitted artifacts —
/// metrics reports, Chrome trace files — are validated with this minimal
/// recursive-descent parser in tests, examples and CI). Strings must not
/// hold raw control characters (U+0000–U+001F), as RFC 8259 requires.
/// Arrays and objects may nest at most 128 deep, so a hostile input
/// cannot overflow the stack.
///
/// # Errors
///
/// Returns a byte offset + message for the first syntax error.
pub fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, MAX_JSON_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// The deepest array/object nesting [`validate_json`] accepts.
const MAX_JSON_DEPTH: usize = 128;

/// Parse one value; `depth` is how many more arrays/objects may open.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    match bytes.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{' | b'[') if depth == 0 => {
            Err(format!("nesting deeper than {MAX_JSON_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_object(bytes, pos, depth - 1),
        Some(b'[') => parse_array(bytes, pos, depth - 1),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, b"true"),
        Some(b'f') => parse_literal(bytes, pos, b"false"),
        Some(b'n') => parse_literal(bytes, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if !digits(bytes, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    *pos += 1; // opening quote
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at byte {pos}"));
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            0x00..=0x1f => return Err(format!("unescaped control character at byte {pos}")),
            _ => *pos += 1,
        }
    }
    Err(format!("unterminated string starting at byte {start}"))
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        parse_value(bytes, pos, depth)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_value(bytes, pos, depth)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("{\"a\": [1, 2.5, -3e4, \"x\\n\", null, true, {}]}").unwrap();
        validate_json("[]").unwrap();
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("[1, 2").is_err());
        assert!(validate_json("{} extra").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("01abc").is_err());
        for raw in ["\"a\tb\"", "\"a\rb\"", "\"a\nb\"", "\"a\u{0}b\"", "{\"k\u{1f}\": 1}"] {
            assert!(validate_json(raw).is_err(), "raw control character in {raw:?}");
        }
        validate_json("\"a\\tb\\u001f\"").unwrap();
        let nested = |d: usize| "[".repeat(d) + &"]".repeat(d);
        validate_json(&nested(MAX_JSON_DEPTH)).unwrap();
        assert!(validate_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err().contains("nesting"));
        assert!(validate_json(&"[".repeat(1 << 20)).is_err(), "no stack overflow");
    }

    #[test]
    fn escape_covers_quotes_backslashes_and_every_control_character() {
        let mut out = String::new();
        escape(&mut out, "q\"b\\n\nr\rt\tz\u{0}u\u{1f}é");
        assert_eq!(out, "\"q\\\"b\\\\n\\nr\\rt\\tz\\u0000u\\u001fé\"");
        validate_json(&out).unwrap();
    }

    #[test]
    fn layouts_place_separators_and_brackets() {
        let mut inline = JsonWriter::object(Layout::Inline);
        inline.field("a", 1).string("b", "x");
        assert_eq!(inline.finish(), "{\"a\": 1, \"b\": \"x\"}");

        let mut inner = JsonWriter::object(Layout::Lines(1));
        inner.field("k", "null");
        let mut outer = JsonWriter::object(Layout::Lines(0));
        outer.field("n", format_args!("{:.3}", 0.5)).field("inner", inner.finish());
        assert_eq!(outer.finish(), "{\n  \"n\": 0.500,\n  \"inner\": {\n    \"k\": null\n  }\n}");

        assert_eq!(JsonWriter::object(Layout::Lines(1)).finish(), "{\n  }");
        assert_eq!(JsonWriter::array(Layout::Lines(0)).finish(), "[\n]");
        let mut items = JsonWriter::array(Layout::Lines(0));
        items.item(1).item(2);
        assert_eq!(items.finish(), "[\n  1,\n  2\n]");
    }
}
