//! The workspace's single JSON emitter and parser.
//!
//! The workspace depends on no serialization crate, so this module is the
//! serialization layer: a small ordered JSON document model with a pretty
//! emitter and a strict parser. Everything in the
//! repository that produces or consumes JSON — [`crate::report::Table`],
//! [`crate::campaign::CampaignSpec`] files, [`crate::campaign::CampaignResult`]
//! reports, result-store rows and query output — goes through [`Json`], so
//! there is exactly one emitter to keep correct.

use std::fmt;

/// What went wrong while parsing a JSON document. The parser sits on a
/// socket boundary (`dspatch-serve` feeds it raw network bytes), so hostile
/// shapes get their own kinds: callers can distinguish a resource-exhaustion
/// attempt ([`JsonErrorKind::DepthExceeded`]) from a merely malformed
/// document without string-matching the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JsonErrorKind {
    /// Malformed syntax (bad literal, missing delimiter, bad number, ...).
    Syntax,
    /// An object repeats a key. `get()` returns the first occurrence, so a
    /// duplicate would silently shadow the later value — classic
    /// request-smuggling material on a network boundary.
    DuplicateKey,
    /// A `\uD800`–`\uDBFF` escape without its low surrogate (or a bare low
    /// surrogate): such strings have no UTF-8 meaning.
    UnpairedSurrogate,
    /// The document nests deeper than [`MAX_DEPTH`] levels — a stack-
    /// overflow bomb, rejected before it can recurse.
    DepthExceeded,
    /// Non-whitespace bytes follow the first complete document.
    TrailingData,
}

impl JsonErrorKind {
    /// Stable lower-case label for logs and error documents.
    pub fn label(self) -> &'static str {
        match self {
            JsonErrorKind::Syntax => "syntax",
            JsonErrorKind::DuplicateKey => "duplicate_key",
            JsonErrorKind::UnpairedSurrogate => "unpaired_surrogate",
            JsonErrorKind::DepthExceeded => "depth_exceeded",
            JsonErrorKind::TrailingData => "trailing_data",
        }
    }
}

/// A typed JSON parse failure: the kind, the byte offset of the problem,
/// and a human-readable message (which already includes the offset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Coarse classification of the failure.
    pub kind: JsonErrorKind,
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
    /// Rendered description (includes the offset).
    pub message: String,
}

impl JsonError {
    fn new(kind: JsonErrorKind, offset: usize, message: String) -> Self {
        Self {
            kind,
            offset,
            message,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

/// Most existing callers propagate parse failures as `String`; the typed
/// error converts losslessly (the message embeds kind-specific context).
impl From<JsonError> for String {
    fn from(error: JsonError) -> String {
        error.message
    }
}

/// An ordered JSON value. Objects preserve insertion order so emitted
/// documents are deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Non-finite values emit as `null` (JSON has no NaN).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered list of `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from an entry list.
    pub fn obj(entries: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from a value list.
    pub fn arr(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(values.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(value: impl AsRef<str>) -> Json {
        Json::Str(value.as_ref().to_owned())
    }

    /// Builds a number from anything convertible to `f64`.
    pub fn num(value: impl Into<f64>) -> Json {
        Json::Num(value.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is an integral number
    /// below 2^53. Doubles cannot distinguish adjacent integers from 2^53
    /// up, so larger values are rejected rather than silently rounded —
    /// fields that need the full u64 range (mix seeds) use decimal strings.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT_LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_LIMIT => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(values) => Some(values),
            _ => None,
        }
    }

    /// The value as an object entry slice, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline, the format every emitted file in the repository uses.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    /// Renders the document on one line (used inside log lines and tests).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(values) => {
                if values.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, value) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        push_indent(out, indent + 1);
                    }
                    value.write(out, indent + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    push_indent(out, indent);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        push_indent(out, indent + 1);
                    }
                    write_string(out, key);
                    out.push(':');
                    out.push(' ');
                    value.write(out, indent + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    push_indent(out, indent);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a typed [`JsonError`] carrying the failure kind and the byte
    /// offset of the first problem (syntax error, duplicate object key,
    /// unpaired surrogate, nesting past [`MAX_DEPTH`], or trailing
    /// non-whitespace after the document).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(JsonError::new(
                JsonErrorKind::TrailingData,
                parser.pos,
                format!(
                    "trailing characters after JSON document at byte {}",
                    parser.pos
                ),
            ));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_compact())
    }
}

/// Rounds `value` to the decimal precision given by `scale` (e.g. `1e6` for
/// six decimal places). Emitted JSON numbers go through this one helper so
/// every document rounds identically.
pub fn rounded(value: f64, scale: f64) -> f64 {
    (value * scale).round() / scale
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        // Integral values print without a fractional part or exponent.
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parser recursion limit: nesting past this depth is a parse error rather
/// than a stack overflow (serde_json uses the same bound).
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A [`JsonErrorKind::Syntax`] error at the current position.
    fn syntax(&self, message: String) -> JsonError {
        JsonError::new(JsonErrorKind::Syntax, self.pos, message)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(format!("expected '{}' at byte {}", byte as char, self.pos)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(JsonError::new(
                JsonErrorKind::DepthExceeded,
                self.pos,
                format!(
                    "document nested deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                ),
            ));
        }
        let value = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.syntax(format!("unexpected character at byte {}", self.pos))),
        };
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key_pos = self.pos;
            let key = self.string()?;
            // get() returns the first occurrence, so a duplicate would
            // silently shadow the later value; reject it instead.
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(JsonError::new(
                    JsonErrorKind::DuplicateKey,
                    key_pos,
                    format!("duplicate object key '{key}' at byte {key_pos}"),
                ));
            }
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.syntax(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(values));
        }
        loop {
            values.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(values));
                }
                _ => return Err(self.syntax(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                // RFC 8259: control characters must be escaped.
                if c < 0x20 {
                    return Err(self.syntax(format!(
                        "unescaped control character in string at byte {}",
                        self.pos
                    )));
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.syntax(format!("invalid UTF-8 in string at byte {start}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| {
                        self.syntax(format!("unterminated escape at byte {}", self.pos))
                    })?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Decode surrogate pairs; a lone half has no
                            // UTF-8 meaning and gets the typed kind.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if !self.eat_literal("\\u") {
                                    return Err(JsonError::new(
                                        JsonErrorKind::UnpairedSurrogate,
                                        self.pos,
                                        format!("unpaired surrogate at byte {}", self.pos),
                                    ));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(JsonError::new(
                                        JsonErrorKind::UnpairedSurrogate,
                                        self.pos,
                                        format!(
                                            "high surrogate not followed by a low surrogate \
                                             at byte {}",
                                            self.pos
                                        ),
                                    ));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else if (0xDC00..0xE000).contains(&code) {
                                return Err(JsonError::new(
                                    JsonErrorKind::UnpairedSurrogate,
                                    self.pos,
                                    format!("lone low surrogate at byte {}", self.pos),
                                ));
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| {
                                self.syntax(format!(
                                    "invalid \\u escape ending at byte {}",
                                    self.pos
                                ))
                            })?);
                        }
                        other => {
                            return Err(self.syntax(format!(
                                "invalid escape '\\{}' at byte {}",
                                other as char, self.pos
                            )))
                        }
                    }
                }
                _ => return Err(self.syntax(format!("unterminated string at byte {}", self.pos))),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.syntax(format!("truncated \\u escape at byte {}", self.pos)));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.syntax(format!("invalid \\u escape at byte {}", self.pos)))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| self.syntax(format!("invalid \\u escape at byte {}", self.pos)))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: at least one digit, no leading zeros (RFC 8259).
        let int_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let int_len = self.pos - int_start;
        if int_len == 0 {
            return Err(self.syntax(format!("number needs a digit at byte {}", self.pos)));
        }
        if int_len > 1 && self.bytes[int_start] == b'0' {
            return Err(self.syntax(format!("number has a leading zero at byte {start}")));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.syntax(format!(
                    "number needs a digit after '.' at byte {}",
                    self.pos
                )));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.syntax(format!(
                    "number needs a digit in its exponent at byte {}",
                    self.pos
                )));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.syntax(format!("invalid number at byte {start}")))?;
        let value: f64 = text
            .parse()
            .map_err(|_| self.syntax(format!("invalid number '{text}' at byte {start}")))?;
        // Rust parses overflowing literals to infinity; rendering would then
        // turn them into null, so reject them up front.
        if !value.is_finite() {
            return Err(self.syntax(format!(
                "number '{text}' overflows a double at byte {start}"
            )));
        }
        Ok(Json::Num(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render_compact(), "null");
        assert_eq!(Json::Bool(true).render_compact(), "true");
        assert_eq!(Json::num(3u32).render_compact(), "3");
        assert_eq!(Json::num(3.25).render_compact(), "3.25");
        assert_eq!(Json::Num(f64::NAN).render_compact(), "null");
        assert_eq!(Json::str("a\"b\n").render_compact(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn renders_nested_documents() {
        let doc = Json::obj([
            ("name", Json::str("demo")),
            ("values", Json::arr([Json::num(1u32), Json::num(2u32)])),
            ("empty", Json::Obj(Vec::new())),
        ]);
        let pretty = doc.render();
        assert!(pretty.starts_with("{\n  \"name\": \"demo\""));
        assert!(pretty.ends_with("}\n"));
        assert_eq!(
            doc.render_compact(),
            "{\"name\": \"demo\",\"values\": [1,2],\"empty\": {}}"
        );
    }

    #[test]
    fn parses_what_it_renders() {
        let doc = Json::obj([
            ("s", Json::str("αβ ≥ \"x\"\t")),
            ("n", Json::num(-12.5)),
            ("i", Json::num(9_007_199_254_740_000.0_f64)),
            ("b", Json::Bool(false)),
            ("z", Json::Null),
            (
                "a",
                Json::arr([Json::str("one"), Json::obj([("k", Json::num(2u32))])]),
            ),
        ]);
        for text in [doc.render(), doc.render_compact()] {
            assert_eq!(Json::parse(&text).expect("round trip"), doc);
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let parsed = Json::parse(r#""aéA😀\/""#).unwrap();
        assert_eq!(parsed, Json::str("aéA😀/"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "1 2",
            "nul",
            "{\"a\" 1}",
            r#""\ud800A""#,
            r#""\ud800""#,
            "\"\\ud800\\u0041\"",
            "01",
            "1.",
            "-.5",
            "1e",
            "1e400",
            "\"raw\ncontrol\"",
            "\"tab\there\"",
            r#"{"a": 1, "a": 2}"#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let bomb = "[".repeat(200_000) + &"]".repeat(200_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::DepthExceeded);
        assert!(err.message.contains("nested deeper"), "got: {err}");
        // Nesting below the limit still parses.
        let fine = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&fine).is_ok());
    }

    #[test]
    fn hostile_input_errors_are_typed() {
        use JsonErrorKind::*;
        for (bad, kind) in [
            (r#"{"a": 1, "a": 2}"#.to_string(), DuplicateKey),
            (r#""\ud800A""#.to_string(), UnpairedSurrogate),
            (r#""\ud800""#.to_string(), UnpairedSurrogate),
            ("\"\\ud800\\u0041\"".to_string(), UnpairedSurrogate),
            (r#""\udc00""#.to_string(), UnpairedSurrogate),
            (
                "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1),
                DepthExceeded,
            ),
            ("1 2".to_string(), TrailingData),
            ("{\"a\":}".to_string(), Syntax),
        ] {
            let err = Json::parse(&bad).unwrap_err();
            assert_eq!(err.kind, kind, "for {bad:?}: {err}");
            assert!(!err.kind.label().is_empty());
            assert!(err.offset <= bad.len(), "offset past end for {bad:?}");
        }
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"a": {"b": [1, true, "x"]}}"#).unwrap();
        let arr = doc.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(arr.as_arr().unwrap().len(), 3);
        assert_eq!(arr.as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(arr.as_arr().unwrap()[1].as_bool(), Some(true));
        assert_eq!(arr.as_arr().unwrap()[2].as_str(), Some("x"));
        assert!(doc.get("missing").is_none());
        assert_eq!(Json::num(1.5).as_u64(), None);
        // Integers from 2^53 up are ambiguous as doubles and are rejected.
        assert_eq!(
            Json::num(9_007_199_254_740_991.0_f64).as_u64(),
            Some((1 << 53) - 1)
        );
        assert_eq!(Json::num(9_007_199_254_740_992.0_f64).as_u64(), None);
    }
}
