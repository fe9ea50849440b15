//! The workspace's one JSON implementation: a [`Value`] tree, a 2-space
//! pretty printer and a strict parser.
//!
//! [`MetricsSnapshot::to_json`](crate::MetricsSnapshot::to_json) renders
//! its numbers and names through the same float and string encoders, and
//! the bench binaries build their `results/*.json` records as [`Value`]
//! trees.
//!
//! Floats print as the shortest text that parses back to the same `f64`,
//! with a `.0` suffix on integral values so they re-parse as floats.
//! Non-finite floats, which JSON cannot carry, print as `null`. Objects
//! are ordered `(key, value)` pairs: the printer keeps insertion order,
//! and neither side rejects a duplicate key.
//!
//! ```
//! use bba_obs::json::{parse, to_string_pretty, Value};
//! let v = Value::Map(vec![
//!     ("n".into(), Value::UInt(2)),
//!     ("xs".into(), Value::Seq(vec![Value::Float(1.0), Value::Null])),
//! ]);
//! let text = to_string_pretty(&v);
//! assert_eq!(text, "{\n  \"n\": 2,\n  \"xs\": [\n    1.0,\n    null\n  ]\n}");
//! assert_eq!(parse(&text), Ok(v));
//! ```

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts, so hostile input
/// fails with an [`Error`] instead of overflowing the stack.
pub const MAX_DEPTH: usize = 256;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer. [`parse`] yields this only for negative
    /// integers; non-negative ones come back as [`Value::UInt`].
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float. Non-finite values print as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object, as ordered `(key, value)` pairs.
    Map(Vec<(String, Value)>),
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset at which parsing stopped.
    pub offset: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for Error {}

/// Renders `value` as JSON indented by two spaces per level. Empty
/// arrays and objects print inline as `[]` and `{}`.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out
}

fn write_value(out: &mut String, value: &Value, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(x) => push_f64(out, *x),
        Value::Str(s) => push_str_json(out, s),
        Value::Seq(items) => write_items(out, ['[', ']'], items, level, |out, item| {
            write_value(out, item, level + 1);
        }),
        Value::Map(entries) => write_items(out, ['{', '}'], entries, level, |out, (k, v)| {
            push_str_json(out, k);
            out.push_str(": ");
            write_value(out, v, level + 1);
        }),
    }
}

/// Writes a bracketed, comma-separated container, one item per line.
fn write_items<T>(
    out: &mut String,
    [open, close]: [char; 2],
    items: &[T],
    level: usize,
    mut write_item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_newline(out, level + 1);
        write_item(out, item);
    }
    if !items.is_empty() {
        push_newline(out, level);
    }
    out.push(close);
}

fn push_newline(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Appends `v` as a JSON number (`null` for non-finite values, which JSON
/// cannot represent).
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    // `{}` prints integral floats without a decimal point; keep the value
    // unambiguously a float for downstream parsers.
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Appends `s` as a JSON string literal.
pub(crate) fn push_str_json(out: &mut String, s: &str) {
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

/// Parses one JSON document (RFC 8259), surrounded by optional
/// whitespace.
///
/// Integers without a fraction or exponent become [`Value::UInt`] or,
/// when negative, [`Value::Int`]; an integer outside both ranges, and
/// every other number, becomes a [`Value::Float`].
///
/// # Errors
///
/// Returns [`Error`] for anything outside the JSON grammar: leading
/// zeros, trailing commas, raw control characters or unpaired surrogates
/// in strings, numbers that overflow `f64`, nesting deeper than
/// [`MAX_DEPTH`], and trailing text.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &'static str) -> Error {
        Error { offset: self.pos, reason }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8, reason: &'static str) -> Result<(), Error> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.items(b']', Self::value).map(Value::Seq),
            Some(b'{') => self.items(b'}', Self::entry).map(Value::Map),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn entry(&mut self) -> Result<(String, Value), Error> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':', "expected `:`")?;
        Ok((key, self.value()?))
    }

    /// Parses an array or object from its opening bracket through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if !self.eat(close) {
            loop {
                out.push(item(self)?);
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                self.expect(b',', "expected `,` or a closing bracket")?;
            }
        }
        self.depth -= 1;
        Ok(out)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .ok_or(Error { offset: self.text.len(), reason: "unterminated string" })?;
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    self.pos += 1;
                    out.push(c);
                }
                _ => return Err(self.err("control character in string")),
            }
        }
    }

    /// Decodes the code point after `\u`, joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.err("unpaired surrogate"));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("unpaired surrogate"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let text = self.text;
        let digits = text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.err("expected digits"));
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if self.digits() == 0 {
                return Err(self.err("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        let token = &self.text[start..self.pos];
        if integral {
            if let Ok(u) = token.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = token.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => Err(Error { offset: start, reason: "number out of range" }),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        parse(&to_string_pretty(v)).expect("printed JSON parses")
    }

    #[test]
    fn roundtrip_scalars() {
        let x = 0.1f64 + 0.2;
        assert_eq!(roundtrip(&Value::Float(x)), Value::Float(x), "float roundtrip must be exact");
        assert_eq!(parse("-42"), Ok(Value::Int(-42)));
        assert_eq!(parse("42"), Ok(Value::UInt(42)));
        assert_eq!(parse("true"), Ok(Value::Bool(true)));
        assert_eq!(parse(" null "), Ok(Value::Null));
        assert_eq!(parse("\"a\\nb\""), Ok(Value::Str("a\nb".into())));
        assert_eq!(parse("\"\\u00e9\\ud834\\udd1e\\/\""), Ok(Value::Str("é𝄞/".into())));
    }

    #[test]
    fn roundtrip_containers() {
        let v = Value::Seq(vec![
            Value::Seq(vec![Value::Float(1.5), Value::UInt(2)]),
            Value::Seq(vec![Value::Float(3.25), Value::UInt(4)]),
        ]);
        assert_eq!(roundtrip(&v), v);
        assert_eq!(to_string_pretty(&Value::Null), "null");
        assert_eq!(to_string_pretty(&Value::Seq(Vec::new())), "[]");
        assert_eq!(to_string_pretty(&Value::Map(Vec::new())), "{}");
    }

    #[test]
    fn pretty_output_is_indented_and_parses() {
        let v = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::Int(-1), Value::UInt(2)])),
            ("b".into(), Value::Str("x".into())),
            ("c".into(), Value::Map(vec![("d".into(), Value::Map(Vec::new()))])),
        ]);
        let pretty = to_string_pretty(&v);
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    -1,\n    2\n  ],\n  \"b\": \"x\",\n  \"c\": {\n    \"d\": {}\n  }\n}"
        );
        assert_eq!(parse(&pretty), Ok(v));
    }

    #[test]
    fn whole_floats_stay_floats() {
        assert_eq!(to_string_pretty(&Value::Float(2.0)), "2.0");
        assert_eq!(to_string_pretty(&Value::Float(-0.0)), "-0.0");
        assert_eq!(to_string_pretty(&Value::Float(1e300)).parse::<f64>(), Ok(1e300));
        assert_eq!(parse("2.0"), Ok(Value::Float(2.0)));
        assert_eq!(parse("1e2"), Ok(Value::Float(100.0)));
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_string_pretty(&Value::Float(x)), "null");
        }
    }

    #[test]
    fn integers_beyond_64_bits_become_floats() {
        assert_eq!(parse("18446744073709551615"), Ok(Value::UInt(u64::MAX)));
        assert_eq!(parse("-9223372036854775808"), Ok(Value::Int(i64::MIN)));
        assert_eq!(parse("18446744073709551616"), Ok(Value::Float(18446744073709551616.0)));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "[1,",
            "1 2",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1,}",
            "{a:1}",
            "01",
            "1.",
            ".5",
            "-",
            "+1",
            "1e",
            "1e400",
            "nul",
            "\"abc",
            "\"tab\there\"",
            "\"\\x\"",
            "\"\\u12G4\"",
            "\"\\u+abc\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(parse("[1 2]").unwrap_err().offset, 3);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.reason, "nesting too deep");
        assert!(parse(&"[".repeat(100_000)).is_err());
    }
}
