//! The workspace's one JSON writer and reader (it has no JSON dependency).
//!
//! Every JSON file the repo emits — metrics snapshots, Chrome traces,
//! progress lines, the campaign report — is built as a [`Value`] and
//! written by [`Value::render`]; [`parse`] reads the same grammar back, so
//! tests and the benchmark inspect those outputs structurally.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as `f64`, so integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving member order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object with `members` in the order given.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member `key` of an object, or element `key`-named lookup on
    /// anything else returns `None`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Writes this value as JSON. Arrays and objects nested fewer than
    /// `levels` deep put each element on its own line, indented `indent`
    /// spaces per level; deeper ones stay on one line, so `levels == 0` is
    /// the one-line form [`Display`](fmt::Display) writes. Numbers print
    /// in their shortest exact form (integral ones without a fraction);
    /// non-finite ones, which JSON cannot carry, print as `null`.
    pub fn render(&self, indent: usize, levels: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, indent, levels, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize, levels: usize, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                write_seq(out, ['[', ']'], items, indent, levels, depth, |out, v| {
                    v.write(out, indent, levels, depth + 1);
                })
            }
            Value::Obj(members) => {
                write_seq(
                    out,
                    ['{', '}'],
                    members,
                    indent,
                    levels,
                    depth,
                    |out, (k, v)| {
                        write_str(out, k);
                        out.push_str(": ");
                        v.write(out, indent, levels, depth + 1);
                    },
                );
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(0, 0))
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Num(n as f64)
            }
        }
    )*};
}
from_number!(f64, u64, u32, usize);

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

/// Writes `items` comma-separated between `open` and `close`, one per
/// line when `depth < levels` (see [`Value::render`]).
fn write_seq<T>(
    out: &mut String,
    [open, close]: [char; 2],
    items: impl IntoIterator<Item = T>,
    indent: usize,
    levels: usize,
    depth: usize,
    mut item: impl FnMut(&mut String, T),
) {
    let expand = depth < levels;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent * depth));
    };
    out.push(open);
    let mut empty = true;
    for it in items {
        if !empty {
            out.push(',');
        }
        if expand {
            newline(out, depth + 1);
        } else if !empty {
            out.push(' ');
        }
        item(out, it);
        empty = false;
    }
    if expand && !empty {
        newline(out, depth);
    }
    out.push(close);
}

/// Renders the object `{key: [items]}` as [`Value::render`]`(0, 2)` would
/// — one item per line — but writes each item as `items` produces it, so
/// an array too long to hold as one tree (a Chrome trace's events) never
/// is one.
pub(crate) fn render_streamed(key: &str, items: impl IntoIterator<Item = Value>) -> String {
    let mut out = String::from("{\n");
    write_str(&mut out, key);
    out.push_str(": ");
    write_seq(&mut out, ['[', ']'], items, 0, 2, 1, |out, v| {
        v.write(out, 0, 2, 2)
    });
    out.push_str("\n}");
    out
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses `input` as a single JSON value (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", byte as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(s),
            b'\\' => {
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'/' => s.push('/'),
                    b'n' => s.push('\n'),
                    b't' => s.push('\t'),
                    b'r' => s.push('\r'),
                    b'b' => s.push('\u{8}'),
                    b'f' => s.push('\u{c}'),
                    b'u' => {
                        // Surrogate pairs are not decoded: the writer only
                        // escapes control characters this way.
                        let c = b
                            .get(*pos..*pos + 4)
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        s.push(c);
                        *pos += 4;
                    }
                    other => return Err(format!("unsupported escape '\\{}'", *other as char)),
                }
            }
            _ => {
                // Multi-byte UTF-8 passes through byte-wise; re-validate at
                // the end of the run of continuation bytes.
                let start = *pos - 1;
                let mut end = *pos;
                while end < b.len() && b[end] & 0xC0 == 0x80 {
                    end += 1;
                }
                if c < 0x80 {
                    s.push(c as char);
                } else {
                    let chunk = std::str::from_utf8(&b[start..end])
                        .map_err(|_| format!("invalid utf-8 at byte {start}"))?;
                    s.push_str(chunk);
                    *pos = end;
                }
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x", "d": true}, "e": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(|c| c.as_str()),
            Some("x")
        );
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": 1,}"#).is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate");
    }

    #[test]
    fn handles_escapes_and_whitespace() {
        let v = parse(" { \"k\" : \"a\\nb\" } ").unwrap();
        assert_eq!(v.get("k").and_then(|k| k.as_str()), Some("a\nb"));
        let v = parse(r#""\u0001é\b\f""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1}é\u{8}\u{c}"));
    }

    #[test]
    fn writer_and_reader_round_trip() {
        let strings = [
            "",
            "quote \" and backslash \\ and slash /",
            "controls \n \r \t \u{0} \u{1} \u{8} \u{c} \u{1f} \u{7f}",
            "non-ASCII: café, 日本語, 🎬",
        ];
        let two_53 = 9_007_199_254_740_992.0;
        let numbers = [
            0.0,
            1.0,
            -1.0,
            two_53,
            -two_53,
            0.5,
            -0.25,
            0.1,
            1.0 / 3.0,
            -7.5e-9,
            1.5e300,
        ];
        let leaves: Vec<Value> = [Value::Null, Value::Bool(true), Value::Bool(false)]
            .into_iter()
            .chain(strings.map(Value::from))
            .chain(numbers.map(Value::from))
            .collect();
        let nested = r#"{"empty": [], "none": {}, "deep": [[[]], {"k \"q\"": {"x": [1, -2.5]}}]}"#;
        let tree = Value::obj([
            ("leaves", Value::Arr(leaves.clone())),
            ("nested", parse(nested).unwrap()),
        ]);
        for v in leaves.iter().chain([&tree]) {
            for levels in 0..4 {
                assert_eq!(parse(&v.render(2, levels)).as_ref(), Ok(v), "{v}");
            }
        }
        // Integral numbers print without a fraction; `Display` is one line.
        assert_eq!(Value::from(two_53).to_string(), "9007199254740992");
        assert_eq!(Value::from(-3.0).to_string(), "-3");
        assert_eq!(Value::from(f64::NAN).to_string(), "null");
        assert_eq!(tree.to_string(), tree.render(2, 0));
    }

    #[test]
    fn render_expands_only_the_outer_levels() {
        let v = Value::obj([
            ("a", Value::Arr(vec![1.0.into(), 2.0.into()])),
            ("b", Value::Obj(Vec::new())),
        ]);
        assert_eq!(v.to_string(), r#"{"a": [1, 2], "b": {}}"#);
        assert_eq!(v.render(2, 1), "{\n  \"a\": [1, 2],\n  \"b\": {}\n}");
        assert_eq!(
            v.render(2, 2),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}"
        );
        for items in [vec![], vec![v.clone()], vec![v.clone(), Value::Null]] {
            let tree = Value::obj([("events", Value::Arr(items.clone()))]);
            assert_eq!(render_streamed("events", items), tree.render(0, 2));
        }
    }
}
