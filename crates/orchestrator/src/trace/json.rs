//! The workspace's JSON, both ways, with no serde: a minimal
//! recursive-descent reader, enough to validate the JSON this workspace
//! emits (Chrome traces here, and the `BENCH_*.json` artifacts via
//! `qoncord_bench::require_keys`), and the one writer the trace's JSONL
//! lines and Chrome export go through. The reader is not a general JSON
//! library — object keys stay in document order and numbers are `f64`.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number; JSON does not distinguish integers from floats.
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// An array of values.
    Array(Vec<Value>),
    /// An object as `(key, value)` pairs in document order
    /// (duplicate keys are kept, callers take the first match).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object's fields, or `None` for non-objects.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array's items, or `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string's contents, or `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, or `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an unsigned integer, `None` unless it is a
    /// non-negative whole number (or for non-numbers).
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Parses one complete JSON document.
///
/// # Errors
///
/// Returns a byte-offset description of the first syntax error, or of
/// trailing non-whitespace after the document.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) != Some(&c) {
        return Err(format!("expected '{}' at byte {}", c as char, *pos));
    }
    *pos += 1;
    Ok(())
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, String> {
    if !bytes[*pos..].starts_with(literal.as_bytes()) {
        return Err(format!("invalid literal at byte {}", *pos));
    }
    *pos += literal.len();
    Ok(value)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .filter(|s| is_number(s))
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Number)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

/// JSON's number grammar, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_number(s: &str) -> bool {
    let digits = |d: &str| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit());
    let s = s.strip_prefix('-').unwrap_or(s);
    let (mantissa, exp) = s.split_once(['e', 'E']).unwrap_or((s, "0"));
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
    digits(int)
        && (int == "0" || !int.starts_with('0'))
        && digits(frac)
        && digits(exp.strip_prefix(['+', '-']).unwrap_or(exp))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(&c @ (b'"' | b'\\' | b'/')) => out.push(c as char),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(format!("raw control character at byte {}", *pos)),
            Some(_) => {
                // The run to the next quote, backslash or control byte:
                // ASCII bounds it, so it is whole characters of `input`.
                let run = *pos;
                let plain = |b: &u8| *b >= 0x20 && *b != b'"' && *b != b'\\';
                while bytes.get(*pos).is_some_and(plain) {
                    *pos += 1;
                }
                let text = std::str::from_utf8(&bytes[run..*pos]).map_err(|_| "bad utf-8")?;
                out.push_str(text);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// A value the writer can emit.
pub(crate) trait ToJson {
    /// Appends the value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let mut rest = self;
        let special = |b| b == b'"' || b == b'\\' || b < b' ';
        while let Some(at) = rest.bytes().position(special) {
            out.push_str(&rest[..at]);
            // An ASCII byte, so `at` and `at + 1` are character boundaries.
            match rest.as_bytes()[at] {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                c => {
                    let _ = write!(out, "\\u{c:04x}");
                }
            }
            rest = &rest[at + 1..];
        }
        out.push_str(rest);
        out.push('"');
    }
}

/// Finite floats in Rust's shortest round-trip decimal, so every value
/// parses back exactly.
impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        debug_assert!(self.is_finite(), "JSON has no non-finite numbers");
        let _ = write!(out, "{self}");
    }
}

macro_rules! display_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_json!(bool, u32, u64, i64, usize);

/// `None` is `null`, so an optional field never leaves its object's schema.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Appends one JSON object to `out`: the fields `body` writes, in the order
/// it writes them, with no whitespace.
pub(crate) fn object(out: &mut String, body: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    body(&mut Object { out, empty: true });
    out.push('}');
}

/// The fields of an object being written by [`object`].
pub(crate) struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Object<'_> {
    /// Appends `"key":value`.
    pub(crate) fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        self.key(key);
        value.write_json(self.out);
        self
    }

    /// Appends `"key":{…}` with the fields `body` writes.
    pub(crate) fn object(&mut self, key: &str, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.key(key);
        object(self.out, body);
        self
    }

    /// Keys are this crate's own field names, so they are not escaped.
    fn key(&mut self, key: &str) {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }
}
