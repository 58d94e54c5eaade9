//! The workspace's JSON: one push-style writer ([`JsonWriter`]) and one
//! *syntax* validator ([`validate_json`]).  No value tree is built and
//! nothing is parsed back; there is no JSON dependency.
//!
//! Every `BENCH_*.json` artifact of the `bench` binaries and every Chrome
//! trace export is produced by the writer; the binaries check what they
//! write with the validator before it reaches disk.

use std::fmt::Write as _;

/// Append `value` as a JSON string literal (with escaping) to `out`.
fn push_json_str(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
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

/// A scalar the writer can serialize.
pub trait JsonValue {
    /// Append this value's JSON text to `out`.
    fn push_json(&self, out: &mut String);
}

impl JsonValue for str {
    fn push_json(&self, out: &mut String) {
        push_json_str(out, self);
    }
}

impl JsonValue for String {
    fn push_json(&self, out: &mut String) {
        push_json_str(out, self);
    }
}

impl JsonValue for bool {
    fn push_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

/// The one float rule: non-finite values become `null`, finite ones the
/// shortest exponent form that parses back to the same bits.
impl JsonValue for f64 {
    fn push_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:e}");
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! json_integers {
    ($($t:ty),*) => {$(
        impl JsonValue for $t {
            fn push_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
json_integers!(usize, u64, isize);

impl<T: JsonValue> JsonValue for Option<T> {
    fn push_json(&self, out: &mut String) {
        match self {
            Some(v) => v.push_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: JsonValue + ?Sized> JsonValue for &T {
    fn push_json(&self, out: &mut String) {
        (**self).push_json(out);
    }
}

/// Containers up to this nesting depth put one member per line; deeper
/// ones stay on their parent's line (a row of a results table reads as one
/// line).
const MULTILINE_DEPTH: usize = 2;

/// Push-style JSON writer: open containers, push keys and scalars, close
/// containers, [`finish`](Self::finish).  Commas, indentation, escaping and
/// the float format are its business; a call sequence that cannot yield a
/// well-formed document (a value without a key inside an object, a
/// mismatched close, an unfinished document) panics at the offending call.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Open containers, innermost last: is it an object, and how many
    /// members it holds so far.
    open: Vec<(bool, usize)>,
    /// A key has been written and its value has not.
    key_pending: bool,
}

impl JsonWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Comma, line break and indentation in front of the next member of the
    /// innermost container.
    fn separate(&mut self) {
        let depth = self.open.len();
        let (_, members) = self.open.last_mut().expect("no open container");
        let first = *members == 0;
        *members += 1;
        if !first {
            self.out.push(',');
        }
        if depth <= MULTILINE_DEPTH {
            self.newline(depth);
        } else if !first {
            self.out.push(' ');
        }
    }

    fn newline(&mut self, indent: usize) {
        self.out.push('\n');
        for _ in 0..indent {
            self.out.push_str("  ");
        }
    }

    fn before_value(&mut self) {
        if std::mem::take(&mut self.key_pending) {
            return;
        }
        match self.open.last() {
            None => assert!(self.out.is_empty(), "JSON: second root value"),
            Some((true, _)) => panic!("JSON: object member without a key"),
            Some((false, _)) => self.separate(),
        }
    }

    fn begin(&mut self, object: bool) -> &mut Self {
        self.before_value();
        self.out.push(if object { '{' } else { '[' });
        self.open.push((object, 0));
        self
    }

    fn end(&mut self, object: bool) -> &mut Self {
        assert!(!self.key_pending, "JSON: key without a value");
        let depth = self.open.len();
        let (was_object, members) = self.open.pop().expect("JSON: nothing to close");
        assert_eq!(was_object, object, "JSON: mismatched container close");
        if members > 0 && depth <= MULTILINE_DEPTH {
            self.newline(depth - 1);
        }
        self.out.push(if object { '}' } else { ']' });
        self
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.begin(true)
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.end(true)
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.begin(false)
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.end(false)
    }

    /// The key of the next member of the innermost (object) container.
    pub fn key(&mut self, key: &str) -> &mut Self {
        assert!(
            matches!(self.open.last(), Some((true, _))) && !self.key_pending,
            "JSON: key outside an object or after another key"
        );
        self.separate();
        push_json_str(&mut self.out, key);
        self.out.push_str(": ");
        self.key_pending = true;
        self
    }

    /// A scalar: an array element, the value of the pending key, or the
    /// whole document.
    pub fn value(&mut self, value: impl JsonValue) -> &mut Self {
        self.before_value();
        value.push_json(&mut self.out);
        self
    }

    /// `key(key)` followed by `value(value)`.
    pub fn field(&mut self, key: &str, value: impl JsonValue) -> &mut Self {
        self.key(key).value(value)
    }

    /// The finished document, newline-terminated.
    pub fn finish(mut self) -> String {
        assert!(
            self.open.is_empty() && !self.key_pending && !self.out.is_empty(),
            "JSON: unfinished document"
        );
        self.out.push('\n');
        self.out
    }
}

/// Validate that `input` is a single well-formed JSON value (with optional
/// surrounding whitespace).  Returns the byte offset and a message on error.
pub fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
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

fn fail(pos: usize, what: &str) -> String {
    format!("{what} at byte {pos}")
}

fn value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        None => Err(fail(*pos, "unexpected end of input")),
        Some(b'{') => object(bytes, pos),
        Some(b'[') => array(bytes, pos),
        Some(b'"') => string(bytes, pos),
        Some(b't') => literal(bytes, pos, b"true"),
        Some(b'f') => literal(bytes, pos, b"false"),
        Some(b'n') => literal(bytes, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => number(bytes, pos),
        Some(&c) => Err(fail(*pos, &format!("unexpected byte {:?}", c as char))),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(fail(*pos, "invalid literal"))
    }
}

fn object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(fail(*pos, "expected object key string"));
        }
        string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(fail(*pos, "expected ':'"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(fail(*pos, "expected ',' or '}'")),
        }
    }
}

fn array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(fail(*pos, "expected ',' or ']'")),
        }
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening '"'
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
                        *pos += 1;
                        for _ in 0..4 {
                            match bytes.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(fail(*pos, "invalid \\u escape")),
                            }
                        }
                    }
                    _ => return Err(fail(*pos, "invalid escape")),
                }
            }
            0x00..=0x1f => return Err(fail(*pos, "unescaped control character")),
            _ => *pos += 1,
        }
    }
    Err(fail(*pos, "unterminated string"))
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(fail(start, "number without digits"));
    }
    if digits > 1 && bytes[*pos - digits] == b'0' {
        return Err(fail(start, "number with a leading zero"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(fail(*pos, "number with empty fraction"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(fail(*pos, "number with empty exponent"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{validate_json, JsonWriter};

    #[test]
    fn writer_lays_out_a_small_document_exactly() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field("bench", "demo")
            .field("quick", true)
            .key("problem")
            .begin_object()
            .field("n", 36usize)
            .field("shift", -3isize)
            .end_object()
            .key("rows")
            .begin_array();
        for (name, x) in [("a\"b", 0.5), ("c\\d", f64::NAN)] {
            w.begin_object()
                .field("name", name)
                .field("x", x)
                .key("ranks")
                .begin_array()
                .value(1usize)
                .value(2usize)
                .end_array()
                .end_object();
        }
        w.end_array().end_object();
        let text = w.finish();
        let expected = r#"{
  "bench": "demo",
  "quick": true,
  "problem": {
    "n": 36,
    "shift": -3
  },
  "rows": [
    {"name": "a\"b", "x": 5e-1, "ranks": [1, 2]},
    {"name": "c\\d", "x": null, "ranks": [1, 2]}
  ]
}
"#;
        assert_eq!(text, expected);
        validate_json(&text).expect("writer output must validate");
    }

    #[test]
    fn writer_escapes_hostile_strings_and_nulls_non_finite_floats() {
        let hostile = "quote\" backslash\\ newline\n tab\t bell\u{7} nul\u{0} é 日本";
        let mut w = JsonWriter::new();
        w.begin_array().begin_object().field(hostile, hostile);
        w.key("floats").begin_array();
        let floats = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            1.29e148,
            5e-324,
            f64::MAX,
            0.1 + 0.2,
        ];
        for x in floats {
            w.value(x);
        }
        w.value(None::<f64>).value(Some("s")).end_array();
        w.key("empty_object").begin_object().end_object();
        w.key("empty_array").begin_array().end_array();
        w.end_object().end_array();
        let text = w.finish();
        validate_json(&text).unwrap_or_else(|e| panic!("{text}\nrejected: {e}"));
        assert!(
            text.contains(r#""quote\" backslash\\ newline\n tab\t bell\u0007 nul\u0000 é 日本""#)
        );
        assert!(text.contains("[null, null, null, -0e0, 1.29e148, 5e-324, "));
        assert!(text.contains("null, \"s\"]"));
        assert!(text.contains("\"empty_object\": {}") && text.contains("\"empty_array\": []"));
        // The float rule round-trips: every finite value parses back to its bits.
        let list = &text[text.find(": [").unwrap() + 3..text.find(']').unwrap()];
        for (token, x) in list.split(", ").zip(floats) {
            if x.is_finite() {
                assert_eq!(
                    token.parse::<f64>().unwrap().to_bits(),
                    x.to_bits(),
                    "{token}"
                );
            }
        }
    }

    #[test]
    fn a_bare_scalar_is_a_document() {
        let mut w = JsonWriter::new();
        w.value(3usize);
        assert_eq!(w.finish(), "3\n");
    }

    #[test]
    #[should_panic(expected = "object member without a key")]
    fn writer_rejects_a_keyless_object_member() {
        let mut w = JsonWriter::new();
        w.begin_object().value(1usize);
    }

    #[test]
    #[should_panic(expected = "unfinished document")]
    fn writer_rejects_an_unclosed_document() {
        let mut w = JsonWriter::new();
        w.begin_array();
        let _ = w.finish();
    }

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "null",
            "true",
            "-12.5e-3",
            "0",
            "-0",
            "0.5e-3",
            "0e0",
            "\"a\\n\\u00e9\"",
            "[]",
            "{}",
            "[1, 2, [3], {\"k\": \"v\"}]",
            "{\"a\": {\"b\": [1.0, false, null]}, \"c\": \"\"}",
            "  {\"ws\" : 1}  ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"k\":}",
            "{\"k\" 1}",
            "{'k': 1}",
            "01abc",
            "01",
            "[-012]",
            "{\"k\": 00}",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\q\"",
            "[1] trailing",
            "nul",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
