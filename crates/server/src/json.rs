//! A minimal JSON value, parser, and writer.
//!
//! The workspace builds in fully offline environments, so the wire
//! protocol cannot pull in `serde`. This module provides the small
//! subset the protocol needs: a [`Json`] tree, a recursive-descent
//! parser with a nesting-depth bound, and a deterministic writer
//! (objects keep insertion order, so encoded frames are stable).
//!
//! Strings are copied by runs, not by `char`: the writer and the parser
//! find the next byte that ends a run (`"`, `\`, or a control byte
//! below 0x20) eight bytes at a time and copy everything before it as
//! one slice. Those bytes are all ASCII, so every run ends on a `char`
//! boundary and needs no UTF-8 check. The writer's escapes are fixed:
//! `\"`, `\\`, `\n`, `\t`, `\r`, `\b`, `\f`, and `\u00xx` in
//! lowercase hex for the other control bytes; 0x7f and non-ASCII text
//! go out raw.

use std::fmt;

/// A parsed JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that fits an `i64` exactly.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses beyond this nesting depth fail instead of risking the stack.
const MAX_DEPTH: usize = 128;

impl Json {
    /// Builds an object from pairs; a convenience for protocol encoders.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (one value, then end of input).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            scratch: String::new(),
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after value"));
        }
        Ok(value)
    }

    /// Serializes to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The index of the first byte at or after `from` that ends a run, or
/// `bytes.len()` when none does.
///
/// Whole 8-byte words are tested at once, read little-endian so the
/// lowest lane is the first byte. `lanes_below` sets the high bit of
/// each lane below `n`: a lane below 0x20, or equal to `"` or `\` once
/// XORed to zero and so below 1. A lane's bit can also be set by the
/// borrow out of a true hit below it, but never without one, so the
/// lowest set bit always marks the first byte that ends the run.
fn run_end(bytes: &[u8], from: usize) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    fn lanes_below(x: u64, n: u8) -> u64 {
        x.wrapping_sub(ONES * u64::from(n)) & !x & HIGHS
    }
    let mut at = from;
    while let Some(word) = bytes.get(at..at + 8) {
        let x = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
        let hits = lanes_below(x, 0x20)
            | lanes_below(x ^ (ONES * u64::from(b'"')), 1)
            | lanes_below(x ^ (ONES * u64::from(b'\\')), 1);
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    bytes[at..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .map_or(bytes.len(), |i| at + i)
}

fn write_string(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    loop {
        let end = run_end(bytes, start);
        out.push_str(&s[start..end]);
        let Some(&b) = bytes.get(end) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            b => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        start = end + 1;
    }
    out.push('"');
}

struct Parser<'a> {
    /// The input; `bytes` is its byte view.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Where strings with escapes are assembled: sized once to the
    /// rest of the input, an upper bound for every later string, so it
    /// never grows while a long string is copied in.
    scratch: String,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut end = run_end(self.bytes, self.pos);
        // One run, then the closing quote: copy it straight out.
        if self.bytes.get(end) == Some(&b'"') {
            let s = self.text[self.pos..end].to_string();
            self.pos = end + 1;
            return Ok(s);
        }
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        out.reserve(self.bytes.len() - self.pos);
        loop {
            out.push_str(&self.text[self.pos..end]);
            self.pos = end;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => {
                    // A clone allocates the exact length.
                    let s = out.clone();
                    self.scratch = out;
                    return Ok(s);
                }
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a \uXXXX low half must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
            end = run_end(self.bytes, self.pos);
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = (v << 4) | digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shapes() {
        let v = Json::obj(vec![
            ("op", Json::Str("analyze".into())),
            (
                "files",
                Json::Arr(vec![Json::obj(vec![
                    ("path", Json::Str("a/b.biv".into())),
                    ("source", Json::Str("func f(n) { }\n\tütf✓".into())),
                ])]),
            ),
            ("cache_cap", Json::Int(4096)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        let text = v.to_text();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_escapes_and_surrogates() {
        let v = Json::parse(r#""a\nb\t\"q\" é 😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\nb\t\"q\" é 😀");
    }

    #[test]
    fn numbers_split_int_and_float() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\":}", "01x", "{} {}", "\u{1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        assert!(Json::parse(&deep).is_err());
    }

    /// The char-at-a-time writer and parser that the run-copying codec
    /// replaced, kept as the oracle for its bytes, trees and errors.
    mod oracle {
        use crate::json::{Json, JsonError, MAX_DEPTH};

        pub(super) fn to_text(v: &Json) -> String {
            let mut out = String::new();
            write(v, &mut out);
            out
        }

        fn write(v: &Json, out: &mut String) {
            match v {
                Json::Null => out.push_str("null"),
                Json::Bool(true) => out.push_str("true"),
                Json::Bool(false) => out.push_str("false"),
                Json::Int(n) => out.push_str(&n.to_string()),
                Json::Float(x) => {
                    if x.is_finite() {
                        out.push_str(&format!("{x}"));
                    } else {
                        out.push_str("null");
                    }
                }
                Json::Str(s) => write_string(out, s),
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write(item, out);
                    }
                    out.push(']');
                }
                Json::Obj(pairs) => {
                    out.push('{');
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_string(out, k);
                        out.push(':');
                        write(v, out);
                    }
                    out.push('}');
                }
            }
        }

        fn write_string(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    '\u{08}' => out.push_str("\\b"),
                    '\u{0c}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }

        pub(super) fn parse(text: &str) -> Result<Json, JsonError> {
            let mut p = Parser {
                bytes: text.as_bytes(),
                pos: 0,
            };
            p.skip_ws();
            let value = p.value(0)?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(p.err("trailing data after value"));
            }
            Ok(value)
        }

        struct Parser<'a> {
            bytes: &'a [u8],
            pos: usize,
        }

        impl Parser<'_> {
            fn err(&self, message: &str) -> JsonError {
                JsonError {
                    at: self.pos,
                    message: message.to_string(),
                }
            }

            fn peek(&self) -> Option<u8> {
                self.bytes.get(self.pos).copied()
            }

            fn skip_ws(&mut self) {
                while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                    self.pos += 1;
                }
            }

            fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
                if self.peek() == Some(byte) {
                    self.pos += 1;
                    Ok(())
                } else {
                    Err(self.err(&format!("expected `{}`", byte as char)))
                }
            }

            fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
                if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                    self.pos += text.len();
                    Ok(value)
                } else {
                    Err(self.err(&format!("expected `{text}`")))
                }
            }

            fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
                if depth > MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                match self.peek() {
                    Some(b'{') => self.object(depth),
                    Some(b'[') => self.array(depth),
                    Some(b'"') => Ok(Json::Str(self.string()?)),
                    Some(b't') => self.literal("true", Json::Bool(true)),
                    Some(b'f') => self.literal("false", Json::Bool(false)),
                    Some(b'n') => self.literal("null", Json::Null),
                    Some(b'-' | b'0'..=b'9') => self.number(),
                    Some(_) => Err(self.err("unexpected character")),
                    None => Err(self.err("unexpected end of input")),
                }
            }

            fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
                self.expect(b'{')?;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }

            fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
                self.expect(b'[')?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }

            fn string(&mut self) -> Result<String, JsonError> {
                self.expect(b'"')?;
                let mut out = String::new();
                loop {
                    let Some(b) = self.peek() else {
                        return Err(self.err("unterminated string"));
                    };
                    self.pos += 1;
                    match b {
                        b'"' => return Ok(out),
                        b'\\' => {
                            let Some(esc) = self.peek() else {
                                return Err(self.err("unterminated escape"));
                            };
                            self.pos += 1;
                            match esc {
                                b'"' => out.push('"'),
                                b'\\' => out.push('\\'),
                                b'/' => out.push('/'),
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                b'r' => out.push('\r'),
                                b'b' => out.push('\u{08}'),
                                b'f' => out.push('\u{0c}'),
                                b'u' => {
                                    let hi = self.hex4()?;
                                    let c = if (0xD800..0xDC00).contains(&hi) {
                                        if self.peek() != Some(b'\\') {
                                            return Err(self.err("lone high surrogate"));
                                        }
                                        self.pos += 1;
                                        if self.peek() != Some(b'u') {
                                            return Err(self.err("lone high surrogate"));
                                        }
                                        self.pos += 1;
                                        let lo = self.hex4()?;
                                        if !(0xDC00..0xE000).contains(&lo) {
                                            return Err(self.err("invalid low surrogate"));
                                        }
                                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(code)
                                            .ok_or_else(|| self.err("invalid code point"))?
                                    } else {
                                        char::from_u32(hi)
                                            .ok_or_else(|| self.err("invalid code point"))?
                                    };
                                    out.push(c);
                                }
                                _ => return Err(self.err("unknown escape")),
                            }
                        }
                        b if b >= 0x80 => {
                            let start = self.pos - 1;
                            let mut end = self.pos;
                            while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                                end += 1;
                            }
                            let s = std::str::from_utf8(&self.bytes[start..end])
                                .map_err(|_| self.err("invalid utf-8"))?;
                            out.push_str(s);
                            self.pos = end;
                        }
                        b if b < 0x20 => return Err(self.err("raw control character in string")),
                        b => out.push(b as char),
                    }
                }
            }

            fn hex4(&mut self) -> Result<u32, JsonError> {
                let mut v = 0u32;
                for _ in 0..4 {
                    let Some(b) = self.peek() else {
                        return Err(self.err("truncated \\u escape"));
                    };
                    let digit = (b as char)
                        .to_digit(16)
                        .ok_or_else(|| self.err("bad hex digit"))?;
                    v = (v << 4) | digit;
                    self.pos += 1;
                }
                Ok(v)
            }

            fn number(&mut self) -> Result<Json, JsonError> {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                let mut is_float = false;
                while let Some(b) = self.peek() {
                    match b {
                        b'0'..=b'9' => self.pos += 1,
                        b'.' | b'e' | b'E' | b'+' | b'-' => {
                            is_float = true;
                            self.pos += 1;
                        }
                        _ => break,
                    }
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("number bytes are ASCII");
                if !is_float {
                    if let Ok(n) = text.parse::<i64>() {
                        return Ok(Json::Int(n));
                    }
                }
                text.parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err("invalid number"))
            }
        }
    }

    /// SplitMix64, the property tests' seeded stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'t, T>(&mut self, items: &'t [T]) -> &'t T {
            &items[self.below(items.len())]
        }
    }

    /// One char of every class the codecs treat differently: each
    /// escape, other control bytes, 0x7f, plain ASCII (`/` included,
    /// which only the parser unescapes), and 2-, 3- and 4-byte UTF-8.
    const PALETTE: &[char] = &[
        '"',
        '\\',
        '\n',
        '\t',
        '\r',
        '\u{08}',
        '\u{0c}',
        '\u{00}',
        '\u{01}',
        '\u{0b}',
        '\u{1f}',
        '\u{7f}',
        '/',
        ' ',
        'a',
        'Z',
        '0',
        '~',
        '\u{80}',
        'é',
        '\u{7ff}',
        '\u{800}',
        '✓',
        '═',
        '\u{ffff}',
        '\u{10000}',
        '😀',
        '\u{10ffff}',
    ];

    fn random_string(rng: &mut Rng, max_len: usize) -> String {
        (0..rng.below(max_len + 1))
            .map(|_| *rng.pick(PALETTE))
            .collect()
    }

    fn random_value(rng: &mut Rng, depth: usize) -> Json {
        match rng.below(if depth == 0 { 6 } else { 8 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 0),
            2 => Json::Int(rng.next() as i64 >> rng.below(64)),
            3 => Json::Float((rng.next() as i64 >> 40) as f64 / 8.0),
            4 | 5 => Json::Str(random_string(rng, 12)),
            6 => Json::Arr(
                (0..rng.below(4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| (random_string(rng, 6), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// The writer gives the oracle's bytes for `value`, and both
    /// parsers read those bytes back alike.
    fn assert_writes_like_the_oracle(value: &Json) {
        let text = value.to_text();
        assert_eq!(text, oracle::to_text(value), "{value:?}");
        assert_eq!(Json::parse(&text), oracle::parse(&text), "{text:?}");
    }

    fn assert_parses_like_the_oracle(text: &str) {
        assert_eq!(Json::parse(text), oracle::parse(text), "{text:?}");
    }

    #[test]
    fn strings_of_every_char_class_match_the_oracle() {
        for c in (0..0x80u8).map(char::from).chain(PALETTE.iter().copied()) {
            assert_writes_like_the_oracle(&Json::Str(c.to_string()));
        }
        let mut rng = Rng(0x5EED_0001);
        for _ in 0..20_000 {
            let s = random_string(&mut rng, 40);
            let value = Json::Str(s.clone());
            assert_writes_like_the_oracle(&value);
            assert_eq!(Json::parse(&value.to_text()), Ok(value));
        }
    }

    #[test]
    fn a_run_ending_byte_at_every_word_position_matches_the_oracle() {
        // 0x7f and the space bound the run-ending range from outside.
        let specials = [
            '"', '\\', '\n', '\u{00}', '\u{08}', '\u{1f}', '\u{7f}', ' ', 'é',
        ];
        for filler in ["x", "é", "✓"] {
            for before in 0..17 {
                for after in 0..17 {
                    for special in specials {
                        let s =
                            format!("{}{special}{}", filler.repeat(before), filler.repeat(after));
                        let value = Json::Str(s.clone());
                        assert_writes_like_the_oracle(&value);
                        // The same string one byte further into a word.
                        assert_writes_like_the_oracle(&Json::Arr(vec![value]));
                        // Raw in the input, where the parser must stop on it.
                        assert_parses_like_the_oracle(&format!("\"{s}\""));
                    }
                }
            }
        }
    }

    #[test]
    fn escapes_and_surrogates_parse_like_the_oracle() {
        let pieces = [
            "\\\"",
            "\\\\",
            "\\/",
            "\\n",
            "\\t",
            "\\r",
            "\\b",
            "\\f",
            "\\u0041",
            "\\u00e9",
            "\\u00E9",
            "\\u001f",
            "\\u007f",
            "\\u2713",
            "\\ud83d\\ude00",
            "\\uD83D\\uDE00",
            "\\ud83d",
            "\\ude00",
            "\\ud83d\\u0041",
            "\\ud83dx",
            "\\ud83d\\",
            "\\ud83d\\n",
            "\\u12",
            "\\u12g4",
            "\\uzzzz",
            "\\x",
            "\\",
            "\u{01}",
            "\t",
            "\n",
            "\u{7f}",
            "é",
            "✓",
            "😀",
            "a",
            "bc",
            " ",
        ];
        let mut rng = Rng(0x5EED_0002);
        for _ in 0..20_000 {
            let mut text = String::from("\"");
            for _ in 0..rng.below(6) {
                let piece = rng.pick(&pieces);
                text.push_str(piece);
            }
            if rng.below(8) != 0 {
                text.push('"');
            }
            assert_parses_like_the_oracle(&text);
            assert_parses_like_the_oracle(&format!("{{{text}:1}}"));
        }
    }

    #[test]
    fn documents_cut_short_at_every_offset_fail_like_the_oracle() {
        let mut rng = Rng(0x5EED_0003);
        for _ in 0..2_000 {
            let value = random_value(&mut rng, 3);
            assert_writes_like_the_oracle(&value);
            let text = value.to_text();
            for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                assert_parses_like_the_oracle(&text[..cut]);
            }
        }
    }

    #[test]
    fn random_token_soup_parses_like_the_oracle() {
        let tokens = [
            "{",
            "}",
            "[",
            "]",
            ":",
            ",",
            "\"",
            "\\",
            "u",
            "d83d",
            "00",
            "e9",
            "n",
            "t",
            "true",
            "null",
            "fals",
            "-",
            "1",
            "2.5",
            "e",
            "+",
            " ",
            "\n",
            "\u{01}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "✓",
            "😀",
            "\"k\"",
            "\"a\\\"b\"",
        ];
        let mut rng = Rng(0x5EED_0004);
        for _ in 0..20_000 {
            let text: String = (0..rng.below(12)).map(|_| *rng.pick(&tokens)).collect();
            assert_parses_like_the_oracle(&text);
        }
    }

    #[test]
    fn object_lookup_and_accessors() {
        let v = Json::parse(r#"{"a": 1, "b": [true], "c": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert!(v.get("missing").is_none());
    }
}
