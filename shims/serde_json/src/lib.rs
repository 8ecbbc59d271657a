//! Vendored minimal stand-in for `serde_json`, matching the API surface
//! this workspace uses: `to_string`, `to_string_pretty`, `to_vec`,
//! `from_str` and the generic [`Value`].
//!
//! Serialisation goes through the serde shim's [`Value`] tree; this crate
//! owns the JSON text encoding (RFC 8259 subset: no `\uXXXX` surrogate
//! pairs are emitted, non-BMP characters are written verbatim as UTF-8,
//! which every JSON parser accepts).

pub use serde::{Error, Value};

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Serialises `value` as compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialises `value` as human-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Serialises `value` as compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Parses JSON text into any deserialisable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    let value = p.parse_root()?;
    T::from_value(&value)
}

// ---------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    // Keep a decimal point so the value re-parses as a float.
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1);
            }
            if !members.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
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

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse_root(&mut self) -> Result<Value, Error> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|()| Value::Null),
            Some(b't') => self.eat_keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut members = std::collections::BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("input validated as UTF-8"),
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000c}'),
                        Some(b'u') => {
                            let cp = self.parse_unicode_escape()?;
                            s.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor on the `u`), including
    /// UTF-16 surrogate pairs.
    fn parse_unicode_escape(&mut self) -> Result<char, Error> {
        self.pos += 1; // consume `u`
        let hi = self.parse_hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let lo = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let digits =
            self.bytes.get(self.pos..end).ok_or_else(|| self.err("truncated unicode escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number text");
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>().map(Value::Float).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_value() {
        let src = r#"{"a": [1, -2, 3.5], "b": "x\ny", "c": null, "d": true}"#;
        let v: Value = from_str(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "x\ny");
        let printed = to_string(&v).unwrap();
        let again: Value = from_str(&printed).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn u64_max_round_trips() {
        let s = to_string(&u64::MAX).unwrap();
        let back: u64 = from_str(&s).unwrap();
        assert_eq!(back, u64::MAX);
    }

    #[test]
    fn pretty_output_parses() {
        let v: Value = from_str(r#"{"k": [1, 2], "m": {"n": "s"}}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<Value>("{oops}").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<u8>("300").is_err());
    }
}
