//! Offline shim for the `serde_json` 1 API surface used by this
//! workspace: [`to_string`], [`to_string_pretty`], and [`from_str`],
//! bridged through the `serde` shim's `Value` tree.
//!
//! Formatting matches real serde_json where it is observable here:
//! compact output has no whitespace, pretty output indents by two
//! spaces, floats print at shortest round-trip precision (Rust's `{}`
//! float `Display`) with a trailing `.0` forced onto integral floats,
//! and non-finite floats serialize as `null`.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// JSON (de)serialization failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.ser_value(), None, 0);
    Ok(out)
}

/// Serialize `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.ser_value(), Some(2), 0);
    Ok(out)
}

/// Deserialize a `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(T::de_value(&v)?)
}

// ---- printer ----

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::F64(f) => write_f64(out, *f),
        Value::Str(s) => write_str(out, s),
        Value::Seq(s) if s.is_empty() => out.push_str("[]"),
        Value::Seq(s) => {
            out.push('[');
            for (i, item) in s.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Map(m) if m.is_empty() => out.push_str("{}"),
        Value::Map(m) => {
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_str(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let s = f.to_string();
    out.push_str(&s);
    // `{}` prints integral floats bare ("3"); force serde_json's "3.0".
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
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

// ---- parser ----

/// Deepest array/object nesting [`from_str`] accepts. The parser recurses
/// once per level, so without a cap a short line of `[` (a 20 KB one is
/// enough) overflows the thread's stack — an abort no `catch_unwind`
/// can stop. Nothing this workspace writes nests more than a few levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("JSON parse error at byte {}: {}", self.pos, msg))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(c @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if c == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            // hex4 advanced past the digits already.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the maximal run of plain bytes in one
                    // chunk. The stop bytes (`"` and `\`) are ASCII, so
                    // they can never split a multi-byte scalar and the
                    // chunk boundaries are always char boundaries;
                    // validating only the chunk keeps the whole parse
                    // linear even for multi-megabyte strings.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(i) = stripped.parse::<i64>() {
                    return Ok(if i == 0 {
                        Value::U64(0)
                    } else {
                        Value::I64(-i)
                    });
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn round_trip(v: &Value) -> Value {
        #[derive(Debug)]
        struct Raw(Value);
        impl Serialize for Raw {
            fn ser_value(&self) -> Value {
                self.0.clone()
            }
        }
        impl Deserialize for Raw {
            fn de_value(v: &Value) -> Result<Self, serde::Error> {
                Ok(Raw(v.clone()))
            }
        }
        let s = to_string(&Raw(v.clone())).unwrap();
        from_str::<Raw>(&s).unwrap().0
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::U64(0),
            Value::U64(u64::MAX),
            Value::I64(-42),
            Value::F64(1.5),
            Value::F64(-0.0625),
            Value::F64(1e-30),
            Value::Str("he\"llo\n\\ λ 🦀".to_string()),
        ] {
            assert_eq!(round_trip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn float_shortest_repr_round_trips_exactly() {
        for f in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1.7976931348623157e308] {
            let Value::F64(back) = round_trip(&Value::F64(f)) else {
                panic!("float came back as non-float");
            };
            assert_eq!(back.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn integral_float_keeps_float_type() {
        let mut s = String::new();
        write_f64(&mut s, 3.0);
        assert_eq!(s, "3.0");
        assert_eq!(round_trip(&Value::F64(3.0)), Value::F64(3.0));
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn compact_formatting_matches_serde_json() {
        let v = Value::Map(vec![
            ("a".to_string(), Value::U64(1)),
            (
                "b".to_string(),
                Value::Seq(vec![Value::Bool(false), Value::Null]),
            ),
        ]);
        let mut out = String::new();
        write_value(&mut out, &v, None, 0);
        assert_eq!(out, r#"{"a":1,"b":[false,null]}"#);
    }

    #[test]
    fn pretty_formatting() {
        let v = Value::Map(vec![("a".to_string(), Value::Seq(vec![Value::U64(1)]))]);
        let mut out = String::new();
        write_value(&mut out, &v, Some(2), 0);
        assert_eq!(out, "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v: Vec<String> = from_str(" [ \"a\\u0041\\ud83e\\udd80\" , \"b\" ] ").unwrap();
        assert_eq!(v, vec!["aA🦀".to_string(), "b".to_string()]);
    }

    #[test]
    fn long_strings_with_interleaved_escapes_parse_chunked() {
        // The parser copies plain runs in chunks between escapes; make
        // sure chunk stitching is seamless around escapes, multi-byte
        // scalars, and string boundaries.
        let plain = "αβγ test run ".repeat(1000);
        let original = format!("{plain}\"quote\\slash\n{plain}🦀");
        let v = round_trip(&Value::Str(original.clone()));
        assert_eq!(v, Value::Str(original));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(from_str::<Value>(&nested("[", "]", MAX_DEPTH)).is_ok());
        let deep = from_str::<Value>(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(
            deep.to_string().contains("nesting deeper than 128"),
            "{deep}"
        );
        assert!(from_str::<Value>(&nested("{\"k\":", "}", MAX_DEPTH + 1)).is_err());
        // A megabyte of `[` is refused after 128 levels, not by the stack.
        assert!(from_str::<Value>(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<Vec<u32>>("[1,]").is_err());
        assert!(from_str::<u32>("1 2").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }
}
