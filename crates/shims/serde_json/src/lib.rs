//! Offline shim for the `serde_json` 1 API surface used by this
//! workspace: [`to_string`], [`to_string_pretty`], and [`from_str`].
//! Serializing prints the `serde` shim's `Value` tree; deserializing
//! reads straight off its pull parser, [`serde::Deserializer`].
//!
//! Formatting matches real serde_json where it is observable here:
//! compact output has no whitespace, pretty output indents by two
//! spaces, floats print at shortest round-trip precision (Rust's `{}`
//! float `Display`) with a trailing `.0` forced onto integral floats,
//! and non-finite floats serialize as `null`.

use serde::{Deserialize, Deserializer, Serialize, Value};
use std::fmt;

/// Deepest array/object nesting [`from_str`] accepts (see
/// [`serde::MAX_DEPTH`]).
pub use serde::MAX_DEPTH;

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

/// Deserialize a `T` from JSON text: read one value, then refuse
/// anything but whitespace after it.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut d = Deserializer::new(s);
    let value = T::deserialize(&mut d)?;
    d.end()?;
    Ok(value)
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

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn round_trip(v: &Value) -> Value {
        from_str::<Value>(&to_string(v).unwrap()).unwrap()
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

    // ---- the decode contract, one rule per test ----

    #[derive(Debug, PartialEq, serde::Deserialize)]
    struct Rec {
        id: u32,
        tag: Option<String>,
        #[serde(skip)]
        cache: Vec<u32>,
    }

    #[derive(Debug, PartialEq, serde::Deserialize)]
    struct Pair(u32, bool);

    #[derive(Debug, PartialEq, serde::Deserialize)]
    struct Id(u64);

    #[derive(Debug, PartialEq, serde::Deserialize)]
    struct Marker;

    #[derive(Debug, PartialEq, serde::Deserialize)]
    enum Shape {
        Dot,
        Circle(f64),
        Rect(u32, u32),
    }

    #[derive(Debug, PartialEq, serde::Deserialize)]
    enum Only {
        A,
        B,
    }

    #[derive(Debug, PartialEq, serde::Deserialize)]
    enum Wrapped {
        One(Marker),
    }

    #[test]
    fn missing_fields_decode_from_null() {
        let r: Rec = from_str(r#"{"id":7}"#).unwrap();
        assert_eq!(r.tag, None);
        let err = from_str::<Rec>(r#"{"tag":"x"}"#).unwrap_err();
        assert_eq!(err.to_string(), "missing field id");
        // A unit struct decodes from `null`, so a missing one is present.
        #[derive(Debug, serde::Deserialize)]
        struct HasMarker {
            m: Marker,
        }
        assert_eq!(from_str::<HasMarker>("{}").unwrap().m, Marker);
    }

    #[test]
    fn unknown_keys_are_skipped() {
        let doc = r#"{"x":[1,{"y":["\u00e9",null,-0.5e3]}],"id":3,"z":{},"w":"\""}"#;
        let r: Rec = from_str(doc).unwrap();
        assert_eq!(r.id, 3);
        // Skipped values are still checked: bad syntax under an unknown
        // key fails the whole decode.
        assert!(from_str::<Rec>(r#"{"x":[1,],"id":3}"#).is_err());
        assert!(from_str::<Rec>(r#"{"x":1-2,"id":3}"#).is_err());
    }

    #[test]
    fn first_duplicate_key_wins() {
        let r: Rec = from_str(r#"{"id":1,"id":2,"tag":"a","tag":null}"#).unwrap();
        assert_eq!((r.id, r.tag.as_deref()), (1, Some("a")));
        // A later duplicate is skipped, so its type does not matter.
        let r: Rec = from_str(r#"{"id":1,"id":"two"}"#).unwrap();
        assert_eq!(r.id, 1);
        // Keys with escapes match their decoded text.
        let r: Rec = from_str(r#"{"\u0069d":5}"#).unwrap();
        assert_eq!(r.id, 5);
    }

    #[test]
    fn skipped_fields_take_default() {
        let r: Rec = from_str(r#"{"id":1,"cache":[9,9]}"#).unwrap();
        assert_eq!(r.cache, Vec::<u32>::new());
        let r: Rec = from_str(r#"{"id":1,"cache":"not a list"}"#).unwrap();
        assert!(r.cache.is_empty());
    }

    #[test]
    fn integer_fields_accept_integral_floats_only() {
        assert_eq!(from_str::<Rec>(r#"{"id":3.0}"#).unwrap().id, 3);
        assert_eq!(from_str::<Rec>(r#"{"id":3e2}"#).unwrap().id, 300);
        for bad in ["3.5", "-1", "4294967296", "1e19", "\"3\"", "true"] {
            let doc = format!(r#"{{"id":{bad}}}"#);
            assert!(from_str::<Rec>(&doc).is_err(), "{doc}");
        }
        let err = from_str::<Rec>(r#"{"id":3.5}"#).unwrap_err().to_string();
        assert_eq!(err, "field id: u32: expected integer, got F64(3.5)");
        let err = from_str::<Vec<Rec>>(r#"[{"id":1},{"id":3.5}]"#)
            .unwrap_err()
            .to_string();
        assert_eq!(err, "[1]: field id: u32: expected integer, got F64(3.5)");
    }

    #[test]
    fn number_classification_is_unchanged() {
        let cases: [(&str, Value); 12] = [
            ("-0", Value::U64(0)),
            ("-00", Value::U64(0)),
            ("007", Value::U64(7)),
            ("-007", Value::I64(-7)),
            ("-9223372036854775807", Value::I64(-i64::MAX)),
            ("-9223372036854775808", Value::F64(-9.223372036854776e18)),
            ("18446744073709551615", Value::U64(u64::MAX)),
            ("18446744073709551616", Value::F64(1.8446744073709552e19)),
            ("1e2", Value::F64(100.0)),
            ("1E-2", Value::F64(0.01)),
            ("-1.5e+3", Value::F64(-1500.0)),
            ("-0.0", Value::F64(-0.0)),
        ];
        for (text, want) in cases {
            let got: Value = from_str(text).unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{text}");
        }
        for bad in ["1-2", "-", "1e", "--1", "1.2.3"] {
            assert!(from_str::<Value>(bad).is_err(), "{bad}");
        }
        // Integer targets see the same classes: i64::MIN is a float too
        // large to be integral, u64::MAX + 1 likewise.
        assert!(from_str::<i64>("-9223372036854775808").is_err());
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-0").unwrap(), 0);
        // Floats go through `str::parse::<f64>` on the same text.
        for text in [
            "0.1",
            "2.2250738585072014e-308",
            "1.7976931348623157e308",
            "5e-324",
        ] {
            let f: f64 = from_str(text).unwrap();
            assert_eq!(
                f.to_bits(),
                text.parse::<f64>().unwrap().to_bits(),
                "{text}"
            );
        }
    }

    #[test]
    fn float_fields_refuse_overflow_to_infinity() {
        // The tree keeps the parsed float, but a typed `f64` refuses it:
        // it would print as `null`, which no `f64` reads back.
        assert_eq!(
            from_str::<Value>("1e999").unwrap(),
            Value::F64(f64::INFINITY)
        );
        for text in ["1e999", "-1e999", "[1e400]"] {
            let doc = if text.starts_with('[') {
                text.to_string()
            } else {
                format!("[{text}]")
            };
            assert!(from_str::<Vec<f64>>(&doc).is_err(), "{doc}");
        }
        assert_eq!(from_str::<f64>("1e-400").unwrap(), 0.0);
        assert_eq!(from_str::<f64>("1.7976931348623157e308").unwrap(), f64::MAX);
    }

    #[test]
    fn tuples_need_their_exact_length() {
        assert_eq!(from_str::<Pair>("[1,true]").unwrap(), Pair(1, true));
        for bad in ["[1]", "[1,true,2]", "[]", "{}", "1"] {
            assert!(from_str::<Pair>(bad).is_err(), "{bad}");
        }
        let err = from_str::<Pair>("[1,true,2]").unwrap_err().to_string();
        assert_eq!(err, "Pair: expected 2 elements, got 3");
        assert_eq!(from_str::<Id>("5").unwrap(), Id(5));
        assert_eq!(
            from_str::<Shape>(r#"{"Rect":[2,3]}"#).unwrap(),
            Shape::Rect(2, 3)
        );
        for bad in [r#"{"Rect":[2]}"#, r#"{"Rect":[2,3,4]}"#, r#"{"Rect":2}"#] {
            assert!(from_str::<Shape>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn enums_are_unit_strings_or_single_key_maps() {
        assert_eq!(from_str::<Shape>(r#""Dot""#).unwrap(), Shape::Dot);
        assert_eq!(
            from_str::<Shape>(r#" { "Circle" : 1.5 } "#).unwrap(),
            Shape::Circle(1.5)
        );
        assert_eq!(from_str::<Only>(r#""B""#).unwrap(), Only::B);
        assert_eq!(
            from_str::<Wrapped>(r#"{"One":null}"#).unwrap(),
            Wrapped::One(Marker)
        );
        for bad in [
            r#""Circle""#,
            r#"{"Dot":null}"#,
            r#""Square""#,
            r#"{"Square":1}"#,
            r#"{"Circle":1.5,"Dot":null}"#,
            r#"{}"#,
            "[]",
            "3",
        ] {
            assert!(from_str::<Shape>(bad).is_err(), "{bad}");
        }
        for bad in [r#"{"A":null}"#, r#""C""#, "{}"] {
            assert!(from_str::<Only>(bad).is_err(), "{bad}");
        }
        assert!(from_str::<Wrapped>(r#""One""#).is_err());
        let err = from_str::<Shape>(r#""Square""#).unwrap_err().to_string();
        assert_eq!(err, "unknown unit variant \"Square\" for Shape");
    }

    #[test]
    fn depth_cap_stops_typed_and_tree_decodes_on_a_small_stack() {
        // 256 KiB of stack: a megabyte of `[` would overflow it long
        // before the end, so only the cap can make these errors.
        let deep = "[".repeat(1 << 20);
        let typed = format!(r#"{{"junk":{deep}"#);
        let outcome = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || {
                let typed = from_str::<Rec>(&typed).unwrap_err().to_string();
                let tree = from_str::<Value>(&deep).unwrap_err().to_string();
                (typed, tree)
            })
            .unwrap()
            .join()
            .unwrap();
        for err in [outcome.0, outcome.1] {
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        // Exactly at the cap, a skipped value still decodes.
        let doc = format!(
            r#"{{"junk":{}{},"id":1}}"#,
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        assert_eq!(from_str::<Rec>(&doc).unwrap().id, 1);
        let doc = doc.replacen('[', "[[", 1).replacen(']', "]]", 1);
        assert!(from_str::<Rec>(&doc).is_err());
    }

    #[test]
    fn trailing_bytes_are_refused_after_typed_values() {
        assert!(from_str::<Rec>(r#"{"id":1} x"#).is_err());
        assert!(from_str::<Rec>("{\"id\":1}\n ").is_ok());
        assert!(from_str::<Vec<u32>>("[1] [2]").is_err());
    }
}
