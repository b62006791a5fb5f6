//! Offline shim for the `serde` 1 API surface used by this workspace.
//!
//! Real serde serializes through visitor traits; every use in this
//! workspace goes `#[derive(Serialize, Deserialize)]` →
//! `serde_json::{to_string, from_str}`, so the shim specializes both
//! traits to JSON. [`Serialize`] renders an owned [`Value`] tree that
//! `serde_json` prints. [`Deserialize`] reads straight from the
//! workspace's one JSON pull parser, [`Deserializer`]: no tree is built
//! unless a caller asks for a [`Value`]. The derive macros live in the
//! sibling `serde_derive` shim and generate implementations of the
//! traits below.

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An owned JSON-like document tree — what [`Serialize`] produces and
/// what a caller gets by deserializing a [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer (always `< 0`; non-negatives use [`Value::U64`]).
    I64(i64),
    /// A non-negative integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object, in insertion order.
    Map(Vec<(String, Value)>),
}

/// (De)serialization failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// An error carrying `msg`.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// The value tree for `self`.
    fn ser_value(&self) -> Value;
}

/// Types that can read themselves off a [`Deserializer`].
pub trait Deserialize: Sized {
    /// Read one JSON value from `d` and build `Self` from it.
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error>;
}

// ---- the pull parser ----

/// Deepest array/object nesting a [`Deserializer`] accepts. Values are
/// read recursively, so without a cap a short line of `[` (a 20 KB one
/// is enough) overflows the thread's stack — an abort no `catch_unwind`
/// can stop. The cap counts every `[` and `{`, including those skipped
/// under unknown keys. Nothing this workspace writes nests more than a
/// few levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON number as the parser classifies it.
#[derive(Debug, Clone, Copy)]
enum Number {
    U64(u64),
    I64(i64),
    F64(f64),
}

/// How an enum was written: a unit variant as a bare string, or a
/// variant with data as a single-key object whose value comes next.
pub enum Variant<'de> {
    /// `"Name"`.
    Unit(Cow<'de, str>),
    /// `{"Name": …}`; the parser stands at the payload, and
    /// [`Deserializer::end_variant`] closes the object after it.
    Payload(Cow<'de, str>),
}

/// The workspace's one JSON pull parser. [`Deserialize`] impls read
/// tokens off it in document order: objects through [`begin_map`] and
/// [`next_key`], arrays through [`begin_seq`] and [`next_element`],
/// unknown values through [`skip_value`].
///
/// [`begin_map`]: Deserializer::begin_map
/// [`next_key`]: Deserializer::next_key
/// [`begin_seq`]: Deserializer::begin_seq
/// [`next_element`]: Deserializer::next_element
/// [`skip_value`]: Deserializer::skip_value
pub struct Deserializer<'de> {
    input: &'de str,
    bytes: &'de [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// The container just opened has not yielded its first entry, so
    /// the next entry takes no leading comma. Every open is followed by
    /// a `next_key`/`next_element` call before anything else is read,
    /// so one flag serves all nesting levels.
    first: bool,
}

impl<'de> Deserializer<'de> {
    /// A parser at the start of `input`.
    pub fn new(input: &'de str) -> Self {
        Deserializer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Refuse anything but whitespace after the value just read.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

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

    /// The first byte of the next token, after whitespace.
    fn peek_token(&mut self) -> Option<u8> {
        self.skip_ws();
        self.peek()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    /// The type error for the value at the parser: `{what}: {expected},
    /// got <the value>`, or the syntax error that value holds. A string,
    /// array or object is named by its kind, not echoed, so the error
    /// stays short however large the value.
    fn unexpected(&mut self, what: &str, expected: &str) -> Error {
        let kind = match self.peek_token() {
            Some(b'"') => "a string",
            Some(b'[') => "an array",
            Some(b'{') => "an object",
            _ => "",
        };
        match self.parse_value(kind.is_empty()) {
            Ok(v) if kind.is_empty() => Error(format!("{what}: {expected}, got {v:?}")),
            Ok(_) => Error(format!("{what}: {expected}, got {kind}")),
            Err(e) => e,
        }
    }

    /// Open a `[` or `{` at the parser, counting it against [`MAX_DEPTH`].
    fn open(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.first = true;
        Ok(())
    }

    /// Open an object, or report that the value is not one.
    pub fn begin_map(&mut self, what: &str) -> Result<(), Error> {
        match self.peek_token() {
            Some(b'{') => self.open(),
            _ => Err(self.unexpected(what, "expected object")),
        }
    }

    /// The next key of the open object, with the parser left at its
    /// value; `None` once the object is closed. Keys without escapes
    /// borrow from the input.
    pub fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
        self.skip_ws();
        if std::mem::take(&mut self.first) {
            if self.peek() == Some(b'}') {
                self.close();
                return Ok(None);
            }
        } else {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.close();
                    return Ok(None);
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// Open an array, or report that the value is not one.
    pub fn begin_seq(&mut self, what: &str) -> Result<(), Error> {
        match self.peek_token() {
            Some(b'[') => self.open(),
            _ => Err(self.unexpected(what, "expected array")),
        }
    }

    /// Whether the open array has another element, with the parser left
    /// at it; `false` once the array is closed.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        let first = std::mem::take(&mut self.first);
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err("expected `,` or `]`")),
        }
    }

    /// Consume the closing bracket at the parser.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Element `i` of an array that must hold exactly `n`.
    pub fn tuple_element<T: Deserialize>(
        &mut self,
        i: usize,
        n: usize,
        what: &str,
    ) -> Result<T, Error> {
        if self.next_element()? {
            T::deserialize(self)
        } else {
            Err(Error(format!("{what}: expected {n} elements, got {i}")))
        }
    }

    /// Close an array that must hold exactly `n` elements, all read.
    pub fn end_tuple(&mut self, n: usize, what: &str) -> Result<(), Error> {
        let mut len = n;
        while self.next_element()? {
            self.skip_value()?;
            len += 1;
        }
        if len == n {
            Ok(())
        } else {
            Err(Error(format!("{what}: expected {n} elements, got {len}")))
        }
    }

    /// Struct field `name`, its errors naming the field.
    pub fn field<T: Deserialize>(&mut self, name: &str) -> Result<T, Error> {
        T::deserialize(self).map_err(|e| Error(format!("field {name}: {e}")))
    }

    /// A struct field absent from its object decodes from `null`, so an
    /// `Option` becomes `None` (as in real serde); anything else is a
    /// missing field.
    pub fn missing<T: Deserialize>(name: &str) -> Result<T, Error> {
        T::deserialize(&mut Deserializer::new("null"))
            .map_err(|_| Error(format!("missing field {name}")))
    }

    /// A unit struct: `null`.
    pub fn unit(&mut self, what: &str) -> Result<(), Error> {
        match self.peek_token() {
            Some(b'n') => self.eat_lit("null"),
            _ => Err(self.unexpected(what, "expected null")),
        }
    }

    /// Open an enum written as a unit-variant string or a single-key
    /// object.
    pub fn variant(&mut self, what: &str) -> Result<Variant<'de>, Error> {
        const EXPECTED: &str = "expected variant string or single-key map";
        match self.peek_token() {
            Some(b'"') => Ok(Variant::Unit(self.string()?)),
            Some(b'{') => {
                self.begin_map(what)?;
                match self.next_key()? {
                    Some(name) => Ok(Variant::Payload(name)),
                    None => Err(Error(format!("{what}: {EXPECTED}, got Map([])"))),
                }
            }
            _ => Err(self.unexpected(what, EXPECTED)),
        }
    }

    /// Close the object of a [`Variant::Payload`] after its payload; a
    /// second key makes it no variant.
    pub fn end_variant(&mut self, what: &str) -> Result<(), Error> {
        match self.next_key()? {
            None => Ok(()),
            Some(_) => Err(Error(format!(
                "{what}: expected variant string or single-key map, got more keys"
            ))),
        }
    }

    /// The error for an unknown variant name.
    pub fn unknown_variant(name: &str, unit: bool, what: &str) -> Error {
        let kind = if unit { "unit variant" } else { "variant" };
        Error(format!("unknown {kind} {name:?} for {what}"))
    }

    /// Read and discard one value, checked as a [`Value`] decode checks
    /// it (the same errors at the same bytes) but not built.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        self.parse_value(false).map(drop)
    }

    /// Read one value into a [`Value`] tree; without `build`, containers
    /// come back empty and strings as `Null`, so nothing is allocated.
    fn parse_value(&mut self, build: bool) -> Result<Value, Error> {
        match self.peek_token() {
            Some(b'[') => {
                self.open()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    let item = self.parse_value(build)?;
                    if build {
                        items.push(item);
                    }
                }
                Ok(Value::Seq(items))
            }
            Some(b'{') => {
                self.open()?;
                let mut entries = Vec::new();
                while let Some(key) = self.next_key()? {
                    let item = self.parse_value(build)?;
                    if build {
                        entries.push((key.into_owned(), item));
                    }
                }
                Ok(Value::Map(entries))
            }
            Some(b'"') => match self.string()? {
                s if build => Ok(Value::Str(s.into_owned())),
                _ => Ok(Value::Null),
            },
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(match self.number()? {
                Number::U64(u) => Value::U64(u),
                Number::I64(i) => Value::I64(i),
                Number::F64(f) => Value::F64(f),
            }),
            _ => self.scalar(),
        }
    }

    /// `null`, `true` or `false` at the parser, or the error for
    /// whatever else is there.
    fn scalar(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null").map(|()| Value::Null),
            Some(b't') => self.eat_lit("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|()| Value::Bool(false)),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The string at the parser: borrowed from the input when it holds
    /// no escapes, decoded into an owned copy otherwise.
    fn string(&mut self) -> Result<Cow<'de, str>, Error> {
        self.eat(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    // Both ends sit next to an ASCII quote, so they are
                    // char boundaries of the (valid UTF-8) input.
                    let s = &self.input[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(_) => self.pos += 1,
            }
        }
        let mut out = self.input[start..self.pos].to_string();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
                    // Copy the maximal run of plain bytes in one chunk.
                    // The stop bytes (`"` and `\`) and the end of an
                    // escape are ASCII, so the chunk is a whole run of
                    // chars; copying runs keeps the parse linear even
                    // for multi-megabyte strings.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.input[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // Exactly four hex digits: `u32::from_str_radix` would also take
        // a leading `+`.
        let mut v = 0;
        for &b in &self.bytes[self.pos..end] {
            let digit = (b as char).to_digit(16);
            v = (v << 4) | digit.ok_or_else(|| self.err("invalid \\u escape"))?;
        }
        self.pos = end;
        Ok(v)
    }

    /// The number at the parser. Its text runs over digits and
    /// `.eE+-`; without any of `.eE+-` past a leading `-` it is an
    /// integer, accumulated digit by digit: non-negative up to
    /// `u64::MAX` (`-0` included), negative down to `-i64::MAX`. Every
    /// other text goes through `str::parse::<f64>`.
    fn number(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut float = false;
        let mut mag = Some(0u64);
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    mag = mag
                        .and_then(|m| m.checked_mul(10))
                        .and_then(|m| m.checked_add(u64::from(c - b'0')));
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if !float && self.pos > digits {
            match mag {
                Some(0) => return Ok(Number::U64(0)),
                Some(m) if !neg => return Ok(Number::U64(m)),
                Some(m) if m <= i64::MAX as u64 => return Ok(Number::I64(-(m as i64))),
                _ => {}
            }
        }
        // The scanned bytes are ASCII, so the span is on char boundaries.
        let text = &self.input[start..self.pos];
        text.parse::<f64>()
            .map(Number::F64)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }

    /// The number at the parser, or the type error naming `what`.
    fn number_for(&mut self, what: &str, expected: &str) -> Result<Number, Error> {
        match self.peek_token() {
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.unexpected(what, expected)),
        }
    }

    /// A non-negative integer written as one. The integer impls also
    /// take integral floats (`3.0`, `3e2`); this refuses them, and
    /// negatives, as type errors naming `what`.
    pub fn natural(&mut self, what: &str) -> Result<u64, Error> {
        const EXPECTED: &str = "expected non-negative integer";
        match self.number_for(what, EXPECTED)? {
            Number::U64(u) => Ok(u),
            n => Err(Error(format!("{what}: {EXPECTED}, got {n:?}"))),
        }
    }

    /// The integer at the parser, widened; integral floats below 2e18
    /// count as integers.
    fn integer(&mut self, what: &str) -> Result<i128, Error> {
        match self.number_for(what, "expected integer")? {
            Number::U64(u) => Ok(u as i128),
            Number::I64(i) => Ok(i as i128),
            Number::F64(f) if f.fract() == 0.0 && f.abs() < 2e18 => Ok(f as i128),
            Number::F64(f) => Err(Error(format!(
                "{what}: expected integer, got {:?}",
                Value::F64(f)
            ))),
        }
    }
}

// ---- Serialize impls for std types ----

// `Value` round-trips through itself, so callers can parse arbitrary
// JSON (`serde_json::from_str::<serde::Value>(..)`) without committing
// to a schema — mirroring real serde_json's `Value`.
impl Serialize for Value {
    fn ser_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        d.parse_value(true)
    }
}

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn ser_value(&self) -> Value { Value::U64(*self as u64) }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn ser_value(&self) -> Value {
                let v = *self as i64;
                if v < 0 { Value::I64(v) } else { Value::U64(v as u64) }
            }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn ser_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn ser_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for bool {
    fn ser_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn ser_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn ser_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn ser_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.ser_value(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn ser_value(&self) -> Value {
        self.as_slice().ser_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn ser_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::ser_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn ser_value(&self) -> Value {
        self.as_slice().ser_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn ser_value(&self) -> Value {
        (**self).ser_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn ser_value(&self) -> Value {
        (**self).ser_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn ser_value(&self) -> Value {
        (**self).ser_value()
    }
}

/// `HashMap`s serialize as a key-sorted sequence of `[key, value]`
/// pairs: JSON objects require string keys, and the workspace's hash
/// maps are keyed by structured types. Sorting makes the output
/// independent of hash iteration order.
impl<K: Serialize + Ord + std::hash::Hash + Eq, V: Serialize> Serialize
    for std::collections::HashMap<K, V>
{
    fn ser_value(&self) -> Value {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Value::Seq(
            entries
                .into_iter()
                .map(|(k, v)| Value::Seq(vec![k.ser_value(), v.ser_value()]))
                .collect(),
        )
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn ser_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.ser_value()))
                .collect(),
        )
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn ser_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.ser_value()),+])
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

// ---- Deserialize impls for std types ----

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
                let i = d.integer(stringify!($t))?;
                <$t>::try_from(i).map_err(|_| {
                    Error(format!(concat!(stringify!($t), " out of range: {}"), i))
                })
            }
        }
    )*};
}
de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A float field refuses text that overflows to infinity (`1e999`): the
/// printer writes non-finite floats as `null`, which no `f64` field
/// reads back, so accepting one would decode a value that cannot
/// round-trip. Upstream serde_json refuses it too.
impl Deserialize for f64 {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        match d.number_for("f64", "expected number")? {
            Number::F64(f) if f.is_finite() => Ok(f),
            Number::F64(f) => Err(Error(format!("f64: number out of range: {f}"))),
            Number::U64(u) => Ok(u as f64),
            Number::I64(i) => Ok(i as f64),
        }
    }
}

impl Deserialize for bool {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        match d.peek_token() {
            Some(b't') => d.eat_lit("true").map(|()| true),
            Some(b'f') => d.eat_lit("false").map(|()| false),
            _ => Err(d.unexpected("bool", "expected bool")),
        }
    }
}

impl Deserialize for String {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        match d.peek_token() {
            Some(b'"') => d.string().map(Cow::into_owned),
            _ => Err(d.unexpected("String", "expected string")),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        match d.peek_token() {
            Some(b'n') => d.eat_lit("null").map(|()| None),
            _ => T::deserialize(d).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        d.begin_seq("Vec")?;
        let mut out = Vec::new();
        while d.next_element()? {
            let i = out.len();
            out.push(T::deserialize(d).map_err(|e| Error(format!("[{i}]: {e}")))?);
        }
        Ok(out)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        Vec::<T>::deserialize(d)?
            .try_into()
            .map_err(|v: Vec<T>| Error(format!("array: expected {N} elements, found {}", v.len())))
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        T::deserialize(d).map(Arc::new)
    }
}

impl<K: Deserialize + std::hash::Hash + Eq, V: Deserialize> Deserialize
    for std::collections::HashMap<K, V>
{
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        const ENTRY: &str = "HashMap entry";
        d.begin_seq("HashMap")?;
        let mut out = std::collections::HashMap::new();
        while d.next_element()? {
            d.begin_seq(ENTRY)?;
            let k = d.tuple_element(0, 2, ENTRY)?;
            let v = d.tuple_element(1, 2, ENTRY)?;
            d.end_tuple(2, ENTRY)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
        d.begin_map("BTreeMap")?;
        let mut out = BTreeMap::new();
        while let Some(k) = d.next_key()? {
            out.insert(k.into_owned(), V::deserialize(d)?);
        }
        Ok(out)
    }
}

macro_rules! de_tuple {
    ($(($len:literal: $($n:tt $t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, Error> {
                d.begin_seq("tuple")?;
                let t = ($(d.tuple_element::<$t>($n, $len, "tuple")?,)+);
                d.end_tuple($len, "tuple")?;
                Ok(t)
            }
        }
    )*};
}
de_tuple! {
    (1: 0 A)
    (2: 0 A, 1 B)
    (3: 0 A, 1 B, 2 C)
    (4: 0 A, 1 B, 2 C, 3 D)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode a whole document, as `serde_json::from_str` does.
    fn de<T: Deserialize>(s: &str) -> Result<T, Error> {
        let mut d = Deserializer::new(s);
        let v = T::deserialize(&mut d)?;
        d.end()?;
        Ok(v)
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(de::<u32>("42").unwrap(), 42);
        assert_eq!(de::<i64>(" -7 ").unwrap(), -7);
        assert_eq!(de::<f64>("1.5").unwrap(), 1.5);
        assert!(de::<bool>("true").unwrap());
        assert_eq!(de::<String>("\"hi\"").unwrap(), "hi");
        assert_eq!(de::<String>(r#""a\"b\u00e9""#).unwrap(), "a\"bé");
    }

    #[test]
    fn options_and_missing_fields() {
        assert_eq!(de::<Option<u32>>("null").unwrap(), None);
        assert_eq!(de::<Option<u32>>("3").unwrap(), Some(3));
        assert_eq!(Deserializer::missing::<Option<u32>>("x").unwrap(), None);
        let err = Deserializer::missing::<u32>("x").unwrap_err();
        assert_eq!(err.to_string(), "missing field x");
    }

    #[test]
    fn containers_round_trip() {
        assert_eq!(de::<Vec<u32>>("[1, 2,3]").unwrap(), vec![1, 2, 3]);
        assert_eq!(de::<Vec<u32>>("[ ]").unwrap(), Vec::<u32>::new());
        assert_eq!(de::<[(u8, u8); 2]>("[[1,2],[3,4]]").unwrap()[1], (3, 4));
        assert!(de::<[u32; 2]>("[1,2,3]").is_err());
        let t = (1u32, "a".to_string(), 2.5f64);
        assert_eq!(de::<(u32, String, f64)>(r#"[1,"a",2.5]"#).unwrap(), t);
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 9u64);
        assert_eq!(de::<BTreeMap<String, u64>>(r#"{"k":9}"#).unwrap(), m);
        assert_eq!(*de::<Arc<u32>>("5").unwrap(), 5);
        let h = de::<std::collections::HashMap<u32, bool>>("[[2,true],[1,false]]").unwrap();
        assert_eq!((h[&1], h[&2]), (false, true));
        assert!(de::<std::collections::HashMap<u32, bool>>("[[1]]").is_err());
        assert!(de::<(u32, u32)>("[1,2,3]").is_err());
        assert!(de::<(u32, u32)>("[1]").is_err());
    }

    #[test]
    fn integer_coercions_are_checked() {
        assert!(de::<u8>("300").is_err());
        assert!(de::<u32>("-1").is_err());
        assert_eq!(de::<f64>("4").unwrap(), 4.0);
        assert_eq!(de::<u32>("3.0").unwrap(), 3);
        let err = de::<u32>("3.5").unwrap_err().to_string();
        assert_eq!(err, "u32: expected integer, got F64(3.5)");
        assert_eq!(
            de::<u8>("256").unwrap_err().to_string(),
            "u8 out of range: 256"
        );
        for (doc, kind) in [
            ("\"3\"", "a string"),
            ("[[1],{}]", "an array"),
            ("{}", "an object"),
        ] {
            let err = de::<u32>(doc).unwrap_err().to_string();
            assert_eq!(err, format!("u32: expected integer, got {kind}"));
        }
        // `natural` takes integer tokens only.
        assert_eq!(Deserializer::new("7").natural("n").unwrap(), 7);
        for bad in ["3.0", "3e2", "-1", "\"3\""] {
            assert!(Deserializer::new(bad).natural("n").is_err(), "{bad}");
        }
        let err = Deserializer::new("-1").natural("n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "n: expected non-negative integer, got I64(-1)"
        );
    }

    #[test]
    fn value_builds_the_tree_and_skip_checks_what_it_skips() {
        let v = de::<Value>(r#"{"a":[1,-2,3.5,"x",null,true],"b":{}}"#).unwrap();
        assert_eq!(
            v,
            Value::Map(vec![
                (
                    "a".into(),
                    Value::Seq(vec![
                        Value::U64(1),
                        Value::I64(-2),
                        Value::F64(3.5),
                        Value::Str("x".into()),
                        Value::Null,
                        Value::Bool(true),
                    ])
                ),
                ("b".into(), Value::Map(vec![])),
            ])
        );
        let mut d = Deserializer::new(r#"{"a":[1,{"b":"\u00e9\n"}]} "#);
        assert!(d.skip_value().and_then(|()| d.end()).is_ok());
        // Malformed documents are refused, skipped or built.
        for doc in [
            "[1,]",
            "[1 2]",
            r#"{"a" 1}"#,
            r#"{"a":1,}"#,
            "\"\\x\"",
            "1-2",
            "tru",
            "[",
            "-",
            r#""\u+041""#,
            r#""\u004""#,
            r#""\u00g1""#,
            r#""\ud83e""#,
        ] {
            let mut d = Deserializer::new(doc);
            assert!(d.skip_value().and_then(|()| d.end()).is_err(), "{doc}");
            assert!(de::<Value>(doc).is_err(), "{doc}");
        }
    }
}
