//! Offline shim for `serde_derive`: implements
//! `#[derive(Serialize, Deserialize)]` against the workspace's `serde`
//! shim: `ser_value` builds a `serde::Value`, and `deserialize` reads
//! keys and values straight off the `serde::Deserializer` pull parser.
//!
//! Built without `syn`/`quote` (unavailable offline): the input is
//! parsed directly from the `proc_macro` token stream and the output is
//! generated as Rust source text. Only the shapes this workspace
//! actually derives are supported — non-generic named structs, tuple
//! structs, and enums with unit/tuple variants — plus the
//! `#[serde(skip)]` field attribute. Anything else panics at compile
//! time with a clear message, which is the desired failure mode for a
//! shim.
//!
//! JSON representation matches real serde's defaults: named structs are
//! objects, one-field tuple structs are transparent newtypes, n-field
//! tuple structs are arrays, unit variants are `"Name"`, newtype
//! variants are `{"Name": value}`, and tuple variants are
//! `{"Name": [..]}`.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

type TokenIter = Peekable<proc_macro::token_stream::IntoIter>;

/// A field of a named struct.
struct NamedField {
    name: String,
    skip: bool,
}

/// The shape of the deriving type.
enum Shape {
    Named(Vec<NamedField>),
    Tuple(usize),
    Unit,
    /// `(variant name, arity)`; arity 0 is a unit variant.
    Enum(Vec<(String, usize)>),
}

struct Input {
    name: String,
    shape: Shape,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    gen_serialize(&input)
        .parse()
        .expect("shim codegen: invalid Serialize impl")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    gen_deserialize(&input)
        .parse()
        .expect("shim codegen: invalid Deserialize impl")
}

// ---- parsing ----

/// Consume any `#[...]` attributes; report whether one was
/// `#[serde(skip)]`.
fn take_attrs(it: &mut TokenIter) -> bool {
    let mut skip = false;
    while matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        it.next();
        match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                if attr_is_serde_skip(g.stream()) {
                    skip = true;
                }
            }
            other => panic!("serde shim derive: expected [...] after #, got {other:?}"),
        }
    }
    skip
}

fn attr_is_serde_skip(attr: TokenStream) -> bool {
    let mut it = attr.into_iter();
    match (it.next(), it.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g)))
            if id.to_string() == "serde" && g.delimiter() == Delimiter::Parenthesis =>
        {
            let inner: Vec<String> = g.stream().into_iter().map(|t| t.to_string()).collect();
            match inner.as_slice() {
                [s] if s == "skip" => true,
                other => panic!(
                    "serde shim derive supports only #[serde(skip)], got #[serde({})]",
                    other.join(" ")
                ),
            }
        }
        _ => false,
    }
}

/// Consume `pub`, `pub(crate)`, `pub(super)`, ….
fn take_vis(it: &mut TokenIter) {
    if matches!(it.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

fn expect_ident(it: &mut TokenIter, what: &str) -> String {
    match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected {what}, got {other:?}"),
    }
}

fn parse_input(input: TokenStream) -> Input {
    let mut it = input.into_iter().peekable();
    take_attrs(&mut it);
    take_vis(&mut it);
    let kw = expect_ident(&mut it, "`struct` or `enum`");
    let name = expect_ident(&mut it, "type name");
    if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic types ({name})");
    }
    let shape = match kw.as_str() {
        "struct" => match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
            other => panic!("serde shim derive: unsupported struct body for {name}: {other:?}"),
        },
        "enum" => match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(&name, g.stream()))
            }
            other => panic!("serde shim derive: expected enum body for {name}, got {other:?}"),
        },
        other => panic!("serde shim derive supports struct/enum only, got `{other}` ({name})"),
    };
    Input { name, shape }
}

fn parse_named_fields(body: TokenStream) -> Vec<NamedField> {
    let mut it = body.into_iter().peekable();
    let mut fields = Vec::new();
    while it.peek().is_some() {
        let skip = take_attrs(&mut it);
        take_vis(&mut it);
        let name = expect_ident(&mut it, "field name");
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after field {name}, got {other:?}"),
        }
        skip_type(&mut it);
        fields.push(NamedField { name, skip });
    }
    fields
}

/// Consume type tokens up to (and including) the field-separating comma.
/// Groups (`(..)`, `[..]`, `{..}`) are single atomic tokens; only
/// `<...>` nesting needs explicit depth tracking.
fn skip_type(it: &mut TokenIter) {
    let mut angle = 0i32;
    for t in it.by_ref() {
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => return,
                _ => {}
            }
        }
    }
}

fn count_tuple_fields(body: TokenStream) -> usize {
    let mut n = 0usize;
    let mut seen_tokens = false;
    let mut angle = 0i32;
    for t in body {
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    n += 1;
                    seen_tokens = false;
                    continue;
                }
                _ => {}
            }
        }
        seen_tokens = true;
    }
    if seen_tokens {
        n += 1;
    }
    n
}

fn parse_variants(enum_name: &str, body: TokenStream) -> Vec<(String, usize)> {
    let mut it = body.into_iter().peekable();
    let mut variants = Vec::new();
    while it.peek().is_some() {
        take_attrs(&mut it);
        let name = expect_ident(&mut it, "variant name");
        let arity = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                it.next();
                n
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                panic!("serde shim derive: struct variants unsupported ({enum_name}::{name})")
            }
            _ => 0,
        };
        match it.next() {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            other => panic!(
                "serde shim derive: unexpected token after {enum_name}::{name}: {other:?} \
                 (discriminants are unsupported)"
            ),
        }
        variants.push((name, arity));
    }
    variants
}

// ---- codegen ----

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.shape {
        Shape::Named(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .filter(|f| !f.skip)
                .map(|f| {
                    format!(
                        "({:?}.to_string(), ::serde::Serialize::ser_value(&self.{}))",
                        f.name, f.name
                    )
                })
                .collect();
            format!("::serde::Value::Map(vec![{}])", entries.join(", "))
        }
        Shape::Tuple(1) => "::serde::Serialize::ser_value(&self.0)".to_string(),
        Shape::Tuple(n) => {
            let entries: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::ser_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(vec![{}])", entries.join(", "))
        }
        Shape::Unit => "::serde::Value::Null".to_string(),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, arity)| match arity {
                    0 => format!("{name}::{v} => ::serde::Value::Str({v:?}.to_string()),"),
                    1 => format!(
                        "{name}::{v}(f0) => ::serde::Value::Map(vec![({v:?}.to_string(), \
                         ::serde::Serialize::ser_value(f0))]),"
                    ),
                    n => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let sers: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Serialize::ser_value(f{i})"))
                            .collect();
                        format!(
                            "{name}::{v}({}) => ::serde::Value::Map(vec![({v:?}.to_string(), \
                             ::serde::Value::Seq(vec![{}]))]),",
                            binds.join(", "),
                            sers.join(", ")
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn ser_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.shape {
        Shape::Named(fields) => {
            // One slot per decoded field, filled by the first occurrence
            // of its key; later duplicates and unknown keys are skipped.
            let decoded: Vec<&str> = fields
                .iter()
                .filter(|f| !f.skip)
                .map(|f| f.name.as_str())
                .collect();
            let slots: String = (0..decoded.len())
                .map(|i| format!("let mut f{i} = ::std::option::Option::None;\n"))
                .collect();
            let walk = if decoded.is_empty() {
                "while d.next_key()?.is_some() { d.skip_value()?; }".to_string()
            } else {
                let arms: String = decoded
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        format!(
                            "{f:?} if f{i}.is_none() => \
                             f{i} = ::std::option::Option::Some(d.field({f:?})?),\n"
                        )
                    })
                    .collect();
                format!(
                    "while let ::std::option::Option::Some(k) = d.next_key()? {{\n\
                     match &*k {{\n{arms}_ => d.skip_value()?,\n}}\n\
                     }}"
                )
            };
            let mut slot = 0;
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    if f.skip {
                        return format!("{}: ::std::default::Default::default()", f.name);
                    }
                    let i = slot;
                    slot += 1;
                    format!(
                        "{}: match f{i} {{\n\
                         ::std::option::Option::Some(v) => v,\n\
                         ::std::option::Option::None => ::serde::Deserializer::missing({:?})?,\n\
                         }}",
                        f.name, f.name
                    )
                })
                .collect();
            format!(
                "{slots}d.begin_map({name:?})?;\n{walk}\n\
                 ::std::result::Result::Ok({name} {{ {} }})",
                inits.join(",\n")
            )
        }
        Shape::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(d)?))")
        }
        Shape::Tuple(n) => format!(
            "::std::result::Result::Ok({})",
            gen_tuple(name, &format!("{name:?}"), *n)
        ),
        Shape::Unit => format!("d.unit({name:?})?;\n::std::result::Result::Ok({name})"),
        Shape::Enum(variants) => {
            let unknown = |unit: bool| {
                format!(
                    "::std::result::Result::Err(\
                     ::serde::Deserializer::unknown_variant(&v, {unit}, {name:?}))"
                )
            };
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, a)| *a == 0)
                .map(|(v, _)| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter(|(_, a)| *a > 0)
                .map(|(v, arity)| {
                    let value = if *arity == 1 {
                        format!("{name}::{v}(::serde::Deserialize::deserialize(d)?)")
                    } else {
                        gen_tuple(&format!("{name}::{v}"), &format!("\"{name}::{v}\""), *arity)
                    };
                    format!("{v:?} => {value},")
                })
                .collect();
            // An empty arm list gets the error directly: a match whose
            // only arm returns would leave the code after it unreachable.
            let unit = if unit_arms.is_empty() {
                unknown(true)
            } else {
                format!(
                    "match &*v {{\n{}\n_ => {},\n}}",
                    unit_arms.join("\n"),
                    unknown(true)
                )
            };
            let payload = if data_arms.is_empty() {
                unknown(false)
            } else {
                format!(
                    "{{\nlet value = match &*v {{\n{}\n_ => return {},\n}};\n\
                     d.end_variant({name:?})?;\n\
                     ::std::result::Result::Ok(value)\n}}",
                    data_arms.join("\n"),
                    unknown(false)
                )
            };
            format!(
                "match d.variant({name:?})? {{\n\
                 ::serde::Variant::Unit(v) => {unit},\n\
                 ::serde::Variant::Payload(v) => {payload},\n\
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(d: &mut ::serde::Deserializer<'_>) \
         -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n\
         }}\n\
         }}"
    )
}

/// An expression reading `ctor(..)` from an array of exactly `n`
/// elements; `what` is the string literal its errors name.
fn gen_tuple(ctor: &str, what: &str, n: usize) -> String {
    let elems: Vec<String> = (0..n)
        .map(|i| format!("d.tuple_element({i}, {n}, {what})?"))
        .collect();
    format!(
        "{{\nd.begin_seq({what})?;\n\
         let t = {ctor}({});\n\
         d.end_tuple({n}, {what})?;\n\
         t\n}}",
        elems.join(", ")
    )
}
