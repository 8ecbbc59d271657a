//! `#[derive(Serialize, Deserialize)]` for the vendored serde shim.
//!
//! Because the build runs offline, `syn`/`quote` are unavailable; the item
//! is parsed directly from the `proc_macro` token stream and the generated
//! impls are assembled as source text. The supported grammar is exactly
//! what this workspace uses: `Serialize` for non-generic structs (named,
//! tuple, unit) and enums (unit, tuple and struct variants), `Deserialize`
//! for named structs and one-field tuple structs, plus the field attribute
//! `#[serde(with = "module")]`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    with: Option<String>,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum Data {
    NamedStruct(Vec<Field>),
    TupleStruct(Vec<Option<String>>),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    data: Data,
}

/// Derives `serde::Serialize` (shim: `fn to_value(&self) -> Value`).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("serde_derive: generated invalid Serialize impl")
}

/// Derives `serde::Deserialize` (shim: `fn from_value(&Value) -> Result<Self, Error>`).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item).parse().expect("serde_derive: generated invalid Deserialize impl")
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attrs(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);

    let kw = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }

    let data = match kw.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Data::TupleStruct(parse_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Data::UnitStruct,
            other => panic!("serde_derive shim: unexpected struct body: {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive shim: unexpected enum body: {other:?}"),
        },
        other => panic!("serde_derive shim: expected struct or enum, got `{other}`"),
    };

    Item { name, data }
}

/// Skips any `#[...]` attributes, returning the `with = "..."` path if one
/// of them is `#[serde(with = "path")]`.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) -> Option<String> {
    let mut with = None;
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        *i += 1;
        match tokens.get(*i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                if let Some(w) = parse_serde_with(g.stream()) {
                    with = Some(w);
                }
                *i += 1;
            }
            other => panic!("serde_derive shim: malformed attribute: {other:?}"),
        }
    }
    with
}

/// For a bracket-group token stream `serde(with = "path")`, returns the path.
fn parse_serde_with(attr: TokenStream) -> Option<String> {
    let toks: Vec<TokenTree> = attr.into_iter().collect();
    match toks.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return None,
    }
    let inner = match toks.get(1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
        _ => return None,
    };
    let inner: Vec<TokenTree> = inner.into_iter().collect();
    let mut j = 0;
    while j < inner.len() {
        if let TokenTree::Ident(id) = &inner[j] {
            if id.to_string() == "with" {
                if let (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit))) =
                    (inner.get(j + 1), inner.get(j + 2))
                {
                    if eq.as_char() == '=' {
                        let s = lit.to_string();
                        return Some(s.trim_matches('"').to_owned());
                    }
                }
            }
            // Any other serde attribute is beyond this shim.
            panic!(
                "serde_derive shim: unsupported serde attribute `{}` (only `with` is known)",
                id
            );
        }
        j += 1;
    }
    None
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(
            tokens.get(*i),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        ) {
            *i += 1;
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("serde_derive shim: expected identifier, got {other:?}"),
    }
}

/// Skips a type, stopping at a comma that sits outside all `<...>` pairs.
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    while let Some(t) = tokens.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        let with = skip_attrs(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        let name = expect_ident(&tokens, &mut i);
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive shim: expected `:` after field `{name}`, got {other:?}"),
        }
        skip_type(&tokens, &mut i);
        // Now at a comma or the end.
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        fields.push(Field { name, with });
    }
    fields
}

fn parse_tuple_fields(stream: TokenStream) -> Vec<Option<String>> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        let with = skip_attrs(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        skip_type(&tokens, &mut i);
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        fields.push(with);
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        let name = expect_ident(&tokens, &mut i);
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(parse_tuple_fields(g.stream()).len())
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Named(parse_named_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    variants
}

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

fn ser_field_expr(with: &Option<String>, access: &str) -> String {
    match with {
        Some(path) => format!("{path}::to_value({access})"),
        None => format!("::serde::Serialize::to_value({access})"),
    }
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.data {
        Data::NamedStruct(fields) => {
            let mut s = String::from("let mut __m = ::std::collections::BTreeMap::new();\n");
            for f in fields {
                s.push_str(&format!(
                    "__m.insert(::std::string::String::from(\"{n}\"), {e});\n",
                    n = f.name,
                    e = ser_field_expr(&f.with, &format!("&self.{}", f.name)),
                ));
            }
            s.push_str("::serde::Value::Object(__m)");
            s
        }
        Data::TupleStruct(withs) if withs.len() == 1 => ser_field_expr(&withs[0], "&self.0"),
        Data::TupleStruct(withs) => {
            let elems: Vec<String> = withs
                .iter()
                .enumerate()
                .map(|(k, w)| ser_field_expr(w, &format!("&self.{k}")))
                .collect();
            format!("::serde::Value::Array(vec![{}])", elems.join(", "))
        }
        Data::UnitStruct => String::from("::serde::Value::Null"),
        Data::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vn} => ::serde::Value::String(::std::string::String::from(\"{vn}\")),\n"
                    )),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(__f0) => ::serde::__variant(\"{vn}\", ::serde::Serialize::to_value(__f0)),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let elems: Vec<String> = (0..*n)
                            .map(|k| format!("::serde::Serialize::to_value(__f{k})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({b}) => ::serde::__variant(\"{vn}\", ::serde::Value::Array(vec![{e}])),\n",
                            b = binds.join(", "),
                            e = elems.join(", "),
                        ));
                    }
                    VariantKind::Named(fields) => {
                        let binds: Vec<String> =
                            fields.iter().map(|f| f.name.clone()).collect();
                        let mut inner = String::from(
                            "let mut __m = ::std::collections::BTreeMap::new();\n",
                        );
                        for f in fields {
                            inner.push_str(&format!(
                                "__m.insert(::std::string::String::from(\"{n}\"), {e});\n",
                                n = f.name,
                                e = ser_field_expr(&f.with, &f.name),
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {b} }} => {{ {inner} ::serde::__variant(\"{vn}\", ::serde::Value::Object(__m)) }}\n",
                            b = binds.join(", "),
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}\n"
    )
}

fn de_field_expr(with: &Option<String>, obj: &str, key: &str) -> String {
    match with {
        Some(path) => {
            format!("{path}::from_value({obj}.get(\"{key}\").unwrap_or(&::serde::Value::Null))?")
        }
        None => format!("::serde::__from_field({obj}, \"{key}\")?"),
    }
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.data {
        Data::NamedStruct(fields) => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&format!(
                    "{n}: {e},\n",
                    n = f.name,
                    e = de_field_expr(&f.with, "__o", &f.name),
                ));
            }
            format!(
                "let __o = __v.as_object().ok_or_else(|| ::serde::Error::custom(\"expected object for {name}\"))?;\n\
                 ::std::result::Result::Ok({name} {{\n{inits}}})"
            )
        }
        Data::TupleStruct(withs) if withs.len() == 1 => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        _ => panic!(
            "serde_derive shim: Deserialize for `{name}`: only named structs and one-field \
             tuple structs are supported"
        ),
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}\n"
    )
}
