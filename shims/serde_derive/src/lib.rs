//! Offline stand-in for `serde_derive` — see `shims/README.md`.
//!
//! Unlike the first-generation shim (no-op derives over blanket
//! marker traits), these macros emit **real field-by-field
//! implementations** against the sibling `serde` shim's serde-1 trait
//! subset: structs serialize through `serialize_struct` /
//! `SerializeStruct::serialize_field` and deserialize positionally
//! through a `Visitor::visit_seq`, newtype structs through the
//! `newtype_struct` hooks, and enums through the `u32`-indexed
//! variant protocol (`serialize_unit_variant` /
//! `serialize_newtype_variant` / `serialize_tuple_variant` /
//! `serialize_struct_variant`, mirrored by
//! `EnumAccess`/`VariantAccess` on decode) — the same wire protocol
//! the real derive speaks with positional formats like `bincode`.
//!
//! The input is parsed with nothing but `proc_macro` (this build
//! environment has no `syn`/`quote`): attributes — including
//! `#[serde(...)]`, which is accepted and ignored, as no call site
//! uses attribute-driven behaviours — and visibility are skipped,
//! then the struct/enum shape is walked token by token. Type
//! parameters are not supported (no derived type in the workspace has
//! one); deriving on such a type produces a compile error naming this
//! shim. A named-field struct may take lifetime parameters, and its
//! `Deserialize` impl then borrows from the input for all of them
//! (`impl<'de: 'a, 'a> Deserialize<'de> for S<'a>`): what the real
//! derive emits when the borrowing fields carry `#[serde(borrow)]`,
//! which such call sites must write so they build against the real
//! crate too.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// `#[derive(Serialize)]` emitting a field-by-field
/// `serde::Serialize` impl.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Serialize)
}

/// `#[derive(Deserialize)]` emitting a visitor-based
/// `serde::Deserialize` impl.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Which {
    Serialize,
    Deserialize,
}

/// The parsed shape of the deriving item.
enum Item {
    /// `struct Name;`
    UnitStruct { name: String },
    /// `struct Name(T, ...);` — field count only (encoding is
    /// positional).
    TupleStruct { name: String, fields: usize },
    /// `struct Name<'a, ...> { a: A, ... }` — the lifetime
    /// parameters (possibly none) and the field names in declaration
    /// order.
    Struct {
        name: String,
        lifetimes: Vec<String>,
        fields: Vec<String>,
    },
    /// `enum Name { ... }`.
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// One enum variant's shape.
struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

fn expand(input: TokenStream, which: Which) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => match which {
            Which::Serialize => gen_serialize(&item),
            Which::Deserialize => gen_deserialize(&item),
        },
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse()
        .expect("serde_derive shim generated invalid Rust")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();

    // Skip outer attributes (`#[...]`, including doc comments) and
    // visibility.
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                match tokens.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {}
                    _ => return Err("serde_derive shim: malformed attribute".into()),
                }
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next(); // pub(crate) / pub(super) / ...
                    }
                }
            }
            _ => break,
        }
    }

    let kind = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("serde_derive shim: expected `struct` or `enum`".into()),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("serde_derive shim: expected an item name".into()),
    };
    let lifetimes = parse_lifetimes(&mut tokens, &name)?;
    let is_braced_struct = kind == "struct"
        && matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace);
    if !lifetimes.is_empty() && !is_braced_struct {
        return Err(format!(
            "serde_derive shim: only a named-field struct may take lifetime \
             parameters, `{name}` is not one; write the impl by hand"
        ));
    }

    match kind.as_str() {
        "struct" => match tokens.next() {
            None => Ok(Item::UnitStruct { name }),
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Item::UnitStruct { name }),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Struct {
                name,
                lifetimes,
                fields: parse_named_fields(g.stream())?,
            }),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok(Item::TupleStruct {
                    name,
                    fields: count_tuple_fields(g.stream()),
                })
            }
            _ => Err(format!("serde_derive shim: malformed struct `{name}`")),
        },
        "enum" => match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Enum {
                name,
                variants: parse_variants(g.stream())?,
            }),
            _ => Err(format!("serde_derive shim: malformed enum `{name}`")),
        },
        other => Err(format!(
            "serde_derive shim: cannot derive for `{other}` items"
        )),
    }
}

/// The item's generic parameters, which must all be lifetimes
/// (`<'a, 'b>`, returned as `["'a", "'b"]`); none when no `<`
/// follows the name.
fn parse_lifetimes(
    tokens: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>,
    name: &str,
) -> Result<Vec<String>, String> {
    let mut lifetimes = Vec::new();
    if !matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Ok(lifetimes);
    }
    tokens.next();
    loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '>' => return Ok(lifetimes),
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(TokenTree::Punct(p)) if p.as_char() == '\'' => match tokens.next() {
                Some(TokenTree::Ident(i)) => lifetimes.push(format!("'{i}")),
                _ => return Err(format!("serde_derive shim: malformed lifetime on `{name}`")),
            },
            _ => {
                return Err(format!(
                    "serde_derive shim: generic type `{name}` is not supported (only \
                     lifetime parameters are); write the impl by hand or use the real \
                     serde_derive"
                ))
            }
        }
    }
}

/// Field names, in order, from the body of a braced struct (or struct
/// variant): skip attributes and visibility, take the ident before
/// each `:`, then skip the type up to the next top-level comma
/// (angle-bracket depth tracked so a multi-parameter generic type's
/// commas don't split fields).
fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        // Skip attributes and visibility before the field name.
        loop {
            match tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                    tokens.next(); // the [...] group
                }
                Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                    tokens.next();
                    if let Some(TokenTree::Group(g)) = tokens.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            tokens.next();
                        }
                    }
                }
                _ => break,
            }
        }
        let Some(tree) = tokens.next() else { break };
        let TokenTree::Ident(field) = tree else {
            return Err("serde_derive shim: expected a field name".into());
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => return Err(format!("serde_derive shim: expected `:` after `{field}`")),
        }
        fields.push(field.to_string());
        // Skip the type tokens up to the next comma at angle depth 0.
        let mut angle_depth = 0i32;
        for tree in tokens.by_ref() {
            match tree {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
        }
    }
    Ok(fields)
}

/// Number of fields in a tuple struct / tuple variant body.
fn count_tuple_fields(body: TokenStream) -> usize {
    let mut fields = 0usize;
    let mut angle_depth = 0i32;
    let mut saw_tokens = false;
    for tree in body {
        match tree {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                fields += 1;
                saw_tokens = false;
                continue;
            }
            _ => {}
        }
        saw_tokens = true;
    }
    if saw_tokens {
        fields += 1; // no trailing comma after the last field
    }
    fields
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        // Skip attributes (e.g. `#[default]`, doc comments).
        while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            tokens.next();
            tokens.next();
        }
        let Some(tree) = tokens.next() else { break };
        let TokenTree::Ident(name) = tree else {
            return Err("serde_derive shim: expected a variant name".into());
        };
        let kind = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                tokens.next();
                VariantKind::Struct(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                tokens.next();
                VariantKind::Tuple(n)
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant (`= expr`) and the comma.
        let mut in_discriminant = false;
        while let Some(tree) = tokens.peek() {
            match tree {
                TokenTree::Punct(p) if p.as_char() == ',' => {
                    tokens.next();
                    break;
                }
                TokenTree::Punct(p) if p.as_char() == '=' => {
                    in_discriminant = true;
                    tokens.next();
                }
                _ if in_discriminant => {
                    tokens.next();
                }
                _ => break,
            }
        }
        variants.push(Variant {
            name: name.to_string(),
            kind,
        });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn quoted_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|f| format!("{f:?}")).collect();
    format!("&[{}]", quoted.join(", "))
}

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::UnitStruct { name } => format!(
            "impl serde::Serialize for {name} {{\n\
             fn serialize<__S: serde::Serializer>(&self, __serializer: __S) \
             -> core::result::Result<__S::Ok, __S::Error> {{\n\
             __serializer.serialize_unit_struct({name:?})\n}}\n}}"
        ),
        Item::TupleStruct { name, fields: 1 } => format!(
            "impl serde::Serialize for {name} {{\n\
             fn serialize<__S: serde::Serializer>(&self, __serializer: __S) \
             -> core::result::Result<__S::Ok, __S::Error> {{\n\
             __serializer.serialize_newtype_struct({name:?}, &self.0)\n}}\n}}"
        ),
        Item::TupleStruct { name, fields } => {
            let mut body = format!(
                "let mut __st = __serializer.serialize_tuple_struct({name:?}, {fields}usize)?;\n"
            );
            for i in 0..*fields {
                body.push_str(&format!(
                    "serde::ser::SerializeTupleStruct::serialize_field(&mut __st, &self.{i})?;\n"
                ));
            }
            body.push_str("serde::ser::SerializeTupleStruct::end(__st)\n");
            format!(
                "impl serde::Serialize for {name} {{\n\
                 fn serialize<__S: serde::Serializer>(&self, __serializer: __S) \
                 -> core::result::Result<__S::Ok, __S::Error> {{\n{body}}}\n}}"
            )
        }
        Item::Struct {
            name,
            lifetimes,
            fields,
        } => {
            let params = angle_list(lifetimes);
            let mut body = format!(
                "let mut __st = __serializer.serialize_struct({name:?}, {}usize)?;\n",
                fields.len()
            );
            for f in fields {
                body.push_str(&format!(
                    "serde::ser::SerializeStruct::serialize_field(&mut __st, {f:?}, &self.{f})?;\n"
                ));
            }
            body.push_str("serde::ser::SerializeStruct::end(__st)\n");
            format!(
                "impl{params} serde::Serialize for {name}{params} {{\n\
                 fn serialize<__S: serde::Serializer>(&self, __serializer: __S) \
                 -> core::result::Result<__S::Ok, __S::Error> {{\n{body}}}\n}}"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for (idx, v) in variants.iter().enumerate() {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vname} => \
                         __serializer.serialize_unit_variant({name:?}, {idx}u32, {vname:?}),\n"
                    )),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vname}(__f0) => __serializer\
                         .serialize_newtype_variant({name:?}, {idx}u32, {vname:?}, __f0),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let mut body = format!(
                            "let mut __sv = __serializer.serialize_tuple_variant(\
                             {name:?}, {idx}u32, {vname:?}, {n}usize)?;\n"
                        );
                        for b in &binds {
                            body.push_str(&format!(
                                "serde::ser::SerializeTupleVariant::serialize_field(\
                                 &mut __sv, {b})?;\n"
                            ));
                        }
                        body.push_str("serde::ser::SerializeTupleVariant::end(__sv)\n");
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => {{\n{body}}}\n",
                            binds.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let mut body = format!(
                            "let mut __sv = __serializer.serialize_struct_variant(\
                             {name:?}, {idx}u32, {vname:?}, {}usize)?;\n",
                            fields.len()
                        );
                        for f in fields {
                            body.push_str(&format!(
                                "serde::ser::SerializeStructVariant::serialize_field(\
                                 &mut __sv, {f:?}, {f})?;\n"
                            ));
                        }
                        body.push_str("serde::ser::SerializeStructVariant::end(__sv)\n");
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{\n{body}}}\n",
                            fields.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl serde::Serialize for {name} {{\n\
                 fn serialize<__S: serde::Serializer>(&self, __serializer: __S) \
                 -> core::result::Result<__S::Ok, __S::Error> {{\n\
                 match self {{\n{arms}}}\n}}\n}}"
            )
        }
    }
}

/// `<'a, 'b>` for the given lifetimes, or nothing for none.
fn angle_list(lifetimes: &[String]) -> String {
    if lifetimes.is_empty() {
        String::new()
    } else {
        format!("<{}>", lifetimes.join(", "))
    }
}

/// The hidden visitor value the drivers hand to the deserializer.
const VISITOR: &str = "__Visitor(core::marker::PhantomData)";

/// The shared skeleton: a `Deserialize` impl delegating to a hidden
/// visitor struct whose hooks are `visitor_hooks`, driven by
/// `driver`. With `lifetimes`, `'de` outlives each of them: the
/// decoded value may borrow from the input.
fn deserialize_impl(name: &str, lifetimes: &[String], visitor_hooks: &str, driver: &str) -> String {
    let params = angle_list(lifetimes);
    let de_params = if lifetimes.is_empty() {
        "<'de>".to_string()
    } else {
        format!("<'de: {}, {}>", lifetimes.join(" + "), lifetimes.join(", "))
    };
    let markers: String = lifetimes.iter().map(|l| format!("&{l} (), ")).collect();
    format!(
        "impl{de_params} serde::Deserialize<'de> for {name}{params} {{\n\
         fn deserialize<__D: serde::Deserializer<'de>>(__deserializer: __D) \
         -> core::result::Result<Self, __D::Error> {{\n\
         struct __Visitor{params}(core::marker::PhantomData<({markers})>);\n\
         impl{de_params} serde::de::Visitor<'de> for __Visitor{params} {{\n\
         type Value = {name}{params};\n\
         fn expecting(&self, __f: &mut core::fmt::Formatter) -> core::fmt::Result {{\n\
         __f.write_str({name:?})\n}}\n\
         {visitor_hooks}\n}}\n\
         {driver}\n}}\n}}"
    )
}

/// A `visit_seq` body decoding `bindings` positionally into the given
/// constructor expression.
fn visit_seq_hook(describe: &str, bindings: &[String], construct: &str) -> String {
    let mut body = String::new();
    for b in bindings {
        body.push_str(&format!(
            "let {b} = match serde::de::SeqAccess::next_element(&mut __seq)? {{\n\
             Some(__v) => __v,\n\
             None => return Err(serde::de::Error::custom(\
             \"{describe} ended before all fields were read\")),\n}};\n"
        ));
    }
    format!(
        "fn visit_seq<__A: serde::de::SeqAccess<'de>>(self, mut __seq: __A) \
         -> core::result::Result<Self::Value, __A::Error> {{\n\
         {body}Ok({construct})\n}}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::UnitStruct { name } => {
            let hooks = format!(
                "fn visit_unit<__E: serde::de::Error>(self) \
                 -> core::result::Result<Self::Value, __E> {{ Ok({name}) }}"
            );
            let driver = format!("__deserializer.deserialize_unit_struct({name:?}, {VISITOR})");
            deserialize_impl(name, &[], &hooks, &driver)
        }
        Item::TupleStruct { name, fields: 1 } => {
            let hooks = format!(
                "fn visit_newtype_struct<__D2: serde::Deserializer<'de>>(self, __d: __D2) \
                 -> core::result::Result<Self::Value, __D2::Error> {{\n\
                 Ok({name}(serde::Deserialize::deserialize(__d)?))\n}}"
            );
            let driver = format!("__deserializer.deserialize_newtype_struct({name:?}, {VISITOR})");
            deserialize_impl(name, &[], &hooks, &driver)
        }
        Item::TupleStruct { name, fields } => {
            let bindings: Vec<String> = (0..*fields).map(|i| format!("__f{i}")).collect();
            let construct = format!("{name}({})", bindings.join(", "));
            let hooks = visit_seq_hook(&format!("tuple struct {name}"), &bindings, &construct);
            let driver = format!(
                "__deserializer.deserialize_tuple_struct({name:?}, {fields}usize, {VISITOR})"
            );
            deserialize_impl(name, &[], &hooks, &driver)
        }
        Item::Struct {
            name,
            lifetimes,
            fields,
        } => {
            let construct = format!("{name} {{ {} }}", fields.join(", "));
            let hooks = visit_seq_hook(&format!("struct {name}"), fields, &construct);
            let driver = format!(
                "__deserializer.deserialize_struct({name:?}, {}, {VISITOR})",
                quoted_list(fields)
            );
            deserialize_impl(name, lifetimes, &hooks, &driver)
        }
        Item::Enum { name, variants } => {
            let variant_names: Vec<String> = variants.iter().map(|v| v.name.clone()).collect();
            let mut arms = String::new();
            for (idx, v) in variants.iter().enumerate() {
                let vname = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{idx}u32 => {{\n\
                         serde::de::VariantAccess::unit_variant(__variant)?;\n\
                         Ok({name}::{vname})\n}}\n"
                    )),
                    VariantKind::Tuple(1) => arms.push_str(&format!(
                        "{idx}u32 => Ok({name}::{vname}(\
                         serde::de::VariantAccess::newtype_variant(__variant)?)),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let bindings: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let construct = format!("{name}::{vname}({})", bindings.join(", "));
                        let hook = visit_seq_hook(
                            &format!("tuple variant {name}::{vname}"),
                            &bindings,
                            &construct,
                        );
                        arms.push_str(&format!(
                            "{idx}u32 => {{\n\
                             struct __V{idx};\n\
                             impl<'de> serde::de::Visitor<'de> for __V{idx} {{\n\
                             type Value = {name};\n\
                             fn expecting(&self, __f: &mut core::fmt::Formatter) \
                             -> core::fmt::Result {{ __f.write_str({vname:?}) }}\n\
                             {hook}\n}}\n\
                             serde::de::VariantAccess::tuple_variant(\
                             __variant, {n}usize, __V{idx})\n}}\n"
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let construct = format!("{name}::{vname} {{ {} }}", fields.join(", "));
                        let hook = visit_seq_hook(
                            &format!("struct variant {name}::{vname}"),
                            fields,
                            &construct,
                        );
                        arms.push_str(&format!(
                            "{idx}u32 => {{\n\
                             struct __V{idx};\n\
                             impl<'de> serde::de::Visitor<'de> for __V{idx} {{\n\
                             type Value = {name};\n\
                             fn expecting(&self, __f: &mut core::fmt::Formatter) \
                             -> core::fmt::Result {{ __f.write_str({vname:?}) }}\n\
                             {hook}\n}}\n\
                             serde::de::VariantAccess::struct_variant(\
                             __variant, {}, __V{idx})\n}}\n",
                            quoted_list(fields)
                        ));
                    }
                }
            }
            let hooks = format!(
                "fn visit_enum<__A: serde::de::EnumAccess<'de>>(self, __data: __A) \
                 -> core::result::Result<Self::Value, __A::Error> {{\n\
                 let (__idx, __variant): (u32, _) = serde::de::EnumAccess::variant(__data)?;\n\
                 match __idx {{\n{arms}\
                 __other => Err(serde::de::Error::unknown_variant(__other, __VARIANTS)),\n\
                 }}\n}}"
            );
            let driver =
                format!("__deserializer.deserialize_enum({name:?}, __VARIANTS, {VISITOR})");
            let body = deserialize_impl(name, &[], &hooks, &driver);
            // The variant-name list is shared by the driver and the
            // unknown-variant error arm; the const block scopes it.
            format!(
                "const _: () = {{\n\
                 const __VARIANTS: &[&str] = {};\n\
                 {body}\n}};",
                quoted_list(&variant_names)
            )
        }
    }
}
