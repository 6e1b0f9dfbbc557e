//! Minimal JSON emit + parse for the machine-readable benchmark reports
//! (`BENCH_serve.json`). Hand-rolled on purpose: the workspace vendors no
//! serialization crates, and the subset needed here — objects with stable
//! key order, arrays, strings, numbers, booleans, null — is small enough
//! to own. The emitter and parser round-trip each other, which is how the
//! bench driver self-validates the file it just wrote. A document's rows
//! are declared once with `json_record!`, which gives each its writer and
//! its strict, schema-checking reader.

use crate::Result;

/// A JSON value. Objects preserve insertion order so emitted reports are
/// stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (emitted via Rust's shortest-roundtrip `f64` display).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent, trailing
    /// newline) — the on-disk format of `BENCH_serve.json`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s, 0);
        s.push('\n');
        s
    }

    fn render_into(&self, s: &mut String, indent: usize) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_number(*n, s),
            Json::Str(text) => render_string(text, s),
            Json::Arr(items) if items.is_empty() => s.push_str("[]"),
            Json::Arr(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    s.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(s, indent + 1);
                    item.render_into(s, indent + 1);
                }
                s.push('\n');
                push_indent(s, indent);
                s.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => s.push_str("{}"),
            Json::Obj(fields) => {
                s.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    s.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(s, indent + 1);
                    render_string(key, s);
                    s.push_str(": ");
                    value.render_into(s, indent + 1);
                }
                s.push('\n');
                push_indent(s, indent);
                s.push('}');
            }
        }
    }

    /// Parses a JSON document (the subset the emitter produces, which is
    /// ordinary JSON without exponent-free oddities).
    ///
    /// # Errors
    ///
    /// Fails on malformed input, trailing garbage, and arrays or objects
    /// nested more than [`MAX_DEPTH`] deep.
    pub fn parse(text: &str) -> Result<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}").into());
        }
        Ok(value)
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so the bound keeps a hostile document
/// from overflowing the stack; every document the repo writes is a few
/// levels deep.
pub const MAX_DEPTH: usize = 128;

fn push_indent(s: &mut String, indent: usize) {
    for _ in 0..indent {
        s.push_str("  ");
    }
}

fn render_number(n: f64, s: &mut String) {
    if n.is_finite() {
        // Shortest-roundtrip display: integers print bare (`5`, not `5.0`).
        s.push_str(&format!("{n}"));
    } else {
        s.push_str("null");
    }
}

fn render_string(text: &str, s: &mut String) {
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<()> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at byte {pos}").into())
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}").into());
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                if !items.is_empty() {
                    expect(bytes, pos, ",")?;
                }
                items.push(parse_value(bytes, pos, depth + 1)?);
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                if !fields.is_empty() {
                    expect(bytes, pos, ",")?;
                    skip_ws(bytes, pos);
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                fields.push((key, parse_value(bytes, pos, depth + 1)?));
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    expect(bytes, pos, "\"")?;
    // Find the closing quote before validating UTF-8, so each string costs
    // its own length rather than the rest of the document. Multi-byte
    // UTF-8 sequences never contain `"` or `\`, so a byte scan is exact.
    let mut end = *pos;
    loop {
        match bytes.get(end) {
            None => return Err("unterminated string".into()),
            Some(b'"') => break,
            Some(b'\\') => end += 2,
            Some(_) => end += 1,
        }
    }
    let text = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|e| format!("invalid UTF-8 in string: {e}"))?;
    let mut out = String::with_capacity(text.len());
    let mut chars = text.char_indices();
    while let Some((offset, c)) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 'u')) => {
                    let hex_at = *pos + offset + 2;
                    // Exactly four hex digits, inside the string (a sign,
                    // a short escape or the closing quote is an error).
                    let hex = bytes
                        .get(hex_at..(hex_at + 4).min(end))
                        .filter(|h| h.len() == 4 && h.iter().all(u8::is_ascii_hexdigit))
                        .ok_or("\\u escape needs four hex digits")?;
                    let hex = std::str::from_utf8(hex).expect("hex digits are ASCII");
                    let code = u32::from_str_radix(hex, 16).expect("four hex digits fit a u32");
                    out.push(char::from_u32(code).ok_or("\\u escape outside the BMP")?);
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                other => return Err(format!("unsupported escape {other:?}").into()),
            },
            c => out.push(c),
        }
    }
    *pos = end + 1;
    Ok(out)
}

/// Parses a number of JSON's grammar, `-?(0|[1-9][0-9]*)(.[0-9]+)?`
/// followed by an optional `[eE][+-]?[0-9]+`, whose value is finite.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    let invalid = || format!("invalid number at byte {start}").into();
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    match digits(pos) {
        0 => return Err(invalid()),
        1 => {}
        _ if bytes[int_start] == b'0' => return Err(invalid()),
        _ => {}
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(invalid());
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(invalid());
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("the grammar is ASCII");
    match text.parse::<f64>() {
        Ok(value) if value.is_finite() => Ok(value),
        _ => Err(format!("number at byte {start} is out of range").into()),
    }
}

/// One field of a typed record ([`json_record!`]): how it is written,
/// and the strict read back that is the record's schema check.
pub(crate) trait Field: Sized {
    /// The value as written.
    fn to_json(&self) -> Json;
    /// Reads field `key` of the record named `at` in errors (`config 3`,
    /// `config 3 tier 1`).
    fn from_json(at: &str, key: &str, v: &Json) -> Result<Self>;
}

/// The error for field `key` of record `at` holding something other than
/// `what`.
pub(crate) fn mistyped(at: &str, key: &str, what: &str) -> crate::BoxError {
    format!("{at}: `{key}` must be {what}").into()
}

impl Field for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(at: &str, key: &str, v: &Json) -> Result<f64> {
        v.as_f64().ok_or_else(|| mistyped(at, key, "a number"))
    }
}

impl Field for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(at: &str, key: &str, v: &Json) -> Result<String> {
        v.as_str().map(str::to_string).ok_or_else(|| mistyped(at, key, "a string"))
    }
}

/// A number that may be null (a statistic of an empty sample).
impl Field for Option<f64> {
    fn to_json(&self) -> Json {
        self.map_or(Json::Null, Json::Num)
    }
    fn from_json(at: &str, key: &str, v: &Json) -> Result<Option<f64>> {
        match v {
            Json::Null => Ok(None),
            _ => v.as_f64().map(Some).ok_or_else(|| mistyped(at, key, "a number or null")),
        }
    }
}

/// Declares a record type from one list of [`Field`]s in file order: the
/// struct, its writer `to_json` (an object with the fields in that order)
/// and its strict reader `read(at, v)` (every field present and of its
/// type), so what is written and what is checked cannot drift apart.
macro_rules! json_record {
    ($(#[$meta:meta])* struct $record:ident { $($field:ident: $ty:ty,)* }) => {
        $(#[$meta])*
        struct $record {
            $($field: $ty,)*
        }

        impl $record {
            fn to_json(&self) -> $crate::json::Json {
                use $crate::json::Field;
                $crate::json::Json::Obj(vec![$((stringify!($field).into(), self.$field.to_json()),)*])
            }

            fn read(at: &str, v: &$crate::json::Json) -> $crate::Result<$record> {
                use $crate::json::Field;
                let get = |key: &str| v.get(key).ok_or_else(|| format!("{at}: missing `{key}`"));
                Ok($record {
                    $($field: Field::from_json(at, stringify!($field), get(stringify!($field))?)?,)*
                })
            }
        }
    };
}
pub(crate) use json_record;

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: &[(&str, Json)]) -> Json {
        Json::Obj(fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect())
    }

    #[test]
    fn render_parse_round_trip() {
        let doc = obj(&[
            ("bench", Json::Str("serve".into())),
            ("schema_version", Json::Num(1.0)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            ("p99_ms", Json::Num(0.1875)),
            (
                "configs",
                Json::Arr(vec![
                    obj(&[("memory", Json::Str("flat".into())), ("tiers", Json::Null)]),
                    obj(&[("memory", Json::Str("tiered".into())), ("tiers", Json::Num(3.0))]),
                ]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("quoted", Json::Str("a \"b\"\nc\\d".into())),
        ]);
        let text = doc.render();
        assert!(text.ends_with('\n'));
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Integers render bare, keys keep insertion order.
        assert!(text.contains("\"schema_version\": 1,"), "{text}");
        let bench_pos = text.find("\"bench\"").unwrap();
        assert!(bench_pos < text.find("\"configs\"").unwrap());
    }

    #[test]
    fn accessors_navigate_the_tree() {
        let doc = Json::parse(r#"{"a": [1, 2.5, "x", false], "b": {"c": null}}"#).unwrap();
        let items = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].as_str(), Some("x"));
        assert_eq!(items[3].as_bool(), Some(false));
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(doc.get("nope"), None);
    }

    #[test]
    fn malformed_documents_are_rejected_loudly() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "nul", "1 2", "[1] trailing"] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for (good, value) in
            [("0", 0.0), ("-0", -0.0), ("12.5", 12.5), ("1e3", 1e3), ("2E-2", 0.02)]
        {
            assert_eq!(Json::parse(good).unwrap(), Json::Num(value), "{good}");
        }
        for bad in ["+1", ".5", "1.", "01", "-", "1e", "1e+", "--1", "1.2.3", "1e400", "0x10"] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        let err = Json::parse(&nested(100_000)).unwrap_err().to_string();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"));
        let doc = Json::parse(&nested(MAX_DEPTH)).unwrap();
        let mut deepest = &doc;
        for _ in 1..MAX_DEPTH {
            deepest = &deepest.as_array().unwrap()[0];
        }
        assert_eq!(deepest, &Json::Arr(vec![]));
        let err = Json::parse(&format!("{{\"a\": {}}}", nested(MAX_DEPTH))).unwrap_err();
        assert!(err.to_string().contains("at byte"), "{err}");
    }
}
