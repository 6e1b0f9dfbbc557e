//! Minimal JSON emit + parse for the machine-readable benchmark reports
//! (`BENCH_serve.json`). Hand-rolled on purpose: the workspace vendors no
//! serialization crates, and the subset needed here — objects with stable
//! key order, arrays, strings, numbers, booleans, null — is small enough
//! to own. The emitter and parser round-trip each other, which is how the
//! bench driver self-validates the file it just wrote. A document's rows
//! are declared once with `json_record!`, which gives each its writer and
//! its strict, schema-checking reader.

use std::fmt::Write as _;
use std::io::{ErrorKind, Read};
use std::ops::Range;

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
            Json::Arr(items) => {
                let mut arr = Pretty::array(s, indent);
                for item in items {
                    arr.item(s);
                    item.render_into(s, indent + 1);
                }
                arr.close(s);
            }
            Json::Obj(fields) => {
                let mut obj = Pretty::object(s, indent);
                for (key, value) in fields {
                    obj.key(s, key);
                    value.render_into(s, indent + 1);
                }
                obj.close(s);
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
        let mut lexer = Lexer::new(text.as_bytes());
        let value = lexer.value(0)?;
        lexer.end()?;
        Ok(value)
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so the bound keeps a hostile document
/// from overflowing the stack; every document the repo writes is a few
/// levels deep.
pub const MAX_DEPTH: usize = 128;

/// An array or object written item by item in [`Json::render`]'s layout:
/// each item on its own line, indented one step past the value's
/// `indent`, and `[]` / `{}` when empty. Streaming writers use it to lay
/// out a document they never hold whole.
pub(crate) struct Pretty {
    indent: usize,
    items: usize,
    close: char,
}

impl Pretty {
    /// Opens an array at `indent`.
    pub(crate) fn array(s: &mut String, indent: usize) -> Pretty {
        s.push('[');
        Pretty { indent, items: 0, close: ']' }
    }

    /// Opens an object at `indent`.
    pub(crate) fn object(s: &mut String, indent: usize) -> Pretty {
        s.push('{');
        Pretty { indent, items: 0, close: '}' }
    }

    /// Starts the next item: the separator and the indent.
    pub(crate) fn item(&mut self, s: &mut String) {
        s.push_str(if self.items == 0 { "\n" } else { ",\n" });
        push_indent(s, self.indent + 1);
        self.items += 1;
    }

    /// Starts the next field of an object: its key and the `: `.
    pub(crate) fn key(&mut self, s: &mut String, key: &str) {
        self.item(s);
        render_string(key, s);
        s.push_str(": ");
    }

    /// Closes the array or object.
    pub(crate) fn close(self, s: &mut String) {
        if self.items > 0 {
            s.push('\n');
            push_indent(s, self.indent);
        }
        s.push(self.close);
    }
}

fn push_indent(s: &mut String, indent: usize) {
    for _ in 0..indent {
        s.push_str("  ");
    }
}

fn render_number(n: f64, s: &mut String) {
    if n.is_finite() {
        // Shortest-roundtrip display: integers print bare (`5`, not `5.0`).
        write!(s, "{n}").expect("writing to a String cannot fail");
    } else {
        s.push_str("null");
    }
}

/// Renders a count exactly as [`render_number`] renders it as an `f64`:
/// bare digits below 2^53, and past it the `f64` the count rounds to.
pub(crate) fn render_count(n: u64, s: &mut String) {
    if n >= 1 << 53 {
        return render_number(n as f64, s);
    }
    write!(s, "{n}").expect("writing to a String cannot fail");
}

/// Renders `text` as a JSON string literal.
pub(crate) fn render_string(text: &str, s: &mut String) {
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                write!(s, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// A value that is neither an array nor an object, as [`Lexer::scalar`]
/// reads it. A string's text goes to the caller's buffer, at `Str`'s range.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Scalar {
    Null,
    Bool(bool),
    Num(f64),
    Str(Range<usize>),
}

/// The bytes [`Lexer`] reads from its input at a time.
const WINDOW: usize = 1 << 16;

/// The one JSON grammar of the crate, over a document in memory
/// ([`Json::parse`] reads its text as a `&[u8]`) or streamed from a file
/// ([`crate::obs_export::read_chrome_trace`]): whitespace, literals, the
/// number grammar, string escapes, the array and object punctuation and
/// the [`MAX_DEPTH`] bound. It reads through a window of the input, which
/// keeps the token being read whole across reads, so memory is the
/// longest token, not the document. Errors name the byte offset in the
/// document.
pub(crate) struct Lexer<R> {
    input: R,
    /// `buf[pos..end]` is read from the input and not yet consumed.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// The document offset of `buf[0]`.
    base: usize,
    /// One key buffer per nesting level, reused across objects.
    keys: Vec<String>,
}

impl<R: Read> Lexer<R> {
    /// A lexer at the start of the document `input` holds.
    pub(crate) fn new(input: R) -> Self {
        Lexer { input, buf: vec![0; WINDOW], pos: 0, end: 0, base: 0, keys: Vec::new() }
    }

    /// The document offset of the next unread byte.
    fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Reads more of the input behind the unconsumed bytes, which move to
    /// the front of the window (growing it when they fill it); `false` at
    /// the end of the input.
    #[cold]
    fn more(&mut self) -> Result<bool> {
        self.buf.copy_within(self.pos..self.end, 0);
        self.base += self.pos;
        self.end -= self.pos;
        self.pos = 0;
        if self.end == self.buf.len() {
            self.buf.resize(2 * self.end, 0);
        }
        loop {
            match self.input.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n > 0);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    #[inline]
    fn peek(&mut self) -> Result<Option<u8>> {
        if self.pos == self.end && !self.more()? {
            return Ok(None);
        }
        Ok(Some(self.buf[self.pos]))
    }

    /// Skips whitespace; the next byte, if any.
    #[inline]
    pub(crate) fn skip_ws(&mut self) -> Result<Option<u8>> {
        loop {
            let unread = &self.buf[self.pos..self.end];
            if let Some(at) = unread.iter().position(|b| !b.is_ascii_whitespace()) {
                self.pos += at;
                return Ok(Some(unread[at]));
            }
            self.pos = self.end;
            if !self.more()? {
                return Ok(None);
            }
        }
    }

    /// Consumes `byte` when it is next after whitespace; otherwise fails
    /// as [`Lexer::expect`] does.
    #[inline]
    fn punct(&mut self, byte: u8, token: &str) -> Result<()> {
        if self.skip_ws()? == Some(byte) {
            self.pos += 1;
            return Ok(());
        }
        self.expect(token)
    }

    fn expect(&mut self, token: &str) -> Result<()> {
        let at = self.offset();
        for &byte in token.as_bytes() {
            if self.peek()? != Some(byte) {
                return Err(format!("expected `{token}` at byte {at}").into());
            }
            self.pos += 1;
        }
        Ok(())
    }

    /// Fails unless only whitespace is left.
    pub(crate) fn end(&mut self) -> Result<()> {
        match self.skip_ws()? {
            Some(_) => Err(format!("trailing garbage at byte {}", self.offset()).into()),
            None => Ok(()),
        }
    }

    /// Whether the unconsumed rest of the input is UTF-8. What the lexer
    /// consumed is: whitespace, punctuation, literals and numbers are
    /// ASCII and every string was checked.
    pub(crate) fn rest_is_utf8(&mut self) -> Result<bool> {
        loop {
            let unread = &self.buf[self.pos..self.end];
            match std::str::from_utf8(unread) {
                Ok(_) => self.pos = self.end,
                // A sequence cut by the window's end: read on behind it.
                Err(e) if e.error_len().is_none() => self.pos += e.valid_up_to(),
                Err(_) => return Ok(false),
            }
            if !self.more()? {
                return Ok(self.pos == self.end);
            }
        }
    }

    /// Reads the value next in the document, which sits inside `depth`
    /// arrays/objects.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json> {
        Ok(match self.skip_ws()? {
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(depth, |lexer| {
                    items.push(lexer.value(depth + 1)?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(depth, |lexer, key| {
                    fields.push((key.to_string(), lexer.value(depth + 1)?));
                    Ok(())
                })?;
                Json::Obj(fields)
            }
            _ => {
                let mut text = String::new();
                match self.scalar(&mut text)? {
                    Scalar::Null => Json::Null,
                    Scalar::Bool(b) => Json::Bool(b),
                    Scalar::Num(n) => Json::Num(n),
                    Scalar::Str(_) => Json::Str(text),
                }
            }
        })
    }

    /// Consumes the `[` or `{` of a value inside `depth` arrays/objects.
    fn open(&mut self, depth: usize) -> Result<()> {
        if depth >= MAX_DEPTH {
            let at = self.offset();
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {at}").into());
        }
        self.pos += 1;
        Ok(())
    }

    /// Reads the array next in the document (its `[` already peeked),
    /// which sits inside `depth` arrays/objects: `item` reads each element.
    pub(crate) fn array(
        &mut self,
        depth: usize,
        mut item: impl FnMut(&mut Self) -> Result<()>,
    ) -> Result<()> {
        self.open(depth)?;
        for index in 0.. {
            match self.skip_ws()? {
                Some(b']') => {
                    self.pos += 1;
                    break;
                }
                Some(b',') if index > 0 => self.pos += 1,
                _ if index > 0 => self.expect(",")?,
                _ => {}
            }
            item(self)?;
        }
        Ok(())
    }

    /// Reads the object next in the document (its `{` already peeked),
    /// which sits inside `depth` arrays/objects: `field` reads each
    /// field's value, given its key.
    pub(crate) fn object(
        &mut self,
        depth: usize,
        mut field: impl FnMut(&mut Self, &str) -> Result<()>,
    ) -> Result<()> {
        self.open(depth)?;
        if self.keys.len() <= depth {
            self.keys.resize_with(depth + 1, String::new);
        }
        let mut key = std::mem::take(&mut self.keys[depth]);
        for index in 0.. {
            match self.skip_ws()? {
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                Some(b',') if index > 0 => {
                    self.pos += 1;
                    self.skip_ws()?;
                }
                _ if index > 0 => self.expect(",")?,
                _ => {}
            }
            key.clear();
            self.string(&mut key)?;
            self.punct(b':', ":")?;
            field(self, &key)?;
        }
        self.keys[depth] = key;
        Ok(())
    }

    /// Reads the literal, string or number next in the document; a string
    /// is appended to `text`.
    #[inline]
    pub(crate) fn scalar(&mut self, text: &mut String) -> Result<Scalar> {
        match self.skip_ws()? {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.expect("null").map(|()| Scalar::Null),
            Some(b't') => self.expect("true").map(|()| Scalar::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Scalar::Bool(false)),
            Some(b'"') => {
                let start = text.len();
                self.string(text)?;
                Ok(Scalar::Str(start..text.len()))
            }
            Some(_) => self.number().map(Scalar::Num),
        }
    }

    /// Reads a string literal, appending its text to `out`.
    #[inline]
    fn string(&mut self, out: &mut String) -> Result<()> {
        if self.peek()? != Some(b'"') {
            return self.expect("\"");
        }
        self.pos += 1;
        // Find the closing quote before validating UTF-8, so each string
        // costs its own length rather than the rest of the document.
        // Multi-byte UTF-8 sequences never contain `"` or `\`, so a byte
        // scan is exact.
        let (mut scanned, mut escapes) = (0, false);
        loop {
            let body = &self.buf[self.pos..self.end];
            while scanned < body.len() {
                match body[scanned..].iter().position(|&b| b == b'"' || b == b'\\') {
                    Some(at) if body[scanned + at] == b'"' => {
                        let raw = &body[..scanned + at];
                        let text = std::str::from_utf8(raw)
                            .map_err(|e| format!("invalid UTF-8 in string: {e}"))?;
                        if escapes {
                            unescape(text, out)?;
                        } else {
                            out.push_str(text);
                        }
                        self.pos += scanned + at + 1;
                        return Ok(());
                    }
                    // An escape: skip the escaped byte, which may be unread.
                    Some(at) => (scanned, escapes) = (scanned + at + 2, true),
                    None => scanned = body.len(),
                }
            }
            if !self.more()? {
                return Err("unterminated string".into());
            }
        }
    }

    /// Reads a number (see [`number_prefix`]).
    #[inline]
    fn number(&mut self) -> Result<f64> {
        // The bytes a number can hold, gathered whole into the window.
        let mut len = 0;
        loop {
            let rest = &self.buf[self.pos + len..self.end];
            let run = rest
                .iter()
                .position(|&b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'));
            len += run.unwrap_or(rest.len());
            if run.is_some() || !self.more()? {
                break;
            }
        }
        let (used, value) = number_prefix(&self.buf[self.pos..self.pos + len], self.offset())?;
        self.pos += used;
        Ok(value)
    }
}

/// Reads the number `bytes` start with, which begins at document offset
/// `start`: JSON's grammar, `-?(0|[1-9][0-9]*)(.[0-9]+)?` followed by an
/// optional `[eE][+-]?[0-9]+`, whose value is finite. The bytes read and
/// the value.
fn number_prefix(bytes: &[u8], start: usize) -> Result<(usize, f64)> {
    let mut pos = 0;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    let invalid = || format!("invalid number at byte {start}").into();
    if bytes.first() == Some(&b'-') {
        pos += 1;
    }
    let int_start = pos;
    match digits(&mut pos) {
        0 => return Err(invalid()),
        1 => {}
        _ if bytes[int_start] == b'0' => return Err(invalid()),
        _ => {}
    }
    if bytes.get(pos) == Some(&b'.') {
        pos += 1;
        if digits(&mut pos) == 0 {
            return Err(invalid());
        }
    }
    if matches!(bytes.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(bytes.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        if digits(&mut pos) == 0 {
            return Err(invalid());
        }
    }
    let text = std::str::from_utf8(&bytes[..pos]).expect("the grammar is ASCII");
    match text.parse::<f64>() {
        Ok(value) if value.is_finite() => Ok((pos, value)),
        _ => Err(format!("number at byte {start} is out of range").into()),
    }
}

/// Appends the text of a string literal's body `text` (between its
/// quotes) to `out`, escapes resolved.
fn unescape(text: &str, out: &mut String) -> Result<()> {
    let raw = text.as_bytes();
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
                    let hex_at = offset + 2;
                    // Exactly four hex digits, inside the string (a sign,
                    // a short escape or the closing quote is an error).
                    let hex = raw
                        .get(hex_at..(hex_at + 4).min(raw.len()))
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
    Ok(())
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
