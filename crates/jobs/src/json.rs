//! The workspace's JSON reader and writer (no serde, by design).
//!
//! [`parse`] is a small recursive-descent parser producing a [`Json`]
//! tree, enough to read line-delimited protocol requests. Objects keep
//! their key order (a `Vec` of pairs — duplicate keys resolve to the
//! first occurrence). A depth bound caps hostile nesting, trailing
//! garbage is rejected, and every error carries its byte offset, so a
//! malformed protocol line becomes an error response, never a panic.
//!
//! [`object`] is the writer behind every JSON text the workspace emits
//! (protocol lines, `--json` reports, `BENCH_*.json`). Callers add
//! typed members; only the writer knows separators (`", "`, `": "`),
//! escaping and number form: integers as integers, floats in shortest
//! round-trip `{:?}` form, so `4.0` stays `4.0`.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON has only doubles).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first occurrence), `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer (rejects
    /// fractional, negative and out-of-range values).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if !n.is_finite() || n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
            return None;
        }
        // Lossless: gated to the f64-exact integer range above.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Some(n as u64)
    }

    /// The number as an exact `usize` (see [`as_u64`](Self::as_u64)).
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }

    /// The number as an exact `u32` (see [`as_u64`](Self::as_u64)).
    #[must_use]
    pub fn as_u32(&self) -> Option<u32> {
        u32::try_from(self.as_u64()?).ok()
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and at which byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Nesting bound: protocol requests are a couple of levels deep, and
/// the recursive parser must not let a hostile line overflow the
/// worker's stack.
const MAX_DEPTH: usize = 64;

/// Parse one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after the document"));
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
            offset: self.pos,
            message: message.to_owned(),
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

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number `{text}`"),
        })?;
        if !n.is_finite() {
            return Err(JsonError {
                offset: start,
                message: format!("number `{text}` overflows"),
            });
        }
        Ok(Json::Num(n))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let slice = end.map(|e| &self.bytes[self.pos..e]);
        let text = slice
            .and_then(|s| std::str::from_utf8(s).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code =
            u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                    let escape = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // A surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let ch = text.chars().next().ok_or_else(|| self.err("empty slice"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// A value the writer renders in place: a boolean, an integer, a
/// float (every one the workspace emits is finite) or a string.
pub trait Scalar {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// Numbers and booleans print as their `Debug` form: integers as
/// digits, floats in shortest round-trip form (`4.0` stays `4.0`).
macro_rules! debug_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self:?}");
            }
        }
    )*};
}

debug_scalar!(bool, u32, u64, usize, f64);

impl Scalar for str {
    fn write_json(&self, out: &mut String) {
        out.push_str(&hlts_dse::json_string(self));
    }
}

impl Scalar for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Add members to an [`Obj`] in JSON-like syntax, in order: values
/// are [`Scalar`] expressions or nested `{...}` objects, so
/// `members!(o, "n": 1, "sub": {"x": 2.0})` is `o.field("n", 1)`
/// followed by `o.obj("sub", |o| ...)` writing `"x": 2.0` into it.
#[macro_export]
macro_rules! members {
    ($obj:expr $(,)?) => { () };
    ($obj:expr, $key:literal: {$($inner:tt)*} $(, $($rest:tt)*)?) => {{
        $obj.obj($key, |o| $crate::members!(o, $($inner)*));
        $crate::members!($obj $(, $($rest)*)?)
    }};
    ($obj:expr, $key:literal: $value:expr $(, $($rest:tt)*)?) => {{
        $obj.field($key, $value);
        $crate::members!($obj $(, $($rest)*)?)
    }};
}

/// A JSON object (inside the writer, also an array) being written:
/// entries separated by `", "`, or each on a new line in *lines* layout
/// (indented two spaces per level; `depth` is the entries' level).
pub struct Obj<'a> {
    out: &'a mut String,
    lines: bool,
    depth: usize,
}

impl<'a> Obj<'a> {
    fn new(out: &'a mut String, lines: bool, depth: usize) -> Obj<'a> {
        Obj { out, lines, depth }
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", depth));
    }

    /// Start the next entry: a separator unless the container was just
    /// opened, then the key inside an object.
    fn entry(&mut self, key: Option<&str>) {
        if !self.out.ends_with(['{', '[']) {
            self.out.push_str(if self.lines { "," } else { ", " });
        }
        if self.lines {
            self.newline(self.depth);
        }
        if let Some(key) = key {
            key.write_json(self.out);
            self.out.push_str(": ");
        }
    }

    /// Write the brackets `b` around what `f` writes into this container.
    fn fill(mut self, b: [char; 2], f: impl FnOnce(&mut Obj)) {
        self.out.push(b[0]);
        f(&mut self);
        if self.lines && !self.out.ends_with(b[0]) {
            self.newline(self.depth - 1);
        }
        self.out.push(b[1]);
    }

    fn nest(&mut self, key: Option<&str>, b: [char; 2], lines: bool, f: impl FnOnce(&mut Obj)) {
        self.entry(key);
        Obj::new(self.out, lines, self.depth + 1).fill(b, f);
    }

    /// Add a scalar member.
    pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        self.entry(Some(key));
        value.write_json(self.out);
        self
    }

    /// Add a scalar member only when `value` is `Some`.
    pub fn opt(&mut self, key: &str, value: Option<impl Scalar>) -> &mut Self {
        if let Some(value) = value {
            self.field(key, value);
        }
        self
    }

    /// Add a nested object, on one line.
    pub fn obj(&mut self, key: &str, f: impl FnOnce(&mut Obj)) -> &mut Self {
        self.nest(Some(key), ['{', '}'], false, f);
        self
    }

    /// Add an array of scalars, on one line.
    pub fn items<T: Scalar>(&mut self, key: &str, items: impl IntoIterator<Item = T>) -> &mut Self {
        self.nest(Some(key), ['[', ']'], false, |arr| {
            for item in items {
                arr.entry(None);
                item.write_json(arr.out);
            }
        });
        self
    }

    /// Add an array of objects, one per item, each filled by `f` on one
    /// line; at the top level of [`object_lines`], each on its own line.
    pub fn objects<I: IntoIterator>(
        &mut self,
        key: &str,
        items: I,
        mut f: impl FnMut(&mut Obj, I::Item),
    ) -> &mut Self {
        let lines = self.lines;
        self.nest(Some(key), ['[', ']'], lines, |arr| {
            for item in items {
                arr.nest(None, ['{', '}'], false, |o| f(o, item));
            }
        });
        self
    }
}

/// Render one object on a single line: the protocol's form.
#[must_use]
pub fn object(f: impl FnOnce(&mut Obj)) -> String {
    render(false, f)
}

/// Render one object with each top-level member on its own line: the
/// form of the `--json` reports and `BENCH_*.json` files.
#[must_use]
pub fn object_lines(f: impl FnOnce(&mut Obj)) -> String {
    render(true, f)
}

fn render(lines: bool, f: impl FnOnce(&mut Obj)) -> String {
    let mut out = String::new();
    Obj::new(&mut out, lines, 1).fill(['{', '}'], f);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v = parse(
            r#"{"op":"submit","id":"c1","job":{"kind":"run","source":"bench:ewf","bits":8,
                "alpha":10.0,"weights":[[2,1],[1,10]],"deep":null,"flag":true}}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("submit"));
        let job = v.get("job").unwrap();
        assert_eq!(job.get("bits").and_then(Json::as_u32), Some(8));
        assert_eq!(job.get("alpha").and_then(Json::as_f64), Some(10.0));
        assert_eq!(job.get("weights").and_then(Json::as_arr).unwrap().len(), 2);
        assert_eq!(job.get("deep"), Some(&Json::Null));
        assert_eq!(job.get("flag").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn round_trips_escapes() {
        let v = parse(r#""a\"b\\c\nd\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA😀"));
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",
            "{",
            "{]",
            "nul",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "123 456",
            "{\"a\":1} extra",
            "1e999",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input `{bad}`");
        }
        // Hostile nesting hits the depth bound, not the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn integer_accessors_are_exact() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_usize(), Some(1000));
    }
}
