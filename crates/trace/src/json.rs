//! The workspace's one JSON codec (std-only, no serde): every artifact,
//! wire line, cache file and trace is written by [`JsonWriter`] and read
//! back by [`parse`]. The tree keeps number tokens verbatim and object
//! keys in source order, so `parse(text)?.to_json() == text` for anything
//! the writer produced — `u64` counters above 2^53 included — which lets
//! the serve cache and wire protocol pass `LaunchStats` JSON through byte
//! for byte.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Appends `s` to `out` escaped for a JSON string literal (no quotes):
/// `"`, `\` and every control character below 0x20. Everything else,
/// non-ASCII included, is copied in runs.
fn escape(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // All escaped bytes are ASCII, so `i` is a character boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A `fmt::Write` sink that escapes what is formatted into it.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape(self.0, s);
        Ok(())
    }
}

/// Writes one compact JSON document into a single growing `String`.
///
/// Keys, strings and numbers are appended in place: no `String` is built
/// per escaped key or per array element. Object members are a [`key`]
/// followed by one value (or a `field_*` call, which is both); containers
/// nest with `begin_*` / `end_*`, which the caller keeps balanced.
///
/// [`key`]: JsonWriter::key
///
/// # Example
///
/// ```
/// use tcsim_trace::json::JsonWriter;
///
/// let mut w = JsonWriter::object();
/// w.field_str("name", "a\"b");
/// w.key("dims").u64s(&[16u32, 16, 8]);
/// w.key("ipc").begin_array();
/// w.f64(0.5);
/// w.f64(f64::NAN);
/// w.end_array();
/// assert_eq!(w.finish(), r#"{"name":"a\"b","dims":[16,16,8],"ipc":[0.500000,null]}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    buf: String,
    /// The innermost container has no value yet, or a key was just
    /// written: the next value takes no comma.
    first: bool,
    /// Closer of the root container [`JsonWriter::finish`] appends.
    close: &'static str,
}

impl JsonWriter {
    fn with_root(open: &str, close: &'static str) -> JsonWriter {
        JsonWriter {
            buf: String::from(open),
            first: true,
            close,
        }
    }

    /// Starts a document whose root is an object; `finish` closes it.
    pub fn object() -> JsonWriter {
        JsonWriter::with_root("{", "}")
    }

    /// Starts a document whose root is an array; `finish` closes it.
    pub fn array() -> JsonWriter {
        JsonWriter::with_root("[", "]")
    }

    /// Starts an empty document: the caller writes exactly one value of
    /// any kind, and `finish` returns it as is.
    pub fn value() -> JsonWriter {
        JsonWriter::with_root("", "")
    }

    fn sep(&mut self) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, name: &str) -> &mut JsonWriter {
        self.str(name);
        self.buf.push(':');
        self.first = true;
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) {
        self.sep();
        write!(self.buf, "{v}").expect("writing to a String cannot fail");
    }

    /// Writes a float with six decimals; NaN and infinities are not JSON
    /// numbers, so they become `null`.
    pub fn f64(&mut self, v: f64) {
        self.sep();
        if v.is_finite() {
            write!(self.buf, "{v:.6}").expect("writing to a String cannot fail");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, v: &str) {
        self.sep();
        self.buf.push('"');
        escape(&mut self.buf, v);
        self.buf.push('"');
    }

    /// Writes the `Display` rendering of `v` as a string, escaped as it is
    /// formatted (`format_args!` works without building a `String`).
    pub fn display(&mut self, v: impl fmt::Display) {
        self.sep();
        self.buf.push('"');
        write!(Escaped(&mut self.buf), "{v}").expect("writing to a String cannot fail");
        self.buf.push('"');
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.sep();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.sep();
        self.buf.push_str("null");
    }

    /// Writes a pre-serialized JSON value verbatim.
    pub fn raw(&mut self, json: &str) {
        self.sep();
        self.buf.push_str(json);
    }

    /// Writes an array of unsigned integers.
    pub fn u64s<T: Copy + Into<u64>>(&mut self, vs: &[T]) {
        self.begin_array();
        for &v in vs {
            self.u64(v.into());
        }
        self.end_array();
    }

    /// Opens a nested object.
    pub fn begin_object(&mut self) {
        self.sep();
        self.buf.push('{');
        self.first = true;
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.buf.push('}');
        self.first = false;
    }

    /// Opens a nested array.
    pub fn begin_array(&mut self) {
        self.sep();
        self.buf.push('[');
        self.first = true;
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.buf.push(']');
        self.first = false;
    }

    /// Adds an unsigned integer member.
    pub fn field_u64(&mut self, name: &str, v: u64) {
        self.key(name).u64(v);
    }

    /// Adds a float member (six decimals; non-finite values become `null`).
    pub fn field_f64(&mut self, name: &str, v: f64) {
        self.key(name).f64(v);
    }

    /// Adds a string member (escaped).
    pub fn field_str(&mut self, name: &str, v: &str) {
        self.key(name).str(v);
    }

    /// Adds a member whose value is pre-serialized JSON, verbatim.
    pub fn raw_field(&mut self, name: &str, json: &str) {
        self.key(name).raw(json);
    }

    /// Closes the root container and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push_str(self.close);
        self.buf
    }
}

/// A parsed JSON value.
///
/// Object members live in a [`BTreeMap`] plus a side list recording the
/// original key order, so serialization reproduces the input ordering
/// while lookups stay `O(log n)`.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its exact source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object: members keyed by name, plus the original key order.
    Object {
        /// Members by key.
        members: BTreeMap<String, JsonValue>,
        /// Keys in source order (serialization order).
        order: Vec<String>,
    },
}

impl JsonValue {
    /// Looks up an object member.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object { members, .. } => members.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then [`JsonValue::as_str`].
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// Convenience: `get(key)` then [`JsonValue::as_u64`].
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// Serializes the value back to compact JSON (object keys in source
    /// order, numbers verbatim) — the inverse of [`parse`] for any text
    /// with no inter-token whitespace, such as `JsonWriter` output.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::value();
        self.write(&mut w);
        w.finish()
    }

    fn write(&self, w: &mut JsonWriter) {
        match self {
            JsonValue::Null => w.null(),
            JsonValue::Bool(b) => w.bool(*b),
            JsonValue::Num(raw) => w.raw(raw),
            JsonValue::Str(s) => w.str(s),
            JsonValue::Array(items) => {
                w.begin_array();
                for item in items {
                    item.write(w);
                }
                w.end_array();
            }
            JsonValue::Object { members, order } => {
                w.begin_object();
                for key in order {
                    members[key].write(w.key(key));
                }
                w.end_object();
            }
        }
    }
}

/// A parse failure: message plus byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting [`parse`] accepts, counting the root as depth 1
/// (`[[]]` is 2 deep). The parser recurses once per level.
pub const MAX_DEPTH: usize = 256;

/// Parses one complete JSON value; trailing data is an error.
///
/// Duplicate object keys and lone UTF-16 surrogates in `\u` escapes are
/// errors too: neither has one meaning as a tree.
pub fn parse(s: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        s,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// Checks that `s` is one complete, well-formed JSON value: [`parse`],
/// with the tree dropped.
pub fn validate_json(s: &str) -> Result<(), JsonError> {
    parse(s).map(drop)
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.into(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => {
                let (mut members, mut order) = (BTreeMap::new(), Vec::new());
                self.items(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    let val = p.value()?;
                    if members.insert(key.clone(), val).is_some() {
                        return Err(p.err(&format!("duplicate key {key:?}")));
                    }
                    order.push(key);
                    Ok(())
                })?;
                Ok(JsonValue::Object { members, order })
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads the comma-separated items of the array or object whose
    /// opening bracket is next, through its `close` bracket, one `item`
    /// call each.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            self.depth += 1;
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                if self.peek() != Some(b',') {
                    break;
                }
                self.pos += 1;
            }
            self.depth -= 1;
        }
        self.expect(close)
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.s[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte. All three are ASCII, so the run ends on a character
            // boundary; each input byte is looked at once.
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.s[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.unescape()?);
                }
                Some(_) => return Err(self.err("raw control character")),
            }
        }
    }

    /// Decodes the escape after a backslash. A `\u` high surrogate must
    /// be followed by a `\u` low surrogate; the pair is one character.
    fn unescape(&mut self) -> Result<char, JsonError> {
        let Some(c) = self.peek() else {
            return Err(self.err("unterminated string"));
        };
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&hi) {
                    if !self.s[self.pos..].starts_with("\\u") {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                // Only a lone low surrogate is not a scalar value here.
                char::from_u32(cp).ok_or_else(|| self.err("lone low surrogate"))?
            }
            _ => return Err(self.err("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let v = self
            .s
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser| {
            let s = p.pos;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        Ok(JsonValue::Num(self.s[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape(&mut out, s);
        out
    }

    #[test]
    fn escape_covers_quotes_backslashes_and_control_chars() {
        for (raw, want) in [
            ("plain", "plain"),
            ("a\"b\\c", "a\\\"b\\\\c"),
            ("a\nb\tc\r", "a\\nb\\tc\\r"),
            // Control characters without a short escape use \uXXXX.
            ("\0", "\\u0000"),
            ("\x1f", "\\u001f"),
            ("\x01\x02", "\\u0001\\u0002"),
            ("\u{0}x\u{1f}", "\\u0000x\\u001f"),
            // Non-ASCII passes through untouched (JSON is UTF-8).
            ("gemm-α×β", "gemm-α×β"),
            ("π", "π"),
            ("", ""),
        ] {
            assert_eq!(escaped(raw), want, "escaping {raw:?}");
        }
    }

    #[test]
    fn display_escapes_as_it_formats() {
        let mut w = JsonWriter::array();
        w.display(format_args!("{} w{}", "te\"nsor", 3));
        w.display('\n');
        assert_eq!(w.finish(), r#"["te\"nsor w3","\n"]"#);
    }

    #[test]
    fn writer_separates_nested_values() {
        let mut w = JsonWriter::object();
        w.key("empty_a").u64s::<u64>(&[]);
        w.key("empty_o").begin_object();
        w.end_object();
        w.key("pairs").begin_array();
        for (a, b) in [(1u64, 2u64), (3, 4)] {
            w.u64s(&[a, b]);
        }
        w.end_array();
        w.key("none").null();
        w.raw_field("raw", "[true]");
        assert_eq!(
            w.finish(),
            r#"{"empty_a":[],"empty_o":{},"pairs":[[1,2],[3,4]],"none":null,"raw":[true]}"#
        );
        assert_eq!(JsonWriter::array().finish(), "[]");
        assert_eq!(JsonWriter::object().finish(), "{}");
    }

    #[test]
    fn field_str_with_control_chars_parses_back() {
        let mut w = JsonWriter::object();
        w.field_str("name", "weird\0name\x1fwith\nβ");
        w.field_str("empty", "");
        let json = w.finish();
        assert!(json.contains("\\u0000"));
        assert!(json.contains("\\u001f"));
        let v = parse(&json).expect("escaped output must parse");
        assert_eq!(v.str_field("name"), Some("weird\0name\x1fwith\nβ"));
        assert_eq!(v.to_json(), json);
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn numbers_keep_source_text() {
        // 2^63 + 1 is not representable in f64; the raw token survives.
        let v = parse("9223372036854775809").unwrap();
        assert_eq!(v.as_u64(), Some(9223372036854775809));
        assert_eq!(v.to_json(), "9223372036854775809");
    }

    #[test]
    fn objects_keep_key_order_and_round_trip() {
        let text = r#"{"zeta":1,"alpha":{"y":[1,2,3],"x":"s"},"mid":null}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_json(), text);
        assert_eq!(v.get("alpha").unwrap().str_field("x"), Some("s"));
        assert_eq!(v.u64_field("zeta"), Some(1));
    }

    #[test]
    fn escapes_round_trip() {
        let text = r#"{"k":"a\"b\\c\n\t\r\u0000\u001f"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.str_field("k"), Some("a\"b\\c\n\t\r\0\u{1f}"));
        assert_eq!(v.to_json(), text);
        // Surrogate pair.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // Escapes the writer never emits still decode.
        let v = parse(r#""\b\f\/\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{8}\u{c}/A"));
        assert_eq!(v.to_json(), r#""\u0008\u000c/A""#);
    }

    #[test]
    fn multi_byte_utf8_beside_escapes_round_trips() {
        // Multi-byte characters on both sides of every kind of run
        // boundary: an escape, a surrogate pair, the string's ends.
        let text = r#"["β","😀\n😀","\"β\"","a\\β\\","\u0001😀\u001f","β😀β","x\tβ"]"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_json(), text);
        let items = v.as_array().unwrap();
        assert_eq!(items[1].as_str(), Some("😀\n😀"));
        assert_eq!(items[4].as_str(), Some("\u{1}😀\u{1f}"));
        // Escaped forms decode to the same characters and re-serialize raw.
        let v = parse(r#""\u03b2\ud83d\ude00\n\u00e9é""#).unwrap();
        assert_eq!(v.as_str(), Some("β😀\néé"));
        assert_eq!(v.to_json(), "\"β😀\\néé\"");
    }

    #[test]
    fn a_string_of_several_mib_parses() {
        // One string value larger than any wire line: a mix of plain
        // runs, multi-byte characters and escapes, parsed in linear time.
        let unit = "kernel β 😀 \\\"quoted\\\" \\n ";
        let text = format!("{{\"kernel\":\"{}\"}}", unit.repeat(1 << 18));
        assert!(text.len() > 7 << 20);
        let v = parse(&text).unwrap();
        let s = v.str_field("kernel").unwrap();
        assert!(s.starts_with("kernel β 😀 \"quoted\" \n "));
        assert_eq!(s.matches('😀').count(), 1 << 18);
        assert_eq!(v.to_json(), text);
    }

    #[test]
    fn accepts_valid_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            "\"a\\u00ff\\n\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}",
            " { \"k\" : [ 1 , 2 ] } ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "nul",
            "01x",
            "1.",
            "1e",
            "\"\\x\"",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "{\"a\":1,\"a\":2}",
            "[1] 2",
            "{} {}",
            "\"unterminated",
            "\"a\u{0}b\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
            assert!(validate_json(bad).is_err(), "validated {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        parse(&nest(MAX_DEPTH)).unwrap();
        assert!(
            parse(&nest(MAX_DEPTH + 1)).is_err(),
            "depth limit must trip"
        );
        assert!(parse(&nest(1000)).is_err());
    }
}
