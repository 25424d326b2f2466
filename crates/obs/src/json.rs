//! The workspace's one JSON codec, written by hand (no external crates):
//! the [`Value`] every layer builds, one writer (`Value`'s `Display`) and
//! [`parse`] for what arrives from outside (wire frames, the cache file).
//!
//! Numbers print with Rust's `Display`, the shortest text that parses back
//! to the same bits, and a non-finite one as `null`. Integer accessors
//! refuse anything past 2⁵³ instead of saturating. `serve::proto`'s frame
//! writers print scalars and strings with [`push_num`] and [`push_str`].
//! The writer lays objects and arrays out through `ObjWriter` and `Arr`,
//! which the crate's exporters also use to stream a document too large
//! to build as a `Value` (a flight dump's trace) in the same bytes.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Key order is preserved; duplicate keys keep their first occurrence
    /// on lookup.
    Obj(Vec<(String, Value)>),
}

/// Every integer up to this magnitude has an exact `f64`.
const EXACT_INT: f64 = (1u64 << 53) as f64;

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (None on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// An integral number within ±2⁵³. Past that an `f64` is the rounding
    /// of many integers, so `1e300` is no integer a sender meant.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && n.abs() <= EXACT_INT => Some(*n as i64),
            _ => None,
        }
    }

    /// A non-negative [`Value::as_i64`] as any unsigned type it fits: a
    /// count, a size, a budget in milliseconds.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Option<T> {
        T::try_from(u64::try_from(self.as_i64()?).ok()?).ok()
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

macro_rules! value_from {
    ($($t:ty: $x:ident => $value:expr;)*) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $value
            }
        }
    )*};
}

// Counters, sizes and times are `u64`s and `usize`s; past 2⁵³ they round.
value_from! {
    bool: b => Value::Bool(b);
    &str: s => Value::Str(s.to_string());
    String: s => Value::Str(s);
    f64: n => Value::Num(n);
    i64: n => Value::Num(n as f64);
    u32: n => Value::Num(n.into());
    u64: n => Value::Num(n as f64);
    usize: n => Value::Num(n as f64);
}

/// Compact JSON: keys in order, numbers and strings as [`push_num`] and
/// [`push_str`] write them.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => write_num(f, *n),
            Value::Str(s) => write_str(f, s),
            Value::Arr(items) => fmt::Display::fmt(&Arr(items.iter()), f),
            Value::Obj(fields) => {
                let mut obj = ObjWriter::new(f)?;
                for (key, val) in fields {
                    obj.field(key, val)?;
                }
                obj.finish()
            }
        }
    }
}

/// Writes one object a field at a time, in the bytes [`Value`] prints:
/// for a document streamed to its reader instead of built (a flight
/// dump). `out` is a `String`, a `Formatter`, or any other `fmt::Write`.
pub(crate) struct ObjWriter<'w, W: fmt::Write> {
    out: &'w mut W,
    empty: bool,
}

impl<'w, W: fmt::Write> ObjWriter<'w, W> {
    /// Open the object.
    pub(crate) fn new(out: &'w mut W) -> Result<Self, fmt::Error> {
        out.write_char('{')?;
        Ok(ObjWriter { out, empty: true })
    }

    fn key(&mut self, key: &str) -> fmt::Result {
        if !std::mem::take(&mut self.empty) {
            self.out.write_char(',')?;
        }
        write_str(self.out, key)?;
        self.out.write_char(':')
    }

    /// A field whose value prints itself as JSON (a [`Value`], an
    /// [`Arr`], another streamed document).
    pub(crate) fn field(&mut self, key: &str, value: impl fmt::Display) -> fmt::Result {
        self.key(key)?;
        write!(self.out, "{value}")
    }

    /// A string field.
    pub(crate) fn str(&mut self, key: &str, s: &str) -> fmt::Result {
        self.key(key)?;
        write_str(self.out, s)
    }

    /// A number field, as [`push_num`] writes it.
    pub(crate) fn num(&mut self, key: &str, v: f64) -> fmt::Result {
        self.key(key)?;
        write_num(self.out, v)
    }

    /// Close the object.
    pub(crate) fn finish(self) -> fmt::Result {
        self.out.write_char('}')
    }
}

/// An array of the items an iterator yields, each printing itself as
/// JSON, in the bytes [`Value::Arr`] prints. The iterator is cloned for
/// each print and never collected.
pub(crate) struct Arr<I>(pub(crate) I);

impl<I> fmt::Display for Arr<I>
where
    I: Iterator + Clone,
    I::Item: fmt::Display,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('[')?;
        for (i, item) in self.0.clone().enumerate() {
            write!(f, "{}{item}", if i > 0 { "," } else { "" })?;
        }
        f.write_char(']')
    }
}

/// Append `v` as a JSON number, `null` when it is not finite. `out` is a
/// `String` or another writer that cannot fail (a frame buffer).
pub fn push_num(out: &mut impl fmt::Write, v: f64) {
    let _ = write_num(out, v);
}

/// Append `s` as a quoted JSON string literal, into a writer that cannot
/// fail, as [`push_num`].
pub fn push_str(out: &mut impl fmt::Write, s: &str) {
    let _ = write_str(out, s);
}

fn write_num(out: &mut impl fmt::Write, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{v}")
    } else {
        out.write_str("null")
    }
}

/// Quotes, backslashes and control characters are escaped, the last as
/// `\u00XX` (Rust's braced `\u{1b}` is not JSON).
fn write_str(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c))?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Why a document failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(text, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(v)
}

fn err(at: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        at,
        msg: msg.into(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{}`", c as char)))
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Value, ParseError> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_seq(text, pos, b'}', |pos| {
            skip_ws(b, pos);
            let key = parse_string(text, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            Ok((key, parse_value(text, pos)?))
        })
        .map(Value::Obj),
        Some(b'[') => parse_seq(text, pos, b']', |pos| parse_value(text, pos)).map(Value::Arr),
        Some(b'"') => Ok(Value::Str(parse_string(text, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, format!("expected `{lit}`")))
    }
}

/// The comma-separated items of an array or object, from its opening
/// byte (at `pos`) to `close`.
fn parse_seq<T>(
    text: &str,
    pos: &mut usize,
    close: u8,
    mut item: impl FnMut(&mut usize) -> Result<T, ParseError>,
) -> Result<Vec<T>, ParseError> {
    let b = text.as_bytes();
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(items);
    }
    loop {
        items.push(item(pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(items);
            }
            _ => return Err(err(*pos, format!("expected `,` or `{}`", close as char))),
        }
    }
}

/// Length of the run of plain string bytes at the head of `b`: up to the
/// first `"` or `\`, or all of `b`. Eight bytes a step — XOR turns the byte
/// sought into zero, and `(v - 0x01…) & !v & 0x80…` has its lowest set bit
/// in the first zero byte of `v` (a borrow only travels upward, so with a
/// little-endian load nothing before the first hit is flagged).
fn plain_run(b: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let zero_bytes = |v: u64| v.wrapping_sub(ONES) & !v & (ONES << 7);
    let (quotes, escapes) = (ONES * u64::from(b'"'), ONES * u64::from(b'\\'));
    let mut at = 0;
    for word in b.chunks_exact(8) {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let hits = zero_bytes(w ^ quotes) | zero_bytes(w ^ escapes);
        if hits != 0 {
            return at + hits.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    let tail = &b[at..];
    let end = tail.iter().position(|&c| c == b'"' || c == b'\\');
    at + end.unwrap_or(tail.len())
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, ParseError> {
    let b = text.as_bytes();
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not emitted by this writer;
                        // map lone surrogates to the replacement character
                        // rather than failing.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole run up to the next quote or escape in
                // one copy — a serve frame's hex float array is one
                // 16-bytes-per-value run. It is a slice of the `&str`: it
                // starts after an ASCII byte and ends before one (or at the
                // end), on character boundaries, so no UTF-8 is re-checked.
                let run = plain_run(&b[*pos..]);
                let chunk = text
                    .get(*pos..*pos + run)
                    .ok_or_else(|| err(*pos, "invalid UTF-8"))?;
                out.push_str(chunk);
                *pos += run;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err(start, "invalid number"))?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| err(start, format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::xorshift64;

    #[test]
    fn parses_the_shapes_the_repo_emits() {
        let doc = r#"{"bench":"exec_lowering","threads":4,"cases":[
            {"name":"wave3d","points":97336,"series":[
                {"label":"rows_serial","seconds":1.25e-3}],
             "rows_speedup_serial":4.8}]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("exec_lowering"));
        assert_eq!(v.get("threads").unwrap().as_i64(), Some(4));
        let cases = v.get("cases").unwrap().as_array().unwrap();
        let series = cases[0].get("series").unwrap().as_array().unwrap();
        assert_eq!(
            series[0].get("label").unwrap().as_str(),
            Some("rows_serial")
        );
        assert!((series[0].get("seconds").unwrap().as_f64().unwrap() - 1.25e-3).abs() < 1e-12);
    }

    /// The scan [`plain_run`] replaced: one byte at a time.
    fn reference_plain_run(b: &[u8]) -> usize {
        let end = b.iter().position(|&c| c == b'"' || c == b'\\');
        end.unwrap_or(b.len())
    }

    #[test]
    fn plain_run_stops_where_the_byte_scan_does_at_every_offset_and_alignment() {
        // One delimiter (or a two-byte character, which is none) after
        // `offset` plain bytes, `align` bytes into an eight-byte word.
        for special in ["\"", "\\", "é", "€", ""] {
            for offset in 0..=24 {
                for align in 0..8 {
                    let text = format!(
                        "{}{}{special}{}\"tail\\",
                        "\"".repeat(align),
                        "0123456789abcdefghijklmnopqrstuvwxyz"
                            .get(..offset)
                            .unwrap(),
                        "x".repeat(offset % 5),
                    );
                    let run = &text.as_bytes()[align..];
                    let (got, want) = (plain_run(run), reference_plain_run(run));
                    assert_eq!(got, want, "{special:?} at {offset}, alignment {align}");
                    assert!(text.is_char_boundary(align + got), "sliceable as a `&str`");
                }
            }
        }
        assert_eq!(plain_run(b""), 0);
        assert_eq!(plain_run(&[0x80; 19]), 19, "high bytes are plain");
        // So are a delimiter's neighbours, and a delimiter with its top bit set.
        assert_eq!(plain_run(&[0x21, 0x23, 0x5b, 0x5d, 0xa2, 0xdc, b'"']), 6);
    }

    #[test]
    fn strings_with_multibyte_characters_and_escapes_parse_at_every_offset() {
        for offset in 0..=24 {
            let plain = "0123456789abcdefghijklmnopqrstuvwxyz"
                .get(..offset)
                .unwrap();
            for (written, read) in [("é", "é"), ("\\\"", "\""), ("\\\\", "\\"), ("\\u00e9", "é")]
            {
                let doc = format!("{{\"k\":\"{plain}{written}{plain}\"}}");
                let v = parse(&doc).unwrap();
                let want = format!("{plain}{read}{plain}");
                assert_eq!(v.get("k").unwrap().as_str(), Some(want.as_str()), "{doc}");
            }
        }
        // A `\u` escape cut short by a multi-byte character is an error.
        assert!(parse("\"\\u00é\"").is_err());
    }

    #[test]
    fn literals_bools_and_null() {
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("[1,2,3]").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
        assert_eq!(parse("-1.5e2").unwrap().as_f64(), Some(-150.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "1 2",
            "\"unterminated",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn integer_accessors_refuse_what_an_f64_cannot_hold_exactly() {
        let num = |text: &str| parse(text).unwrap();
        assert_eq!(num("9007199254740992").as_i64(), Some(1 << 53));
        assert_eq!(num("-9007199254740992").as_i64(), Some(-(1 << 53)));
        for past in ["9007199254740994", "1e300", "-1e300", "1e999", "2.5"] {
            assert_eq!(num(past).as_i64(), None, "{past}");
            assert_eq!(num(past).as_uint::<u64>(), None, "{past}");
        }
        assert_eq!(num("-1").as_uint::<usize>(), None);
        assert_eq!(num("300").as_uint::<u8>(), None, "past the target type");
        assert_eq!(num("-0").as_uint::<usize>(), Some(0));
    }

    /// Quotes, backslashes, control characters, two- and three-byte
    /// characters, and plain runs longer than the eight-byte scan's word.
    fn random_string(state: &mut u64) -> String {
        let mut s = String::new();
        for _ in 0..xorshift64(state) % 7 {
            let r = xorshift64(state);
            match r % 6 {
                0 => s.push('"'),
                1 => s.push('\\'),
                2 => s.push(char::from((r >> 8) as u8 % 0x20)),
                3 => s.push_str(["é", "€", "\u{7f}"][(r >> 8) as usize % 3]),
                _ => s.push_str(&"plain text, 0123456789"[(r >> 8) as usize % 22..]),
            }
        }
        s
    }

    /// Numbers a careless writer or reader loses: signed zeros,
    /// subnormals, both ends of the range, integers up to 2⁵³, and any
    /// other finite bit pattern.
    fn random_value(state: &mut u64, depth: u32) -> Value {
        const AWKWARD: [f64; 10] = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            7e-309,
            1e300,
            -1e300,
            f64::MAX,
            EXACT_INT,
            -EXACT_INT,
        ];
        let r = xorshift64(state);
        let width = (r >> 8) % 5;
        let bits = f64::from_bits(xorshift64(state));
        match r % if depth == 0 { 4 } else { 6 } {
            0 if r & 1 << 20 != 0 => Value::Null,
            0 => Value::Bool(r & 1 << 21 != 0),
            1 => Value::Num(AWKWARD[(r >> 12) as usize % AWKWARD.len()]),
            2 if r & 1 << 20 != 0 => Value::Num((r >> 11) as f64),
            2 => Value::Num(Some(bits).filter(|x| x.is_finite()).unwrap_or(0.1)),
            3 => Value::Str(random_string(state)),
            4 => Value::Arr((0..width).map(|_| random_value(state, depth - 1)).collect()),
            _ => Value::Obj(
                (0..width)
                    .map(|_| (random_string(state), random_value(state, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn every_value_round_trips_through_its_own_text() {
        let every_control: String = (0..0x20_u8).map(char::from).collect();
        let mut state = 0x5EED_0050_u64;
        let trees = (0..3000).map(|_| random_value(&mut state, 4));
        for v in trees.chain([Value::Str(every_control)]) {
            let text = v.to_string();
            let back = parse(&text);
            assert_eq!(back, Ok(v), "{text}");
            // `==` has -0.0 equal to 0.0; the text keeps the sign.
            assert_eq!(back.unwrap().to_string(), text);
        }
        // Braced `\u{1b}` Debug escapes are invalid JSON; the 4-hex form is.
        assert_eq!(Value::from("\u{1b}[0m").to_string(), "\"\\u001b[0m\"");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Num(x).to_string(), "null");
            assert_eq!(Value::obj([("x", x.into())]).to_string(), "{\"x\":null}");
        }
    }
}
