//! A minimal JSON reader for the workspace's hand-rolled JSON (the tuning
//! cache file, the serve wire protocol). The workspace builds
//! offline with no external crates, so — like the string escaper,
//! `perforad_obs::escape_json` — parsing is done by hand. Supports the full JSON
//! value grammar this repository emits: objects, arrays, double-quoted
//! strings with the standard escapes, `f64` numbers, booleans, null.

use std::fmt;

/// A parsed JSON value.
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

impl Value {
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

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
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
        Some(b'{') => parse_object(text, pos),
        Some(b'[') => parse_array(text, pos),
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

fn parse_object(text: &str, pos: &mut usize) -> Result<Value, ParseError> {
    let b = text.as_bytes();
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(text, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(text, pos)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(err(*pos, "expected `,` or `}` in object")),
        }
    }
}

fn parse_array(text: &str, pos: &mut usize) -> Result<Value, ParseError> {
    let b = text.as_bytes();
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]` in array")),
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
                        // Surrogate pairs are not emitted by this repo's
                        // writers; map lone surrogates to the replacement
                        // character rather than failing.
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

/// Escape a string into a quoted JSON literal:
/// [`perforad_obs::escape_json`] between quotes.
pub fn escape(s: &str) -> String {
    format!("\"{}\"", perforad_obs::escape_json(s))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn escape_round_trips_through_parse() {
        for s in ["plain", "a\"b\\c", "tab\there", "\u{1b}[0m", "unicode αβ"] {
            let v = parse(&escape(s)).unwrap();
            assert_eq!(v.as_str(), Some(s), "{s:?}");
        }
        // Braced `\u{1b}` Debug escapes are invalid JSON; the 4-hex form is.
        assert_eq!(escape("\u{1b}[0m"), "\"\\u001b[0m\"");
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
}
