//! A minimal JSON value: parser and serializer for the wire protocol.
//!
//! The build environment is offline, so the protocol carries its own JSON
//! implementation instead of depending on serde. It covers exactly what
//! the protocol needs: objects, arrays, strings (full escape handling,
//! including surrogate pairs), i64 integers, f64 floats, booleans and
//! null. Objects preserve insertion order (they are association lists, not
//! hash maps — frames are small and ordered output is nice to read).
//!
//! Result rows do not use it: they travel as binary chunk frames (see
//! [`crate::protocol`]).

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional part or exponent, in i64 range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload (floats with integral values do not count).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as f64 (ints widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parse one JSON document, requiring it to span the whole input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let value = p.value(0)?;
        p.end()?;
        Ok(value)
    }

    /// Append this value's JSON text to `out`: what `Display` renders,
    /// without the formatter.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => write_i64(out, *v),
            Json::Float(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        self.write_to(&mut text);
        f.write_str(&text)
    }
}

/// Append `s` as a JSON string literal.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Every byte that needs escaping is ASCII, so the runs between them
    // are whole code points and go out in one copy each.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `v` in decimal, as `{v}` renders it.
fn write_i64(out: &mut String, v: i64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut n = v.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// Append `v` as a JSON number, or `null` when it is not finite.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is shortest-roundtrip and always keeps a `.0` on integral
        // values, so floats re-parse as floats.
        write!(out, "{v:?}").expect("writing to a String cannot fail");
    } else {
        // JSON has no NaN/Infinity; degrade to null.
        out.push_str("null");
    }
}

/// Nesting depth cap: protocol frames are flat, so anything deep is abuse.
const MAX_DEPTH: usize = 32;

/// A pull parser over one JSON text: [`Json::parse`] builds a tree with it.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser { text, pos: 0 }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes().get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    /// Require that only whitespace is left.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, expect: u8) -> Result<(), String> {
        if self.peek() == Some(expect) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                expect as char, self.pos
            ))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at offset {}", self.pos))
        }
    }

    /// One value of any kind, as a tree. `depth` counts the containers
    /// around it.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.members(|p, key| {
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(|p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected `{}` at offset {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    /// An object: `member` parses each value, given its key.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    /// An array: `item` parses each element.
    fn elements(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        self.string_into(&mut out)?;
        Ok(out)
    }

    /// A string literal, unescaped and appended to `out`.
    fn string_into(&mut self, out: &mut String) -> Result<(), String> {
        self.eat(b'"')?;
        loop {
            // The text is a `str` and both stop bytes are ASCII, so the run
            // before them is whole code points.
            let run = self.bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes()[self.pos - 1] == b'"' {
                return Ok(());
            }
            let esc = self
                .peek()
                .ok_or_else(|| "unterminated escape".to_string())?;
            self.pos += 1;
            match esc {
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
                    let c = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: require \uXXXX for the low half.
                        self.eat_lit("\\u")?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err("bad low surrogate".into());
                        }
                        let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(cp).ok_or("bad surrogate pair")?
                    } else {
                        char::from_u32(hi).ok_or("bare surrogate")?
                    };
                    out.push(c);
                }
                other => return Err(format!("bad escape `\\{}`", other as char)),
            }
        }
    }

    /// Exactly four hex digits (no sign, unlike `from_str_radix`).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let mut v = 0;
        for &d in digits {
            let nibble = (d as char)
                .to_digit(16)
                .ok_or_else(|| "bad \\u escape".to_string())?;
            v = (v << 4) | nibble;
        }
        self.pos += 4;
        Ok(v)
    }

    /// A number: an integer when it has no fraction or exponent and fits
    /// an i64, else a float.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !fractional {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number `{text}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic_values() {
        let cases = [
            r#"null"#,
            r#"true"#,
            r#"-42"#,
            r#"3.5"#,
            r#""hi \"there\"\n""#,
            r#"[1,2.5,"x",null,true]"#,
            r#"{"a":1,"b":{"c":[]},"d":"ü"}"#,
        ];
        for case in cases {
            let v = Json::parse(case).unwrap();
            let rendered = v.to_string();
            assert_eq!(Json::parse(&rendered).unwrap(), v, "case `{case}`");
        }
    }

    #[test]
    fn ints_and_floats_stay_distinct() {
        assert_eq!(Json::parse("7").unwrap(), Json::Int(7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::Float(7.0));
        // Floats serialize with a decimal point, so they re-parse as floats.
        assert_eq!(Json::Float(7.0).to_string(), "7.0");
        // Shortest-roundtrip float formatting is exact.
        let f = 0.1f64 + 0.2;
        let back = Json::parse(&Json::Float(f).to_string()).unwrap();
        assert_eq!(back, Json::Float(f));
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""Aé😀\t""#).unwrap();
        assert_eq!(v, Json::Str("Aé😀\t".into()));
        let control = Json::Str("\u{1}".into()).to_string();
        assert_eq!(control, "\"\\u0001\"");
        assert_eq!(Json::parse(&control).unwrap(), Json::Str("\u{1}".into()));
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#""\ud800""#).is_err(), "bare surrogate");
        assert!(Json::parse(r#""\u+041""#).is_err(), "signed \\u escape");
        assert!(Json::parse(r#""\u004""#).is_err(), "short \\u escape");
        let deep = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(Json::parse(&deep).is_err(), "depth cap");
    }

    #[test]
    fn object_lookup_helpers() {
        let v = Json::parse(r#"{"cmd":"query","sql":"select 1","n":3}"#).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("query"));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(3));
        assert!(v.get("missing").is_none());
    }
}
