//! A dependency-free JSON *decoder*, and the renderer of what it decodes.
//!
//! The builders that write JSON from scratch live in [`crate::json`]
//! (shared with the bench bins and the flight recorder); a parsed
//! [`Json`] renders through its `Display`, which is how a document
//! travels on inside a message ([`crate::codec`]) or is printed. The parser
//! is a plain recursive-descent over the byte slice, strict enough for a
//! protocol (no trailing garbage, no unescaped controls, no number past
//! `f64`) and exact on numbers: `f64` values rendered with Rust's
//! shortest round-trip formatting parse back bit-identical.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::escape;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integers up to 2^53 survive exactly; protocols that
    /// need full `u64`/`f64` bit patterns ship them as fixed-width hex
    /// strings instead (see [`crate::transport::proto`]).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Json>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable reason.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// How deeply arrays and objects may nest. Every protocol document in the
/// workspace nests a handful of levels; the parser recurses once per
/// level, so an unbounded depth lets a frame of `[` overflow the stack.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error; nesting past [`MAX_DEPTH`] is an
    /// error).
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let bytes = src.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }

    /// Member of an object, if this is an object and the key exists.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Number payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// Boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// An object's members in key order; none for anything else.
    pub fn members(&self) -> impl Iterator<Item = (&String, &Json)> {
        let map = match self {
            Json::Obj(m) => Some(m),
            _ => None,
        };
        map.into_iter().flatten()
    }
}

/// An object of these members.
impl FromIterator<(String, Json)> for Json {
    fn from_iter<I: IntoIterator<Item = (String, Json)>>(members: I) -> Json {
        Json::Obj(members.into_iter().collect())
    }
}

/// The document as JSON text: members in key order, no whitespace, an
/// integral number without a fraction (a number past `f64`, which no parse
/// makes, as `null`). It parses back to an equal value.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let list = |f: &mut fmt::Formatter<'_>, i: usize| f.write_str(if i > 0 { "," } else { "" });
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => f.write_str(&escape(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    list(f, i)?;
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    list(f, i)?;
                    write!(f, "{}:{v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nested too deep"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut out = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(":")?;
            self.ws();
            let val = self.value()?;
            out.insert(key, val);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.eat("\\u")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Multi-byte UTF-8: the source is a &str, so the bytes
                    // are valid — copy the whole scalar value through.
                    let start = self.pos - 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("bad number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "s": "x\ny"}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}0{}", "[{\"a\":".repeat(n), "}]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH / 2)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH / 2 + 1)).unwrap_err();
        assert!(err.msg.contains("nested too deep"), "{err}");
        // Far past the bound, as a frame of brackets would be: no overflow.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn round_trips_encoder_output_bit_exactly() {
        let v = 0.1f64 + 0.2;
        let doc = crate::json::JsonObj::new().f64("x", v).build();
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(
            parsed.get("x").unwrap().as_f64().unwrap().to_bits(),
            v.to_bits()
        );
    }

    /// The renderer writes what the parser reads back equal: members in
    /// key order, integral numbers without a fraction, escapes as the
    /// encoder writes them. A number past `f64` does not parse.
    #[test]
    fn renders_what_it_parses() {
        let src = r#"{"z": [1, -0.5, 3e2, true, null], "a": {"q": "x\"y\n\u0001"}, "e": []}"#;
        let doc = Json::parse(src).unwrap();
        let text = doc.to_string();
        assert_eq!(
            text,
            r#"{"a":{"q":"x\"y\n\u0001"},"e":[],"z":[1,-0.5,300,true,null]}"#
        );
        assert_eq!(Json::parse(&text), Ok(doc));
        let v = 0.1f64 + 0.2;
        let back = Json::parse(&Json::Num(v).to_string()).unwrap();
        assert_eq!(back.as_f64().map(f64::to_bits), Some(v.to_bits()));
        for big in ["1e999", "-1e400"] {
            assert!(Json::parse(big).unwrap_err().msg.contains("out of range"));
        }
    }

    #[test]
    fn unicode_escapes_and_utf8_pass_through() {
        let v = Json::parse(r#""café 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("café 😀"));
        let v = Json::parse("\"\\u00e9 \\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("é 😀"));
        assert!(Json::parse("\"\\ud83d x\"").is_err());
    }
}
