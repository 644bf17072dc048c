//! A dependency-free JSON *encoder* shared by everything in the workspace
//! that emits JSON: the flight recorder's chrome://tracing export, the
//! `dmac-serve` wire protocol, and the coordinator ↔ `dmac-workerd`
//! transport frames. (The matching strict decoder lives in
//! [`crate::jsonin`].)
//!
//! The API is a small builder, [`JsonObj`], that appends correctly-escaped
//! members to an internal buffer, and [`arr_of`] for arrays. Numbers are
//! rendered with Rust's shortest round-trip `f64` formatting, so a value
//! that survives a JSON round trip parses back bit-identical — which the
//! service layer relies on for `FetchMatrix`.

use std::fmt::Write as _;

/// Escape a string as a JSON string literal (including the quotes).
pub fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an `f64` as a JSON number (`NaN`/`Inf` become `null` — JSON has
/// no representation for them).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

/// Builder for a JSON object.
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Start an empty object.
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    fn key(&mut self, k: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(&escape(k));
        self.buf.push(':');
    }

    /// Add a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(&escape(v));
        self
    }

    /// Add an integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a float field.
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a pre-rendered JSON value verbatim (nested object/array).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Finish: the rendered `{...}`.
    pub fn build(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Collect an iterator of pre-rendered values into a JSON array.
pub fn arr_of(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_and_array_shapes() {
        let j = JsonObj::new()
            .str("name", "a\"b")
            .u64("n", 3)
            .f64("x", 0.5)
            .bool("ok", true)
            .raw("inner", &arr_of(["1".to_string(), "2".to_string()]))
            .build();
        assert_eq!(
            j,
            r#"{"name":"a\"b","n":3,"x":0.5,"ok":true,"inner":[1,2]}"#
        );
        assert_eq!(JsonObj::new().build(), "{}");
        assert_eq!(arr_of([]), "[]");
    }

    #[test]
    fn escaping_covers_controls() {
        assert_eq!(escape("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_round_trip_and_integers_keep_a_point() {
        assert_eq!(number(1.0), "1.0");
        assert_eq!(number(f64::NAN), "null");
        let v = 0.1 + 0.2;
        let parsed: f64 = number(v).parse().unwrap();
        assert_eq!(parsed.to_bits(), v.to_bits());
    }
}
