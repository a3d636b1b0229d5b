//! Minimal JSON value type, serializer, and parser.
//!
//! The serve protocol is newline-delimited JSON, and this build
//! environment is offline — no `serde`. This module implements exactly
//! what the protocol needs and nothing more:
//!
//! * [`Json`] — a value tree whose objects preserve insertion order
//!   (a `Vec` of pairs), so serialization is deterministic: the CLI's
//!   `--json` output and the daemon's responses are *string*-identical
//!   when they carry the same answer, which CI exploits with a plain
//!   `diff`.
//! * [`Json::render`] — compact one-line serialization (no spaces, no
//!   trailing newline), safe to frame with `\n`.
//! * [`Json::parse`] — a strict recursive-descent parser with a depth
//!   limit (malformed or hostile input must produce an error, never a
//!   panic or a stack overflow — the daemon feeds it raw socket bytes).
//!
//! Numbers are `i128`: every quantity the protocol carries (vertex ids,
//! counts, exact density numerators/denominators) is an integer.
//! Floats are deliberately unsupported — exactness is the whole point
//! of this repository.

use std::fmt::Write as _;

/// Maximum nesting depth [`Json::parse`] accepts.
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the protocol never uses fractions or exponents).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; pairs in insertion order, keys unique.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer fitting `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|x| u64::try_from(x).ok())
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact one-line serialization.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => render_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value; the whole input must be consumed (modulo
    /// surrounding whitespace).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut p = Parser { text, bytes, at: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.at != bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(v)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
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
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid json at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.at,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("fractions and exponents are not supported"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("digits are ascii");
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| self.err("invalid integer"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // exactly four hex digits: `from_str_radix`
                            // alone would also take a sign (`\u+041`)
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err(self.err("invalid \\u escape"));
                            }
                            let code = hex.iter().fold(0u32, |acc, &b| {
                                acc * 16 + (b as char).to_digit(16).expect("hex digit")
                            });
                            // Surrogates are not paired — the protocol
                            // never emits them; reject rather than
                            // mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.at += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.at += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one slice of the (already valid)
                    // input. Those bytes are ASCII, so they never occur
                    // inside a multi-byte scalar and the run ends on a
                    // char boundary.
                    let run = self.bytes[self.at..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - self.at);
                    out.push_str(&self.text[self.at..self.at + run]);
                    self.at += run;
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn render_is_compact_and_ordered() {
        let v = Json::object([
            ("ok", Json::Bool(true)),
            ("k", Json::Int(5)),
            ("name", Json::Str("a\"b\\c\n".into())),
            ("items", Json::Array(vec![Json::Int(1), Json::Null])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"ok":true,"k":5,"name":"a\"b\\c\n","items":[1,null]}"#
        );
    }

    #[test]
    fn parse_round_trips_render() {
        let cases = [
            "null",
            "true",
            "-12",
            r#""he\"llo\u00e9""#,
            "[1,2,[3,{}]]",
            r#"{"a":1,"b":[true,null],"c":{"d":"e"}}"#,
        ];
        for c in cases {
            let v = Json::parse(c).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{c}");
        }
    }

    #[test]
    fn parse_accepts_whitespace_everywhere() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("b").unwrap().is_null());
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "tru",
            "1.5",
            "1e9",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\uZZZZ\"",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u04\"",
            "\"\\ud800\"",
            "[1] trailing",
            "nullnull",
            "{\"a\":1}{",
            "\u{7}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_without_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn integer_bounds() {
        assert_eq!(
            Json::parse(&i128::MAX.to_string()).unwrap().as_int(),
            Some(i128::MAX)
        );
        assert!(Json::parse("170141183460469231731687303715884105728").is_err()); // i128::MAX + 1
        assert_eq!(Json::parse("-7").unwrap().as_int(), Some(-7));
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"s":"x","n":3,"b":false,"arr":[],"nul":null}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert!(v.get("arr").unwrap().as_array().unwrap().is_empty());
        assert!(v.get("nul").unwrap().is_null());
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
    }

    /// One request line of non-ASCII text parses in time linear in its
    /// length (the string scan once re-validated the whole remaining
    /// input per character).
    #[test]
    fn long_non_ascii_string_parses_in_linear_time() {
        let text = "é中😀ж".repeat(1 << 17); // 1.25 MiB
        let line = Json::object([("q", Json::Str(text.clone()))]).render();
        assert!(line.len() > 1 << 20);
        let start = std::time::Instant::now();
        let parsed = Json::parse(&line).unwrap();
        let took = start.elapsed();
        assert_eq!(parsed.get("q").and_then(Json::as_str), Some(text.as_str()));
        assert!(took.as_secs_f64() < 5.0, "1 MiB string took {took:?}");
    }

    /// Characters that exercise every string path of the serializer
    /// and parser: escapes, control bytes, multi-byte scalars.
    const CHARS: [char; 12] = [
        'a', 'Z', '"', '\\', '/', '\n', '\u{1}', '\u{7f}', 'é', '中', '😀', ' ',
    ];

    fn string_from(w: u64) -> String {
        (0..w % 7)
            .map(|i| CHARS[((w >> (4 + 5 * i)) % CHARS.len() as u64) as usize])
            .collect()
    }

    /// Decodes a word script into a value tree: each word picks a node
    /// kind and its payload; arrays and objects take their children
    /// from the words that follow.
    fn tree(words: &mut std::slice::Iter<'_, u64>, depth: usize) -> Json {
        let Some(&w) = words.next() else {
            return Json::Null;
        };
        match w % if depth >= 4 { 4 } else { 6 } {
            0 => Json::Null,
            1 => Json::Bool(w & 8 != 0),
            2 => {
                let x = (w as i128) << (w % 64);
                Json::Int(if w & 16 != 0 { -x } else { x })
            }
            3 => Json::Str(string_from(w)),
            4 => Json::Array((0..w % 4).map(|_| tree(words, depth + 1)).collect()),
            _ => Json::Object(
                (0..w % 4)
                    .map(|i| {
                        (
                            format!("{i}{}", string_from(w >> 8)),
                            tree(words, depth + 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// Fragments hostile input is assembled from: structure, broken
    /// escapes, signs, partial literals, non-ASCII and control bytes.
    const FRAGMENTS: [&str; 24] = [
        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "+0", "12", "-", "e", ".", "null", "tru",
        " ", "é", "\u{1}", "a", "0041", "ffff", "d800", "😀",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `render` then `parse` is the identity on generated trees.
        #[test]
        fn parse_inverts_render(script in prop::collection::vec(any::<u64>(), 1..48)) {
            let v = tree(&mut script.iter(), 0);
            prop_assert_eq!(Json::parse(&v.render()), Ok(v));
        }

        /// No input makes `parse` panic; whatever it accepts renders
        /// back to an equal value.
        #[test]
        fn parse_never_panics(picks in prop::collection::vec(0..FRAGMENTS.len(), 0..40)) {
            let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            if let Ok(v) = Json::parse(&text) {
                prop_assert_eq!(Json::parse(&v.render()), Ok(v));
            }
        }
    }
}
