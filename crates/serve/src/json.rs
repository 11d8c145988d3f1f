//! Minimal JSON parsing for request bodies — the workspace is
//! dependency-free, so the few shapes the server accepts are parsed by
//! a small total recursive-descent parser rather than a serde stack.
//!
//! Accepts standard JSON with arbitrary nesting (bounded), rejects
//! trailing garbage, and never panics on malformed input.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that parsed exactly as a 64-bit integer.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. BTreeMap: deterministic iteration, duplicate keys
    /// keep the last value (standard JSON behaviour).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object's field, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse one JSON document; the whole input must be consumed (modulo
/// whitespace). Errors carry a byte offset for debuggability.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        at: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.at));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at offset {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.at += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            self.depth -= 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            out.insert(key, v);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
        self.depth -= 1;
        Ok(Value::Obj(out))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            self.depth -= 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
        self.depth -= 1;
        Ok(Value::Arr(out))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs: a high surrogate must be
                        // followed by an escaped low surrogate.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("lone high surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined =
                                0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        out.push(c.ok_or_else(|| self.err("invalid code point"))?);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // Re-borrow multi-byte UTF-8 from the source slice.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.at - 1;
                        let len = utf8_len(b).ok_or_else(|| self.err("invalid utf-8"))?;
                        let end = start + len;
                        let chunk = self
                            .bytes
                            .get(start..end)
                            .and_then(|s| std::str::from_utf8(s).ok())
                            .ok_or_else(|| self.err("invalid utf-8"))?;
                        out.push_str(chunk);
                        self.at = end;
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .expect("number bytes are ascii");
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

/// String escaping for the response side: the workspace's one
/// implementation, reachable here as it always was.
pub use bellwether_obs::json::escape_into;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_predict_request_shape() {
        let v = parse(r#"{"method":"cube","ids":[1, -2, 30]}"#).unwrap();
        assert_eq!(v.get("method").and_then(Value::as_str), Some("cube"));
        let ids: Vec<i64> = v
            .get("ids")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|x| x.as_i64().unwrap())
            .collect();
        assert_eq!(ids, vec![1, -2, 30]);
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-17").unwrap(), Value::Int(-17));
        assert_eq!(parse("2.5e3").unwrap(), Value::Num(2500.0));
        assert_eq!(
            parse(r#""a\"b\u00e9\n""#).unwrap(),
            Value::Str("a\"bé\n".into())
        );
        let v = parse(r#"{"a":{"b":[{"c":1}]}}"#).unwrap();
        assert!(v.get("a").is_some());
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Value::Str("😀".into())
        );
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "", "{", "[", "\"", "{\"a\"}", "{\"a\":}", "[1,]", "[1 2]", "tru", "01x",
            "{\"a\":1}x", "\u{0000}", "[\"\\q\"]", "1e", "--1", "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        // Deep nesting is bounded, not a stack overflow.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        // Bodies come off the network: every truncation and flipped bit
        // of a valid one that is still UTF-8 is an error or a value.
        let valid = r#"{"method":"cube","ids":[1,-2,3.5e1],"t":[true,null],"s":"a\"\u00e9\ud83d\ude00é😀"}"#;
        let mut parsed = usize::from(parse(valid).is_ok());
        bellwether_prop::sweep(valid.as_bytes(), |raw, _| {
            parsed += std::str::from_utf8(raw).map_or(0, |text| usize::from(parse(text).is_ok()));
        });
        assert!(parsed > 1, "the clean body and some flips (a digit, a letter) parse");
    }

    #[test]
    fn escape_round_trips() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\n\u{1}");
        let back = parse(&format!("\"{out}\"")).unwrap();
        assert_eq!(back, Value::Str("a\"b\\c\n\u{1}".into()));
    }
}
