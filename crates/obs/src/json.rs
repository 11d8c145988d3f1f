//! JSON text helpers shared by every hand-rolled emitter in the
//! workspace (the build is offline, so there is no serde): the metrics
//! snapshot here, the bench and figure reports, the serve responses.

use std::fmt::Write as _;

/// Append `s` to `out` escaped for a JSON string literal (without the
/// surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// [`escape_into`] a fresh `String`, for `format!` call sites.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `v` to `out` as a JSON number. JSON has no NaN/Inf: they
/// become `null`. `{}` prints integral floats without a decimal point
/// (and never in exponent form, so `2e15` is `2000000000000000`); one is
/// kept so consumers parse the field back as a float. Allocates nothing
/// beyond `out`'s own growth.
pub fn number_into(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    write!(out, "{v}").expect("writing to a String cannot fail");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// [`number_into`] a fresh `String`.
pub fn number(v: f64) -> String {
    let mut out = String::new();
    number_into(&mut out, v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_characters_and_keeps_numbers_floats() {
        assert_eq!(escape("a\"b\\c\n\r\t\u{1}é"), "a\\\"b\\\\c\\n\\r\\t\\u0001é");
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(-0.25), "-0.25");
        assert_eq!(number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn number_into_appends_what_number_returns() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for v in [0.0, -0.0, 42.0, 2e15, 1e300, 0.1, nan, inf, -inf] {
            let mut out = String::from("[");
            number_into(&mut out, v);
            assert_eq!(out, format!("[{}", number(v)), "{v}");
        }
        assert_eq!(number(-0.0), "-0.0");
        assert_eq!(number(42.0), "42.0");
        assert_eq!(number(2e15), "2000000000000000.0");
        assert_eq!(number(f64::NAN), "null");
    }
}
