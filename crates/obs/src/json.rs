//! JSON text helpers shared by every hand-rolled emitter in the
//! workspace (the build is offline, so there is no serde): the metrics
//! snapshot here, the bench and figure reports, the serve responses.

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

/// Format an `f64` as a JSON number. JSON has no NaN/Inf: they become
/// `null`. `{}` prints integral floats without a decimal point; one is
/// kept so consumers parse the field back as a float.
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let mut s = format!("{v}");
    if !s.contains(['.', 'e', 'E']) {
        s.push_str(".0");
    }
    s
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
}
