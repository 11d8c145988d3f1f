//! Reading and re-writing the benchmark's own JSON through the strict
//! parser the server uses for request bodies.

pub use bellwether_serve::json::{parse, Value};
use std::fmt::Write as _;

/// A number of either spelling as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

pub fn nums(v: &Value) -> Vec<f64> {
    v.as_arr().into_iter().flatten().filter_map(num).collect()
}

pub fn entries(v: &Value) -> impl Iterator<Item = (&String, &Value)> {
    match v {
        Value::Obj(m) => Some(m.iter()),
        _ => None,
    }
    .into_iter()
    .flatten()
}

/// Serialize a parsed value back to compact JSON.
pub fn write(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Str(s) => {
            let _ = write!(out, "\"{}\"", crate::run::escape(s));
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(out, item);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":", crate::run::escape(k));
                write(out, item);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_inverts_parse() {
        let text = r#"{"a":[1,2.5,null,true],"b":{"c":"x\"y\\z"},"d":-3}"#;
        let v = parse(text).unwrap();
        let mut out = String::new();
        write(&mut out, &v);
        assert_eq!(out, text);
        assert_eq!(parse(&out).unwrap(), v);
        assert_eq!(nums(v.get("a").unwrap()), [1.0, 2.5]);
    }
}
