//! Property-based tests of the CSV reader and of `Value`'s ordering.

use bellwether_prop::{check, Rng};
use bellwether_table::csv::read_csv;
use bellwether_table::{DataType, Schema, Value};
use std::io::Cursor;

/// One row as CSV fields: the empty field is NULL, a field holding a
/// comma or a quote is quoted with its quotes doubled.
fn csv_line(row: &[Value]) -> String {
    let field = |v: &Value| match v {
        Value::Null => String::new(),
        Value::Str(s) if s.contains([',', '"']) => format!("\"{}\"", s.replace('"', "\"\"")),
        other => other.to_string(),
    };
    row.iter().map(field).collect::<Vec<_>>().join(",")
}

fn orders(rng: &mut Rng) -> Vec<Vec<Value>> {
    let maybe = |rng: &mut Rng, v: Value| if rng.flip(0.1) { Value::Null } else { v };
    rng.vec_of(0, 80, |r| {
        let item = Value::Int(r.i64_in(-20, 20));
        let state = Value::str(*r.choice(&["wi", "m,d", "c\"a\"", "\"", ",,"]));
        let profit = Value::Float(r.f64_in(-1000.0, 1000.0));
        vec![maybe(r, item), maybe(r, state), maybe(r, profit)]
    })
}

/// Rows formatted as CSV text read back as the same values, NULLs and
/// quoted commas and quotes included; a damaged field is an error naming
/// its line.
#[test]
fn csv_round_trip() {
    check("csv_round_trip", 64, |rng| {
        let schema = Schema::from_pairs(&[
            ("item", DataType::Int),
            ("state", DataType::Str),
            ("profit", DataType::Float),
        ])
        .unwrap();
        let rows = orders(rng);
        let mut lines: Vec<String> = vec!["item,state,profit".into()];
        lines.extend(rows.iter().map(|row| csv_line(row)));
        let back = read_csv(schema.clone(), Cursor::new(lines.join("\n"))).unwrap();
        assert_eq!(back.num_rows(), rows.len());
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(&back.row(r), row, "row {r}");
        }

        if rows.is_empty() {
            return;
        }
        let bad = rng.usize_in(0, rows.len());
        lines[bad + 1] = format!("x{},wi,1", lines[bad + 1].len());
        let err = read_csv(schema, Cursor::new(lines.join("\n"))).unwrap_err();
        assert!(
            err.to_string().contains(&format!("line {}:", bad + 2)),
            "{err}"
        );
    });
}

#[test]
fn value_ordering_total() {
    check("value_ordering_total", 128, |rng| {
        let a = Value::Float(rng.f64_in(-1e6, 1e6));
        let b = Value::Float(rng.f64_in(-1e6, 1e6));
        let c = Value::Float(rng.f64_in(-1e6, 1e6));
        // transitivity spot check
        if a <= b && b <= c {
            assert!(a <= c);
        }
    });
}
