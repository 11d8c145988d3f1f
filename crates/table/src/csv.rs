//! Minimal CSV import: the adoption path for real exported data
//! (`StarDatabase::from_csv` and the `bellwether` CLI read through it).
//!
//! A quoted field may hold commas and doubled quotes (`""`); the empty
//! field is NULL.

use crate::error::{Result, TableError};
use crate::schema::Schema;
use crate::table::{Table, TableBuilder};
use crate::value::{DataType, Value};
use std::io::BufRead;

/// Read CSV with a header row into a table with the given schema.
/// The header must match the schema's column names exactly, in order.
pub fn read_csv<R: BufRead>(schema: Schema, input: R) -> Result<Table> {
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| TableError::Csv("missing header".into()))?
        .map_err(TableError::from)?;
    let names = parse_line(&header)?;
    let expected = schema.names();
    if names.len() != expected.len()
        || names.iter().zip(&expected).any(|(a, b)| a != *b)
    {
        return Err(TableError::Csv(format!(
            "header {names:?} does not match schema {expected:?}"
        )));
    }

    let mut builder = TableBuilder::new(schema.clone());
    for (lineno, line) in lines.enumerate() {
        let line = line.map_err(TableError::from)?;
        if line.is_empty() {
            continue;
        }
        let cells = parse_line(&line)?;
        if cells.len() != schema.len() {
            return Err(TableError::Csv(format!(
                "line {}: expected {} fields, got {}",
                lineno + 2,
                schema.len(),
                cells.len()
            )));
        }
        let row: Vec<Value> = cells
            .into_iter()
            .zip(schema.fields())
            .map(|(cell, field)| parse_cell(&cell, field.dtype, lineno + 2))
            .collect::<Result<Vec<_>>>()?;
        builder.push_row(row)?;
    }
    builder.finish()
}

fn parse_cell(cell: &str, dtype: DataType, lineno: usize) -> Result<Value> {
    if cell.is_empty() {
        return Ok(Value::Null);
    }
    match dtype {
        DataType::Int => cell
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| TableError::Csv(format!("line {lineno}: bad int {cell:?}: {e}"))),
        DataType::Float => cell
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|e| TableError::Csv(format!("line {lineno}: bad float {cell:?}: {e}"))),
        DataType::Str => Ok(Value::from(cell)),
    }
}

/// Split one CSV line into unescaped cells.
fn parse_line(line: &str) -> Result<Vec<String>> {
    let mut cells = Vec::new();
    let mut cell = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cell.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => cell.push(other),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => cells.push(std::mem::take(&mut cell)),
                other => cell.push(other),
            }
        }
    }
    if in_quotes {
        return Err(TableError::Csv(format!("unterminated quote in {line:?}")));
    }
    cells.push(cell);
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("profit", DataType::Float),
        ])
        .unwrap();
        let csv = "id,name,profit\n1,plain,1.5\n2,\"with,comma \"\"q\"\"\",-2\n";
        let back = read_csv(schema, Cursor::new(csv)).unwrap();
        assert_eq!(back.num_rows(), 2);
        assert_eq!(back.value(0, "name").unwrap(), Value::str("plain"));
        assert_eq!(back.value(1, "name").unwrap(), Value::str("with,comma \"q\""));
        assert_eq!(back.value(1, "profit").unwrap(), Value::Float(-2.0));
    }

    #[test]
    fn null_round_trips_as_empty() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let csv = "x\n\n1\n"; // blank line skipped? No: blank line IS skipped
        let t = read_csv(schema.clone(), Cursor::new(csv)).unwrap();
        assert_eq!(t.num_rows(), 1); // empty lines skipped entirely
        let csv2 = "x\n1\n";
        let t2 = read_csv(schema, Cursor::new(csv2)).unwrap();
        assert_eq!(t2.value(0, "x").unwrap(), Value::Int(1));
    }

    #[test]
    fn header_mismatch_rejected() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        assert!(read_csv(schema, Cursor::new("y\n1\n")).is_err());
    }

    #[test]
    fn bad_values_rejected_with_line_numbers() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let err = read_csv(schema, Cursor::new("x\nnope\n")).unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn unterminated_quote_rejected() {
        let schema = Schema::from_pairs(&[("x", DataType::Str)]).unwrap();
        assert!(read_csv(schema, Cursor::new("x\n\"abc\n")).is_err());
    }
}
