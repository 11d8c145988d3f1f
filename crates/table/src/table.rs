//! The `Table`: an immutable batch of typed columns under a schema.

use crate::column::{Column, ColumnBuilder};
use crate::error::{Result, TableError};
use crate::schema::{Schema, SchemaRef};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// An immutable table: a schema plus equal-length columns.
///
/// Tables are cheap to clone column-wise thanks to `Arc`-backed string
/// payloads.
#[derive(Debug, Clone)]
pub struct Table {
    schema: SchemaRef,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Build from a schema and matching columns.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(TableError::LengthMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, Column::len);
        for (field, col) in schema.fields().iter().zip(&columns) {
            if col.len() != rows {
                return Err(TableError::LengthMismatch {
                    expected: rows,
                    found: col.len(),
                });
            }
            if col.dtype() != field.dtype {
                return Err(TableError::TypeMismatch {
                    context: format!("column {}", field.name),
                    expected: field.dtype.name(),
                    found: col.dtype().name(),
                });
            }
        }
        Ok(Table {
            schema: Arc::new(schema),
            columns,
            rows,
        })
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.dtype).finish())
            .collect();
        Table {
            schema: Arc::new(schema),
            columns,
            rows: 0,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column by position.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// All columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Dynamically typed cell read.
    pub fn value(&self, row: usize, col: &str) -> Result<Value> {
        Ok(self.column_by_name(col)?.value(row))
    }

    /// One full row as values, in schema order.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }
}

impl fmt::Display for Table {
    /// Render a small ASCII preview (at most 20 rows), for examples/tests.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        let shown = self.rows.min(20);
        for row in 0..shown {
            let cells: Vec<String> = self.row(row).iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        if shown < self.rows {
            writeln!(f, "... ({} rows total)", self.rows)?;
        }
        Ok(())
    }
}

/// Row-at-a-time table builder, used by generators and the CSV reader.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    builders: Vec<ColumnBuilder>,
}

impl TableBuilder {
    /// New builder for `schema`.
    pub fn new(schema: Schema) -> Self {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.dtype))
            .collect();
        TableBuilder { schema, builders }
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.builders.first().map_or(0, ColumnBuilder::len)
    }

    /// True if no rows pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push one row of values in schema order.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.builders.len() {
            return Err(TableError::LengthMismatch {
                expected: self.builders.len(),
                found: row.len(),
            });
        }
        for (b, v) in self.builders.iter_mut().zip(row) {
            b.push_value(v)?;
        }
        Ok(())
    }

    /// Finish into a table.
    pub fn finish(self) -> Result<Table> {
        let columns: Vec<Column> = self.builders.into_iter().map(ColumnBuilder::finish).collect();
        Table::new(self.schema, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn sample() -> Table {
        let schema =
            Schema::from_pairs(&[("id", DataType::Int), ("profit", DataType::Float)]).unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints(vec![1, 2, 3]),
                Column::from_floats(vec![10.0, 20.0, 30.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_shapes() {
        let schema =
            Schema::from_pairs(&[("id", DataType::Int), ("profit", DataType::Float)]).unwrap();
        // wrong arity
        assert!(Table::new(schema.clone(), vec![Column::from_ints(vec![1])]).is_err());
        // wrong type
        assert!(Table::new(
            schema.clone(),
            vec![Column::from_floats(vec![1.0]), Column::from_floats(vec![1.0])],
        )
        .is_err());
        // ragged lengths
        assert!(Table::new(
            schema,
            vec![Column::from_ints(vec![1, 2]), Column::from_floats(vec![1.0])],
        )
        .is_err());
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.value(1, "profit").unwrap(), Value::Float(20.0));
        assert_eq!(t.row(0), vec![Value::Int(1), Value::Float(10.0)]);
        assert!(t.column_by_name("nope").is_err());
    }

    #[test]
    fn builder_round_trip() {
        let schema =
            Schema::from_pairs(&[("a", DataType::Str), ("b", DataType::Int)]).unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![Value::str("x"), Value::Int(1)]).unwrap();
        b.push_row(vec![Value::Null, Value::Int(2)]).unwrap();
        let t = b.finish().unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(1, "a").unwrap(), Value::Null);
    }

    #[test]
    fn empty_table() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let t = Table::empty(schema);
        assert!(t.is_empty());
        assert_eq!(t.num_columns(), 1);
    }

    #[test]
    fn display_preview() {
        let rendered = sample().to_string();
        assert!(rendered.contains("id: Int"));
        assert!(rendered.contains("1 | 10"));
    }
}
