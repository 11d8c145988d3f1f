//! Table schemas: ordered, uniquely named, typed fields.

use crate::error::{Result, TableError};
use crate::value::DataType;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One column's name and type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name, unique within a schema.
    pub name: String,
    /// Column data type.
    pub dtype: DataType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered set of fields with O(1) name lookup.
///
/// Schemas are immutable and cheaply cloneable (`Arc` inside `Table`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
    index: HashMap<String, usize>,
}

impl Schema {
    /// Build a schema, rejecting duplicate names.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        let mut index = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if index.insert(f.name.clone(), i).is_some() {
                return Err(TableError::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields, index })
    }

    /// Convenience constructor from `(name, dtype)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Result<Self> {
        Schema::new(
            pairs
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect(),
        )
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| TableError::UnknownColumn(name.to_string()))
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> Result<&Field> {
        Ok(&self.fields[self.index_of(name)?])
    }

    /// True if a column with `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.name, field.dtype)?;
        }
        write!(f, ")")
    }
}

/// Shared schema handle stored inside tables.
pub type SchemaRef = Arc<Schema>;

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("c", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn lookup() {
        let s = abc();
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert_eq!(s.field("c").unwrap().dtype, DataType::Str);
        assert!(s.index_of("zz").is_err());
        assert_eq!(s.names(), vec!["a", "b", "c"]);
    }

    #[test]
    fn duplicates_rejected() {
        let err = Schema::from_pairs(&[("x", DataType::Int), ("x", DataType::Int)]);
        assert!(matches!(err, Err(TableError::DuplicateColumn(_))));
    }

    #[test]
    fn display() {
        assert_eq!(abc().to_string(), "(a: Int, b: Float, c: Str)");
    }
}
