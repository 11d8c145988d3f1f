//! Error type shared by all table operations.

use std::fmt;

/// Errors raised by schema validation, column access and CSV import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A referenced column does not exist in the schema.
    UnknownColumn(String),
    /// Two columns (or a column and a literal) have incompatible types.
    TypeMismatch {
        /// Context of the mismatch (operator or column name).
        context: String,
        /// Expected data type.
        expected: &'static str,
        /// Data type actually found.
        found: &'static str,
    },
    /// Column lengths within a table disagree.
    LengthMismatch {
        /// Length expected (from the first column or explicit row count).
        expected: usize,
        /// Length found.
        found: usize,
    },
    /// An aggregate was requested over a column that cannot support it.
    UnsupportedAggregate {
        /// Aggregate function name.
        func: &'static str,
        /// Column data type name.
        dtype: &'static str,
    },
    /// A duplicate column name was supplied to a schema.
    DuplicateColumn(String),
    /// A CSV file could not be parsed.
    Csv(String),
    /// An IO error, stringified to keep the error type `Clone + Eq`.
    Io(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            TableError::TypeMismatch {
                context,
                expected,
                found,
            } => write!(f, "type mismatch in {context}: expected {expected}, found {found}"),
            TableError::LengthMismatch { expected, found } => {
                write!(f, "column length mismatch: expected {expected}, found {found}")
            }
            TableError::UnsupportedAggregate { func, dtype } => {
                write!(f, "aggregate {func} unsupported over {dtype}")
            }
            TableError::DuplicateColumn(name) => write!(f, "duplicate column name: {name}"),
            TableError::Csv(msg) => write!(f, "csv error: {msg}"),
            TableError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for TableError {}

impl From<std::io::Error> for TableError {
    fn from(err: std::io::Error) -> Self {
        TableError::Io(err.to_string())
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, TableError>;
