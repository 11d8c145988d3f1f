//! Scalar values and data types.
//!
//! The bellwether workloads only need three scalar types: 64-bit integers
//! (ids, counts, dimension codes), 64-bit floats (profits, expenses) and
//! interned strings (categories, state names). `Value` is the dynamically
//! typed view used at row boundaries (row accessors and builders, CSV
//! cells, group keys); bulk storage stays in typed columns.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Str,
}

impl DataType {
    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "Int",
            DataType::Float => "Float",
            DataType::Str => "Str",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamically typed scalar, including SQL-style NULL.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Compares as the smallest value and equal only to itself
    /// for grouping purposes (group keys treat NULLs as identical, like
    /// SQL `GROUP BY`).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalised at construction boundaries; ordering
    /// uses `total_cmp`.
    Float(f64),
    /// Interned string; `Arc` keeps cloning cheap across group keys.
    Str(Arc<str>),
}

impl Value {
    /// Data type of the value, or `None` for NULL.
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// View as integer if the value is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// View as float; integers widen losslessly for numeric contexts.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// View as string slice if the value is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Build a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Total order used for sorting and MIN/MAX: NULL < Int/Float (by
    /// numeric value, comparing across the two numeric types) < Str.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            Value::Float(v) => {
                // Hash consistently with total_cmp equality: an Int and a
                // Float that compare equal must hash equally, so floats with
                // integral values hash as ints.
                if v.fract() == 0.0 && *v >= i64::MIN as f64 && *v <= i64::MAX as f64 {
                    1u8.hash(state);
                    (*v as i64).hash(state);
                } else {
                    2u8.hash(state);
                    v.to_bits().hash(state);
                }
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::Float(1.5)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Float(1.5));
        assert_eq!(vals[2], Value::Int(3));
    }

    #[test]
    fn cross_numeric_equality_is_consistent_with_hash() {
        let a = Value::Int(7);
        let b = Value::Float(7.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn strings_sort_after_numbers() {
        assert!(Value::str("abc") > Value::Int(i64::MAX));
    }

    #[test]
    fn nan_is_orderable() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert!(nan > Value::Float(f64::INFINITY));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_float(), Some(4.0));
        assert_eq!(Value::Float(4.5).as_int(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.dtype(), None);
        assert_eq!(Value::Int(1).dtype(), Some(DataType::Int));
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Value::Int(-2).to_string(), "-2");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::str("wi").to_string(), "wi");
    }
}
