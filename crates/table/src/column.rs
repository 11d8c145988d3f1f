//! Typed columnar storage.
//!
//! Each column stores its values in a dense typed vector plus an optional
//! validity bitmap (absent means "no NULLs"). String columns intern their
//! payload in `Arc<str>` so repeated categorical values share one buffer
//! after dictionary-style construction by the builders.

use crate::bitmap::Bitmap;
use crate::error::{Result, TableError};
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A typed column of values with an optional NULL mask.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int(ColumnData<i64>),
    /// 64-bit floats.
    Float(ColumnData<f64>),
    /// Interned strings.
    Str(ColumnData<Arc<str>>),
}

/// Typed payload + validity for one column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnData<T> {
    /// Dense values; the slot content for NULL rows is unspecified filler.
    pub values: Vec<T>,
    /// Validity mask; `None` means all rows valid.
    pub validity: Option<Bitmap>,
}

impl<T> ColumnData<T> {
    fn new(values: Vec<T>, validity: Option<Bitmap>) -> Self {
        ColumnData { values, validity }
    }

    /// True if row `i` holds a non-NULL value.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    /// Drop the first `n` rows.
    pub fn drain_front(&mut self, n: usize) {
        self.values.drain(..n);
        if let Some(valid) = &mut self.validity {
            valid.drain_front(n);
        }
    }
}

impl<T: Copy> ColumnData<T> {
    /// Row `i`, or `None` if it is NULL. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        self.is_valid(i).then(|| self.values[i])
    }

    /// Append `src`'s rows. A bitmap appears only once either side has one.
    pub fn extend_from(&mut self, src: &ColumnData<T>) {
        let ColumnData { values, validity } = self;
        match (validity, &src.validity) {
            (None, None) => {}
            (Some(valid), None) => valid.append(&Bitmap::ones(src.values.len())),
            (valid, Some(sv)) => valid
                .get_or_insert_with(|| Bitmap::ones(values.len()))
                .append(sv),
        }
        values.extend_from_slice(&src.values);
    }
}

/// Collects a nullable lane: `None` rows hold `T::default()` as filler,
/// and a bitmap exists only when some row is NULL, so a NULL-free lane is
/// one plain collect.
impl<T: Default> FromIterator<Option<T>> for ColumnData<T> {
    fn from_iter<I: IntoIterator<Item = Option<T>>>(iter: I) -> Self {
        let mut nulls = Vec::new();
        let values: Vec<T> = (iter.into_iter().enumerate())
            .map(|(i, v)| v.unwrap_or_else(|| {
                nulls.push(i);
                T::default()
            }))
            .collect();
        let validity = (!nulls.is_empty()).then(|| {
            let mut valid = Bitmap::ones(values.len());
            nulls.into_iter().for_each(|i| valid.set(i, false));
            valid
        });
        ColumnData { values, validity }
    }
}

impl Column {
    /// Column of non-null integers.
    pub fn from_ints(values: Vec<i64>) -> Self {
        Column::Int(ColumnData::new(values, None))
    }

    /// Column of non-null floats.
    pub fn from_floats(values: Vec<f64>) -> Self {
        Column::Float(ColumnData::new(values, None))
    }

    /// Column of non-null strings; equal strings share one allocation.
    pub fn from_strs<S: AsRef<str>>(values: &[S]) -> Self {
        let mut interner: HashMap<&str, Arc<str>> = HashMap::new();
        let data = values
            .iter()
            .map(|s| {
                let s = s.as_ref();
                interner
                    .entry(s)
                    .or_insert_with(|| Arc::from(s))
                    .clone()
            })
            .collect();
        Column::Str(ColumnData::new(data, None))
    }

    /// Column built from dynamically typed values; fails on mixed types.
    /// The column type is taken from the first non-NULL value; an all-NULL
    /// input defaults to `Float`.
    pub fn from_values(values: &[Value]) -> Result<Self> {
        let dtype = values
            .iter()
            .find_map(|v| v.dtype())
            .unwrap_or(DataType::Float);
        let mut builder = ColumnBuilder::new(dtype);
        for v in values {
            builder.push_value(v.clone())?;
        }
        Ok(builder.finish())
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(d) => d.values.len(),
            Column::Float(d) => d.values.len(),
            Column::Str(d) => d.values.len(),
        }
    }

    /// True if the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        let (len, validity) = match self {
            Column::Int(d) => (d.values.len(), d.validity.as_ref()),
            Column::Float(d) => (d.values.len(), d.validity.as_ref()),
            Column::Str(d) => (d.values.len(), d.validity.as_ref()),
        };
        validity.map_or(0, |v| len - v.count_ones())
    }

    /// Dynamically typed read of row `i`. Panics if out of range.
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int(d) => {
                if d.is_valid(i) {
                    Value::Int(d.values[i])
                } else {
                    Value::Null
                }
            }
            Column::Float(d) => {
                if d.is_valid(i) {
                    Value::Float(d.values[i])
                } else {
                    Value::Null
                }
            }
            Column::Str(d) => {
                if d.is_valid(i) {
                    Value::Str(d.values[i].clone())
                } else {
                    Value::Null
                }
            }
        }
    }

    /// Borrow the integer payload, or error with `context` in the message.
    pub fn as_int(&self, context: &str) -> Result<&ColumnData<i64>> {
        match self {
            Column::Int(d) => Ok(d),
            other => Err(TableError::TypeMismatch {
                context: context.to_string(),
                expected: "Int",
                found: other.dtype().name(),
            }),
        }
    }

    /// Borrow the float payload, or error with `context` in the message.
    pub fn as_float(&self, context: &str) -> Result<&ColumnData<f64>> {
        match self {
            Column::Float(d) => Ok(d),
            other => Err(TableError::TypeMismatch {
                context: context.to_string(),
                expected: "Float",
                found: other.dtype().name(),
            }),
        }
    }

    /// Borrow the string payload, or error with `context` in the message.
    pub fn as_str(&self, context: &str) -> Result<&ColumnData<Arc<str>>> {
        match self {
            Column::Str(d) => Ok(d),
            other => Err(TableError::TypeMismatch {
                context: context.to_string(),
                expected: "Str",
                found: other.dtype().name(),
            }),
        }
    }

    /// Read row `i` as `f64`, widening integers; `None` for NULL.
    pub fn float_at(&self, i: usize) -> Option<f64> {
        match self {
            Column::Int(d) => d.is_valid(i).then(|| d.values[i] as f64),
            Column::Float(d) => d.is_valid(i).then(|| d.values[i]),
            Column::Str(_) => None,
        }
    }
}

/// Incremental builder for one column, accepting dynamically typed pushes.
#[derive(Debug)]
pub struct ColumnBuilder {
    dtype: DataType,
    ints: Vec<i64>,
    floats: Vec<f64>,
    strs: Vec<Arc<str>>,
    interner: HashMap<Arc<str>, Arc<str>>,
    validity: Bitmap,
    has_nulls: bool,
}

impl ColumnBuilder {
    /// New builder producing a column of `dtype`.
    pub fn new(dtype: DataType) -> Self {
        ColumnBuilder {
            dtype,
            ints: Vec::new(),
            floats: Vec::new(),
            strs: Vec::new(),
            interner: HashMap::new(),
            validity: Bitmap::zeros(0),
            has_nulls: false,
        }
    }

    /// The target data type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push a NULL.
    pub fn push_null(&mut self) {
        match self.dtype {
            DataType::Int => self.ints.push(0),
            DataType::Float => self.floats.push(0.0),
            DataType::Str => self.strs.push(Arc::from("")),
        }
        self.validity.push(false);
        self.has_nulls = true;
    }

    /// Push an integer; errors if the builder's type disagrees.
    pub fn push_int(&mut self, v: i64) -> Result<()> {
        match self.dtype {
            DataType::Int => {
                self.ints.push(v);
                self.validity.push(true);
                Ok(())
            }
            // Ints widen into float columns, matching Value::as_float.
            DataType::Float => {
                self.floats.push(v as f64);
                self.validity.push(true);
                Ok(())
            }
            DataType::Str => Err(TableError::TypeMismatch {
                context: "ColumnBuilder::push_int".into(),
                expected: "Str",
                found: "Int",
            }),
        }
    }

    /// Push a float; errors if the builder's type disagrees.
    pub fn push_float(&mut self, v: f64) -> Result<()> {
        match self.dtype {
            DataType::Float => {
                self.floats.push(v);
                self.validity.push(true);
                Ok(())
            }
            other => Err(TableError::TypeMismatch {
                context: "ColumnBuilder::push_float".into(),
                expected: other.name(),
                found: "Float",
            }),
        }
    }

    /// Push a string; errors if the builder's type disagrees.
    pub fn push_str(&mut self, v: impl Into<Arc<str>>) -> Result<()> {
        match self.dtype {
            DataType::Str => {
                let v: Arc<str> = v.into();
                let interned = self.interner.entry(v.clone()).or_insert(v).clone();
                self.strs.push(interned);
                self.validity.push(true);
                Ok(())
            }
            other => Err(TableError::TypeMismatch {
                context: "ColumnBuilder::push_str".into(),
                expected: other.name(),
                found: "Str",
            }),
        }
    }

    /// Push a dynamically typed value.
    pub fn push_value(&mut self, v: Value) -> Result<()> {
        match v {
            Value::Null => {
                self.push_null();
                Ok(())
            }
            Value::Int(i) => self.push_int(i),
            Value::Float(f) => self.push_float(f),
            Value::Str(s) => self.push_str(s),
        }
    }

    /// Finish into an immutable column.
    pub fn finish(self) -> Column {
        let validity = self.has_nulls.then_some(self.validity);
        match self.dtype {
            DataType::Int => Column::Int(ColumnData::new(self.ints, validity)),
            DataType::Float => Column::Float(ColumnData::new(self.floats, validity)),
            DataType::Str => Column::Str(ColumnData::new(self.strs, validity)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_read_back() {
        let c = Column::from_ints(vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(1), Value::Int(2));
        assert_eq!(c.dtype(), DataType::Int);
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn builder_nulls() {
        let mut b = ColumnBuilder::new(DataType::Float);
        b.push_float(1.5).unwrap();
        b.push_null();
        b.push_int(2).unwrap(); // widening
        let c = b.finish();
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(0), Value::Float(1.5));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Float(2.0));
        assert_eq!(c.float_at(1), None);
    }

    /// A lane of `len` rows, row `r` NULL when `null(r)`.
    fn lane(len: usize, null: impl Fn(usize) -> bool) -> ColumnData<i64> {
        (0..len as i64)
            .map(|r| (!null(r as usize)).then_some(r))
            .collect()
    }

    fn rows(lane: &ColumnData<i64>) -> Vec<Option<i64>> {
        (0..lane.values.len()).map(|r| lane.get(r)).collect()
    }

    #[test]
    fn a_lane_keeps_a_bitmap_only_once_a_row_is_null() {
        assert_eq!(lane(70, |_| false).validity, None);
        let odd = |r: usize| r % 2 == 1;
        for (a, b) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            let (head, tail) = (
                lane(67, |r| a == 1 && odd(r)),
                lane(70, |r| b == 1 && r > 60),
            );
            let mut got = head.clone();
            got.extend_from(&tail);
            assert_eq!(got.validity.is_some(), a + b > 0);
            assert_eq!(rows(&got), [rows(&head), rows(&tail)].concat());
            let mut drained = got.clone();
            drained.drain_front(66);
            assert_eq!(rows(&drained), rows(&got)[66..]);
        }
    }

    #[test]
    fn string_interning_shares_buffers() {
        let c = Column::from_strs(&["wi", "md", "wi", "wi"]);
        if let Column::Str(d) = &c {
            assert!(Arc::ptr_eq(&d.values[0], &d.values[2]));
            assert!(Arc::ptr_eq(&d.values[0], &d.values[3]));
            assert!(!Arc::ptr_eq(&d.values[0], &d.values[1]));
        } else {
            panic!("expected Str column");
        }
    }

    #[test]
    fn type_errors_are_reported() {
        let mut b = ColumnBuilder::new(DataType::Int);
        let err = b.push_str("x").unwrap_err();
        assert!(matches!(err, TableError::TypeMismatch { .. }));
        let c = Column::from_floats(vec![1.0]);
        assert!(c.as_int("test").is_err());
        assert!(c.as_float("test").is_ok());
    }

    #[test]
    fn from_values_infers_type() {
        let c = Column::from_values(&[Value::Null, Value::str("a"), Value::str("b")]).unwrap();
        assert_eq!(c.dtype(), DataType::Str);
        assert_eq!(c.null_count(), 1);
        let err = Column::from_values(&[Value::Int(1), Value::str("a")]);
        assert!(err.is_err());
    }
}
