//! # bellwether-table
//!
//! Typed columnar tables: the star schema `DB = {F, T₁, …, Tₙ}` that
//! bellwether analysis reads (§3.2), held in memory as [`Table`]s of
//! typed [`Column`]s under a [`Schema`], plus the [`ops::AggFunc`]
//! vocabulary of its feature and target queries and a CSV reader for
//! real exported data.
//!
//! Nothing here evaluates a query. Every aggregate the pipeline needs —
//! each regional feature and the target τ — is folded by the CUBE kernel
//! of `bellwether-cube`; the paper's Table 1 operators (σ, π, ⋈, α) are
//! that kernel's test oracle, beside its tests.
//!
//! ## Quick example
//!
//! ```
//! use bellwether_table::{DataType, Schema, TableBuilder, Value};
//!
//! let schema =
//!     Schema::from_pairs(&[("item", DataType::Int), ("profit", DataType::Float)]).unwrap();
//! let mut orders = TableBuilder::new(schema);
//! orders.push_row(vec![Value::Int(1), Value::Float(10.0)]).unwrap();
//! orders.push_row(vec![Value::Int(2), Value::Null]).unwrap();
//! let orders = orders.finish().unwrap();
//!
//! assert_eq!(orders.num_rows(), 2);
//! assert_eq!(orders.column_by_name("profit").unwrap().float_at(1), None);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitmap;
pub mod column;
pub mod csv;
pub mod error;
pub mod ops;
pub mod schema;
pub mod table;
pub mod value;

pub use bitmap::Bitmap;
pub use column::{Column, ColumnBuilder, ColumnData};
pub use error::{Result, TableError};
pub use schema::{Field, Schema, SchemaRef};
pub use table::{Table, TableBuilder};
pub use value::{DataType, Value};
