//! # bellwether-table
//!
//! Typed columnar tables plus the extended relational algebra (Table 1 of
//! the paper) that bellwether analysis is defined over: selection σ,
//! duplicate-free projection π, key/foreign-key natural join ⋈, and
//! group-by aggregation α with SUM/MIN/MAX/AVG/COUNT/COUNT-DISTINCT.
//!
//! The design goal is a small, fully auditable in-memory relational
//! substrate — not a general query engine. Operators materialise eagerly;
//! there is no planner. This is sufficient (and fast enough) for the
//! paper's workloads, where heavy lifting happens in the CUBE pass of
//! `bellwether-cube` and the scan algorithms of `bellwether-core`.
//!
//! ## Quick example
//!
//! ```
//! use bellwether_table::{
//!     Column, Schema, Table, DataType, Predicate,
//!     ops::{filter, aggregate, AggExpr, AggFunc},
//! };
//!
//! let orders = Table::new(
//!     Schema::from_pairs(&[("item", DataType::Int), ("profit", DataType::Float)]).unwrap(),
//!     vec![
//!         Column::from_ints(vec![1, 1, 2]),
//!         Column::from_floats(vec![10.0, 5.0, 7.0]),
//!     ],
//! ).unwrap();
//!
//! // α_{item, sum(profit)} σ_{profit > 6} orders
//! let selected = filter(&orders, &Predicate::cmp("profit", bellwether_table::CmpOp::Gt, 6.0)).unwrap();
//! let per_item = aggregate(&selected, &["item"], &[AggExpr::new(AggFunc::Sum, "profit")]).unwrap();
//! assert_eq!(per_item.num_rows(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitmap;
pub mod column;
pub mod csv;
pub mod error;
pub mod expr;
pub mod ops;
pub mod schema;
pub mod table;
pub mod value;

pub use bitmap::Bitmap;
pub use column::{Column, ColumnBuilder, ColumnData};
pub use error::{Result, TableError};
pub use expr::{CmpOp, Predicate};
pub use schema::{Field, Schema, SchemaRef};
pub use table::{Table, TableBuilder};
pub use value::{DataType, Value};
