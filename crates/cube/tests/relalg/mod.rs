//! The extended relational algebra of the paper's Table 1 — selection σ,
//! duplicate-free projection π, key/foreign-key natural join ⋈ and
//! group-by aggregation α — over `bellwether-table` tables.
//!
//! This is the definition the CUBE kernel is checked against, so it is
//! written for obviousness: row at a time through `Value`s, eager, with
//! no state shared with the kernel. A misuse (an unknown column, a
//! duplicate primary key, SUM over strings) panics.

use bellwether_table::ops::AggFunc;
use bellwether_table::{DataType, Field, Schema, Table, TableBuilder, Value};
use std::collections::{HashMap, HashSet};

/// A table with `schema` holding `rows`.
fn build(schema: Schema, rows: impl IntoIterator<Item = Vec<Value>>) -> Table {
    let mut out = TableBuilder::new(schema);
    for row in rows {
        out.push_row(row).unwrap();
    }
    out.finish().unwrap()
}

/// The position of column `name`.
fn index_of(table: &Table, name: &str) -> usize {
    table.schema().index_of(name).unwrap()
}

/// σ: the rows of `table` whose index `keep` accepts, in order.
pub fn filter(table: &Table, keep: impl Fn(usize) -> bool) -> Table {
    let rows = (0..table.num_rows())
        .filter(|&r| keep(r))
        .map(|r| table.row(r));
    build(table.schema().clone(), rows)
}

/// π: the distinct value tuples of `columns`, in first-appearance order.
pub fn project_distinct(table: &Table, columns: &[&str]) -> Table {
    let idx: Vec<usize> = columns.iter().map(|c| index_of(table, c)).collect();
    let fields = idx
        .iter()
        .map(|&i| table.schema().fields()[i].clone())
        .collect();
    let mut seen = HashSet::new();
    let rows = (0..table.num_rows())
        .map(|r| {
            idx.iter()
                .map(|&i| table.column(i).value(r))
                .collect::<Vec<_>>()
        })
        .filter(|row| seen.insert(row.clone()));
    build(Schema::new(fields).unwrap(), rows)
}

/// `left ⋈ right` on the shared column `key`, a primary key of `right`.
/// One output row per left row whose key matches (NULL never does):
/// the left columns, then the right columns `left` does not have.
pub fn natural_join(left: &Table, right: &Table, key: &str) -> Table {
    let (lk, rk) = (
        left.column_by_name(key).unwrap(),
        right.column_by_name(key).unwrap(),
    );
    assert_eq!(lk.dtype(), rk.dtype(), "join key {key}: types differ");
    let mut index = HashMap::new();
    for r in (0..right.num_rows()).filter(|&r| !rk.value(r).is_null()) {
        assert!(
            index.insert(rk.value(r), r).is_none(),
            "duplicate primary key {key}"
        );
    }
    let extra: Vec<usize> = (0..right.num_columns())
        .filter(|&i| !left.schema().contains(&right.schema().fields()[i].name))
        .collect();
    let mut fields = left.schema().fields().to_vec();
    fields.extend(extra.iter().map(|&i| right.schema().fields()[i].clone()));
    let rows = (0..left.num_rows()).filter_map(|l| {
        let &r = index.get(&lk.value(l))?;
        let mut row = left.row(l);
        row.extend(extra.iter().map(|&i| right.column(i).value(r)));
        Some(row)
    });
    build(Schema::new(fields).unwrap(), rows)
}

/// α: group `table` by `group_by` (none: one group of every row) and
/// apply each `(func, column)`, named `func_column`. Groups come in
/// first-appearance order. NULL inputs are skipped; a group with none
/// left is NULL, except COUNT and COUNT(DISTINCT), which are 0. SUM and
/// AVG fold in row order.
pub fn aggregate(table: &Table, group_by: &[&str], aggs: &[(AggFunc, &str)]) -> Table {
    let keys: Vec<usize> = group_by.iter().map(|c| index_of(table, c)).collect();
    let inputs: Vec<usize> = aggs.iter().map(|(_, c)| index_of(table, c)).collect();
    let mut fields: Vec<Field> = keys
        .iter()
        .map(|&i| table.schema().fields()[i].clone())
        .collect();
    for (&(func, column), &i) in aggs.iter().zip(&inputs) {
        let input = table.schema().fields()[i].dtype;
        let dtype = match func {
            AggFunc::Sum | AggFunc::Avg => {
                assert_ne!(input, DataType::Str, "{} over strings", func.name());
                DataType::Float
            }
            AggFunc::Min | AggFunc::Max => input,
            AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
        };
        fields.push(Field::new(format!("{}_{column}", func.name()), dtype));
    }

    // Each group's key and, per aggregate, its non-NULL inputs in row order.
    let mut groups: Vec<(Vec<Value>, Vec<Vec<Value>>)> = Vec::new();
    let mut group_of: HashMap<Vec<Value>, usize> = HashMap::new();
    for r in 0..table.num_rows() {
        let key: Vec<Value> = keys.iter().map(|&i| table.column(i).value(r)).collect();
        let g = *group_of.entry(key.clone()).or_insert_with(|| {
            groups.push((key, vec![Vec::new(); aggs.len()]));
            groups.len() - 1
        });
        for (vals, &i) in groups[g].1.iter_mut().zip(&inputs) {
            let v = table.column(i).value(r);
            if !v.is_null() {
                vals.push(v);
            }
        }
    }

    let rows = groups.into_iter().map(|(mut row, inputs)| {
        for (&(func, _), vals) in aggs.iter().zip(inputs) {
            let sum = || vals.iter().fold(0.0, |s, v| s + v.as_float().unwrap());
            row.push(match func {
                AggFunc::Count => Value::Int(vals.len() as i64),
                AggFunc::CountDistinct => {
                    Value::Int(vals.iter().collect::<HashSet<_>>().len() as i64)
                }
                _ if vals.is_empty() => Value::Null,
                AggFunc::Sum => Value::Float(sum()),
                AggFunc::Avg => Value::Float(sum() / vals.len() as f64),
                AggFunc::Min => vals.iter().min().unwrap().clone(),
                AggFunc::Max => vals.iter().max().unwrap().clone(),
            });
        }
        row
    });
    build(Schema::new(fields).unwrap(), rows)
}
