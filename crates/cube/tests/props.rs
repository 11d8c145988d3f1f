//! The relational operators of `relalg` — the CUBE's test oracle — held
//! to their definitions: properties over random order tables, then the
//! cases of SQL semantics (NULLs, empty results, key violations) one by
//! one.

mod relalg;

use bellwether_prop::{check, Rng};
use bellwether_table::ops::AggFunc;
use bellwether_table::{Column, ColumnBuilder, DataType, Schema, Table, Value};
use relalg::{aggregate, filter, natural_join, project_distinct};
use std::collections::{HashMap, HashSet};

fn orders(rng: &mut Rng) -> Vec<(i64, String, f64)> {
    rng.vec_of(0, 80, |r| {
        (
            r.i64_in(0, 20),
            r.choice(&["wi", "md", "ca"]).to_string(),
            r.f64_in(-1000.0, 1000.0),
        )
    })
}

fn build_orders(rows: &[(i64, String, f64)]) -> Table {
    let schema = Schema::from_pairs(&[
        ("item", DataType::Int),
        ("state", DataType::Str),
        ("profit", DataType::Float),
    ])
    .unwrap();
    Table::new(
        schema,
        vec![
            Column::from_ints(rows.iter().map(|r| r.0).collect()),
            Column::from_strs(&rows.iter().map(|r| r.1.as_str()).collect::<Vec<_>>()),
            Column::from_floats(rows.iter().map(|r| r.2).collect()),
        ],
    )
    .unwrap()
}

#[test]
fn aggregate_sum_matches_manual() {
    check("aggregate_sum_matches_manual", 64, |rng| {
        let rows = orders(rng);
        let t = build_orders(&rows);
        let out = aggregate(&t, &["item"], &[(AggFunc::Sum, "profit")]);
        let mut manual: HashMap<i64, f64> = HashMap::new();
        for (item, _, profit) in &rows {
            *manual.entry(*item).or_insert(0.0) += profit;
        }
        assert_eq!(out.num_rows(), manual.len());
        for row in 0..out.num_rows() {
            let item = out.value(row, "item").unwrap().as_int().unwrap();
            let sum = out.value(row, "sum_profit").unwrap().as_float().unwrap();
            assert!((sum - manual[&item]).abs() < 1e-6);
        }
    });
}

#[test]
fn filter_partitions_rows() {
    check("filter_partitions_rows", 64, |rng| {
        let rows = orders(rng);
        let threshold = rng.f64_in(-1000.0, 1000.0);
        let t = build_orders(&rows);
        let profit = t.column_by_name("profit").unwrap();
        let p = |r| profit.float_at(r).unwrap() >= threshold;
        let yes = filter(&t, p);
        let no = filter(&t, |r| !p(r));
        assert_eq!(yes.num_rows() + no.num_rows(), t.num_rows());
        for row in 0..yes.num_rows() {
            assert!(yes.value(row, "profit").unwrap().as_float().unwrap() >= threshold);
        }
        for row in 0..no.num_rows() {
            assert!(no.value(row, "profit").unwrap().as_float().unwrap() < threshold);
        }
    });
}

#[test]
fn distinct_projection_is_exactly_the_value_set() {
    check("distinct_projection_is_exactly_the_value_set", 64, |rng| {
        let rows = orders(rng);
        let t = build_orders(&rows);
        let out = project_distinct(&t, &["state"]);
        let expect: HashSet<&str> = rows.iter().map(|r| r.1.as_str()).collect();
        assert_eq!(out.num_rows(), expect.len());
        let got: HashSet<String> = (0..out.num_rows())
            .map(|r| out.value(r, "state").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(
            got,
            expect.into_iter().map(String::from).collect::<HashSet<_>>()
        );
    });
}

#[test]
fn join_respects_fk_semantics() {
    check("join_respects_fk_semantics", 64, |rng| {
        let rows = orders(rng);
        let t = build_orders(&rows);
        // Reference table covering items 0..10 only.
        let items = Table::new(
            Schema::from_pairs(&[("item", DataType::Int), ("weight", DataType::Float)]).unwrap(),
            vec![
                Column::from_ints((0..10).collect()),
                Column::from_floats((0..10).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let joined = natural_join(&t, &items, "item");
        let expect = rows.iter().filter(|r| r.0 < 10).count();
        assert_eq!(joined.num_rows(), expect);
        for row in 0..joined.num_rows() {
            let item = joined.value(row, "item").unwrap().as_int().unwrap();
            let w = joined.value(row, "weight").unwrap().as_float().unwrap();
            assert_eq!(w, item as f64);
        }
    });
}

/// A column of `dtype` holding `values`, `None` as NULL.
fn nullable(dtype: DataType, values: &[Option<Value>]) -> Column {
    let mut b = ColumnBuilder::new(dtype);
    for v in values {
        b.push_value(v.clone().unwrap_or(Value::Null)).unwrap();
    }
    b.finish()
}

mod aggregate {
    use super::*;

    fn orders() -> Table {
        let schema = Schema::from_pairs(&[
            ("item", DataType::Int),
            ("st", DataType::Str),
            ("profit", DataType::Float),
            ("ad", DataType::Int),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints(vec![1, 1, 2, 2, 2]),
                Column::from_strs(&["wi", "md", "wi", "wi", "md"]),
                Column::from_floats(vec![10.0, 20.0, 5.0, 7.0, 3.0]),
                Column::from_ints(vec![7, 7, 8, 9, 8]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn group_by_sum_avg() {
        let out = aggregate(
            &orders(),
            &["item"],
            &[(AggFunc::Sum, "profit"), (AggFunc::Avg, "profit")],
        );
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "sum_profit").unwrap(), Value::Float(30.0));
        assert_eq!(out.value(1, "sum_profit").unwrap(), Value::Float(15.0));
        assert_eq!(out.value(1, "avg_profit").unwrap(), Value::Float(5.0));
    }

    #[test]
    fn multi_column_groups() {
        let out = aggregate(&orders(), &["item", "st"], &[(AggFunc::Count, "profit")]);
        assert_eq!(out.num_rows(), 4); // (1,wi) (1,md) (2,wi) (2,md)
        assert_eq!(out.value(2, "count_profit").unwrap(), Value::Int(2));
    }

    #[test]
    fn global_aggregate_when_no_group_columns() {
        let out = aggregate(&orders(), &[], &[(AggFunc::Max, "profit")]);
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "max_profit").unwrap(), Value::Float(20.0));
    }

    #[test]
    fn count_distinct() {
        let out = aggregate(&orders(), &["item"], &[(AggFunc::CountDistinct, "ad")]);
        assert_eq!(out.value(0, "count_distinct_ad").unwrap(), Value::Int(1));
        assert_eq!(out.value(1, "count_distinct_ad").unwrap(), Value::Int(2));
    }

    #[test]
    fn min_max_on_strings() {
        let out = aggregate(
            &orders(),
            &["item"],
            &[(AggFunc::Min, "st"), (AggFunc::Max, "st")],
        );
        assert_eq!(out.value(0, "min_st").unwrap(), Value::str("md"));
        assert_eq!(out.value(0, "max_st").unwrap(), Value::str("wi"));
    }

    #[test]
    #[should_panic(expected = "sum over strings")]
    fn sum_of_strings_rejected() {
        aggregate(&orders(), &[], &[(AggFunc::Sum, "st")]);
    }

    #[test]
    fn nulls_skipped_and_all_null_group_is_null() {
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float)]).unwrap();
        let x = nullable(DataType::Float, &[Some(Value::Float(1.0)), None, None]);
        let t = Table::new(schema, vec![Column::from_ints(vec![1, 1, 2]), x]).unwrap();
        let out = aggregate(&t, &["g"], &[(AggFunc::Sum, "x"), (AggFunc::Count, "x")]);
        assert_eq!(out.value(0, "sum_x").unwrap(), Value::Float(1.0));
        assert_eq!(out.value(1, "sum_x").unwrap(), Value::Null);
        assert_eq!(out.value(1, "count_x").unwrap(), Value::Int(0));
    }

    #[test]
    fn null_group_keys_form_one_group() {
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Int)]).unwrap();
        let g = nullable(DataType::Int, &[None, None, Some(Value::Int(1))]);
        let t = Table::new(schema, vec![g, Column::from_ints(vec![1, 2, 3])]).unwrap();
        let out = aggregate(&t, &["g"], &[(AggFunc::Sum, "x")]);
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "sum_x").unwrap(), Value::Float(3.0));
    }
}

mod filter {
    use super::*;

    #[test]
    fn filters_rows() {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("st", DataType::Str)]).unwrap();
        let t = Table::new(
            schema,
            vec![
                Column::from_ints(vec![1, 2, 3]),
                Column::from_strs(&["wi", "md", "wi"]),
            ],
        )
        .unwrap();
        let st = t.column_by_name("st").unwrap();
        let out = filter(&t, |r| st.value(r) == Value::str("wi"));
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(1, "id").unwrap(), Value::Int(3));
    }

    #[test]
    fn empty_result_keeps_schema() {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]).unwrap();
        let t = Table::new(schema, vec![Column::from_ints(vec![1])]).unwrap();
        let out = filter(&t, |_| false);
        assert!(out.is_empty());
        assert_eq!(out.schema().names(), vec!["id"]);
    }
}

mod join {
    use super::*;

    fn orders() -> Table {
        let schema = Schema::from_pairs(&[
            ("oid", DataType::Int),
            ("item", DataType::Int),
            ("profit", DataType::Float),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints(vec![100, 101, 102, 103]),
                Column::from_ints(vec![1, 2, 1, 9]),
                Column::from_floats(vec![5.0, 6.0, 7.0, 8.0]),
            ],
        )
        .unwrap()
    }

    fn items() -> Table {
        let schema =
            Schema::from_pairs(&[("item", DataType::Int), ("category", DataType::Str)]).unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints(vec![1, 2, 3]),
                Column::from_strs(&["laptop", "desktop", "tablet"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn joins_matching_rows() {
        let out = natural_join(&orders(), &items(), "item");
        // item 9 has no match; items 1,2,1 match
        assert_eq!(out.num_rows(), 3);
        assert_eq!(
            out.schema().names(),
            vec!["oid", "item", "profit", "category"]
        );
        assert_eq!(out.value(0, "category").unwrap(), Value::str("laptop"));
        assert_eq!(out.value(1, "category").unwrap(), Value::str("desktop"));
        assert_eq!(out.value(2, "category").unwrap(), Value::str("laptop"));
    }

    #[test]
    #[should_panic(expected = "duplicate primary key")]
    fn duplicate_pk_rejected() {
        let schema = Schema::from_pairs(&[("item", DataType::Int)]).unwrap();
        let dup = Table::new(schema, vec![Column::from_ints(vec![1, 1])]).unwrap();
        natural_join(&orders(), &dup, "item");
    }

    #[test]
    fn null_keys_never_join() {
        let schema = Schema::from_pairs(&[("item", DataType::Int)]).unwrap();
        let left = Table::new(
            schema,
            vec![nullable(DataType::Int, &[Some(Value::Int(1)), None])],
        )
        .unwrap();
        let out = natural_join(&left, &items(), "item");
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    #[should_panic(expected = "types differ")]
    fn type_mismatch_on_key() {
        let schema = Schema::from_pairs(&[("item", DataType::Str)]).unwrap();
        let bad = Table::new(schema, vec![Column::from_strs(&["1"])]).unwrap();
        natural_join(&orders(), &bad, "item");
    }

    #[test]
    fn join_preserves_left_multiplicity() {
        // FK join must keep one output row per fact row, never more.
        let out = natural_join(&orders(), &items(), "item");
        let matched_left = 3; // oid 100,101,102
        assert_eq!(out.num_rows(), matched_left);
    }
}

mod project {
    use super::*;

    fn orders() -> Table {
        let schema = Schema::from_pairs(&[
            ("item", DataType::Int),
            ("ad", DataType::Int),
            ("qty", DataType::Int),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints(vec![1, 1, 2, 1]),
                Column::from_ints(vec![10, 10, 11, 12]),
                Column::from_ints(vec![5, 6, 7, 8]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dedup_single_column() {
        let out = project_distinct(&orders(), &["ad"]);
        assert_eq!(out.num_rows(), 3);
        let ads: Vec<i64> = (0..3)
            .map(|r| out.value(r, "ad").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(ads, vec![10, 11, 12]); // first-appearance order
    }

    #[test]
    fn dedup_multi_column() {
        let out = project_distinct(&orders(), &["item", "ad"]);
        assert_eq!(out.num_rows(), 3); // (1,10) appears twice
    }

    #[test]
    #[should_panic(expected = "UnknownColumn")]
    fn missing_column_errors() {
        project_distinct(&orders(), &["nope"]);
    }

    #[test]
    fn distinct_of_distinct_is_identity() {
        let once = project_distinct(&orders(), &["item"]);
        let twice = project_distinct(&once, &["item"]);
        assert_eq!(once.num_rows(), twice.num_rows());
    }
}
