//! The CUBE pass against the paper's own definition of what it computes.
//!
//! §4.2 rewrites the per-region, per-item feature queries
//! `α_f σ_{ID=i, Z∈r} F` and `α_f(T.A)((π_FK σ_{ID=i, Z∈r} F) ⋈ T)` into
//! one pass. Here the queries are evaluated as written, region by region,
//! with the σ / π / ⋈ / α operators of `relalg` over generated star
//! schemas, and the pass must agree — read only through the view every
//! consumer reads (`regions.get()` / `iter()` / `features()`). Nothing of
//! the kernel is shared: not its keys, its tables, nor its notion of
//! which cells a region contains.
//!
//! Every measure value is a multiple of 1/8 in a range where all sums
//! are exact, so the two sides agree to the bit in any order of addition.

mod relalg;

use bellwether_cube::{
    cube_pass, CubeInput, Dimension, Hierarchy, Measure, NoopRecorder, Parallelism, RegionId,
    RegionSpace,
};
use bellwether_prop::{check, Rng};
use bellwether_table::ops::AggFunc;
use bellwether_table::{Column, ColumnBuilder, DataType, Schema, Table, Value};
use relalg::{aggregate, filter, natural_join, project_distinct};
use std::collections::HashSet;

/// One fact row: item, time point (0-based), location leaf, measure, FK.
type Fact = (i64, u32, u32, Option<f64>, Option<i64>);

struct Star {
    space: RegionSpace,
    loc: Hierarchy,
    rows: Vec<Fact>,
    /// `F(item, t, loc, x, fk)`.
    fact: Table,
    /// `T(fk, size)`, `fk` its key.
    reference: Table,
    /// An item of the catalogue no fact row mentions.
    ghost: i64,
}

fn star(rng: &mut Rng) -> Star {
    let mut loc = Hierarchy::new("Loc", "All");
    for c in 0..rng.u32_in(1, 4) {
        let child = loc.add_child(0, format!("c{c}"));
        for g in 0..rng.u32_in(0, 3) {
            loc.add_child(child, format!("c{c}g{g}"));
        }
    }
    let max_t = rng.u32_in(1, 7);
    let space = RegionSpace::new(vec![
        Dimension::Interval { name: "T".into(), max_t },
        Dimension::Hierarchy(loc.clone()),
    ]);
    let leaves = loc.leaves();
    let items: Vec<i64> = (0..rng.i64_in(1, 7)).map(|i| i * 11 - 20).collect();
    let n_keys = rng.i64_in(1, 9);
    let eighths = |rng: &mut Rng| rng.i64_in(-800, 800) as f64 / 8.0;
    let sizes: Vec<f64> = (0..n_keys).map(|_| eighths(rng)).collect();

    let n_rows = *rng.choice(&[1usize, 8, 60, 300]);
    let rows: Vec<Fact> = (0..n_rows)
        .map(|_| {
            (
                *rng.choice(&items),
                rng.u32_in(0, max_t),
                *rng.choice(&leaves),
                (!rng.flip(0.2)).then(|| eighths(rng)),
                (!rng.flip(0.3)).then(|| rng.i64_in(0, n_keys)),
            )
        })
        .collect();

    let mut x = ColumnBuilder::new(DataType::Float);
    let mut fk = ColumnBuilder::new(DataType::Int);
    for &(.., xv, fkv) in &rows {
        x.push_value(xv.map_or(Value::Null, Value::Float)).unwrap();
        fk.push_value(fkv.map_or(Value::Null, Value::Int)).unwrap();
    }
    let fact = Table::new(
        Schema::from_pairs(&[
            ("item", DataType::Int),
            ("t", DataType::Int),
            ("loc", DataType::Int),
            ("x", DataType::Float),
            ("fk", DataType::Int),
        ])
        .unwrap(),
        vec![
            Column::from_ints(rows.iter().map(|r| r.0).collect()),
            Column::from_ints(rows.iter().map(|r| r.1 as i64).collect()),
            Column::from_ints(rows.iter().map(|r| r.2 as i64).collect()),
            x.finish(),
            fk.finish(),
        ],
    )
    .unwrap();
    let reference = Table::new(
        Schema::from_pairs(&[("fk", DataType::Int), ("size", DataType::Float)]).unwrap(),
        vec![Column::from_ints((0..n_keys).collect()), Column::from_floats(sizes)],
    )
    .unwrap();
    Star { space, loc, rows, fact, reference, ghost: 1000 }
}

/// The fact rows as the pass takes them: every numeric function over `x`,
/// and both distinct-FK forms over `fk → size`.
fn cube_input(star: &Star) -> CubeInput {
    let sizes = star.reference.column_by_name("size").unwrap();
    let numeric = |name: &str, func| Measure::Numeric {
        name: name.into(),
        func,
        values: star.rows.iter().map(|r| r.3).collect(),
    };
    let distinct = |name: &str, func| Measure::DistinctKeyed {
        name: name.into(),
        func,
        keys: star.rows.iter().map(|r| r.4).collect(),
        values: star.rows.iter().map(|r| r.4.map_or(0.0, |k| sizes.float_at(k as usize).unwrap())).collect(),
    };
    CubeInput {
        item_ids: star.rows.iter().map(|r| r.0).collect(),
        coords: star.rows.iter().flat_map(|r| [r.1, r.2]).collect(),
        measures: vec![
            numeric("sum", AggFunc::Sum),
            numeric("min", AggFunc::Min),
            numeric("max", AggFunc::Max),
            numeric("avg", AggFunc::Avg),
            numeric("count", AggFunc::Count),
            distinct("d_sum", AggFunc::Sum),
            distinct("d_count", AggFunc::CountDistinct),
        ],
    }
}

/// The leaves at or below `node`, by walking down.
fn leaves_under(h: &Hierarchy, node: u32) -> Vec<Value> {
    if h.is_leaf(node) {
        return vec![Value::Int(node as i64)];
    }
    h.children(node).iter().flat_map(|&c| leaves_under(h, c)).collect()
}

/// `α_{item; aggs}` of `table` as `(item, one optional value per agg)`.
fn per_item(table: &Table, aggs: &[(AggFunc, &str)]) -> Vec<(i64, Vec<Option<f64>>)> {
    let out = aggregate(table, &["item"], aggs);
    (0..out.num_rows())
        .map(|row| {
            let item = out.column(0).value(row).as_int().unwrap();
            let vals = (1..=aggs.len()).map(|c| out.column(c).value(row).as_float()).collect();
            (item, vals)
        })
        .collect()
}

#[test]
fn cube_pass_agrees_with_the_feature_queries_as_written() {
    let numeric = [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg, AggFunc::Count].map(|f| (f, "x"));
    let distinct = [(AggFunc::Sum, "size"), (AggFunc::CountDistinct, "fk")];
    check("cube pass = σ/π/⋈/α", 60, |rng| {
        let star = star(rng);
        let threads = *rng.choice(&[1usize, 3]);
        let par = Parallelism::fixed(threads);
        let cube = cube_pass(&star.space, &cube_input(&star), par, &NoopRecorder).unwrap();
        assert_eq!(cube.measure_names, ["sum", "min", "max", "avg", "count", "d_sum", "d_count"]);

        let mut nonempty = HashSet::new();
        for t in 0..star.space.dims()[0].num_values() {
            for node in 0..star.loc.num_nodes() {
                let region = RegionId(vec![t, node]);
                // σ_{T ≤ t, Loc under node}
                let leaves = leaves_under(&star.loc, node);
                let (time, loc) = (star.fact.column(1), star.fact.column(2));
                let selected = filter(&star.fact, |r| {
                    time.value(r) <= Value::Int(t as i64) && leaves.contains(&loc.value(r))
                });
                let want = per_item(&selected, &numeric);
                let joined =
                    natural_join(&project_distinct(&selected, &["item", "fk"]), &star.reference, "fk");
                let want_distinct = per_item(&joined, &distinct);

                let Some(cols) = cube.regions.get(&region) else {
                    assert!(want.is_empty(), "{region:?} missing");
                    continue;
                };
                nonempty.insert(region.clone());
                assert_eq!(cols.len(), want.len(), "{region:?}: covered items");
                assert_eq!(cube.coverage_count(&region), want.len());
                let ids: Vec<i64> = cols.iter().map(|(id, _)| id).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{region:?}: {ids:?}");
                assert!(cube.features(&region, star.ghost).is_none());
                for (item, vals) in &want {
                    let got = cube.features(&region, *item).unwrap_or_else(|| panic!("{region:?} item {item}"));
                    assert!(ids.contains(item));
                    assert_eq!(got.len(), 7);
                    assert_eq!(&got.iter().take(5).collect::<Vec<_>>(), vals, "{region:?} item {item}");
                    // An item whose rows carry no FK joins nothing: NULL
                    // sum, zero keys.
                    let d = want_distinct.iter().find(|(i, _)| i == item);
                    let d = d.map_or(vec![None, Some(0.0)], |(_, v)| v.clone());
                    assert_eq!(got.iter().skip(5).collect::<Vec<_>>(), d, "{region:?} item {item} distinct");
                }
            }
        }
        assert_eq!(cube.regions.len(), nonempty.len(), "a region outside the space");
    });
}
