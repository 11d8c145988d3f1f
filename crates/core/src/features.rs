//! Feature and target generation queries (§3.2, §4.1).
//!
//! The historical database is a star schema `DB = {F, T₁, …, Tₙ}`. Three
//! stylized aggregate-select-join query forms generate one regional
//! feature each:
//!
//! * `α_f(F.A) σ_{ID=i, Z∈r} F` — aggregate a fact column;
//! * `α_f(T.A) ((σ_{ID=i, Z∈r} F) ⋈ T)` — aggregate a reference-table
//!   column once per matching fact row;
//! * `α_f(T.A) ((π_FK σ_{ID=i, Z∈r} F) ⋈ T)` — aggregate a reference
//!   column once per *distinct* foreign key.
//!
//! [`build_cube_input`] applies the §4.2 rewrite, turning the per-region
//! per-item selections into inputs for one CUBE pass. The queries are
//! the caller's: §3.4's automatic generation from the schema is not
//! implemented (DESIGN.md §5).

use crate::error::{BellwetherError, Result};
use bellwether_cube::{CubeInput, Dimension, Measure, Parallelism, RegionSpace};
use bellwether_table::ops::AggFunc;
use bellwether_table::{Table, Value};
use std::collections::HashMap;

/// One regional feature, defined by a stylized query form.
#[derive(Debug, Clone)]
pub enum FeatureQuery {
    /// `α_func(F.column)` over the item's fact rows in the region.
    FactAgg {
        /// Output feature name.
        name: String,
        /// Fact column to aggregate.
        column: String,
        /// Aggregate function (Sum, Min, Max, Avg or Count).
        func: AggFunc,
    },
    /// `α_func(T.column)` over the reference rows matched by the item's
    /// fact rows in the region (one contribution per fact row).
    JoinAgg {
        /// Output feature name.
        name: String,
        /// Reference table name.
        table: String,
        /// Foreign-key column in the fact table.
        fk: String,
        /// Reference-table column to aggregate.
        column: String,
        /// Aggregate function.
        func: AggFunc,
    },
    /// `α_func(T.column)` over the *distinct* foreign keys of the item's
    /// fact rows in the region (each reference row counted once).
    DistinctJoinAgg {
        /// Output feature name.
        name: String,
        /// Reference table name.
        table: String,
        /// Foreign-key column in the fact table.
        fk: String,
        /// Reference-table column to aggregate (ignored for
        /// CountDistinct).
        column: String,
        /// Aggregate function (Sum, Min, Max, Avg or CountDistinct).
        func: AggFunc,
    },
}

impl FeatureQuery {
    /// The output feature name.
    pub fn name(&self) -> &str {
        match self {
            FeatureQuery::FactAgg { name, .. }
            | FeatureQuery::JoinAgg { name, .. }
            | FeatureQuery::DistinctJoinAgg { name, .. } => name,
        }
    }
}

/// Per-fact-row `(foreign key, joined reference value)` columns.
type JoinedValues = (Vec<Option<i64>>, Vec<Option<f64>>);

/// The historical star-schema database.
#[derive(Debug, Clone)]
pub struct StarDatabase {
    /// The fact table `F` (e.g. OrderTable).
    pub fact: Table,
    /// Reference tables by name, each with its primary-key column.
    pub refs: HashMap<String, (Table, String)>,
    /// Name of the item-id column in the fact table.
    pub item_col: String,
    /// Names of the fact columns carrying the dimension coordinates, in
    /// region-space dimension order. Interval dimensions expect Int time
    /// points (1-based); hierarchical dimensions expect Str leaf labels.
    pub dim_cols: Vec<String>,
}

impl StarDatabase {
    /// Load a star database from CSV readers: `(schema, reader)` for the
    /// fact table and `(name, schema, pk, reader)` per reference table.
    /// Headers must match the schemas. This is the adoption path for
    /// real exported data — see `examples/quickstart.rs` for the
    /// in-memory route.
    pub fn from_csv<F: std::io::BufRead, R: std::io::BufRead>(
        fact: (bellwether_table::Schema, F),
        item_col: impl Into<String>,
        dim_cols: Vec<String>,
        references: Vec<(String, bellwether_table::Schema, String, R)>,
    ) -> Result<Self> {
        let fact = bellwether_table::csv::read_csv(fact.0, fact.1)?;
        let mut refs = HashMap::new();
        for (name, schema, pk, reader) in references {
            let table = bellwether_table::csv::read_csv(schema, reader)?;
            refs.insert(name, (table, pk));
        }
        Ok(StarDatabase {
            fact,
            refs,
            item_col: item_col.into(),
            dim_cols,
        })
    }

    /// Look up a reference table.
    fn reference(&self, name: &str) -> Result<&(Table, String)> {
        self.refs
            .get(name)
            .ok_or_else(|| BellwetherError::NotFound(format!("reference table {name}")))
    }

    /// Item ids of all fact rows.
    pub fn fact_item_ids(&self) -> Result<Vec<i64>> {
        let col = self.fact.column_by_name(&self.item_col)?;
        let data = col.as_int(&self.item_col)?;
        Ok(data.values.clone())
    }

    /// Dimension coordinates of all fact rows, flattened row-major, using
    /// the space's dimensions to map raw values to coordinate ids.
    pub fn fact_coords(&self, space: &RegionSpace) -> Result<Vec<u32>> {
        if space.arity() != self.dim_cols.len() {
            return Err(BellwetherError::Config(format!(
                "space arity {} != dim_cols {}",
                space.arity(),
                self.dim_cols.len()
            )));
        }
        let n = self.fact.num_rows();
        let mut coords = vec![0u32; n * space.arity()];
        for (d, (dim, col_name)) in space.dims().iter().zip(&self.dim_cols).enumerate() {
            let col = self.fact.column_by_name(col_name)?;
            match dim {
                Dimension::Interval { max_t, name } => {
                    let data = col.as_int(col_name)?;
                    for row in 0..n {
                        let t = data.values[row];
                        if t < 1 || t as u32 > *max_t {
                            return Err(BellwetherError::Config(format!(
                                "time point {t} out of range 1..={max_t} in dimension {name}"
                            )));
                        }
                        coords[row * space.arity() + d] = (t - 1) as u32;
                    }
                }
                Dimension::Hierarchy(h) => {
                    let data = col.as_str(col_name)?;
                    // memoize label → node lookups (states repeat heavily)
                    let mut cache: HashMap<&str, u32> = HashMap::new();
                    for row in 0..n {
                        let label: &str = &data.values[row];
                        let node = match cache.get(label) {
                            Some(&v) => v,
                            None => {
                                let v = h.id_of(label).ok_or_else(|| {
                                    BellwetherError::NotFound(format!(
                                        "hierarchy {} leaf {label:?}",
                                        h.name()
                                    ))
                                })?;
                                if !h.is_leaf(v) {
                                    return Err(BellwetherError::Config(format!(
                                        "fact row {row} references non-leaf {label:?}"
                                    )));
                                }
                                cache.insert(label, v);
                                v
                            }
                        };
                        coords[row * space.arity() + d] = node;
                    }
                }
            }
        }
        Ok(coords)
    }

    /// Per-fact-row numeric values of a fact column (`None` = NULL).
    fn fact_values(&self, column: &str) -> Result<Vec<Option<f64>>> {
        let col = self.fact.column_by_name(column)?;
        Ok((0..self.fact.num_rows()).map(|r| col.float_at(r)).collect())
    }

    /// Per-fact-row foreign keys and their joined reference values.
    fn joined_values(&self, table: &str, fk: &str, column: &str) -> Result<JoinedValues> {
        let (ref_table, pk) = self.reference(table)?;
        let pk_col = ref_table.column_by_name(pk)?.as_int(pk)?;
        let val_col = ref_table.column_by_name(column)?;
        let mut lut: HashMap<i64, Option<f64>> = HashMap::with_capacity(ref_table.num_rows());
        for row in 0..ref_table.num_rows() {
            if pk_col.is_valid(row)
                && lut
                    .insert(pk_col.values[row], val_col.float_at(row))
                    .is_some()
                {
                    return Err(BellwetherError::Config(format!(
                        "duplicate primary key in reference table {table}"
                    )));
                }
        }
        let fk_col = self.fact.column_by_name(fk)?.as_int(fk)?;
        let n = self.fact.num_rows();
        let mut keys = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for row in 0..n {
            if fk_col.is_valid(row) {
                let k = fk_col.values[row];
                match lut.get(&k) {
                    Some(v) => {
                        keys.push(Some(k));
                        values.push(*v);
                    }
                    None => {
                        // dangling FK: never joins (inner-join semantics)
                        keys.push(None);
                        values.push(None);
                    }
                }
            } else {
                keys.push(None);
                values.push(None);
            }
        }
        Ok((keys, values))
    }
}

/// Apply the §4.2 rewrite: compile feature queries into one CUBE input,
/// with default [`Parallelism`].
pub fn build_cube_input(
    db: &StarDatabase,
    space: &RegionSpace,
    queries: &[FeatureQuery],
) -> Result<CubeInput> {
    build_cube_input_with(db, space, queries, Parallelism::default())
}

/// [`build_cube_input`] with an explicit thread budget: measure columns
/// are materialised query-by-query, so independent queries shard across
/// workers. Output order is query order regardless of thread count.
pub fn build_cube_input_with(
    db: &StarDatabase,
    space: &RegionSpace,
    queries: &[FeatureQuery],
    par: Parallelism,
) -> Result<CubeInput> {
    let item_ids = db.fact_item_ids()?;
    let coords = db.fact_coords(space)?;
    let build_measure = |q: &FeatureQuery| -> Result<Measure> {
        Ok(match q {
            FeatureQuery::FactAgg { name, column, func } => Measure::Numeric {
                name: name.clone(),
                func: *func,
                values: db.fact_values(column)?,
            },
            FeatureQuery::JoinAgg {
                name,
                table,
                fk,
                column,
                func,
            } => {
                let (_, values) = db.joined_values(table, fk, column)?;
                Measure::Numeric {
                    name: name.clone(),
                    func: *func,
                    values,
                }
            }
            FeatureQuery::DistinctJoinAgg {
                name,
                table,
                fk,
                column,
                func,
            } => {
                let (keys, values) = db.joined_values(table, fk, column)?;
                // A NULL reference value cannot contribute to the distinct
                // aggregate: drop the key too.
                let (keys, values): (Vec<_>, Vec<_>) = keys
                    .into_iter()
                    .zip(values)
                    .map(|(k, v)| match (k, v) {
                        (Some(k), Some(v)) => (Some(k), v),
                        _ => (None, 0.0),
                    })
                    .unzip();
                Measure::DistinctKeyed {
                    name: name.clone(),
                    func: *func,
                    keys,
                    values,
                }
            }
        })
    };

    let threads = par.threads_for(queries.len());
    let results: Vec<Result<Measure>> = if threads <= 1 {
        queries.iter().map(build_measure).collect()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let lo = queries.len() * w / threads;
                    let hi = queries.len() * (w + 1) / threads;
                    let build_measure = &build_measure;
                    s.spawn(move || queries[lo..hi].iter().map(build_measure).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("measure worker panicked"))
                .collect()
        })
    };
    let measures = results.into_iter().collect::<Result<Vec<Measure>>>()?;
    Ok(CubeInput {
        item_ids,
        coords,
        measures,
    })
}

/// The target generation query τ (§3.2): one global aggregate of a fact
/// column per item — e.g. total first-year worldwide profit. Items with
/// no fact rows are absent.
pub fn global_target(db: &StarDatabase, column: &str, func: AggFunc) -> Result<HashMap<i64, f64>> {
    use bellwether_table::ops::{aggregate, AggExpr};
    let out = aggregate(
        &db.fact,
        &[db.item_col.as_str()],
        &[AggExpr::new(func, column).with_alias("target")],
    )?;
    let ids = out.column_by_name(&db.item_col)?;
    let targets = out.column_by_name("target")?;
    let mut map = HashMap::with_capacity(out.num_rows());
    for row in 0..out.num_rows() {
        if let (Value::Int(id), Some(t)) = (ids.value(row), targets.float_at(row)) {
            map.insert(id, t);
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_cube::{cube_pass, Hierarchy, RegionId};
    use bellwether_table::{Column, DataType, Schema};

    /// The motivating example's schema in miniature: orders + ads.
    fn db() -> StarDatabase {
        let fact = Table::new(
            Schema::from_pairs(&[
                ("item", DataType::Int),
                ("week", DataType::Int),
                ("state", DataType::Str),
                ("profit", DataType::Float),
                ("ad", DataType::Int),
            ])
            .unwrap(),
            vec![
                Column::from_ints(vec![1, 1, 1, 2]),
                Column::from_ints(vec![1, 2, 1, 2]),
                Column::from_strs(&["WI", "WI", "MD", "MD"]),
                Column::from_floats(vec![10.0, 20.0, 5.0, 1.0]),
                Column::from_ints(vec![7, 7, 8, 9]),
            ],
        )
        .unwrap();
        let ads = Table::new(
            Schema::from_pairs(&[("ad", DataType::Int), ("size", DataType::Float)]).unwrap(),
            vec![
                Column::from_ints(vec![7, 8]),
                Column::from_floats(vec![3.0, 9.0]),
            ],
        )
        .unwrap();
        let mut refs = HashMap::new();
        refs.insert("ads".to_string(), (ads, "ad".to_string()));
        StarDatabase {
            fact,
            refs,
            item_col: "item".into(),
            dim_cols: vec!["week".into(), "state".into()],
        }
    }

    fn space() -> RegionSpace {
        let mut loc = Hierarchy::new("Loc", "All");
        let us = loc.add_child(0, "US");
        loc.add_child(us, "WI");
        loc.add_child(us, "MD");
        RegionSpace::new(vec![
            Dimension::Interval {
                name: "Time".into(),
                max_t: 2,
            },
            Dimension::Hierarchy(loc),
        ])
    }

    fn queries() -> Vec<FeatureQuery> {
        vec![
            FeatureQuery::FactAgg {
                name: "regional_profit".into(),
                column: "profit".into(),
                func: AggFunc::Sum,
            },
            FeatureQuery::JoinAgg {
                name: "max_ad_size".into(),
                table: "ads".into(),
                fk: "ad".into(),
                column: "size".into(),
                func: AggFunc::Max,
            },
            FeatureQuery::DistinctJoinAgg {
                name: "total_ad_size".into(),
                table: "ads".into(),
                fk: "ad".into(),
                column: "size".into(),
                func: AggFunc::Sum,
            },
        ]
    }

    #[test]
    fn end_to_end_motivating_example() {
        let db = db();
        let space = space();
        let input = build_cube_input(&db, &space, &queries()).unwrap();
        let result = cube_pass(&space, &input);

        // [1-2, WI] item 1: profit 30, max ad size 3, distinct-ad total 3
        let f = result.features(&RegionId(vec![1, 2]), 1).unwrap();
        assert_eq!(f.iter().collect::<Vec<_>>(), [Some(30.0), Some(3.0), Some(3.0)]);
        // [1-2, All] item 1: profit 35, max size 9, distinct ads {7,8} → 12
        let f = result.features(&RegionId(vec![1, 0]), 1).unwrap();
        assert_eq!(f.iter().collect::<Vec<_>>(), [Some(35.0), Some(9.0), Some(12.0)]);
    }

    #[test]
    fn global_target_sums_fact() {
        let t = global_target(&db(), "profit", AggFunc::Sum).unwrap();
        assert_eq!(t[&1], 35.0);
        assert_eq!(t[&2], 1.0);
    }

    #[test]
    fn dangling_fk_never_joins() {
        let db = db(); // ad 9 has no reference row
        let (keys, values) = db.joined_values("ads", "ad", "size").unwrap();
        assert_eq!(keys[3], None);
        assert_eq!(values[3], None);
        assert_eq!(keys[0], Some(7));
        assert_eq!(values[0], Some(3.0));
    }

    #[test]
    fn bad_time_point_rejected() {
        let mut db = db();
        db.dim_cols = vec!["week".into(), "state".into()];
        let space = RegionSpace::new(vec![
            Dimension::Interval {
                name: "Time".into(),
                max_t: 1, // week 2 rows now out of range
            },
            Dimension::Hierarchy(Hierarchy::flat("Loc", "All", &["WI", "MD"])),
        ]);
        assert!(db.fact_coords(&space).is_err());
    }

    #[test]
    fn star_database_loads_from_csv() {
        use bellwether_table::Schema;
        let fact_csv = "item,week,state,profit\n1,1,WI,10.5\n1,2,WI,20.0\n2,1,MD,5.0\n";
        let ads_csv = "ad,size\n7,3.0\n8,9.0\n";
        let fact_schema = Schema::from_pairs(&[
            ("item", DataType::Int),
            ("week", DataType::Int),
            ("state", DataType::Str),
            ("profit", DataType::Float),
        ])
        .unwrap();
        let ads_schema =
            Schema::from_pairs(&[("ad", DataType::Int), ("size", DataType::Float)]).unwrap();
        let db = StarDatabase::from_csv(
            (fact_schema, std::io::Cursor::new(fact_csv)),
            "item",
            vec!["week".into(), "state".into()],
            vec![(
                "ads".to_string(),
                ads_schema,
                "ad".to_string(),
                std::io::Cursor::new(ads_csv),
            )],
        )
        .unwrap();
        assert_eq!(db.fact.num_rows(), 3);
        assert_eq!(db.refs["ads"].0.num_rows(), 2);
        let targets = global_target(&db, "profit", AggFunc::Sum).unwrap();
        assert_eq!(targets[&1], 30.5);
    }

    #[test]
    fn unknown_reference_table_errors() {
        let db = db();
        let bad = vec![FeatureQuery::JoinAgg {
            name: "x".into(),
            table: "nope".into(),
            fk: "ad".into(),
            column: "size".into(),
            func: AggFunc::Max,
        }];
        assert!(build_cube_input(&db, &space(), &bad).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let db = db();
        let one_dim = RegionSpace::new(vec![Dimension::Interval {
            name: "T".into(),
            max_t: 2,
        }]);
        assert!(db.fact_coords(&one_dim).is_err());
    }
}
