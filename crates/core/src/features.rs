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
use bellwether_cube::parallel::{fork_join, split_point};
use bellwether_cube::{aggregate_filtered, CubeInput, Dimension, Measure, Parallelism, RegionSpace};
use bellwether_table::ops::AggFunc;
use bellwether_table::{Column, ColumnData, DataType, Table, TableError};
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
    /// fact rows in the region (one contribution per fact row). `func` is
    /// Sum, Min, Max, Avg or Count.
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
        /// Reference-table column to aggregate (for CountDistinct only
        /// its NULLs matter: a key whose value is NULL is not counted).
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

/// Per-fact-row `(foreign key, joined reference value)` lanes under one
/// validity: a row is valid when its key joins a non-NULL value.
type JoinedValues = (ColumnData<i64>, ColumnData<f64>);

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

    /// Item ids of all fact rows. A NULL id is an error: the row would
    /// otherwise count towards whatever item its filler value names.
    pub fn fact_item_ids(&self) -> Result<Vec<i64>> {
        let col = self.fact.column_by_name(&self.item_col)?;
        let data = col.as_int(&self.item_col)?;
        if col.null_count() > 0 {
            return Err(BellwetherError::Config(format!(
                "item column {} holds NULL ids",
                self.item_col
            )));
        }
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

    /// Per-fact-row numeric values of a fact column, with its validity,
    /// for `func` to aggregate.
    fn fact_values(&self, column: &str, func: AggFunc) -> Result<ColumnData<f64>> {
        Ok(match numeric_column(&self.fact, column, func)? {
            Column::Float(col) => col.clone(),
            Column::Int(col) => ColumnData {
                values: col.values.iter().map(|&v| v as f64).collect(),
                validity: col.validity.clone(),
            },
            Column::Str(_) => unreachable!("numeric_column refuses Str"),
        })
    }

    /// Per-fact-row foreign keys and their joined reference values, for
    /// `func` to aggregate.
    fn joined_values(
        &self,
        table: &str,
        fk: &str,
        column: &str,
        func: AggFunc,
    ) -> Result<JoinedValues> {
        let (ref_table, pk) = self.reference(table)?;
        let pk_col = ref_table.column_by_name(pk)?.as_int(pk)?;
        let val_col = numeric_column(ref_table, column, func)?;
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
        // A NULL or dangling key never joins (inner-join semantics).
        let values: ColumnData<f64> = (0..fk_col.values.len())
            .map(|row| fk_col.get(row).and_then(|k| lut.get(&k).copied().flatten()))
            .collect();
        let keys = ColumnData {
            values: fk_col.values.clone(),
            validity: values.validity.clone(),
        };
        Ok((keys, values))
    }
}

/// Column `name` of `table`, refusing a `Str` column: its rows have no
/// number for `func` to aggregate.
fn numeric_column<'t>(table: &'t Table, name: &str, func: AggFunc) -> Result<&'t Column> {
    let col = table.column_by_name(name)?;
    if col.dtype() == DataType::Str {
        return Err(TableError::UnsupportedAggregate {
            func: func.name(),
            dtype: DataType::Str.name(),
        }
        .into());
    }
    Ok(col)
}

/// `Err` unless the CUBE kernel computes `func` over `name`'s measure
/// kind: per fact row (`distinct == false`) it folds Sum, Min, Max, Avg
/// and Count; over distinct foreign keys, Sum, Min, Max, Avg and
/// CountDistinct.
fn check_func(name: &str, func: AggFunc, distinct: bool) -> Result<()> {
    let refused = if distinct { AggFunc::Count } else { AggFunc::CountDistinct };
    if func != refused {
        return Ok(());
    }
    let over = if distinct { "distinct foreign keys" } else { "fact rows" };
    Err(BellwetherError::Config(format!(
        "{name}: {} is not computed over {over}",
        func.name()
    )))
}

/// Apply the §4.2 rewrite: compile feature queries into one CUBE input.
/// Measure columns are materialised query-by-query, so independent
/// queries shard across the default [`Parallelism`]'s workers. Output
/// order is query order regardless of thread count.
pub fn build_cube_input(
    db: &StarDatabase,
    space: &RegionSpace,
    queries: &[FeatureQuery],
) -> Result<CubeInput> {
    let item_ids = db.fact_item_ids()?;
    let coords = db.fact_coords(space)?;
    let build_measure = |q: &FeatureQuery| -> Result<Measure> {
        Ok(match q {
            FeatureQuery::FactAgg { name, column, func } => {
                check_func(name, *func, false)?;
                Measure::Numeric {
                    name: name.clone(),
                    func: *func,
                    values: db.fact_values(column, *func)?,
                }
            }
            FeatureQuery::JoinAgg {
                name,
                table,
                fk,
                column,
                func,
            } => {
                check_func(name, *func, false)?;
                let (_, values) = db.joined_values(table, fk, column, *func)?;
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
                check_func(name, *func, true)?;
                // A NULL reference value cannot contribute to the distinct
                // aggregate: its key is NULL too.
                let (keys, values) = db.joined_values(table, fk, column, *func)?;
                Measure::DistinctKeyed {
                    name: name.clone(),
                    func: *func,
                    keys,
                    values: values.values,
                }
            }
        })
    };

    let threads = Parallelism::default().threads_for(queries.len());
    let cut = |w| split_point(queries.len() as u64, w, threads) as usize;
    let measures = fork_join(threads, |w| {
        queries[cut(w)..cut(w + 1)]
            .iter()
            .map(build_measure)
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect::<Result<Vec<Measure>>>()?;
    Ok(CubeInput {
        item_ids,
        coords,
        measures,
    })
}

/// The target generation query τ (§3.2): one global aggregate of a fact
/// column per item — e.g. total first-year worldwide profit. Items with
/// no fact rows, or whose aggregate is NULL, are absent.
///
/// τ is one [`Measure::Numeric`] folded by the CUBE kernel with no
/// dimension and every row kept, so it aggregates exactly as a feature
/// does: per row chunk, the chunks merged in order.
pub fn global_target(db: &StarDatabase, column: &str, func: AggFunc) -> Result<HashMap<i64, f64>> {
    check_func("target", func, false)?;
    let input = CubeInput {
        item_ids: db.fact_item_ids()?,
        coords: Vec::new(),
        measures: vec![Measure::Numeric {
            name: "target".into(),
            func,
            values: db.fact_values(column, func)?,
        }],
    };
    let tau = aggregate_filtered(&input, 0, |_| true)?;
    let ids = tau.item_ids().iter().enumerate();
    Ok(ids.filter_map(|(at, &id)| Some((id, tau.lane(0).get(at)?))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_cube::{cube_pass, Hierarchy, NoopRecorder, RegionId};
    use bellwether_table::{Column, DataType, Schema, Value};

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
            Schema::from_pairs(&[
                ("ad", DataType::Int),
                ("size", DataType::Float),
                ("kind", DataType::Str),
            ])
            .unwrap(),
            vec![
                Column::from_ints(vec![7, 8]),
                Column::from_floats(vec![3.0, 9.0]),
                Column::from_strs(&["banner", "video"]),
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
        let result = cube_pass(&space, &input, Parallelism::default(), &NoopRecorder).unwrap();

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
    fn measure_lanes_keep_a_bitmap_only_where_a_row_is_null() {
        let db = db();
        let mut queries = queries();
        queries.push(FeatureQuery::FactAgg {
            name: "ad_ids".into(),
            column: "ad".into(),
            func: AggFunc::Sum,
        });
        let input = build_cube_input(&db, &space(), &queries).unwrap();
        let lane = |m: usize| match &input.measures[m] {
            Measure::Numeric { values, .. } => values.clone(),
            Measure::DistinctKeyed { .. } => unreachable!("measure {m} is numeric"),
        };
        // A Float column with no NULL row, and an Int one widened.
        assert_eq!(
            (lane(0).values, lane(0).validity),
            (vec![10.0, 20.0, 5.0, 1.0], None)
        );
        assert_eq!(
            (lane(3).values, lane(3).validity),
            (vec![7.0, 7.0, 8.0, 9.0], None)
        );
        // Ad 9 dangles: both joined lanes clear row 3, and only row 3.
        let sizes = lane(1);
        assert_eq!(
            (0..4).map(|r| sizes.get(r)).collect::<Vec<_>>(),
            [Some(3.0), Some(3.0), Some(9.0), None]
        );
        let Measure::DistinctKeyed { keys, .. } = &input.measures[2] else {
            unreachable!("measure 2 is distinct-keyed")
        };
        assert_eq!(
            (0..4).map(|r| keys.get(r)).collect::<Vec<_>>(),
            [Some(7), Some(7), Some(8), None]
        );
    }

    #[test]
    fn dangling_fk_never_joins() {
        let db = db(); // ad 9 has no reference row
        let (keys, values) = db.joined_values("ads", "ad", "size", AggFunc::Max).unwrap();
        assert_eq!(keys.get(3), None);
        assert_eq!(values.get(3), None);
        assert_eq!(keys.get(0), Some(7));
        assert_eq!(values.get(0), Some(3.0));
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

    /// `build_cube_input` on one query: `Err(Config)` is the refusal the
    /// kernel needs, which would otherwise panic inside the pass.
    fn refused(query: FeatureQuery) -> bool {
        match build_cube_input(&db(), &space(), &[query]) {
            Err(BellwetherError::Config(_)) => true,
            Err(e) => panic!("refused for another reason: {e}"),
            Ok(input) => {
                cube_pass(&space(), &input, Parallelism::default(), &NoopRecorder).unwrap();
                false
            }
        }
    }

    #[test]
    fn count_distinct_over_fact_rows_is_refused() {
        assert!(refused(FeatureQuery::FactAgg {
            name: "x".into(),
            column: "profit".into(),
            func: AggFunc::CountDistinct,
        }));
    }

    #[test]
    fn count_distinct_over_joined_rows_is_refused() {
        assert!(refused(FeatureQuery::JoinAgg {
            name: "x".into(),
            table: "ads".into(),
            fk: "ad".into(),
            column: "size".into(),
            func: AggFunc::CountDistinct,
        }));
    }

    #[test]
    fn count_over_distinct_keys_is_refused() {
        assert!(refused(FeatureQuery::DistinctJoinAgg {
            name: "x".into(),
            table: "ads".into(),
            fk: "ad".into(),
            column: "size".into(),
            func: AggFunc::Count,
        }));
    }

    #[test]
    fn count_distinct_target_is_refused() {
        let err = global_target(&db(), "profit", AggFunc::CountDistinct).unwrap_err();
        assert!(matches!(err, BellwetherError::Config(_)), "{err}");
    }

    fn unsupported(r: Result<impl std::fmt::Debug>) -> bool {
        matches!(
            r,
            Err(BellwetherError::Table(TableError::UnsupportedAggregate { dtype: "Str", .. }))
        )
    }

    #[test]
    fn a_string_fact_column_is_not_read_as_nulls() {
        let fact_agg = FeatureQuery::FactAgg {
            name: "x".into(),
            column: "state".into(),
            func: AggFunc::Min,
        };
        assert!(unsupported(build_cube_input(&db(), &space(), &[fact_agg])));
        assert!(unsupported(global_target(&db(), "state", AggFunc::Sum)));
        assert!(unsupported(global_target(&db(), "state", AggFunc::Count)));
    }

    #[test]
    fn a_string_reference_column_is_not_read_as_nulls() {
        let joined = FeatureQuery::JoinAgg {
            name: "x".into(),
            table: "ads".into(),
            fk: "ad".into(),
            column: "kind".into(),
            func: AggFunc::Max,
        };
        assert!(unsupported(build_cube_input(&db(), &space(), &[joined])));
        let distinct = FeatureQuery::DistinctJoinAgg {
            name: "x".into(),
            table: "ads".into(),
            fk: "ad".into(),
            column: "kind".into(),
            func: AggFunc::CountDistinct,
        };
        assert!(unsupported(build_cube_input(&db(), &space(), &[distinct])));
    }

    #[test]
    fn null_item_ids_are_refused() {
        let mut db = db();
        let mut columns = db.fact.columns().to_vec();
        columns[0] = Column::from_values(&[Value::Int(1), Value::Null, Value::Int(1), Value::Int(2)]).unwrap();
        db.fact = Table::new(db.fact.schema().clone(), columns).unwrap();
        assert!(matches!(db.fact_item_ids(), Err(BellwetherError::Config(_))));
        assert!(global_target(&db, "profit", AggFunc::Sum).is_err());
    }

    /// τ against its definition: per item, the fact rows' non-NULL values
    /// folded in row order. Every value is a multiple of 1/8 in a range
    /// where all sums are exact, so the chunked fold must agree to the
    /// bit; the facts span several [`ROW_CHUNK`]-row chunks with the
    /// items interleaved, so items straddle chunk boundaries.
    #[test]
    fn global_target_is_the_per_item_row_order_fold() {
        use bellwether_cube::cube_pass::ROW_CHUNK;
        bellwether_prop::check("τ = row-order fold", 6, |rng| {
            let n = 2 * ROW_CHUNK + rng.usize_in(1, ROW_CHUNK);
            let items: Vec<i64> = (0..rng.i64_in(1, 6)).map(|i| 7 * i - 3).collect();
            let ids: Vec<i64> = (0..n).map(|_| *rng.choice(&items)).collect();
            let values: Vec<Option<f64>> = (0..n)
                .map(|_| (!rng.flip(0.1)).then(|| rng.i64_in(-8000, 8000) as f64 / 8.0))
                .collect();
            let profit: Vec<Value> = values.iter().map(|v| v.map_or(Value::Null, Value::Float)).collect();
            let mut db = db();
            db.fact = Table::new(
                Schema::from_pairs(&[("item", DataType::Int), ("profit", DataType::Float)]).unwrap(),
                vec![Column::from_ints(ids.clone()), Column::from_values(&profit).unwrap()],
            )
            .unwrap();

            for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg, AggFunc::Count] {
                let got = global_target(&db, "profit", func).unwrap();
                let mut want = HashMap::new();
                for &item in &items {
                    let vals: Vec<f64> = ids
                        .iter()
                        .zip(&values)
                        .filter_map(|(&id, v)| v.filter(|_| id == item))
                        .collect();
                    let sum = vals.iter().fold(0.0, |a, v| a + v);
                    let folded = match func {
                        AggFunc::Count => Some(vals.len() as f64),
                        _ if vals.is_empty() => None,
                        AggFunc::Sum => Some(sum),
                        AggFunc::Avg => Some(sum / vals.len() as f64),
                        AggFunc::Min => vals.iter().copied().reduce(f64::min),
                        _ => vals.iter().copied().reduce(f64::max),
                    };
                    if ids.contains(&item) {
                        if let Some(t) = folded {
                            want.insert(item, t.to_bits());
                        }
                    }
                }
                let got: HashMap<i64, u64> = got.into_iter().map(|(i, t)| (i, t.to_bits())).collect();
                assert_eq!(got, want, "{func:?}");
            }
        });
    }
}
