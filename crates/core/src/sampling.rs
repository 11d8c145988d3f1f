//! The random-sampling baseline of Figure 7(a) ("Smp Err").
//!
//! Instead of one OLAP-style region, buy a *random collection* of
//! candidate regions whose total cost fits the budget, aggregate the
//! feature queries over the union of their cells (which "may not
//! correspond to any OLAP-style region"), and measure the model error.
//! Averaged over several trials, this shows what budget-matched
//! unstructured acquisition achieves versus the bellwether.

use crate::error::{BellwetherError, Result};
use crate::eval::RegionEvalScratch;
use crate::items::ItemTable;
use crate::problem::BellwetherConfig;
use crate::seeded::seeded_rng;
use crate::training::{columns_block, target_lane};
use bellwether_cube::{aggregate_filtered, CostModel, CubeInput, Dimension, RegionId, RegionSpace};
use std::collections::HashMap;

/// Mean error of the random-collection baseline over `trials` draws.
/// Returns `None` if no trial could afford data and fit a model, and
/// `Err(Config)` on a malformed `cube_input`.
#[allow(clippy::too_many_arguments)]
pub fn sampling_baseline_error(
    space: &RegionSpace,
    cube_input: &CubeInput,
    items: &ItemTable,
    targets: &HashMap<i64, f64>,
    cost_model: &dyn CostModel,
    config: &BellwetherConfig,
    trials: usize,
    seed: u64,
) -> Result<Option<f64>> {
    // A cell's coordinates index `space`'s hierarchies when a region is
    // tested against it.
    let bounds: Vec<u32> = space.dims().iter().map(Dimension::num_values).collect();
    let mut bounded = cube_input.coords.iter().zip(bounds.iter().cycle());
    if let Some(i) = bounded.position(|(&c, &bound)| c >= bound) {
        let (c, d) = (cube_input.coords[i], i % bounds.len());
        let why = format!("coordinate {c} out of range on dimension {d}");
        return Err(BellwetherError::Config(why));
    }
    let all_regions = space.all_regions();
    let mut rng = seeded_rng(seed);
    let mut errors = Vec::new();
    // One scratch across trials: the per-trial gather and estimate reuse
    // the dataset and fold/Gram buffers instead of reallocating them.
    let mut scratch = RegionEvalScratch::new();
    let tau = target_lane(items, targets);

    for _ in 0..trials {
        // Draw a random affordable collection of regions.
        let mut order: Vec<usize> = (0..all_regions.len()).collect();
        rng.shuffle(&mut order);
        let mut chosen: Vec<&RegionId> = Vec::new();
        let mut spent = 0.0;
        for idx in order {
            let r = &all_regions[idx];
            let c = cost_model.cost(space, r);
            if spent + c <= config.budget {
                spent += c;
                chosen.push(r);
            }
        }
        if chosen.is_empty() {
            continue;
        }

        // Aggregate features over the union of the collection's cells,
        // and assemble them as any region's training block is.
        let features = aggregate_filtered(cube_input, space.arity(), |cell| {
            in_collection(space, &chosen, cell)
        })?;
        let n_measures = cube_input.measures.len();
        let block = columns_block(Vec::new(), Some(&features), n_measures, items, |row, _| {
            tau.get(row as usize)
        });
        if block.n() < config.min_examples {
            continue;
        }
        scratch.gather(&block, None);
        if let Some(e) = scratch.estimate(config) {
            errors.push(e.value);
        }
    }

    if errors.is_empty() {
        Ok(None)
    } else {
        Ok(Some(errors.iter().sum::<f64>() / errors.len() as f64))
    }
}

/// Whether the fact-level cell `cell` lies in a region of `chosen`: the
/// test [`RegionSpace::contains`] makes, read off the coordinate slice so
/// the per-row filter allocates nothing.
fn in_collection(space: &RegionSpace, chosen: &[&RegionId], cell: &[u32]) -> bool {
    let dims = space.dims();
    chosen.iter().any(|r| {
        let mut coords = dims.iter().zip(&r.0).zip(cell);
        coords.all(|((d, &rv), &cv)| d.value_contains(rv, cv))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::NumericAttr;
    use crate::problem::ErrorMeasure;
    use bellwether_cube::{Dimension, Hierarchy, Measure, UniformCellCost};
    use bellwether_table::ops::AggFunc;
    use bellwether_table::{Column, DataType, Schema, Table};

    fn fixture() -> (RegionSpace, CubeInput, ItemTable, HashMap<i64, f64>) {
        let space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
            "L",
            "All",
            &["a", "b"],
        ))]);
        // 20 items, each with one row in 'a' and one zero-profit row in
        // 'b'; the target is 10 × (total profit), so any sampled union
        // that includes the 'a' cells predicts perfectly.
        let n = 20;
        let mut item_ids = Vec::new();
        let mut coords = Vec::new();
        let mut profits = Vec::new();
        for i in 0..n {
            item_ids.push(i);
            coords.push(1); // leaf a
            profits.push(Some(i as f64));
            item_ids.push(i);
            coords.push(2); // leaf b
            profits.push(Some(0.0));
        }
        let input = CubeInput {
            item_ids,
            coords,
            measures: vec![Measure::Numeric {
                name: "profit".into(),
                func: AggFunc::Sum,
                values: profits.into_iter().collect(),
            }],
        };
        let table = Table::new(
            Schema::from_pairs(&[("id", DataType::Int)]).unwrap(),
            vec![Column::from_ints((0..n).collect())],
        )
        .unwrap();
        let items = ItemTable::from_table(&table, "id", &[], &[]).unwrap();
        let targets: HashMap<i64, f64> = (0..n).map(|i| (i, 10.0 * i as f64)).collect();
        (space, input, items, targets)
    }

    /// The baseline's row filter before [`in_collection`]: a `RegionId`
    /// allocated for every fact row and tested with
    /// [`RegionSpace::contains`]. The oracle of
    /// `in_collection_keeps_the_rows_its_oracle_keeps`.
    fn in_collection_by_ids(space: &RegionSpace, chosen: &[&RegionId], cell: &[u32]) -> bool {
        let cell = RegionId(cell.to_vec());
        chosen.iter().any(|r| space.contains(r, &cell))
    }

    /// Random spaces of one to three dimensions (intervals, and
    /// hierarchies grown by hanging each node under a random earlier
    /// one), random chosen sets of their regions, including none and
    /// repeats, and random cells over every value of every dimension.
    #[test]
    fn in_collection_keeps_the_rows_its_oracle_keeps() {
        bellwether_prop::check("in_collection = RegionId filter", 64, |rng| {
            let dims: Vec<Dimension> = (0..rng.usize_in(1, 4))
                .map(|d| {
                    if rng.flip(0.4) {
                        Dimension::Interval { name: format!("T{d}"), max_t: rng.u32_in(1, 6) }
                    } else {
                        let mut h = Hierarchy::new(format!("H{d}"), format!("root{d}"));
                        for n in 1..rng.u32_in(2, 9) {
                            h.add_child(rng.u32_in(0, n), format!("n{d}_{n}"));
                        }
                        Dimension::Hierarchy(h)
                    }
                })
                .collect();
            let space = RegionSpace::new(dims);
            let regions = space.all_regions();
            let chosen: Vec<&RegionId> =
                (0..rng.usize_in(0, 7)).map(|_| rng.choice(&regions)).collect();
            for _ in 0..64 {
                let cell: Vec<u32> =
                    space.dims().iter().map(|d| rng.u32_in(0, d.num_values())).collect();
                assert_eq!(
                    in_collection(&space, &chosen, &cell),
                    in_collection_by_ids(&space, &chosen, &cell),
                    "cell {cell:?}, chosen {chosen:?}"
                );
            }
        });
    }

    /// The baseline as it assembled its trials before it went through
    /// `columns_block`: the filtered aggregates as a row map, its keys
    /// re-sorted, a target probe and a static-feature vector per item, and
    /// one `push` per example. The oracle of
    /// `sampling_matches_its_row_assembly_oracle_bit_for_bit`.
    #[allow(clippy::too_many_arguments)]
    fn sampling_by_rows(
        space: &RegionSpace,
        cube_input: &CubeInput,
        items: &ItemTable,
        targets: &HashMap<i64, f64>,
        cost_model: &dyn CostModel,
        config: &BellwetherConfig,
        trials: usize,
        seed: u64,
    ) -> Option<f64> {
        let all_regions = space.all_regions();
        let mut rng = seeded_rng(seed);
        let mut errors = Vec::new();
        let mut scratch = bellwether_linreg::EvalScratch::new();
        for _ in 0..trials {
            let mut order: Vec<usize> = (0..all_regions.len()).collect();
            rng.shuffle(&mut order);
            let mut chosen: Vec<&RegionId> = Vec::new();
            let mut spent = 0.0;
            for idx in order {
                let c = cost_model.cost(space, &all_regions[idx]);
                if spent + c <= config.budget {
                    spent += c;
                    chosen.push(&all_regions[idx]);
                }
            }
            if chosen.is_empty() {
                continue;
            }
            let cols = aggregate_filtered(cube_input, space.arity(), |cell| {
                in_collection_by_ids(space, &chosen, cell)
            })
            .unwrap();
            let n_measures = cube_input.measures.len();
            let features: HashMap<i64, Vec<Option<f64>>> = (cols.item_ids().iter().enumerate())
                .map(|(at, &id)| (id, (0..n_measures).map(|m| cols.lane(m).get(at)).collect()))
                .collect();
            let p = 1 + items.numeric_attrs().len() + n_measures;
            let mut data = bellwether_linreg::RegressionData::with_capacity(p, features.len());
            let mut ids: Vec<i64> = features.keys().copied().collect();
            ids.sort_unstable();
            let mut x = Vec::with_capacity(p);
            for id in ids {
                let (Some(&y), Some(statics)) = (targets.get(&id), items.static_features(id)) else {
                    continue;
                };
                x.clear();
                x.push(1.0);
                x.extend_from_slice(&statics);
                x.extend(features[&id].iter().map(|v| v.unwrap_or(0.0)));
                data.push(&x, y);
            }
            if data.n() < config.min_examples {
                continue;
            }
            if let Some(e) = config.error_measure.estimate_with(&data, &mut scratch) {
                errors.push(e.value);
            }
        }
        (!errors.is_empty()).then(|| errors.iter().sum::<f64>() / errors.len() as f64)
    }

    /// Random facts over `T × L`: items the item table lacks, items with
    /// no target, NULL and `-0.0` aggregates, `-0.0` targets, and two
    /// static features, under both error measures and a range of budgets.
    #[test]
    fn sampling_matches_its_row_assembly_oracle_bit_for_bit() {
        bellwether_prop::check("sampling = row assembly", 24, |rng| {
            let space = RegionSpace::new(vec![
                Dimension::Interval { name: "T".into(), max_t: 3 },
                Dimension::Hierarchy(Hierarchy::flat("L", "All", &["a", "b", "c"])),
            ]);
            let pool: Vec<i64> = (0..rng.i64_in(8, 40)).map(|i| 5 * i - 30).collect();
            let rows = rng.usize_in(20, 400);
            let value = |rng: &mut bellwether_prop::Rng| {
                let v = if rng.flip(0.05) { -0.0 } else { rng.f64_in(-50.0, 50.0) };
                (!rng.flip(0.1)).then_some(v)
            };
            let (mut ids, mut coords, mut sums, mut maxes) = (vec![], vec![], vec![], vec![]);
            for _ in 0..rows {
                ids.push(*rng.choice(&pool));
                coords.extend([rng.u32_in(0, 3), rng.u32_in(1, 4)]);
                sums.push(value(rng));
                maxes.push(value(rng));
            }
            let numeric = |name: &str, func, values: Vec<Option<f64>>| Measure::Numeric {
                name: name.into(),
                func,
                values: values.into_iter().collect(),
            };
            let input = CubeInput {
                item_ids: ids,
                coords,
                measures: vec![numeric("s", AggFunc::Sum, sums), numeric("m", AggFunc::Max, maxes)],
            };
            // The table skips every fourth pool item and holds one the facts never name.
            let known: Vec<i64> =
                pool.iter().copied().filter(|id| id % 4 != 1).chain([999]).collect();
            let attr = |name: &str, rng: &mut bellwether_prop::Rng| NumericAttr {
                name: name.into(),
                values: known.iter().map(|_| rng.f64_in(-3.0, 3.0)).collect(),
            };
            let numeric_attrs = vec![attr("u", rng), attr("v", rng)];
            let items = ItemTable::from_parts(known.clone(), numeric_attrs, vec![]).unwrap();
            let targets: HashMap<i64, f64> = pool
                .iter()
                .filter_map(|&id| {
                    let y = if rng.flip(0.05) { -0.0 } else { rng.f64_in(-500.0, 500.0) };
                    (!rng.flip(0.15)).then_some((id, y))
                })
                .collect();
            let cost = UniformCellCost { rate: 1.0 };
            let cv = ErrorMeasure::CrossValidation { folds: 3, seed: 9 };
            for measure in [ErrorMeasure::TrainingSet, cv] {
                let budget = rng.f64_in(1.0, 12.0);
                let cfg = BellwetherConfig::builder(budget)
                    .min_examples(4)
                    .error_measure(measure)
                    .build()
                    .unwrap();
                let seed = rng.u32_in(0, 1000) as u64;
                let got =
                    sampling_baseline_error(&space, &input, &items, &targets, &cost, &cfg, 6, seed);
                let want = sampling_by_rows(&space, &input, &items, &targets, &cost, &cfg, 6, seed);
                let bits = |e: Option<f64>| e.map(f64::to_bits);
                assert_eq!(bits(got.unwrap()), bits(want), "{measure:?}, budget {budget}");
            }
        });
    }

    #[test]
    fn generous_budget_gets_low_error() {
        let (space, input, items, targets) = fixture();
        let cfg = BellwetherConfig::builder(100.0)
            .min_examples(5)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap();
        let cost = UniformCellCost { rate: 1.0 };
        let err =
            sampling_baseline_error(&space, &input, &items, &targets, &cost, &cfg, 5, 42)
                .unwrap()
                .unwrap();
        // With everything affordable the union covers 'a', whose profit
        // linearly determines the target (up to numerical noise).
        assert!(err < 1e-3, "err = {err}");
    }

    #[test]
    fn zero_budget_returns_none() {
        let (space, input, items, targets) = fixture();
        // The builder rejects a non-positive budget, which is exactly
        // what this test needs — set the field directly.
        let mut cfg = BellwetherConfig::builder(1.0).min_examples(5).build().unwrap();
        cfg.budget = 0.0;
        let cost = UniformCellCost { rate: 1.0 };
        let err = sampling_baseline_error(&space, &input, &items, &targets, &cost, &cfg, 3, 1)
            .unwrap();
        assert!(err.is_none());
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        let (space, input, items, targets) = fixture();
        let cfg = BellwetherConfig::builder(100.0).min_examples(5).build().unwrap();
        let cost = UniformCellCost { rate: 1.0 };
        let with_measure = |func, values: Vec<Option<f64>>| CubeInput {
            measures: vec![Measure::Numeric {
                name: "profit".into(),
                func,
                values: values.into_iter().collect(),
            }],
            ..input.clone()
        };
        let n = input.item_ids.len();
        let mut past_leaves = input.clone();
        past_leaves.coords[3] = 9;
        let mut coords_short = input.clone();
        coords_short.coords.pop();
        let mut count_keys = input.clone();
        count_keys.measures = vec![Measure::DistinctKeyed {
            name: "ads".into(),
            func: AggFunc::Count,
            keys: vec![Some(1); n].into_iter().collect(),
            values: vec![1.0; n],
        }];
        for (what, bad) in [
            ("a coordinate past the leaves", past_leaves),
            ("a coordinate row one entry short", coords_short),
            ("a measure column one entry short", with_measure(AggFunc::Sum, vec![None; n - 1])),
            ("COUNT DISTINCT over fact rows", with_measure(AggFunc::CountDistinct, vec![None; n])),
            ("COUNT over distinct keys", count_keys),
        ] {
            let got = sampling_baseline_error(&space, &bad, &items, &targets, &cost, &cfg, 3, 1);
            assert!(matches!(got, Err(BellwetherError::Config(_))), "{what}: {got:?}");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let (space, input, items, targets) = fixture();
        let cfg = BellwetherConfig::builder(3.0)
            .min_examples(5)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap();
        let cost = UniformCellCost { rate: 1.0 };
        let a = sampling_baseline_error(&space, &input, &items, &targets, &cost, &cfg, 4, 7)
            .unwrap();
        let b = sampling_baseline_error(&space, &input, &items, &targets, &cost, &cfg, 4, 7)
            .unwrap();
        assert_eq!(a, b);
    }
}
