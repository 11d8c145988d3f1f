//! The random-sampling baseline of Figure 7(a) ("Smp Err").
//!
//! Instead of one OLAP-style region, buy a *random collection* of
//! candidate regions whose total cost fits the budget, aggregate the
//! feature queries over the union of their cells (which "may not
//! correspond to any OLAP-style region"), and measure the model error.
//! Averaged over several trials, this shows what budget-matched
//! unstructured acquisition achieves versus the bellwether.

use crate::error::{BellwetherError, Result};
use crate::items::ItemTable;
use crate::problem::BellwetherConfig;
use crate::seeded::seeded_rng;
use bellwether_cube::{aggregate_filtered, CostModel, CubeInput, Dimension, RegionId, RegionSpace};
use bellwether_linreg::{EvalScratch, RegressionData};
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
    // One engine scratch across trials: the per-trial estimate reuses
    // the fold/Gram buffers instead of reallocating them.
    let mut scratch = EvalScratch::new();

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

        // Aggregate features over the union of the collection's cells.
        let features = aggregate_filtered(cube_input, space.arity(), |cell| {
            let cell = RegionId(cell.to_vec());
            chosen.iter().any(|r| space.contains(r, &cell))
        })?;

        // Assemble a training set with the standard layout.
        let n_static = items.numeric_attrs().len();
        let p = 1 + n_static + cube_input.measures.len();
        let mut data = RegressionData::with_capacity(p, features.len());
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

    if errors.is_empty() {
        Ok(None)
    } else {
        Ok(Some(errors.iter().sum::<f64>() / errors.len() as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
