//! Item-centric bellwether-based prediction, evaluated (§3.3, §7.1
//! Figure 8, §7.2 Figure 9(c), §7.3 Figure 10).
//!
//! Three methods predict a new item's target value:
//!
//! * **Basic** — one bellwether region and model for every item;
//! * **Tree** — route the item down a bellwether tree by its item-table
//!   features, use the leaf's region/model;
//! * **Cube** — among the item's ancestor cube subsets, use the cell
//!   with the lowest upper confidence bound of error.
//!
//! Evaluation is k-fold cross-validation over *items*: train the method
//! on the training fold's items into a [`BellwetherModel`] — the model a
//! server would load — and score the squared error of its prediction for
//! each held-out item. Which region and model an item gets, and how its
//! features are acquired there (zero if the item genuinely has no data,
//! matching the training-time NULL → 0 policy), is
//! [`BellwetherModel::predict`]'s business; this module only trains,
//! splits and pools. Reported is the pooled RMSE.

use crate::cube::optimized::build_optimized_cube;
use crate::cube::single_scan::build_single_scan_cube;
use crate::cube::CubeConfig;
use crate::error::{BellwetherError, Result};
use crate::items::ItemTable;
use crate::model::{BellwetherModel, MethodKind, ModelBuilder};
use crate::problem::{BellwetherConfig, ErrorMeasure};
use crate::tree::prune::prune_tree;
use crate::tree::rainforest::build_rainforest;
use crate::tree::{subset_bellwether, TreeConfig};
use bellwether_cube::RegionSpace;
use bellwether_linreg::fold_assignment;
use bellwether_obs::{names, span};
use bellwether_storage::TrainingSource;
use std::collections::{HashMap, HashSet};

/// The item-centric prediction method under evaluation.
#[derive(Debug, Clone)]
pub enum Method {
    /// Single bellwether region from basic search.
    Basic,
    /// Bellwether tree (built with the RF algorithm).
    Tree(TreeConfig),
    /// Bellwether cube with confidence level P for cell selection.
    Cube(CubeConfig, f64),
}

impl Method {
    /// The predictor of a [`BellwetherModel`] this method trains.
    fn kind(&self) -> MethodKind {
        match self {
            Method::Basic => MethodKind::Basic,
            Method::Tree(_) => MethodKind::Tree,
            Method::Cube(..) => MethodKind::Cube,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }
}

/// Cross-validation harness parameters.
#[derive(Debug, Clone, Copy)]
pub struct ItemCentricEval {
    /// Folds over items (the paper uses 10).
    pub folds: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for ItemCentricEval {
    fn default() -> Self {
        ItemCentricEval {
            folds: 10,
            seed: 0x17EB,
        }
    }
}

/// Inputs to [`evaluate_method`] that describe the dataset (as opposed
/// to the method/CV knobs).
pub struct EvalContext<'a> {
    /// Entire training data over the feasible (under-budget) regions.
    pub source: &'a dyn TrainingSource,
    /// The candidate-region space.
    pub region_space: &'a RegionSpace,
    /// The item table.
    pub items: &'a ItemTable,
    /// Per-item target values.
    pub targets: &'a HashMap<i64, f64>,
    /// Item-hierarchy space (required by the cube method).
    pub item_space: Option<&'a RegionSpace>,
    /// Per-item leaf coordinates in the item space (cube method).
    pub item_coords: Option<&'a HashMap<i64, Vec<u32>>>,
}

/// The items that can be scored — present in the item table with a
/// target — ascending, and the fold each is held out in. `None` when
/// there are fewer than two.
fn item_folds(ctx: &EvalContext<'_>, eval: &ItemCentricEval) -> Option<(Vec<i64>, Vec<usize>)> {
    let mut ids: Vec<i64> = ctx
        .items
        .ids()
        .iter()
        .copied()
        .filter(|id| ctx.targets.contains_key(id))
        .collect();
    ids.sort_unstable();
    if ids.len() < 2 {
        return None;
    }
    let folds = fold_assignment(ids.len(), eval.folds, eval.seed);
    Some((ids, folds))
}

/// The training ids of `fold` and the ids it holds out.
fn split_fold(ids: &[i64], folds: &[usize], fold: usize) -> (Vec<i64>, Vec<i64>) {
    let (mut train, mut held_out) = (Vec::new(), Vec::new());
    for (&id, &f) in ids.iter().zip(folds) {
        let side = if f == fold { &mut held_out } else { &mut train };
        side.push(id);
    }
    (train, held_out)
}

/// Evaluate one item-centric method by k-fold CV over items: pooled
/// RMSE of its predictions. `None` when no fold produced a usable
/// predictor (e.g. no region is affordable).
pub fn evaluate_method(
    ctx: &EvalContext<'_>,
    problem: &BellwetherConfig,
    method: &Method,
    eval: &ItemCentricEval,
) -> Result<Option<f64>> {
    let Some((ids, folds)) = item_folds(ctx, eval) else {
        return Ok(None);
    };
    let _timer = span!(problem.recorder, "predict/evaluate/{}", method.name());
    let k = folds.iter().copied().max().map_or(1, |m| m + 1);

    let mut sse = 0.0;
    let mut count = 0usize;
    for fold in 0..k {
        let (train_ids, test_ids) = split_fold(&ids, &folds, fold);
        let Some(model) = train_fold(ctx, problem, method, &train_ids)? else {
            continue;
        };
        let predictions = model.predict_batch(method.kind(), &test_ids);
        for (id, pred) in test_ids.iter().zip(predictions) {
            let Some(pred) = pred else { continue };
            let err = pred - ctx.targets[id];
            sse += err * err;
            count += 1;
        }
    }
    problem.recorder.add(names::PREDICT_FOLDS, k as u64);
    problem.recorder.add(names::PREDICT_PREDICTIONS, count as u64);
    if count == 0 {
        return Ok(None);
    }
    Ok(Some((sse / count as f64).sqrt()))
}

/// Train `method` on the training items into the model that predicts
/// for the fold: the regions its predictors can choose are read out of
/// `ctx.source`, which holds every item, so held-out items find their
/// features there.
fn train_fold(
    ctx: &EvalContext<'_>,
    problem: &BellwetherConfig,
    method: &Method,
    train_ids: &[i64],
) -> Result<Option<BellwetherModel>> {
    let builder = ModelBuilder::new(ctx.source, ctx.items.clone());
    let builder = match method {
        Method::Basic => {
            let ids: HashSet<i64> = train_ids.iter().copied().collect();
            let Some(info) = subset_bellwether(ctx.source, ctx.region_space, &ids, problem)?
            else {
                return Ok(None);
            };
            builder.basic(info.report(&[]))
        }
        Method::Tree(tree_cfg) => {
            let rows: Vec<usize> = train_ids
                .iter()
                .filter_map(|&id| ctx.items.row_of(id))
                .collect();
            let mut tree = build_rainforest(
                ctx.source,
                ctx.region_space,
                ctx.items,
                Some(rows),
                problem,
                tree_cfg,
            )?;
            let Some(root_info) = tree.root().info.as_ref() else {
                return Ok(None);
            };
            if tree_cfg.prune_frac > 0.0 {
                let penalty = tree_cfg.prune_frac
                    * root_info.error
                    * tree.root().item_rows.len() as f64;
                prune_tree(&mut tree, penalty);
            }
            builder.tree(tree)
        }
        Method::Cube(cube_cfg, confidence) => {
            let (Some(item_space), Some(item_coords)) = (ctx.item_space, ctx.item_coords)
            else {
                return Err(BellwetherError::Config(
                    "cube method requires item_space and item_coords".into(),
                ));
            };
            let train_set: HashSet<i64> = train_ids.iter().copied().collect();
            let train_coords: HashMap<i64, Vec<u32>> = item_coords
                .iter()
                .filter(|(id, _)| train_set.contains(id))
                .map(|(id, c)| (*id, c.clone()))
                .collect();
            if train_coords.is_empty() {
                return Ok(None);
            }
            // Theorem 1 makes the optimized construction available (and
            // much faster on many subsets) whenever the error measure is
            // training-set; otherwise fall back to the single scan.
            let build = if problem.error_measure == ErrorMeasure::TrainingSet {
                build_optimized_cube
            } else {
                build_single_scan_cube
            };
            let mut cube = build(
                ctx.source,
                ctx.region_space,
                item_space,
                &train_coords,
                problem,
                cube_cfg,
            )?;
            if cube.cells.is_empty() {
                return Ok(None);
            }
            // The cells are the training items'; routing is for every
            // item, the held-out ones included.
            cube.item_coords = item_coords.clone();
            builder.cube(cube, *confidence)
        }
    };
    builder.build().map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::predict::select_cell;
    use crate::cube::tests_support::cube_fixture;
    use bellwether_cube::RegionId;
    use bellwether_linreg::LinearModel;

    fn problem() -> BellwetherConfig {
        BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(4)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap()
    }

    #[test]
    fn cube_and_tree_beat_basic_on_heterogeneous_items() {
        let (src, region_space, items, item_space, coords) = cube_fixture();
        let ctx = EvalContext {
            source: &src,
            region_space: &region_space,
            items: &items,
            targets: &(0..24)
                .map(|i| {
                    let is_a = i < 12;
                    let t = if is_a {
                        2.0 * (3 * i + 1) as f64
                    } else {
                        -4.0 * (i + 7) as f64
                    };
                    (i, t)
                })
                .collect(),
            item_space: Some(&item_space),
            item_coords: Some(&coords),
        };
        let eval = ItemCentricEval {
            folds: 4,
            seed: 3,
        };
        let basic = evaluate_method(&ctx, &problem(), &Method::Basic, &eval)
            .unwrap()
            .unwrap();
        let cube = evaluate_method(
            &ctx,
            &problem(),
            &Method::Cube(CubeConfig { min_subset_size: 5 }, 0.95),
            &eval,
        )
        .unwrap()
        .unwrap();
        let tree = evaluate_method(
            &ctx,
            &problem(),
            &Method::Tree(TreeConfig {
                min_node_items: 8,
                ..TreeConfig::default()
            }),
            &eval,
        )
        .unwrap()
        .unwrap();
        // The fixture's two groups need different regions: item-centric
        // methods must clearly beat the single-region basic method.
        assert!(cube < basic, "cube {cube} vs basic {basic}");
        assert!(tree < basic, "tree {tree} vs basic {basic}");
    }

    #[test]
    fn cube_method_requires_item_space() {
        let (src, region_space, items, _item_space, _coords) = cube_fixture();
        let targets = (0..24).map(|i| (i, i as f64)).collect();
        let ctx = EvalContext {
            source: &src,
            region_space: &region_space,
            items: &items,
            targets: &targets,
            item_space: None,
            item_coords: None,
        };
        let err = evaluate_method(
            &ctx,
            &problem(),
            &Method::Cube(CubeConfig::default(), 0.95),
            &ItemCentricEval::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn too_few_items_yields_none() {
        let (src, region_space, items, _is, _c) = cube_fixture();
        let targets: HashMap<i64, f64> = [(0, 1.0)].into_iter().collect();
        let ctx = EvalContext {
            source: &src,
            region_space: &region_space,
            items: &items,
            targets: &targets,
            item_space: None,
            item_coords: None,
        };
        let out = evaluate_method(
            &ctx,
            &problem(),
            &Method::Basic,
            &ItemCentricEval::default(),
        )
        .unwrap();
        assert!(out.is_none());
    }

    /// `cube_fixture`'s source and regions under 26 items: its 24, item
    /// 24 alone in a third group `gc` (whenever it is held out no
    /// training item shares its categorical value or its leaf
    /// coordinates), and item 25 with no coordinates at all. Neither has
    /// data in any region.
    struct Served {
        src: bellwether_storage::MemorySource,
        region_space: RegionSpace,
        items: ItemTable,
        item_space: RegionSpace,
        coords: HashMap<i64, Vec<u32>>,
        targets: HashMap<i64, f64>,
    }

    fn served_fixture() -> Served {
        use bellwether_cube::{Dimension, Hierarchy};
        use bellwether_table::{Column, DataType, Schema, Table};
        let (src, region_space, _, _, _) = cube_fixture();
        let group = |i: i64| match i {
            0..=11 | 25 => "ga",
            12..=23 => "gb",
            _ => "gc",
        };
        let table = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("g", DataType::Str)]).unwrap(),
            vec![
                Column::from_ints((0..26).collect()),
                Column::from_strs(&(0..26).map(group).collect::<Vec<_>>()),
            ],
        )
        .unwrap();
        let items = ItemTable::from_table(&table, "id", &[], &["g"]).unwrap();
        let groups = Hierarchy::flat("G", "Any", &["ga", "gb", "gc"]);
        let mut coords = items.leaf_coords(std::slice::from_ref(&groups), &["g"]).unwrap();
        coords.remove(&25);
        let targets = (0..26)
            .map(|i| (i, if i < 12 { 2.0 * (3 * i + 1) as f64 } else { -4.0 * (i + 7) as f64 }))
            .collect();
        Served {
            src,
            region_space,
            items,
            item_space: RegionSpace::new(vec![Dimension::Hierarchy(groups)]),
            coords,
            targets,
        }
    }

    /// The figure path is the served path, through disk: every fold's
    /// model answers for its held-out items with the same bits after
    /// `save` → `load`, and the RMSE pooled from the loaded models is the
    /// one `evaluate_method` returns. `inspect` sees each loaded model
    /// with the fold's held-out ids and predictions.
    fn assert_figures_come_from_the_served_model(
        fx: &Served,
        method: &Method,
        inspect: impl Fn(&BellwetherModel, &[i64], &[Option<f64>]),
    ) {
        let ctx = EvalContext {
            source: &fx.src,
            region_space: &fx.region_space,
            items: &fx.items,
            targets: &fx.targets,
            item_space: Some(&fx.item_space),
            item_coords: Some(&fx.coords),
        };
        let eval = ItemCentricEval { folds: 4, seed: 3 };
        let problem = problem();
        let reported = evaluate_method(&ctx, &problem, method, &eval).unwrap();

        let (ids, folds) = item_folds(&ctx, &eval).unwrap();
        let dir = std::env::temp_dir().join("bw_predict_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (mut sse, mut count) = (0.0, 0usize);
        for fold in 0..4 {
            let (train_ids, test_ids) = split_fold(&ids, &folds, fold);
            let model = train_fold(&ctx, &problem, method, &train_ids).unwrap().unwrap();
            let path = dir.join(format!("{}_{:?}_{fold}.bwsn", method.name(), std::thread::current().id()));
            model.save(&path).unwrap();
            let loaded = BellwetherModel::load(&path).unwrap();
            std::fs::remove_file(&path).ok();

            let served = loaded.predict_batch(method.kind(), &test_ids);
            let bits = |p: &[Option<f64>]| p.iter().map(|p| p.map(f64::to_bits)).collect::<Vec<_>>();
            assert_eq!(bits(&served), bits(&model.predict_batch(method.kind(), &test_ids)));
            inspect(&loaded, &test_ids, &served);
            for (id, pred) in test_ids.iter().zip(&served) {
                let Some(pred) = pred else { continue };
                sse += (pred - fx.targets[id]).powi(2);
                count += 1;
            }
        }
        assert!(count > 0);
        let pooled = (sse / count as f64).sqrt();
        assert_eq!(reported.map(f64::to_bits), Some(pooled.to_bits()), "{}", method.name());
    }

    #[test]
    fn the_figure_path_is_the_served_path_through_disk() {
        let fx = served_fixture();
        // Items without data anywhere get intercept + zero features.
        let zero_filled = |model: &LinearModel| model.predict(&[1.0, 0.0]);

        assert_figures_come_from_the_served_model(&fx, &Method::Basic, |model, ids, served| {
            assert!(served.iter().all(Option::is_some));
            if let Some(at) = ids.iter().position(|&id| id == 24) {
                let basic = &model.basic_report().unwrap().model;
                assert_eq!(served[at], Some(zero_filled(basic)));
            }
        });

        for prune_frac in [0.0, 0.6] {
            let cfg = TreeConfig {
                min_node_items: 8,
                prune_frac,
                ..TreeConfig::default()
            };
            let seen_gc = std::cell::Cell::new(false);
            assert_figures_come_from_the_served_model(&fx, &Method::Tree(cfg), |model, ids, served| {
                assert!(served.iter().all(Option::is_some));
                let Some(at) = ids.iter().position(|&id| id == 24) else { return };
                // No training item had `gc`: routing stops where the
                // tree splits on the group, here the root.
                let tree = model.tree().unwrap();
                assert_eq!(tree.route_item(model.items(), 24), Some(0));
                assert_eq!(served[at], Some(zero_filled(&tree.root().info.as_ref().unwrap().model)));
                seen_gc.set(true);
            });
            assert!(seen_gc.get());
        }

        let method = Method::Cube(CubeConfig { min_subset_size: 5 }, 0.95);
        let seen_gc = std::cell::Cell::new(false);
        assert_figures_come_from_the_served_model(&fx, &method, |model, ids, served| {
            let (cube, confidence) = model.cube().unwrap();
            for (&id, pred) in ids.iter().zip(served) {
                // No coordinates: no cell, no prediction, not counted.
                assert_eq!(pred.is_none(), id == 25, "item {id}");
                if id == 24 {
                    // No training item at leaf `gc`: no cell there, the
                    // item falls back to `[Any]`.
                    assert!(cube.cell(&RegionId(vec![3])).is_none());
                    let cell = select_cell(cube, &cube.item_coords[&24], confidence).unwrap();
                    assert_eq!(cell.subset, RegionId(vec![0]));
                    assert_eq!(*pred, Some(zero_filled(&cell.model)));
                    seen_gc.set(true);
                }
            }
        });
        assert!(seen_gc.get());
    }

    #[test]
    fn method_names() {
        assert_eq!(Method::Basic.name(), "basic");
        assert_eq!(Method::Tree(TreeConfig::default()).name(), "tree");
        assert_eq!(Method::Cube(CubeConfig::default(), 0.9).name(), "cube");
    }
}
