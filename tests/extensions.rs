//! Integration tests for the §3.4 extension features on generated
//! retail data: the linear optimization criterion, tree pruning, and the
//! algebraic cross-validated cube.

use bellwether::prelude::*;
use bellwether_core::{
    basic_search_linear, build_optimized_cube, build_rainforest,
    build_single_scan_cube, prune_tree, LinearCriterion,
};

fn dataset() -> (bellwether_datagen::RetailDataset, MemorySource) {
    let mut cfg = RetailConfig::mail_order(120, 77);
    cfg.months = 6;
    cfg.converge_month = 4;
    cfg.states = Some(vec!["MD", "WI", "CA", "TX", "NY", "IL", "FL", "OH"]);
    let data = generate_retail(&cfg);
    let (task, par) = (data.task(), Parallelism::default());
    let regions = task.regions_within(f64::INFINITY);
    let source = task.materialize(&regions, Memory, par, &NoopRecorder).unwrap();
    (data, source)
}

#[test]
fn linear_criterion_prefers_cheap_regions_as_weight_grows() {
    let (data, source) = dataset();
    let config = BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(20)
        .error_measure(ErrorMeasure::TrainingSet)
        .build()
        .unwrap();
    let free = basic_search_linear(
        &source,
        &data.space,
        &data.cost,
        &config,
        data.items.len(),
        LinearCriterion {
            cost_weight: 0.0,
            coverage_weight: 0.0,
        },
    )
    .unwrap();
    let heavy = basic_search_linear(
        &source,
        &data.space,
        &data.cost,
        &config,
        data.items.len(),
        LinearCriterion {
            cost_weight: 50.0,
            coverage_weight: 0.0,
        },
    )
    .unwrap();
    let (free_best, _) = free.bellwether().unwrap();
    let (heavy_best, _) = heavy.bellwether().unwrap();
    assert!(
        heavy_best.cost <= free_best.cost,
        "a higher cost weight must not pick a costlier region \
         ({} vs {})",
        heavy_best.cost,
        free_best.cost
    );
}

#[test]
fn pruning_reduces_or_keeps_leaves_and_preserves_routing() {
    let (data, source) = dataset();
    let problem = BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(15)
        .error_measure(ErrorMeasure::TrainingSet)
        .build()
        .unwrap();
    let tree_cfg = TreeConfig {
        min_node_items: 20,
        max_numeric_splits: 8,
        ..TreeConfig::default()
    };
    let mut tree = build_rainforest(
        &source,
        &data.space,
        &data.items,
        None,
        &problem,
        &tree_cfg,
    )
    .unwrap();
    let before = tree.num_leaves();
    prune_tree(&mut tree, 1e12);
    assert!(tree.num_leaves() <= before);
    assert_eq!(tree.num_leaves(), 1, "infinite penalty collapses the tree");
    for &id in data.items.ids() {
        assert!(tree.predicting_info(&data.items, id).is_some());
    }
}

#[test]
fn cv_cube_agrees_with_single_scan_on_winning_regions() {
    let (data, source) = dataset();
    let cube_cfg = CubeConfig {
        min_subset_size: 20,
    };
    // The CV cube's fold assignment differs from the CV measure's
    // shuffle, so compare *regions*, which are robust, not errors.
    let ts_problem = BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(20)
        .error_measure(ErrorMeasure::TrainingSet)
        .build()
        .unwrap();
    let mut cv_problem = ts_problem.clone();
    cv_problem.error_measure = ErrorMeasure::CrossValidation { folds: 5, seed: 42 };
    let single = build_single_scan_cube(
        &source,
        &data.space,
        &data.item_space,
        &data.item_coords,
        &ts_problem,
        &cube_cfg,
    )
    .unwrap();
    let cv = build_optimized_cube(
        &source,
        &data.space,
        &data.item_space,
        &data.item_coords,
        &cv_problem,
        &cube_cfg,
    )
    .unwrap();
    assert_eq!(single.cells.len(), cv.cells.len());
    for (subset, cell) in &cv.cells {
        // CV errors are genuine estimates with spread.
        assert!(cell.error.value.is_finite());
        // Winning regions should be strongly planted → usually agree.
        let ts_cell = &single.cells[subset];
        assert_eq!(
            cell.region.0[1], ts_cell.region.0[1],
            "CV and training-set cubes should agree on the planted state \
             for subset {subset:?}"
        );
    }
}
