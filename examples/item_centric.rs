//! Item-centric bellwether prediction: build a bellwether tree and a
//! bellwether cube over the mail-order items, inspect them, and compare
//! prediction quality against the single-region baseline (a miniature
//! of Figure 8).
//!
//! Run with: `cargo run --release --example item_centric`

use bellwether::prelude::*;
use std::collections::HashMap;

fn main() {
    // The heterogeneous variant plants *different* bellwether states per
    // category (electronics → MD, apparel → WI), the regime where
    // item-centric methods pay off.
    let mut cfg = RetailConfig::mail_order_heterogeneous(240, 7);
    cfg.months = 8;
    cfg.converge_month = 6;
    println!("generating mail-order dataset ({} items)…", cfg.n_items);
    let data = generate_retail(&cfg);

    let targets: HashMap<i64, f64> =
        global_target(&data.db, "profit", AggFunc::Sum).unwrap();

    // Store only the regions affordable under the acquisition budget —
    // with no budget, the region covering the whole period and area
    // contains the target itself and prediction is vacuous (the "very
    // high cost" extreme of §3.1).
    let budget = 40.0;
    let (task, par) = (data.task(), Parallelism::default());
    let regions = task.regions_within(budget);
    println!(
        "{} of {} regions affordable under budget {budget}",
        regions.len(),
        data.space.num_regions()
    );
    let source = task.materialize(&regions, Memory, par, &NoopRecorder).unwrap();

    let problem = BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(20)
        .error_measure(ErrorMeasure::TrainingSet)
        .build()
        .unwrap();

    // ---- a bellwether tree (RF algorithm) over the item features.
    let tree_cfg = TreeConfig {
        min_node_items: 60,
        max_numeric_splits: 8,
        ..TreeConfig::default()
    };
    let tree =
        build_rainforest(&source, &data.space, &data.items, None, &problem, &tree_cfg)
            .unwrap();
    println!("bellwether tree ({} leaves):", tree.num_leaves());
    println!("{}", tree.describe(&data.items));

    // ---- a bellwether cube over the category hierarchy.
    let cube_cfg = CubeConfig {
        min_subset_size: 30,
    };
    let cube = build_single_scan_cube(
        &source,
        &data.space,
        &data.item_space,
        &data.item_coords,
        &problem,
        &cube_cfg,
    )
    .unwrap();
    // ---- cube prediction for one item: which ancestor subset wins?
    let some_item = *data.items.ids().first().unwrap();
    if let Some(cell) = select_cell_for_item(&cube, some_item, 0.95) {
        println!(
            "item {some_item} predicts through subset {} → region {} (err {:.1})",
            cell.label, cell.region_label, cell.error.value
        );
    }

    // ---- 10-fold comparison of the three methods.
    let eval = ItemCentricEval {
        folds: 10,
        seed: 99,
    };
    let ctx = EvalContext {
        source: &source,
        region_space: &data.space,
        items: &data.items,
        targets: &targets,
        item_space: Some(&data.item_space),
        item_coords: Some(&data.item_coords),
    };
    println!("\n10-fold item-centric prediction RMSE:");
    for method in [
        Method::Basic,
        Method::Tree(tree_cfg),
        Method::Cube(cube_cfg, 0.95),
    ] {
        let rmse = evaluate_method(&ctx, &problem, &method, &eval)
            .unwrap()
            .unwrap_or(f64::NAN);
        println!("  {:<6} {rmse:.1}", method.name());
    }
}
