//! A tour of the §3.4 extensions implemented beyond the paper's core
//! algorithms: the linear optimization criterion, tree pruning, and the
//! algebraic cross-validated cube.
//!
//! Run with: `cargo run --release --example extensions_tour`

use bellwether::prelude::*;

fn main() {
    // Heterogeneous variant: electronics' bellwether is MD, apparel's is
    // WI — so trees/cubes have real structure to find (and to prune).
    let mut cfg = RetailConfig::mail_order_heterogeneous(160, 5);
    cfg.months = 6;
    cfg.converge_month = 4;
    cfg.states = Some(vec!["MD", "WI", "CA", "TX", "NY", "IL", "FL", "OH"]);
    let data = generate_retail(&cfg);
    let problem = BellwetherConfig::builder(25.0)
        .min_coverage(0.5)
        .min_examples(20)
        .error_measure(ErrorMeasure::TrainingSet)
        .build()
        .unwrap();
    // The linear-criterion sweep trades cost off explicitly, so it sees
    // every region; the tree/cube sections get only affordable regions
    // (the whole-period/whole-area region contains the target itself and
    // would win vacuously).
    let (task, par) = (data.task(), Parallelism::default());
    let materialize = |budget| {
        task.materialize(&task.regions_within(budget), Memory, par, &NoopRecorder).unwrap()
    };
    let (source, budget_source) = (materialize(f64::INFINITY), materialize(problem.budget));

    // ---- 1. linear optimization criterion: error + w1·cost − w2·coverage.
    println!("linear criterion sweep (cost weight ↑ → cheaper regions):");
    for w1 in [0.0, 5.0, 50.0] {
        let found = basic_search_linear(
            &source,
            &data.space,
            &data.cost,
            &problem,
            data.items.len(),
            LinearCriterion {
                cost_weight: w1,
                coverage_weight: 100.0,
            },
        )
        .unwrap();
        if let Some(report) = found.report() {
            println!(
                "  w1={w1:<4} → {:<14} err {:>8.1} score {:.1}",
                report.label, report.error, report.score
            );
        }
    }

    // ---- 2. tree pruning.
    let tree_cfg = TreeConfig {
        min_node_items: 20,
        max_numeric_splits: 8,
        ..TreeConfig::default()
    };
    let mut tree = build_rainforest(
        &budget_source,
        &data.space,
        &data.items,
        None,
        &problem,
        &tree_cfg,
    )
    .unwrap();
    let before = tree.num_leaves();
    let root_report = tree.report().unwrap();
    let penalty = 0.05 * root_report.error * tree.root().item_rows.len() as f64;
    let removed = prune_tree(&mut tree, penalty);
    println!(
        "\ntree pruning: {before} leaves → {} (removed {removed} splits at 5% penalty)",
        tree.num_leaves()
    );

    // ---- 3. algebraic cross-validated cube (Theorem 1 extended to CV):
    // the optimized cube under a cross-validation measure.
    let mut cv_problem = problem.clone();
    cv_problem.error_measure = ErrorMeasure::CrossValidation { folds: 5, seed: 42 };
    let cv_cube = build_optimized_cube(
        &budget_source,
        &data.space,
        &data.item_space,
        &data.item_coords,
        &cv_problem,
        &CubeConfig {
            min_subset_size: 30,
        },
    )
    .unwrap();
    println!("\ncross-validated cube cells (errors are CV estimates ± spread):");
    for cell in cv_cube.cells.values() {
        let (lo, hi) = cell.error.interval(0.95);
        println!(
            "  {:<14} → {:<12} err {:>8.1} [{:.1}, {:.1}]",
            cell.label, cell.region_label, cell.error.value, lo, hi
        );
    }
}
