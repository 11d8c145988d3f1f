//! The paper's §7 experiments, one function per figure.
//!
//! `figNN(quick)` regenerates every panel of Figure NN and returns its
//! [`FigureReport`]s. The `figNN` binaries print them and write
//! `results/<id>.json`; `tests/figures.rs` holds the committed files to
//! what these functions return and to the paper's shape claims. `quick`
//! scales each experiment down for smoke runs; only full-size output is
//! committed.

use crate::{
    budget_filtered_source, prepare_retail, time_secs, FigureReport, PreparedRetail, Series,
};
use bellwether_core::cube::significant_subsets;
use bellwether_core::{
    basic_search, build_naive_cube, build_naive_tree, build_optimized_cube, build_rainforest,
    build_single_scan_cube, evaluate_method, sampling_baseline_error, BellwetherConfig, CubeConfig,
    ErrorMeasure, EvalContext, ItemCentricEval, Method, TreeConfig,
};
use bellwether_datagen::{
    build_scale_workload, generate_simulation, RetailConfig, ScaleConfig, ScaleWorkload,
    SimulationConfig,
};
use bellwether_storage::{DiskSource, TrainingSource};
use std::path::PathBuf;

/// Figure 7's reports and the bellwether region found at each budget.
pub struct Fig07 {
    /// `fig07a`, `fig07b` and `fig07c`.
    pub reports: Vec<FigureReport>,
    /// `(budget, region label)` under 10-fold CV error (Fig. 7a).
    pub winners_cv: Vec<(f64, String)>,
    /// `(budget, region label)` under training-set error (Fig. 7c).
    pub winners_training: Vec<(f64, String)>,
}

fn figure(id: &str, title: &str, x: &str, y: &str, series: Vec<Series>) -> FigureReport {
    let mut fig = FigureReport::new(id, title, x, y);
    fig.series = series;
    fig
}

fn problem(
    budget: f64,
    min_coverage: f64,
    min_examples: usize,
    measure: ErrorMeasure,
) -> BellwetherConfig {
    BellwetherConfig::builder(budget)
        .min_coverage(min_coverage)
        .min_examples(min_examples)
        .error_measure(measure)
        .build()
        .expect("a valid configuration")
}

/// The basic analysis of Figs. 7 and 9 at every budget: the bellwether's,
/// the average region's and random budget-matched samples' error, the
/// fractions of regions indistinguishable from the bellwether at 95% and
/// 99%, and the bellwether's label.
struct BasicCurves {
    bel: Series,
    avg: Series,
    smp: Series,
    frac95: Series,
    frac99: Series,
    winners: Vec<(f64, String)>,
}

fn basic_curves(
    prep: &PreparedRetail,
    budgets: &[f64],
    measure: ErrorMeasure,
    trials: usize,
    sample_seed: u64,
) -> BasicCurves {
    let mut c = BasicCurves {
        bel: Series::new("Bel Err"),
        avg: Series::new("Avg Err"),
        smp: Series::new("Smp Err"),
        frac95: Series::new("95%"),
        frac99: Series::new("99%"),
        winners: Vec::new(),
    };
    for &budget in budgets {
        let config = problem(budget, 0.5, 20, measure);
        let result = basic_search(
            &prep.source,
            &prep.data.space,
            &prep.data.cost,
            &config,
            prep.data.items.len(),
        )
        .expect("basic search");
        c.bel
            .push(budget, result.bellwether().map(|r| r.error.value));
        c.avg.push(budget, result.average_error());
        let sample = sampling_baseline_error(
            &prep.data.space,
            &prep.cube_input,
            &prep.data.items,
            &prep.targets,
            &prep.data.cost,
            &config,
            trials,
            sample_seed + budget as u64,
        )
        .expect("sampling baseline");
        c.smp.push(budget, sample);
        c.frac95
            .push(budget, result.indistinguishable_fraction(0.95));
        c.frac99
            .push(budget, result.indistinguishable_fraction(0.99));
        if let Some(b) = result.bellwether() {
            c.winners.push((budget, b.label.clone()));
        }
    }
    c
}

/// Figure 7 — basic bellwether analysis of the mail-order dataset:
/// (a) RMSE of the bellwether (`Bel Err`), the average feasible region
/// (`Avg Err`) and random budget-matched collections (`Smp Err`) against
/// the budget under 10-fold CV error; (b) the fraction of regions
/// indistinguishable from the bellwether at 95% / 99% confidence; (c)
/// (a) under training-set error, which for linear models should look
/// almost identical.
pub fn fig07(quick: bool) -> Fig07 {
    let (n_items, trials) = if quick { (120, 2) } else { (400, 5) };
    let prep = prepare_retail(&RetailConfig::mail_order(n_items, 20060912));
    let budgets: Vec<f64> = (0..=8).map(|i| 5.0 + 10.0 * i as f64).collect();
    let cv = basic_curves(&prep, &budgets, ErrorMeasure::cv10(), trials, 7);
    let ts = basic_curves(&prep, &budgets, ErrorMeasure::TrainingSet, trials, 7);
    Fig07 {
        reports: vec![
            figure(
                "fig07a",
                "mail order: error vs budget (10-fold CV)",
                "budget",
                "RMSE",
                vec![cv.bel, cv.avg, cv.smp],
            ),
            figure(
                "fig07b",
                "mail order: fraction of indistinguishable regions",
                "budget",
                "fraction",
                vec![cv.frac95, cv.frac99],
            ),
            figure(
                "fig07c",
                "mail order: error vs budget (training-set error)",
                "budget",
                "RMSE",
                vec![ts.bel, ts.avg, ts.smp],
            ),
        ],
        winners_cv: cv.winners,
        winners_training: ts.winners,
    }
}

/// Item-centric prediction (Figs. 8 and 9c): 10-fold CV prediction RMSE
/// of the single-region, tree and cube methods at each budget, over the
/// regions that budget affords.
fn item_centric(
    prep: &PreparedRetail,
    budgets: &[f64],
    names: [&str; 3],
    eval: ItemCentricEval,
) -> Vec<Series> {
    let n_items = prep.data.items.len();
    // Trees and cubes fit many small models per region: training-set
    // error keeps that tractable and, per Fig. 7(c), tracks CV for
    // linear models.
    let pr = problem(f64::INFINITY, 0.0, 20, ErrorMeasure::TrainingSet);
    let methods = [
        Method::Basic,
        Method::Tree(TreeConfig {
            min_node_items: (n_items / 8).max(20),
            max_numeric_splits: 16,
            prune_frac: 0.05,
            ..TreeConfig::default()
        }),
        Method::Cube(
            CubeConfig {
                min_subset_size: (n_items / 10).max(15),
            },
            0.95,
        ),
    ];
    let mut series = names.map(Series::new);
    for &budget in budgets {
        let source = budget_filtered_source(prep, budget);
        let ctx = EvalContext {
            source: &source,
            region_space: &prep.data.space,
            items: &prep.data.items,
            targets: &prep.targets,
            item_space: Some(&prep.data.item_space),
            item_coords: Some(&prep.data.item_coords),
        };
        for (s, method) in series.iter_mut().zip(&methods) {
            let rmse = if source.num_regions() == 0 {
                None
            } else {
                evaluate_method(&ctx, &pr, method, &eval).expect("item-centric evaluation")
            };
            s.push(budget, rmse);
        }
    }
    series.into()
}

/// Figure 8 — item-centric bellwether-based prediction on the mail-order
/// dataset: Basic vs Tree vs Cube at budgets 10–80.
pub fn fig08(quick: bool) -> Vec<FigureReport> {
    let (n_items, folds) = if quick { (120, 4) } else { (400, 10) };
    let prep = prepare_retail(&RetailConfig::mail_order(n_items, 20060912));
    let budgets: Vec<f64> = (1..=8).map(|i| 10.0 * i as f64).collect();
    let eval = ItemCentricEval { folds, seed: 0xF18 };
    vec![figure(
        "fig08",
        "mail order: item-centric prediction (Basic vs Tree vs Cube)",
        "budget",
        "RMSE",
        item_centric(&prep, &budgets, ["Basic", "Tree", "Cube"], eval),
    )]
}

/// Figure 9 — the book-store dataset, where **no clear bellwether
/// exists**: (a) error vs budget, (b) the fraction of indistinguishable
/// regions (expected to stay high), (c) Basic vs Tree vs Cube with no
/// clear winner.
pub fn fig09(quick: bool) -> Vec<FigureReport> {
    let (n_items, folds, trials) = if quick { (120, 4, 2) } else { (400, 10, 5) };
    let prep = prepare_retail(&RetailConfig::book_store(n_items, 2004));
    // The axis stays below the cost of the all-covering region (which
    // would contain the target itself).
    let budgets: Vec<f64> = (1..=7).map(|i| 20.0 * i as f64).collect();
    let cv = basic_curves(&prep, &budgets, ErrorMeasure::cv10(), trials, 9);
    let eval = ItemCentricEval { folds, seed: 0xF19 };
    vec![
        figure(
            "fig09a",
            "book store: error vs budget (10-fold CV)",
            "budget",
            "RMSE",
            vec![cv.bel, cv.avg, cv.smp],
        ),
        figure(
            "fig09b",
            "book store: fraction of indistinguishable regions",
            "budget",
            "fraction",
            vec![cv.frac95, cv.frac99],
        ),
        figure(
            "fig09c",
            "book store: item-centric prediction",
            "budget",
            "RMSE",
            item_centric(&prep, &budgets, ["SingleRegion", "Tree", "Cube"], eval),
        ),
    ]
}

/// Mean RMSE of the basic, tree and cube methods over `reps` simulated
/// datasets with a `nodes`-node concept at noise `noise`.
fn simulation_point(
    nodes: usize,
    noise: f64,
    reps: usize,
    n_items: usize,
    folds: usize,
) -> [Option<f64>; 3] {
    let pr = problem(f64::INFINITY, 0.0, 10, ErrorMeasure::TrainingSet);
    let methods = [
        Method::Basic,
        Method::Tree(TreeConfig {
            min_node_items: 30,
            max_numeric_splits: 4,
            prune_frac: 0.02,
            ..TreeConfig::default()
        }),
        Method::Cube(
            CubeConfig {
                min_subset_size: 25,
            },
            0.95,
        ),
    ];
    let mut acc: [Vec<f64>; 3] = Default::default();
    for rep in 0..reps {
        let cfg = SimulationConfig {
            n_items,
            ..SimulationConfig::paper(nodes, noise, 1000 + rep as u64)
        };
        let sim = generate_simulation(&cfg);
        let eval = ItemCentricEval {
            folds,
            seed: cfg.seed ^ 0xE7A1,
        };
        let ctx = EvalContext {
            source: &sim.source,
            region_space: &sim.region_space,
            items: &sim.items,
            targets: &sim.targets,
            item_space: Some(&sim.item_space),
            item_coords: Some(&sim.item_coords),
        };
        for (errors, method) in acc.iter_mut().zip(&methods) {
            let rmse = evaluate_method(&ctx, &pr, method, &eval).expect("simulation");
            errors.extend(rmse);
        }
    }
    acc.map(|xs| (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64))
}

/// One Figure 10 panel: the three methods at each `(x, nodes, noise)`.
fn simulation_panel(
    id: &str,
    title: &str,
    x_label: &str,
    points: &[(f64, usize, f64)],
    reps: usize,
    n_items: usize,
    folds: usize,
) -> FigureReport {
    let [mut basic, mut tree, mut cube] = ["basic", "tree", "cube"].map(Series::new);
    for &(x, nodes, noise) in points {
        eprintln!("{id}: {x_label} {x}…");
        let [b, t, c] = simulation_point(nodes, noise, reps, n_items, folds);
        basic.push(x, b);
        tree.push(x, t);
        cube.push(x, c);
    }
    figure(id, title, x_label, "RMSE", vec![cube, basic, tree])
}

/// Figure 10 — controlled simulation: prediction error of the cube,
/// basic and tree methods against (a) the noise level at a 15-node
/// concept and (b) the concept's node count at noise 0.5. Each point
/// averages several independently generated datasets.
pub fn fig10(quick: bool) -> Vec<FigureReport> {
    let (reps, n_items, folds) = if quick { (2, 300, 4) } else { (10, 1000, 10) };
    let noises = [0.05, 0.5, 1.0, 2.0].map(|noise| (noise, 15, noise));
    let nodes = [3usize, 7, 15, 31, 63].map(|nodes| (nodes as f64, nodes, 0.5));
    vec![
        simulation_panel(
            "fig10a",
            "simulation: error vs noise (15-node concept)",
            "noise",
            &noises,
            reps,
            n_items,
            folds,
        ),
        simulation_panel(
            "fig10b",
            "simulation: error vs concept complexity (noise 0.5)",
            "nodes",
            &nodes,
            reps,
            n_items,
            folds,
        ),
    ]
}

fn scale_problem() -> BellwetherConfig {
    problem(f64::INFINITY, 0.0, 10, ErrorMeasure::TrainingSet)
}

fn scale_tree(depth: usize, max_numeric_splits: usize) -> TreeConfig {
    TreeConfig {
        max_depth: depth,
        min_node_items: 200,
        max_numeric_splits,
        ..TreeConfig::default()
    }
}

/// A §7.4 workload written to a temporary file and opened with no cache,
/// so every region request is a real file read.
fn on_disk(cfg: &ScaleConfig, name: &str) -> (ScaleWorkload, DiskSource, PathBuf) {
    let w = build_scale_workload(cfg);
    let path = std::env::temp_dir().join(format!("bw_{name}.bwtd"));
    w.write_to_disk(&path).expect("write workload");
    let src = DiskSource::open(&path).expect("open workload");
    (w, src, path)
}

/// Seconds to build the single-scan and the optimized cube.
fn time_cubes(w: &ScaleWorkload, src: &DiskSource, cc: &CubeConfig) -> (f64, f64) {
    let pr = scale_problem();
    let (_, single) = time_secs(|| {
        build_single_scan_cube(src, &w.region_space, &w.item_space, &w.item_coords, &pr, cc)
            .expect("single-scan cube")
    });
    let (_, optimized) = time_secs(|| {
        build_optimized_cube(src, &w.region_space, &w.item_space, &w.item_coords, &pr, cc)
            .expect("optimized cube")
    });
    (single, optimized)
}

fn time_rainforest(w: &ScaleWorkload, src: &DiskSource, tc: &TreeConfig) -> f64 {
    let pr = scale_problem();
    time_secs(|| build_rainforest(src, &w.region_space, &w.items, None, &pr, tc).expect("RF tree"))
        .1
}

/// Figure 11 — efficiency and scalability on the §7.4 synthetic
/// workload, with the entire training data on disk and **no caching**:
/// (a) naive vs scan-based algorithms at 100–300 k examples, (b) the
/// single-scan vs the optimized cube and (c) the RF tree at 2.5–10 M
/// examples.
pub fn fig11(quick: bool) -> Vec<FigureReport> {
    let cc = CubeConfig {
        min_subset_size: 30,
    };
    let sizes_a: Vec<usize> = if quick {
        vec![20_000, 40_000]
    } else {
        vec![100_000, 200_000, 300_000]
    };
    let [mut naive_tree, mut rf_tree, mut naive_cube, mut single, mut opt] = [
        "naive tree",
        "RF tree",
        "naive cube",
        "single-scan cube",
        "optimized cube",
    ]
    .map(Series::new);
    for &n in &sizes_a {
        eprintln!("fig11a: {n} examples…");
        let (w, src, path) = on_disk(&ScaleConfig::sized_for(n, 411), &format!("fig11_{n}_411"));
        let x = n as f64 / 1000.0;
        let pr = scale_problem();
        let tc = scale_tree(if quick { 2 } else { 3 }, 8);
        let (_, t) = time_secs(|| {
            build_naive_tree(&src, &w.region_space, &w.items, None, &pr, &tc).expect("naive tree")
        });
        naive_tree.push(x, Some(t));
        rf_tree.push(x, Some(time_rainforest(&w, &src, &tc)));
        let (_, t) = time_secs(|| {
            build_naive_cube(
                &src,
                &w.region_space,
                &w.item_space,
                &w.item_coords,
                &pr,
                &cc,
            )
            .expect("naive cube")
        });
        naive_cube.push(x, Some(t));
        let (s, o) = time_cubes(&w, &src, &cc);
        single.push(x, Some(s));
        opt.push(x, Some(o));
        std::fs::remove_file(path).ok();
    }
    let fa = figure(
        "fig11a",
        "naive vs scan-based algorithms, all reads from disk",
        "thousands of examples",
        "seconds",
        vec![opt, naive_cube, single, naive_tree, rf_tree],
    );

    let sizes_b: Vec<usize> = if quick {
        vec![250_000, 500_000]
    } else {
        vec![2_500_000, 5_000_000, 7_500_000, 10_000_000]
    };
    let [mut single, mut opt, mut rf] =
        ["single-scan cube", "optimized cube", "RF tree"].map(Series::new);
    for &n in &sizes_b {
        eprintln!("fig11bc: {n} examples…");
        let (w, src, path) = on_disk(&ScaleConfig::sized_for(n, 412), &format!("fig11_{n}_412"));
        let x = n as f64 / 1_000_000.0;
        let (s, o) = time_cubes(&w, &src, &cc);
        single.push(x, Some(s));
        opt.push(x, Some(o));
        let tc = scale_tree(if quick { 2 } else { 7 }, 8);
        rf.push(x, Some(time_rainforest(&w, &src, &tc)));
        std::fs::remove_file(path).ok();
    }
    vec![
        fa,
        figure(
            "fig11b",
            "cube scalability (millions of examples)",
            "millions of examples",
            "seconds",
            vec![opt, single],
        ),
        figure(
            "fig11c",
            "RF tree scalability (millions of examples)",
            "millions of examples",
            "seconds",
            vec![rf],
        ),
    ]
}

/// Figure 12 — algorithm characteristics: (a) the optimized cube's
/// runtime against the number of significant item subsets (2.5 M
/// examples, item-hierarchy fanout swept); (b) the RF tree's runtime
/// against the number of item-table features (1 M examples, numeric
/// attribute count swept).
pub fn fig12(quick: bool) -> Vec<FigureReport> {
    let examples_a = if quick { 200_000 } else { 2_500_000 };
    let fanouts: Vec<usize> = if quick {
        vec![2, 4]
    } else {
        vec![2, 4, 8, 12, 16]
    };
    let cc = CubeConfig {
        min_subset_size: 10,
    };
    let mut opt = Series::new("optimized cube");
    for &fanout in &fanouts {
        let mut cfg = ScaleConfig::sized_for(examples_a, 501);
        cfg.item_hierarchy_leaves = [fanout, fanout, fanout];
        let (w, src, path) = on_disk(&cfg, &format!("fig12a_{fanout}"));
        let n_subsets = significant_subsets(&w.item_space, &w.item_coords, &cc)
            .map(|idx| idx.order.len())
            .unwrap_or(0);
        eprintln!("fig12a: fanout {fanout} → {n_subsets} significant subsets…");
        let pr = scale_problem();
        let (_, t) = time_secs(|| {
            build_optimized_cube(
                &src,
                &w.region_space,
                &w.item_space,
                &w.item_coords,
                &pr,
                &cc,
            )
            .expect("optimized cube")
        });
        opt.push(n_subsets as f64, Some(t));
        std::fs::remove_file(path).ok();
    }

    let examples_b = if quick { 100_000 } else { 1_000_000 };
    let attr_counts: Vec<usize> = if quick {
        vec![5, 10]
    } else {
        vec![25, 50, 100, 150, 200]
    };
    let mut rf = Series::new("RF tree");
    for &attrs in &attr_counts {
        eprintln!("fig12b: {attrs} item-table features…");
        let mut cfg = ScaleConfig::sized_for(examples_b, 502);
        cfg.n_numeric_attrs = attrs;
        let (w, src, path) = on_disk(&cfg, &format!("fig12b_{attrs}"));
        let tc = scale_tree(if quick { 2 } else { 3 }, 4);
        rf.push(attrs as f64, Some(time_rainforest(&w, &src, &tc)));
        std::fs::remove_file(path).ok();
    }
    vec![
        figure(
            "fig12a",
            "optimized cube vs number of significant subsets",
            "# significant subsets",
            "seconds",
            vec![opt],
        ),
        figure(
            "fig12b",
            "RF tree vs number of item-table features",
            "# item-table features",
            "seconds",
            vec![rf],
        ),
    ]
}
