//! The micro-benchmark ratchets: every hand-written kernel timed beside
//! the baseline it replaced, in the same process, with a floor on the
//! speedup. The run prints each ratio beside its floor and exits 1 if any
//! ratio is below it. Ratios of the fastest samples are self-relative, so
//! a floor holds on any machine; what the whole pipeline costs is
//! `benchmark/`'s to say, not this file's.
//!
//! Run with `cargo bench -p bellwether-bench --bench ratchets`.

use bellwether_bench::{prepare_retail, Harness};
use bellwether_core::{
    basic_search, build_cube_input, build_rainforest, BellwetherConfig, ErrorMeasure, TreeConfig,
};
use bellwether_cube::cube_pass::cube_pass_reference;
use bellwether_cube::{cube_pass_with, CostModel, Parallelism, RegionId, RegionSpace};
use bellwether_datagen::{build_scale_workload, generate_retail, RetailConfig, ScaleConfig};
use bellwether_linreg::{
    fit_wls, fold_assignment, ErrorEstimate, RegSuffStats, RegressionData, SplitMix64,
};
use bellwether_storage::crc32::{crc32, crc32_bytewise, crc32_finish, crc32_table, CRC_INIT};
use bellwether_storage::TrainingSource;
use std::hint::black_box;
use std::process::ExitCode;

const SEED: u64 = 0xBE11;

/// Ten states, the shape of the retail cells below.
const STATES: [&str; 10] = ["MD", "WI", "CA", "TX", "NY", "IL", "FL", "OH", "PA", "GA"];

fn problem(measure: ErrorMeasure) -> BellwetherConfig {
    BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(10)
        .error_measure(measure)
        .parallelism(Parallelism::fixed(1))
        .build()
        .unwrap()
}

/// Classic refit k-fold CV: for every fold, materialise the training
/// complement as a fresh dataset copy and rebuild the Gram matrix from
/// its raw rows — `O(k·n·p²)` plus `k` copies, against the engine's one
/// statistics pass and `k` downdated `O(p³)` solves. Fold shuffling and
/// held-out sweeps mirror the engine exactly, so the two agree to
/// rounding.
fn refit_cv_estimate(data: &RegressionData, k: usize) -> Option<ErrorEstimate> {
    let n = data.n();
    if n < 2 {
        return None;
    }
    let assignment = fold_assignment(n, k, SEED);
    let k = assignment.iter().copied().max().map_or(1, |m| m + 1);
    let mut fold_rmses = Vec::with_capacity(k);
    for fold in 0..k {
        let mut train = RegressionData::with_capacity(data.p(), n);
        for (i, &f) in assignment.iter().enumerate() {
            if f != fold {
                train.push(&data.row(i), data.y(i));
            }
        }
        let Some(model) = fit_wls(&train) else {
            continue;
        };
        let (mut sse, mut count) = (0.0, 0usize);
        for (i, &f) in assignment.iter().enumerate() {
            if f == fold {
                let r = data.y(i) - data.predict_at(i, model.coefficients());
                sse += r * r;
                count += 1;
            }
        }
        if count > 0 {
            fold_rmses.push((sse / count as f64).sqrt());
        }
    }
    (!fold_rmses.is_empty()).then(|| ErrorEstimate::from_folds(&fold_rmses))
}

/// The pre-engine basic search, reconstructed: per region, copy the
/// block into a dataset, run [`refit_cv_estimate`], fit the candidate
/// model from raw rows and look up the report fields `basic_search`
/// produces (label, cost). Returns the min-error (region index, value)
/// with the same strict-< lowest-index tie-breaking.
fn refit_basic_search(
    source: &dyn TrainingSource,
    space: &RegionSpace,
    cost_model: &dyn CostModel,
    folds: usize,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for i in 0..source.num_regions() {
        let block = source.read_region(i).expect("readable region");
        if block.n() < 10 {
            continue;
        }
        let mut data = RegressionData::with_capacity(source.feature_arity(), block.n());
        data.extend_from_cols(block.cols(), &block.targets);
        let Some(e) = refit_cv_estimate(&data, folds) else {
            continue;
        };
        let Some(model) = fit_wls(&data) else {
            continue;
        };
        let region = RegionId(source.region_coords(i).to_vec());
        black_box((model, space.label(&region), cost_model.cost(space, &region)));
        if best.is_none_or(|(_, v)| e.value.total_cmp(&v).is_lt()) {
            best = Some((i, e.value));
        }
    }
    best
}

/// A dataset of `n` rows with `p` features, column-major for the batched
/// kernel and row-major for the scalar one (so the scalar path is charged
/// for its arithmetic, not for row extraction).
fn dataset(n: usize, p: usize) -> (RegressionData, Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = SplitMix64::new(0x5EED ^ ((n as u64) << 8) ^ p as u64);
    let mut data = RegressionData::new(p);
    let (mut rows, mut ys) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let x: Vec<f64> = (0..p)
            .map(|_| rng.next_u64() as f64 / u64::MAX as f64 * 10.0 - 5.0)
            .collect();
        let y = x.iter().sum::<f64>() + rng.next_u64() as f64 / u64::MAX as f64;
        data.push(&x, y);
        rows.push(x);
        ys.push(y);
    }
    (data, rows, ys)
}

fn main() -> ExitCode {
    let mut h = Harness::new();
    // (what, baseline's fastest sample / the kernel's, floor)
    let mut ratios: Vec<(&str, f64, f64)> = Vec::new();

    // --- The CUBE pass: the dense-keyed kernel against the hash-per-row
    // reference on a 150-item × 8-month × 10-state retail dataset.
    let mut cfg = RetailConfig::mail_order(150, 99);
    cfg.months = 8;
    cfg.converge_month = 6;
    cfg.states = Some(STATES.to_vec());
    let data = generate_retail(&cfg);
    let input = build_cube_input(&data.db, &data.space, &data.feature_queries).unwrap();
    let reference = h
        .bench("cube_pass_reference_retail_150x8x10", || {
            cube_pass_reference(&data.space, &input)
        })
        .min_secs();
    let dense = h
        .bench("cube_pass_retail_150x8x10/threads=1", || {
            cube_pass_with(&data.space, &input, Parallelism::fixed(1), None)
        })
        .min_secs();
    ratios.push((
        "CUBE pass, dense kernel vs reference",
        reference / dense,
        2.0,
    ));

    // --- Sufficient statistics: batched columnar `add_rows` against the
    // row-at-a-time `add`. The two sum in different canonical orders and
    // must agree to rounding (a bench of a broken kernel is no speedup).
    let (columns, rows, ys) = dataset(131072, 8);
    let scalar_add = || {
        let mut s = RegSuffStats::new(8);
        for (x, &y) in rows.iter().zip(&ys) {
            s.add(x, y, 1.0);
        }
        s
    };
    let add_rows = || {
        let mut s = RegSuffStats::new(8);
        s.add_rows(&columns);
        s
    };
    let (a, b) = (scalar_add().sse().unwrap(), add_rows().sse().unwrap());
    assert!(
        (a - b).abs() <= 1e-7 * a.abs().max(1.0),
        "kernels diverged: {a} vs {b}"
    );
    let scalar = h
        .bench(
            "suffstats_accumulate/n=131072/p=8/kernel=scalar",
            scalar_add,
        )
        .min_secs();
    let batched = h
        .bench("suffstats_accumulate/n=131072/p=8/kernel=batched", add_rows)
        .min_secs();
    ratios.push(("suffstats add_rows vs scalar add", scalar / batched, 1.2));

    // --- CRC-32 over 1 MiB: slice-by-8 against bytewise, and where the
    // CPU has it the carry-less-multiply fold against slice-by-8.
    let mut rng = SplitMix64::new(1 << 20);
    let bytes: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
    assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    let bytewise = h
        .bench("crc32/len=1048576/kernel=bytewise", || {
            crc32_bytewise(&bytes)
        })
        .min_secs();
    let slice8 = h
        .bench("crc32/len=1048576/kernel=slice8", || {
            crc32_finish(crc32_table(CRC_INIT, &bytes))
        })
        .min_secs();
    ratios.push(("crc32 slice-by-8 vs bytewise", bytewise / slice8, 2.0));
    let crc_kernel = bellwether_storage::crc32::kernel();
    println!("crc32 kernel for inputs of 64 bytes or more: {crc_kernel}");
    if crc_kernel == "clmul" {
        let clmul = h
            .bench("crc32/len=1048576/kernel=clmul", || crc32(&bytes))
            .min_secs();
        ratios.push(("crc32 clmul vs slice-by-8", slice8 / clmul, 3.0));
    }

    // --- Cross-validation: the algebraic engine (one statistics pass per
    // region, k downdated solves) against per-fold refits, on regions
    // wide enough for the k Gram rebuilds to show. Both must pick the same
    // bellwether with the same error.
    let mut retail_cfg = RetailConfig::mail_order(600, 99);
    retail_cfg.months = 8;
    retail_cfg.converge_month = 6;
    retail_cfg.states = Some(STATES.to_vec());
    let retail = prepare_retail(&retail_cfg);
    let (source, items, n_items) = (&retail.source, &retail.data.items, retail.data.items.len());
    let (space, cost) = (&retail.data.space, &retail.data.cost);
    let cv = |folds| problem(ErrorMeasure::CrossValidation { folds, seed: SEED });
    for folds in [2usize, 5, 10] {
        let engine = basic_search(source, space, cost, &cv(folds), n_items).unwrap();
        let best = engine.bellwether().expect("engine found a bellwether");
        let (refit_idx, refit_err) =
            refit_basic_search(source, space, cost, folds).expect("refit found one");
        assert_eq!(
            best.source_index, refit_idx,
            "engine and refit disagree at folds={folds}"
        );
        // Relative agreement, with an absolute floor: an exact-fit
        // region's CV error is pure rounding noise in both paths.
        let diff = (best.error.value - refit_err).abs();
        assert!(
            diff < 1e-8 * refit_err.abs() || diff < 1e-9,
            "engine and refit errors diverge at folds={folds}: {} vs {refit_err}",
            best.error.value
        );
    }
    let cv10 = cv(10);
    let refit = h
        .bench(
            "basic_search_retail/engine=refit/threads=1/folds=10",
            || refit_basic_search(source, space, cost, 10),
        )
        .min_secs();
    let algebraic = h
        .bench(
            "basic_search_retail/engine=algebraic/threads=1/folds=10",
            || basic_search(source, space, cost, &cv10, n_items).unwrap(),
        )
        .min_secs();
    ratios.push((
        "CV-10 basic search, algebraic vs refit",
        refit / algebraic,
        3.0,
    ));
    // Timed, not held to a floor: the cell a CV tree that scores levels
    // from per-fold statistics would be judged by.
    let retail_tc = TreeConfig {
        max_depth: 2,
        min_node_items: 30,
        ..TreeConfig::default()
    };
    h.bench("tree_rainforest_retail_cv/threads=1/folds=10", || {
        build_rainforest(source, space, items, None, &cv10, &retail_tc).unwrap()
    });

    // --- The RF tree's level scan folds a row once per attribute however
    // many thresholds the attribute carries, so the library default of 50
    // thresholds per numeric attribute may cost at most 6× the 4 of the
    // cell beside it (gathering rows per candidate read ~13×).
    let w = build_scale_workload(&ScaleConfig {
        n_items: 300,
        fact_dim_leaves: [8, 8],
        item_hierarchy_leaves: [3, 3, 3],
        n_numeric_attrs: 3,
        regional_features: 4,
        bellwether_noise: 0.05,
        seed: 31,
    });
    let src = w.memory_source();
    let training = problem(ErrorMeasure::TrainingSet);
    let [four, fifty] = [4usize, 50].map(|splits| {
        let tc = TreeConfig {
            max_depth: 2,
            min_node_items: 60,
            max_numeric_splits: splits,
            ..TreeConfig::default()
        };
        let name = format!("tree_rainforest_81regions/splits={splits}");
        h.bench(&name, || {
            build_rainforest(&src, &w.region_space, &w.items, None, &training, &tc).unwrap()
        })
        .min_secs()
    });
    ratios.push((
        "RF tree, 4 vs 50 thresholds (50 ≤ 6×)",
        four / fifty,
        1.0 / 6.0,
    ));

    println!();
    let mut below = 0;
    for (what, ratio, floor) in ratios {
        let verdict = if ratio >= floor { "ok" } else { "BELOW FLOOR" };
        println!("{what:<40} {ratio:>7.2}x  (floor {floor:.2}x)  {verdict}");
        below += usize::from(ratio < floor);
    }
    if below > 0 {
        eprintln!("{below} ratchet(s) below their floor");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
