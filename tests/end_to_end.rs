//! End-to-end integration: generate → label with a query → CUBE pass →
//! entire training data → basic bellwether search, asserting the
//! planted structure is recovered and the quality baselines order as
//! the paper's Figure 7 requires.

use bellwether::prelude::*;
use bellwether_core::build_cube_input;

struct Pipeline {
    data: bellwether_datagen::RetailDataset,
    source: MemorySource,
}

fn pipeline(n_items: usize, seed: u64) -> Pipeline {
    let mut cfg = RetailConfig::mail_order(n_items, seed);
    cfg.months = 8;
    cfg.converge_month = 6;
    cfg.states = Some(vec![
        "MD", "WI", "CA", "TX", "NY", "IL", "FL", "OH", "PA", "GA", "VA", "NC",
    ]);
    let data = generate_retail(&cfg);
    let (task, par) = (data.task(), Parallelism::default());
    let regions = task.regions_within(f64::INFINITY);
    let source = task.materialize(&regions, Memory, par, &NoopRecorder).unwrap();
    Pipeline { data, source }
}

#[test]
fn planted_bellwether_is_recovered() {
    let p = pipeline(150, 11);
    let config = BellwetherConfig::builder(30.0)
        .min_coverage(0.5)
        .min_examples(20)
        .build()
        .unwrap();
    let result = basic_search(&p.source, &p.data.space, &p.data.cost, &config, 150).unwrap();
    let best = result.bellwether().expect("bellwether exists");
    assert!(
        best.label.contains("MD"),
        "expected an MD region, got {}",
        best.label
    );
    // The planted signal converges at month 6; longer affordable
    // intervals should include it.
    assert!(best.cost <= 30.0);
}

#[test]
fn bellwether_beats_average_and_sampling() {
    let p = pipeline(150, 12);
    let config = BellwetherConfig::builder(30.0)
        .min_coverage(0.5)
        .min_examples(20)
        .build()
        .unwrap();
    let result =
        basic_search(&p.source, &p.data.space, &p.data.cost, &config, 150).unwrap();
    let bel = result.bellwether().unwrap().error.value;
    let avg = result.average_error().unwrap();
    let targets = global_target(&p.data.db, "profit", AggFunc::Sum).unwrap();
    let input = build_cube_input(&p.data.db, &p.data.space, &p.data.feature_queries).unwrap();
    let smp = sampling_baseline_error(
        &p.data.space,
        &input,
        &p.data.items,
        &targets,
        &p.data.cost,
        &config,
        3,
        77,
    )
    .unwrap()
    .unwrap();
    assert!(bel < avg, "Bel {bel} < Avg {avg}");
    assert!(bel < smp, "Bel {bel} < Smp {smp}");
}

#[test]
fn error_decreases_with_budget_until_convergence() {
    let p = pipeline(150, 13);
    let mut errors = Vec::new();
    for budget in [10.0, 20.0, 40.0, 80.0] {
        let config = BellwetherConfig::builder(budget)
            .min_coverage(0.5)
            .min_examples(20)
            .build()
            .unwrap();
        let result =
            basic_search(&p.source, &p.data.space, &p.data.cost, &config, 150).unwrap();
        errors.push(result.bellwether().map(|b| b.error.value));
    }
    let errs: Vec<f64> = errors.into_iter().flatten().collect();
    assert!(errs.len() >= 3, "most budgets feasible");
    // Non-strictly decreasing overall: later budgets can only widen the
    // feasible set, so the minimum cannot increase.
    for w in errs.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-9,
            "error must not increase with budget: {errs:?}"
        );
    }
}

#[test]
fn indistinguishability_drops_once_signal_converges() {
    let p = pipeline(150, 14);
    let frac_at = |budget: f64| {
        let config = BellwetherConfig::builder(budget)
            .min_coverage(0.5)
            .min_examples(20)
            .build()
            .unwrap();
        basic_search(&p.source, &p.data.space, &p.data.cost, &config, 150)
            .unwrap()
            .indistinguishable_fraction(0.95)
            .unwrap_or(1.0)
    };
    // Once [1-6, MD] is affordable the bellwether is nearly unique.
    assert!(frac_at(60.0) < 0.15, "converged bellwether should be near-unique");
}

#[test]
fn training_set_error_tracks_cv_error() {
    // The Fig. 7(a)-vs-(c) claim at pipeline level.
    let p = pipeline(150, 15);
    let cv_cfg = BellwetherConfig::builder(40.0)
        .min_coverage(0.5)
        .min_examples(20)
        .error_measure(ErrorMeasure::cv10())
        .build()
        .unwrap();
    let mut tr_cfg = cv_cfg.clone();
    tr_cfg.error_measure = ErrorMeasure::TrainingSet;
    let cv = basic_search(&p.source, &p.data.space, &p.data.cost, &cv_cfg, 150).unwrap();
    let tr = basic_search(&p.source, &p.data.space, &p.data.cost, &tr_cfg, 150).unwrap();
    let (cb, tb) = (cv.bellwether().unwrap(), tr.bellwether().unwrap());
    // Same (or equally good) region and similar error magnitude.
    let rel = (cb.error.value - tb.error.value).abs() / cb.error.value.max(1e-9);
    assert!(rel < 0.25, "cv {} vs training {}", cb.error.value, tb.error.value);
}

#[test]
fn disk_backed_pipeline_matches_memory() {
    let mut cfg = RetailConfig::mail_order(60, 16);
    cfg.months = 5;
    cfg.converge_month = 4;
    cfg.states = Some(vec!["MD", "WI", "CA", "TX"]);
    let data = generate_retail(&cfg);
    let (task, par) = (data.task(), Parallelism::default());
    let regions = task.regions_within(f64::INFINITY);
    let mem = task.materialize(&regions, Memory, par, &NoopRecorder).unwrap();

    let path = std::env::temp_dir().join("bw_e2e_disk.bwtd");
    let arity = data.space.arity() as u32;
    let mut writer =
        bellwether::storage::TrainingWriter::create(&path, mem.feature_arity() as u32, arity)
            .unwrap();
    for block in mem.blocks() {
        writer.write_region(block).unwrap();
    }
    writer.finish().unwrap();
    let disk = DiskSource::open(&path).unwrap();

    let config = BellwetherConfig::builder(25.0)
        .min_coverage(0.5)
        .min_examples(10)
        .build()
        .unwrap();
    let a = basic_search(&mem, &data.space, &data.cost, &config, 60).unwrap();
    let b = basic_search(&disk, &data.space, &data.cost, &config, 60).unwrap();
    assert_eq!(
        a.bellwether().map(|r| r.region.clone()),
        b.bellwether().map(|r| r.region.clone())
    );
    assert_eq!(a.reports.len(), b.reports.len());
    std::fs::remove_file(&path).ok();
}
