//! Observability tour: run the mail-order pipeline end to end with one
//! metrics [`Registry`] attached to every layer — the CUBE pass, the
//! disk storage reader/writer, the basic search, the RainForest tree
//! builder (one span per level scan, the empirical Lemma 1 witness) and
//! the optimized cube builder — then print the resulting span-tree
//! profile and counters.
//!
//! The registry also carries the fault-tolerance counters —
//! `storage/retries` (transient reads absorbed by `RetryingSource`),
//! `storage/corrupt_blocks` (CRC-32 mismatches on decode),
//! `storage/faults_injected` (faults served by a test `FaultySource`)
//! and `scan/regions_skipped` (regions dropped by a
//! `ScanPolicy::SkipUnreadable` scan). They stay zero on this healthy
//! run; `examples/fault_tolerance.rs` exercises all four.
//!
//! Right after the CUBE pass come its merges per base cell (how often a
//! cell's state was folded into an occupied slot on the way up: the
//! rollup keeps one running table per location and hands it out week by
//! week, so this stays near the number of location ancestors instead of
//! growing with the weeks), then the same input through the external
//! pass with no byte budget at all, so its one run spills, with the five
//! spans that decompose what a spill costs: run close, spill write,
//! read-back + decode, the k-way merge, and the rollup. Then the same
//! pass runs twice more on one thread, with and without the
//! `DistinctKeyed` measures, and prints what share of the pass (and of
//! its rollup phase) the distinct-FK lanes account for.
//!
//! A short streaming section appends three weeks to a
//! `StreamingBellwether` — two in time order, then the first of them
//! again — and prints the `stream/*` counters: `regions_extended`
//! (dirty regions whose retained rollup state took the new cells in
//! place) against `regions_rebuilt` (dirty regions re-aggregated from
//! everything they cover, which only the repeated week causes).
//!
//! Every `assert!` below is a check on the metrics layer itself (the
//! CUBE counters and span, the CV engine's work counters, the cache's
//! hits and misses), so CI runs this example.
//!
//! Run with: `cargo run --release --example observability`

use bellwether::prelude::*;
use std::collections::HashMap;

fn main() {
    let reg = Registry::shared();

    // ---- the retail workload (the quickstart's bigger sibling).
    let mut cfg = RetailConfig::mail_order_heterogeneous(240, 7);
    cfg.months = 8;
    cfg.converge_month = 6;
    println!("generating mail-order dataset ({} items)…", cfg.n_items);
    let data = generate_retail(&cfg);
    let targets: HashMap<i64, f64> =
        global_target(&data.db, "profit", AggFunc::Sum).unwrap();
    let cube_input =
        build_cube_input(&data.db, &data.space, &data.feature_queries).unwrap();

    // ---- CUBE pass, reporting phases + counters into the registry.
    let cube_result =
        cube_pass_traced(&data.space, &cube_input, Parallelism::default(), reg.as_ref());

    let snap = reg.snapshot();
    println!(
        "CUBE pass: {} rows scanned, {} regions emitted",
        snap.rows_scanned(),
        snap.regions_emitted()
    );
    assert!(snap.rows_scanned() > 0 && snap.base_cells() > 0 && snap.regions_emitted() > 0);
    assert!(
        snap.spans.iter().any(|s| s.path.starts_with("cube_pass/")),
        "the CUBE pass recorded no span"
    );

    println!(
        "CUBE pass: {:.1} merges per base cell ({} merges, {} base cells)",
        snap.cell_merges() as f64 / snap.base_cells() as f64,
        snap.cell_merges(),
        snap.base_cells()
    );

    // ---- what a spill costs: the same input through the external pass
    // under a zero byte budget, on one thread so a span is CPU time.
    let ext = Registry::shared();
    let spilled = bellwether::cube::cube_pass_external(
        &data.space,
        std::slice::from_ref(&cube_input),
        Parallelism::fixed(1),
        0,
        ext.as_ref(),
    )
    .expect("spill I/O");
    assert_eq!(spilled.regions.len(), cube_result.regions.len());
    let ext_snap = ext.snapshot();
    let ms = |path: &str| ext_snap.span(path).map_or(0.0, |s| s.total_secs() * 1e3);
    let decode = ms(bellwether::obs::names::CUBE_PASS_EXTERNAL_DECODE);
    println!(
        "forced-spill rerun ({} run(s), {} bytes spilled):",
        ext_snap.counter("shard/spills").unwrap_or(0),
        ext_snap.counter("shard/spill_bytes").unwrap_or(0)
    );
    for (what, millis) in [
        ("run close (phase1_merge)", ms("cube_pass/phase1_merge")),
        ("spill write (external_spill)", ms("cube_pass/external_spill")),
        ("read-back + decode (external_decode)", decode),
        ("k-way merge (external_merge - decode)", ms("cube_pass/external_merge") - decode),
        ("rollup (phase2_rollup)", ms("cube_pass/phase2_rollup")),
    ] {
        println!("  {what:<40} {millis:>8.2} ms");
    }

    // ---- what the distinct-FK lanes cost: the same pass with the
    // `DistinctKeyed` measures and without them, through one recorder
    // (reset in between), on one thread so a span is CPU time.
    let lanes = Registry::shared();
    let mut numeric_only = cube_input.clone();
    numeric_only
        .measures
        .retain(|m| matches!(m, bellwether::cube::Measure::Numeric { .. }));
    // The fastest of three passes: (whole pass, its rollup phase).
    let pass_and_rollup_ms = |input: &CubeInput| -> (f64, f64) {
        (0..3)
            .map(|_| {
                lanes.reset();
                cube_pass_traced(&data.space, input, Parallelism::fixed(1), lanes.as_ref());
                let snap = lanes.snapshot();
                let ms = |phase: &str| {
                    snap.span(&format!("cube_pass/{phase}"))
                        .map_or(0.0, |s| s.total_secs() * 1e3)
                };
                let rollup = ms("phase2_rollup");
                (ms("phase1_scan") + ms("phase1_merge") + rollup, rollup)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("three passes")
    };
    let (with, with_rollup) = pass_and_rollup_ms(&cube_input);
    let (without, without_rollup) = pass_and_rollup_ms(&numeric_only);
    println!(
        "CUBE pass with / without its {} distinct-FK measure(s): {with:.1} / {without:.1} ms \
         (rollup {with_rollup:.1} / {without_rollup:.1} ms) — the distinct lanes are {:.0}% of the pass",
        cube_input.measures.len() - numeric_only.measures.len(),
        (1.0 - without / with) * 100.0
    );

    // ---- entire training data on disk, written and read through the
    // registry-bound storage layer.
    let budget = 40.0;
    let regions: Vec<RegionId> = data
        .space
        .all_regions()
        .into_iter()
        .filter(|r| data.cost.cost(&data.space, r) <= budget)
        .collect();
    let path = std::env::temp_dir().join("bellwether_observability.btd");
    write_disk_source_in_registry(
        &path,
        &cube_result,
        &regions,
        &data.space,
        &data.items,
        &targets,
        &reg,
    )
    .unwrap();
    let source = DiskSource::open_with_registry(&path, &reg).unwrap();
    // Every block written above and read below is checksummed; say
    // which kernel this CPU runs it through ("table" is the slow path).
    println!(
        "block checksums: crc32 kernel = {}",
        bellwether::storage::crc32::kernel()
    );

    let problem = BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(20)
        .error_measure(ErrorMeasure::TrainingSet)
        .recorder(reg.clone())
        .build()
        .unwrap();

    // ---- basic search, tree and cube, all profiled.
    let search =
        basic_search(&source, &data.space, &data.cost, &problem, data.items.len()).unwrap();
    println!(
        "basic search: {} regions evaluated, bellwether {}",
        search.reports.len(),
        search.report().map_or("-".into(), |r| r.label)
    );

    // ---- the algebraic CV engine's work counters: the same search
    // under 10-fold cross-validation, read back through the snapshot
    // accessors. Every fold is fit by downdating shared sufficient
    // statistics, so `linreg/fits` counts Cholesky solves, not data
    // passes — every solve of every builder, once: the scans' (one per
    // evaluated set, `k` more under CV) and the winner fits after them
    // (one per fitted tree node, two per cube cell: its estimate and its
    // model). A warm per-worker scratch means evaluations reuse buffers
    // instead of allocating (`linreg/scratch_reuses`).
    let cv_problem = BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(20)
        .error_measure(ErrorMeasure::cv10())
        .recorder(reg.clone())
        .build()
        .unwrap();
    let _ = basic_search(&source, &data.space, &data.cost, &cv_problem, data.items.len())
        .unwrap();
    let snap = reg.snapshot();
    println!(
        "CV-10 search: {} model fits, {} CV folds evaluated, {} ridge rescues",
        snap.fits(),
        snap.cv_folds_evaluated(),
        snap.ridge_rescues(),
    );
    let reuses = snap.counter("linreg/scratch_reuses").unwrap_or(0);
    let grows = snap.counter("linreg/scratch_grows").unwrap_or(0);
    println!("engine scratch: {reuses} reuses / {grows} grows (allocation-free once warm)");
    assert!(snap.fits() > 0 && snap.cv_folds_evaluated() > 0);
    assert!(reuses > 0 && reuses >= 10 * grows, "scan scratch not reused: {reuses} reuses, {grows} grows");

    let tree_cfg = TreeConfig {
        min_node_items: 60,
        max_numeric_splits: 8,
        ..TreeConfig::default()
    };
    let tree =
        build_rainforest(&source, &data.space, &data.items, None, &problem, &tree_cfg)
            .unwrap();
    println!("RF tree: {} nodes, depth {}", tree.nodes.len(), tree.depth());
    // A level scan hands every block row to its node exactly once:
    // scans × the rows of one pass over the data. The root's level is
    // always scanned, a level below it only if one of its nodes may
    // split — each node inherits its bellwether from the scan that
    // scored it as a child — so the leaves' level usually is not.
    let snap = reg.snapshot();
    let rows_routed = snap.counter("tree/rows_routed").unwrap_or(0);
    let level_scans = (0..)
        .take_while(|d| snap.span(&format!("tree/rainforest/level{d}")).is_some())
        .count();
    assert!((1..=tree.depth() + 1).contains(&level_scans));
    println!("RF tree: {rows_routed} rows routed over {level_scans} level scans");
    // Under the training-set measure a routed row is never copied: its
    // terms are added to one bucket slot per attribute with a candidate,
    // and at the root to its node's total slot too — attributes (+ 1)
    // additions a row, where gathering made one pass per candidate. The
    // slots of the widest level are all a scan worker holds: Lemma 1's
    // in-memory MinError table.
    let floats_per_slot = {
        let p = source.feature_arity();
        1 + p + p * (p + 1) / 2
    };
    let stat_slots = snap.counter("tree/stat_slots").unwrap_or(0);
    println!(
        "RF tree: {:.2} slot additions per routed row; {stat_slots} slots x {floats_per_slot} floats = {:.1} KiB per worker",
        snap.counter("tree/slot_adds").unwrap_or(0) as f64 / rows_routed as f64,
        (stat_slots as usize * (floats_per_slot * 8 + 4)) as f64 / 1024.0
    );

    let cube_cfg = CubeConfig {
        min_subset_size: 30,
    };
    let cube = build_optimized_cube(
        &source,
        &data.space,
        &data.item_space,
        &data.item_coords,
        &problem,
        &cube_cfg,
    )
    .unwrap();
    println!("optimized cube: {} cells", cube.cells.len());

    // Legacy cross-check for storage I/O: replay the tree build on a
    // plain DiskSource and compare its IoStats-backed snapshot against
    // the registry's running counters.
    let before = reg.snapshot().regions_read();
    let _ = build_rainforest(&source, &data.space, &data.items, None, &problem, &tree_cfg)
        .unwrap();
    let tree_reads = reg.snapshot().regions_read() - before;
    let plain = DiskSource::open(&path).unwrap();
    let _ = build_rainforest(&plain, &data.space, &data.items, None, &problem, &tree_cfg)
        .unwrap();
    assert_eq!(
        plain.snapshot().regions_read(),
        tree_reads,
        "registry and legacy IoStats disagree on regions read"
    );
    println!("tree build: {tree_reads} region reads (matches legacy IoStats)");

    // ---- decoded-block cache: the RF tree reads the entire training
    // data once per level, so everything after the first level-scan is
    // served from memory. Hits bypass the inner source (real reads stay
    // honest); the cache's own counters land in the same registry.
    let cached =
        CachedSource::with_registry(DiskSource::open(&path).unwrap(), 16 << 20, &reg);
    let _ = build_rainforest(&cached, &data.space, &data.items, None, &problem, &tree_cfg)
        .unwrap();
    let snap = reg.snapshot();
    assert!(snap.cache_hits() > 0, "level re-scans should hit the cache");
    assert!(snap.cache_misses() > 0, "a cold cache should miss");
    println!(
        "cached tree build: {} hits / {} misses ({:.1}% hit rate), {} evictions",
        snap.cache_hits(),
        snap.cache_misses(),
        snap.cache_hit_rate() * 100.0,
        snap.cache_evictions()
    );

    // ---- streaming appends: in time order every dirty region extends
    // its retained rollup state; a week appended again falls back to
    // re-aggregation, and the counters say so.
    let wl = bellwether::datagen::build_stream_workload(&Default::default());
    let stream_dir = std::env::temp_dir().join("bellwether_observability_stream");
    std::fs::remove_dir_all(&stream_dir).ok();
    let mut engine = bellwether::core::StreamingBellwether::create(
        &stream_dir,
        &wl.region_space,
        &wl.input_range(0, 4),
        &wl.item_universe(),
        wl.items.clone(),
        wl.target_map(),
        wl.regions.clone(),
        std::sync::Arc::new(UniformCellCost { rate: 1.0 }),
        problem.clone(),
        wl.items.len(),
        2,
        1 << 20,
    )
    .unwrap();
    let stream_count = |name: &str| reg.snapshot().counter(name).unwrap_or(0);
    for week in [4, 5] {
        engine.append(&wl.input_range(week, week + 1)).unwrap();
    }
    assert_eq!(stream_count("stream/regions_rebuilt"), 0);
    println!(
        "2 appends in time order: {} dirty regions extended in place, 0 rebuilt",
        stream_count("stream/regions_extended")
    );
    engine.append(&wl.input_range(4, 5)).unwrap();
    println!(
        "week 5 appended again: {} regions rebuilt from everything they cover",
        stream_count("stream/regions_rebuilt")
    );
    assert!(stream_count("stream/regions_rebuilt") > 0);
    std::fs::remove_dir_all(&stream_dir).ok();

    // ---- one span per RainForest level scan (Lemma 1, observed): every
    // level above the leaves has one.
    let snap = reg.snapshot();
    for d in 0..tree.depth().max(1) {
        assert!(
            snap.span(&format!("tree/rainforest/level{d}")).is_some(),
            "missing level {d} scan span"
        );
    }

    println!("\n==== span-tree profile ====");
    print!("{}", snap.render_span_tree());
    println!("\n==== counters ====");
    for (name, value) in &snap.counters {
        println!("{name:<32} {value}");
    }

    std::fs::remove_file(&path).ok();
}
