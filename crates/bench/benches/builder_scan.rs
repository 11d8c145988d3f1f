//! The shared region-scan engine (`bellwether_core::scan_regions`)
//! under the builders the paper benchmarks: the RF bellwether tree
//! (§5.2) and the bellwether cubes (§6).
//!
//! Three series land in `results/BENCH_builder_scan.json`:
//!
//! * a thread matrix for the RF tree and the optimized cube on an
//!   81-region scale workload (large enough to clear the
//!   `Parallelism::min_chunk` sequential fallback), plus the same tree at
//!   the library default of 50 thresholds per numeric attribute;
//! * the same builders on the small 150-item retail workload at
//!   `threads=1` vs `threads=4`, guarding the fallback against the
//!   regression the CUBE-pass bench once recorded;
//! * cache on/off on a real `DiskSource` — the RF tree's `l`
//!   level-scans and the naive cube's per-subset scans re-read every
//!   block, so the decoded-block cache removes all repeat decodes.
//!
//! A final traced run dumps the metrics snapshot (including
//! `storage/cache_*`) to `results/BENCH_builder_scan_metrics.json`.

use bellwether_bench::{emit_metrics_json, prepare_retail, results_dir, Harness};
use bellwether_core::{
    build_naive_cube, build_optimized_cube, build_rainforest, BellwetherConfig, CubeConfig,
    ErrorMeasure, TreeConfig,
};
use bellwether_cube::Parallelism;
use bellwether_datagen::{build_scale_workload, RetailConfig, ScaleConfig};
use bellwether_obs::Registry;
use bellwether_storage::{
    CachedSource, DiskSource, MemorySource, TrainingSource, TrainingWriter,
};

/// The RF tree at the library's default threshold count.
const SPLITS50: &str = "tree_rainforest_81regions_splits50/threads=1";

/// What [`SPLITS50`] took at the parent commit (PR 16, where every
/// candidate criterion gathered its children's rows and ran a statistics
/// pass over them): the median of a full 10-sample run of this cell
/// built against that commit, on the same machine as the committed
/// results.
const SPLITS50_PARENT_MEDIAN_SECS: f64 = 0.076652;

fn problem(threads: usize) -> BellwetherConfig {
    BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(10)
        .error_measure(ErrorMeasure::TrainingSet)
        .parallelism(Parallelism::fixed(threads))
        .build()
        .unwrap()
}

/// Write the in-memory blocks out as a positioned-read disk file, so
/// the cache series measures real decode traffic.
fn write_blocks(src: &MemorySource, arity: u32, path: &std::path::Path) {
    let p = src.feature_arity() as u32;
    let mut w = TrainingWriter::create(path, p, arity).expect("create disk source");
    for block in src.blocks() {
        w.write_region(block).expect("write block");
    }
    w.finish().expect("finish disk source");
}

fn main() {
    let quick = bellwether_bench::quick_mode();
    let cfg = ScaleConfig {
        n_items: if quick { 120 } else { 300 },
        fact_dim_leaves: [8, 8],
        item_hierarchy_leaves: [3, 3, 3],
        n_numeric_attrs: 3,
        regional_features: 4,
        bellwether_noise: 0.05,
        seed: 31,
    };
    let w = build_scale_workload(&cfg);
    let src = w.memory_source();
    let num_regions = src.num_regions();
    eprintln!(
        "scale workload: {num_regions} regions × {} items",
        cfg.n_items
    );
    let tc = TreeConfig {
        max_depth: 2,
        min_node_items: 60,
        max_numeric_splits: 4,
        ..TreeConfig::default()
    };
    let cc = CubeConfig {
        min_subset_size: 20,
    };

    let mut h = Harness::new();

    // --- Thread matrix: 81 regions clear the min_chunk=16 fallback at
    // every tested thread count, so the scan engine really shards.
    for threads in [1usize, 2, 4] {
        let pr = problem(threads);
        h.bench(&format!("tree_rainforest_81regions/threads={threads}"), || {
            build_rainforest(&src, &w.region_space, &w.items, None, &pr, &tc).unwrap()
        });
        h.bench(&format!("cube_optimized_81regions/threads={threads}"), || {
            build_optimized_cube(
                &src,
                &w.region_space,
                &w.item_space,
                &w.item_coords,
                &pr,
                &cc,
            )
            .unwrap()
        });
    }

    // --- The same tree at the library default of 50 thresholds per
    // numeric attribute (what a caller who sets nothing runs): ten times the
    // candidates of the cell above over the same rows. A level scan that
    // made a pass per candidate paid for every one of them; per-attribute
    // bucket statistics fold a row once per attribute however many
    // thresholds the attribute carries.
    let tc50 = TreeConfig {
        max_numeric_splits: 50,
        ..tc.clone()
    };
    let pr = problem(1);
    h.bench(SPLITS50, || {
        build_rainforest(&src, &w.region_space, &w.items, None, &pr, &tc50).unwrap()
    });
    h.record_parent_median(SPLITS50, SPLITS50_PARENT_MEDIAN_SECS);

    // --- Small retail workload: the sequential fallback must keep
    // threads=4 from regressing against threads=1 (the fix for the
    // committed CUBE-pass regression, applied to the builder scans).
    let mut retail_cfg = RetailConfig::mail_order(150, 99);
    retail_cfg.months = if quick { 5 } else { 8 };
    retail_cfg.converge_month = retail_cfg.months - 2;
    retail_cfg.states = Some(vec![
        "MD", "WI", "CA", "TX", "NY", "IL", "FL", "OH", "PA", "GA",
    ]);
    let retail = prepare_retail(&retail_cfg);
    eprintln!("retail workload: {} regions", retail.source.num_regions());
    let retail_tc = TreeConfig {
        max_depth: 2,
        min_node_items: 30,
        ..TreeConfig::default()
    };
    for threads in [1usize, 4] {
        let pr = problem(threads);
        h.bench(&format!("tree_rainforest_retail/threads={threads}"), || {
            build_rainforest(
                &retail.source,
                &retail.data.space,
                &retail.data.items,
                None,
                &pr,
                &retail_tc,
            )
            .unwrap()
        });
    }

    // --- Cache on/off against a real disk source. The RF tree re-reads
    // every block once per level above the leaves; the naive cube once
    // per subset.
    let disk_path = std::env::temp_dir().join("bw_builder_scan_source.bin");
    write_blocks(&src, w.region_space.arity() as u32, &disk_path);
    let budget: usize = src.blocks().iter().map(|b| b.encoded_len()).sum();
    let pr1 = problem(1);

    let disk = DiskSource::open(&disk_path).expect("open disk source");
    h.bench("tree_rainforest_disk/cache=off", || {
        build_rainforest(&disk, &w.region_space, &w.items, None, &pr1, &tc).unwrap()
    });
    let cached = CachedSource::new(DiskSource::open(&disk_path).unwrap(), budget);
    h.bench("tree_rainforest_disk/cache=on", || {
        build_rainforest(&cached, &w.region_space, &w.items, None, &pr1, &tc).unwrap()
    });

    let disk = DiskSource::open(&disk_path).expect("open disk source");
    h.bench("cube_naive_disk/cache=off", || {
        build_naive_cube(&disk, &w.region_space, &w.item_space, &w.item_coords, &pr1, &cc)
            .unwrap()
    });
    let cached = CachedSource::new(DiskSource::open(&disk_path).unwrap(), budget);
    h.bench("cube_naive_disk/cache=on", || {
        build_naive_cube(
            &cached,
            &w.region_space,
            &w.item_space,
            &w.item_coords,
            &pr1,
            &cc,
        )
        .unwrap()
    });

    // --- One traced run: IO + cache counters for a cold-cache RF build.
    let registry = Registry::shared();
    let traced = CachedSource::with_registry(
        DiskSource::open_with_registry(&disk_path, &registry).unwrap(),
        budget,
        &registry,
    );
    let traced_pr = BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(10)
        .error_measure(ErrorMeasure::TrainingSet)
        .recorder(registry.clone())
        .build()
        .unwrap();
    build_rainforest(&traced, &w.region_space, &w.items, None, &traced_pr, &tc).unwrap();
    build_naive_cube(
        &traced,
        &w.region_space,
        &w.item_space,
        &w.item_coords,
        &traced_pr,
        &cc,
    )
    .unwrap();
    let snap = traced.snapshot();
    println!(
        "cache hit rate (RF tree + naive cube, cold start): {:.1}% ({} hits / {} misses, {} real reads)",
        snap.cache_hit_rate() * 100.0,
        snap.cache_hits(),
        snap.cache_misses(),
        snap.regions_read(),
    );
    emit_metrics_json(
        &registry.snapshot(),
        &results_dir().join("BENCH_builder_scan_metrics.json"),
    );
    let _ = std::fs::remove_file(&disk_path);

    // --- Headline comparisons.
    let median = |name: &str| h.result(name).map(|r| r.median_secs());
    if let (Some(t1), Some(t4)) = (
        median("tree_rainforest_retail/threads=1"),
        median("tree_rainforest_retail/threads=4"),
    ) {
        println!("retail RF tree threads=4 / threads=1 (median): {:.2}x", t4 / t1);
    }
    if let (Some(off), Some(on)) = (
        median("tree_rainforest_disk/cache=off"),
        median("tree_rainforest_disk/cache=on"),
    ) {
        println!("RF tree disk cache speedup (off / on, median): {:.2}x", off / on);
    }
    if let (Some(off), Some(on)) = (
        median("cube_naive_disk/cache=off"),
        median("cube_naive_disk/cache=on"),
    ) {
        println!("naive cube disk cache speedup (off / on, median): {:.2}x", off / on);
    }

    h.emit_json(&results_dir().join("BENCH_builder_scan.json"));
}
