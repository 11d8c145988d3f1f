//! Disk-resident training data and scan accounting: stream a §7.4-style
//! workload to disk, run the three cube algorithms against the file
//! with no caching, and show that the IO counters verify the paper's
//! scan lemmas: the naive cube performs one full scan *per subset*,
//! while single-scan/optimized perform a single full scan (plus one
//! targeted region read per produced cell, to fit its final model).
//!
//! Run with: `cargo run --release --example disk_scan`

use bellwether::prelude::*;

fn main() {
    let cfg = ScaleConfig {
        n_items: 500,
        fact_dim_leaves: [5, 5],
        item_hierarchy_leaves: [3, 3, 3],
        n_numeric_attrs: 2,
        regional_features: 4,
        bellwether_noise: 0.05,
        seed: 2024,
    };
    let w = build_scale_workload(&cfg);
    let path = std::env::temp_dir().join("bw_disk_scan_example.bwtd");
    w.write_to_disk(&path).expect("write workload");
    let src = DiskSource::open(&path).expect("open workload");
    println!(
        "workload: {} regions × {} items = {} examples ({} bytes on disk)",
        src.num_regions(),
        cfg.n_items,
        w.total_examples(),
        src.data_bytes()
    );

    let problem = BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(10)
        .error_measure(ErrorMeasure::TrainingSet)
        .build()
        .unwrap();
    let cube_cfg = CubeConfig {
        min_subset_size: 25,
    };
    let regions = src.num_regions();

    type Builder<'a> = Box<dyn Fn() -> BellwetherCube + 'a>;
    let algorithms: Vec<(&str, Builder)> = vec![
        (
            "naive cube",
            Box::new(|| {
                build_naive_cube(
                    &src,
                    &w.region_space,
                    &w.item_space,
                    &w.item_coords,
                    &problem,
                    &cube_cfg,
                )
                .unwrap()
            }),
        ),
        (
            "single-scan cube",
            Box::new(|| {
                build_single_scan_cube(
                    &src,
                    &w.region_space,
                    &w.item_space,
                    &w.item_coords,
                    &problem,
                    &cube_cfg,
                )
                .unwrap()
            }),
        ),
        (
            "optimized cube",
            Box::new(|| {
                build_optimized_cube(
                    &src,
                    &w.region_space,
                    &w.item_space,
                    &w.item_coords,
                    &problem,
                    &cube_cfg,
                )
                .unwrap()
            }),
        ),
    ];

    for (name, build) in &algorithms {
        let before = src.snapshot().regions_read();
        let start = std::time::Instant::now();
        let cube = build();
        let secs = start.elapsed().as_secs_f64();
        let reads = src.snapshot().regions_read() - before;
        println!(
            "{name:<18} {:>6.2}s  {:>6} region reads  ({:.1} full scans)  {} cells",
            secs,
            reads,
            reads as f64 / regions as f64,
            cube.cells.len()
        );
    }

    std::fs::remove_file(&path).ok();
}
