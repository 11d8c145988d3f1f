//! Incremental maintenance vs cold rebuild: the O(Δ) evidence.
//!
//! Emits `results/BENCH_stream.json` with four sections:
//!
//! * `config` — workload shape: fact rows, candidate regions, rows in
//!   the appended batch (the final week ≈ 1% of the timeline);
//! * `results` — wall-clock cells at threads = 1:
//!   - `engine_cold_rebuild` — full pipeline from scratch: CUBE pass
//!     over every fact row, every region block assembled and written
//!     to a sharded layout, full `basic_search`;
//!   - `engine_append_1pct` — [`StreamingBellwether::append`] of the
//!     same final week onto a warm engine: delta CUBE fold, dirty
//!     blocks appended as a new generation, dirty candidates
//!     re-scored (each timed sample appends onto its own warm engine,
//!     built outside the timed region, so every sample performs the
//!     identical append);
//!   - `cube_cold` / `cube_append_1pct` — the CUBE layer alone (each
//!     sample appends onto its own warm cube, likewise built outside
//!     the timed region: an append clones nothing, so the sample does
//!     not either);
//! * `delta` — what the appended week did to the delta cube: dirty
//!   regions that extended their retained rollup state vs those
//!   re-aggregated from scratch (zero for an append at the end of the
//!   timeline);
//! * `speedup` — cold/append median ratios plus `bit_identical`: the
//!   appended engine's search state compared field-by-field (float
//!   bits included) against the cold rebuild.
//!
//! `BW_STREAM_WEEKS` / `BW_STREAM_LEAVES` / `BW_STREAM_ITEMS` override
//! the workload; `BW_QUICK=1` shrinks it for smoke runs.

use bellwether_bench::{results_dir, Harness};
use bellwether_bench::report::json_f64;
use bellwether_core::{
    basic_search, BasicSearchResult, BellwetherConfig, ErrorMeasure, StreamingBellwether,
};
use bellwether_core::training::region_block;
use bellwether_cube::{cube_pass, Parallelism, StreamingCube, UniformCellCost};
use bellwether_datagen::{build_stream_workload, StreamConfig, StreamWorkload};
use bellwether_storage::{even_shard_plan, ShardedSource, ShardedWriter};
use std::path::PathBuf;

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn stream_config() -> StreamConfig {
    let quick = bellwether_bench::quick_mode();
    let weeks = env_usize("BW_STREAM_WEEKS", if quick { 50 } else { 100 }) as u32;
    StreamConfig {
        n_items: env_usize("BW_STREAM_ITEMS", if quick { 80 } else { 250 }),
        weeks,
        leaves: env_usize("BW_STREAM_LEAVES", if quick { 4 } else { 16 }),
        item_hierarchy_leaves: 3,
        n_numeric_attrs: 2,
        bellwether_noise: 0.05,
        late_noise: 0.0005,
        open_week: 10.min(weeks - 1),
        seed: 20260808,
    }
}

fn search_config(threads: usize) -> BellwetherConfig {
    BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(10)
        .error_measure(ErrorMeasure::TrainingSet)
        .parallelism(Parallelism::fixed(threads))
        .build()
        .unwrap()
}

/// Cold rebuild over weeks `[0, upto)` into `dir`; returns the search
/// result (the layout is left on disk for inspection / reuse).
fn cold_rebuild(wl: &StreamWorkload, upto: u32, dir: &PathBuf) -> BasicSearchResult {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("bench dir");
    let input = wl.input_range(0, upto);
    let cube = cube_pass(&wl.region_space, &input);
    let targets = wl.target_map();
    let p = (1 + wl.items.numeric_attrs().len() + cube.measure_names.len()) as u32;
    let plan = even_shard_plan(wl.regions.len(), 2);
    let mut writer =
        ShardedWriter::create(dir, p, wl.region_space.arity() as u32, plan).unwrap();
    for region in &wl.regions {
        writer
            .write_region(&region_block(&cube, region, &wl.items, &targets))
            .unwrap();
    }
    writer.finish().unwrap();
    let src = ShardedSource::open(dir).unwrap();
    basic_search(
        &src,
        &wl.region_space,
        &UniformCellCost { rate: 1.0 },
        &search_config(1),
        wl.items.len(),
    )
    .unwrap()
}

fn build_engine(wl: &StreamWorkload, base_weeks: u32, dir: &PathBuf) -> StreamingBellwether {
    std::fs::remove_dir_all(dir).ok();
    StreamingBellwether::create(
        dir,
        &wl.region_space,
        &wl.input_range(0, base_weeks),
        &wl.item_universe(),
        wl.items.clone(),
        wl.target_map(),
        wl.regions.clone(),
        std::sync::Arc::new(UniformCellCost { rate: 1.0 }),
        search_config(1),
        wl.items.len(),
        2,
        64 << 20,
    )
    .unwrap()
}

/// Search states bit-identical? (Same field walk as the property
/// tests: float bits of cost / error / coefficients included.)
fn same_result(a: &BasicSearchResult, b: &BasicSearchResult) -> bool {
    a.best == b.best
        && a.skipped_regions == b.skipped_regions
        && a.reports.len() == b.reports.len()
        && a.reports.iter().zip(&b.reports).all(|(x, y)| {
            x.source_index == y.source_index
                && x.region == y.region
                && x.n_examples == y.n_examples
                && x.cost.to_bits() == y.cost.to_bits()
                && x.error.value.to_bits() == y.error.value.to_bits()
                && x.model.coefficients().len() == y.model.coefficients().len()
                && x.model
                    .coefficients()
                    .iter()
                    .zip(y.model.coefficients())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn main() {
    let cfg = stream_config();
    let wl = build_stream_workload(&cfg);
    let weeks = cfg.weeks;
    let base_weeks = weeks - 1;
    let delta = wl.input_range(base_weeks, weeks);
    let total_rows = wl.total_rows();
    let append_rows = delta.item_ids.len();
    println!(
        "stream workload: {} rows, {} regions, append batch {} rows ({:.2}%)",
        total_rows,
        wl.regions.len(),
        append_rows,
        100.0 * append_rows as f64 / total_rows as f64
    );

    let mut harness = Harness::new();
    let cold_dir = std::env::temp_dir().join("bw_bench_stream_cold");

    // Cold rebuild of the *full* timeline: what a batch pipeline pays
    // on every refresh.
    harness.bench("engine_cold_rebuild(threads=1)", || {
        cold_rebuild(&wl, weeks, &cold_dir)
    });
    let cold = cold_rebuild(&wl, weeks, &cold_dir);

    // One warm engine per timed sample, built outside the timed region:
    // every sample appends the same final week onto an identical base
    // state, and one engine is alive at a time, as in a deployment.
    let engine_dir = std::env::temp_dir().join("bw_bench_stream_engine");
    harness.bench_batched(
        "engine_append_1pct(threads=1)",
        || build_engine(&wl, base_weeks, &engine_dir),
        |engine| engine.append(&delta).unwrap(),
    );
    let mut appended = build_engine(&wl, base_weeks, &engine_dir);
    appended.append(&delta).unwrap();
    let bit_identical = same_result(&appended.search_result(), &cold);

    // The CUBE layer alone. Every sample appends the same week onto
    // its own warm cube, built (and later dropped) outside the timed
    // region — built, not cloned: a clone's vectors are exactly full,
    // so its first push would copy the retained state, which no live
    // stream pays.
    let base_input = wl.input_range(0, base_weeks);
    let full_input = wl.full_input();
    harness.bench("cube_cold(threads=1)", || {
        cube_pass(&wl.region_space, &full_input)
    });
    let warm_cube = || {
        StreamingCube::new(
            &wl.region_space,
            &base_input,
            &wl.item_universe(),
            Parallelism::fixed(1),
        )
        .expect("key space fits")
    };
    let update = warm_cube().append(&delta).unwrap();
    harness.bench_batched("cube_append_1pct(threads=1)", warm_cube, |cube| {
        cube.append(&delta).unwrap()
    });

    let median = |name: &str| harness.result(name).unwrap().median_secs();
    let engine_speedup =
        median("engine_cold_rebuild(threads=1)") / median("engine_append_1pct(threads=1)");
    let cube_speedup = median("cube_cold(threads=1)") / median("cube_append_1pct(threads=1)");
    println!(
        "engine speedup {engine_speedup:.1}x, cube speedup {cube_speedup:.1}x, \
         bit_identical {bit_identical}"
    );

    let out = results_dir().join("BENCH_stream.json");
    let json = format!(
        "{{\n  \"config\": {{\n    \"rows\": {total_rows},\n    \"regions\": {},\n    \
         \"weeks\": {weeks},\n    \"append_rows\": {append_rows},\n    \
         \"append_fraction\": {},\n    \"shards\": 2,\n    \"threads\": 1\n  }},\n  \
         \"results\": {},\n  \"delta\": {{\n    \"cells_dirtied\": {},\n    \
         \"regions_extended\": {},\n    \"regions_rebuilt\": {}\n  }},\n  \
         \"speedup\": {{\n    \"engine_cold_over_append\": {},\n    \
         \"cube_cold_over_append\": {},\n    \"bit_identical\": {bit_identical},\n    \
         \"note\": \"the append cells build one warm engine (cube) per sample outside \
the timed region; their peak RSS includes that build\"\n  }}\n}}\n",
        wl.regions.len(),
        json_f64(append_rows as f64 / total_rows as f64),
        harness.to_json(),
        update.cells_dirtied,
        update.regions_extended,
        update.regions_rebuilt,
        json_f64(engine_speedup),
        json_f64(cube_speedup),
    );
    std::fs::write(&out, json).expect("write BENCH_stream.json");
    println!("wrote {}", out.display());

    assert!(bit_identical, "append must be bit-identical to cold rebuild");
    std::fs::remove_dir_all(&cold_dir).ok();
    std::fs::remove_dir_all(&engine_dir).ok();
}
