//! The CUBE pass kernel (§4.2): all `(region, item)` aggregates in one
//! sweep over the fact data of a small retail dataset.
//!
//! This bench records the kernel trajectory the perf work is judged by:
//! the legacy hash-per-row kernel (`cube_pass_reference`) against the
//! dense-keyed chunked kernel (`cube_pass_with`) at 1/2/4/8 worker
//! threads, plus the end-to-end retail preparation, the two extremes
//! of a distinct-FK lane (few keys seen over and over; every key new)
//! and a long timeline over a flat location hierarchy (60 prefixes
//! `[1..t]`, the shape whose rollup shares the most), each beside what
//! it took at a recorded parent commit. Results land in
//! `results/BENCH_cube_pass.json`.

use bellwether_bench::{emit_metrics_json, prepare_retail, results_dir, Harness};
use bellwether_core::build_cube_input;
use bellwether_cube::cube_pass::cube_pass_reference;
use bellwether_cube::{
    cube_pass_traced, cube_pass_with, CubeInput, Dimension, Measure, Parallelism, RegionSpace,
};
use bellwether_datagen::{build_stream_workload, generate_retail, RetailConfig, StreamConfig};
use bellwether_obs::Registry;
use bellwether_table::ops::AggFunc;

/// `rows` fact rows of one item, dealt round-robin over the finest cells
/// of `space`, each with a foreign key no other row has (in scrambled,
/// not ascending, arrival order).
fn highcard_input(space: &RegionSpace, rows: usize) -> CubeInput {
    let finest: Vec<Vec<u32>> = space
        .dims()
        .iter()
        .map(|d| match d {
            Dimension::Interval { max_t, .. } => (0..*max_t).collect(),
            Dimension::Hierarchy(h) => h.leaves(),
        })
        .collect();
    let mut coords = Vec::with_capacity(rows * finest.len());
    let mut keys = Vec::with_capacity(rows);
    for row in 0..rows {
        let mut cell = row;
        for values in &finest {
            coords.push(values[cell % values.len()]);
            cell /= values.len();
        }
        // An odd multiplier permutes the u64s: distinct rows, distinct keys.
        keys.push(Some((row as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) as i64));
    }
    let values = keys.iter().map(|k| (k.unwrap_or(0) % 1000) as f64).collect();
    CubeInput {
        item_ids: vec![1; rows],
        coords,
        measures: vec![Measure::DistinctKeyed {
            name: "distinct_sum".into(),
            func: AggFunc::Sum,
            keys,
            values,
        }],
    }
}

/// What the two distinct-lane cells took at the parent commit (PR 14,
/// where a distinct lane was an append-only list deduplicated at merge
/// boundaries): medians of full 10-sample runs of this file built
/// against that commit, alternated with the runs behind the committed
/// results on the same machine.
///
/// `cube_pass_prefix_60x30` is measured against PR 15 instead, where
/// the rollup folded every base cell into each of the `60 − w` prefixes
/// containing its week: the median of a full 10-sample run of this cell
/// built against that commit, on the same machine as the committed
/// results.
const PARENT_MEDIAN_SECS: [(&str, f64); 3] = [
    ("cube_pass_distinct_12keys", 0.140213),
    ("cube_pass_distinct_highcard", 0.131728),
    ("cube_pass_prefix_60x30", 0.274475),
];

fn main() {
    let mut cfg = RetailConfig::mail_order(150, 99);
    cfg.months = 8;
    cfg.converge_month = 6;
    cfg.states = Some(vec![
        "MD", "WI", "CA", "TX", "NY", "IL", "FL", "OH", "PA", "GA",
    ]);
    let data = generate_retail(&cfg);
    let input = build_cube_input(&data.db, &data.space, &data.feature_queries).unwrap();
    eprintln!("fact rows: {}", data.db.fact.num_rows());

    let mut h = Harness::new();

    // The seed kernel: HashMap<(Vec<u32>, i64)> phase 1 plus
    // containing_regions re-materialised per base cell in phase 2.
    h.bench("cube_pass_reference_retail_150x8x10", || {
        cube_pass_reference(&data.space, &input)
    });

    // The dense-keyed kernel across the worker-thread matrix. Thread
    // count never changes the bits, only the wall clock.
    for threads in [1usize, 2, 4, 8] {
        h.bench(
            &format!("cube_pass_retail_150x8x10/threads={threads}"),
            || cube_pass_with(&data.space, &input, Parallelism::fixed(threads), None),
        );
    }

    // The distinct-FK lane at its two extremes. `12keys` is the shape
    // of the pipeline benchmark's `train_facts` workload: every
    // (region, item) slot sees the same ≤ 12 catalog keys from each of
    // the ~24 base cells it covers. `highcard` is the adversarial input
    // for a set-valued lane: one item, every row its own key, so the
    // `[1-T, All]` slot ends up holding all of them.
    let mut cfg12 = RetailConfig::mail_order_heterogeneous(160, 99);
    cfg12.months = 12;
    let data12 = generate_retail(&cfg12);
    let input12 = build_cube_input(&data12.db, &data12.space, &data12.feature_queries).unwrap();
    eprintln!("distinct_12keys fact rows: {}", input12.item_ids.len());
    h.bench("cube_pass_distinct_12keys", || {
        cube_pass_with(&data12.space, &input12, Parallelism::fixed(1), None)
    });
    let highcard = highcard_input(&data.space, 200_000);
    h.bench("cube_pass_distinct_highcard", || {
        cube_pass_with(&data.space, &highcard, Parallelism::fixed(1), None)
    });

    // The pipeline benchmark's `train_spill` shape: 60 weeks × 30
    // location leaves × 300 items, two numeric measures, 538,200 rows
    // that are one base cell each. A cell of week `w` lies in `60 − w`
    // prefixes `[1..t]`; the rollup folds it once per location ancestor
    // and hands the running table out as each prefix closes.
    let stream = build_stream_workload(&StreamConfig {
        n_items: 300,
        weeks: 60,
        leaves: 30,
        open_week: 6,
        ..StreamConfig::default()
    });
    let prefix_input = stream.input_range(0, 60);
    eprintln!("prefix_60x30 fact rows: {}", prefix_input.item_ids.len());
    h.bench("cube_pass_prefix_60x30", || {
        cube_pass_with(&stream.region_space, &prefix_input, Parallelism::fixed(1), None)
    });

    for (name, secs) in PARENT_MEDIAN_SECS {
        h.record_parent_median(name, secs);
    }

    h.bench("prepare_retail_end_to_end", || {
        let mut small = cfg.clone();
        small.n_items = 60;
        small.months = 5;
        small.converge_month = 4;
        prepare_retail(&small)
    });

    // The same kernel with a live recorder: the timing above measures
    // the disabled-recorder (one branch per phase) path; this bench
    // measures the enabled path, and the snapshot records the work
    // profile of one pass.
    let registry = Registry::shared();
    h.bench("cube_pass_retail_150x8x10/recorder=on", || {
        cube_pass_traced(&data.space, &input, Parallelism::fixed(1), registry.as_ref())
    });
    registry.reset();
    cube_pass_traced(&data.space, &input, Parallelism::fixed(1), registry.as_ref());
    emit_metrics_json(
        &registry.snapshot(),
        &results_dir().join("BENCH_cube_pass_metrics.json"),
    );

    let speedup = match (
        h.result("cube_pass_reference_retail_150x8x10"),
        h.result("cube_pass_retail_150x8x10/threads=1"),
    ) {
        (Some(reference), Some(new1)) => reference.median_secs() / new1.median_secs(),
        _ => f64::NAN,
    };
    println!("speedup (reference / new, 1 thread, median): {speedup:.2}x");

    h.emit_json(&results_dir().join("BENCH_cube_pass.json"));
}
