//! `train_facts`: the paper's own cold path from a star schema.
//!
//! facts → target query + CUBE input (`table`) → resident CUBE kernel →
//! region blocks → 2-shard layout → roomy cache → basic search +
//! optimized cube → model → snapshot → load. The CUBE kernel is most of
//! the time and the `table` layer runs nowhere else, so a cube or table
//! change shows here; scan + fit is a few percent.

use super::{
    check_predictions, finish_trace, open_layout, rounds, search_config, set_iteration_metrics,
    set_layer_seconds, set_scan_counts, snapshot_round_trip, write_layout, SnapshotCheck,
    CURVE_THREADS, PROBE_RERUNS, THREADS,
};
use crate::run::Run;
use crate::stats;
use crate::trace::Tracer;
use bellwether_core::BellwetherModel;
use bellwether_core::{
    basic_search, build_cube_input, build_optimized_cube, global_target, CubeConfig, ErrorMeasure,
    ModelBuilder,
};
use bellwether_cube::{cube_pass_traced, cube_pass_with, Parallelism};
use bellwether_datagen::{generate_retail, RetailConfig, RetailDataset};
use bellwether_obs::{MetricsSnapshot, Registry};
use bellwether_table::ops::AggFunc;
use std::sync::Arc;

/// Holds every decoded block of the layout: the second scan is all hits.
const CACHE_BYTES: usize = 256 << 20;

struct Outcome {
    model: Arc<BellwetherModel>,
    snapshot: Vec<u8>,
    fact_rows: usize,
    examples: u64,
    bytes_written: u64,
    counts: Option<MetricsSnapshot>,
}

/// One cold training pass at `threads`, inputs to loaded snapshot.
fn train(run: &Run, t: &mut Tracer, data: &RetailDataset, threads: usize, traced: bool) -> Outcome {
    let reg = traced.then(Registry::shared);
    let par = Parallelism::fixed(threads);
    let targets = t.span("table.target_query", |_| {
        global_target(&data.db, "profit", AggFunc::Sum).expect("target query")
    });
    let input = t.span("table.cube_input", |_| {
        build_cube_input(&data.db, &data.space, &data.feature_queries).expect("cube input")
    });
    let cube = t.span("cube.pass", |_| match &reg {
        Some(reg) => cube_pass_traced(&data.space, &input, par, reg.as_ref()),
        None => cube_pass_with(&data.space, &input, par, None),
    });
    let regions = t.span("training.block_build", |_| data.space.all_regions());
    let layout = run.dir.join("layout");
    let manifest = write_layout(
        t,
        &layout,
        &data.space,
        &cube,
        &regions,
        &data.items,
        &targets,
        2,
    );
    let fact_rows = input.item_ids.len();
    // Freeing the intermediate results is part of what each layer costs.
    t.span("table.release", |_| drop(input));
    t.span("cube.release", |_| drop(cube));

    let src = open_layout(t, &layout, Some(CACHE_BYTES), reg.as_ref());
    let config = search_config(threads, ErrorMeasure::TrainingSet, reg.as_ref());
    let n_items = data.items.len();
    let search = t.span("scan.basic", |_| {
        basic_search(src.as_ref(), &data.space, &data.cost, &config, n_items).expect("basic search")
    });
    let subsets = t.span("scan.cube", |_| {
        build_optimized_cube(
            src.as_ref(),
            &data.space,
            &data.item_space,
            &data.item_coords,
            &config,
            &CubeConfig {
                min_subset_size: 20,
            },
        )
        .expect("optimized cube")
    });
    let model = t.span("model.build", |_| {
        ModelBuilder::new(src.as_ref(), data.items.clone())
            .basic(search.report().expect("a bellwether region exists"))
            .cube(subsets, 0.95)
            .build()
            .expect("model build")
    });
    let (model, snapshot) = snapshot_round_trip(t, &model, &run.dir.join("model.bwsn"));
    t.span("storage.close", |_| drop(src));
    Outcome {
        model,
        snapshot,
        fact_rows,
        examples: manifest.total_examples(),
        bytes_written: manifest.shards.iter().map(|s| s.bytes).sum(),
        counts: reg.map(|r| r.snapshot()),
    }
}

pub fn run(run: &mut Run, t: &mut Tracer) {
    // A traced run keeps part of the window for the 2-thread reruns.
    let window = if run.trace {
        run.seconds * 0.7
    } else {
        run.seconds
    };
    let mut check = SnapshotCheck::default();
    let mut last = None;
    let traced = run.trace;
    let measured = rounds(
        run,
        t,
        window,
        3,
        true,
        |run, _| {
            let mut cfg = RetailConfig::mail_order_heterogeneous(run.sized(160, 60), run.seed);
            cfg.months = 12;
            generate_retail(&cfg)
        },
        |run, t, data| {
            let out = train(run, t, data, THREADS, traced);
            run.op(true, || unreachable!());
            check.observe(run, &out.snapshot, "train_facts");
            last = Some(out);
        },
    );
    let (data, secs) = (measured.last, measured.op_s);
    let last = last.expect("at least one iteration ran");
    run.set("peak_rss_mib", measured.peak_mib);
    set_iteration_metrics(run, &secs);
    check.report(run);
    check_predictions(run, &last.model, data.items.len());
    run.info_num("fact_rows", last.fact_rows);
    run.info_num("regions", data.space.num_regions());
    run.info_num("items", data.items.len());
    run.info_num("layout_bytes", last.bytes_written);

    if let Some(counts) = &last.counts {
        set_layer_seconds(
            run,
            t,
            &[
                ("table.target_query_s", "table.target_query"),
                ("table.cube_input_s", "table.cube_input"),
                ("cube.pass_s", "cube.pass"),
                ("training.block_build_s", "training.block_build"),
                ("storage.write_s", "storage.write"),
                ("storage.open_s", "storage.open"),
                ("scan.basic_s", "scan.basic"),
                ("scan.cube_s", "scan.cube"),
                ("model.build_s", "model.build"),
                ("model.save_s", "model.save"),
                ("model.load_s", "model.load"),
            ],
        );
        run.set("table.fact_rows", last.fact_rows as f64);
        run.set(
            "cube.pass_rows_per_s",
            last.fact_rows as f64 / run.get("cube.pass_s"),
        );
        run.set("cube.base_cells", counts.base_cells() as f64);
        run.set("cube.cell_merges", counts.cell_merges() as f64);
        run.set("cube.regions_emitted", counts.regions_emitted() as f64);
        run.set("training.examples", last.examples as f64);
        run.set("storage.bytes_written", last.bytes_written as f64);
        run.set(
            "storage.bytes_per_example",
            last.bytes_written as f64 / last.examples as f64,
        );
        run.set("model.snapshot_bytes", last.snapshot.len() as f64);
        let scanned = 2.0 * last.examples as f64;
        run.set(
            "scan.examples_per_s",
            scanned / (run.get("scan.basic_s") + run.get("scan.cube_s")),
        );
        set_scan_counts(run, counts);

        // The thread curve, and the snapshot must not depend on it.
        t.on = true;
        let same = (0..PROBE_RERUNS)
            .all(|_| train(run, t, &data, CURVE_THREADS, false).snapshot == last.snapshot);
        t.on = false;
        run.set(
            "cube.pass_t2_s",
            stats::quiet(&t.seconds_outside_iterations("cube.pass")),
        );
        run.set(
            "scan.basic_t2_s",
            stats::quiet(&t.seconds_outside_iterations("scan.basic")),
        );
        run.op(same, || {
            "snapshot at threads=2 differs from threads=1".into()
        });
    }
    finish_trace(run, t, &secs);
}
