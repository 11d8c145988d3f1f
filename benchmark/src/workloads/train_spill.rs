//! `train_spill`: the same `cube` layer used out of core.
//!
//! Facts arrive as 10 week-slices; the external run-structured engine
//! aggregates them under a 1 MiB budget (every run spills, then the runs
//! are merged),
//! blocks go to a 4-shard layout, and the scans read it uncached. A cube
//! change that helps `train_facts` but costs this path (or the reverse)
//! shows as the two moving apart; block assembly + write has its largest
//! share here.

use super::{
    check_predictions, finish_trace, open_layout, rounds, search_config, set_iteration_metrics,
    set_layer_seconds, set_scan_counts, snapshot_round_trip, write_layout, SnapshotCheck,
    CURVE_THREADS, PROBE_RERUNS, THREADS,
};
use crate::run::Run;
use crate::stats;
use crate::trace::Tracer;
use bellwether_core::BellwetherModel;
use bellwether_core::{basic_search, build_optimized_cube, CubeConfig, ErrorMeasure, ModelBuilder};
use bellwether_cube::cube_pass::{CubeInput, CubeResult};
use bellwether_cube::{
    cube_pass_external, NoopRecorder, Parallelism, Recorder, UniformCellCost, UNLIMITED_BUDGET,
};
use bellwether_datagen::{build_stream_workload, StreamConfig, StreamWorkload};
use bellwether_obs::{names, MetricsSnapshot, Registry};
use std::sync::Arc;

/// Resident aggregation state allowed before runs spill: less than one
/// run's ~6 MB, so each of the 3 runs (262,144 rows apiece) spills.
const BUDGET_BYTES: usize = 1 << 20;
const SLICES: u32 = 10;

struct Outcome {
    model: Arc<BellwetherModel>,
    snapshot: Vec<u8>,
    cube: CubeResult,
    examples: u64,
    bytes_written: u64,
    counts: Option<MetricsSnapshot>,
}

fn train(
    run: &Run,
    t: &mut Tracer,
    wl: &StreamWorkload,
    inputs: &[CubeInput],
    budget: usize,
    threads: usize,
    traced: bool,
) -> Outcome {
    let reg = traced.then(Registry::shared);
    let noop = NoopRecorder;
    let rec: &dyn Recorder = match &reg {
        Some(reg) => reg.as_ref(),
        None => &noop,
    };
    let cube = t.span("cube.external", |_| {
        cube_pass_external(
            &wl.region_space,
            inputs,
            Parallelism::fixed(threads),
            budget,
            rec,
        )
        .expect("external cube pass")
    });
    let targets = wl.target_map();
    let layout = run.dir.join("layout");
    let manifest = write_layout(
        t,
        &layout,
        &wl.region_space,
        &cube,
        &wl.regions,
        &wl.items,
        &targets,
        4,
    );

    let src = open_layout(t, &layout, None, reg.as_ref());
    let config = search_config(threads, ErrorMeasure::TrainingSet, reg.as_ref());
    let cost = UniformCellCost { rate: 1.0 };
    let search = t.span("scan.basic", |_| {
        basic_search(
            src.as_ref(),
            &wl.region_space,
            &cost,
            &config,
            wl.items.len(),
        )
        .expect("basic search")
    });
    let subsets = t.span("scan.cube", |_| {
        build_optimized_cube(
            src.as_ref(),
            &wl.region_space,
            &wl.item_space,
            &wl.item_coords,
            &config,
            &CubeConfig {
                min_subset_size: 10,
            },
        )
        .expect("optimized cube")
    });
    let model = t.span("model.build", |_| {
        ModelBuilder::new(src.as_ref(), wl.items.clone())
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
        cube,
        examples: manifest.total_examples(),
        bytes_written: manifest.shards.iter().map(|s| s.bytes).sum(),
        counts: reg.map(|r| r.snapshot()),
    }
}

/// Bit-for-bit equality of two CUBE results.
fn same_cube(a: &CubeResult, b: &CubeResult) -> bool {
    a.measure_names == b.measure_names
        && a.regions.len() == b.regions.len()
        && a.regions.iter().all(|(region, items)| {
            b.regions.get(region).is_some_and(|other| {
                items.len() == other.len()
                    && items.iter().all(|(id, vals)| {
                        other.get(id).is_some_and(|o| {
                            vals.len() == o.len()
                                && vals
                                    .iter()
                                    .zip(o)
                                    .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
                        })
                    })
            })
        })
}

pub fn run(run: &mut Run, t: &mut Tracer) {
    // A traced run keeps part of the window for the reruns.
    let window = if run.trace {
        run.seconds * 0.5
    } else {
        run.seconds
    };
    // --quick inputs are too small to spill under the full budget.
    let budget = run.sized(BUDGET_BYTES, BUDGET_BYTES / 2);
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
            let weeks = run.sized(60, 30) as u32;
            let wl = build_stream_workload(&StreamConfig {
                n_items: run.sized(300, 150),
                weeks,
                leaves: run.sized(30, 12),
                item_hierarchy_leaves: 3,
                n_numeric_attrs: 2,
                bellwether_noise: 0.05,
                late_noise: 0.0005,
                open_week: weeks / 10,
                seed: run.seed,
            });
            let per = weeks / SLICES;
            let inputs: Vec<CubeInput> = (0..SLICES)
                .map(|s| wl.input_range(s * per, (s + 1) * per))
                .collect();
            (wl, inputs)
        },
        |run, t, (wl, inputs)| {
            let out = train(run, t, wl, inputs, budget, THREADS, traced);
            run.op(true, || unreachable!());
            check.observe(run, &out.snapshot, "train_spill");
            last = Some(out);
        },
    );
    let ((wl, inputs), secs) = (measured.last, measured.op_s);
    let rows: usize = inputs.iter().map(|i| i.item_ids.len()).sum();
    let last = last.expect("at least one iteration ran");
    run.set("peak_rss_mib", measured.peak_mib);
    set_iteration_metrics(run, &secs);
    check.report(run);
    check_predictions(run, &last.model, wl.items.len());
    run.info_num("fact_rows", rows);
    run.info_num("regions", wl.regions.len());
    run.info_num("items", wl.items.len());
    run.info_num("layout_bytes", last.bytes_written);
    run.info_num("cube_budget_bytes", budget);

    if let Some(counts) = &last.counts {
        set_layer_seconds(
            run,
            t,
            &[
                ("cube.external_s", "cube.external"),
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
        let n = |name: &str| counts.counter(name).unwrap_or(0) as f64;
        run.set("cube.spills", n(names::SHARD_SPILLS));
        run.set("cube.spill_bytes", n(names::SHARD_SPILL_BYTES));
        run.set("cube.runs_merged", n(names::SHARD_RUNS_MERGED));
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

        // The base for the spill cost: same input and threads, nothing
        // spills. Spilled and resident must agree on every bit.
        t.on = true;
        let same = (0..PROBE_RERUNS).all(|_| {
            let resident = train(run, t, &wl, &inputs, UNLIMITED_BUDGET, THREADS, false);
            same_cube(&resident.cube, &last.cube) && resident.snapshot == last.snapshot
        });
        t.on = false;
        run.set(
            "cube.external_resident_s",
            stats::quiet(&t.seconds_outside_iterations("cube.external")),
        );
        run.op(same, || {
            "cube or snapshot under UNLIMITED_BUDGET differs from the spilled one".into()
        });
        // The thread curve, and the snapshot must not depend on it.
        t.on = true;
        let same = (0..PROBE_RERUNS).all(|_| {
            train(run, t, &wl, &inputs, budget, CURVE_THREADS, false).snapshot == last.snapshot
        });
        t.on = false;
        run.set(
            "scan.basic_t2_s",
            stats::quiet(&t.seconds_outside_iterations("scan.basic")[PROBE_RERUNS..]),
        );
        run.op(same, || {
            "snapshot at threads=2 differs from threads=1".into()
        });
    }
    finish_trace(run, t, &secs);
}
