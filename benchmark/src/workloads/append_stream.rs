//! `append_stream`: writes beside reads on one warm engine.
//!
//! An engine is created on weeks `[0, base)`, then takes one
//! single-week `append` per remaining week: delta CUBE, overlay write,
//! cache invalidation, dirty re-scoring. The late bellwether opens
//! mid-stream, so the drift path fires. Engines are built one at a
//! time, one a round, as many as the window holds. The traced run
//! replays the same deltas through a standalone `StreamingCube` and a
//! shadow `ShardAppender` to split the append between the layers, and
//! times a cold-cache rescan of the layout the appends left behind — the
//! guard that an append-side gain is not paid for by readers.

use super::train_scan::same_search;
use super::{finish_trace, rounds, search_config, write_layout, THREADS};
use crate::run::Run;
use crate::stats;
use crate::trace::Tracer;
use bellwether_core::training::region_block;
use bellwether_core::{
    basic_search, BasicSearchResult, BellwetherConfig, ErrorMeasure, StreamingBellwether,
};
use bellwether_cube::cube_pass::CubeInput;
use bellwether_cube::{cube_pass_with, Parallelism, RegionId, StreamingCube, UniformCellCost};
use bellwether_datagen::{build_stream_workload, StreamConfig, StreamWorkload};
use bellwether_storage::{ShardAppender, ShardedSource};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

const COST: UniformCellCost = UniformCellCost { rate: 1.0 };
/// The engine's decoded-block cache: holds the whole layout.
const CACHE_BYTES: usize = 64 << 20;

struct Inputs {
    wl: StreamWorkload,
    base_weeks: u32,
    base: CubeInput,
    deltas: Vec<CubeInput>,
}

fn generate(run: &Run) -> Inputs {
    let weeks = run.sized(120, 40) as u32;
    let base_weeks = weeks * 2 / 3;
    let wl = build_stream_workload(&StreamConfig {
        n_items: run.sized(100, 80),
        weeks,
        leaves: run.sized(8, 6),
        item_hierarchy_leaves: 3,
        n_numeric_attrs: 2,
        bellwether_noise: 0.05,
        late_noise: 0.0005,
        // The late bellwether opens halfway through the appends.
        open_week: (base_weeks + weeks) / 2,
        seed: run.seed,
    });
    let base = wl.input_range(0, base_weeks);
    let deltas = (base_weeks..weeks)
        .map(|w| wl.input_range(w, w + 1))
        .collect();
    Inputs {
        wl,
        base_weeks,
        base,
        deltas,
    }
}

fn create_engine(inp: &Inputs, dir: &Path, config: BellwetherConfig) -> StreamingBellwether {
    std::fs::remove_dir_all(dir).ok();
    StreamingBellwether::create(
        dir,
        &inp.wl.region_space,
        &inp.base,
        &inp.wl.item_universe(),
        inp.wl.items.clone(),
        inp.wl.target_map(),
        inp.wl.regions.clone(),
        Arc::new(COST),
        config,
        inp.wl.items.len(),
        2,
        CACHE_BYTES,
    )
    .expect("create streaming engine")
}

/// What a batch pipeline would compute over the whole timeline: the
/// reference every engine must equal after its last append.
fn cold_search(run: &Run, inp: &Inputs) -> BasicSearchResult {
    let wl = &inp.wl;
    let cube = cube_pass_with(
        &wl.region_space,
        &wl.full_input(),
        Parallelism::fixed(THREADS),
        None,
    );
    let dir = run.dir.join("cold");
    let mut off = Tracer::new();
    write_layout(
        &mut off,
        &dir,
        &wl.region_space,
        &cube,
        &wl.regions,
        &wl.items,
        &wl.target_map(),
        2,
    );
    let src = ShardedSource::open(&dir).expect("open cold layout");
    let config = search_config(THREADS, ErrorMeasure::TrainingSet, None);
    let found = basic_search(&src, &wl.region_space, &COST, &config, wl.items.len())
        .expect("cold basic search");
    std::fs::remove_dir_all(&dir).ok();
    found
}

/// Replay the deltas through the layers one by one: a standalone delta
/// cube, block assembly for the dirty candidates, and a `ShardAppender`
/// on a shadow copy of the base layout.
fn layer_replay(run: &mut Run, t: &mut Tracer, inp: &Inputs) {
    let wl = &inp.wl;
    let targets = wl.target_map();
    t.on = true;
    let (cube, new_s) = t.timed("cube.delta_new", |_| {
        StreamingCube::new(
            &wl.region_space,
            &inp.base,
            &wl.item_universe(),
            Parallelism::fixed(THREADS),
        )
        .expect("key space fits the delta cube")
    });
    let mut cube = cube;
    let shadow = run.dir.join("shadow");
    t.on = false;
    write_layout(
        t,
        &shadow,
        &wl.region_space,
        cube.result(),
        &wl.regions,
        &wl.items,
        &targets,
        2,
    );
    t.on = true;
    let index: HashMap<&RegionId, usize> =
        wl.regions.iter().enumerate().map(|(i, r)| (r, i)).collect();
    let (mut cube_ms, mut storage_ms) = (Vec::new(), Vec::new());
    let (mut cells, mut regions) = (0usize, 0usize);
    for delta in &inp.deltas {
        let (update, s) = t.timed("cube.delta_append", |_| {
            cube.append(delta).expect("delta append")
        });
        cube_ms.push(s * 1e3);
        cells += update.cells_dirtied;
        regions += update.dirty_regions.len();
        let mut dirty: Vec<usize> = update
            .dirty_regions
            .iter()
            .filter_map(|r| index.get(r).copied())
            .collect();
        dirty.sort_unstable();
        let blocks: Vec<_> = t.span("training.block_build", |_| {
            dirty
                .iter()
                .map(|&i| region_block(cube.result(), &wl.regions[i], &wl.items, &targets))
                .collect()
        });
        let ((), s) = t.timed("storage.append", |_| {
            let mut appender = ShardAppender::open(&shadow).expect("open appender");
            for (&i, block) in dirty.iter().zip(&blocks) {
                appender.write_region(i, block).expect("append region");
            }
            appender.finish().expect("publish generation");
        });
        storage_ms.push(s * 1e3);
    }
    t.on = false;
    std::fs::remove_dir_all(&shadow).ok();
    let cube_ms = stats::sorted(cube_ms);
    run.set("cube.delta_new_s", new_s);
    run.set("cube.delta_append_p50_ms", stats::median_sorted(&cube_ms));
    run.set(
        "cube.delta_append_p90_ms",
        stats::percentile_sorted(&cube_ms, 0.9),
    );
    run.set("cube.delta_cells_dirtied", cells as f64);
    run.set("cube.delta_regions_dirtied", regions as f64);
    run.set("storage.append_p50_ms", stats::median(&storage_ms));
}

pub fn run(run: &mut Run, t: &mut Tracer) {
    let engine_dir = run.dir.join("engine");
    let config = || search_config(THREADS, ErrorMeasure::TrainingSet, None);
    let cold = cold_search(run, &generate(run));

    let window = if run.trace {
        run.seconds * 0.6
    } else {
        run.seconds
    };
    let (mut append_ms, mut rescan_s) = (vec![], vec![]);
    // The same appends again, kept apart by appended week: an append
    // costs less the later its week, so only appends of one week are
    // samples of one operation.
    let mut week_ms: Vec<Vec<f64>> = Vec::new();
    let mut rows_appended = 0usize;
    let (mut dirty, mut rescored, mut invalidated, mut drifts) = (0usize, 0usize, 0u64, 0usize);
    let (mut overlay_files, mut overlay_bytes) = (0usize, 0u64);
    // One round is one engine: created on the base weeks in set-up, then
    // every remaining week appended, so every round times the same mix
    // of weeks. No warm-up round: a warm engine is what set-up makes.
    let measured = rounds(
        run,
        t,
        window,
        2,
        false,
        |run, t| {
            let inp = generate(run);
            let engine = t.span("stream.create", |_| {
                create_engine(&inp, &engine_dir, config())
            });
            (inp, engine)
        },
        |run, t, (inp, eng)| {
            week_ms.resize(inp.deltas.len(), Vec::new());
            (dirty, rescored, invalidated) = (0, 0, 0);
            for (delta, week) in inp.deltas.iter().zip(&mut week_ms) {
                let (out, s) = t.timed("stream.append", |_| eng.append(delta));
                run.op(out.is_ok(), || {
                    format!("append failed: {:?}", out.as_ref().err())
                });
                let Ok(out) = out else { continue };
                append_ms.push(s * 1e3);
                week.push(s * 1e3);
                rows_appended += out.rows_appended;
                dirty += out.dirty_candidates;
                rescored += out.rescored;
                invalidated += out.blocks_invalidated;
            }
            run.op(same_search(&eng.search_result(), &cold), || {
                "engine state after the appends differs from a cold search over the whole timeline"
                    .into()
            });
            run.op(!eng.drift_log().is_empty(), || {
                "no drift event was logged".into()
            });
            drifts = eng.drift_log().len();
            if let Some(m) = eng.source().inner().manifest() {
                overlay_files = m.overlays.len();
                overlay_bytes = m.overlays.iter().map(|o| o.bytes).sum();
            }
            if run.trace {
                // Readers of the appended layout, cold: a fresh uncached source.
                let (found, s) = t.timed("storage.rescan", |_| {
                    let src = ShardedSource::open(eng.dir()).expect("open appended layout");
                    basic_search(
                        &src,
                        &inp.wl.region_space,
                        &COST,
                        &config(),
                        inp.wl.items.len(),
                    )
                    .expect("rescan")
                });
                rescan_s.push(s);
                run.op(same_search(&found, &cold), || {
                    "rescan of the appended layout differs from the cold search".into()
                });
            }
        },
    );
    let (inp, _) = measured.last;
    let engines = measured.op_s.len();
    run.set("peak_rss_mib", measured.peak_mib);
    let sorted_ms = stats::sorted(append_ms.clone());
    let append_p50_ms = stats::median_sorted(&sorted_ms);
    // The typical week's append, undisturbed: each week's quiet decile
    // over the engines, then the median over the weeks.
    let quiet_by_week: Vec<f64> = week_ms.iter().map(|ms| stats::quiet(ms)).collect();
    run.set("op_quiet_ms", stats::median(&quiet_by_week));
    run.info_num("op_samples", sorted_ms.len());
    run.info_num("op_p50_ms", append_p50_ms);
    run.info_num("engines", engines);
    run.info_num("appends_per_engine", inp.deltas.len());
    run.info_num("base_weeks", inp.base_weeks);
    run.info_num("fact_rows", inp.wl.total_rows());
    run.info_num("regions", inp.wl.regions.len());
    run.info_num("items", inp.wl.items.len());
    run.info_num("drift_events", drifts);

    if run.trace {
        run.set(
            "stream.append_p90_ms",
            stats::percentile_sorted(&sorted_ms, 0.9),
        );
        // Appends cost less the later their week, so a rate per append
        // has no typical value; this is all rows over all append time.
        run.set(
            "stream.append_rows_per_s",
            rows_appended as f64 / (append_ms.iter().sum::<f64>() / 1e3),
        );
        run.set(
            "stream.create_s",
            stats::median(&t.seconds_outside_iterations("stream.create")),
        );
        run.set("storage.rescan_s", stats::median(&rescan_s));
        run.set("stream.dirty_candidates", dirty as f64);
        run.set("stream.regions_rescored", rescored as f64);
        run.set("stream.drift_events", drifts as f64);
        run.set("storage.blocks_invalidated", invalidated as f64);
        run.set("storage.overlay_files", overlay_files as f64);
        run.set("storage.overlay_bytes", overlay_bytes as f64);
        layer_replay(run, t, &inp);
        run.set(
            "stream.append_other_p50_ms",
            append_p50_ms - run.get("cube.delta_append_p50_ms") - run.get("storage.append_p50_ms"),
        );
    }
    let secs: Vec<f64> = append_ms.iter().map(|ms| ms / 1e3).collect();
    finish_trace(run, t, &secs);
}
