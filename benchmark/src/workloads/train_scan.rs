//! `train_scan`: storage read + decode + `core::scan` + `linreg` fits.
//!
//! Blocks are planted and written in set-up, so the `cube` and `table`
//! layers do nothing. Four builders scan the layout through a cache a
//! thirty-fifth its size: basic search by training-set error, basic
//! search by 10-fold CV, a RainForest tree (multi-scan, Lemma 1) and the
//! optimized cube. Thread scaling, cache, kernel and evaluation-spine
//! changes must show here, and a cube-only change must show no change.
//! The traced run also prices the process fleet against the same scan.

use super::{
    check_predictions, finish_trace, open_layout, rounds, search_config, set_iteration_metrics,
    set_layer_seconds, set_scan_counts, snapshot_round_trip, SnapshotCheck, CURVE_THREADS,
    PROBE_RERUNS, THREADS,
};
use crate::run::Run;
use crate::stats;
use crate::trace::Tracer;
use bellwether_coord::{Coordinator, CoordinatorConfig, WorkerFaultPlan};
use bellwether_core::BellwetherModel;
use bellwether_core::{
    basic_search, build_optimized_cube, build_rainforest, BasicSearchResult, CubeConfig,
    ErrorMeasure, ModelBuilder, TreeConfig,
};
use bellwether_cube::UniformCellCost;
use bellwether_datagen::{build_scale_workload, ScaleConfig, ScaleWorkload};
use bellwether_obs::{names, MetricsSnapshot, Registry};
use bellwether_storage::{ShardedSource, TrainingSource};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Far below the ~9 MB layout (it holds one decoded block of the 64):
/// sequential scans cycle it through.
const CACHE_BYTES: usize = 256 << 10;
const COST: UniformCellCost = UniformCellCost { rate: 1.0 };

struct Outcome {
    model: Arc<BellwetherModel>,
    snapshot: Vec<u8>,
    search: BasicSearchResult,
    counts: Option<MetricsSnapshot>,
}

fn train(
    run: &Run,
    t: &mut Tracer,
    w: &ScaleWorkload,
    layout: &Path,
    threads: usize,
    traced: bool,
) -> Outcome {
    let reg = traced.then(Registry::shared);
    let src = open_layout(t, layout, Some(CACHE_BYTES), reg.as_ref());
    let n_items = w.items.len();
    let config = search_config(threads, ErrorMeasure::TrainingSet, reg.as_ref());
    let search = t.span("scan.basic", |_| {
        basic_search(src.as_ref(), &w.region_space, &COST, &config, n_items).expect("basic search")
    });
    let cv = search_config(threads, ErrorMeasure::cv10(), reg.as_ref());
    let by_cv = t.span("scan.basic_cv", |_| {
        basic_search(src.as_ref(), &w.region_space, &COST, &cv, n_items).expect("cv basic search")
    });
    let tree = t.span("scan.tree", |_| {
        let tc = TreeConfig {
            max_depth: 2,
            min_node_items: 30,
            max_numeric_splits: 4,
            ..TreeConfig::default()
        };
        build_rainforest(src.as_ref(), &w.region_space, &w.items, None, &config, &tc)
            .expect("rainforest")
    });
    let subsets = t.span("scan.cube", |_| {
        build_optimized_cube(
            src.as_ref(),
            &w.region_space,
            &w.item_space,
            &w.item_coords,
            &config,
            &CubeConfig {
                min_subset_size: 10,
            },
        )
        .expect("optimized cube")
    });
    std::hint::black_box(&by_cv);
    let model = t.span("model.build", |_| {
        ModelBuilder::new(src.as_ref(), w.items.clone())
            .basic(search.report().expect("a bellwether region exists"))
            .tree(tree)
            .cube(subsets, 0.95)
            .build()
            .expect("model build")
    });
    let (model, snapshot) = snapshot_round_trip(t, &model, &run.dir.join("model.bwsn"));
    Outcome {
        model,
        snapshot,
        search,
        counts: reg.map(|r| r.snapshot()),
    }
}

/// Field-by-field equality of two search results, float bits included.
pub fn same_search(a: &BasicSearchResult, b: &BasicSearchResult) -> bool {
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

/// Spawn 2 worker processes, run the basic search through them on 2
/// scanning threads (one per worker), shut them down; repeated `rounds`
/// times. The fleet's report must equal the in-process one bit for bit.
fn fleet_phase(
    run: &mut Run,
    t: &mut Tracer,
    w: &ScaleWorkload,
    layout: &Path,
    in_process: &BasicSearchResult,
    rounds: usize,
) {
    let bin = std::env::current_exe().expect("own binary");
    let config = search_config(CURVE_THREADS, ErrorMeasure::TrainingSet, None);
    let (mut total, mut spawn, mut scan, mut shutdown) = (vec![], vec![], vec![], vec![]);
    let mut heartbeats = Vec::new();
    let (mut worker_rss, mut restarts) = (0.0f64, 0u64);
    t.on = true;
    for _ in 0..rounds {
        let reg = Registry::new();
        let started = Instant::now();
        let (coord, spawn_s) = t.timed("coord.spawn", |_| {
            Coordinator::spawn_processes_with_registry(
                layout,
                &bin,
                WorkerFaultPlan::none(),
                CoordinatorConfig::new(),
                &reg,
            )
            .expect("spawn fleet")
        });
        let (found, scan_s) = t.timed("coord.scan", |_| {
            basic_search(&coord, &w.region_space, &COST, &config, w.items.len())
                .expect("fleet basic search")
        });
        for _ in 0..20 {
            let beat = Instant::now();
            let alive = coord.heartbeat();
            heartbeats.push(beat.elapsed().as_secs_f64() * 1e6);
            run.op(alive == coord.num_workers(), || {
                format!("only {alive} workers answered")
            });
        }
        let (exits, shutdown_s) = t.timed("coord.shutdown", |_| coord.shutdown());
        total.push(started.elapsed().as_secs_f64());
        spawn.push(spawn_s);
        scan.push(scan_s);
        shutdown.push(shutdown_s);
        run.op(same_search(&found, in_process), || {
            "fleet search result differs from the in-process one".into()
        });
        for e in &exits {
            worker_rss = worker_rss.max(e.peak_rss_bytes.unwrap_or(0) as f64 / (1 << 20) as f64);
        }
        restarts += reg
            .snapshot()
            .counter(names::COORD_WORKER_RESTARTS)
            .unwrap_or(0);
    }
    t.on = false;
    run.set("coord.fleet_scan_s", stats::median(&total));
    run.set("coord.spawn_s", stats::median(&spawn));
    run.set("coord.scan_s", stats::median(&scan));
    run.set("coord.shutdown_s", stats::median(&shutdown));
    run.set("coord.heartbeat_p50_us", stats::median(&heartbeats));
    run.set(
        "coord.overhead_x",
        stats::median(&scan) / run.get("scan.basic_t2_s"),
    );
    run.set("coord.worker_peak_rss_mib", worker_rss);
    run.set("coord.worker_restarts", restarts as f64);
    run.info_num("fleet_rounds", rounds);
}

pub fn run(run: &mut Run, t: &mut Tracer) {
    let layout = run.dir.join("layout");
    // A traced run keeps most of the window for the 2-thread reruns, the
    // read pass and the fleet.
    let window = if run.trace {
        run.seconds * 0.45
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
            let examples = run.sized(160_000, 50_000);
            let w = build_scale_workload(&ScaleConfig::sized_for(examples, run.seed));
            std::fs::remove_dir_all(&layout).ok();
            std::fs::create_dir_all(&layout).expect("layout dir");
            let manifest = w.write_sharded(&layout, 2).expect("write layout");
            (w, manifest)
        },
        |run, t, (w, _)| {
            let out = train(run, t, w, &layout, THREADS, traced);
            run.op(true, || unreachable!());
            check.observe(run, &out.snapshot, "train_scan");
            last = Some(out);
        },
    );
    let ((w, manifest), secs) = (measured.last, measured.op_s);
    let layout_bytes: u64 = manifest.shards.iter().map(|s| s.bytes).sum();
    let last = last.expect("at least one iteration ran");
    run.set("peak_rss_mib", measured.peak_mib);
    set_iteration_metrics(run, &secs);
    check.report(run);
    check_predictions(run, &last.model, w.items.len());
    let found = last.search.bellwether().map(|r| r.source_index);
    run.op(
        found.is_some_and(|i| w.planted_regions.contains(&i)),
        || {
            format!(
                "basic bellwether {found:?} is not one of the planted {:?}",
                w.planted_regions
            )
        },
    );
    run.info_num("examples", w.total_examples());
    run.info_num("regions", w.regions.len());
    run.info_num("items", w.items.len());
    run.info_num("layout_bytes", layout_bytes);

    if let Some(counts) = &last.counts {
        set_layer_seconds(
            run,
            t,
            &[
                ("storage.open_s", "storage.open"),
                ("scan.basic_s", "scan.basic"),
                ("scan.basic_cv_s", "scan.basic_cv"),
                ("scan.tree_s", "scan.tree"),
                ("scan.cube_s", "scan.cube"),
                ("model.build_s", "model.build"),
                ("model.save_s", "model.save"),
                ("model.load_s", "model.load"),
            ],
        );
        run.set("model.snapshot_bytes", last.snapshot.len() as f64);
        set_scan_counts(run, counts);
        let scan_s = [
            "scan.basic_s",
            "scan.basic_cv_s",
            "scan.tree_s",
            "scan.cube_s",
        ]
        .iter()
        .map(|m| run.get(m))
        .sum::<f64>();
        let examples_read = counts.counter(names::STORAGE_EXAMPLES_READ).unwrap_or(0);
        run.set("scan.examples_per_s", examples_read as f64 / scan_s);

        // The thread curve, and the snapshot must not depend on it.
        t.on = true;
        let same = (0..PROBE_RERUNS)
            .all(|_| train(run, t, &w, &layout, CURVE_THREADS, false).snapshot == last.snapshot);
        t.on = false;
        run.set(
            "scan.basic_t2_s",
            stats::quiet(&t.seconds_outside_iterations("scan.basic")),
        );
        run.set(
            "scan.tree_t2_s",
            stats::quiet(&t.seconds_outside_iterations("scan.tree")),
        );
        run.set(
            "scan.tree_speedup_t2",
            run.get("scan.tree_s") / run.get("scan.tree_t2_s"),
        );
        run.op(same, || {
            "snapshot at threads=2 differs from threads=1".into()
        });

        // One uncached pass over every region: read + CRC + decode alone.
        let src = ShardedSource::open(&layout).expect("open layout");
        t.on = true;
        let ((), read_s) = t.timed("storage.read_pass", |_| {
            for r in 0..src.num_regions() {
                std::hint::black_box(src.read_region(r).expect("read region"));
            }
        });
        t.on = false;
        run.set("storage.read_pass_s", read_s);
        run.set(
            "storage.read_mib_per_s",
            layout_bytes as f64 / (1 << 20) as f64 / read_s,
        );

        fleet_phase(
            run,
            t,
            &w,
            &layout,
            &last.search,
            if run.quick { 2 } else { 3 },
        );
    }
    finish_trace(run, t, &secs);
}
