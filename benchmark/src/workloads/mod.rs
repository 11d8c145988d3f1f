//! The five workloads, and what they share: the load shape (timed
//! operations on one thread, so that a quiet moment of one vCPU is
//! enough to time one undisturbed), the timed loop, and the pipeline
//! steps more than one of them runs.

pub mod append_stream;
pub mod serve_predict;
pub mod train_facts;
pub mod train_scan;
pub mod train_spill;

use crate::rss;
use crate::run::Run;
use crate::stats;
use crate::trace::Tracer;
use bellwether_core::training::region_block;
use bellwether_core::{BellwetherConfig, BellwetherModel, ErrorMeasure, ItemTable};
use bellwether_cube::cube_pass::CubeResult;
use bellwether_cube::{Parallelism, RegionId, RegionSpace};
use bellwether_obs::{names, MetricsSnapshot, Recorder, Registry};
use bellwether_storage::{
    crc32, even_shard_plan, CachedSource, ShardManifest, ShardedSource, ShardedWriter,
    TrainingSource,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Every timed training operation runs with `Parallelism::fixed(1)`.
/// `nproc` is 2 on the bench box, but its vCPUs share cores with other
/// tenants: each is slowed by up to 1.55x for milliseconds to minutes at
/// a time, independently of the other, and a 2-thread kernel waits for
/// the slower of the two, so at 2 threads hardly any iteration runs
/// undisturbed and the run's result follows the neighbours (measured:
/// README, "Why one thread"). The 2-thread numbers are per-layer metrics
/// of the traced run ([`CURVE_THREADS`]).
pub const THREADS: usize = 1;
/// The traced run repeats each training once at this many threads: the
/// thread curve (`*_t2_s`), and the snapshot must not depend on it.
pub const CURVE_THREADS: usize = 2;
/// A probe of the traced run that repeats a whole training (at
/// [`CURVE_THREADS`], or under another budget) repeats it this many
/// times and reports the quiet decile, like the timed iterations.
pub const PROBE_RERUNS: usize = 5;

pub fn run(run: &mut Run, t: &mut Tracer) {
    match run.workload {
        "train_facts" => train_facts::run(run, t),
        "train_spill" => train_spill::run(run, t),
        "train_scan" => train_scan::run(run, t),
        "append_stream" => append_stream::run(run, t),
        "serve_predict" => serve_predict::run(run, t),
        other => unreachable!("workload {other} passed the argument check"),
    }
}

/// What the rounds of a run measured.
pub struct Rounds<T> {
    /// The last round's set-up product, for the checks and probes that
    /// follow the timed part.
    pub last: T,
    /// Wall seconds of each timed round's operation part.
    pub op_s: Vec<f64>,
    /// Highest `VmHWM` of this process over the timed rounds, the mark
    /// reset after each round's set-up.
    pub peak_mib: f64,
}

/// A run is a sequence of rounds, each one set-up (`make`: inputs from
/// the seed, layouts, engines, servers) followed by one timed operation
/// part (`body`). Set-up is part of every round, and not a phase before
/// the timed part, so that its samples spread over the whole run like
/// the operation's: the box's slow moods last from milliseconds to a
/// minute, and a second of set-ups in a row can sit inside one. With
/// `warm_up`, one round runs first untimed and untraced (caches fill,
/// lazy set-up finishes). Rounds go on until the operation parts have
/// taken `window_s` in all, and at least `min_rounds` (≥ 1) times.
/// `setup_s` is the quiet decile of the set-ups, so one slow page-cache
/// flush does not read as a set-up regression.
pub fn rounds<T>(
    run: &mut Run,
    t: &mut Tracer,
    window_s: f64,
    min_rounds: u32,
    warm_up: bool,
    mut make: impl FnMut(&mut Run, &mut Tracer) -> T,
    mut body: impl FnMut(&mut Run, &mut Tracer, &mut T),
) -> Rounds<T> {
    t.on = false;
    let mut last = None;
    if warm_up {
        let mut made = make(run, t);
        body(run, t, &mut made);
        last = Some(made);
    }
    let (mut setup_s, mut op_s) = (Vec::new(), Vec::new());
    let (mut peak_mib, mut reset) = (0.0f64, true);
    let mut i = 0u32;
    // Stop when the next round would end further past the window than
    // this one ends short of it.
    while i < min_rounds || op_s.iter().sum::<f64>() + 0.5 * stats::median(&op_s) < window_s {
        drop(last.take());
        t.on = run.trace;
        let started = Instant::now();
        let mut made = make(run, t);
        setup_s.push(started.elapsed().as_secs_f64());
        reset &= rss::reset_peak();
        let ((), s) = t.iteration(i, |t| body(run, t, &mut made));
        op_s.push(s);
        last = Some(made);
        peak_mib = peak_mib.max(rss::peak_mib());
        i += 1;
    }
    t.on = false;
    run.set("setup_s", stats::quiet(&setup_s));
    run.info_num("setup_samples", setup_s.len());
    run.info_num("rss_reset_after_setup", reset);
    Rounds {
        last: last.expect("at least one round ran"),
        op_s,
        peak_mib,
    }
}

/// The search problem every training workload poses: every stored
/// region is a candidate. In a traced run the program's own counters
/// land in `reg`; untraced, nothing is recorded.
pub fn search_config(
    threads: usize,
    measure: ErrorMeasure,
    reg: Option<&Arc<Registry>>,
) -> BellwetherConfig {
    let mut b = BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(10)
        .error_measure(measure)
        .parallelism(Parallelism::fixed(threads));
    if let Some(reg) = reg {
        b = b.recorder(reg.clone() as Arc<dyn Recorder>);
    }
    b.build().expect("a valid search config")
}

/// Assemble every region's training block from `cube` and stream it
/// into a fresh `shards`-way layout under `dir`.
#[allow(clippy::too_many_arguments)]
pub fn write_layout(
    t: &mut Tracer,
    dir: &Path,
    space: &RegionSpace,
    cube: &CubeResult,
    regions: &[RegionId],
    items: &ItemTable,
    targets: &HashMap<i64, f64>,
    shards: usize,
) -> ShardManifest {
    let p = (1 + items.numeric_attrs().len() + cube.measure_names.len()) as u32;
    let plan = even_shard_plan(regions.len(), shards);
    let mut writer = t.span("storage.write", |_| {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir).expect("layout dir");
        ShardedWriter::create(dir, p, space.arity() as u32, plan).expect("create layout")
    });
    for region in regions {
        let block = t.span("training.block_build", |_| {
            region_block(cube, region, items, targets)
        });
        t.span("storage.write", |_| {
            writer.write_region(&block).expect("write region")
        });
    }
    t.span("storage.write", |_| writer.finish().expect("finish layout"))
}

/// Open the layout under `dir`, behind a decoded-block cache of
/// `cache_bytes` if given. In a traced run the read and cache counters
/// land in `reg`.
pub fn open_layout(
    t: &mut Tracer,
    dir: &Path,
    cache_bytes: Option<usize>,
    reg: Option<&Arc<Registry>>,
) -> Box<dyn TrainingSource> {
    t.span("storage.open", |_| {
        let sharded = match reg {
            Some(reg) => ShardedSource::open_with_registry(dir, reg),
            None => ShardedSource::open(dir),
        }
        .expect("open layout");
        match (cache_bytes, reg) {
            (None, _) => Box::new(sharded) as Box<dyn TrainingSource>,
            (Some(bytes), Some(reg)) => Box::new(CachedSource::with_registry(sharded, bytes, reg)),
            (Some(bytes), None) => Box::new(CachedSource::new(sharded, bytes)),
        }
    })
}

/// Save `model`, read the bytes back for the determinism check, load it.
pub fn snapshot_round_trip(
    t: &mut Tracer,
    model: &BellwetherModel,
    path: &Path,
) -> (Arc<BellwetherModel>, Vec<u8>) {
    t.span("model.save", |_| model.save(path).expect("snapshot save"));
    let bytes = std::fs::read(path).expect("read snapshot back");
    let loaded = t.span("model.load", |_| {
        BellwetherModel::load(path).expect("snapshot load")
    });
    (loaded, bytes)
}

/// Tracks that every iteration of a run writes the same snapshot bytes.
#[derive(Default)]
pub struct SnapshotCheck {
    first: Option<(u32, usize)>,
}

impl SnapshotCheck {
    /// Compare this iteration's snapshot with the first one's; counts
    /// one operation.
    pub fn observe(&mut self, run: &mut Run, bytes: &[u8], what: &str) {
        let got = (crc32::crc32(bytes), bytes.len());
        let want = *self.first.get_or_insert(got);
        run.op(got == want, || {
            format!(
                "{what}: snapshot crc {:08x}/{} bytes, first iteration wrote {:08x}/{}",
                got.0, got.1, want.0, want.1
            )
        });
    }

    /// Print the CRC so two sets of runs can be compared.
    pub fn report(&self, run: &mut Run) {
        if let Some((crc, len)) = self.first {
            run.info_str("snapshot_crc32", &format!("{crc:08x}"));
            run.info_num("snapshot_bytes", len);
        }
    }
}

/// The loaded model answers for every item with every installed method.
pub fn check_predictions(run: &mut Run, model: &BellwetherModel, n_items: usize) {
    let ids = model.items().ids().to_vec();
    let ok = ids.len() == n_items
        && model.methods().iter().all(|&m| {
            let out = model.predict_batch(m, &ids);
            out.len() == ids.len() && out.iter().all(|p| p.is_some_and(f64::is_finite))
        });
    run.op(ok, || {
        "loaded model does not predict a finite value for every item".into()
    });
}

/// Per-layer time metrics that are one span each, `(metric, span)`: the
/// quiet decile across traced iterations of the seconds spent under the
/// span, the statistic the end-to-end time is reported by.
pub fn set_layer_seconds(run: &mut Run, t: &Tracer, pairs: &[(&'static str, &'static str)]) {
    for &(metric, span) in pairs {
        run.set(metric, stats::quiet(&t.seconds_per_iteration(span)));
    }
}

/// The counts every scanning workload takes from the registry of one
/// traced iteration.
pub fn set_scan_counts(run: &mut Run, snap: &MetricsSnapshot) {
    let n = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    run.set("storage.regions_read", n(names::STORAGE_REGIONS_READ));
    run.set("storage.bytes_read", n(names::STORAGE_BYTES_READ));
    run.set("storage.cache_hits", n(names::STORAGE_CACHE_HITS));
    run.set("storage.cache_misses", n(names::STORAGE_CACHE_MISSES));
    run.set("storage.cache_evictions", n(names::STORAGE_CACHE_EVICTIONS));
    let lookups = n(names::STORAGE_CACHE_HITS) + n(names::STORAGE_CACHE_MISSES);
    let ratio = if lookups > 0.0 {
        n(names::STORAGE_CACHE_HITS) / lookups
    } else {
        0.0
    };
    run.set("storage.cache_hit_ratio", ratio);
    run.set("scan.regions_evaluated", n(names::SEARCH_REGIONS_EVALUATED));
    run.set("scan.regions_skipped", n(names::SCAN_REGIONS_SKIPPED));
    run.set("linreg.fits", n(names::LINREG_FITS));
    run.set("linreg.cv_folds", n(names::LINREG_CV_FOLDS));
    run.set("linreg.ridge_rescues", n(names::LINREG_RIDGE_RESCUES));
    run.set("linreg.scratch_grows", n(names::LINREG_SCRATCH_GROWS));
}

/// `op_quiet_ms` of a workload whose operation is one timed iteration,
/// one per round.
pub fn set_iteration_metrics(run: &mut Run, secs: &[f64]) {
    run.set("op_quiet_ms", stats::quiet(secs) * 1e3);
    run.info_num("op_samples", secs.len());
    run.info_num("op_p50_ms", stats::median(secs) * 1e3);
    let each: Vec<String> = secs.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    run.info_num("op_ms_each", format!("[{}]", each.join(",")));
}

/// Harness metrics of a traced run, and the trace file itself.
pub fn finish_trace(run: &mut Run, t: &Tracer, traced_secs: &[f64]) {
    if !run.trace {
        return;
    }
    let traced_ns: f64 = traced_secs.iter().sum::<f64>() * 1e9;
    let in_iterations = t.spans().iter().filter(|s| s.iteration.is_some()).count();
    let overhead = in_iterations as f64 * Tracer::span_cost_ns() / traced_ns.max(1.0);
    run.set("trace.overhead_pct", 100.0 * overhead);
    run.set("trace.unattributed_share", t.unattributed_share());
    run.info_num("spans", t.spans().len());
    let path = crate::run::out_dir().join(format!("trace-{}.json", run.workload));
    std::fs::write(path, t.to_json(run.workload)).expect("write trace file");
}
