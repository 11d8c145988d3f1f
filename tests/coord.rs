//! Acceptance properties of the multi-process shard coordinator
//! (`bellwether-coord`), spanning the frame protocol, the fault-
//! injected worker lifecycle, the scan engine, and every builder:
//!
//! * under a seeded fault campaign (worker crashes, hangs, corrupt
//!   frames) with sufficient restart budget, all seven builders train
//!   through the **simulated-transport coordinator** to snapshots
//!   *byte-identical* to a clean in-process `ShardedSource` run, at
//!   shards ∈ {1, 2, 4} × threads ∈ {1, 2, 4} — and the campaign is
//!   not vacuous (`coord/worker_restarts > 0`);
//! * the same holds for **real worker OS processes** (the `bellwether`
//!   binary re-invoked in `--worker` mode) under crash + hang +
//!   corrupt-frame injection;
//! * when one shard's restart budget is exhausted,
//!   `ScanPolicy::SkipUnreadable` completes with *exactly* that
//!   shard's regions in the skip accounting, `Strict` fails with a
//!   classified `RegionRead` error, and neither path panics.
//!
//! The simulated campaigns use zero-backoff policies and a transport
//! whose hang symptom is an instant `TimedOut` — no wall-clock sleeps
//! anywhere in the assertions.

use bellwether::prelude::*;
use bellwether_prop::{check, Rng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

/// Zero-backoff restart budget: attempts bound the lifecycle, sleeps
/// are free (and skipped entirely under the simulated transport).
fn restart_budget(attempts: u32) -> CoordinatorConfig {
    CoordinatorConfig::new().restart_policy(
        RetryPolicy::builder()
            .max_attempts(attempts)
            .base_backoff(Duration::ZERO)
            .max_backoff(Duration::ZERO)
            .build()
            .unwrap(),
    )
}

/// Random region blocks over an 8-region flat hierarchy, plus the item
/// table and item space the tree/cube builders need (same shape as the
/// sharded-layout property fixture).
#[allow(clippy::type_complexity)]
fn random_fixture(
    rng: &mut Rng,
) -> (
    Vec<RegionBlock>,
    RegionSpace,
    ItemTable,
    RegionSpace,
    HashMap<i64, Vec<u32>>,
    usize,
) {
    let leaves = ["ra", "rb", "rc", "rd", "re", "rf", "rg"];
    let region_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
        "L", "All", &leaves,
    ))]);
    let n_items = rng.usize_in(10, 24);
    let groups: Vec<&str> = (0..n_items).map(|_| *rng.choice(&["ga", "gb"])).collect();
    let mut blocks = Vec::new();
    for region in 0u32..8 {
        let mut block = RegionBlock::new(vec![region], 2);
        for id in 0..n_items as i64 {
            if rng.flip(0.8) {
                block.push(id, &[1.0, rng.f64_in(-10.0, 10.0)], rng.f64_in(-50.0, 50.0));
            }
        }
        blocks.push(block);
    }
    let items = ItemTable::from_table(
        &Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("g", DataType::Str)]).unwrap(),
            vec![
                Column::from_ints((0..n_items as i64).collect()),
                Column::from_strs(&groups),
            ],
        )
        .unwrap(),
        "id",
        &[],
        &["g"],
    )
    .unwrap();
    let item_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
        "G",
        "Any",
        &["ga", "gb"],
    ))]);
    let item_coords: HashMap<i64, Vec<u32>> = (0..n_items as i64)
        .map(|id| (id, vec![if groups[id as usize] == "ga" { 1 } else { 2 }]))
        .collect();
    (blocks, region_space, items, item_space, item_coords, n_items)
}

fn config_for(threads: usize) -> BellwetherConfig {
    BellwetherConfig::builder(1e9)
        .min_coverage(0.0)
        .min_examples(3)
        .error_measure(ErrorMeasure::TrainingSet)
        .parallelism(Parallelism::fixed(threads).with_min_chunk(1))
        .build()
        .unwrap()
}

const BUILDERS: [&str; 7] = [
    "basic",
    "basic_linear",
    "tree_naive",
    "tree_rainforest",
    "cube_naive",
    "cube_single_scan",
    "cube_optimized",
];

/// Run one named builder over any training source and return its
/// snapshot bytes (the serialization is deterministic, so byte equality
/// is model equality). `None` when the search finds no viable region.
#[allow(clippy::too_many_arguments)]
fn snapshot_bytes(
    builder: &str,
    src: &dyn TrainingSource,
    region_space: &RegionSpace,
    items: &ItemTable,
    item_space: &RegionSpace,
    item_coords: &HashMap<i64, Vec<u32>>,
    n_items: usize,
    config: &BellwetherConfig,
    tag: &str,
) -> Option<Vec<u8>> {
    let cost = UniformCellCost { rate: 1.0 };
    let tc = TreeConfig {
        min_node_items: 4,
        ..TreeConfig::default()
    };
    let cc = CubeConfig { min_subset_size: 3 };
    let mb = ModelBuilder::new(src, items.clone());
    let mb = match builder {
        "basic" => mb.basic(
            basic_search(src, region_space, &cost, config, n_items)
                .unwrap()
                .report()?,
        ),
        "basic_linear" => mb.basic(
            basic_search_linear(
                src,
                region_space,
                &cost,
                config,
                n_items,
                LinearCriterion {
                    cost_weight: 1.0,
                    coverage_weight: 10.0,
                },
            )
            .unwrap()
            .report()?,
        ),
        "tree_naive" => {
            mb.tree(build_naive_tree(src, region_space, items, None, config, &tc).unwrap())
        }
        "tree_rainforest" => {
            mb.tree(build_rainforest(src, region_space, items, None, config, &tc).unwrap())
        }
        "cube_naive" => mb.cube(
            build_naive_cube(src, region_space, item_space, item_coords, config, &cc).unwrap(),
            0.95,
        ),
        "cube_single_scan" => mb.cube(
            build_single_scan_cube(src, region_space, item_space, item_coords, config, &cc)
                .unwrap(),
            0.95,
        ),
        "cube_optimized" => mb.cube(
            build_optimized_cube(src, region_space, item_space, item_coords, config, &cc)
                .unwrap(),
            0.95,
        ),
        other => panic!("unknown builder {other}"),
    };
    let model = mb.build().unwrap();
    let path = tmp(&format!("{tag}_{builder}.bwsn"));
    model.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    Some(bytes)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bw_coord_prop_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn write_shards(blocks: &[RegionBlock], shards: usize, tag: &str) -> PathBuf {
    let dir = tmp(&format!("{tag}_s{shards}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut w =
        ShardedWriter::create(&dir, 2, 1, even_shard_plan(blocks.len(), shards)).unwrap();
    for b in blocks {
        w.write_region(b).unwrap();
    }
    w.finish().unwrap();
    dir
}

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.snapshot().counter(name).unwrap_or(0)
}

/// The tentpole acceptance property: a seeded crash + hang +
/// corrupt-frame campaign over the simulated transport, with enough
/// restart budget, trains every builder to bytes identical to the clean
/// in-process `ShardedSource` run, at every shard and thread count —
/// and the faults really happened.
#[test]
fn coordinator_under_fault_campaign_matches_clean_run_for_all_builders() {
    check("coord_sim_campaign_bit_identical", 2, |rng| {
        let (blocks, region_space, items, item_space, item_coords, n_items) =
            random_fixture(rng);
        let clean = MemorySource::new(blocks.clone());
        let fault_seed = rng.next_u64();

        // Clean reference bytes per builder, from the flat in-memory
        // source at one thread.
        let reference: Vec<Option<Vec<u8>>> = BUILDERS
            .iter()
            .map(|b| {
                snapshot_bytes(
                    b,
                    &clean,
                    &region_space,
                    &items,
                    &item_space,
                    &item_coords,
                    n_items,
                    &config_for(1),
                    "coord_clean",
                )
            })
            .collect();

        for shards in [1usize, 2, 4] {
            let dir = write_shards(&blocks, shards, "coord_sim");
            for threads in [1usize, 2, 4] {
                let reg = Registry::new();
                let plan = WorkerFaultPlan::new(fault_seed)
                    .with_crashes(1)
                    .with_hangs(1)
                    .with_corrupts(1);
                // Budget 8 > 3 faulty incarnation bands: guaranteed to
                // converge.
                let coord = bellwether::coord::Coordinator::simulated_with_registry(
                    &dir,
                    plan,
                    restart_budget(8),
                    &reg,
                )
                .unwrap();

                for (b, want) in BUILDERS.iter().zip(&reference) {
                    let got = snapshot_bytes(
                        b,
                        &coord,
                        &region_space,
                        &items,
                        &item_space,
                        &item_coords,
                        n_items,
                        &config_for(threads),
                        "coord_sim",
                    );
                    assert!(
                        got == *want,
                        "{b}: snapshot bytes diverged at shards={shards} threads={threads}"
                    );
                }

                // The equivalence must not be vacuous: workers died and
                // were restarted during the run.
                assert!(
                    counter(&reg, "coord/worker_restarts") > 0,
                    "no worker restarts at shards={shards} threads={threads}"
                );
                assert!(counter(&reg, "coord/reads") > 0);
                assert_eq!(counter(&reg, "coord/shards_dead"), 0);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    });
}

/// The same campaign against real worker OS processes: the `bellwether`
/// CLI binary re-invoked in `--worker` mode, one process per shard,
/// crashes + hangs + corrupt frames injected from a seeded plan. The
/// hang deadline is real here (workers stall until killed), so it is
/// kept short; assertions never depend on timing, only on bytes and
/// counters.
#[test]
fn real_process_workers_match_clean_run_under_faults() {
    let mut rng = Rng::new(0xC0_0D);
    let (blocks, region_space, items, item_space, item_coords, n_items) =
        random_fixture(&mut rng);
    let clean = MemorySource::new(blocks.clone());
    let reference: Vec<Option<Vec<u8>>> = BUILDERS
        .iter()
        .map(|b| {
            snapshot_bytes(
                b,
                &clean,
                &region_space,
                &items,
                &item_space,
                &item_coords,
                n_items,
                &config_for(1),
                "proc_clean",
            )
        })
        .collect();

    let bin = PathBuf::from(env!("CARGO_BIN_EXE_bellwether"));
    let dir = write_shards(&blocks, 2, "coord_proc");
    let reg = Registry::new();
    let plan = WorkerFaultPlan::new(41).with_crashes(1).with_hangs(1).with_corrupts(1);
    let config = restart_budget(8)
        .deadline(Duration::from_millis(400))
        .unwrap();
    let coord = bellwether::coord::Coordinator::spawn_processes_with_registry(
        &dir, &bin, plan, config, &reg,
    )
    .unwrap();

    for (b, want) in BUILDERS.iter().zip(&reference) {
        let got = snapshot_bytes(
            b,
            &coord,
            &region_space,
            &items,
            &item_space,
            &item_coords,
            n_items,
            &config_for(2),
            "coord_proc",
        );
        assert!(got == *want, "{b}: process-coordinator bytes diverged");
    }

    assert!(counter(&reg, "coord/worker_restarts") > 0, "faults were injected");
    assert!(coord.heartbeat() > 0, "workers answer pings after the campaign");
    let exits = coord.shutdown();
    assert_eq!(exits.len(), 2);
    assert!(
        exits.iter().any(|e| e.spawns > 1),
        "some worker was respawned: {exits:?}"
    );
    // Workers that exited gracefully report a plausible peak RSS.
    for e in &exits {
        if let Some(rss) = e.peak_rss_bytes {
            assert!(rss > 0, "worker {} reported zero RSS", e.worker);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Degradation contract: a poisoned worker exhausts its restart budget;
/// `SkipUnreadable` then completes with *exactly* that shard's regions
/// skipped, `Strict` fails with a classified `RegionRead` error, and
/// nothing panics.
#[test]
fn exhausted_restart_budget_degrades_with_exact_skip_accounting() {
    let mut rng = Rng::new(0xDEAD);
    let (blocks, region_space, ..) = random_fixture(&mut rng);
    let shards = 4; // 8 regions → worker 1 owns regions 2..4
    let dir = write_shards(&blocks, shards, "coord_dead");
    let cost = UniformCellCost { rate: 1.0 };

    for threads in [1usize, 2] {
        let reg = Registry::new();
        let plan = WorkerFaultPlan::new(5).with_poisoned(1);
        let coord = bellwether::coord::Coordinator::simulated_with_registry(
            &dir,
            plan,
            restart_budget(2),
            &reg,
        )
        .unwrap();
        let dead_regions: Vec<usize> = coord.regions_of_worker(1).collect();
        assert_eq!(dead_regions, vec![2, 3]);

        // Strict: the scan fails with the failing region classified.
        let strict_cfg = BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(3)
            .error_measure(ErrorMeasure::TrainingSet)
            .parallelism(Parallelism::fixed(threads).with_min_chunk(1))
            .build()
            .unwrap();
        match basic_search(&coord, &region_space, &cost, &strict_cfg, 16) {
            Err(BellwetherError::RegionRead { index, .. }) => {
                assert!(
                    dead_regions.contains(&index),
                    "threads={threads}: failing region {index} not owned by the dead worker"
                );
            }
            Err(other) => panic!("threads={threads}: expected RegionRead, got {other}"),
            Ok(_) => panic!("threads={threads}: strict scan over a dead shard must fail"),
        }

        // SkipUnreadable: the search completes and names exactly the
        // dead worker's regions (ascending — scan order is canonical).
        let skip_cfg = BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(3)
            .error_measure(ErrorMeasure::TrainingSet)
            .parallelism(Parallelism::fixed(threads).with_min_chunk(1))
            .scan_policy(ScanPolicy::SkipUnreadable { max_skipped: 4 })
            .build()
            .unwrap();
        let result = basic_search(&coord, &region_space, &cost, &skip_cfg, 16).unwrap();
        assert_eq!(
            result.skipped_regions, dead_regions,
            "threads={threads}: skip accounting must name exactly the dead shard's regions"
        );
        assert!(
            !result.reports.is_empty(),
            "threads={threads}: healthy shards still evaluated"
        );

        assert_eq!(counter(&reg, "coord/shards_dead"), 1);
        assert_eq!(coord.dead_workers(), vec![1]);
        // Dead-shard reads fail fast: restarts happened only while the
        // budget was being spent, not once per subsequent read.
        assert_eq!(counter(&reg, "coord/worker_restarts"), 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A skip budget smaller than the dead shard degrades loudly, not
/// silently: the scan reports `TooManyUnreadable` through the builder
/// as an error rather than returning a partial model.
#[test]
fn too_small_skip_budget_fails_loudly() {
    let mut rng = Rng::new(0xBEEF);
    let (blocks, region_space, ..) = random_fixture(&mut rng);
    let dir = write_shards(&blocks, 4, "coord_dead_budget");
    let cost = UniformCellCost { rate: 1.0 };
    let plan = WorkerFaultPlan::new(5).with_poisoned(1);
    let coord =
        bellwether::coord::Coordinator::simulated(&dir, plan, restart_budget(2)).unwrap();
    let cfg = BellwetherConfig::builder(1e9)
        .min_coverage(0.0)
        .min_examples(3)
        .error_measure(ErrorMeasure::TrainingSet)
        .scan_policy(ScanPolicy::SkipUnreadable { max_skipped: 1 })
        .build()
        .unwrap();
    assert!(
        basic_search(&coord, &region_space, &cost, &cfg, 16).is_err(),
        "2 dead regions > max_skipped=1 must fail"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Workers read base shard files and know nothing of overlays, so the
/// coordinator refuses a layout with a generation appended over it
/// (serving it would resurrect the replaced blocks) and still serves
/// the same layout written afresh.
#[test]
fn the_coordinator_refuses_an_appended_layout() {
    let mut rng = Rng::new(0xA44);
    let (blocks, ..) = random_fixture(&mut rng);
    let dir = write_shards(&blocks, 2, "coord_appended");
    let simulated = || {
        bellwether::coord::Coordinator::simulated(&dir, WorkerFaultPlan::new(1), restart_budget(2))
    };
    assert!(simulated().is_ok(), "the base layout is served");

    let mut replacement = blocks[3].clone();
    replacement.targets.iter_mut().for_each(|y| *y += 1.0);
    let mut appender = bellwether::storage::ShardAppender::open(&dir).unwrap();
    appender.write_region(3, &replacement).unwrap();
    appender.finish().unwrap();
    let err = match simulated() {
        Ok(_) => panic!("an appended layout was served"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("appended"), "{err}");

    write_shards(&blocks, 2, "coord_appended");
    assert!(simulated().is_ok(), "the layout written afresh is served");
    std::fs::remove_dir_all(&dir).ok();
}
