//! Out-of-core sharded-layout properties, spanning storage, the scan
//! engine, and every builder:
//!
//! * a sharded dataset read through the **full layered stack** — each
//!   shard's `DiskSource` wrapped as
//!   `RetryingSource(FaultySource(CachedSource(disk)))` with transient
//!   faults injected on every region — trains every one of the seven
//!   builders to a snapshot *byte-identical* to a clean in-memory run,
//!   for shards ∈ {1, 2, 3} × threads ∈ {1, 2, 4};
//! * the injected transients really happen (fault and retry counters
//!   are non-zero), so the equivalence is exercised, not vacuous;
//! * a truncated shard file and a doctored manifest byte count are both
//!   rejected at open time with structured errors, never a panic, and so
//!   is a manifest naming a file outside its layout directory;
//! * a shard whose every block is corrupt degrades with exact skip
//!   accounting under `SkipUnreadable` and fails classified under
//!   `Strict` or a skip budget smaller than the shard.

use bellwether::prelude::*;
use bellwether_prop::{check, Rng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

/// Absorbs the injected transient depth without sleeping.
fn absorbing_policy() -> RetryPolicy {
    RetryPolicy::builder()
        .max_attempts(4)
        .base_backoff(Duration::ZERO)
        .max_backoff(Duration::ZERO)
        .build()
        .unwrap()
}

/// Random region blocks over an 8-region flat hierarchy, plus the item
/// table and item space the tree/cube builders need.
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
    let dir = std::env::temp_dir().join(format!("bw_sharded_prop_{}", std::process::id()));
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

/// The acceptance property of the sharded layout: the layered stack
/// `RetryingSource(FaultySource(CachedSource(disk)))` per shard, with
/// transients injected on every region, trains every builder to the
/// same bytes as a clean single-`MemorySource` run, at every shard and
/// thread count.
#[test]
fn layered_sharded_stack_matches_clean_run_for_all_builders() {
    check("sharded_layered_stack_bit_identical", 2, |rng| {
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
                    "clean",
                )
            })
            .collect();

        for shards in [1usize, 2, 3] {
            let dir = write_shards(&blocks, shards, "layered");
            for threads in [1usize, 2, 4] {
                let reg = Registry::shared();
                let layered = ShardedSource::open_layered(&dir, |disk| {
                    let cached = CachedSource::with_registry(disk, 1 << 16, &reg);
                    let plan = FaultPlan::new(fault_seed).transient_every(1, 2);
                    let faulty = FaultySource::with_registry(cached, plan, &reg);
                    Box::new(RetryingSource::with_registry(
                        faulty,
                        absorbing_policy(),
                        &reg,
                    ))
                })
                .unwrap();

                for (b, want) in BUILDERS.iter().zip(&reference) {
                    let got = snapshot_bytes(
                        b,
                        &layered,
                        &region_space,
                        &items,
                        &item_space,
                        &item_coords,
                        n_items,
                        &config_for(threads),
                        "layered",
                    );
                    assert_eq!(
                        got.as_ref().map(Vec::len),
                        want.as_ref().map(Vec::len),
                        "{b}: snapshot size diverged at shards={shards} threads={threads}"
                    );
                    assert!(
                        got == *want,
                        "{b}: snapshot bytes diverged at shards={shards} threads={threads}"
                    );
                }

                // The equivalence must not be vacuous: transients were
                // injected and absorbed.
                let snap = reg.snapshot();
                assert!(
                    snap.faults_injected() > 0,
                    "no faults injected at shards={shards} threads={threads}"
                );
                assert!(
                    snap.retries() > 0,
                    "no retries recorded at shards={shards} threads={threads}"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    });
}

/// The RainForest level statistics have a summation order of their own
/// (a slot folds one block's rows, a threshold's children merge buckets
/// in a fixed order), stated as a function of the block, the nodes'
/// items and their candidates alone. So trees with several numeric
/// attributes, several thresholds each, and levels of many nodes must
/// come out byte-identical, the naive and the RainForest one, from a
/// clean in-memory source at one thread and from every layered stack:
/// shards {1, 3} × threads {1, 2, 4} × cache {off, on}, with transients
/// injected on every region and retried.
#[test]
fn level_statistics_do_not_depend_on_threads_shards_cache_or_faults() {
    check("level_statistics_layered_bit_identical", 2, |rng| {
        let w = build_scale_workload(&ScaleConfig {
            n_items: rng.usize_in(60, 100),
            fact_dim_leaves: [rng.usize_in(2, 4), 2],
            item_hierarchy_leaves: [3, 2, 2],
            n_numeric_attrs: 2,
            regional_features: 2,
            bellwether_noise: 0.5,
            seed: rng.next_u64(),
        });
        let tc = TreeConfig {
            max_depth: 3,
            min_node_items: 8,
            max_numeric_splits: 6,
            // Grow wherever a split can be scored at all.
            require_positive_goodness: false,
            perfect_error_tol: 0.0,
            ..TreeConfig::default()
        };
        let tree_bytes = |src: &dyn TrainingSource, naive: bool, threads: usize| -> Vec<u8> {
            let mut config = config_for(threads);
            config.min_examples = 4;
            let build = if naive { build_naive_tree } else { build_rainforest };
            let tree = build(src, &w.region_space, &w.items, None, &config, &tc).unwrap();
            assert!(tree.depth() >= 2, "shallow tree");
            let model = ModelBuilder::new(src, w.items.clone()).tree(tree).build().unwrap();
            let path = tmp(&format!("level_stats_{naive}_{threads}.bwsn"));
            model.save(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        };
        let clean = w.memory_source();
        // Naive numbers its nodes depth-first, RainForest level by level
        // (tests/lemmas.rs holds one to the other); each is held to its
        // own clean run.
        let reference = [tree_bytes(&clean, false, 1), tree_bytes(&clean, true, 1)];

        let fault_seed = rng.next_u64();
        for shards in [1usize, 3] {
            let dir = tmp(&format!("level_stats_s{shards}"));
            std::fs::remove_dir_all(&dir).ok();
            w.write_sharded(&dir, shards).unwrap();
            for threads in [1usize, 2, 4] {
                for cache in [false, true] {
                    let reg = Registry::shared();
                    let layered = ShardedSource::open_layered(&dir, |disk| {
                        let plan = FaultPlan::new(fault_seed).transient_every(1, 2);
                        let policy = absorbing_policy();
                        if cache {
                            let cached = CachedSource::with_registry(disk, 1 << 16, &reg);
                            let faulty = FaultySource::with_registry(cached, plan, &reg);
                            Box::new(RetryingSource::with_registry(faulty, policy, &reg))
                        } else {
                            let faulty = FaultySource::with_registry(disk, plan, &reg);
                            Box::new(RetryingSource::with_registry(faulty, policy, &reg))
                        }
                    })
                    .unwrap();
                    // The naive tree scans once per criterion: it takes
                    // the cached stacks only.
                    for naive in [false, true].into_iter().take(1 + usize::from(cache)) {
                        assert!(
                            tree_bytes(&layered, naive, threads) == reference[usize::from(naive)],
                            "naive={naive}: snapshot bytes diverged at shards={shards} \
                             threads={threads} cache={cache}"
                        );
                    }
                    assert!(reg.snapshot().retries() > 0, "no transient was injected");
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    });
}

/// Opening a sharded dataset whose shard file was truncated, or whose
/// manifest byte count was doctored, fails with a structured IO error.
#[test]
fn damaged_sharded_layouts_are_rejected_at_open() {
    let mut rng = Rng::new(11);
    let (blocks, ..) = random_fixture(&mut rng);

    // Truncated shard file.
    let dir = write_shards(&blocks, 2, "trunc");
    let shard0 = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "bwtd"))
        .expect("a shard file exists");
    let bytes = std::fs::read(&shard0).unwrap();
    std::fs::write(&shard0, &bytes[..bytes.len() - 7]).unwrap();
    let err = match ShardedSource::open(&dir) {
        Ok(_) => panic!("truncated shard must not open"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("bytes"),
        "error names the size mismatch: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Doctored manifest (flip one byte in the shard-size field region).
    let dir = write_shards(&blocks, 2, "doctor");
    let manifest_path = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.file_name().is_some_and(|n| n.to_string_lossy().contains("manifest")))
        .expect("a manifest exists");
    let mut bytes = std::fs::read(&manifest_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&manifest_path, &bytes).unwrap();
    assert!(
        ShardedSource::open(&dir).is_err(),
        "doctored manifest must not open"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A dead shard degrades with exact skip accounting: every block of
/// shard 1 of a four-shard layout is corrupt. `Strict` fails with a
/// classified `RegionRead` naming one of that shard's regions,
/// `SkipUnreadable` completes with exactly that shard's regions skipped
/// (ascending: scan order is canonical), and a skip budget smaller than
/// the shard fails as `TooManyUnreadable`. Nothing panics, at any thread
/// count.
#[test]
fn a_dead_shard_degrades_with_exact_skip_accounting() {
    use bellwether_storage::format::{decode_footer, FOOTER_LEN, HEADER_LEN};
    let mut rng = Rng::new(0xDEAD);
    let (blocks, region_space, ..) = random_fixture(&mut rng);
    let dir = write_shards(&blocks, 4, "dead");
    // Shard 1 holds regions 2 and 3: flip a byte in the first block and
    // the last byte of the second, which ends where the index starts.
    let manifest = ShardManifest::read(&dir.join(bellwether::storage::MANIFEST_NAME)).unwrap();
    let shard = dir.join(&manifest.shards[1].file);
    let mut bytes = std::fs::read(&shard).unwrap();
    let (index_at, count) = decode_footer(&bytes[bytes.len() - FOOTER_LEN..]).unwrap();
    assert_eq!(count, 2);
    bytes[HEADER_LEN + 8] ^= 0x40;
    bytes[index_at as usize - 1] ^= 0x40;
    std::fs::write(&shard, &bytes).unwrap();
    let dead = vec![2usize, 3];
    let source = ShardedSource::open(&dir).unwrap();
    let cost = UniformCellCost { rate: 1.0 };
    let skip_cfg = |threads: usize, max_skipped: usize| {
        BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(3)
            .error_measure(ErrorMeasure::TrainingSet)
            .parallelism(Parallelism::fixed(threads).with_min_chunk(1))
            .scan_policy(ScanPolicy::SkipUnreadable { max_skipped })
            .build()
            .unwrap()
    };

    for threads in [1usize, 2, 4] {
        match basic_search(&source, &region_space, &cost, &config_for(threads), 16) {
            Err(BellwetherError::RegionRead { index, source }) => {
                assert!(
                    dead.contains(&index),
                    "threads={threads}: region {index} is not dead"
                );
                assert!(
                    bellwether::storage::is_corrupt(&source),
                    "threads={threads}: {source}"
                );
            }
            Err(other) => panic!("threads={threads}: expected RegionRead, got {other}"),
            Ok(_) => panic!("threads={threads}: a strict scan over a dead shard must fail"),
        }

        let result =
            basic_search(&source, &region_space, &cost, &skip_cfg(threads, 4), 16).unwrap();
        assert_eq!(result.skipped_regions, dead, "threads={threads}");
        assert!(
            !result.reports.is_empty(),
            "threads={threads}: healthy shards still evaluated"
        );

        match basic_search(&source, &region_space, &cost, &skip_cfg(threads, 1), 16) {
            Err(BellwetherError::TooManyUnreadable { max_skipped: 1, .. }) => {}
            Err(other) => panic!("threads={threads}: expected TooManyUnreadable, got {other}"),
            Ok(_) => panic!("threads={threads}: 2 dead regions > max_skipped=1 must fail"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One set of books: a stack bound to one `Registry` —
/// `CachedSource(RetryingSource(FaultySource(ShardedSource)))` over a
/// sharded layout — scanned twice with a transient fault on every region
/// and permanent corruption on a few. The stack's snapshot names each
/// counter once, and each reads what the registry holds under that name.
#[test]
fn a_registry_bound_stack_keeps_one_set_of_books() {
    let mut rng = Rng::new(0xB00C);
    let (blocks, region_space, ..) = random_fixture(&mut rng);
    let dir = write_shards(&blocks, 3, "books");
    let corrupt = |plan: &FaultPlan| (0..blocks.len()).filter(|&i| plan.is_corrupt_region(i)).count();
    let plan = (0..)
        .map(|seed| FaultPlan::new(seed).transient_every(1, 2).corrupt_every(4))
        .find(|plan| (1..=3).contains(&corrupt(plan)))
        .unwrap();
    let n_corrupt = corrupt(&plan);

    let reg = Registry::shared();
    let sharded = ShardedSource::open_with_registry(&dir, &reg).unwrap();
    let faulty = FaultySource::with_registry(sharded, plan, &reg);
    let retrying = RetryingSource::with_registry(faulty, absorbing_policy(), &reg);
    let src = CachedSource::with_registry(retrying, 1 << 20, &reg);
    let cfg = BellwetherConfig::builder(1e9)
        .min_coverage(0.0)
        .min_examples(3)
        .error_measure(ErrorMeasure::TrainingSet)
        .scan_policy(ScanPolicy::SkipUnreadable { max_skipped: n_corrupt })
        .build()
        .unwrap();
    let cost = UniformCellCost { rate: 1.0 };
    for _ in 0..2 {
        let result = basic_search(&src, &region_space, &cost, &cfg, 32).unwrap();
        assert_eq!(result.skipped_regions.len(), n_corrupt);
    }

    let (snap, books) = (src.snapshot(), reg.snapshot());
    let mut names: Vec<&str> = snap.counters.iter().map(|(name, _)| name.as_str()).collect();
    names.sort_unstable();
    let mut want = vec![
        "storage/bytes_read",
        "storage/cache_evictions",
        "storage/cache_hits",
        "storage/cache_invalidations",
        "storage/cache_misses",
        "storage/corrupt_blocks",
        "storage/examples_read",
        "storage/faults_injected",
        "storage/regions_read",
        "storage/retries",
    ];
    want.sort_unstable();
    assert_eq!(names, want, "every layer's counters, each once");
    for (name, value) in &snap.counters {
        assert_eq!(books.counter(name), Some(*value), "{name}");
    }
    // Not vacuous: every kind of event happened.
    assert!(snap.cache_hits() > 0 && snap.cache_misses() > 0);
    assert!(snap.retries() > 0 && snap.faults_injected() > snap.retries());
    assert_eq!(snap.corrupt_blocks(), 2 * n_corrupt as u64, "one per scan per corrupt region");
    assert!(snap.regions_read() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest names files inside its layout directory and nowhere else.
/// A shard name that is not one bare file name is refused at decode as
/// `InvalidData`, under a checksum that verifies and with a real copy of
/// a shard waiting at the path the name points to.
#[test]
fn manifest_names_cannot_point_outside_the_layout_directory() {
    let mut rng = Rng::new(13);
    let (blocks, ..) = random_fixture(&mut rng);
    let dir = write_shards(&blocks, 2, "escape");
    let manifest_path = dir.join(bellwether::storage::MANIFEST_NAME);
    let clean = ShardManifest::read(&manifest_path).unwrap();
    let outside = tmp("escape_outside");
    std::fs::create_dir_all(&outside).unwrap();
    std::fs::create_dir_all(dir.join("a")).unwrap();
    std::fs::copy(dir.join(&clean.shards[0].file), outside.join("x.bwtd")).unwrap();
    std::fs::copy(dir.join(&clean.shards[1].file), dir.join("a/b.bwtd")).unwrap();

    let mut up = clean.clone();
    up.shards[0].file = "../escape_outside/x.bwtd".into();
    let mut absolute = clean.clone();
    absolute.shards[0].file = outside.join("x.bwtd").to_string_lossy().into_owned();
    let mut nested = clean.clone();
    nested.shards[1].file = "a/b.bwtd".into();
    for (bad, name) in [
        (up, "../escape_outside/x.bwtd"),
        (absolute, "escape_outside/x.bwtd"),
        (nested, "a/b.bwtd"),
    ] {
        let err = ShardManifest::decode(&bad.encode()).expect_err("a name outside the layout");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        assert!(err.to_string().contains(name), "{name}: {err}");
        bad.write_atomic(&manifest_path).unwrap();
        let err = match ShardedSource::open(&dir) {
            Ok(src) => panic!("{name}: opened {} regions", src.num_regions()),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
    }
    clean.write_atomic(&manifest_path).unwrap();
    assert!(
        ShardedSource::open(&dir).is_ok(),
        "the clean manifest still opens"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&outside).ok();
}

/// Exhaustive manifest damage property: *every* truncation length and
/// *every* single-bit flip of an encoded `manifest.bwsm` is rejected by
/// `ShardManifest::decode` as corruption (`is_corrupt`) — never a
/// panic, never a silently-wrong manifest. The checksum trailer covers
/// the whole payload and the trailer itself is part of the comparison,
/// so no bit of the file is unprotected; a truncation fails the checksum
/// over the shortened payload.
#[test]
fn every_manifest_truncation_and_bit_flip_is_rejected() {
    let mut rng = Rng::new(23);
    let (blocks, ..) = random_fixture(&mut rng);
    let dir = write_shards(&blocks, 3, "bitflip");
    let manifest_path = dir.join(bellwether::storage::MANIFEST_NAME);
    let bytes = std::fs::read(&manifest_path).unwrap();

    // Sanity: the pristine bytes decode, and they round-trip.
    let clean = ShardManifest::decode(&bytes).expect("pristine manifest decodes");
    assert_eq!(clean.encode(), bytes);

    // Every truncation length and every single-bit flip: the trailer no
    // longer matches, which is corruption — permanent, never retried.
    bellwether_prop::sweep(&bytes, |bad, damage| {
        let err = match ShardManifest::decode(bad) {
            Ok(_) => panic!("{damage:?} must not decode"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{damage:?} is classified");
        assert!(bellwether::storage::is_corrupt(&err), "{damage:?} is corruption: {err}");
    });

    // The same damage written to disk is rejected at dataset open, for
    // a sample of offsets (full coverage above; open adds file IO).
    for byte in (0..bytes.len()).step_by(13) {
        let mut bad = bytes.clone();
        bad[byte] ^= 0x80;
        std::fs::write(&manifest_path, &bad).unwrap();
        assert!(
            ShardedSource::open(&dir).is_err(),
            "on-disk flip at byte {byte} must not open"
        );
    }
    std::fs::write(&manifest_path, &bytes).unwrap();
    assert!(ShardedSource::open(&dir).is_ok(), "restored manifest opens");
    std::fs::remove_dir_all(&dir).ok();
}
