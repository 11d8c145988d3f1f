//! Fault-tolerance properties, spanning storage and the scan engine:
//!
//! * deterministic injected transients, absorbed by `RetryingSource`,
//!   leave every builder's output bit-identical to a clean sequential
//!   run at every tested thread count;
//! * any single-byte flip of a checksummed (v2) block is detected and
//!   classified as corruption;
//! * on-disk corruption surfaces from a `Strict` scan as a structured
//!   `RegionRead` error naming the failing region — never a panic or
//!   abort — at every thread count;
//! * `SkipUnreadable` turns the same corruption into an exact degraded
//!   -result account (`skipped_regions` + the `scan/regions_skipped`
//!   counter);
//! * injected-fault and retry counters reach a bound `Registry`
//!   snapshot, including its JSON rendering.

use bellwether::prelude::*;
use bellwether_prop::{check, Rng};
use bellwether_storage::format::{decode_block_v2, encode_block_v2, HEADER_LEN};
use std::collections::HashMap;
use std::time::Duration;

/// A retry policy that absorbs `depth` transient failures per region
/// without sleeping (deterministic and fast under test).
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

/// Canonical rendering of a tree (categorical criteria hold HashMaps).
fn canon_tree(tree: &BellwetherTree) -> Vec<String> {
    tree.nodes
        .iter()
        .map(|n| {
            let split = n.split.as_ref().map(|(c, children)| match c {
                SplitCriterion::Categorical { attr, code_children } => {
                    let mut pairs: Vec<_> =
                        code_children.iter().map(|(k, v)| (*k, *v)).collect();
                    pairs.sort_unstable();
                    format!("cat attr={attr} {pairs:?} -> {children:?}")
                }
                SplitCriterion::Numeric { attr, threshold } => {
                    format!("num attr={attr} t={threshold:?} -> {children:?}")
                }
            });
            format!(
                "d{} rows{:?} info{:?} split{:?} skipped{:?}",
                n.depth, n.item_rows, n.info, split, tree.skipped_regions
            )
        })
        .collect()
}

/// Canonical rendering of a cube (cell HashMap order is arbitrary).
fn canon_cube(cube: &BellwetherCube) -> Vec<(RegionId, String)> {
    let mut v: Vec<_> = cube
        .cells
        .iter()
        .map(|(k, c)| (k.clone(), format!("{c:?} skipped{:?}", cube.skipped_regions)))
        .collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Every injected transient IO failure, absorbed by a `RetryingSource`,
/// must leave search, tree and cube results bit-identical to a clean
/// sequential run — for threads ∈ {1, 2, 4}. The acceptance property of
/// the fault-tolerance layer: retries are invisible to computation.
#[test]
fn retried_transients_are_bit_identical_to_clean_runs() {
    check("retried_transients_are_bit_identical", 4, |rng| {
        let (blocks, region_space, items, item_space, item_coords, n_items) =
            random_fixture(rng);
        let fault_seed = rng.next_u64();

        let config_for = |par: Parallelism| {
            BellwetherConfig::builder(1e9)
                .min_coverage(0.0)
                .min_examples(3)
                .error_measure(ErrorMeasure::TrainingSet)
                .parallelism(par)
                .build()
                .unwrap()
        };
        let cost = UniformCellCost { rate: 1.0 };
        let tree_cfg = TreeConfig {
            min_node_items: 4,
            ..TreeConfig::default()
        };
        let cube_cfg = CubeConfig { min_subset_size: 3 };

        let run_all = |source: &dyn TrainingSource, cfg: &BellwetherConfig| -> Vec<String> {
            let search = basic_search(source, &region_space, &cost, cfg, n_items).unwrap();
            let rf =
                build_rainforest(source, &region_space, &items, None, cfg, &tree_cfg).unwrap();
            let cube = build_optimized_cube(
                source,
                &region_space,
                &item_space,
                &item_coords,
                cfg,
                &cube_cfg,
            )
            .unwrap();
            vec![
                format!("{search:?}"),
                format!("{:?}", canon_tree(&rf)),
                format!("{:?}", canon_cube(&cube)),
            ]
        };

        let baseline = run_all(
            &MemorySource::new(blocks.clone()),
            &config_for(Parallelism::sequential()),
        );

        for threads in [1usize, 2, 4] {
            // Every region fails twice before succeeding; the policy
            // allows four attempts, so the retries absorb all of it.
            let plan = FaultPlan::new(fault_seed).transient_every(1, 2);
            let faulty = FaultySource::new(MemorySource::new(blocks.clone()), plan);
            let retrying = RetryingSource::new(faulty, absorbing_policy());
            let cfg = config_for(Parallelism::fixed(threads).with_min_chunk(1));
            assert_eq!(
                run_all(&retrying, &cfg),
                baseline,
                "threads={threads}: injected transients changed a result"
            );
            let snap = retrying.snapshot();
            assert!(
                snap.retries() >= 2 * 8,
                "every region should have needed retries, saw {}",
                snap.retries()
            );
            assert!(snap.faults_injected() >= 2 * 8);
        }
    });
}

/// Flipping any single bit anywhere in a checksummed (v2) block — the
/// payload or the trailer itself — must surface as a classified
/// corruption error, for arbitrary block contents.
#[test]
fn any_single_bit_flip_in_a_v2_block_is_detected() {
    check("any_single_bit_flip_is_detected", 128, |rng| {
        let p = rng.usize_in(1, 4);
        let mut block = RegionBlock::new(vec![rng.u32_in(0, 6)], p as u32);
        for id in 0..rng.i64_in(0, 20) {
            let x: Vec<f64> = (0..p).map(|_| rng.f64_in(-100.0, 100.0)).collect();
            block.push(id, &x, rng.f64_in(-100.0, 100.0));
        }
        let mut buf = Vec::new();
        encode_block_v2(&block, &mut buf);
        assert!(decode_block_v2(&buf).is_ok());

        let pos = rng.below(buf.len());
        let bit = 1u8 << rng.below(8);
        buf[pos] ^= bit;
        let err = decode_block_v2(&buf).expect_err("flip must not decode");
        assert!(
            is_corrupt(&err),
            "flip at byte {pos} gave an unclassified error: {err}"
        );
    });
}

/// Write a real training file, then flip one byte inside region 0's
/// block on disk. Strict scans must surface the corruption as
/// `BellwetherError::RegionRead {{ index: 0, .. }}` with a classified
/// corrupt-block source — identically at threads 1, 2 and 4, and never
/// as a panic.
#[test]
fn on_disk_corruption_names_the_failing_region_under_strict_scans() {
    let dir = std::env::temp_dir().join("bw_fault_tolerance_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("strict.bwtd");

    let region_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
        "L",
        "All",
        &["ra", "rb", "rc"],
    ))]);
    let mut writer = bellwether_storage::TrainingWriter::create(&path, 2, 1).unwrap();
    for region in 0u32..4 {
        let mut block = RegionBlock::new(vec![region], 2);
        for id in 0..12i64 {
            block.push(id, &[1.0, (id * (region as i64 + 1)) as f64], id as f64);
        }
        writer.write_region(&block).unwrap();
    }
    writer.finish().unwrap();

    // Flip one byte inside the first block's payload (blocks start
    // right after the header).
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[HEADER_LEN + 8] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let cost = UniformCellCost { rate: 1.0 };
    for threads in [1usize, 2, 4] {
        let source = DiskSource::open(&path).unwrap();
        let config = BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(3)
            .error_measure(ErrorMeasure::TrainingSet)
            .parallelism(Parallelism::fixed(threads).with_min_chunk(1))
            .build()
            .unwrap();
        let err = basic_search(&source, &region_space, &cost, &config, 12)
            .expect_err("corrupt region must fail a strict scan");
        match err {
            BellwetherError::RegionRead { index, source } => {
                assert_eq!(index, 0, "threads={threads}: wrong failing region");
                assert!(
                    is_corrupt(&source),
                    "threads={threads}: unclassified source error: {source}"
                );
            }
            other => panic!("threads={threads}: expected RegionRead, got {other}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The same corrupt file under `SkipUnreadable`: the search completes,
/// names exactly the dropped region, and the skip reaches the bound
/// registry's counter and JSON snapshot — alongside the storage-layer
/// corrupt-block and retry counters.
#[test]
fn skip_policy_accounts_for_corruption_and_counters_reach_the_registry() {
    let dir = std::env::temp_dir().join("bw_fault_tolerance_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("skip.bwtd");

    let region_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
        "L",
        "All",
        &["ra", "rb", "rc"],
    ))]);
    let mut writer = bellwether_storage::TrainingWriter::create(&path, 2, 1).unwrap();
    for region in 0u32..4 {
        let mut block = RegionBlock::new(vec![region], 2);
        for id in 0..12i64 {
            block.push(id, &[1.0, (id * (region as i64 + 1)) as f64], id as f64);
        }
        writer.write_region(&block).unwrap();
    }
    writer.finish().unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[HEADER_LEN + 8] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let reg = Registry::shared();
    // Layer the full stack: disk → fault injection (transients only) →
    // retries, all bound to one registry.
    let disk = DiskSource::open_with_registry(&path, &reg).unwrap();
    let plan = FaultPlan::new(7).transient_every(1, 1);
    let faulty = FaultySource::with_registry(disk, plan, &reg);
    let retrying = RetryingSource::with_registry(faulty, absorbing_policy(), &reg);

    let config = BellwetherConfig::builder(1e9)
        .min_coverage(0.0)
        .min_examples(3)
        .error_measure(ErrorMeasure::TrainingSet)
        .scan_policy(ScanPolicy::SkipUnreadable { max_skipped: 1 })
        .recorder(reg.clone())
        .build()
        .unwrap();
    let cost = UniformCellCost { rate: 1.0 };
    let result = basic_search(&retrying, &region_space, &cost, &config, 12).unwrap();
    assert_eq!(result.skipped_regions, vec![0], "exactly region 0 was dropped");
    assert!(!result.reports.is_empty(), "healthy regions still evaluated");

    let snap = reg.snapshot();
    assert_eq!(snap.regions_skipped(), 1);
    assert_eq!(snap.corrupt_blocks(), 1);
    assert!(snap.retries() >= 4, "transients on every region get retried");
    assert!(snap.faults_injected() >= 4);
    let json = snap.to_json();
    for key in [
        "scan/regions_skipped",
        "storage/corrupt_blocks",
        "storage/retries",
        "storage/faults_injected",
    ] {
        assert!(json.contains(key), "snapshot JSON lacks {key}: {json}");
    }
    std::fs::remove_file(&path).ok();
}
