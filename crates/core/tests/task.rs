//! The cold-path entry ([`TrainingTask::materialize`]) held to the chain
//! its callers composed by hand: τ → CUBE input → `cube_pass` →
//! `build_memory_source`, or → a `ShardedWriter` loop over
//! `region_block_lane`. Blocks compare by their encoded bytes, layouts
//! by their shard files' bytes.

use bellwether_core::training::{region_block_lane, target_lane};
use bellwether_core::{
    build_cube_input, build_memory_source, global_target, Layout, Memory, Parallelism, Recorder,
    Registry,
};
use bellwether_cube::{cube_pass, CostModel, NoopRecorder, RegionId};
use bellwether_datagen::{generate_retail, RetailConfig, RetailDataset};
use bellwether_storage::format::encode_block_v2;
use bellwether_storage::{even_shard_plan, MemorySource, ShardManifest, ShardedWriter};
use bellwether_table::ops::AggFunc;
use std::path::{Path, PathBuf};

fn dataset() -> RetailDataset {
    let mut cfg = RetailConfig::mail_order(60, 9);
    cfg.months = 4;
    cfg.converge_month = 3;
    cfg.states = Some(vec!["MD", "WI", "CA", "NY"]);
    generate_retail(&cfg)
}

/// Every region, and the ones within a budget that leaves some out.
fn region_lists(data: &RetailDataset) -> [Vec<RegionId>; 2] {
    let task = data.task();
    [task.regions_within(f64::INFINITY), task.regions_within(10.0)]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bw_task_test_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn encoded(source: &MemorySource) -> Vec<Vec<u8>> {
    let encode = |block| {
        let mut out = Vec::new();
        encode_block_v2(block, &mut out);
        out
    };
    source.blocks().iter().map(|b| encode(b)).collect()
}

/// The hand chain into memory.
fn by_hand(
    data: &RetailDataset,
    regions: &[RegionId],
    par: Parallelism,
    rec: &dyn Recorder,
) -> MemorySource {
    let targets = global_target(&data.db, "profit", AggFunc::Sum).unwrap();
    let input = build_cube_input(&data.db, &data.space, &data.feature_queries).unwrap();
    let cube = cube_pass(&data.space, &input, par, rec).unwrap();
    build_memory_source(&cube, regions, &data.items, &targets)
}

/// The hand chain into a sharded layout: `StreamingBellwether::create`'s
/// former loop.
fn layout_by_hand(
    data: &RetailDataset,
    regions: &[RegionId],
    par: Parallelism,
    dir: &Path,
    shards: usize,
) -> ShardManifest {
    let targets = global_target(&data.db, "profit", AggFunc::Sum).unwrap();
    let input = build_cube_input(&data.db, &data.space, &data.feature_queries).unwrap();
    let cube = cube_pass(&data.space, &input, par, &NoopRecorder).unwrap();
    let p = (1 + data.items.numeric_attrs().len() + cube.measure_names.len()) as u32;
    let plan = even_shard_plan(regions.len(), shards);
    let mut writer = ShardedWriter::create(dir, p, data.space.arity() as u32, plan).unwrap();
    let tau = target_lane(&data.items, &targets);
    for region in regions {
        writer.write_region(&region_block_lane(&cube, region, &data.items, &tau)).unwrap();
    }
    writer.finish().unwrap()
}

/// A layout's `p`, arity and examples, and each shard's regions, examples
/// and bytes: all but the write id (and the file names that carry it),
/// which is fresh per write.
type LayoutBytes = (u32, u32, u64, Vec<(u64, u64, Vec<u8>)>);

fn layout_bytes(dir: &Path, manifest: &ShardManifest) -> LayoutBytes {
    let shards = manifest.shards.iter();
    let shards = shards.map(|s| (s.regions, s.examples, std::fs::read(dir.join(&s.file)).unwrap()));
    (manifest.p, manifest.arity, manifest.examples, shards.collect())
}

#[test]
fn regions_within_is_the_budget_filter_in_scan_order() {
    let data = dataset();
    let [all, affordable] = region_lists(&data);
    assert_eq!(all, data.space.all_regions());
    let by_hand: Vec<RegionId> = all
        .iter()
        .filter(|r| data.cost.cost(&data.space, r) <= 10.0)
        .cloned()
        .collect();
    assert_eq!(affordable, by_hand);
    assert!(!affordable.is_empty() && affordable.len() < all.len());
}

#[test]
fn the_memory_sink_matches_the_hand_chain_byte_for_byte() {
    let data = dataset();
    for regions in region_lists(&data) {
        for threads in [1, 2] {
            let par = Parallelism::fixed(threads);
            let got = data.task().materialize(&regions, Memory, par, &NoopRecorder).unwrap();
            let want = by_hand(&data, &regions, par, &NoopRecorder);
            assert_eq!(got.blocks().len(), regions.len());
            let ctx = format!("{threads} thread(s), {} regions", regions.len());
            assert_eq!(encoded(&got), encoded(&want), "{ctx}");
        }
    }
}

#[test]
fn the_layout_sink_matches_the_sharded_writer_loop_byte_for_byte() {
    let data = dataset();
    for (r, regions) in region_lists(&data).iter().enumerate() {
        for threads in [1, 2] {
            for shards in [1, 3] {
                let ctx = format!("regions {r}, {threads} thread(s), {shards} shard(s)");
                let par = Parallelism::fixed(threads);
                let (got_dir, want_dir) = (tmp_dir("entry"), tmp_dir("hand"));
                let layout = Layout { dir: &got_dir, shards };
                let got = data.task().materialize(regions, layout, par, &NoopRecorder).unwrap();
                let want = layout_by_hand(&data, regions, par, &want_dir, shards);
                assert_eq!(got.shards.len(), shards, "{ctx}");
                assert_eq!(layout_bytes(&got_dir, &got), layout_bytes(&want_dir, &want), "{ctx}");
            }
        }
    }
    std::fs::remove_dir_all(tmp_dir("entry")).ok();
    std::fs::remove_dir_all(tmp_dir("hand")).ok();
}

#[test]
fn the_entry_records_what_the_hand_chain_records() {
    let data = dataset();
    let regions = data.task().regions_within(f64::INFINITY);
    let par = Parallelism::fixed(2);
    let (entry, hand) = (Registry::shared(), Registry::shared());
    data.task().materialize(&regions, Memory, par, entry.as_ref()).unwrap();
    by_hand(&data, &regions, par, hand.as_ref());
    let (entry, hand) = (entry.snapshot(), hand.snapshot());
    assert!(entry.counter("cube_pass/rows_scanned").unwrap() > 0);
    assert!(entry.counters.iter().all(|(name, _)| name.starts_with("cube_pass/")));
    assert_eq!(entry.counters, hand.counters);
    let calls = |s: &bellwether_core::MetricsSnapshot| {
        s.spans.iter().map(|span| (span.path.clone(), span.calls)).collect::<Vec<_>>()
    };
    assert_eq!(calls(&entry), calls(&hand));
}

#[test]
fn a_recorder_moves_no_bit() {
    let data = dataset();
    let [_, regions] = region_lists(&data);
    let par = Parallelism::fixed(2);
    let registry = Registry::shared();
    let on = data.task().materialize(&regions, Memory, par, registry.as_ref()).unwrap();
    let off = data.task().materialize(&regions, Memory, par, &NoopRecorder).unwrap();
    assert_eq!(encoded(&on), encoded(&off));

    let (on_dir, off_dir) = (tmp_dir("rec_on"), tmp_dir("rec_off"));
    let layout = |dir| Layout { dir, shards: 3 };
    let on = data.task().materialize(&regions, layout(&on_dir), par, registry.as_ref());
    let off = data.task().materialize(&regions, layout(&off_dir), par, &NoopRecorder);
    assert_eq!(layout_bytes(&on_dir, &on.unwrap()), layout_bytes(&off_dir, &off.unwrap()));
    std::fs::remove_dir_all(on_dir).ok();
    std::fs::remove_dir_all(off_dir).ok();
}
