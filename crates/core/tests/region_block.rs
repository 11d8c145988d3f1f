//! `region_block` against the assembly it replaced, and its two forms
//! against each other.
//!
//! [`region_block_by_rows`] is the former body, kept here as the oracle:
//! collect the region's items, sort them by id, probe the target map and
//! the item table per item, push each example row by row. The lane-copy
//! assembly must produce byte-identical `.bwtd` blocks whether τ is the
//! item-indexed lane (`region_block_lane`) or the map (`region_block`).

use bellwether_core::training::{region_block, region_block_lane, target_lane};
use bellwether_core::items::NumericAttr;
use bellwether_core::{build_cube_input, global_target, ItemTable};
use bellwether_cube::{
    aggregate_filtered, cube_pass, cube_pass_external, CubeInput, CubeResult, Measure,
    NoopRecorder, Parallelism, RegionColumns, RegionId, Row,
};
use bellwether_datagen::{build_stream_workload, generate_retail, RetailConfig, StreamConfig};
use bellwether_storage::format::encode_block_v2;
use bellwether_storage::RegionBlock;
use bellwether_table::ops::AggFunc;
use std::collections::HashMap;
use std::sync::Arc;

fn region_block_by_rows(
    cube: &CubeResult,
    region: &RegionId,
    items: &ItemTable,
    targets: &HashMap<i64, f64>,
) -> RegionBlock {
    let statics = items.numeric_attrs();
    let p = (1 + statics.len() + cube.measure_names.len()) as u32;
    let mut block = RegionBlock::new(region.0.clone(), p);

    let Some(region_items) = cube.regions.get(region) else {
        return block;
    };
    // Deterministic example order: sort by item id.
    let mut entries: Vec<(i64, Row<'_>)> = region_items.iter().collect();
    entries.sort_unstable_by_key(|&(id, _)| id);

    let mut x = Vec::with_capacity(p as usize);
    for (id, regional) in entries {
        let Some(&target) = targets.get(&id) else { continue };
        let Some(row) = items.row_of(id) else { continue };
        x.clear();
        x.push(1.0);
        x.extend(statics.iter().map(|a| a.values[row]));
        x.extend(regional.iter().map(|v| v.unwrap_or(0.0)));
        block.push(id, &x, target);
    }
    block
}

/// A region's columns holding exactly `rows` (one per item, `measures`
/// aggregates each): every item one fact row, folded by MAX, which copies
/// a lone value bit for bit and leaves a NULL one NULL.
fn columns(rows: &[(i64, Vec<Option<f64>>)], measures: usize) -> Arc<RegionColumns> {
    let lane = |m: usize| Measure::Numeric {
        name: format!("m{m}"),
        func: AggFunc::Max,
        values: rows.iter().map(|(_, v)| v[m]).collect(),
    };
    let input = CubeInput {
        item_ids: rows.iter().map(|&(id, _)| id).collect(),
        coords: Vec::new(),
        measures: (0..measures).map(lane).collect(),
    };
    Arc::new(aggregate_filtered(&input, 0, |_| true).unwrap())
}

/// The lane form, the map form and the row oracle over `regions`,
/// compared as encoded bytes; returns the examples seen.
fn assert_same_blocks(
    cube: &CubeResult,
    regions: &[RegionId],
    items: &ItemTable,
    targets: &HashMap<i64, f64>,
    what: &str,
) -> usize {
    let tau = target_lane(items, targets);
    let bytes = |block: &RegionBlock| {
        let mut out = Vec::new();
        encode_block_v2(block, &mut out);
        out
    };
    let mut examples = 0;
    for region in regions {
        let block = region_block_lane(cube, region, items, &tau);
        let got = bytes(&block);
        let map = region_block(cube, region, items, targets);
        assert_eq!(got, bytes(&map), "{what}: map form, {region:?}");
        let rows = region_block_by_rows(cube, region, items, targets);
        assert_eq!(got, bytes(&rows), "{what}: {region:?}");
        examples += block.n();
    }
    examples
}

#[test]
fn stream_workload_blocks_are_byte_equal() {
    // `train_spill` at `--quick` size, sliced and spilled as it is there.
    let weeks = 30;
    let wl = build_stream_workload(&StreamConfig {
        n_items: 150,
        weeks,
        leaves: 12,
        item_hierarchy_leaves: 3,
        n_numeric_attrs: 2,
        bellwether_noise: 0.05,
        late_noise: 0.0005,
        open_week: weeks / 10,
        seed: 3,
    });
    let inputs: Vec<CubeInput> = (0..10).map(|s| wl.input_range(s * 3, (s + 1) * 3)).collect();
    let cube = cube_pass_external(&wl.region_space, &inputs, Parallelism::fixed(1), 1 << 19, &NoopRecorder)
        .unwrap();
    let examples = assert_same_blocks(&cube, &wl.regions, &wl.items, &wl.target_map(), "stream");
    assert!(examples > 10_000, "{examples} examples");
    // A region outside the result is the same empty block either way.
    let outside = [RegionId(vec![weeks + 5, 0])];
    assert_eq!(assert_same_blocks(&cube, &outside, &wl.items, &wl.target_map(), "outside"), 0);
}

#[test]
fn retail_workload_blocks_are_byte_equal() {
    let mut cfg = RetailConfig::mail_order_heterogeneous(60, 5);
    cfg.months = 12;
    let data = generate_retail(&cfg);
    let targets = global_target(&data.db, "profit", AggFunc::Sum).unwrap();
    let input = build_cube_input(&data.db, &data.space, &data.feature_queries).unwrap();
    let cube = cube_pass(&data.space, &input, Parallelism::default(), &NoopRecorder).unwrap();
    let examples =
        assert_same_blocks(&cube, &data.space.all_regions(), &data.items, &targets, "retail");
    assert!(examples > 1_000, "{examples} examples");
}

#[test]
fn corner_cases_are_byte_equal() {
    // Item table rows in no id order; item 40 is not in it.
    let items = ItemTable::from_parts(
        vec![30, -7, 1 << 40, 10, 20],
        vec![NumericAttr {
            name: "rd".into(),
            values: vec![3.5, -0.0, 9.0, 1.5, 2.5],
        }],
        vec![],
    )
    .unwrap();
    // Item 20 has no target; item 50 has one and no data.
    let targets: HashMap<i64, f64> =
        [(30, 300.0), (-7, -0.0), (1 << 40, 1e300), (10, 100.0), (40, 400.0), (50, 500.0)].into();
    let region = |rows: &[(i64, [Option<f64>; 2])]| {
        columns(&rows.iter().map(|&(id, v)| (id, v.to_vec())).collect::<Vec<_>>(), 2)
    };
    let cube = CubeResult {
        measure_names: vec!["a".into(), "b".into()],
        regions: [
            (
                RegionId(vec![0, 0]),
                region(&[
                    (10, [Some(1.0), None]),
                    (20, [Some(2.0), Some(2.5)]),
                    (30, [Some(-0.0), Some(f64::NAN)]),
                    (40, [Some(4.0), Some(4.5)]),
                    (-7, [None, None]),
                    (1 << 40, [Some(f64::MIN_POSITIVE), Some(-1e-300)]),
                ]),
            ),
            // Nobody here is both known and targeted.
            (RegionId(vec![0, 1]), region(&[(20, [Some(1.0), Some(1.0)]), (40, [None, Some(2.0)])])),
            (RegionId(vec![0, 2]), region(&[])),
        ]
        .into(),
    };
    let regions: Vec<RegionId> = (0..4).map(|n| RegionId(vec![0, n])).collect();
    assert_eq!(assert_same_blocks(&cube, &regions, &items, &targets, "corners"), 4);

    let block = region_block(&cube, &regions[0], &items, &targets);
    assert_eq!(block.item_ids, [-7, 10, 30, 1 << 40], "ascending by id, not by table row");
    let bits = |lane: &[f64]| lane.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(block.col(1)), bits(&[-0.0, 1.5, 3.5, 9.0]), "statics by table row");
    assert_eq!(bits(block.col(2)), bits(&[0.0, 1.0, -0.0, f64::MIN_POSITIVE]), "NULL is +0.0");
    assert_eq!(bits(block.col(3)), bits(&[0.0, 0.0, f64::NAN, -1e-300]));
    assert_eq!(bits(&block.targets), bits(&[-0.0, 100.0, 300.0, 1e300]));
}

/// Random cubes over a random item pool: items the table lacks and items
/// it holds that no region names, items without τ, NULL aggregates,
/// `-0.0` and NaN values and targets, empty regions and regions outside
/// the result.
#[test]
fn lane_and_map_forms_agree_on_random_cubes() {
    bellwether_prop::check("region_block lane = map", 64, |rng| {
        let pool: Vec<i64> = (0..rng.i64_in(1, 40)).map(|i| 3 * i - 20).collect();
        let special = [0.0, -0.0, f64::NAN, f64::from_bits(0x7ff8_0000_0000_beef), 1e300];
        let value = |rng: &mut bellwether_prop::Rng| {
            if rng.flip(0.2) {
                *rng.choice(&special)
            } else {
                rng.f64_in(-100.0, 100.0)
            }
        };
        let mut table_ids = vec![1000, -1000];
        let mut targets = HashMap::from([(1000, value(rng))]);
        for &id in &pool {
            if !rng.flip(0.2) {
                table_ids.push(id);
            }
            if !rng.flip(0.2) {
                targets.insert(id, value(rng));
            }
        }
        rng.shuffle(&mut table_ids);
        let attrs = (0..rng.usize_in(0, 3))
            .map(|a| NumericAttr {
                name: format!("s{a}"),
                values: table_ids.iter().map(|_| value(rng)).collect(),
            })
            .collect();
        let items = ItemTable::from_parts(table_ids, attrs, vec![]).unwrap();
        let measures = rng.usize_in(0, 4);
        let n_regions = rng.u32_in(1, 6);
        let mut regions = HashMap::new();
        for r in 0..n_regions {
            let mut rows = Vec::new();
            for &id in pool.iter().filter(|_| rng.flip(0.6)).collect::<Vec<_>>() {
                rows.push((id, (0..measures).map(|_| (!rng.flip(0.2)).then(|| value(rng))).collect()));
            }
            rng.shuffle(&mut rows);
            regions.insert(RegionId(vec![r, 0]), columns(&rows, measures));
        }
        let cube = CubeResult {
            measure_names: (0..measures).map(|m| format!("m{m}")).collect(),
            regions,
        };
        let asked: Vec<RegionId> = (0..=n_regions).map(|r| RegionId(vec![r, 0])).collect();
        assert_same_blocks(&cube, &asked, &items, &targets, "random");
    });
}
