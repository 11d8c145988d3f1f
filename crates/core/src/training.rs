//! Construction of the *entire training data* (§4.2, §5.2): the training
//! sets of all feasible regions, materialised once via the CUBE pass and
//! stored behind a [`bellwether_storage::TrainingSource`].
//!
//! Each example's feature vector is laid out as
//! `[1 (intercept), item-table numeric features…, regional features…]`,
//! so every region's training set shares one design-matrix shape and the
//! scan algorithms can mix blocks freely. NULL regional aggregates
//! become 0 — an item with no sales in a region genuinely had zero
//! profit/orders there — a policy documented here once and applied
//! uniformly.

use crate::items::{ItemTable, NO_ITEM};
use bellwether_cube::{CubeResult, Parallelism, RegionColumns, RegionId};
use bellwether_storage::{MemorySource, RegionBlock};
use bellwether_table::ColumnData;
use std::collections::HashMap;

/// τ as a lane over `items`' rows: slot `row` holds the target of
/// `items.ids()[row]`, NULL where τ has none. Resolve it once, then hand
/// it to [`region_block_lane`] for every region.
pub fn target_lane(items: &ItemTable, targets: &HashMap<i64, f64>) -> ColumnData<f64> {
    items.ids().iter().map(|id| targets.get(id).copied()).collect()
}

/// Assemble one region's training block from the cube result, with τ as
/// [`target_lane`]'s lane over `items` (panics if it has another length).
///
/// Items included are those with data in the region, in the item table
/// *and* with a target (the paper's `I_r`, intersected with τ's domain),
/// ascending by id as the region's id lane is; every feature lane and τ
/// are one gather over them.
pub fn region_block_lane(
    cube: &CubeResult,
    region: &RegionId,
    items: &ItemTable,
    tau: &ColumnData<f64>,
) -> RegionBlock {
    assert_eq!(tau.values.len(), items.len(), "τ's lane is over the item table's rows");
    let (cols, n_measures) = (cube.regions.get(region).map(|c| &**c), cube.measure_names.len());
    columns_block(region.0.clone(), cols, n_measures, items, |row, _| tau.get(row as usize))
}

/// [`region_block_lane`] with τ as a map, probed once per (region, item).
/// For a caller that holds only the map; any other resolves
/// [`target_lane`] once.
pub fn region_block(
    cube: &CubeResult,
    region: &RegionId,
    items: &ItemTable,
    targets: &HashMap<i64, f64>,
) -> RegionBlock {
    let (cols, n_measures) = (cube.regions.get(region).map(|c| &**c), cube.measure_names.len());
    columns_block(region.0.clone(), cols, n_measures, items, |_, id| targets.get(&id).copied())
}

/// The one assembly of training rows from a region's columns (`None`: no
/// item has data there): `[1, statics…, measures…]` over the items of the
/// id lane that `items` holds and `tau` gives a target, looked up by item
/// table row and id. A NULL aggregate reads as its lane's `+0.0`.
pub(crate) fn columns_block(
    coords: Vec<u32>,
    cols: Option<&RegionColumns>,
    n_measures: usize,
    items: &ItemTable,
    tau: impl Fn(u32, i64) -> Option<f64>,
) -> RegionBlock {
    let statics = items.numeric_attrs();
    let p = (1 + statics.len() + n_measures) as u32;
    let Some(cols) = cols else {
        return RegionBlock::new(coords, p);
    };
    let ids = cols.item_ids();
    let mut rows = Vec::new();
    items.index().resolve_into(ids, &mut rows);
    // The examples: where in the id lane, and the target.
    let kept: Vec<(usize, f64)> = (0..ids.len())
        .filter_map(|at| match rows[at] {
            NO_ITEM => None,
            row => Some((at, tau(row, ids[at])?)),
        })
        .collect();
    if kept.is_empty() {
        return RegionBlock::new(coords, p);
    }
    fn gather(kept: &[(usize, f64)], lane: impl Fn(usize) -> f64) -> Vec<f64> {
        kept.iter().map(|&(at, _)| lane(at)).collect()
    }
    let mut lanes = Vec::with_capacity(p as usize);
    lanes.push(vec![1.0; kept.len()]);
    lanes.extend(statics.iter().map(|a| gather(&kept, |at| a.values[rows[at] as usize])));
    lanes.extend((0..n_measures).map(|m| {
        let lane = cols.values(m);
        gather(&kept, |at| lane[at])
    }));
    let item_ids = kept.iter().map(|&(at, _)| ids[at]).collect();
    let ys = kept.iter().map(|&(_, y)| y).collect();
    RegionBlock::from_columns(coords, p, item_ids, lanes, ys)
}

/// Build an in-memory entire-training-data source over `regions` from
/// one CUBE result: [`crate::task::Memory`]'s assembly on the default
/// [`Parallelism`]. Callers that start from a star database use
/// [`crate::task::TrainingTask::materialize`].
pub fn build_memory_source(
    cube: &CubeResult,
    regions: &[RegionId],
    items: &ItemTable,
    targets: &HashMap<i64, f64>,
) -> MemorySource {
    let tau = target_lane(items, targets);
    crate::task::memory_source(cube, regions, items, &tau, Parallelism::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::ItemIndex;
    use bellwether_cube::{
        cube_pass, CubeInput, Dimension, Hierarchy, Measure, NoopRecorder, RegionSpace,
    };
    use bellwether_storage::{DiskSource, TrainingSource, TrainingWriter};
    use bellwether_table::ops::AggFunc;
    use bellwether_table::{Column, DataType, Schema, Table};

    fn items() -> ItemTable {
        let t = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("rd", DataType::Float)]).unwrap(),
            vec![
                Column::from_ints(vec![1, 2, 3]),
                Column::from_floats(vec![0.5, 1.5, 2.5]),
            ],
        )
        .unwrap();
        ItemTable::from_table(&t, "id", &["rd"], &[]).unwrap()
    }

    fn space() -> RegionSpace {
        RegionSpace::new(vec![
            Dimension::Interval {
                name: "T".into(),
                max_t: 2,
            },
            Dimension::Hierarchy(Hierarchy::flat("L", "All", &["a", "b"])),
        ])
    }

    fn cube() -> CubeResult {
        // items 1 and 2 have rows; item 3 has none.
        let input = CubeInput {
            item_ids: vec![1, 1, 2],
            coords: vec![0, 1, 1, 1, 0, 2],
            measures: vec![Measure::Numeric {
                name: "profit".into(),
                func: AggFunc::Sum,
                values: [Some(4.0), Some(6.0), Some(8.0)].into_iter().collect(),
            }],
        };
        cube_pass(&space(), &input, Parallelism::default(), &NoopRecorder).unwrap()
    }

    fn targets() -> HashMap<i64, f64> {
        [(1, 100.0), (2, 200.0)].into_iter().collect()
    }

    #[test]
    fn block_layout_and_membership() {
        let c = cube();
        let it = items();
        let t = target_lane(&it, &targets());
        // [1-2, All] (coords [1, 0]) covers both items.
        let b = region_block_lane(&c, &RegionId(vec![1, 0]), &it, &t);
        assert_eq!(b.p, 3); // intercept + rd + profit
        assert_eq!(b.n(), 2);
        assert_eq!(b.item_ids, vec![1, 2]); // sorted
        assert_eq!(b.row(0), &[1.0, 0.5, 10.0]); // item 1: profit 4+6
        assert_eq!(b.row(1), &[1.0, 1.5, 8.0]);
        assert_eq!(b.y(1), 200.0);
        // [1-1, a] covers only item 1.
        let b = region_block_lane(&c, &RegionId(vec![0, 1]), &it, &t);
        assert_eq!(b.n(), 1);
        assert_eq!(b.row(0), &[1.0, 0.5, 4.0]);
    }

    #[test]
    fn items_without_targets_are_skipped() {
        let c = cube();
        let it = items();
        let mut t = targets();
        t.remove(&2);
        let b = region_block_lane(&c, &RegionId(vec![1, 0]), &it, &target_lane(&it, &t));
        assert_eq!(b.item_ids, vec![1]);
    }

    #[test]
    fn memory_source_preserves_region_order() {
        let c = cube();
        let regions = vec![RegionId(vec![0, 1]), RegionId(vec![1, 0])];
        let src = build_memory_source(&c, &regions, &items(), &targets());
        assert_eq!(src.num_regions(), 2);
        assert_eq!(src.region_coords(0), &[0, 1]);
        assert_eq!(src.region_coords(1), &[1, 0]);
    }

    #[test]
    fn disk_round_trip_matches_memory() {
        let c = cube();
        let regions = vec![RegionId(vec![0, 1]), RegionId(vec![1, 0])];
        let it = items();
        let t = targets();
        let mem = build_memory_source(&c, &regions, &it, &t);
        let path = std::env::temp_dir().join("bw_training_rt.bwtd");
        let arity = space().arity() as u32;
        let mut writer = TrainingWriter::create(&path, mem.feature_arity() as u32, arity).unwrap();
        for block in mem.blocks() {
            writer.write_region(block).unwrap();
        }
        writer.finish().unwrap();
        let disk = DiskSource::open(&path).unwrap();
        for i in 0..2 {
            assert_eq!(disk.read_region(i).unwrap(), mem.read_region(i).unwrap());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn subset_filtering() {
        let c = cube();
        let it = items();
        let b = region_block_lane(&c, &RegionId(vec![1, 0]), &it, &target_lane(&it, &targets()));
        let mut rows = crate::eval::RegionEvalScratch::new();
        rows.gather(&b, Some(&ItemIndex::new(&[2])));
        assert_eq!(rows.data.n(), 1);
        assert_eq!(rows.data.y(0), 200.0);
        rows.gather(&b, None);
        assert_eq!(rows.data.n(), 2);
    }
}
