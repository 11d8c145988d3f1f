//! Naive bellwether cube construction (§6.2): one basic bellwether
//! search per significant subset — each re-scans the entire training
//! data, so IO grows with the number of subsets.

use super::{BellwetherCube, CubeConfig, SubsetCell};
use crate::error::{BellwetherError, Result};
use crate::eval::{record_eval_stats, RegionEvalScratch};
use crate::items::ItemIndex;
use crate::problem::BellwetherConfig;
use crate::scan::{merge_skipped, scan_regions_policy, BestRegion, WithScratch};
use crate::training::block_subset_data;
use crate::tree::block_subset_error_with;
use bellwether_cube::{RegionId, RegionSpace};
use bellwether_linreg::fit_wls;
use bellwether_obs::{names, span};
use bellwether_storage::TrainingSource;
use std::collections::{HashMap, HashSet};

/// Build a bellwether cube naively.
pub fn build_naive_cube(
    source: &dyn TrainingSource,
    region_space: &RegionSpace,
    item_space: &RegionSpace,
    item_coords: &HashMap<i64, Vec<u32>>,
    problem: &BellwetherConfig,
    cube_cfg: &CubeConfig,
) -> Result<BellwetherCube> {
    let _timer = span!(problem.recorder, "cube/naive");
    let index = super::significant_subsets(item_space, item_coords, cube_cfg)?;
    let mut cells = HashMap::new();
    let mut skipped_regions = Vec::new();
    for subset in &index.order {
        let ids = &index.members[subset];
        let (cell, skipped) =
            subset_cell_scanned(source, region_space, item_space, subset, ids, problem)?;
        merge_skipped(&mut skipped_regions, &skipped);
        if let Some(cell) = cell {
            cells.insert(subset.clone(), cell);
        }
    }
    problem.recorder.add(names::CUBE_CELLS, cells.len() as u64);
    Ok(BellwetherCube {
        item_space: item_space.clone(),
        item_coords: item_coords.clone(),
        cells,
        skipped_regions,
    })
}

/// Solve the basic bellwether problem for one subset: scan every region
/// (through the shared [`crate::scan`] engine, honouring
/// `problem.scan_policy`), track the minimum error, then fit the
/// winning model with a targeted read. Shared by the naive algorithm
/// and by all finalisation passes.
pub fn subset_cell(
    source: &dyn TrainingSource,
    region_space: &RegionSpace,
    item_space: &RegionSpace,
    subset: &RegionId,
    ids: &HashSet<i64>,
    problem: &BellwetherConfig,
) -> Result<Option<SubsetCell>> {
    Ok(subset_cell_scanned(source, region_space, item_space, subset, ids, problem)?.0)
}

/// [`subset_cell`] that also reports which region indices the scan
/// skipped as unreadable, so cube builders can account for them.
pub(crate) fn subset_cell_scanned(
    source: &dyn TrainingSource,
    region_space: &RegionSpace,
    item_space: &RegionSpace,
    subset: &RegionId,
    ids: &HashSet<i64>,
    problem: &BellwetherConfig,
) -> Result<(Option<SubsetCell>, Vec<usize>)> {
    let members: ItemIndex = ids.iter().copied().collect();
    let scanned = scan_regions_policy(
        source,
        problem.parallelism,
        problem.scan_policy,
        || WithScratch {
            acc: BestRegion::default(),
            scratch: RegionEvalScratch::new(),
        },
        |ws: &mut WithScratch<BestRegion, RegionEvalScratch>, idx, block| {
            if let Some(err) = block_subset_error_with(block, &members, problem, &mut ws.scratch) {
                ws.acc.observe(idx, err);
            }
            Ok(())
        },
    )?;
    scanned.record_skipped(problem.recorder.as_ref());
    let WithScratch { acc, scratch } = scanned.acc;
    record_eval_stats(problem.recorder.as_ref(), &scratch.eval.stats);
    let cell = finalize_cell(
        source,
        region_space,
        item_space,
        subset,
        ids,
        problem,
        acc.0,
    )?;
    Ok((cell, scanned.skipped))
}

/// Turn a winning `(region index, error value)` into a full cell with a
/// fitted model and complete error estimate (one targeted read).
pub fn finalize_cell(
    source: &dyn TrainingSource,
    region_space: &RegionSpace,
    item_space: &RegionSpace,
    subset: &RegionId,
    ids: &HashSet<i64>,
    problem: &BellwetherConfig,
    best: Option<(usize, f64)>,
) -> Result<Option<SubsetCell>> {
    let Some((region_index, _)) = best else {
        return Ok(None);
    };
    // The region was readable during the scan, but on a faulty source
    // the targeted re-read can still fail — surface it with the region
    // index attached.
    let block = source
        .read_region(region_index)
        .map_err(|source| BellwetherError::RegionRead {
            index: region_index,
            source,
        })?;
    let data = block_subset_data(&block, ids);
    let (Some(error), Some(model)) =
        (problem.error_measure.estimate(&data), fit_wls(&data))
    else {
        return Ok(None);
    };
    let region = RegionId(source.region_coords(region_index).to_vec());
    Ok(Some(SubsetCell {
        label: item_space.label(subset),
        subset: subset.clone(),
        size: ids.len(),
        region_index,
        region_label: region_space.label(&region),
        region,
        error,
        model,
        n_examples: data.n(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::tests_support::cube_fixture;
    use crate::problem::ErrorMeasure;

    fn problem() -> BellwetherConfig {
        BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(4)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap()
    }

    #[test]
    fn per_group_bellwethers_found() {
        let (src, region_space, _items, item_space, coords) = cube_fixture();
        let cube = build_naive_cube(
            &src,
            &region_space,
            &item_space,
            &coords,
            &problem(),
            &CubeConfig {
                min_subset_size: 5,
            },
        )
        .unwrap();
        assert_eq!(cube.cells.len(), 3);
        let ga = cube.cell(&RegionId(vec![1])).unwrap();
        assert_eq!(ga.region_label, "[ra]");
        assert!(ga.error.value < 1e-6);
        let gb = cube.cell(&RegionId(vec![2])).unwrap();
        assert_eq!(gb.region_label, "[rb]");
        assert!(gb.error.value < 1e-6);
        // The union subset exists but its error is much worse.
        let any = cube.root_cell().unwrap();
        assert!(any.error.value > 1.0);
        assert_eq!(any.size, 24);
        assert_eq!(any.label, "[Any]");
    }

    #[test]
    fn threshold_drops_small_subsets() {
        let (src, region_space, _items, item_space, coords) = cube_fixture();
        let cube = build_naive_cube(
            &src,
            &region_space,
            &item_space,
            &coords,
            &problem(),
            &CubeConfig {
                min_subset_size: 13,
            },
        )
        .unwrap();
        assert_eq!(cube.cells.len(), 1);
        assert!(cube.root_cell().is_some());
    }
}
