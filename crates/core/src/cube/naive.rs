//! Naive bellwether cube construction (§6.2): one basic bellwether
//! search per significant subset — each re-scans the entire training
//! data, so IO grows with the number of subsets.

use super::{finalize_cells, BellwetherCube, CubeConfig};
use crate::error::Result;
use crate::items::ItemIndex;
use crate::problem::BellwetherConfig;
use crate::scan::merge_skipped;
use crate::tree::best_region;
use bellwether_cube::RegionSpace;
use bellwether_obs::{names, span};
use bellwether_storage::TrainingSource;
use std::collections::HashMap;

/// Build a bellwether cube naively: per subset, the basic bellwether
/// scan over every region (`tree::best_region`); then fit the winning models
/// with targeted reads.
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
    let mut winners = Vec::with_capacity(index.order.len());
    let mut skipped_regions = Vec::new();
    for subset in &index.order {
        let members: ItemIndex = index.members[subset].iter().copied().collect();
        let scanned = best_region(source, &members, problem)?;
        merge_skipped(&mut skipped_regions, &scanned.skipped);
        winners.push(scanned.acc.0.map(|(region_index, _)| region_index));
    }
    let cells = finalize_cells(source, region_space, item_space, &index, problem, &winners, |_, rows| {
        rows.estimate(problem)
    })?;
    problem.recorder.add(names::CUBE_CELLS, cells.len() as u64);
    Ok(BellwetherCube {
        item_space: item_space.clone(),
        item_coords: item_coords.clone(),
        cells,
        skipped_regions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::tests_support::cube_fixture;
    use crate::problem::ErrorMeasure;
    use bellwether_cube::RegionId;

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
