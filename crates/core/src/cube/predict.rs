//! Item-centric prediction with a bellwether cube (§6.2).
//!
//! A new item belongs to one cube subset per lattice level — all the
//! ancestor combinations of its leaf coordinates. Each such subset's
//! bellwether model is a candidate; the paper picks the one with the
//! **lowest upper confidence bound** of its error (at a user-specified
//! confidence P), trading error against stability.

use super::{BellwetherCube, SubsetCell};

/// All cube subsets containing an item with the given leaf coordinates,
/// restricted to subsets that actually have cells.
pub fn candidate_cells<'c>(
    cube: &'c BellwetherCube,
    leaf_coords: &[u32],
) -> Vec<&'c SubsetCell> {
    cube.item_space
        .containing_regions(leaf_coords)
        .into_iter()
        .filter_map(|s| cube.cells.get(&s))
        .collect()
}

/// Pick the predicting cell for an item: minimum upper confidence bound,
/// ties broken by subset id for determinism. `None` when no ancestor
/// subset has a cell.
pub fn select_cell<'c>(
    cube: &'c BellwetherCube,
    leaf_coords: &[u32],
    confidence: f64,
) -> Option<&'c SubsetCell> {
    candidate_cells(cube, leaf_coords)
        .into_iter()
        .min_by(|a, b| {
            a.error
                .upper_bound(confidence)
                .total_cmp(&b.error.upper_bound(confidence))
                .then_with(|| a.subset.cmp(&b.subset))
        })
}

/// Select the predicting cell for a known item id.
pub fn select_cell_for_item(
    cube: &BellwetherCube,
    item: i64,
    confidence: f64,
) -> Option<&SubsetCell> {
    let coords = cube.item_coords.get(&item)?.clone();
    select_cell(cube, &coords, confidence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::naive::build_naive_cube;
    use crate::cube::tests_support::cube_fixture;
    use crate::cube::CubeConfig;
    use crate::problem::{BellwetherConfig, ErrorMeasure};
    use bellwether_cube::RegionId;

    fn cube() -> BellwetherCube {
        let (src, region_space, _items, item_space, coords) = cube_fixture();
        build_naive_cube(
            &src,
            &region_space,
            &item_space,
            &coords,
            &BellwetherConfig::builder(1e9)
                .min_coverage(0.0)
                .min_examples(4)
                .error_measure(ErrorMeasure::TrainingSet)
                .build()
                .unwrap(),
            &CubeConfig {
                min_subset_size: 5,
            },
        )
        .unwrap()
    }

    #[test]
    fn candidates_are_ancestors() {
        let c = cube();
        // item in leaf ga (node 1): candidates = {[ga], [Any]}
        let cands: Vec<&RegionId> =
            candidate_cells(&c, &[1]).iter().map(|c| &c.subset).collect();
        assert_eq!(cands.len(), 2);
        assert!(cands.contains(&&RegionId(vec![1])));
        assert!(cands.contains(&&RegionId(vec![0])));
    }

    #[test]
    fn selection_prefers_precise_subset() {
        let c = cube();
        // ga's model is near-perfect; Any's is poor — ga must win.
        let cell = select_cell(&c, &[1], 0.95).unwrap();
        assert_eq!(cell.subset, RegionId(vec![1]));
        assert_eq!(cell.region_label, "[ra]");
        let cell_b = select_cell_for_item(&c, 20, 0.95).unwrap(); // item 20 ∈ gb
        assert_eq!(cell_b.subset, RegionId(vec![2]));
    }

    #[test]
    fn unknown_item_yields_none() {
        let c = cube();
        assert!(select_cell_for_item(&c, 9999, 0.95).is_none());
    }

    #[test]
    fn falls_back_to_coarser_subsets() {
        let mut c = cube();
        // Remove the [ga] cell: items in ga should fall back to [Any].
        c.cells.remove(&RegionId(vec![1]));
        let cell = select_cell(&c, &[1], 0.95).unwrap();
        assert_eq!(cell.subset, RegionId(vec![0]));
    }
}
