//! Single-scan bellwether cube construction (Figure 7 in the paper;
//! §6.3): keep a `MinError[S]` entry per significant subset in memory
//! and find every subset's bellwether region in **one** scan over the
//! entire training data (Lemma 2), plus one targeted read per cell to
//! fit the final model. A subset's rows of a block are gathered
//! ascending through the one row gatherer, [`RegionEvalScratch`] — the
//! dataset the naive cube's per-subset scan builds, so both cubes score
//! the same bits.

use super::{finalize_cells, BellwetherCube, CubeConfig};
use crate::error::Result;
use crate::eval::{record_eval_stats, RegionEvalScratch};
use crate::items::ItemIndex;
use crate::problem::BellwetherConfig;
use crate::scan::{scan_regions, BestRegion, ScanScratch, WithScratch};
use bellwether_cube::RegionSpace;
use bellwether_obs::{names, span};
use bellwether_storage::TrainingSource;
use std::collections::HashMap;

/// Per-worker scratch of the scan: the block's id lane resolved to
/// universe positions, one subset's rows of the block, and the row
/// gatherer.
#[derive(Default)]
struct SubsetScratch {
    at: Vec<u32>,
    rows: Vec<usize>,
    eval: RegionEvalScratch,
}

impl ScanScratch for SubsetScratch {
    fn absorb(&mut self, later: Self) {
        self.eval.absorb(later.eval);
    }
}

/// Build a bellwether cube in a single scan.
pub fn build_single_scan_cube(
    source: &dyn TrainingSource,
    region_space: &RegionSpace,
    item_space: &RegionSpace,
    item_coords: &HashMap<i64, Vec<u32>>,
    problem: &BellwetherConfig,
    cube_cfg: &CubeConfig,
) -> Result<BellwetherCube> {
    let _timer = span!(problem.recorder, "cube/single_scan");
    let index = super::significant_subsets(item_space, item_coords, cube_cfg)?;
    // Cube subsets overlap (they are nested), so each subset gets its
    // own membership lane over the item universe, built once for the
    // whole scan; a block's ids are resolved once for all of them.
    let universe: ItemIndex = item_coords.keys().copied().collect();
    let members: Vec<Vec<bool>> = index
        .order
        .iter()
        .map(|s| {
            let mut lane = vec![false; universe.len()];
            for at in index.members[s].iter().filter_map(|&id| universe.get(id)) {
                lane[at] = true;
            }
            lane
        })
        .collect();

    // MinError[S] / BellwetherRegion[S], updated region by region via
    // the shared scan engine (one BestRegion slot per subset; slots
    // merge element-wise across worker chunks).
    let scanned = scan_regions(
        source,
        problem.parallelism,
        problem.scan_policy,
        |_| true,
        || WithScratch {
            acc: vec![BestRegion::default(); index.order.len()],
            scratch: SubsetScratch::default(),
        },
        |ws: &mut WithScratch<Vec<BestRegion>, SubsetScratch>, idx, block| {
            // Build a model h_r for every significant subset from this
            // block — the per-subset refits the optimized variant
            // eliminates.
            let WithScratch { acc, scratch } = ws;
            let SubsetScratch { at, rows, eval } = scratch;
            universe.resolve_into(&block.item_ids, at);
            for (best, lane) in acc.iter_mut().zip(&members) {
                rows.clear();
                rows.extend((0..at.len()).filter(|&row| lane.get(at[row] as usize) == Some(&true)));
                eval.gather_rows(block, rows);
                if eval.data.n() < problem.min_examples.max(1) {
                    continue;
                }
                if let Some(err) = eval.estimate_value(problem) {
                    best.observe(idx, err);
                }
            }
            Ok(())
        },
    )?;
    scanned.record_skipped(problem.recorder.as_ref());
    let WithScratch { acc: best, scratch } = scanned.acc;
    record_eval_stats(problem.recorder.as_ref(), &scratch.eval.eval.stats);

    let winners: Vec<Option<usize>> = best
        .iter()
        .map(|b| b.0.map(|(region_index, _)| region_index))
        .collect();
    let cells = finalize_cells(source, region_space, item_space, &index, problem, &winners, |_, rows| {
        rows.estimate(problem)
    })?;
    problem.recorder.add(names::CUBE_CELLS, cells.len() as u64);
    Ok(BellwetherCube {
        item_space: item_space.clone(),
        item_coords: item_coords.clone(),
        cells,
        skipped_regions: scanned.skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::naive::build_naive_cube;
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

    fn cfg() -> CubeConfig {
        CubeConfig {
            min_subset_size: 5,
        }
    }

    #[test]
    fn lemma_2_same_cube_as_naive() {
        let (src, region_space, _items, item_space, coords) = cube_fixture();
        let naive =
            build_naive_cube(&src, &region_space, &item_space, &coords, &problem(), &cfg())
                .unwrap();
        let single =
            build_single_scan_cube(&src, &region_space, &item_space, &coords, &problem(), &cfg())
                .unwrap();
        assert_eq!(naive.cells.len(), single.cells.len());
        for (subset, ncell) in &naive.cells {
            let scell = single.cell(subset).expect("subset present in both");
            assert_eq!(ncell.region, scell.region, "subset {subset:?}");
            assert!((ncell.error.value - scell.error.value).abs() < 1e-9);
            assert_eq!(ncell.size, scell.size);
        }
    }

    #[test]
    fn lemma_2_scan_counts() {
        let (src, region_space, _items, item_space, coords) = cube_fixture();
        let num_regions = src.num_regions() as u64;

        let reads = || src.snapshot().regions_read();
        let before = reads();
        let single =
            build_single_scan_cube(&src, &region_space, &item_space, &coords, &problem(), &cfg())
                .unwrap();
        let single_reads = reads() - before;
        // One full scan + one targeted read per distinct winning region
        // (`[Any]` wins a region one of the groups wins too).
        let winners = |cube: &BellwetherCube| -> u64 {
            let regions: std::collections::HashSet<usize> =
                cube.cells.values().map(|c| c.region_index).collect();
            regions.len() as u64
        };
        assert!(winners(&single) < single.cells.len() as u64);
        assert_eq!(single_reads, num_regions + winners(&single));

        let before = reads();
        let naive =
            build_naive_cube(&src, &region_space, &item_space, &coords, &problem(), &cfg())
                .unwrap();
        let naive_reads = reads() - before;
        // One full scan per subset + one targeted read per distinct
        // winning region.
        assert_eq!(naive_reads, num_regions * 3 + winners(&naive));
        assert!(naive_reads > single_reads);
    }
}
