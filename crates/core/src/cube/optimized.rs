//! Optimized bellwether cube construction (§6.4): the single scan where
//! per-region, per-subset model construction is replaced by data-cube
//! computation of the Theorem-1 sufficient statistic.
//!
//! For each region block we accumulate `g(S) = ⟨Y'WY, X'WX, X'WY, n⟩`
//! once per **base** subset (each example belongs to exactly one base
//! subset), then roll the statistics up the item-hierarchy lattice with
//! `merge` — `O(#base · Σ depth)` merges — and read every subset's
//! training-set SSE straight from the merged statistic. The per-block
//! cost no longer multiplies by the number of nested subsets, which is
//! what Figures 11(b) and 12(a) measure.
//!
//! The training-set error is what Theorem 1 makes algebraic, so this
//! algorithm requires [`ErrorMeasure::TrainingSet`]; constructing with a
//! cross-validation measure is a configuration error.

use super::{finalize_cells, BellwetherCube, CubeConfig};
use crate::error::{BellwetherError, Result};
use crate::eval::{record_eval_stats, RegionEvalScratch};
use crate::items::ItemIndex;
use crate::problem::{BellwetherConfig, ErrorMeasure};
use crate::scan::{scan_regions, MergeableAccumulator, Scanned, WithScratch};
use crate::seeded::hash_fold;
use bellwether_cube::{rollup_lattice, Parallelism, RegionId, RegionSpace};
use bellwether_linreg::{FoldedSuffStats, RegSuffStats};
use bellwether_obs::{names, span};
use bellwether_storage::{RegionBlock, TrainingSource};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Best `(region index, error)` per subset. Merges per key with strict
/// `<`, keeping the earlier chunk's winner on ties — exactly the
/// sequential scan's `or_insert + strict-<` update over ascending
/// region indices. The value carried per key is order-independent
/// except for ties, and ties resolve to the lower region index because
/// partials merge in ascending chunk order.
struct BestMap<V>(HashMap<RegionId, V>);

/// Error value a per-subset slot is ranked by.
trait Ranked {
    fn err(&self) -> f64;
}

impl Ranked for (usize, f64) {
    fn err(&self) -> f64 {
        self.1
    }
}

impl Ranked for (usize, f64, Vec<f64>) {
    fn err(&self) -> f64 {
        self.1
    }
}

impl<V: Ranked + Send> MergeableAccumulator for BestMap<V> {
    fn merge(&mut self, later: Self) {
        for (subset, slot) in later.0 {
            match self.0.entry(subset) {
                Entry::Occupied(mut o) => {
                    if slot.err() < o.get().err() {
                        o.insert(slot);
                    }
                }
                Entry::Vacant(v) => {
                    v.insert(slot);
                }
            }
        }
    }
}

/// The base cells of a build — the distinct leaf-coordinate combinations
/// its items sit at — with each item's cell resolved once, so the
/// per-example step of the base aggregation is an id lookup and two
/// array loads instead of a coordinate-vector clone and hash.
struct BaseCells {
    index: ItemIndex,
    /// Per position of `index`: the item's slot in `cells`.
    cell_of: Vec<u32>,
    /// Leaf coordinates, ascending.
    cells: Vec<RegionId>,
}

impl BaseCells {
    fn new(item_coords: &HashMap<i64, Vec<u32>>) -> Self {
        let mut cells: Vec<RegionId> =
            item_coords.values().map(|c| RegionId(c.clone())).collect();
        cells.sort();
        cells.dedup();
        let (ids, cell_of): (Vec<i64>, Vec<u32>) = item_coords
            .iter()
            .map(|(&id, coords)| {
                let cell = cells.binary_search_by(|c| c.0.cmp(coords));
                (id, cell.expect("every item's cell was collected") as u32)
            })
            .unzip();
        BaseCells {
            index: ItemIndex::new(&ids),
            cell_of,
            cells,
        }
    }

    /// One statistic per base cell with examples in `block`, each fed
    /// its rows (`add(stat, row, item id)`) in ascending order; examples
    /// of items without coordinates are skipped.
    fn aggregate<S>(
        &self,
        block: &RegionBlock,
        new: impl Fn() -> S,
        mut add: impl FnMut(&mut S, usize, i64),
    ) -> HashMap<RegionId, S> {
        let mut stats: Vec<Option<S>> = self.cells.iter().map(|_| None).collect();
        for (row, &id) in block.item_ids.iter().enumerate() {
            let Some(item) = self.index.get(id) else { continue };
            let cell = self.cell_of[item] as usize;
            add(stats[cell].get_or_insert_with(&new), row, id);
        }
        let filled = self.cells.iter().zip(stats);
        filled
            .filter_map(|(cell, stat)| Some((cell.clone(), stat?)))
            .collect()
    }
}

/// The optimized cube's scan: per significant subset, the region whose
/// rolled-up statistic gives the lowest training-set error.
fn scan_best(
    source: &dyn TrainingSource,
    item_space: &RegionSpace,
    item_coords: &HashMap<i64, Vec<u32>>,
    order: &[RegionId],
    problem: &BellwetherConfig,
) -> Result<Scanned<BestMap<(usize, f64)>>> {
    let p = source.feature_arity();
    let base_cells = BaseCells::new(item_coords);
    scan_regions(
        source,
        problem.parallelism,
        problem.scan_policy,
        |_| true,
        || BestMap(HashMap::new()),
        |acc: &mut BestMap<(usize, f64)>, idx, block| {
            // Base aggregation: one suffstats update per example, read
            // straight from the block's feature lanes.
            let base = base_cells.aggregate(
                block,
                || RegSuffStats::new(p),
                |stats, row, _| stats.add_from_cols(block.cols(), row, block.targets[row], 1.0),
            );

            // Lattice rollup: merge statistics upward (Observation 1).
            let rolled = rollup_lattice(item_space, base, |a, b| a.merge(b));

            // Read each significant subset's error from its statistic.
            for subset in order {
                let Some(stats) = rolled.get(subset) else { continue };
                if stats.n() < problem.min_examples.max(1) {
                    continue;
                }
                let Some(err) = stats.rmse() else { continue };
                let slot = acc.0.entry(subset.clone()).or_insert((idx, f64::INFINITY));
                if err < slot.1 {
                    *slot = (idx, err);
                }
            }
            Ok(())
        },
    )
}

/// Build a bellwether cube with the algebraic-rollup optimization.
pub fn build_optimized_cube(
    source: &dyn TrainingSource,
    region_space: &RegionSpace,
    item_space: &RegionSpace,
    item_coords: &HashMap<i64, Vec<u32>>,
    problem: &BellwetherConfig,
    cube_cfg: &CubeConfig,
) -> Result<BellwetherCube> {
    if problem.error_measure != ErrorMeasure::TrainingSet {
        return Err(BellwetherError::Config(
            "the optimized cube requires ErrorMeasure::TrainingSet (Theorem 1 \
             decomposes training-set SSE, not cross-validation error)"
                .into(),
        ));
    }
    let _timer = span!(problem.recorder, "cube/optimized");
    let index = super::significant_subsets(item_space, item_coords, cube_cfg)?;
    let scanned = scan_best(source, item_space, item_coords, &index.order, problem)?;
    scanned.record_skipped(problem.recorder.as_ref());
    let best = scanned.acc.0;

    let winners: Vec<Option<usize>> = index
        .order
        .iter()
        .map(|subset| best.get(subset).map(|&(region_index, _)| region_index))
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

/// Per-worker state of the CV cube scan: best `(region idx, cv error,
/// fold rmses)` per subset, plus the reusable evaluation scratch.
type CvScanState = WithScratch<BestMap<(usize, f64, Vec<f64>)>, RegionEvalScratch>;

/// **Extension beyond the paper**: a *cross-validated* optimized cube.
///
/// Theorem 1 decomposes training-set SSE. The same statistic also
/// yields k-fold cross-validation error without revisiting examples:
/// keep a [`FoldedSuffStats`] per base subset (one [`RegSuffStats`] per
/// fold plus the running total, built in a single pass); fold `f`'s
/// model is fit by *downdating* the total via
/// [`RegSuffStats::subtract`], and its test SSE on fold `f` is
/// `Y'Y − 2β'X'Y + β'X'Xβ` — entirely from fold `f`'s statistic
/// ([`RegSuffStats::sse_of_model`]). The k solves run through the
/// shared [`bellwether_linreg::EvalScratch`] engine, so per-fold Gram
/// buffers are reused across subsets and regions. The per-block cost
/// gains a factor `k` in statistics but still avoids per-subset refits
/// from raw rows.
///
/// The resulting cell errors are genuine CV estimates (mean fold RMSE ±
/// spread), so confidence-bound prediction works unchanged.
#[allow(clippy::too_many_arguments)] // mirrors the other builders + CV knobs
pub fn build_optimized_cube_cv(
    source: &dyn TrainingSource,
    region_space: &RegionSpace,
    item_space: &RegionSpace,
    item_coords: &HashMap<i64, Vec<u32>>,
    problem: &BellwetherConfig,
    cube_cfg: &CubeConfig,
    folds: usize,
    seed: u64,
) -> Result<BellwetherCube> {
    use bellwether_linreg::ErrorEstimate;
    if folds < 2 {
        return Err(BellwetherError::Config("cv cube needs at least 2 folds".into()));
    }
    let _timer = span!(problem.recorder, "cube/optimized_cv");
    let index = super::significant_subsets(item_space, item_coords, cube_cfg)?;
    let p = source.feature_arity();
    let base_cells = BaseCells::new(item_coords);

    // best[subset] = (region idx, cv error, fold rmses). Runs through
    // the shared scan engine for the one-idiom property, but pinned
    // sequential: this extension pass is never on the benchmarked path
    // and keeps the conservative configuration.
    let scanned = scan_regions(
        source,
        Parallelism::sequential(),
        problem.scan_policy,
        |_| true,
        || WithScratch {
            acc: BestMap(HashMap::new()),
            scratch: RegionEvalScratch::new(),
        },
        |ws: &mut CvScanState, idx, block| {
            let WithScratch { acc, scratch } = ws;
            // Base aggregation, one folded statistic per base subset.
            let base = base_cells.aggregate(
                block,
                || FoldedSuffStats::new(p, folds),
                |stats, row, id| {
                    let fold = hash_fold(id, folds, seed);
                    stats.add_from_cols(block.cols(), row, block.targets[row], 1.0, fold);
                },
            );

            // Rollup: merge folded statistics (total + per-fold).
            let rolled = rollup_lattice(item_space, base, |a, b| a.merge(b));

            for subset in &index.order {
                let Some(stats) = rolled.get(subset) else { continue };
                if stats.n() < problem.min_examples.max(1) {
                    continue;
                }
                // Algebraic k-fold CV: k downdate-and-solve steps, no
                // per-fold merging and no raw-row refits.
                let fold_rmses = scratch.eval.algebraic_fold_rmses(stats);
                if fold_rmses.is_empty() {
                    continue;
                }
                let est = ErrorEstimate::from_folds(fold_rmses);
                let slot = acc
                    .0
                    .entry(subset.clone())
                    .or_insert((idx, f64::INFINITY, Vec::new()));
                if est.value < slot.1 {
                    slot.0 = idx;
                    slot.1 = est.value;
                    slot.2.clear();
                    slot.2.extend_from_slice(fold_rmses);
                }
            }
            Ok(())
        },
    )?;
    scanned.record_skipped(problem.recorder.as_ref());
    let WithScratch { acc, scratch } = scanned.acc;
    record_eval_stats(problem.recorder.as_ref(), &scratch.eval.stats);
    let best = acc.0;

    // Finalize: fit the winning models; the error estimate is the
    // algebraic CV estimate gathered during the scan.
    let winners: Vec<Option<usize>> =
        index.order.iter().map(|subset| best.get(subset).map(|w| w.0)).collect();
    let cells = finalize_cells(source, region_space, item_space, &index, problem, &winners, |slot, _| {
        let (_, _, fold_rmses) = best.get(&index.order[slot])?;
        Some(ErrorEstimate::from_folds(fold_rmses))
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
    use crate::cube::single_scan::build_single_scan_cube;
    use crate::cube::tests_support::cube_fixture;

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
    fn optimized_matches_single_scan() {
        let (src, region_space, _items, item_space, coords) = cube_fixture();
        let single =
            build_single_scan_cube(&src, &region_space, &item_space, &coords, &problem(), &cfg())
                .unwrap();
        let optimized =
            build_optimized_cube(&src, &region_space, &item_space, &coords, &problem(), &cfg())
                .unwrap();
        assert_eq!(single.cells.len(), optimized.cells.len());
        for (subset, scell) in &single.cells {
            let ocell = optimized.cell(subset).expect("subset present");
            assert_eq!(scell.region, ocell.region, "subset {subset:?}");
            assert!(
                (scell.error.value - ocell.error.value).abs() < 1e-6,
                "errors diverge for {subset:?}: {} vs {}",
                scell.error.value,
                ocell.error.value
            );
        }
    }

    #[test]
    fn scan_errors_are_bit_equal_from_run_to_run() {
        use bellwether_cube::{Dimension, Hierarchy};
        use bellwether_storage::MemorySource;
        // Six base cells under one root: the root's statistic is a
        // six-way float merge, whose low bits follow the merge order.
        let leaves = ["g0", "g1", "g2", "g3", "g4", "g5"];
        let item_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
            "G", "Any", &leaves,
        ))]);
        let coords: HashMap<i64, Vec<u32>> =
            (0..60).map(|id| (id, vec![1 + (id % 6) as u32])).collect();
        let mut rng = bellwether_prop::Rng::new(3);
        let blocks = (0..6)
            .map(|r| {
                let mut b = RegionBlock::new(vec![r], 3);
                for id in 0..60 {
                    let x = [1.0, rng.f64_in(-9.0, 9.0), rng.f64_in(0.0, 1e3)];
                    b.push(id, &x, rng.f64_in(-50.0, 50.0));
                }
                b
            })
            .collect();
        let src = MemorySource::new(blocks);
        let order = super::super::significant_subsets(&item_space, &coords, &cfg())
            .unwrap()
            .order;
        assert_eq!(order.len(), 7);
        let run = || {
            let best = scan_best(&src, &item_space, &coords, &order, &problem()).unwrap();
            let errors: Vec<_> = order
                .iter()
                .map(|s| best.acc.0.get(s).map(|&(idx, err)| (idx, err.to_bits())))
                .collect();
            assert!(errors.iter().all(Option::is_some));
            errors
        };
        let first = run();
        for _ in 0..8 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn optimized_scan_count_matches_single_scan() {
        let (src, region_space, _items, item_space, coords) = cube_fixture();
        src.stats().reset();
        let cube =
            build_optimized_cube(&src, &region_space, &item_space, &coords, &problem(), &cfg())
                .unwrap();
        // One full scan + one targeted read per distinct winning region.
        let winners: std::collections::HashSet<usize> =
            cube.cells.values().map(|c| c.region_index).collect();
        assert_eq!(
            src.snapshot().regions_read(),
            src.num_regions() as u64 + winners.len() as u64
        );
    }

    #[test]
    fn cv_measure_rejected() {
        let (src, region_space, _items, item_space, coords) = cube_fixture();
        let bad = BellwetherConfig::builder(1e9).build().unwrap(); // defaults to CV
        let err =
            build_optimized_cube(&src, &region_space, &item_space, &coords, &bad, &cfg());
        assert!(matches!(err, Err(BellwetherError::Config(_))));
    }

    #[test]
    fn cv_cube_matches_direct_fold_computation() {
        use bellwether_linreg::RegSuffStats;
        let (src, region_space, _items, item_space, coords) = cube_fixture();
        let folds = 3;
        let seed = 99;
        let cube = build_optimized_cube_cv(
            &src,
            &region_space,
            &item_space,
            &coords,
            &problem(),
            &cfg(),
            folds,
            seed,
        )
        .unwrap();
        assert!(!cube.cells.is_empty());

        // Reference: for the [ga] subset (node 1) and its winning
        // region, recompute the fold errors from raw rows with the same
        // fold assignment.
        let cell = cube.cell(&RegionId(vec![1])).expect("ga cell");
        let block = src.read_region(cell.region_index).unwrap();
        let ids: std::collections::HashSet<i64> = (0..12).collect();
        // Recompute per-fold: gather rows per fold by item id.
        let fold_of = |id: i64| crate::seeded::hash_fold(id, folds, seed);
        let mut fold_rmses = Vec::new();
        for f in 0..folds {
            let mut train = bellwether_linreg::RegressionData::new(2);
            let mut test = bellwether_linreg::RegressionData::new(2);
            for (row, &id) in block.item_ids.iter().enumerate() {
                if !ids.contains(&id) {
                    continue;
                }
                if fold_of(id) == f {
                    test.push(&block.row(row), block.y(row));
                } else {
                    train.push(&block.row(row), block.y(row));
                }
            }
            if test.n() == 0 {
                continue;
            }
            let model = RegSuffStats::from_dataset(&train).fit().unwrap();
            fold_rmses.push(model.rmse_on(&test));
        }
        let expect = bellwether_linreg::ErrorEstimate::from_folds(&fold_rmses);
        assert!(
            (cell.error.value - expect.value).abs() < 1e-6,
            "algebraic CV {} vs direct {}",
            cell.error.value,
            expect.value
        );
    }

    #[test]
    fn cv_cube_picks_the_planted_regions() {
        let (src, region_space, _items, item_space, coords) = cube_fixture();
        let cube = build_optimized_cube_cv(
            &src,
            &region_space,
            &item_space,
            &coords,
            &problem(),
            &cfg(),
            4,
            7,
        )
        .unwrap();
        assert_eq!(cube.cell(&RegionId(vec![1])).unwrap().region_label, "[ra]");
        assert_eq!(cube.cell(&RegionId(vec![2])).unwrap().region_label, "[rb]");
        // CV errors carry spread information for confidence selection.
        assert!(cube.root_cell().unwrap().error.std_err >= 0.0);
    }

    #[test]
    fn cv_cube_rejects_single_fold() {
        let (src, region_space, _items, item_space, coords) = cube_fixture();
        let err = build_optimized_cube_cv(
            &src,
            &region_space,
            &item_space,
            &coords,
            &problem(),
            &cfg(),
            1,
            0,
        );
        assert!(matches!(err, Err(BellwetherError::Config(_))));
    }

    #[test]
    fn items_without_coords_are_skipped() {
        let (src, region_space, _items, item_space, mut coords) = cube_fixture();
        // Remove one item's coordinates: it simply drops out of the cube.
        coords.remove(&0);
        let cube =
            build_optimized_cube(&src, &region_space, &item_space, &coords, &problem(), &cfg())
                .unwrap();
        assert_eq!(cube.root_cell().unwrap().size, 23);
    }
}
