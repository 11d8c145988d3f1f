//! Per-worker evaluation scratch for region scans.
//!
//! Every builder's hot loop does the same thing per region block:
//! gather some rows into a dataset, estimate a model's error, sometimes
//! fit the model. Doing that with fresh allocations per region is what
//! dominated profile before the algebraic engine. [`RegionEvalScratch`]
//! is the one row gatherer of every raw-row score — a dataset buffer and
//! the [`EvalScratch`] of the algebraic error engine — so a warm worker
//! evaluates regions with **zero heap allocations**. It implements
//! [`ScanScratch`], so it rides along scan accumulators via
//! [`crate::scan::WithScratch`] and its work counters merge
//! deterministically across worker chunks.

use crate::error::{BellwetherError, Result};
use crate::items::ItemIndex;
use crate::problem::BellwetherConfig;
use crate::scan::ScanScratch;
use bellwether_cube::RegionId;
use bellwether_linreg::{ErrorEstimate, EvalScratch, EvalStats, LinearModel, RegressionData};
use bellwether_obs::{names, Recorder};
use bellwether_storage::{RegionBlock, TrainingSource};
use std::sync::Arc;

/// Reusable per-worker scratch for single-subset region evaluation: a
/// dataset buffer and the algebraic error engine.
#[derive(Debug)]
pub struct RegionEvalScratch {
    /// Reusable dataset buffer holding the most recent gather.
    pub data: RegressionData,
    /// Row-index workspace for filtered gathers.
    rows: Vec<usize>,
    /// The algebraic error engine (owns the work counters).
    pub eval: EvalScratch,
}

impl Default for RegionEvalScratch {
    fn default() -> Self {
        RegionEvalScratch::new()
    }
}

impl RegionEvalScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        RegionEvalScratch {
            data: RegressionData::new(0),
            rows: Vec::new(),
            eval: EvalScratch::new(),
        }
    }

    /// Gather a block's rows — all of them, or only those whose item id
    /// `keep` indexes — into the reusable dataset buffer as lane-by-lane
    /// columnar copies. Allocation-free once the buffers have seen a
    /// block of this size.
    pub fn gather(&mut self, block: &RegionBlock, keep: Option<&ItemIndex>) {
        let Some(keep) = keep else {
            return self.fill(block, None, false);
        };
        let mut rows = std::mem::take(&mut self.rows);
        let grew = rows.capacity() < block.n();
        rows.clear();
        rows.reserve(block.n());
        rows.extend((0..block.n()).filter(|&i| keep.get(block.item_ids[i]).is_some()));
        self.fill(block, Some(&rows), grew);
        self.rows = rows;
    }

    /// Gather the block rows listed in `rows`, in that order.
    pub fn gather_rows(&mut self, block: &RegionBlock, rows: &[usize]) {
        self.fill(block, Some(rows), false);
    }

    fn fill(&mut self, block: &RegionBlock, rows: Option<&[usize]>, mut grew: bool) {
        // The rows are about to change — a shape collision must not let
        // the engine serve the previous region's cached totals.
        self.eval.forget_data();
        self.data.reset(block.p as usize);
        grew |= self.data.ensure_capacity(rows.map_or(block.n(), <[usize]>::len));
        match rows {
            None => self.data.extend_from_cols(block.cols(), &block.targets),
            Some(rows) => self
                .data
                .extend_from_cols_gather(block.cols(), &block.targets, rows),
        }
        if grew {
            self.eval.stats.scratch_grows += 1;
        } else {
            self.eval.stats.scratch_reuses += 1;
        }
    }

    /// Error estimate over the currently gathered rows under `config`'s
    /// measure (no `min_examples` gate — callers apply their own).
    pub fn estimate(&mut self, config: &BellwetherConfig) -> Option<ErrorEstimate> {
        config.error_measure.estimate_with(&self.data, &mut self.eval)
    }

    /// The `value` of [`RegionEvalScratch::estimate`], bit for bit, for
    /// scans that only rank regions (skips the `std_err` work).
    pub fn estimate_value(&mut self, config: &BellwetherConfig) -> Option<f64> {
        config
            .error_measure
            .estimate_value_with(&self.data, &mut self.eval)
    }

    /// Fit a WLS model over the currently gathered rows; coefficients
    /// are bit-identical to `bellwether_linreg::fit_wls`. The only
    /// allocation is the returned coefficient vector.
    pub fn fit_model(&mut self) -> Option<LinearModel> {
        self.eval.fit_model_cached(&self.data)
    }
}

impl ScanScratch for RegionEvalScratch {
    fn absorb(&mut self, later: Self) {
        self.eval.stats.absorb(&later.eval.stats);
    }
}

/// What a builder knows about a subset's bellwether once
/// [`WinnerFits::fit`] has fitted it.
#[derive(Debug)]
pub(crate) struct Winner<E> {
    pub region: RegionId,
    pub error: E,
    pub model: LinearModel,
    pub n_examples: usize,
}

/// The winner fit — the one place a builder turns "region `r` won for
/// these items" into a model. A scan keeps only scores, so the winning
/// region is re-read (it was readable moments ago, but on a faulty source
/// the targeted re-read can still fail: the error carries the region
/// index), the subset's rows are gathered and the model is fitted through
/// the same scratch engine the scans use. The fits are reported under
/// `linreg/*` when the value is dropped.
///
/// The last block read is held, so consecutive fits on one region cost
/// one read: `finalize_cells` sorts its cells by winner and uses one
/// `WinnerFits` for all of them; the trees, whose scan count (Lemma 1) is
/// one targeted read per node, make one per fit.
pub(crate) struct WinnerFits<'a> {
    source: &'a dyn TrainingSource,
    config: &'a BellwetherConfig,
    scratch: RegionEvalScratch,
    held: Option<(usize, Arc<RegionBlock>)>,
}

impl<'a> WinnerFits<'a> {
    pub(crate) fn new(source: &'a dyn TrainingSource, config: &'a BellwetherConfig) -> Self {
        WinnerFits {
            source,
            config,
            scratch: RegionEvalScratch::new(),
            held: None,
        }
    }

    /// Fit the model of the items `keep` indexes in region
    /// `region_index`. `error` supplies the error that goes with the
    /// model: the scan's score, or an estimate over the gathered rows it
    /// is handed. `None` when either is missing.
    pub(crate) fn fit<E>(
        &mut self,
        region_index: usize,
        keep: &ItemIndex,
        error: impl FnOnce(&mut RegionEvalScratch) -> Option<E>,
    ) -> Result<Option<Winner<E>>> {
        let block = match &self.held {
            Some((held, block)) if *held == region_index => block,
            _ => {
                let block = self.source.read_region(region_index).map_err(|source| {
                    BellwetherError::RegionRead {
                        index: region_index,
                        source,
                    }
                })?;
                &self.held.insert((region_index, block)).1
            }
        };
        self.scratch.gather(block, Some(keep));
        let (Some(error), Some(model)) = (error(&mut self.scratch), self.scratch.fit_model())
        else {
            return Ok(None);
        };
        Ok(Some(Winner {
            region: RegionId(self.source.region_coords(region_index).to_vec()),
            error,
            model,
            n_examples: self.scratch.data.n(),
        }))
    }
}

impl Drop for WinnerFits<'_> {
    fn drop(&mut self) {
        record_eval_stats(self.config.recorder.as_ref(), &self.scratch.eval.stats);
    }
}

/// Record an engine's work counters under the canonical
/// `linreg/*` metric names (builders call this once per scan with the
/// merged per-worker totals, which are thread-count invariant).
pub fn record_eval_stats(rec: &dyn Recorder, stats: &EvalStats) {
    if stats.fits > 0 {
        rec.add(names::LINREG_FITS, stats.fits);
    }
    if stats.cv_folds_evaluated > 0 {
        rec.add(names::LINREG_CV_FOLDS, stats.cv_folds_evaluated);
    }
    if stats.ridge_rescues > 0 {
        rec.add(names::LINREG_RIDGE_RESCUES, stats.ridge_rescues);
    }
    if stats.scratch_reuses > 0 {
        rec.add(names::LINREG_SCRATCH_REUSES, stats.scratch_reuses);
    }
    if stats.scratch_grows > 0 {
        rec.add(names::LINREG_SCRATCH_GROWS, stats.scratch_grows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ErrorMeasure;
    use crate::tree::tests_support::oracle;
    use std::collections::HashSet;

    fn block() -> RegionBlock {
        let mut b = RegionBlock::new(vec![0], 2);
        for i in 0..20i64 {
            let x = i as f64;
            let y = if i < 10 { 2.0 * x } else { -3.0 * x };
            b.push(i, &[1.0, x], y);
        }
        b
    }

    fn config() -> BellwetherConfig {
        BellwetherConfig::builder(1.0)
            .min_examples(3)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap()
    }

    #[test]
    fn gather_matches_block_to_data_and_subsets() {
        let b = block();
        let mut s = RegionEvalScratch::new();
        s.gather(&b, None);
        assert_eq!(s.data.n(), 20);
        let keep: ItemIndex = (0..10).collect();
        s.gather(&b, Some(&keep));
        assert_eq!(s.data, oracle::gather(&b, &(0..10).collect()).0);
        s.gather_rows(&b, &[19, 0, 0]);
        assert_eq!(s.data.ys(), [b.y(19), b.y(0), b.y(0)]);
    }

    #[test]
    fn estimate_and_fit_match_one_shot_path() {
        let b = block();
        let cfg = config();
        let mut s = RegionEvalScratch::new();
        let keep: ItemIndex = (0..10).collect();
        s.gather(&b, Some(&keep));
        let est = s.estimate(&cfg).unwrap();
        assert_eq!(s.estimate_value(&cfg).map(f64::to_bits), Some(est.value.to_bits()));
        let (rows, _) = oracle::gather(&b, &(0..10).collect());
        let direct = cfg.error_measure.estimate_with(&rows, &mut EvalScratch::new()).unwrap();
        assert_eq!(est.value.to_bits(), direct.value.to_bits());
        let m = s.fit_model().unwrap();
        let direct_m = bellwether_linreg::fit_wls(&rows).unwrap();
        for (a, b) in m.coefficients().iter().zip(direct_m.coefficients()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn warm_scratch_stops_growing() {
        let b = block();
        let cfg = config();
        let mut s = RegionEvalScratch::new();
        s.gather(&b, None);
        s.estimate(&cfg).unwrap();
        let grows = s.eval.stats.scratch_grows;
        for _ in 0..10 {
            s.gather(&b, None);
            s.estimate(&cfg).unwrap();
        }
        assert_eq!(s.eval.stats.scratch_grows, grows, "warm gather must not grow");
        assert!(s.eval.stats.scratch_reuses >= 20);

        // Subsets of the block in turn, as the single-scan cube and the
        // trees' cross-validation reader gather them.
        let halves: [Vec<usize>; 2] = [(0..10).collect(), (10..20).collect()];
        let grows = s.eval.stats.scratch_grows;
        for _ in 0..10 {
            for rows in &halves {
                s.gather_rows(&b, rows);
                s.estimate(&cfg).unwrap();
            }
        }
        assert_eq!(s.eval.stats.scratch_grows, grows);
    }

    #[test]
    fn absorb_sums_counters_across_workers() {
        let b = block();
        let cfg = config();
        let mut a = RegionEvalScratch::new();
        let mut c = RegionEvalScratch::new();
        a.gather(&b, None);
        a.estimate(&cfg).unwrap();
        c.gather(&b, None);
        c.estimate(&cfg).unwrap();
        let fits = a.eval.stats.fits + c.eval.stats.fits;
        a.absorb(c);
        assert_eq!(a.eval.stats.fits, fits);
    }

    /// Every fit is counted once: `linreg/fits` after a builder is the
    /// fits of its scans plus those of its winner fits, both derived
    /// here from what was built. In both fixtures every region holds
    /// every item and `p = 2`, so under the training-set measure a scan
    /// fits a set once per region exactly when the set has at least
    /// `min_examples = 4` items.
    #[test]
    fn every_fit_is_counted_once() {
        use crate::cube::naive::build_naive_cube;
        use crate::cube::optimized::build_optimized_cube;
        use crate::cube::single_scan::build_single_scan_cube;
        use crate::cube::tests_support::cube_fixture;
        use crate::cube::{significant_subsets, BellwetherCube, CubeConfig};
        use crate::tree::naive::build_naive;
        use crate::tree::rainforest::build_rainforest;
        use crate::tree::tests_support::two_group_fixture;
        use crate::tree::{candidate_splits, subset_bellwether, BellwetherTree, Node, TreeConfig};
        use bellwether_cube::Parallelism;

        const REGIONS: u64 = 3;
        let fitted = |set: usize| u64::from(set >= 4);
        let counted = |threads: usize, build: &dyn Fn(&BellwetherConfig) -> u64| {
            let registry = bellwether_obs::Registry::shared();
            let mut config = config();
            config.min_examples = 4;
            config.parallelism = Parallelism::fixed(threads).with_min_chunk(1);
            config.recorder = registry.clone();
            let expected = build(&config);
            assert_eq!(registry.snapshot().fits(), expected, "threads={threads}");
        };

        let (src, space, items) = two_group_fixture();
        let tree_cfg = TreeConfig {
            min_node_items: 8,
            ..TreeConfig::default()
        };
        // The root's own set in the scan that finds its bellwether (every
        // other node inherits its bellwether from the scan that scored
        // it as a child), each child of each candidate in the scans that
        // score its candidates (`scored`), and one winner fit a fitted
        // node.
        let tree_fits = |tree: &BellwetherTree, scored: &dyn Fn(&Node) -> bool| -> u64 {
            let per_node = tree.nodes.iter().map(|node| {
                let rows = &node.item_rows;
                let active = node.depth < tree_cfg.max_depth && rows.len() >= tree_cfg.min_node_items;
                let candidates = if active && scored(node) {
                    candidate_splits(&items, rows, &tree_cfg)
                } else {
                    Vec::new()
                };
                let own = if node.depth == 0 { fitted(rows.len()) } else { 0 };
                let children = candidates.iter().flat_map(|c| &c.partition);
                let scans = own + children.map(|c| fitted(c.len())).sum::<u64>();
                REGIONS * scans + u64::from(node.info.is_some())
            });
            per_node.sum()
        };
        // Below the root, both builders score a node's candidates only
        // when it is fitted and imperfect.
        let imperfect = |node: &Node| {
            let info = node.info.as_ref();
            info.is_some_and(|info| info.error > tree_cfg.perfect_error_tol)
        };
        let (coords_src, region_space, _, item_space, coords) = cube_fixture();
        let cube_cfg = CubeConfig { min_subset_size: 5 };
        let subsets = significant_subsets(&item_space, &coords, &cube_cfg).unwrap();
        // `per_cell`: the fits one subset costs a region in the scan;
        // `finalize`: the fits of a cell's winner fit (its model, and its
        // estimate when the scan kept only a score).
        let cube_fits = |cube: &BellwetherCube, per_cell: &dyn Fn(&RegionId) -> u64, finalize: u64| {
            assert_eq!(cube.cells.len(), subsets.order.len(), "every subset got its cell");
            let scans: u64 = subsets.order.iter().map(per_cell).sum();
            REGIONS * scans + finalize * cube.cells.len() as u64
        };
        let size_fitted = |subset: &RegionId| fitted(subsets.members[subset].len());

        for threads in [1, 4] {
            counted(threads, &|config| {
                let keep = (0..10).collect();
                assert!(subset_bellwether(&src, &space, &keep, config).unwrap().is_some());
                REGIONS * fitted(keep.len()) + 1
            });
            counted(threads, &|config| {
                let tree = build_rainforest(&src, &space, &items, None, config, &tree_cfg).unwrap();
                assert!(tree.nodes.len() > 1);
                // The root's level scan scores its candidates before its
                // error is known.
                tree_fits(&tree, &|node| node.depth == 0 || imperfect(node))
            });
            counted(threads, &|config| {
                let tree = build_naive(&src, &space, &items, None, config, &tree_cfg).unwrap();
                assert!(tree.nodes.len() > 1);
                tree_fits(&tree, &imperfect)
            });
            for build in [build_naive_cube, build_single_scan_cube] {
                counted(threads, &|config| {
                    let cube =
                        build(&coords_src, &region_space, &item_space, &coords, config, &cube_cfg);
                    cube_fits(&cube.unwrap(), &size_fitted, 2)
                });
            }
            counted(threads, &|config| {
                let cube = build_optimized_cube(
                    &coords_src,
                    &region_space,
                    &item_space,
                    &coords,
                    config,
                    &cube_cfg,
                );
                // Its scan solves each subset's rolled-up statistic.
                cube_fits(&cube.unwrap(), &size_fitted, 2)
            });
            counted(threads, &|config| {
                let (folds, seed) = (3, 99);
                let mut config = config.clone();
                config.error_measure = ErrorMeasure::CrossValidation { folds, seed };
                let cube = build_optimized_cube(
                    &coords_src,
                    &region_space,
                    &item_space,
                    &coords,
                    &config,
                    &cube_cfg,
                );
                // One downdated fit a non-empty fold; the cell keeps the
                // scan's estimate.
                let folds_of = |subset: &RegionId| {
                    let members = &subsets.members[subset];
                    let used: HashSet<usize> =
                        members.iter().map(|&id| crate::seeded::hash_fold(id, folds, seed)).collect();
                    used.len() as u64
                };
                cube_fits(&cube.unwrap(), &folds_of, 1)
            });
        }
    }

    #[test]
    fn record_eval_stats_reports_canonical_names() {
        let reg = bellwether_obs::Registry::new();
        let stats = EvalStats {
            fits: 3,
            cv_folds_evaluated: 30,
            ridge_rescues: 1,
            scratch_reuses: 5,
            scratch_grows: 2,
        };
        record_eval_stats(&reg, &stats);
        let snap = reg.snapshot();
        assert_eq!(snap.fits(), 3);
        assert_eq!(snap.cv_folds_evaluated(), 30);
        assert_eq!(snap.ridge_rescues(), 1);
        assert_eq!(snap.counter(names::LINREG_SCRATCH_REUSES), Some(5));
        assert_eq!(snap.counter(names::LINREG_SCRATCH_GROWS), Some(2));
    }
}
