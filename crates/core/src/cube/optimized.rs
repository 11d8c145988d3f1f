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
use crate::eval::record_eval_stats;
use crate::items::ItemIndex;
use crate::problem::{BellwetherConfig, ErrorMeasure};
use crate::scan::{scan_regions, MergeableAccumulator, ScanScratch, Scanned, WithScratch};
use crate::seeded::hash_fold;
use crate::tree::partition::add_into;
use bellwether_cube::{LatticeSchedule, Parallelism, RegionId, RegionSpace};
use bellwether_linreg::{ErrorEstimate, EvalScratch, FoldedSuffStats, RegSuffStats};
use bellwether_obs::{names, span};
use bellwether_storage::{RegionBlock, TrainingSource};
use std::collections::HashMap;

/// The rollup of one build: the [`LatticeSchedule`] over the base cells
/// its items sit at, each item's base slot resolved once (an example
/// then costs an id lookup and a load), and each significant subset's
/// slot.
struct Lattice {
    schedule: LatticeSchedule,
    index: ItemIndex,
    /// Per position of `index`: the item's base slot.
    base_of: Vec<usize>,
    /// Per subset of the build's `order`: its slot.
    subset_slots: Vec<usize>,
    /// The CV cube's `(folds, seed)`: a slot holds the total, then one
    /// statistic per fold.
    folds: Option<(usize, u64)>,
}

impl Lattice {
    fn new(
        item_space: &RegionSpace,
        item_coords: &HashMap<i64, Vec<u32>>,
        order: &[RegionId],
        folds: Option<(usize, u64)>,
    ) -> Self {
        let cells = item_coords.values().map(|c| RegionId(c.clone()));
        let schedule = LatticeSchedule::new(item_space, cells);
        let (ids, base_of): (Vec<i64>, Vec<usize>) = item_coords
            .iter()
            .map(|(&id, coords)| {
                let slot = schedule.base.binary_search_by(|c| c.0.cmp(coords));
                (id, slot.expect("every item's cell is scheduled"))
            })
            .unzip();
        let subset_slots = order
            .iter()
            .map(|subset| schedule.cell_slot(subset).expect("a significant subset is rolled up"))
            .collect();
        Lattice {
            schedule,
            index: ItemIndex::new(&ids),
            base_of,
            subset_slots,
            folds,
        }
    }

    /// Floats per slot over `p` features: per statistic, its example
    /// count (exact in an `f64`) and its [`RegSuffStats::flat_len`] sums
    /// — the layout [`FoldedSuffStats::load_flat`] reads.
    fn stride(&self, p: usize) -> usize {
        (1 + self.folds.map_or(0, |(k, _)| k)) * (1 + RegSuffStats::flat_len(p))
    }

    /// Roll `block` up the lattice into `sums`: each row's unit-weight
    /// terms added to its base slot's total (and fold) in ascending row
    /// order — the scalar fold `add_from_cols` makes — then the schedule
    /// replayed, an empty source skipped and an empty destination copied
    /// into, as [`LatticeSchedule`] says. Rows of items without
    /// coordinates are skipped.
    fn roll(&self, block: &RegionBlock, sums: &mut Vec<f64>, terms: &mut Vec<f64>) {
        let p = block.p as usize;
        let (part, stride) = (1 + RegSuffStats::flat_len(p), self.stride(p));
        let (schedule, base) = (&self.schedule, self.schedule.base.len() * stride);
        sums.resize((schedule.first_cell + schedule.cells.len()) * stride, 0.0);
        sums[..base].fill(0.0);
        sums[base..].iter_mut().step_by(stride).for_each(|n| *n = 0.0);
        terms.resize(part - 1, 0.0);
        let mut add = |at: usize, terms: &[f64]| {
            sums[at] += 1.0;
            add_into(&mut sums[at + 1..at + part], terms);
        };
        for (row, &id) in block.item_ids.iter().enumerate() {
            let Some(item) = self.index.get(id) else { continue };
            let slot = self.base_of[item] * stride;
            RegSuffStats::unit_terms_from_cols(block.cols(), row, block.targets[row], terms);
            add(slot, terms);
            if let Some((k, seed)) = self.folds {
                add(slot + (1 + hash_fold(id, k, seed)) * part, terms);
            }
        }
        for &(from, to) in &schedule.steps {
            if sums[from * stride] == 0.0 {
                continue;
            }
            let (sources, rest) = sums.split_at_mut(to * stride);
            let (source, dest) = (&sources[from * stride..][..stride], &mut rest[..stride]);
            if dest[0] == 0.0 {
                dest.copy_from_slice(source);
            } else {
                add_into(dest, source);
            }
        }
    }
}

/// One subset's best region so far — lowest error, earliest region on
/// ties, as [`crate::scan::BestRegion`] — and what the build keeps of
/// its score there.
struct Best<V>(Option<(usize, f64, V)>);

impl<V> Best<V> {
    fn observe(&mut self, idx: usize, err: f64, kept: impl FnOnce() -> V) {
        if self.0.as_ref().is_none_or(|best| err < best.1) {
            self.0 = Some((idx, err, kept()));
        }
    }
}

impl<V: Send> MergeableAccumulator for Best<V> {
    fn merge(&mut self, later: Self) {
        if let Some((idx, err, kept)) = later.0 {
            self.observe(idx, err, || kept);
        }
    }
}

/// Per-worker state of an optimized cube scan: the slots of the block
/// last rolled up, one row's terms, and the error engine.
#[derive(Default)]
struct RollScratch {
    sums: Vec<f64>,
    terms: Vec<f64>,
    folded: FoldedSuffStats,
    eval: EvalScratch,
}

impl ScanScratch for RollScratch {
    fn absorb(&mut self, later: Self) {
        self.eval.stats.absorb(&later.eval.stats);
    }
}

/// The optimized cubes' scan: per significant subset, the region where
/// `score` — given a subset slot with at least `min_examples` examples —
/// reads the lowest error, with `kept` taken from the engine there. The
/// skip count and the engine's `linreg/*` counters are recorded here.
fn scan_best<V: Send>(
    source: &dyn TrainingSource,
    lattice: &Lattice,
    problem: &BellwetherConfig,
    parallelism: Parallelism,
    score: impl Fn(&mut EvalScratch, &mut FoldedSuffStats, &[f64]) -> Option<f64> + Sync,
    kept: impl Fn(&EvalScratch) -> V + Sync,
) -> Result<Scanned<Vec<Best<V>>>> {
    let scanned = scan_regions(
        source,
        parallelism,
        problem.scan_policy,
        |_| true,
        || WithScratch {
            acc: (0..lattice.subset_slots.len()).map(|_| Best(None)).collect(),
            scratch: RollScratch::default(),
        },
        |ws: &mut WithScratch<Vec<Best<V>>, RollScratch>, idx, block| {
            let RollScratch { sums, terms, folded, eval } = &mut ws.scratch;
            lattice.roll(block, sums, terms);
            let stride = lattice.stride(block.p as usize);
            for (best, &slot) in ws.acc.iter_mut().zip(&lattice.subset_slots) {
                let stats = &sums[slot * stride..][..stride];
                if (stats[0] as usize) < problem.min_examples.max(1) {
                    continue;
                }
                if let Some(err) = score(eval, folded, stats) {
                    best.observe(idx, err, || kept(eval));
                }
            }
            Ok(())
        },
    )?;
    scanned.record_skipped(problem.recorder.as_ref());
    let WithScratch { acc, scratch } = scanned.acc;
    record_eval_stats(problem.recorder.as_ref(), &scratch.eval.stats);
    Ok(Scanned {
        acc,
        skipped: scanned.skipped,
    })
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
    let lattice = Lattice::new(item_space, item_coords, &index.order, None);
    let p = source.feature_arity();
    // A subset's training-set error, read straight off its statistic.
    let scanned = scan_best(
        source,
        &lattice,
        problem,
        problem.parallelism,
        |eval, _, stats| eval.training_value_flat(p, stats[0] as usize, &stats[1..]),
        |_| (),
    )?;

    let winners: Vec<Option<usize>> =
        scanned.acc.iter().map(|best| best.0.as_ref().map(|w| w.0)).collect();
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

/// **Extension beyond the paper**: a *cross-validated* optimized cube.
///
/// Theorem 1 decomposes training-set SSE. The same statistic also
/// yields k-fold cross-validation error without revisiting examples:
/// keep one [`RegSuffStats`] per fold plus the running total per base
/// subset ([`FoldedSuffStats`]'s flat form, built in a single pass and
/// rolled up like the total); fold `f`'s
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
    if folds < 2 {
        return Err(BellwetherError::Config("cv cube needs at least 2 folds".into()));
    }
    let _timer = span!(problem.recorder, "cube/optimized_cv");
    let index = super::significant_subsets(item_space, item_coords, cube_cfg)?;
    let lattice = Lattice::new(item_space, item_coords, &index.order, Some((folds, seed)));
    let p = source.feature_arity();

    // Algebraic k-fold CV: k downdate-and-solve steps per subset, no
    // per-fold merging and no raw-row refits. Runs through the shared
    // scan engine for the one-idiom property, but pinned sequential:
    // this extension pass is never on the benchmarked path and keeps the
    // conservative configuration.
    let scanned = scan_best(
        source,
        &lattice,
        problem,
        Parallelism::sequential(),
        |eval, folded, stats| {
            folded.load_flat(p, folds, stats);
            let fold_rmses = eval.algebraic_fold_rmses(folded);
            (!fold_rmses.is_empty()).then(|| ErrorEstimate::from_folds(fold_rmses).value)
        },
        |eval| eval.fold_rmses().to_vec(),
    )?;

    // Finalize: fit the winning models; the error estimate is the
    // algebraic CV estimate gathered during the scan.
    let best = &scanned.acc;
    let winners: Vec<Option<usize>> =
        best.iter().map(|best| best.0.as_ref().map(|w| w.0)).collect();
    let cells = finalize_cells(source, region_space, item_space, &index, problem, &winners, |slot, _| {
        let (_, _, fold_rmses) = best[slot].0.as_ref()?;
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
    use crate::cube::tests_support::{cube_fixture, scan_by_maps};
    use bellwether_storage::MemorySource;

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
        let region_space = item_space.clone();
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
        // A fresh map every run: no order may come from its iteration.
        let run = || {
            let coords: HashMap<i64, Vec<u32>> =
                (0..60).map(|id| (id, vec![1 + (id % 6) as u32])).collect();
            let cube =
                build_optimized_cube(&src, &region_space, &item_space, &coords, &problem(), &cfg())
                    .unwrap();
            assert_eq!(cube.cells.len(), 7);
            let mut cells: Vec<String> = cube.cells.values().map(|c| format!("{c:?}")).collect();
            cells.sort();
            cells
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

    /// Two item hierarchies (one of depth 2), items of which some have
    /// no coordinates, and blocks that miss whole base cells and repeat
    /// items.
    fn random_lattice_input(
        rng: &mut bellwether_prop::Rng,
    ) -> (MemorySource, RegionSpace, RegionSpace, HashMap<i64, Vec<u32>>) {
        use bellwether_cube::{Dimension, Hierarchy};
        let mut deep = Hierarchy::new("A", "AnyA");
        for g in 0..rng.usize_in(1, 4) {
            let group = deep.add_child(0, format!("a{g}"));
            for leaf in 0..rng.usize_in(1, 4) {
                deep.add_child(group, format!("a{g}.{leaf}"));
            }
        }
        let flat: Vec<String> = (0..rng.usize_in(1, 5)).map(|b| format!("b{b}")).collect();
        let flat: Vec<&str> = flat.iter().map(String::as_str).collect();
        let item_space = RegionSpace::new(vec![
            Dimension::Hierarchy(deep.clone()),
            Dimension::Hierarchy(Hierarchy::flat("B", "AnyB", &flat)),
        ]);
        let (a_leaves, b_leaves) = (deep.leaves(), 1..=flat.len() as u32);
        let n_items = rng.usize_in(20, 80) as i64;
        let mut coords = HashMap::new();
        for id in 0..n_items {
            if !rng.flip(0.1) {
                let b = rng.u32_in(*b_leaves.start(), b_leaves.end() + 1);
                coords.insert(3 * id - 20, vec![*rng.choice(&a_leaves), b]);
            }
        }
        let regions = rng.usize_in(2, 7) as u32;
        let names: Vec<String> = (1..regions).map(|r| format!("r{r}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let region_space =
            RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat("L", "All", &names))]);
        let blocks = (0..regions)
            .map(|r| {
                let mut b = RegionBlock::new(vec![r], 3);
                // Some blocks hold few items, so whole base cells are absent.
                let pool = rng.usize_in(1, n_items as usize + 1) as i64;
                for id in 0..pool {
                    for _ in 0..[0, 1, 1, 2][rng.below(4)] {
                        let x = [1.0, rng.f64_in(-9.0, 9.0), rng.f64_in(-1e3, 1e3)];
                        b.push(3 * id - 20, &x, rng.f64_in(-50.0, 50.0) * 10f64.powi(rng.below(4) as i32));
                    }
                }
                b
            })
            .collect();
        (MemorySource::new(blocks), region_space, item_space, coords)
    }

    #[test]
    fn both_cubes_equal_the_per_block_map_scan_bit_for_bit() {
        use bellwether_prop::check;
        let compared = std::cell::Cell::new(0);
        check("optimized_cubes_vs_map_scan", 40, |rng| {
            let (src, region_space, item_space, coords) = random_lattice_input(rng);
            let cube_cfg = CubeConfig {
                min_subset_size: rng.usize_in(1, 6),
            };
            let mut problem = problem();
            problem.min_examples = rng.usize_in(1, 12);
            let (folds, seed) = (rng.usize_in(2, 5), rng.next_u64());
            let index = super::super::significant_subsets(&item_space, &coords, &cube_cfg).unwrap();
            for cv in [false, true] {
                let cv_folds = cv.then_some((folds, seed));
                let oracle =
                    scan_by_maps(&src, &item_space, &coords, &index.order, &problem, cv_folds);
                let winners: Vec<Option<usize>> =
                    oracle.iter().map(|w| w.as_ref().map(|w| w.0)).collect();
                let want = finalize_cells(
                    &src,
                    &region_space,
                    &item_space,
                    &index,
                    &problem,
                    &winners,
                    |slot, rows| match &oracle[slot] {
                        Some((_, _, fold_rmses)) if cv => Some(ErrorEstimate::from_folds(fold_rmses)),
                        _ => rows.estimate(&problem),
                    },
                )
                .unwrap();
                compared.set(compared.get() + want.len());
                for threads in [1, 2, 4] {
                    problem.parallelism = Parallelism::fixed(threads).with_min_chunk(1);
                    let cube = if cv {
                        build_optimized_cube_cv(
                            &src, &region_space, &item_space, &coords, &problem, &cube_cfg, folds, seed,
                        )
                    } else {
                        build_optimized_cube(&src, &region_space, &item_space, &coords, &problem, &cube_cfg)
                    };
                    let cube = cube.unwrap();
                    assert_eq!(cube.cells.len(), want.len(), "cv={cv} threads={threads}");
                    for (subset, cell) in &want {
                        // `f64`'s `Debug` round-trips: equal text is equal bits.
                        assert_eq!(format!("{:?}", cube.cells[subset]), format!("{cell:?}"));
                    }
                }
            }
        });
        assert!(compared.get() > 200, "only {} cells compared", compared.get());
    }
}
