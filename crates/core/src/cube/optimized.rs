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
//! The error measure decides what a slot holds. Under
//! [`ErrorMeasure::TrainingSet`] — what Theorem 1 makes algebraic — it
//! is the flat statistic alone. Under [`ErrorMeasure::CrossValidation`]
//! (an extension beyond the paper) it also holds one statistic per fold,
//! an item's fold being [`hash_fold`] of its id, because rolled-up
//! statistics have no row identity: fold `f`'s model is fit by
//! *downdating* the total ([`RegSuffStats::subtract`]) and its test SSE
//! comes from fold `f`'s statistic alone
//! ([`RegSuffStats::sse_of_coeffs`]), so every subset gets a genuine CV
//! estimate (mean fold RMSE ± spread) with no per-subset refits from raw
//! rows, at a factor `k` more statistics per block.

use super::{finalize_cells, BellwetherCube, CubeConfig};
use crate::error::{BellwetherError, Result};
use crate::eval::record_eval_stats;
use crate::items::ItemIndex;
use crate::problem::{BellwetherConfig, ErrorMeasure};
use crate::scan::{scan_regions, MergeableAccumulator, ScanScratch, WithScratch};
use crate::seeded::hash_fold;
use crate::tree::partition::add_into;
use bellwether_cube::{LatticeSchedule, RegionId, RegionSpace};
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
    /// Under cross-validation, `(folds, seed)`: a slot holds the total,
    /// then one statistic per fold.
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
/// ties, as [`crate::scan::BestRegion`] — and its fold RMSEs there
/// (none under the training-set measure).
struct Best(Option<(usize, f64, Vec<f64>)>);

impl Best {
    fn observe(&mut self, idx: usize, err: f64, fold_rmses: impl FnOnce() -> Vec<f64>) {
        if self.0.as_ref().is_none_or(|best| err < best.1) {
            self.0 = Some((idx, err, fold_rmses()));
        }
    }
}

impl MergeableAccumulator for Best {
    fn merge(&mut self, later: Self) {
        if let Some((idx, err, fold_rmses)) = later.0 {
            self.observe(idx, err, || fold_rmses);
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

/// Build a bellwether cube with the algebraic-rollup optimization, under
/// `problem.error_measure` (see the module docs).
pub fn build_optimized_cube(
    source: &dyn TrainingSource,
    region_space: &RegionSpace,
    item_space: &RegionSpace,
    item_coords: &HashMap<i64, Vec<u32>>,
    problem: &BellwetherConfig,
    cube_cfg: &CubeConfig,
) -> Result<BellwetherCube> {
    let folds = match problem.error_measure {
        ErrorMeasure::TrainingSet => None,
        // The builder rejects this too, but the fields are public.
        ErrorMeasure::CrossValidation { folds, .. } if folds < 2 => {
            return Err(BellwetherError::Config(format!(
                "cross-validation needs at least 2 folds, got {folds}"
            )));
        }
        ErrorMeasure::CrossValidation { folds, seed } => Some((folds, seed)),
    };
    let _timer = span!(problem.recorder, "cube/optimized");
    let index = super::significant_subsets(item_space, item_coords, cube_cfg)?;
    let lattice = Lattice::new(item_space, item_coords, &index.order, folds);
    let p = source.feature_arity();
    // Per significant subset, the region whose rolled-up statistic reads
    // the lowest error.
    let scanned = scan_regions(
        source,
        problem.parallelism,
        problem.scan_policy,
        |_| true,
        || WithScratch {
            acc: (0..lattice.subset_slots.len()).map(|_| Best(None)).collect(),
            scratch: RollScratch::default(),
        },
        |ws: &mut WithScratch<Vec<Best>, RollScratch>, idx, block| {
            let RollScratch { sums, terms, folded, eval } = &mut ws.scratch;
            lattice.roll(block, sums, terms);
            let stride = lattice.stride(block.p as usize);
            for (best, &slot) in ws.acc.iter_mut().zip(&lattice.subset_slots) {
                let stats = &sums[slot * stride..][..stride];
                let n = stats[0] as usize;
                if n < problem.min_examples.max(1) {
                    continue;
                }
                // One solve, or k downdate-and-solve steps.
                let err = match folds {
                    None => eval.training_value_flat(p, n, &stats[1..]),
                    Some((k, _)) => {
                        folded.load_flat(p, k, stats);
                        let fold_rmses = eval.algebraic_fold_rmses(folded);
                        (!fold_rmses.is_empty()).then(|| ErrorEstimate::from_folds(fold_rmses).value)
                    }
                };
                if let Some(err) = err {
                    best.observe(idx, err, || eval.fold_rmses().to_vec());
                }
            }
            Ok(())
        },
    )?;
    scanned.record_skipped(problem.recorder.as_ref());
    let WithScratch { acc: best, scratch } = scanned.acc;
    record_eval_stats(problem.recorder.as_ref(), &scratch.eval.stats);

    let winners: Vec<Option<usize>> =
        best.iter().map(|best| best.0.as_ref().map(|w| w.0)).collect();
    let cells = finalize_cells(source, region_space, item_space, &index, problem, &winners, |slot, rows| {
        match (folds, &best[slot].0) {
            (Some(_), Some((_, _, fold_rmses))) => Some(ErrorEstimate::from_folds(fold_rmses)),
            _ => rows.estimate(problem),
        }
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
    use bellwether_cube::Parallelism;
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

    fn cv_problem(folds: usize, seed: u64) -> BellwetherConfig {
        let mut problem = problem();
        problem.error_measure = ErrorMeasure::CrossValidation { folds, seed };
        problem
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
        let before = src.snapshot().regions_read();
        let cube =
            build_optimized_cube(&src, &region_space, &item_space, &coords, &problem(), &cfg())
                .unwrap();
        // One full scan + one targeted read per distinct winning region.
        let winners: std::collections::HashSet<usize> =
            cube.cells.values().map(|c| c.region_index).collect();
        assert_eq!(
            src.snapshot().regions_read() - before,
            src.num_regions() as u64 + winners.len() as u64
        );
    }

    #[test]
    fn cv_cube_matches_direct_fold_computation() {
        use bellwether_linreg::RegSuffStats;
        let (src, region_space, _items, item_space, coords) = cube_fixture();
        let folds = 3;
        let seed = 99;
        let cube = build_optimized_cube(
            &src,
            &region_space,
            &item_space,
            &coords,
            &cv_problem(folds, seed),
            &cfg(),
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
        let cube = build_optimized_cube(
            &src,
            &region_space,
            &item_space,
            &coords,
            &cv_problem(4, 7),
            &cfg(),
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
        // The config builder refuses these too, but the fields are
        // public; `hash_fold` cannot take zero folds.
        for folds in [0, 1] {
            let bad = cv_problem(folds, 0);
            let err = build_optimized_cube(&src, &region_space, &item_space, &coords, &bad, &cfg());
            assert!(matches!(err, Err(BellwetherError::Config(_))), "{folds} folds");
        }
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
                    let mut problem = problem.clone();
                    if cv {
                        problem.error_measure = ErrorMeasure::CrossValidation { folds, seed };
                    }
                    problem.parallelism = Parallelism::fixed(threads).with_min_chunk(1);
                    let cube = build_optimized_cube(&src, &region_space, &item_space, &coords, &problem, &cube_cfg);
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
