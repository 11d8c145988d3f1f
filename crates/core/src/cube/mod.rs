//! Bellwether cubes (§6): a bellwether region (and model) for **every**
//! significant cube subset of items induced by the item hierarchies.
//!
//! Three construction algorithms, in increasing sophistication:
//!
//! * [`naive::build_naive_cube`] — solve a basic bellwether problem per
//!   subset (re-scans the entire training data per subset);
//! * [`single_scan::build_single_scan_cube`] — one scan over the entire
//!   training data, keeping a `MinError` entry per subset (Lemma 2);
//! * [`optimized::build_optimized_cube`] — the single scan, but per
//!   region the per-subset models come from rolling the Theorem-1
//!   sufficient statistic up the item-hierarchy lattice instead of
//!   refitting each subset from raw rows.
//!
//! All three produce the same cube; the integration tests assert it.

pub mod naive;
pub mod optimized;
pub mod predict;
pub mod single_scan;

use crate::error::{BellwetherError, Result};
use crate::eval::{RegionEvalScratch, WinnerFits};
use crate::items::ItemIndex;
use crate::problem::BellwetherConfig;
use bellwether_cube::{rollup_lattice, RegionId, RegionSpace};
use bellwether_linreg::{ErrorEstimate, LinearModel};
use bellwether_storage::TrainingSource;
use std::collections::{HashMap, HashSet};

/// Construction parameters specific to cubes.
#[derive(Debug, Clone)]
pub struct CubeConfig {
    /// Size threshold K: only subsets with at least this many items get
    /// a cell (§6.2, "significant subsets").
    pub min_subset_size: usize,
}

impl Default for CubeConfig {
    fn default() -> Self {
        CubeConfig {
            min_subset_size: 30,
        }
    }
}

impl CubeConfig {
    /// Start building from the defaults, with validation at
    /// [`CubeConfigBuilder::build`] time.
    pub fn builder() -> CubeConfigBuilder {
        CubeConfigBuilder(CubeConfig::default())
    }
}

/// Builder for [`CubeConfig`] with typed validation, matching
/// `BellwetherConfig::builder` in style.
#[derive(Debug, Clone, Default)]
pub struct CubeConfigBuilder(CubeConfig);

impl CubeConfigBuilder {
    /// Size threshold K (≥ 1): only subsets with at least this many
    /// items get a cell.
    pub fn min_subset_size(mut self, k: usize) -> Self {
        self.0.min_subset_size = k;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<CubeConfig> {
        if self.0.min_subset_size == 0 {
            return Err(BellwetherError::Config(
                "min_subset_size must be at least 1".to_string(),
            ));
        }
        Ok(self.0)
    }
}

/// One cube cell: the bellwether for one item subset.
#[derive(Debug, Clone)]
pub struct SubsetCell {
    /// The cube subset (item-space coordinates).
    pub subset: RegionId,
    /// Subset display label, e.g. `[Hardware, Low]`.
    pub label: String,
    /// Number of items in the subset.
    pub size: usize,
    /// Scan index of the bellwether region.
    pub region_index: usize,
    /// The bellwether region for this subset.
    pub region: RegionId,
    /// Region display label.
    pub region_label: String,
    /// Error estimate of the bellwether model.
    pub error: ErrorEstimate,
    /// The bellwether model (trained on the subset's items in the
    /// region).
    pub model: LinearModel,
    /// Training examples behind the model.
    pub n_examples: usize,
}

/// A fitted bellwether cube.
#[derive(Debug, Clone)]
pub struct BellwetherCube {
    /// The item-hierarchy product space.
    pub item_space: RegionSpace,
    /// Leaf coordinates of every item (for prediction routing).
    pub item_coords: HashMap<i64, Vec<u32>>,
    /// One cell per significant subset that could be modelled.
    pub cells: HashMap<RegionId, SubsetCell>,
    /// Region indices skipped as unreadable during construction
    /// (sorted, deduplicated across all scans). Empty under
    /// [`crate::scan::ScanPolicy::Strict`]; non-empty marks the cube as
    /// a degraded result built without those regions.
    pub skipped_regions: Vec<usize>,
}

impl BellwetherCube {
    /// The cell of a subset, if present.
    pub fn cell(&self, subset: &RegionId) -> Option<&SubsetCell> {
        self.cells.get(subset)
    }

    /// The cube's cell for the full item set `[Any, …, Any]` (all roots).
    pub fn root_cell(&self) -> Option<&SubsetCell> {
        self.cells.get(&RegionId(vec![0; self.item_space.arity()]))
    }
}

/// Membership structures shared by all three construction algorithms.
#[derive(Debug)]
pub struct SubsetIndex {
    /// Item ids per significant subset.
    pub members: HashMap<RegionId, HashSet<i64>>,
    /// Significant subsets in deterministic order.
    pub order: Vec<RegionId>,
}

/// Select the significant subsets (|S| ≥ K) and their member sets from
/// the items' leaf coordinates — the iceberg-query step of Figure 7 in
/// the paper, computed here by a count rollup over the lattice.
pub fn significant_subsets(
    item_space: &RegionSpace,
    item_coords: &HashMap<i64, Vec<u32>>,
    config: &CubeConfig,
) -> Result<SubsetIndex> {
    if item_coords.is_empty() {
        return Err(BellwetherError::Config("no items with coordinates".into()));
    }
    // Base subsets: group items by their leaf coordinate combination.
    let mut base: HashMap<RegionId, HashSet<i64>> = HashMap::new();
    for (&id, coords) in item_coords {
        base.entry(RegionId(coords.clone()))
            .or_default()
            .insert(id);
    }
    // Roll member sets up the lattice (set union is trivially
    // distributive over the disjoint base subsets).
    let members = rollup_lattice(item_space, base, |a, b| {
        a.extend(b.iter().copied());
    });
    let mut order: Vec<RegionId> = members
        .iter()
        .filter(|(_, s)| s.len() >= config.min_subset_size)
        .map(|(k, _)| k.clone())
        .collect();
    order.sort();
    let members = members
        .into_iter()
        .filter(|(k, _)| order.binary_search(k).is_ok())
        .collect();
    Ok(SubsetIndex { members, order })
}

/// Turn every subset's winning region (`winners[slot]` for
/// `index.order[slot]`, as a scan index) into a full cell: the model
/// fitted to the subset's rows of that region's block, with the estimate
/// `error(slot, rows)` gives for it — computed over those rows
/// ([`RegionEvalScratch::estimate`]: one statistics pass serves it and
/// the fit) or carried over from the scan. Shared by all four
/// construction algorithms.
///
/// Winners repeat — subsets that share a bellwether, nested subsets most
/// of all — so cells are finalized in ascending region order through one
/// [`WinnerFits`]: each distinct winning region is read **once**, its
/// block held across the cells it wins, and the first failing re-read
/// (lowest region index) is the error returned.
pub(crate) fn finalize_cells(
    source: &dyn TrainingSource,
    region_space: &RegionSpace,
    item_space: &RegionSpace,
    index: &SubsetIndex,
    problem: &BellwetherConfig,
    winners: &[Option<usize>],
    mut error: impl FnMut(usize, &mut RegionEvalScratch) -> Option<ErrorEstimate>,
) -> Result<HashMap<RegionId, SubsetCell>> {
    let mut todo: Vec<(usize, usize)> = winners
        .iter()
        .enumerate()
        .filter_map(|(slot, region)| Some(((*region)?, slot)))
        .collect();
    todo.sort_unstable();
    let mut fits = WinnerFits::new(source, problem);
    let mut cells = HashMap::new();
    for (region_index, slot) in todo {
        let subset = &index.order[slot];
        let ids = &index.members[subset];
        let keep: ItemIndex = ids.iter().copied().collect();
        let Some(w) = fits.fit(region_index, &keep, |rows| error(slot, rows))? else {
            continue;
        };
        cells.insert(
            subset.clone(),
            SubsetCell {
                label: item_space.label(subset),
                subset: subset.clone(),
                size: ids.len(),
                region_index,
                region_label: region_space.label(&w.region),
                region: w.region,
                error: w.error,
                model: w.model,
                n_examples: w.n_examples,
            },
        );
    }
    Ok(cells)
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::items::ItemTable;
    use bellwether_cube::{Dimension, Hierarchy};
    use crate::seeded::hash_fold;
    use bellwether_linreg::{fit_wls, EvalScratch, FoldedSuffStats, RegressionData};
    use bellwether_storage::{MemorySource, RegionBlock};
    use bellwether_table::{Column, DataType, Schema, Table};

    /// The finalize every builder ran per cell before
    /// [`finalize_cells`], kept as its oracle: one targeted read, a hash
    /// probe per row, one statistics pass for the estimate and another
    /// for the fit.
    pub fn finalize_cell(
        source: &dyn TrainingSource,
        region_space: &RegionSpace,
        item_space: &RegionSpace,
        subset: &RegionId,
        ids: &HashSet<i64>,
        problem: &BellwetherConfig,
        region_index: usize,
    ) -> Result<Option<SubsetCell>> {
        let block = source
            .read_region(region_index)
            .map_err(|source| BellwetherError::RegionRead {
                index: region_index,
                source,
            })?;
        let rows: Vec<usize> = (0..block.n())
            .filter(|&i| ids.contains(&block.item_ids[i]))
            .collect();
        let mut data = RegressionData::new(block.p as usize);
        data.extend_from_cols_gather(block.cols(), &block.targets, &rows);
        let estimate = problem.error_measure.estimate_with(&data, &mut EvalScratch::new());
        let (Some(error), Some(model)) = (estimate, fit_wls(&data)) else {
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

    /// The per-block scan the optimized cubes ran before the lattice
    /// schedule, kept as their oracle: per block a `HashMap` of base-cell
    /// statistics fed row by row, rolled up through `rollup_lattice`'s
    /// map, and one allocating solve per subset (`rmse`, or the
    /// algebraic fold RMSEs under `folds`). Per subset of `order`: its
    /// best region, that error, and the fold RMSEs there.
    #[allow(clippy::type_complexity)]
    pub fn scan_by_maps(
        source: &dyn TrainingSource,
        item_space: &RegionSpace,
        item_coords: &HashMap<i64, Vec<u32>>,
        order: &[RegionId],
        problem: &BellwetherConfig,
        folds: Option<(usize, u64)>,
    ) -> Vec<Option<(usize, f64, Vec<f64>)>> {
        let p = source.feature_arity();
        let k = folds.map_or(1, |(k, _)| k);
        let mut best: HashMap<RegionId, (usize, f64, Vec<f64>)> = HashMap::new();
        let mut eval = EvalScratch::new();
        for idx in 0..source.num_regions() {
            let block = source.read_region(idx).unwrap();
            let mut base: HashMap<RegionId, FoldedSuffStats> = HashMap::new();
            for (row, id) in block.item_ids.iter().enumerate() {
                let Some(coords) = item_coords.get(id) else { continue };
                let stats = base
                    .entry(RegionId(coords.clone()))
                    .or_insert_with(|| FoldedSuffStats::new(p, k));
                let fold = folds.map_or(0, |(k, seed)| hash_fold(*id, k, seed));
                stats.add_from_cols(block.cols(), row, block.targets[row], 1.0, fold);
            }
            let rolled = rollup_lattice(item_space, base, |a, b| a.merge(b));
            for subset in order {
                let Some(stats) = rolled.get(subset) else { continue };
                if stats.n() < problem.min_examples.max(1) {
                    continue;
                }
                let (err, fold_rmses) = if folds.is_some() {
                    let fold_rmses = eval.algebraic_fold_rmses(stats).to_vec();
                    if fold_rmses.is_empty() {
                        continue;
                    }
                    (ErrorEstimate::from_folds(&fold_rmses).value, fold_rmses)
                } else {
                    let Some(err) = stats.total().rmse() else { continue };
                    (err, Vec::new())
                };
                let slot = best.entry(subset.clone()).or_insert((idx, f64::INFINITY, Vec::new()));
                if err < slot.1 {
                    *slot = (idx, err, fold_rmses);
                }
            }
        }
        order.iter().map(|subset| best.remove(subset)).collect()
    }

    /// Item space: one hierarchy Any → {ga, gb}; 24 items, half per
    /// leaf. Region space: All/{ra, rb}. Group ga is perfectly
    /// predictable in ra, gb in rb, the union in neither.
    pub fn cube_fixture() -> (
        MemorySource,
        RegionSpace,
        ItemTable,
        RegionSpace,
        HashMap<i64, Vec<u32>>,
    ) {
        let region_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
            "L",
            "All",
            &["ra", "rb"],
        ))]);
        let item_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
            "G",
            "Any",
            &["ga", "gb"],
        ))]);

        let n = 24i64;
        let is_a = |i: i64| i < 12;
        let fa = |i: i64| (3 * i + 1) as f64;
        let fb = |i: i64| (i + 7) as f64;
        let junk = |i: i64, s: i64| ((i * 29 + s * 17) % 13) as f64;
        let target = |i: i64| if is_a(i) { 2.0 * fa(i) } else { -4.0 * fb(i) };

        let mut all = RegionBlock::new(vec![0], 2);
        let mut ra = RegionBlock::new(vec![1], 2);
        let mut rb = RegionBlock::new(vec![2], 2);
        for i in 0..n {
            let f_ra = if is_a(i) { fa(i) } else { junk(i, 1) };
            let f_rb = if is_a(i) { junk(i, 2) } else { fb(i) };
            ra.push(i, &[1.0, f_ra], target(i));
            rb.push(i, &[1.0, f_rb], target(i));
            all.push(i, &[1.0, junk(i, 3)], target(i));
        }
        let source = MemorySource::new(vec![all, ra, rb]);

        let table = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("g", DataType::Str)]).unwrap(),
            vec![
                Column::from_ints((0..n).collect()),
                Column::from_strs(
                    &(0..n)
                        .map(|i| if is_a(i) { "ga" } else { "gb" })
                        .collect::<Vec<_>>(),
                ),
            ],
        )
        .unwrap();
        let items = ItemTable::from_table(&table, "id", &[], &["g"]).unwrap();
        let item_coords = items
            .leaf_coords(
                &[match &item_space.dims()[0] {
                    Dimension::Hierarchy(h) => h.clone(),
                    _ => unreachable!(),
                }],
                &["g"],
            )
            .unwrap();
        (source, region_space, items, item_space, item_coords)
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{cube_fixture, finalize_cell};
    use super::*;
    use crate::problem::ErrorMeasure;
    use bellwether_cube::{Dimension, Hierarchy};
    use bellwether_prop::{check, Rng};
    use bellwether_storage::{FaultPlan, FaultySource, MemorySource, RegionBlock};

    /// Six item groups under one root, and `regions` random blocks in
    /// which some items are missing, some repeat, and some rows belong
    /// to no item.
    fn random_cube_input(
        rng: &mut Rng,
        regions: u32,
    ) -> (MemorySource, RegionSpace, RegionSpace, SubsetIndex) {
        let names: Vec<String> = (0..regions - 1).map(|r| format!("r{r}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let region_space =
            RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat("L", "All", &names))]);
        let leaves = ["g0", "g1", "g2", "g3", "g4", "g5"];
        let item_space =
            RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat("G", "Any", &leaves))]);
        let n_items = rng.usize_in(30, 90) as i64;
        let coords: HashMap<i64, Vec<u32>> = (0..n_items)
            .map(|id| (7 * id - 100, vec![1 + rng.below(6) as u32]))
            .collect();
        let blocks = (0..regions)
            .map(|r| {
                let mut b = RegionBlock::new(vec![r], 3);
                for id in 0..n_items + 5 {
                    for _ in 0..[0, 1, 1, 1, 2][rng.below(5)] {
                        let x = [1.0, rng.f64_in(-9.0, 9.0), rng.f64_in(0.0, 1e3)];
                        b.push(7 * id - 100, &x, rng.f64_in(-50.0, 50.0));
                    }
                }
                b
            })
            .collect();
        let index =
            significant_subsets(&item_space, &coords, &CubeConfig { min_subset_size: 3 }).unwrap();
        (MemorySource::new(blocks), region_space, item_space, index)
    }

    /// [`finalize_cells`] as the three paper builders call it.
    fn finalize(
        source: &dyn TrainingSource,
        region_space: &RegionSpace,
        item_space: &RegionSpace,
        index: &SubsetIndex,
        problem: &BellwetherConfig,
        winners: &[Option<usize>],
    ) -> Result<HashMap<RegionId, SubsetCell>> {
        finalize_cells(source, region_space, item_space, index, problem, winners, |_, rows| {
            rows.estimate(problem)
        })
    }

    fn problem(measure: ErrorMeasure) -> BellwetherConfig {
        BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(4)
            .error_measure(measure)
            .build()
            .unwrap()
    }

    #[test]
    fn finalize_cells_equals_the_per_cell_finalize_and_reads_each_winner_once() {
        check("finalize_cells_vs_per_cell", 24, |rng| {
            let regions = rng.u32_in(2, 7);
            let (src, region_space, item_space, index) = random_cube_input(rng, regions);
            let measure = if rng.flip(0.5) {
                ErrorMeasure::TrainingSet
            } else {
                ErrorMeasure::CrossValidation {
                    folds: rng.usize_in(2, 6),
                    seed: rng.next_u64(),
                }
            };
            let problem = problem(measure);
            // Any assignment of winners, not only one a scan would
            // produce: repeated, absent, in no particular order.
            let winners: Vec<Option<usize>> = index
                .order
                .iter()
                .map(|_| (!rng.flip(0.15)).then(|| rng.below(regions as usize)))
                .collect();

            let before = src.snapshot().regions_read();
            let cells = finalize(&src, &region_space, &item_space, &index, &problem, &winners)
                .unwrap();
            let distinct: HashSet<usize> = winners.iter().flatten().copied().collect();
            assert_eq!(src.snapshot().regions_read() - before, distinct.len() as u64);

            let mut expected = 0;
            for (subset, winner) in index.order.iter().zip(&winners) {
                let want = winner.and_then(|region_index| {
                    let ids = &index.members[subset];
                    finalize_cell(&src, &region_space, &item_space, subset, ids, &problem, region_index)
                        .unwrap()
                });
                // `f64`'s `Debug` round-trips, so equal text is equal
                // bits in every float field.
                assert_eq!(format!("{:?}", cells.get(subset)), format!("{:?}", want.as_ref()));
                expected += usize::from(want.is_some());
            }
            assert_eq!(cells.len(), expected);
        });
    }

    #[test]
    fn finalize_cells_names_the_first_unreadable_winner() {
        let mut rng = Rng::new(17);
        let (src, region_space, item_space, index) = random_cube_input(&mut rng, 8);
        let plan = FaultPlan::new(3).corrupt_every(2);
        let corrupt: Vec<usize> = (0..8).filter(|&r| plan.is_corrupt_region(r)).collect();
        assert!(corrupt.len() >= 2 && corrupt.len() < 8, "{corrupt:?}");
        let src = FaultySource::new(src, plan);
        let problem = problem(ErrorMeasure::TrainingSet);
        // Subset order runs against region order, so the first failure
        // in subset order is not the lowest.
        let winners: Vec<Option<usize>> =
            (0..index.order.len()).map(|slot| Some(7 - slot % 8)).collect();
        let failing: Vec<usize> = winners.iter().flatten().copied().filter(|r| corrupt.contains(r)).collect();
        assert!(failing.len() >= 2 && failing[0] > failing[1], "{failing:?}");
        let err =
            finalize(&src, &region_space, &item_space, &index, &problem, &winners).unwrap_err();
        match err {
            BellwetherError::RegionRead { index, .. } => {
                assert_eq!(Some(&index), failing.iter().min());
            }
            other => panic!("expected RegionRead, got {other:?}"),
        }
        // A clean winner set finalizes around the rotten regions.
        let clean = (0..8).find(|r| !corrupt.contains(r)).unwrap();
        let winners = vec![Some(clean); index.order.len()];
        let cells =
            finalize(&src, &region_space, &item_space, &index, &problem, &winners).unwrap();
        assert!(!cells.is_empty());
    }

    #[test]
    fn significant_subsets_respect_threshold() {
        let (_, _, _, item_space, coords) = cube_fixture();
        // 24 items: Any = 24, ga = gb = 12.
        let all = significant_subsets(&item_space, &coords, &CubeConfig { min_subset_size: 1 })
            .unwrap();
        assert_eq!(all.order.len(), 3);
        let k13 = significant_subsets(
            &item_space,
            &coords,
            &CubeConfig {
                min_subset_size: 13,
            },
        )
        .unwrap();
        assert_eq!(k13.order.len(), 1); // only [Any]
        assert_eq!(k13.members[&RegionId(vec![0])].len(), 24);
    }

    #[test]
    fn member_sets_are_correct() {
        let (_, _, _, item_space, coords) = cube_fixture();
        let idx = significant_subsets(&item_space, &coords, &CubeConfig { min_subset_size: 1 })
            .unwrap();
        let ga = &idx.members[&RegionId(vec![1])];
        assert_eq!(ga.len(), 12);
        assert!(ga.contains(&0) && !ga.contains(&12));
    }

    #[test]
    fn empty_items_rejected() {
        let (_, _, _, item_space, _) = cube_fixture();
        let empty = HashMap::new();
        assert!(significant_subsets(&item_space, &empty, &CubeConfig::default()).is_err());
    }
}
