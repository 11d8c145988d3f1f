//! The unified builder answer: every bellwether construction — basic
//! search, linear-criterion search, the two trees, the three cubes —
//! reduces to one [`BellwetherReport`] describing the chosen region, its
//! fitted model and diagnostics, and the skipped-region accounting.
//!
//! Before this type each builder returned its own ad-hoc shape (result
//! struct + `bellwether()` tuples + root-node `NodeInfo` + root
//! `SubsetCell`), and every consumer — examples, the snapshot extractor,
//! the serving layer — re-implemented the "what did the build find"
//! unpacking. The richer per-builder results remain available (region
//! sweeps, per-cell tables, tree introspection); `report()` is the
//! single summary shape they all share.

use crate::basic::{BasicSearchResult, LinearSearchResult};
use crate::cube::BellwetherCube;
use crate::tree::{BellwetherTree, NodeInfo};
use bellwether_cube::RegionId;
use bellwether_linreg::{ErrorEstimate, LinearModel};

/// What a bellwether build found: the chosen region, the model fit on
/// it, error diagnostics, and which regions the scan had to skip.
#[derive(Debug, Clone)]
pub struct BellwetherReport {
    /// The bellwether region.
    pub region: RegionId,
    /// Display label, e.g. `[1-8, MD]`.
    pub label: String,
    /// Index of the region in the training source's scan order.
    pub region_index: usize,
    /// The quantity the builder minimised: the error estimate for
    /// constrained searches/trees/cubes, the combined
    /// `error + w₁·cost − w₂·coverage` for the linear criterion.
    pub score: f64,
    /// Point estimate of the bellwether model's error.
    pub error: f64,
    /// §6 confidence bounds on the error, when the builder computed them
    /// (cross-validated searches and cubes; `None` for tree nodes, whose
    /// stored error is a point estimate).
    pub error_bounds: Option<ErrorEstimate>,
    /// The fitted bellwether model.
    pub model: LinearModel,
    /// Training examples behind the model.
    pub n_examples: usize,
    /// Ascending source indices of regions skipped as unreadable during
    /// the build (empty under a `Strict` scan policy). Non-empty means
    /// the report is degraded: those regions were never considered.
    pub skipped_regions: Vec<usize>,
}

impl BellwetherReport {
    /// One-line human summary, the shape the examples print.
    pub fn summary(&self) -> String {
        let skipped = if self.skipped_regions.is_empty() {
            String::new()
        } else {
            format!(", {} regions skipped", self.skipped_regions.len())
        };
        format!(
            "bellwether {} (score {:.4}, error {:.4}, n={}{})",
            self.label, self.score, self.error, self.n_examples, skipped
        )
    }
}

impl BasicSearchResult {
    /// The unified report for this search, if a bellwether was found.
    pub fn report(&self) -> Option<BellwetherReport> {
        let best = self.bellwether()?;
        Some(BellwetherReport {
            region: best.region.clone(),
            label: best.label.clone(),
            region_index: best.source_index,
            score: best.error.value,
            error: best.error.value,
            error_bounds: Some(best.error),
            model: best.model.clone(),
            n_examples: best.n_examples,
            skipped_regions: self.skipped_regions.clone(),
        })
    }
}

impl LinearSearchResult {
    /// The unified report for this search, if a bellwether was found.
    /// `score` is the linear-criterion value, not the raw error.
    pub fn report(&self) -> Option<BellwetherReport> {
        let (best, score) = self.bellwether()?;
        Some(BellwetherReport {
            region: best.region.clone(),
            label: best.label.clone(),
            region_index: best.source_index,
            score,
            error: best.error.value,
            error_bounds: Some(best.error),
            model: best.model.clone(),
            n_examples: best.n_examples,
            skipped_regions: self.skipped_regions.clone(),
        })
    }
}

impl NodeInfo {
    /// The unified report of a search that found this bellwether and
    /// skipped `skipped_regions` on the way.
    pub(crate) fn report(&self, skipped_regions: &[usize]) -> BellwetherReport {
        BellwetherReport {
            region: self.region.clone(),
            label: self.label.clone(),
            region_index: self.region_index,
            score: self.error,
            error: self.error,
            error_bounds: None,
            model: self.model.clone(),
            n_examples: self.n_examples,
            skipped_regions: skipped_regions.to_vec(),
        }
    }
}

impl BellwetherTree {
    /// The unified report for this tree: the *root* node's bellwether —
    /// the single-region answer an item falls back to before any
    /// routing. Per-leaf models stay on the tree itself.
    pub fn report(&self) -> Option<BellwetherReport> {
        Some(self.root().info.as_ref()?.report(&self.skipped_regions))
    }
}

impl BellwetherCube {
    /// The unified report for this cube: the *root* cell's bellwether —
    /// the whole-population answer before any subset refinement. Per-cell
    /// models stay on the cube itself.
    pub fn report(&self) -> Option<BellwetherReport> {
        let cell = self.root_cell()?;
        Some(BellwetherReport {
            region: cell.region.clone(),
            label: cell.region_label.clone(),
            region_index: cell.region_index,
            score: cell.error.value,
            error: cell.error.value,
            error_bounds: Some(cell.error),
            model: cell.model.clone(),
            n_examples: cell.n_examples,
            skipped_regions: self.skipped_regions.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::cube::naive::build_naive_cube;
    use crate::cube::tests_support::cube_fixture;
    use crate::cube::CubeConfig;
    use crate::problem::{BellwetherConfig, ErrorMeasure};
    use crate::tree::rainforest::build_rainforest;
    use crate::tree::tests_support::two_group_fixture;
    use crate::tree::TreeConfig;
    use crate::basic::basic_search;
    use bellwether_cube::UniformCellCost;

    fn problem() -> BellwetherConfig {
        BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(4)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap()
    }

    #[test]
    fn basic_search_report_matches_best_region() {
        let (src, space, items) = two_group_fixture();
        let cost = UniformCellCost { rate: 1.0 };
        let result = basic_search(&src, &space, &cost, &problem(), items.len()).unwrap();
        let report = result.report().expect("bellwether found");
        let best = result.bellwether().unwrap();
        assert_eq!(report.label, best.label);
        assert_eq!(report.region_index, best.source_index);
        assert_eq!(report.score, best.error.value);
        assert_eq!(report.error_bounds.unwrap().value, best.error.value);
        assert!(report.skipped_regions.is_empty());
        assert!(report.summary().contains(&report.label));
    }

    #[test]
    fn tree_report_is_the_root_bellwether() {
        let (src, space, items) = two_group_fixture();
        let tree = build_rainforest(
            &src,
            &space,
            &items,
            None,
            &problem(),
            &TreeConfig { min_node_items: 8, ..TreeConfig::default() },
        )
        .unwrap();
        let report = tree.report().expect("root modelled");
        let info = tree.root().info.as_ref().unwrap();
        assert_eq!(report.label, info.label);
        assert_eq!(report.error, info.error);
        assert!(report.error_bounds.is_none());
        assert_eq!(report.n_examples, info.n_examples);
    }

    #[test]
    fn cube_report_is_the_root_cell() {
        let (src, region_space, items, item_space, coords) = cube_fixture();
        let cube = build_naive_cube(
            &src,
            &region_space,
            &item_space,
            &coords,
            &problem(),
            &CubeConfig { min_subset_size: 4 },
        )
        .unwrap();
        let _ = items;
        let report = cube.report().expect("root cell modelled");
        let root = cube.root_cell().unwrap();
        assert_eq!(report.label, root.region_label);
        assert_eq!(report.region_index, root.region_index);
        assert_eq!(report.score, root.error.value);
    }
}
