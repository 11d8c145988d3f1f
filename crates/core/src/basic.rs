//! Basic bellwether search (§3.2, §4): among the feasible regions, find
//! the one whose training set yields the minimum-error model.
//!
//! The search runs over an already-materialised [`TrainingSource`] (the
//! entire training data), so a *budget sweep* — the x-axis of Figures 7
//! and 9 — re-filters the same stored regions by cost instead of
//! rebuilding training sets. Regions are evaluated through the shared
//! [`scan_regions`] engine under the config's
//! [`bellwether_cube::Parallelism`] budget; each worker owns a
//! contiguous slice of region indices and reports merge in scan order,
//! so the output is identical for every thread count and the minimum is
//! resolved by (error, region index). Over-budget regions are filtered
//! *before* being read, so a tight budget still means little IO.

use crate::error::Result;
use crate::eval::{record_eval_stats, RegionEvalScratch};
use crate::problem::BellwetherConfig;
use crate::scan::{scan_regions, Concat, Scanned, WithScratch};
use bellwether_cube::{CostModel, RegionId, RegionSpace};
use bellwether_linreg::{ErrorEstimate, LinearModel};
use bellwether_obs::{names, span};
use bellwether_storage::{RegionBlock, TrainingSource};

/// The evaluation of one feasible region.
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// Index of the region in the training source's scan order.
    pub source_index: usize,
    /// The region.
    pub region: RegionId,
    /// Display label, e.g. `[1-8, MD]`.
    pub label: String,
    /// Acquisition cost κ(r).
    pub cost: f64,
    /// Number of training examples (= items with data and targets).
    pub n_examples: usize,
    /// Estimated model error.
    pub error: ErrorEstimate,
    /// The bellwether model candidate, fit on the full region data.
    pub model: LinearModel,
}

/// Result of a basic bellwether search.
#[derive(Debug, Clone)]
pub struct BasicSearchResult {
    /// Reports for every region that passed all constraints and fit a
    /// model, in source order.
    pub reports: Vec<RegionReport>,
    /// Index into `reports` of the bellwether (minimum error), if any.
    pub best: Option<usize>,
    /// Ascending source indices of regions skipped as unreadable under a
    /// `SkipUnreadable` scan policy (empty under `Strict`). A non-empty
    /// list labels the result as degraded: those regions were never
    /// evaluated.
    pub skipped_regions: Vec<usize>,
}

impl BasicSearchResult {
    /// The bellwether region's report.
    pub fn bellwether(&self) -> Option<&RegionReport> {
        self.best.map(|i| &self.reports[i])
    }

    /// Mean error over all feasible regions — the "Avg Err" baseline of
    /// Figure 7(a).
    pub fn average_error(&self) -> Option<f64> {
        if self.reports.is_empty() {
            return None;
        }
        Some(self.reports.iter().map(|r| r.error.value).sum::<f64>() / self.reports.len() as f64)
    }

    /// Fraction of *other* feasible regions whose error lies within the
    /// bellwether's `confidence` interval — Figure 7(b). Low = the
    /// bellwether is nearly unique; high = indistinguishable from many.
    pub fn indistinguishable_fraction(&self, confidence: f64) -> Option<f64> {
        let best = self.bellwether()?;
        let others = self.reports.len().saturating_sub(1);
        if others == 0 {
            return Some(0.0);
        }
        let n = self
            .reports
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                Some(*i) != self.best && best.error.contains(r.error.value, confidence)
            })
            .count();
        Some(n as f64 / others as f64)
    }
}

/// Every region a scan read, with its report (`None` = gated or
/// unfittable), in source order.
pub(crate) type Evaluated = Vec<(usize, Option<RegionReport>)>;

/// The scan under the cold search and the streaming re-score alike:
/// every region `keep` admits and the budget affords is read and
/// evaluated — coverage / min-examples gates, then gather → estimate →
/// fit through a per-worker scratch. Over-budget regions are filtered
/// *before* being read. Skipped regions and the scratch's work
/// counters are recorded here, so cold and streamed reports cannot
/// disagree and neither goes uncounted.
pub(crate) fn evaluate_regions(
    source: &dyn TrainingSource,
    space: &RegionSpace,
    cost_model: &dyn CostModel,
    config: &BellwetherConfig,
    total_items: usize,
    keep: impl Fn(usize) -> bool + Sync,
) -> Result<Scanned<Evaluated>> {
    let min_cov_items = (config.min_coverage * total_items as f64).ceil() as usize;
    let region_of = |idx: usize| RegionId(source.region_coords(idx).to_vec());
    let evaluate = |scratch: &mut RegionEvalScratch, idx: usize, block: &RegionBlock| {
        if block.n() < config.min_examples || block.n() < min_cov_items {
            return None;
        }
        scratch.gather(block, None);
        let error = scratch.estimate(config)?;
        let model = scratch.fit_model()?;
        let region = region_of(idx);
        Some(RegionReport {
            source_index: idx,
            label: space.label(&region),
            cost: cost_model.cost(space, &region),
            region,
            n_examples: block.n(),
            error,
            model,
        })
    };
    let scanned = scan_regions(
        source,
        config.parallelism,
        config.scan_policy,
        |idx| keep(idx) && cost_model.cost(space, &region_of(idx)) <= config.budget,
        || WithScratch {
            acc: Concat::default(),
            scratch: RegionEvalScratch::new(),
        },
        |ws: &mut WithScratch<Concat<_>, RegionEvalScratch>, idx, block| {
            ws.acc.0.push((idx, evaluate(&mut ws.scratch, idx, block)));
            Ok(())
        },
    )?;
    scanned.record_skipped(config.recorder.as_ref());
    let WithScratch { acc, scratch } = scanned.acc;
    record_eval_stats(config.recorder.as_ref(), &scratch.eval.stats);
    Ok(Scanned {
        acc: acc.0,
        skipped: scanned.skipped,
    })
}

/// The bellwether among `reports`, by the key each comes with: minimum
/// error, ties to the lowest source index.
pub(crate) fn min_error<'a>(
    reports: impl IntoIterator<Item = (usize, &'a RegionReport)>,
) -> Option<usize> {
    let order = |a: &RegionReport, b: &RegionReport| {
        let by_error = a.error.value.total_cmp(&b.error.value);
        by_error.then(a.source_index.cmp(&b.source_index))
    };
    let best = reports.into_iter().min_by(|(_, a), (_, b)| order(a, b));
    best.map(|(key, _)| key)
}

/// Run the basic bellwether search under `config`'s budget/coverage over
/// the stored regions. `total_items` is |I|, the coverage denominator.
pub fn basic_search(
    source: &dyn TrainingSource,
    space: &RegionSpace,
    cost_model: &dyn CostModel,
    config: &BellwetherConfig,
    total_items: usize,
) -> Result<BasicSearchResult> {
    let _timer = span!(config.recorder, "search/basic");
    let scanned = evaluate_regions(source, space, cost_model, config, total_items, |_| true)?;
    let reports: Vec<RegionReport> = scanned.acc.into_iter().filter_map(|(_, r)| r).collect();
    let best = min_error(reports.iter().enumerate());
    let n = source.num_regions();
    config.recorder.add(names::SEARCH_REGIONS_EVALUATED, n as u64);
    config.recorder.add(names::SEARCH_REPORTS, reports.len() as u64);
    Ok(BasicSearchResult {
        reports,
        best,
        skipped_regions: scanned.skipped,
    })
}

/// The *linear optimization criterion* of Definition 1: instead of hard
/// constraints, minimise `Error(h_r) + w₁·κ(r) − w₂·Coverage(r)`.
#[derive(Debug, Clone, Copy)]
pub struct LinearCriterion {
    /// Weight w₁ on the region cost.
    pub cost_weight: f64,
    /// Weight w₂ on the coverage fraction.
    pub coverage_weight: f64,
}

/// Result of a linear-criterion search: every modelled region with its
/// combined score, plus the minimiser.
#[derive(Debug, Clone)]
pub struct LinearSearchResult {
    /// Region reports (no budget/coverage filtering — the criterion
    /// trades those off instead).
    pub reports: Vec<RegionReport>,
    /// `Error + w₁·cost − w₂·coverage` per report.
    pub scores: Vec<f64>,
    /// Index of the minimising report.
    pub best: Option<usize>,
    /// Regions skipped as unreadable (see
    /// [`BasicSearchResult::skipped_regions`]).
    pub skipped_regions: Vec<usize>,
}

impl LinearSearchResult {
    /// The winning report and its score.
    pub fn bellwether(&self) -> Option<(&RegionReport, f64)> {
        self.best.map(|i| (&self.reports[i], self.scores[i]))
    }
}

/// Run the basic search under the linear optimization criterion. Every
/// region that can fit a model participates; the score trades error
/// against cost and coverage with the user's weights.
pub fn basic_search_linear(
    source: &dyn TrainingSource,
    space: &RegionSpace,
    cost_model: &dyn CostModel,
    config: &BellwetherConfig,
    total_items: usize,
    criterion: LinearCriterion,
) -> Result<LinearSearchResult> {
    // Reuse the constrained machinery with the constraints disarmed.
    let mut unconstrained = config.clone();
    unconstrained.budget = f64::INFINITY;
    unconstrained.min_coverage = 0.0;
    let base = basic_search(source, space, cost_model, &unconstrained, total_items)?;
    let scores: Vec<f64> = base
        .reports
        .iter()
        .map(|r| {
            let coverage = if total_items == 0 {
                0.0
            } else {
                r.n_examples as f64 / total_items as f64
            };
            r.error.value + criterion.cost_weight * r.cost
                - criterion.coverage_weight * coverage
        })
        .collect();
    let best = scores
        .iter()
        .enumerate()
        .min_by(|(ai, a), (bi, b)| a.total_cmp(b).then(ai.cmp(bi)))
        .map(|(i, _)| i);
    Ok(LinearSearchResult {
        reports: base.reports,
        scores,
        best,
        skipped_regions: base.skipped_regions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ErrorMeasure;
    use bellwether_cube::{Dimension, Hierarchy, Parallelism, UniformCellCost};
    use bellwether_linreg::SplitMix64;
    use bellwether_storage::{MemorySource, RegionBlock};

    /// Three regions: one clean linear signal, one noisy, one tiny.
    fn fixture() -> (MemorySource, RegionSpace) {
        let space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
            "L",
            "All",
            &["good", "noisy"],
        ))]);
        let mut rng = SplitMix64::new(9);
        let mut noise = |amp: f64| (rng.next_u64() as f64 / u64::MAX as f64 - 0.5) * amp;

        // region "good" (node 1): y = 3 + 2x exactly
        let mut good = RegionBlock::new(vec![1], 2);
        for i in 0..40 {
            let x = i as f64;
            good.push(i, &[1.0, x], 3.0 + 2.0 * x);
        }
        // region "noisy" (node 2): heavy noise
        let mut noisy = RegionBlock::new(vec![2], 2);
        for i in 0..40 {
            let x = i as f64;
            noisy.push(i, &[1.0, x], 3.0 + 2.0 * x + noise(60.0));
        }
        // region "All" (node 0): tiny — below min_examples
        let mut all = RegionBlock::new(vec![0], 2);
        for i in 0..3 {
            all.push(i, &[1.0, i as f64], i as f64);
        }
        (MemorySource::new(vec![good, noisy, all]), space)
    }

    fn config() -> BellwetherConfig {
        BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(10)
            .error_measure(ErrorMeasure::cv10())
            .build()
            .unwrap()
    }

    #[test]
    fn finds_the_clean_region() {
        let (src, space) = fixture();
        let cost = UniformCellCost { rate: 1.0 };
        let result = basic_search(&src, &space, &cost, &config(), 40).unwrap();
        assert_eq!(result.reports.len(), 2); // tiny region filtered out
        let best = result.bellwether().unwrap();
        assert_eq!(best.label, "[good]");
        assert!(best.error.value < 1e-6);
        assert!(result.average_error().unwrap() > best.error.value);
    }

    #[test]
    fn budget_filters_regions() {
        let (src, space) = fixture();
        let cost = UniformCellCost { rate: 1.0 }; // leaf = 1, All = 2
        let mut cfg = config();
        cfg.budget = 0.0;
        let result = basic_search(&src, &space, &cost, &cfg, 40).unwrap();
        assert!(result.reports.is_empty());
        assert!(result.bellwether().is_none());
        assert!(result.average_error().is_none());
        assert!(result.indistinguishable_fraction(0.95).is_none());
    }

    #[test]
    fn coverage_filters_regions() {
        let (src, space) = fixture();
        let cost = UniformCellCost { rate: 1.0 };
        let mut cfg = config();
        cfg.min_coverage = 0.9; // requires 45 of 50 items
        let result = basic_search(&src, &space, &cost, &cfg, 50).unwrap();
        assert!(result.reports.is_empty());
    }

    #[test]
    fn indistinguishability_low_for_clear_bellwether() {
        let (src, space) = fixture();
        let cost = UniformCellCost { rate: 1.0 };
        let result = basic_search(&src, &space, &cost, &config(), 40).unwrap();
        // The noisy region is far outside the clean region's tiny CI.
        assert_eq!(result.indistinguishable_fraction(0.95), Some(0.0));
    }

    #[test]
    fn deterministic_across_runs() {
        let (src, space) = fixture();
        let cost = UniformCellCost { rate: 1.0 };
        let a = basic_search(&src, &space, &cost, &config(), 40).unwrap();
        let b = basic_search(&src, &space, &cost, &config(), 40).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.reports.len(), b.reports.len());
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert_eq!(x.error.value, y.error.value);
        }
    }

    #[test]
    fn linear_criterion_trades_error_for_cost() {
        let (src, space) = fixture();
        let cost = UniformCellCost { rate: 1.0 }; // leaves cost 1, All costs 2
        let mut cfg = config();
        cfg.error_measure = ErrorMeasure::TrainingSet;
        // With no cost weight the clean region wins outright.
        let free = basic_search_linear(
            &src,
            &space,
            &cost,
            &cfg,
            40,
            LinearCriterion {
                cost_weight: 0.0,
                coverage_weight: 0.0,
            },
        )
        .unwrap();
        assert_eq!(free.bellwether().unwrap().0.label, "[good]");
        // With an enormous cost weight, differences in cost dominate; the
        // two leaf regions cost the same, so [good] still wins, but the
        // score now reflects the cost term.
        let costly = basic_search_linear(
            &src,
            &space,
            &cost,
            &cfg,
            40,
            LinearCriterion {
                cost_weight: 1e6,
                coverage_weight: 0.0,
            },
        )
        .unwrap();
        let (best, score) = costly.bellwether().unwrap();
        assert_eq!(best.label, "[good]");
        assert!(score > 1e6 * 0.9, "cost term must dominate the score");
        // Coverage weight rewards larger regions.
        let covered = basic_search_linear(
            &src,
            &space,
            &cost,
            &cfg,
            40,
            LinearCriterion {
                cost_weight: 0.0,
                coverage_weight: 1e9,
            },
        )
        .unwrap();
        // Both leaf regions cover all 40 items, so coverage can't
        // distinguish them; the clean region still wins on error.
        assert_eq!(covered.bellwether().unwrap().0.label, "[good]");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (src, space) = fixture();
        let cost = UniformCellCost { rate: 1.0 };
        let mut seq_cfg = config();
        seq_cfg.parallelism = Parallelism::sequential();
        let seq = basic_search(&src, &space, &cost, &seq_cfg, 40).unwrap();
        for t in [2, 4, 8] {
            let mut par_cfg = config();
            // min_chunk 1 so real worker threads engage on 3 regions.
            par_cfg.parallelism = Parallelism::fixed(t).with_min_chunk(1);
            let par = basic_search(&src, &space, &cost, &par_cfg, 40).unwrap();
            assert_eq!(seq.best, par.best);
            assert_eq!(seq.reports.len(), par.reports.len());
            for (a, b) in seq.reports.iter().zip(&par.reports) {
                assert_eq!(a.source_index, b.source_index);
                assert_eq!(a.error.value.to_bits(), b.error.value.to_bits());
            }
        }
    }

    #[test]
    fn training_set_measure_also_works() {
        let (src, space) = fixture();
        let cost = UniformCellCost { rate: 1.0 };
        let mut cfg = config();
        cfg.error_measure = ErrorMeasure::TrainingSet;
        let result = basic_search(&src, &space, &cost, &cfg, 40).unwrap();
        assert_eq!(result.bellwether().unwrap().label, "[good]");
    }

    #[test]
    fn scan_policy_governs_unreadable_regions() {
        use crate::error::BellwetherError;
        use crate::scan::ScanPolicy;
        use bellwether_storage::{FaultPlan, FaultySource};
        let (src, space) = fixture();
        // Every region is permanently corrupt.
        let faulty = FaultySource::new(src, FaultPlan::new(21).corrupt_every(1));
        let cost = UniformCellCost { rate: 1.0 };

        // Strict (the default): the scan fails with the region index.
        let err = basic_search(&faulty, &space, &cost, &config(), 40)
            .expect_err("strict search must surface corruption");
        match err {
            BellwetherError::RegionRead { index, source } => {
                assert_eq!(index, 0);
                assert!(bellwether_storage::is_corrupt(&source), "{source}");
            }
            other => panic!("expected RegionRead, got {other}"),
        }

        // SkipUnreadable: the search completes, reports nothing, and
        // accounts for every dropped region.
        let reg = bellwether_obs::Registry::shared();
        let mut cfg = config();
        cfg.scan_policy = ScanPolicy::SkipUnreadable { max_skipped: 3 };
        cfg.recorder = reg.clone();
        let result = basic_search(&faulty, &space, &cost, &cfg, 40).unwrap();
        assert!(result.reports.is_empty());
        assert_eq!(result.skipped_regions, vec![0, 1, 2]);
        assert_eq!(reg.snapshot().regions_skipped(), 3);
    }

    #[test]
    fn scan_scratch_is_allocation_free_after_warm_up() {
        // Sequential scan → one worker, one scratch. Evaluating a region
        // touches the scratch three times (gather, estimate, model fit),
        // each of which reports grew-vs-warm. The fixture evaluates two
        // same-shaped regions (the tiny one is gated before gathering),
        // so only the first region's touches may grow; the second
        // region's must all be warm.
        let (src, space) = fixture();
        let cost = UniformCellCost { rate: 1.0 };
        let reg = bellwether_obs::Registry::shared();
        let mut cfg = config();
        cfg.parallelism = Parallelism::sequential();
        cfg.recorder = reg.clone();
        basic_search(&src, &space, &cost, &cfg, 40).unwrap();
        let snap = reg.snapshot();
        let grows = snap
            .counter(bellwether_obs::names::LINREG_SCRATCH_GROWS)
            .unwrap_or(0);
        let reuses = snap
            .counter(bellwether_obs::names::LINREG_SCRATCH_REUSES)
            .unwrap_or(0);
        assert!(grows <= 3, "hot loop allocated after warm-up: {grows} grows");
        assert!(reuses >= 3, "expected warm evaluations, got {reuses}");
        assert!(snap.fits() > 0, "engine fits must be recorded");
        assert!(snap.cv_folds_evaluated() >= 20, "2 regions x 10 folds");
    }

    #[test]
    fn search_reports_into_recorder() {
        let (src, space) = fixture();
        let cost = UniformCellCost { rate: 1.0 };
        let reg = bellwether_obs::Registry::shared();
        let cfg = BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(10)
            .error_measure(ErrorMeasure::TrainingSet)
            .recorder(reg.clone())
            .build()
            .unwrap();
        let result = basic_search(&src, &space, &cost, &cfg, 40).unwrap();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(bellwether_obs::names::SEARCH_REGIONS_EVALUATED),
            Some(3)
        );
        assert_eq!(
            snap.counter(bellwether_obs::names::SEARCH_REPORTS),
            Some(result.reports.len() as u64)
        );
        assert_eq!(snap.span("search/basic").unwrap().calls, 1);
    }
}
