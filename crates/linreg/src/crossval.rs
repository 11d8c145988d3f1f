//! The fold assignment of k-fold cross-validation (§2 of the paper).
//!
//! The dataset is shuffled deterministically by seed and split into `k`
//! near-equal folds; for each fold a model is trained on the complement
//! and evaluated (RMSE) on the fold, and the cross-validation error is
//! the mean fold RMSE with a standard error from the fold spread —
//! exactly the estimate Figures 7–9 are built on. The estimate itself is
//! [`crate::folded::EvalScratch::cv_estimate`]; the refit computation it
//! replaced lives on below as the `#[cfg(test)]` module `oracle` its
//! bit-identity tests compare against.

use crate::stats::SplitMix64;

/// Assign each of `n` rows to one of `k` folds, shuffled by `seed`.
/// Fold sizes differ by at most one. `k` is clamped to `n`.
pub fn fold_assignment(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut order = Vec::new();
    let mut folds = Vec::new();
    fold_assignment_into(n, k, seed, &mut order, &mut folds);
    folds
}

/// [`fold_assignment`] writing into caller-provided buffers (both are
/// overwritten and end with length `n`; `order` is the shuffle
/// workspace). No heap allocation once the buffers are warm — the
/// algebraic CV engine calls this once per region.
pub fn fold_assignment_into(
    n: usize,
    k: usize,
    seed: u64,
    order: &mut Vec<usize>,
    folds: &mut Vec<usize>,
) {
    let k = k.max(1).min(n.max(1));
    order.clear();
    order.extend(0..n);
    SplitMix64::new(seed).shuffle(order);
    folds.clear();
    folds.resize(n, 0);
    for (pos, &row) in order.iter().enumerate() {
        folds[row] = pos % k;
    }
}

/// Refit cross-validation and the two-pass training-set estimate: what
/// the algebraic engine computes, the slow and obvious way.
#[cfg(test)]
pub(crate) mod oracle {
    use super::fold_assignment;
    use crate::confint::ErrorEstimate;
    use crate::dataset::RegressionData;
    use crate::model::fit_wls;
    use crate::suffstats::RegSuffStats;

    /// The result of a cross-validation run.
    #[derive(Debug, Clone)]
    pub struct CvResult {
        /// RMSE per fold (folds that could not fit a model are skipped).
        pub fold_rmses: Vec<f64>,
    }

    impl CvResult {
        /// The cross-validation error estimate (mean fold RMSE ± spread).
        pub fn estimate(&self) -> ErrorEstimate {
            ErrorEstimate::from_folds(&self.fold_rmses)
        }
    }

    /// k-fold cross-validated RMSE of a WLS linear model on `data`.
    ///
    /// Returns `None` when no fold could train a model (dataset smaller than
    /// the feature count), mirroring how the search treats unfittable regions
    /// as infeasible.
    pub fn cross_validate(data: &RegressionData, k: usize, seed: u64) -> Option<CvResult> {
        let n = data.n();
        if n < 2 {
            return None;
        }
        let assignment = fold_assignment(n, k, seed);
        let k = assignment.iter().copied().max().map_or(1, |m| m + 1);

        // Fold-complement training via sufficient statistics: accumulate the
        // full-data statistic once, then subtract each fold — O(n·p²) total
        // instead of O(k·n·p²). Subtraction is exact because the statistic is
        // a sum of per-example terms.
        let full = RegSuffStats::from_dataset(data);
        let mut fold_stats: Vec<RegSuffStats> = (0..k).map(|_| RegSuffStats::new(data.p())).collect();
        for (i, &f) in assignment.iter().enumerate() {
            fold_stats[f].add_from_cols(data.cols(), i, data.y(i), data.w(i));
        }

        let mut fold_rmses = Vec::with_capacity(k);
        #[allow(clippy::needless_range_loop)] // fold id is also the label
        for fold in 0..k {
            let mut train = full.clone();
            train.subtract(&fold_stats[fold]);
            let Some(model) = train.fit() else { continue };
            // Evaluate on the held-out fold.
            let beta = model.coefficients();
            let mut sse = 0.0;
            let mut count = 0usize;
            for (i, &f) in assignment.iter().enumerate() {
                if f == fold {
                    let r = data.y(i) - data.predict_at(i, beta);
                    sse += r * r;
                    count += 1;
                }
            }
            if count > 0 {
                fold_rmses.push((sse / count as f64).sqrt());
            }
        }
        if fold_rmses.is_empty() {
            return None;
        }
        Some(CvResult { fold_rmses })
    }

    /// Convenience: cross-validated error estimate, or `None` if unfittable.
    pub fn cross_val_estimate(data: &RegressionData, k: usize, seed: u64) -> Option<ErrorEstimate> {
        cross_validate(data, k, seed).map(|r| r.estimate())
    }

    /// Training-set error estimate: fit on all of `data`, report RMSE on the
    /// same data with `n − p` degrees of freedom (§2 "training-set error").
    pub fn training_set_estimate(data: &RegressionData) -> Option<ErrorEstimate> {
        let stats = RegSuffStats::from_dataset(data);
        let rmse = stats.rmse()?;
        // A linear model's training-set RMSE has a standard error; estimate it
        // with the delta method from the spread of squared residuals so that
        // confidence-based analyses (Fig. 7b) remain usable in training-set
        // mode. Falls back to a point estimate for degenerate fits.
        let model = fit_wls(data)?;
        let sq: Vec<f64> = (0..data.n())
            .map(|i| {
                let r = data.y(i) - data.predict_at(i, model.coefficients());
                r * r
            })
            .collect();
        let std_err = if rmse > 0.0 && sq.len() > 1 {
            crate::stats::sample_std(&sq) / (2.0 * rmse * (sq.len() as f64).sqrt())
        } else {
            0.0
        };
        Some(ErrorEstimate {
            value: rmse,
            std_err,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::*;
    use super::*;
    use crate::dataset::RegressionData;
    use bellwether_prop::check;

    fn noisy_line(n: usize, noise: f64, seed: u64) -> RegressionData {
        let mut rng = SplitMix64::new(seed);
        let mut d = RegressionData::new(2);
        for i in 0..n {
            let x = i as f64 / 10.0;
            let e = (rng.next_u64() as f64 / u64::MAX as f64 - 0.5) * 2.0 * noise;
            d.push(&[1.0, x], 1.0 + 2.0 * x + e);
        }
        d
    }

    #[test]
    fn folds_are_balanced_and_deterministic() {
        let a = fold_assignment(103, 10, 42);
        let b = fold_assignment(103, 10, 42);
        assert_eq!(a, b);
        let mut sizes = [0usize; 10];
        for &f in &a {
            sizes[f] += 1;
        }
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert!(sizes.iter().all(|&s| s == 10 || s == 11));
        assert_ne!(a, fold_assignment(103, 10, 43));
    }

    #[test]
    fn cv_error_tracks_noise() {
        let quiet = cross_validate(&noisy_line(200, 0.01, 1), 10, 7).unwrap();
        let loud = cross_validate(&noisy_line(200, 5.0, 1), 10, 7).unwrap();
        assert_eq!(quiet.fold_rmses.len(), 10);
        assert!(quiet.estimate().value < loud.estimate().value);
        assert!(quiet.estimate().value < 0.02);
    }

    #[test]
    fn cv_close_to_training_error_for_linear_models() {
        // The Fig. 7(c) claim: training-set error ≈ CV error for linear
        // models on reasonable data.
        let d = noisy_line(500, 1.0, 3);
        let cv = cross_val_estimate(&d, 10, 7).unwrap().value;
        let tr = training_set_estimate(&d).unwrap().value;
        assert!(
            (cv - tr).abs() / tr < 0.1,
            "cv {cv} should be within 10% of training {tr}"
        );
    }

    #[test]
    fn too_small_data_returns_none() {
        let mut d = RegressionData::new(3);
        d.push(&[1.0, 2.0, 3.0], 1.0);
        assert!(cross_validate(&d, 10, 0).is_none());
        assert!(training_set_estimate(&d).is_none());
    }

    #[test]
    fn k_clamped_to_n() {
        let d = noisy_line(5, 0.1, 2);
        let r = cross_validate(&d, 10, 0).unwrap();
        assert!(r.fold_rmses.len() <= 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = noisy_line(100, 1.0, 4);
        let a = cross_val_estimate(&d, 10, 11).unwrap();
        let b = cross_val_estimate(&d, 10, 11).unwrap();
        assert_eq!(a.value, b.value);
    }

    /// Moved from `tests/props.rs` with the oracle it exercises.
    #[test]
    fn cv_error_nonnegative_and_finite() {
        check("cv_error_nonnegative_and_finite", 64, |rng| {
            let rows = rng.vec_of(12, 80, |r| (r.f64_in(-5.0, 5.0), r.f64_in(-50.0, 50.0)));
            let k = rng.usize_in(2, 10);
            let seed = rng.next_u64() % 100;
            let mut d = RegressionData::new(2);
            for (x, y) in &rows {
                d.push(&[1.0, *x], *y);
            }
            if let Some(result) = cross_validate(&d, k, seed) {
                for e in &result.fold_rmses {
                    assert!(e.is_finite() && *e >= 0.0);
                }
                let est = result.estimate();
                assert!(est.value >= 0.0);
                assert!(est.std_err >= 0.0);
            }
        });
    }
}
