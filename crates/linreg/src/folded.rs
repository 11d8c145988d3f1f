//! The algebraic k-fold cross-validation engine (Theorem 1, extended to
//! error *estimation*).
//!
//! Every bellwether builder has to answer the same question thousands of
//! times: "how well does a linear model trained on this region predict
//! the global aggregate?". The refit answer copies rows and solves k
//! Cholesky systems from scratch per region. This module answers it
//! algebraically instead:
//!
//! 1. **One pass** over the region's rows accumulates the total
//!    [`RegSuffStats`] *and* one per fold ([`FoldedSuffStats`]).
//! 2. Each fold's training model is obtained by **downdating** the total
//!    (`total − fold = complement`, exact because the statistic is a sum
//!    of per-example terms) and solving one packed `O(p³)` Cholesky.
//! 3. A second pass over the rows accumulates each fold's held-out SSE
//!    under its complement model — in the same row order as the refit
//!    path (kept as the test oracle `crossval::oracle`), so fold RMSEs
//!    are **bit-identical** to it.
//!
//! All workspace lives in a reusable [`EvalScratch`]: after the first
//! (warm-up) evaluation at a given shape, a scratch performs **zero heap
//! allocations** per region, which [`EvalStats`]'s
//! `scratch_grows`/`scratch_reuses` counters make checkable from tests.

use crate::cholesky::packed_len;
use crate::confint::ErrorEstimate;
use crate::crossval::fold_assignment_into;
use crate::dataset::RegressionData;
use crate::model::LinearModel;
use crate::suffstats::RegSuffStats;

/// One [`RegSuffStats`] per cross-validation fold plus their total,
/// built in a single pass. Mergeable fold-wise (for lattice rollups in
/// the optimized cube) and downdatable fold-wise (for CV training sets).
#[derive(Debug, Clone)]
pub struct FoldedSuffStats {
    k: usize,
    total: RegSuffStats,
    /// First `k` entries are active; extras are kept for buffer reuse.
    folds: Vec<RegSuffStats>,
}

impl FoldedSuffStats {
    /// Empty statistic for `p` features and `k` folds.
    pub fn new(p: usize, k: usize) -> Self {
        let mut s = FoldedSuffStats {
            k: 0,
            total: RegSuffStats::new(p),
            folds: Vec::new(),
        };
        s.reset(p, k);
        s
    }

    /// Zero everything (possibly changing shape) while reusing buffers.
    /// Returns `true` if any buffer had to grow.
    pub fn reset(&mut self, p: usize, k: usize) -> bool {
        let mut grew = self.total.reset(p);
        while self.folds.len() < k {
            self.folds.push(RegSuffStats::new(p));
            grew = true;
        }
        for f in &mut self.folds[..k] {
            grew |= f.reset(p);
        }
        self.k = k;
        grew
    }

    /// Feature width.
    pub fn p(&self) -> usize {
        self.total.p()
    }

    /// Number of folds.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of accumulated examples across all folds.
    pub fn n(&self) -> usize {
        self.total.n()
    }

    /// The all-folds total statistic.
    pub fn total(&self) -> &RegSuffStats {
        &self.total
    }

    /// Fold `f`'s statistic. Panics if `f ≥ k`.
    pub fn fold(&self, f: usize) -> &RegSuffStats {
        assert!(f < self.k, "fold index out of range");
        &self.folds[f]
    }

    /// Fold in one weighted example assigned to fold `fold`.
    pub fn add(&mut self, x: &[f64], y: f64, w: f64, fold: usize) {
        assert!(fold < self.k, "fold index out of range");
        self.total.add(x, y, w);
        self.folds[fold].add(x, y, w);
    }

    /// Fold in one example read from SoA feature columns, assigned to
    /// fold `fold` (the columnar counterpart of [`FoldedSuffStats::add`],
    /// bit-identical to it).
    pub fn add_from_cols(&mut self, cols: &[Vec<f64>], row: usize, y: f64, w: f64, fold: usize) {
        assert!(fold < self.k, "fold index out of range");
        self.total.add_from_cols(cols, row, y, w);
        self.folds[fold].add_from_cols(cols, row, y, w);
    }

    /// Accumulate an entire dataset: the total via the batched
    /// [`RegSuffStats::add_rows`] kernels (its canonical order matches
    /// `RegSuffStats::from_dataset` bit for bit), each fold via the
    /// scalar columnar fold in ascending row order (matching the refit
    /// path's per-fold accumulation).
    pub fn add_dataset(&mut self, data: &RegressionData, assignment: &[usize]) {
        assert_eq!(assignment.len(), data.n(), "one fold per example");
        self.total.add_rows(data);
        let cols = data.cols();
        for (i, &f) in assignment.iter().enumerate() {
            assert!(f < self.k, "fold index out of range");
            self.folds[f].add_from_cols(cols, i, data.y(i), data.w(i));
        }
    }

    /// Overwrite `self` with the unit-weight statistic whose flat form is
    /// `flat`: the total, then folds `0..k`, each as its example count
    /// followed by its [`RegSuffStats::flat_len`] sums. Reuses buffers;
    /// returns `true` if one had to grow.
    pub fn load_flat(&mut self, p: usize, k: usize, flat: &[f64]) -> bool {
        let part = 1 + RegSuffStats::flat_len(p);
        assert_eq!(flat.len(), (k + 1) * part, "flat statistic length mismatch");
        let mut grew = self.folds.len() < k;
        self.folds.resize_with(k.max(self.folds.len()), RegSuffStats::default);
        self.k = k;
        let parts = std::iter::once(&mut self.total).chain(&mut self.folds[..k]);
        for (stats, part) in parts.zip(flat.chunks_exact(part)) {
            grew |= stats.load_flat(p, part[0] as usize, &part[1..]);
        }
        grew
    }

    /// Merge a disjoint subset's folded statistic fold-wise (both
    /// operands must share shape) — the lattice rollup of the optimized
    /// CV cube.
    pub fn merge(&mut self, other: &FoldedSuffStats) {
        assert_eq!(self.k, other.k, "merging different fold counts");
        self.total.merge(&other.total);
        for (a, b) in self.folds[..self.k].iter_mut().zip(&other.folds[..other.k]) {
            a.merge(b);
        }
    }
}

/// Counters for the algebraic engine's work, carried inside each
/// [`EvalScratch`] and merged across scan workers so totals are
/// deterministic regardless of thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Cholesky model fits performed (one per CV fold plus finals).
    pub fits: u64,
    /// Held-out folds whose RMSE was evaluated.
    pub cv_folds_evaluated: u64,
    /// Fits that needed a ridge to rescue a degenerate Gram matrix.
    pub ridge_rescues: u64,
    /// Evaluations served entirely from warm scratch buffers.
    pub scratch_reuses: u64,
    /// Evaluations that had to grow at least one scratch buffer.
    pub scratch_grows: u64,
}

impl EvalStats {
    /// Fold another worker's counters into this one.
    pub fn absorb(&mut self, other: &EvalStats) {
        self.fits += other.fits;
        self.cv_folds_evaluated += other.cv_folds_evaluated;
        self.ridge_rescues += other.ridge_rescues;
        self.scratch_reuses += other.scratch_reuses;
        self.scratch_grows += other.scratch_grows;
    }

    /// Take the counters, leaving zeros behind.
    pub fn take(&mut self) -> EvalStats {
        std::mem::take(self)
    }
}

/// Which buffer, if any, holds the full-data total statistic of the
/// most recent estimate — the cache [`EvalScratch::fit_model_cached`]
/// fits from without re-scanning the rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum CachedTotal {
    #[default]
    None,
    /// `folded.total()` holds the totals for data of this shape
    /// (written by `cv_estimate`'s Pass A).
    Folded { n: usize, p: usize },
    /// `train` holds the totals for data of this shape (written by
    /// `training_estimate`).
    Train { n: usize, p: usize },
}

/// Reusable workspace for the algebraic error engine: folded statistics,
/// the downdated training statistic, fold assignment buffers, per-fold
/// coefficients, and the packed Cholesky factor/solution buffers. One
/// scratch per scan worker makes per-region evaluation allocation-free
/// after warm-up.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    folded: FoldedSuffStats,
    train: RegSuffStats,
    cached_total: CachedTotal,
    order: Vec<usize>,
    assignment: Vec<usize>,
    /// Per-fold coefficients, flattened `k × p`.
    betas: Vec<f64>,
    beta_ok: Vec<bool>,
    fold_sse: Vec<f64>,
    fold_rmses: Vec<f64>,
    factor: Vec<f64>,
    beta_buf: Vec<f64>,
    sq: Vec<f64>,
    /// Work counters, merged across workers by the scan engine.
    pub stats: EvalStats,
}

impl Default for FoldedSuffStats {
    fn default() -> Self {
        FoldedSuffStats::new(0, 0)
    }
}

fn ensure_buf<T: Clone + Default>(v: &mut Vec<T>, len: usize) -> bool {
    let grew = v.capacity() < len;
    v.clear();
    v.resize(len, T::default());
    grew
}

impl EvalScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Fold RMSEs of the most recent evaluation, in ascending fold order
    /// (folds that could not fit a model are skipped).
    pub fn fold_rmses(&self) -> &[f64] {
        &self.fold_rmses
    }

    fn note_shape(&mut self, grew: bool) {
        if grew {
            self.stats.scratch_grows += 1;
        } else {
            self.stats.scratch_reuses += 1;
        }
    }

    /// k-fold cross-validated error of a WLS model on `data`, computed
    /// algebraically (one statistics pass, k downdated packed solves,
    /// one held-out evaluation pass). Fold RMSEs and the resulting
    /// estimate are bit-identical to the refit oracle's
    /// (`crossval::oracle::cross_val_estimate`); `None` under the same
    /// conditions.
    pub fn cv_estimate(&mut self, data: &RegressionData, k: usize, seed: u64) -> Option<ErrorEstimate> {
        self.cached_total = CachedTotal::None;
        let n = data.n();
        if n < 2 {
            return None;
        }
        let p = data.p();

        let mut grew = ensure_buf(&mut self.order, n);
        grew |= ensure_buf(&mut self.assignment, n);
        fold_assignment_into(n, k, seed, &mut self.order, &mut self.assignment);
        let k = self.assignment.iter().copied().max().map_or(1, |m| m + 1);

        grew |= self.folded.reset(p, k);
        grew |= self.train.reset(p);
        grew |= ensure_buf(&mut self.betas, k * p);
        grew |= ensure_buf(&mut self.beta_ok, k);
        grew |= ensure_buf(&mut self.fold_sse, k);
        grew |= ensure_buf(&mut self.factor, packed_len(p));
        grew |= ensure_buf(&mut self.beta_buf, p);
        self.note_shape(grew);

        // Pass A: total + per-fold statistics in one sweep (the total via
        // the batched kernels, so it matches the refit path's
        // `RegSuffStats::from_dataset` bit for bit).
        self.folded.add_dataset(data, &self.assignment);
        // Pass A's total is exactly what a final full-data fit needs —
        // remember it so `fit_model_cached` can skip its own row pass.
        self.cached_total = CachedTotal::Folded { n, p };

        // Fold-complement fits by downdating the total — k packed O(p³)
        // solves, no dataset copies.
        for f in 0..k {
            self.beta_ok[f] = false;
            if self.folded.fold(f).n() == 0 {
                continue;
            }
            self.train.copy_from(self.folded.total());
            self.train.subtract(self.folded.fold(f));
            let Some(diag) = self.train.fit_into(&mut self.factor, &mut self.beta_buf) else {
                continue;
            };
            self.stats.fits += 1;
            if diag.ridged() {
                self.stats.ridge_rescues += 1;
            }
            self.betas[f * p..(f + 1) * p].copy_from_slice(&self.beta_buf);
            self.beta_ok[f] = true;
        }

        // Pass B: held-out SSE per fold. Rows are visited in ascending
        // order, so each fold's accumulation order — and hence its RMSE —
        // is bit-identical to the refit path's per-fold sweeps.
        for s in &mut self.fold_sse[..k] {
            *s = 0.0;
        }
        for (i, &f) in self.assignment.iter().enumerate() {
            if self.beta_ok[f] {
                let beta = &self.betas[f * p..(f + 1) * p];
                let r = data.y(i) - data.predict_at(i, beta);
                self.fold_sse[f] += r * r;
            }
        }

        self.fold_rmses.clear();
        for f in 0..k {
            if self.beta_ok[f] {
                let nf = self.folded.fold(f).n();
                self.fold_rmses.push((self.fold_sse[f] / nf as f64).sqrt());
            }
        }
        self.stats.cv_folds_evaluated += self.fold_rmses.len() as u64;
        if self.fold_rmses.is_empty() {
            None
        } else {
            Some(ErrorEstimate::from_folds(&self.fold_rmses))
        }
    }

    /// Training-set error of a WLS model on `data` (one fit, residual
    /// spread for the standard error). Values bit-identical to the
    /// oracle's `training_set_estimate`, without its second statistics
    /// pass and per-call allocations.
    pub fn training_estimate(&mut self, data: &RegressionData) -> Option<ErrorEstimate> {
        let n = data.n();
        let rmse = self.training_rmse(data, n)?;
        // Delta-method standard error from the spread of squared
        // residuals, as in the refit path.
        for i in 0..n {
            let r = data.y(i) - data.predict_at(i, &self.beta_buf);
            self.sq[i] = r * r;
        }
        let std_err = if rmse > 0.0 && n > 1 {
            crate::stats::sample_std(&self.sq[..n]) / (2.0 * rmse * (n as f64).sqrt())
        } else {
            0.0
        };
        Some(ErrorEstimate {
            value: rmse,
            std_err,
        })
    }

    /// The `value` of [`EvalScratch::training_estimate`], bit for bit,
    /// without the residual pass behind its `std_err` — for scans that
    /// only rank regions by error.
    pub fn training_value(&mut self, data: &RegressionData) -> Option<f64> {
        self.training_rmse(data, 0)
    }

    /// One statistics pass and one fit; leaves the coefficients in
    /// `beta_buf` and `residuals` zeroed slots in `sq`.
    fn training_rmse(&mut self, data: &RegressionData, residuals: usize) -> Option<f64> {
        self.cached_total = CachedTotal::None;
        let p = data.p();
        let n = data.n();
        let mut grew = self.train.reset(p);
        grew |= ensure_buf(&mut self.factor, packed_len(p));
        grew |= ensure_buf(&mut self.beta_buf, p);
        grew |= ensure_buf(&mut self.sq, residuals);
        self.note_shape(grew);

        if n <= p {
            return None;
        }
        self.train.add_rows(data);
        self.cached_total = CachedTotal::Train { n, p };
        self.rmse_of_train()
    }

    /// [`EvalScratch::training_value`] from an already accumulated
    /// unit-weight statistic in flat form ([`RegSuffStats::flat_len`])
    /// instead of from rows — Theorem 1: the training-set error needs
    /// nothing else. Same `n > p` gate, solve and counters.
    pub fn training_value_flat(&mut self, p: usize, n: usize, flat: &[f64]) -> Option<f64> {
        self.cached_total = CachedTotal::None;
        let mut grew = self.train.load_flat(p, n, flat);
        grew |= ensure_buf(&mut self.factor, packed_len(p));
        grew |= ensure_buf(&mut self.beta_buf, p);
        self.note_shape(grew);
        if n <= p {
            return None;
        }
        self.rmse_of_train()
    }

    /// Fit the statistic in `train` (more examples than features) and
    /// return its RMSE over `n − p` degrees of freedom, leaving the
    /// coefficients in `beta_buf`.
    fn rmse_of_train(&mut self) -> Option<f64> {
        let diag = self.train.fit_into(&mut self.factor, &mut self.beta_buf)?;
        self.stats.fits += 1;
        if diag.ridged() {
            self.stats.ridge_rescues += 1;
        }
        let sse = self.train.sse_given_fit(&self.beta_buf);
        Some((sse / (self.train.n() - self.train.p()) as f64).sqrt())
    }

    /// Algebraic k-fold CV **purely from folded statistics** — no row
    /// access at all, for callers that only hold rolled-up statistics
    /// (the optimized CV cube). Fold `f`'s model is fit on the downdated
    /// total and its test SSE comes from
    /// [`RegSuffStats::sse_of_coeffs`]. Returns the fold RMSEs (empty if
    /// no fold could fit a model); also retrievable via
    /// [`EvalScratch::fold_rmses`].
    pub fn algebraic_fold_rmses(&mut self, folded: &FoldedSuffStats) -> &[f64] {
        self.cached_total = CachedTotal::None;
        let p = folded.p();
        let mut grew = self.train.reset(p);
        grew |= ensure_buf(&mut self.factor, packed_len(p));
        grew |= ensure_buf(&mut self.beta_buf, p);
        self.note_shape(grew);

        self.fold_rmses.clear();
        for f in 0..folded.k() {
            let fold = folded.fold(f);
            let nf = fold.n();
            if nf == 0 {
                continue;
            }
            self.train.copy_from(folded.total());
            self.train.subtract(fold);
            let Some(diag) = self.train.fit_into(&mut self.factor, &mut self.beta_buf) else {
                continue;
            };
            self.stats.fits += 1;
            if diag.ridged() {
                self.stats.ridge_rescues += 1;
            }
            let sse = fold.sse_of_coeffs(&self.beta_buf);
            self.fold_rmses.push((sse / nf as f64).sqrt());
        }
        self.stats.cv_folds_evaluated += self.fold_rmses.len() as u64;
        &self.fold_rmses
    }

    /// Fit a WLS model on `data` through the scratch (one statistics
    /// pass, one packed solve; the only allocation is the returned
    /// coefficient vector). Coefficients are bit-identical to
    /// [`crate::model::fit_wls`].
    pub fn fit_model(&mut self, data: &RegressionData) -> Option<LinearModel> {
        self.cached_total = CachedTotal::None;
        let p = data.p();
        let mut grew = self.train.reset(p);
        grew |= ensure_buf(&mut self.factor, packed_len(p));
        grew |= ensure_buf(&mut self.beta_buf, p);
        self.note_shape(grew);

        self.train.add_rows(data);
        self.cached_total = CachedTotal::Train {
            n: data.n(),
            p,
        };
        let diag = self.train.fit_into(&mut self.factor, &mut self.beta_buf)?;
        self.stats.fits += 1;
        if diag.ridged() {
            self.stats.ridge_rescues += 1;
        }
        Some(LinearModel::new(self.beta_buf.clone()))
    }

    /// Like [`EvalScratch::fit_model`], but when the most recent
    /// estimate on this scratch accumulated the total statistic for rows
    /// of the same shape, that total is fitted directly — one packed
    /// `O(p³)` solve instead of an `O(n·p²)` statistics pass, with
    /// coefficients **bit-identical** to the fresh pass (both accumulate
    /// the rows in the same order). Only the shape is checked, so callers
    /// must pass the same `data` the estimate saw;
    /// [`EvalScratch::forget_data`] drops the cache whenever a reused
    /// buffer is refilled with different rows.
    pub fn fit_model_cached(&mut self, data: &RegressionData) -> Option<LinearModel> {
        let (n, p) = (data.n(), data.p());
        let use_folded =
            matches!(self.cached_total, CachedTotal::Folded { n: cn, p: cp } if cn == n && cp == p);
        let use_train =
            matches!(self.cached_total, CachedTotal::Train { n: cn, p: cp } if cn == n && cp == p);
        if !use_folded && !use_train {
            return self.fit_model(data);
        }
        let mut grew = ensure_buf(&mut self.factor, packed_len(p));
        grew |= ensure_buf(&mut self.beta_buf, p);
        self.note_shape(grew);
        let diag = {
            let EvalScratch {
                folded,
                train,
                factor,
                beta_buf,
                ..
            } = &mut *self;
            let total = if use_folded { folded.total() } else { &*train };
            total.fit_into(factor, beta_buf)?
        };
        self.stats.fits += 1;
        if diag.ridged() {
            self.stats.ridge_rescues += 1;
        }
        Some(LinearModel::new(self.beta_buf.clone()))
    }

    /// Drop the fit-from-total cache. Call before refilling a data
    /// buffer that a previous estimate ran over — a shape collision must
    /// not let [`EvalScratch::fit_model_cached`] serve another region's
    /// statistics.
    pub fn forget_data(&mut self) {
        self.cached_total = CachedTotal::None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossval::oracle::{cross_val_estimate, cross_validate, training_set_estimate};
    use crate::model::fit_wls;
    use crate::stats::SplitMix64;

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
    fn cv_bit_identical_to_refit_path() {
        let mut scratch = EvalScratch::new();
        for (n, noise, k, seed) in [
            (50usize, 1.0, 5usize, 7u64),
            (103, 0.3, 10, 42),
            (30, 2.5, 2, 9),
            (5, 0.1, 10, 0), // k clamped to n
        ] {
            let d = noisy_line(n, noise, seed);
            let refit = cross_validate(&d, k, seed).unwrap();
            let alg = scratch.cv_estimate(&d, k, seed).unwrap();
            assert_eq!(scratch.fold_rmses().len(), refit.fold_rmses.len());
            for (a, b) in scratch.fold_rmses().iter().zip(&refit.fold_rmses) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} k={k}");
            }
            let est = refit.estimate();
            assert_eq!(alg.value.to_bits(), est.value.to_bits());
            assert_eq!(alg.std_err.to_bits(), est.std_err.to_bits());
        }
    }

    #[test]
    fn cv_exact_data_stays_exact() {
        // The catastrophic-cancellation trap: a near-perfect fit must
        // still report ~0 error (the row-wise pass B guarantees it; a
        // pure sse_of_model evaluation would not).
        let mut d = RegressionData::new(2);
        for i in 0..100 {
            let x = i as f64;
            d.push(&[1.0, x], 5.0 + 2.0 * x);
        }
        let mut scratch = EvalScratch::new();
        let e = scratch.cv_estimate(&d, 10, 0xBE11).unwrap();
        assert!(e.value < 1e-6, "exact line must stay exact, got {}", e.value);
    }

    #[test]
    fn cv_degenerate_cases_match_refit() {
        let mut scratch = EvalScratch::new();
        let mut tiny = RegressionData::new(3);
        tiny.push(&[1.0, 2.0, 3.0], 1.0);
        assert!(scratch.cv_estimate(&tiny, 10, 0).is_none());
        assert!(cross_val_estimate(&tiny, 10, 0).is_none());
        assert!(scratch.training_estimate(&tiny).is_none());
    }

    #[test]
    fn training_bit_identical_to_refit_path() {
        let mut scratch = EvalScratch::new();
        for seed in [1u64, 2, 3] {
            let d = noisy_line(80, 1.5, seed);
            let refit = training_set_estimate(&d).unwrap();
            let alg = scratch.training_estimate(&d).unwrap();
            assert_eq!(alg.value.to_bits(), refit.value.to_bits());
            assert_eq!(alg.std_err.to_bits(), refit.std_err.to_bits());
            let value = scratch.training_value(&d).unwrap();
            assert_eq!(value.to_bits(), refit.value.to_bits());
        }
    }

    #[test]
    fn training_value_flat_is_the_rmse_of_the_flat_statistic() {
        let d = noisy_line(40, 0.7, 5);
        let mut flat = vec![0.0; RegSuffStats::flat_len(2)];
        let mut terms = flat.clone();
        let mut scalar = RegSuffStats::new(2);
        for i in 0..d.n() {
            scalar.add_from_cols(d.cols(), i, d.y(i), 1.0);
            RegSuffStats::unit_terms_from_cols(d.cols(), i, d.y(i), &mut terms);
            for (sum, term) in flat.iter_mut().zip(&terms) {
                *sum += term;
            }
        }
        let mut scratch = EvalScratch::new();
        let value = scratch.training_value_flat(2, d.n(), &flat).unwrap();
        assert_eq!(value.to_bits(), scalar.rmse().unwrap().to_bits());
        assert_eq!(scratch.stats.fits, 1);
        // The row path sums the same terms in `dot4` lanes.
        let from_rows = scratch.training_value(&d).unwrap();
        assert!((value - from_rows).abs() <= 1e-9 * from_rows);
        // `n ≤ p` is gated before the solve and counts no fit.
        assert!(scratch.training_value_flat(2, 2, &flat).is_none());
        assert_eq!(scratch.stats.fits, 2);
    }

    #[test]
    fn fit_model_matches_fit_wls() {
        let d = noisy_line(40, 0.7, 11);
        let mut scratch = EvalScratch::new();
        let a = scratch.fit_model(&d).unwrap();
        let b = fit_wls(&d).unwrap();
        for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fit_model_cached_matches_fit_wls_bitwise() {
        let d = noisy_line(55, 0.4, 21);
        let expect = fit_wls(&d).unwrap();
        let mut scratch = EvalScratch::new();

        // After a CV estimate the cached total serves the fit.
        scratch.cv_estimate(&d, 5, 9).unwrap();
        let fits_before = scratch.stats.fits;
        let via_cv = scratch.fit_model_cached(&d).unwrap();
        assert_eq!(scratch.stats.fits, fits_before + 1);
        for (x, y) in via_cv.coefficients().iter().zip(expect.coefficients()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // After a training estimate, likewise.
        scratch.training_estimate(&d).unwrap();
        let via_train = scratch.fit_model_cached(&d).unwrap();
        for (x, y) in via_train.coefficients().iter().zip(expect.coefficients()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // With the cache dropped it falls back to the fresh pass and
        // still agrees.
        scratch.cv_estimate(&d, 5, 9).unwrap();
        scratch.forget_data();
        let fresh = scratch.fit_model_cached(&d).unwrap();
        for (x, y) in fresh.coefficients().iter().zip(expect.coefficients()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // A different same-shape dataset must not be served stale
        // coefficients when the caller forgets properly — and the cache
        // key alone already rejects shape changes.
        let d2 = noisy_line(54, 0.4, 22);
        scratch.cv_estimate(&d, 5, 9).unwrap();
        let other = scratch.fit_model_cached(&d2).unwrap();
        let expect2 = fit_wls(&d2).unwrap();
        for (x, y) in other.coefficients().iter().zip(expect2.coefficients()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn scratch_is_allocation_free_after_warm_up() {
        let mut scratch = EvalScratch::new();
        let d = noisy_line(60, 1.0, 5);
        scratch.cv_estimate(&d, 10, 3).unwrap(); // warm-up both paths
        scratch.training_estimate(&d).unwrap();
        let grows = scratch.stats.scratch_grows;
        for seed in 0..20 {
            scratch.cv_estimate(&d, 10, seed).unwrap();
            scratch.training_estimate(&d).unwrap();
        }
        assert_eq!(
            scratch.stats.scratch_grows, grows,
            "warm scratch must not grow"
        );
        assert!(scratch.stats.scratch_reuses >= 40);
    }

    #[test]
    fn folded_merge_equals_bulk() {
        let d = noisy_line(30, 0.5, 8);
        let assign: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let mut bulk = FoldedSuffStats::new(2, 3);
        let mut left = FoldedSuffStats::new(2, 3);
        let mut right = FoldedSuffStats::new(2, 3);
        for (i, &fold) in assign.iter().enumerate() {
            let (x, y, w) = (d.row(i), d.y(i), d.w(i));
            bulk.add(&x, y, w, fold);
            if i < 15 {
                left.add(&x, y, w, fold);
            } else {
                right.add(&x, y, w, fold);
            }
        }
        left.merge(&right);
        assert_eq!(left.n(), bulk.n());
        for f in 0..3 {
            assert_eq!(left.fold(f).n(), bulk.fold(f).n());
            let a = left.fold(f).fit().unwrap();
            let b = bulk.fold(f).fit().unwrap();
            for (x, y) in a.coefficients().iter().zip(b.coefficients()) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn algebraic_fold_rmses_close_to_row_wise_cv() {
        // The pure-statistics path (no rows) agrees with the row-wise
        // engine to fine tolerance on well-conditioned data.
        let d = noisy_line(90, 1.0, 13);
        let k = 5;
        let seed = 21;
        let mut scratch = EvalScratch::new();
        let row_wise = scratch.cv_estimate(&d, k, seed).unwrap();
        let row_rmses = scratch.fold_rmses().to_vec();

        let assignment = crate::crossval::fold_assignment(d.n(), k, seed);
        let mut folded = FoldedSuffStats::new(d.p(), k);
        folded.add_dataset(&d, &assignment);
        let mut scratch2 = EvalScratch::new();
        let alg = scratch2.algebraic_fold_rmses(&folded).to_vec();
        assert_eq!(alg.len(), row_rmses.len());
        for (a, b) in alg.iter().zip(&row_rmses) {
            assert!((a - b).abs() / b.max(1e-12) < 1e-8, "{a} vs {b}");
        }
        let est = ErrorEstimate::from_folds(&alg);
        assert!((est.value - row_wise.value).abs() / row_wise.value < 1e-8);
    }

    #[test]
    fn counters_accumulate_and_absorb() {
        let mut a = EvalScratch::new();
        let d = noisy_line(50, 1.0, 2);
        a.cv_estimate(&d, 5, 1).unwrap();
        assert_eq!(a.stats.fits, 5);
        assert_eq!(a.stats.cv_folds_evaluated, 5);
        let mut total = EvalStats::default();
        total.absorb(&a.stats);
        total.absorb(&a.stats.take());
        assert_eq!(total.fits, 10);
        assert_eq!(a.stats, EvalStats::default());
    }
}
