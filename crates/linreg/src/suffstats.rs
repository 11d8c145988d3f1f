//! The Theorem-1 sufficient statistic for weighted least squares.
//!
//! For an item subset `S` with design matrix `X`, targets `Y` and diagonal
//! weights `W`, the tuple
//!
//! ```text
//! g(S) = ⟨ Y'WY,  X'WX,  X'WY,  n ⟩
//! ```
//!
//! is *mergeable*: `g(S1 ∪ S2) = g(S1) + g(S2)` componentwise for disjoint
//! subsets. From the merged tuple we recover both the WLS coefficients
//! `β = (X'WX)⁻¹ X'WY` and the weighted sum of squared errors
//! `SSE = Y'WY − (X'WY)'(X'WX)⁻¹(X'WY)` without revisiting examples. This
//! is exactly what makes SSE an *algebraic* aggregate (Theorem 1), the key
//! to the optimized bellwether-cube algorithm: compute `g` once per base
//! subset, then roll up the item-hierarchy lattice by merging.

use crate::cholesky::{packed_idx, packed_len, packed_solve_spd_ridged, FitDiagnostics};
use crate::dataset::RegressionData;
use crate::model::LinearModel;

/// Accumulated `⟨Y'WY, X'WX, X'WY, n, Σw⟩` for one example subset.
///
/// The Gram matrix `X'WX` is symmetric and stored packed (lower triangle,
/// row-major, `p(p+1)/2` floats) — half the memory and accumulation work
/// of a full matrix, factored in place by the packed Cholesky
/// (`crate::cholesky`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegSuffStats {
    p: usize,
    n: usize,
    sum_w: f64,
    ytwy: f64,
    /// `X'WX`, packed lower-triangular (`crate::cholesky::packed_idx`).
    gram: Vec<f64>,
    xtwy: Vec<f64>,
}

impl RegSuffStats {
    /// Empty statistic for `p` features.
    pub fn new(p: usize) -> Self {
        RegSuffStats {
            p,
            n: 0,
            sum_w: 0.0,
            ytwy: 0.0,
            gram: vec![0.0; packed_len(p)],
            xtwy: vec![0.0; p],
        }
    }

    /// Zero the statistic (possibly changing its width) while reusing the
    /// existing buffers. Returns `true` if a buffer had to grow — the
    /// scratch-reuse accounting hook for zero-allocation hot loops.
    pub fn reset(&mut self, p: usize) -> bool {
        let grew = self.gram.capacity() < packed_len(p) || self.xtwy.capacity() < p;
        self.p = p;
        self.n = 0;
        self.sum_w = 0.0;
        self.ytwy = 0.0;
        self.gram.clear();
        self.gram.resize(packed_len(p), 0.0);
        self.xtwy.clear();
        self.xtwy.resize(p, 0.0);
        grew
    }

    /// Overwrite `self` with a copy of `other`, reusing buffers (no
    /// allocation when `self` already has `other`'s width).
    pub fn copy_from(&mut self, other: &RegSuffStats) {
        self.p = other.p;
        self.n = other.n;
        self.sum_w = other.sum_w;
        self.ytwy = other.ytwy;
        self.gram.clone_from(&other.gram);
        self.xtwy.clone_from(&other.xtwy);
    }

    /// Number of features.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of accumulated examples.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total weight.
    pub fn sum_w(&self) -> f64 {
        self.sum_w
    }

    /// Fold in one weighted example.
    #[allow(clippy::needless_range_loop)] // symmetric i/j indexing
    pub fn add(&mut self, x: &[f64], y: f64, w: f64) {
        assert_eq!(x.len(), self.p, "feature vector length mismatch");
        debug_assert!(w > 0.0, "weights must be positive");
        self.n += 1;
        self.sum_w += w;
        self.ytwy += w * y * y;
        for i in 0..self.p {
            let wxi = w * x[i];
            self.xtwy[i] += wxi * y;
            // X'WX is symmetric; accumulate only the packed lower triangle.
            let row = packed_idx(i, 0);
            for j in 0..=i {
                self.gram[row + j] += wxi * x[j];
            }
        }
    }

    /// Fold in one example read from SoA feature columns (lane `j`,
    /// entry `row`). Same floating-point operations in the same order
    /// as [`RegSuffStats::add`] — bitwise identical — for call sites
    /// that must add single rows out of columnar storage.
    #[allow(clippy::needless_range_loop)] // symmetric i/j indexing
    pub fn add_from_cols(&mut self, cols: &[Vec<f64>], row: usize, y: f64, w: f64) {
        assert_eq!(cols.len(), self.p, "feature vector length mismatch");
        debug_assert!(w > 0.0, "weights must be positive");
        self.n += 1;
        self.sum_w += w;
        self.ytwy += w * y * y;
        for i in 0..self.p {
            let wxi = w * cols[i][row];
            self.xtwy[i] += wxi * y;
            let start = packed_idx(i, 0);
            for j in 0..=i {
                self.gram[start + j] += wxi * cols[j][row];
            }
        }
    }

    /// Length of the flat form of a unit-weight statistic over `p`
    /// features: `[Y'Y, X'Y (p entries), X'X (packed, p(p+1)/2)]`.
    pub const fn flat_len(p: usize) -> usize {
        1 + p + packed_len(p)
    }

    /// The terms one unit-weight example adds to a statistic, in the
    /// layout of [`RegSuffStats::flat_len`]. Each is the product
    /// [`RegSuffStats::add_from_cols`] adds at `w = 1` (`1.0 * x` is
    /// bitwise `x`), so adding the terms of a sequence of examples entry
    /// by entry into a zeroed slice builds exactly the sums that scalar
    /// fold builds — for callers that fold one example into several
    /// statistics and want to multiply once.
    pub fn unit_terms_from_cols(cols: &[Vec<f64>], row: usize, y: f64, out: &mut [f64]) {
        let p = cols.len();
        assert_eq!(out.len(), Self::flat_len(p), "flat statistic length mismatch");
        let (ytwy, rest) = out.split_first_mut().expect("flat_len is at least 1");
        let (xtwy, gram) = rest.split_at_mut(p);
        *ytwy = y * y;
        let mut at = 0;
        for (i, xy) in xtwy.iter_mut().enumerate() {
            let xi = cols[i][row];
            *xy = xi * y;
            for (g, col) in gram[at..at + i + 1].iter_mut().zip(cols) {
                *g = xi * col[row];
            }
            at += i + 1;
        }
    }

    /// Overwrite `self` with the unit-weight statistic of `n` examples
    /// whose flat sums ([`RegSuffStats::flat_len`]) are `flat`, reusing
    /// buffers. Returns `true` if a buffer had to grow.
    pub fn load_flat(&mut self, p: usize, n: usize, flat: &[f64]) -> bool {
        assert_eq!(flat.len(), Self::flat_len(p), "flat statistic length mismatch");
        let grew = self.gram.capacity() < packed_len(p) || self.xtwy.capacity() < p;
        self.p = p;
        self.n = n;
        self.sum_w = n as f64;
        self.ytwy = flat[0];
        self.xtwy.clear();
        self.xtwy.extend_from_slice(&flat[1..1 + p]);
        self.gram.clear();
        self.gram.extend_from_slice(&flat[1 + p..]);
        grew
    }

    /// Accumulate an entire dataset with the batched columnar kernels.
    ///
    /// # Canonical summation order
    ///
    /// Every accumulated scalar (each packed Gram entry, each `X'WY`
    /// entry, `Y'WY`, `Σw`) is an independent reduction over the `n`
    /// examples, computed by [`dot4`]-family kernels: four partial
    /// accumulators with example `r` folded into lane `r mod 4`, the
    /// remainder (`n mod 4` examples) folded into lanes `0..n mod 4`,
    /// and the lanes combined as `(s0 + s1) + (s2 + s3)`. This order is
    /// a *fixed function of `n` alone* — independent of thread count,
    /// block boundaries or batching — so results are reproducible
    /// bit-for-bit anywhere the same rows are accumulated in the same
    /// order. The scalar [`RegSuffStats::add`] fold remains the
    /// reference oracle (property-tested to agree within 1e-12) and the
    /// path for single-example updates.
    ///
    /// The unit-weight fast path skips the weight loads; since
    /// `1.0 * x` is bitwise identity and summing `n` ones is exact, it
    /// produces exactly the bits of the weighted path fed all-ones.
    pub fn add_rows(&mut self, data: &RegressionData) {
        if data.unit_weights() {
            self.add_rows_unweighted(data);
            return;
        }
        assert_eq!(data.p(), self.p, "feature vector length mismatch");
        let n = data.n();
        if n == 0 {
            return;
        }
        self.n += n;
        let cols = data.cols();
        let ys = data.ys();
        let ws = data.ws();
        self.sum_w += sum4(ws);
        self.ytwy += wdot4(ws, ys, ys);
        for i in 0..self.p {
            let xi = &cols[i];
            self.xtwy[i] += wdot4(ws, xi, ys);
            let start = packed_idx(i, 0);
            for (j, g) in self.gram[start..start + i + 1].iter_mut().enumerate() {
                *g += wdot4(ws, xi, &cols[j]);
            }
        }
    }

    /// Accumulate an entire dataset with the batched kernels, treating
    /// every weight as exactly 1 regardless of the stored weights (the
    /// OLS reduction of §6.4). On a unit-weight dataset this is the
    /// path [`RegSuffStats::add_rows`] takes.
    pub(crate) fn add_rows_unweighted(&mut self, data: &RegressionData) {
        assert_eq!(data.p(), self.p, "feature vector length mismatch");
        let n = data.n();
        if n == 0 {
            return;
        }
        self.n += n;
        let cols = data.cols();
        let ys = data.ys();
        self.sum_w += n as f64;
        self.ytwy += dot4(ys, ys);
        for i in 0..self.p {
            let xi = &cols[i];
            self.xtwy[i] += dot4(xi, ys);
            let start = packed_idx(i, 0);
            for (j, g) in self.gram[start..start + i + 1].iter_mut().enumerate() {
                *g += dot4(xi, &cols[j]);
            }
        }
    }

    /// Build the statistic for a dataset in one pass.
    pub fn from_dataset(data: &RegressionData) -> Self {
        let mut s = RegSuffStats::new(data.p());
        s.add_rows(data);
        s
    }

    /// Merge a disjoint subset's statistic (the `q` of Theorem 1 sums the
    /// components; both operands must describe the same feature space).
    pub fn merge(&mut self, other: &RegSuffStats) {
        assert_eq!(self.p, other.p, "merging stats of different widths");
        self.n += other.n;
        self.sum_w += other.sum_w;
        self.ytwy += other.ytwy;
        for (a, b) in self.gram.iter_mut().zip(&other.gram) {
            *a += *b;
        }
        for (a, b) in self.xtwy.iter_mut().zip(&other.xtwy) {
            *a += *b;
        }
    }

    /// Merged copy (non-destructive convenience for rollups).
    pub fn merged(&self, other: &RegSuffStats) -> RegSuffStats {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Remove a previously merged subset's statistic (exact, because the
    /// statistic is a sum of per-example terms). Used to train each
    /// cross-validation fold's complement in O(1) after one full pass.
    /// Panics if `other` contains more examples than `self`.
    pub fn subtract(&mut self, other: &RegSuffStats) {
        assert_eq!(self.p, other.p, "subtracting stats of different widths");
        assert!(self.n >= other.n, "subtracting more examples than present");
        self.n -= other.n;
        self.sum_w -= other.sum_w;
        self.ytwy -= other.ytwy;
        for (a, b) in self.gram.iter_mut().zip(&other.gram) {
            *a -= *b;
        }
        for (a, b) in self.xtwy.iter_mut().zip(&other.xtwy) {
            *a -= *b;
        }
    }

    /// Fit the WLS model `β = (X'WX)⁻¹(X'WY)`. `None` if fewer examples
    /// than features or the Gram matrix is irreparably singular.
    pub fn fit(&self) -> Option<LinearModel> {
        self.fit_diagnosed().map(|(m, _)| m)
    }

    /// [`RegSuffStats::fit`] that also reports which ridge level (if any)
    /// the solve needed — the debuggability hook for degenerate regions.
    pub fn fit_diagnosed(&self) -> Option<(LinearModel, FitDiagnostics)> {
        let mut factor = Vec::new();
        let mut beta = Vec::new();
        let diag = self.fit_into(&mut factor, &mut beta)?;
        Some((LinearModel::new(beta), diag))
    }

    /// Fit into caller-provided scratch: `factor` receives the packed
    /// Cholesky workspace, `beta` the coefficients. No heap allocation
    /// once both buffers are warm. Returns `None` if fewer examples than
    /// features, the solve fails, or β is non-finite.
    pub fn fit_into(&self, factor: &mut Vec<f64>, beta: &mut Vec<f64>) -> Option<FitDiagnostics> {
        if self.n < self.p {
            return None;
        }
        let diag = packed_solve_spd_ridged(&self.gram, self.p, &self.xtwy, factor, beta)?;
        if beta.iter().any(|b| !b.is_finite()) {
            return None;
        }
        Some(diag)
    }

    /// Weighted sum of squared errors of the fitted model on the
    /// accumulated examples: `Y'WY − (X'WY)'β`. Clamped at 0 to absorb
    /// floating-point cancellation. `None` when no model can be fit.
    pub fn sse(&self) -> Option<f64> {
        let beta = self.fit()?;
        Some(self.sse_given_fit(beta.coefficients()))
    }

    /// SSE of *this statistic's own least-squares solution* `β` via
    /// `Y'WY − (X'WY)'β` (the one-dot-product shortcut, valid only for
    /// coefficients fitted from this statistic — see
    /// [`RegSuffStats::sse_of_coeffs`] for arbitrary models). Clamped at 0.
    pub fn sse_given_fit(&self, beta: &[f64]) -> f64 {
        assert_eq!(beta.len(), self.p, "model width mismatch");
        let explained: f64 = self.xtwy.iter().zip(beta).map(|(a, b)| a * b).sum();
        (self.ytwy - explained).max(0.0)
    }

    /// Weighted SSE of an *arbitrary* model β on the accumulated
    /// examples, from the statistic alone:
    ///
    /// ```text
    /// Σ w (y − x'β)² = Y'WY − 2 β'(X'WY) + β'(X'WX)β
    /// ```
    ///
    /// This extends Theorem 1 to *cross-validation*: a fold's test error
    /// under the complement's model needs only the fold's statistic —
    /// no examples are revisited. Clamped at 0 against cancellation.
    pub fn sse_of_model(&self, model: &LinearModel) -> f64 {
        self.sse_of_coeffs(model.coefficients())
    }

    /// [`RegSuffStats::sse_of_model`] on a bare coefficient slice, so hot
    /// loops can evaluate fold models without wrapping them in a
    /// [`LinearModel`] (which owns its vector).
    #[allow(clippy::needless_range_loop)] // symmetric i/j indexing
    pub fn sse_of_coeffs(&self, beta: &[f64]) -> f64 {
        assert_eq!(beta.len(), self.p, "model width mismatch");
        let cross: f64 = self.xtwy.iter().zip(beta).map(|(a, b)| a * b).sum();
        // β'(X'WX)β via the symmetric packed matvec: entry (i,j) with
        // j > i reads the stored (j,i).
        let mut quad = 0.0;
        for i in 0..self.p {
            let mut sum = 0.0;
            for j in 0..self.p {
                let e = if j <= i {
                    self.gram[packed_idx(i, j)]
                } else {
                    self.gram[packed_idx(j, i)]
                };
                sum += e * beta[j];
            }
            quad += sum * beta[i];
        }
        (self.ytwy - 2.0 * cross + quad).max(0.0)
    }

    /// Weighted mean squared error with `n − p` degrees of freedom, the
    /// paper's training-set error for WLS models. `None` when `n ≤ p`.
    pub fn mse(&self) -> Option<f64> {
        if self.n <= self.p {
            return None;
        }
        Some(self.sse()? / (self.n - self.p) as f64)
    }

    /// Root of [`RegSuffStats::mse`].
    pub fn rmse(&self) -> Option<f64> {
        self.mse().map(f64::sqrt)
    }
}

/// Canonical 4-lane dot product `Σ a[r]·b[r]`: element `r` folds into
/// lane `r mod 4`, lanes combine as `(s0 + s1) + (s2 + s3)`. This is
/// *the* canonical summation order for every batched reduction in this
/// crate (see [`RegSuffStats::add_rows`]); the manual unroll gives the
/// compiler four independent dependency chains to vectorize while
/// keeping the order fixed and documentable.
#[inline]
fn dot4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        s0 += ca[0] * cb[0];
        s1 += ca[1] * cb[1];
        s2 += ca[2] * cb[2];
        s3 += ca[3] * cb[3];
    }
    let (ra, rb) = (ac.remainder(), bc.remainder());
    if !ra.is_empty() {
        s0 += ra[0] * rb[0];
    }
    if ra.len() > 1 {
        s1 += ra[1] * rb[1];
    }
    if ra.len() > 2 {
        s2 += ra[2] * rb[2];
    }
    (s0 + s1) + (s2 + s3)
}

/// Weighted canonical dot product `Σ (w[r]·a[r])·b[r]` — the term shape
/// matches the scalar fold's `(w * x_i) * x_j`, so a unit-weight input
/// reproduces [`dot4`] bit for bit. Same lane order as [`dot4`].
#[inline]
fn wdot4(w: &[f64], a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), w.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut wc = w.chunks_exact(4);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for ((cw, ca), cb) in (&mut wc).zip(&mut ac).zip(&mut bc) {
        s0 += (cw[0] * ca[0]) * cb[0];
        s1 += (cw[1] * ca[1]) * cb[1];
        s2 += (cw[2] * ca[2]) * cb[2];
        s3 += (cw[3] * ca[3]) * cb[3];
    }
    let (rw, ra, rb) = (wc.remainder(), ac.remainder(), bc.remainder());
    if !ra.is_empty() {
        s0 += (rw[0] * ra[0]) * rb[0];
    }
    if ra.len() > 1 {
        s1 += (rw[1] * ra[1]) * rb[1];
    }
    if ra.len() > 2 {
        s2 += (rw[2] * ra[2]) * rb[2];
    }
    (s0 + s1) + (s2 + s3)
}

/// Canonical 4-lane sum `Σ w[r]` (same lane order as [`dot4`]).
#[inline]
fn sum4(w: &[f64]) -> f64 {
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut wc = w.chunks_exact(4);
    for cw in &mut wc {
        s0 += cw[0];
        s1 += cw[1];
        s2 += cw[2];
        s3 += cw[3];
    }
    let rw = wc.remainder();
    if !rw.is_empty() {
        s0 += rw[0];
    }
    if rw.len() > 1 {
        s1 += rw[1];
    }
    if rw.len() > 2 {
        s2 += rw[2];
    }
    (s0 + s1) + (s2 + s3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = 2 + 3x exactly, with intercept column.
    fn exact_line() -> RegressionData {
        let mut d = RegressionData::new(2);
        for i in 0..10 {
            let x = i as f64;
            d.push(&[1.0, x], 2.0 + 3.0 * x);
        }
        d
    }

    #[test]
    fn fits_exact_line() {
        let s = RegSuffStats::from_dataset(&exact_line());
        let m = s.fit().unwrap();
        assert!((m.coefficients()[0] - 2.0).abs() < 1e-9);
        assert!((m.coefficients()[1] - 3.0).abs() < 1e-9);
        assert!(s.sse().unwrap() < 1e-9);
        assert!(s.rmse().unwrap() < 1e-5);
    }

    #[test]
    fn merge_equals_bulk() {
        let d = exact_line();
        let first = d.subset(&[0, 1, 2, 3]);
        let second = d.subset(&[4, 5, 6, 7, 8, 9]);
        let mut merged = RegSuffStats::from_dataset(&first);
        merged.merge(&RegSuffStats::from_dataset(&second));
        let bulk = RegSuffStats::from_dataset(&d);
        assert_eq!(merged.n(), bulk.n());
        assert!((merged.sse().unwrap() - bulk.sse().unwrap()).abs() < 1e-9);
        let mb = merged.fit().unwrap();
        let bb = bulk.fit().unwrap();
        for (a, b) in mb.coefficients().iter().zip(bb.coefficients()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn sse_matches_residual_sum() {
        // Noisy data: check SSE against the definition Σ w(y - x'β)².
        let mut d = RegressionData::new(2);
        let ys = [1.0, 2.0, 2.5, 4.2, 4.9];
        for (i, &y) in ys.iter().enumerate() {
            d.push_weighted(&[1.0, i as f64], y, 1.0 + i as f64 * 0.1);
        }
        let s = RegSuffStats::from_dataset(&d);
        let m = s.fit().unwrap();
        let direct: f64 = (0..d.n())
            .map(|i| {
                let r = d.y(i) - d.predict_at(i, m.coefficients());
                d.w(i) * r * r
            })
            .sum();
        assert!((s.sse().unwrap() - direct).abs() < 1e-9);
    }

    #[test]
    fn underdetermined_returns_none() {
        let mut d = RegressionData::new(3);
        d.push(&[1.0, 2.0, 3.0], 1.0);
        let s = RegSuffStats::from_dataset(&d);
        assert!(s.fit().is_none());
        assert!(s.mse().is_none());
    }

    #[test]
    fn n_equals_p_fits_but_has_no_mse() {
        let mut d = RegressionData::new(2);
        d.push(&[1.0, 0.0], 1.0);
        d.push(&[1.0, 1.0], 2.0);
        let s = RegSuffStats::from_dataset(&d);
        assert!(s.fit().is_some());
        assert!(s.mse().is_none(), "zero degrees of freedom");
    }

    #[test]
    fn weights_shift_the_fit() {
        // Two inconsistent points; weights pull the constant fit around.
        let mut d = RegressionData::new(1);
        d.push_weighted(&[1.0], 0.0, 1.0);
        d.push_weighted(&[1.0], 10.0, 3.0);
        let m = RegSuffStats::from_dataset(&d).fit().unwrap();
        assert!((m.coefficients()[0] - 7.5).abs() < 1e-9); // (0·1+10·3)/4
    }

    #[test]
    fn sse_of_model_matches_direct_evaluation() {
        let mut d = RegressionData::new(2);
        let ys = [1.0, 2.5, 2.0, 4.8, 5.1, 7.0];
        for (i, &y) in ys.iter().enumerate() {
            d.push_weighted(&[1.0, i as f64], y, 1.0 + 0.2 * i as f64);
        }
        let stats = RegSuffStats::from_dataset(&d);
        // An arbitrary (not fitted) model.
        let model = LinearModel::new(vec![0.3, 1.1]);
        let direct: f64 = (0..d.n())
            .map(|i| {
                let r = d.y(i) - d.predict_at(i, model.coefficients());
                d.w(i) * r * r
            })
            .sum();
        assert!((stats.sse_of_model(&model) - direct).abs() < 1e-9);
        // For the fitted model it coincides with sse().
        let fitted = stats.fit().unwrap();
        assert!((stats.sse_of_model(&fitted) - stats.sse().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn sse_of_model_supports_fold_complement_cv() {
        // Train on folds 1..k, evaluate fold 0 purely algebraically.
        let mut all = RegressionData::new(2);
        for i in 0..30 {
            let x = i as f64;
            all.push(&[1.0, x], 2.0 + 0.5 * x + if i % 3 == 0 { 0.3 } else { -0.1 });
        }
        let fold: Vec<usize> = (0..30).filter(|i| i % 5 == 0).collect();
        let rest: Vec<usize> = (0..30).filter(|i| i % 5 != 0).collect();
        let fold_stats = RegSuffStats::from_dataset(&all.subset(&fold));
        let rest_stats = RegSuffStats::from_dataset(&all.subset(&rest));
        let model = rest_stats.fit().unwrap();
        let direct: f64 = fold
            .iter()
            .map(|&i| {
                let r = all.y(i) - all.predict_at(i, model.coefficients());
                r * r
            })
            .sum();
        assert!((fold_stats.sse_of_model(&model) - direct).abs() < 1e-9);
    }

    #[test]
    fn collinear_features_survive_via_ridge() {
        let mut d = RegressionData::new(2);
        for i in 0..5 {
            let x = i as f64;
            d.push(&[x, x], 2.0 * x); // perfectly collinear
        }
        let s = RegSuffStats::from_dataset(&d);
        let m = s.fit().expect("ridge fallback should fit");
        // Predictions are still right even though β is not unique.
        assert!((m.predict(&[3.0, 3.0]) - 6.0).abs() < 1e-3);
        // And the diagnosed fit reports that a ridge was needed.
        let (_, diag) = s.fit_diagnosed().unwrap();
        assert!(diag.ridged());
    }

    #[test]
    fn clean_fit_reports_no_ridge() {
        let s = RegSuffStats::from_dataset(&exact_line());
        let (_, diag) = s.fit_diagnosed().unwrap();
        assert_eq!(diag.ridge_lambda, 0.0);
    }

    #[test]
    fn reset_and_copy_reuse_buffers() {
        let mut s = RegSuffStats::from_dataset(&exact_line());
        let bulk = RegSuffStats::from_dataset(&exact_line());
        assert!(!s.reset(2), "same width must not grow");
        assert_eq!(s.n(), 0);
        s.add_rows(&exact_line());
        assert_eq!(s, bulk);
        let mut copy = RegSuffStats::new(2);
        copy.copy_from(&bulk);
        assert_eq!(copy, bulk);
    }

    #[test]
    fn fit_into_matches_fit_bitwise() {
        let mut d = RegressionData::new(2);
        let ys = [1.0, 2.5, 2.0, 4.8, 5.1, 7.0];
        for (i, &y) in ys.iter().enumerate() {
            d.push_weighted(&[1.0, i as f64], y, 1.0 + 0.2 * i as f64);
        }
        let s = RegSuffStats::from_dataset(&d);
        let via_fit = s.fit().unwrap();
        let (mut factor, mut beta) = (Vec::new(), Vec::new());
        s.fit_into(&mut factor, &mut beta).unwrap();
        for (a, b) in beta.iter().zip(via_fit.coefficients()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Random dataset whose size sweeps every `n mod 4` remainder class.
    fn random_data(rng: &mut bellwether_prop::Rng, unit_weights: bool) -> RegressionData {
        let p = rng.usize_in(1, 6);
        let n = rng.usize_in(0, 23); // covers all chunk tails n % 4 ∈ {0,1,2,3}
        let mut d = RegressionData::new(p);
        for _ in 0..n {
            let x: Vec<f64> = (0..p).map(|_| rng.f64_in(-10.0, 10.0)).collect();
            let w = if unit_weights { 1.0 } else { rng.f64_in(0.1, 5.0) };
            d.push_weighted(&x, rng.f64_in(-5.0, 5.0), w);
        }
        d
    }

    fn assert_stats_close(a: &RegSuffStats, b: &RegSuffStats, tol: f64) {
        assert_eq!(a.n(), b.n());
        let rel = |x: f64, y: f64| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs()));
        assert!(rel(a.sum_w, b.sum_w), "sum_w {} vs {}", a.sum_w, b.sum_w);
        assert!(rel(a.ytwy, b.ytwy), "ytwy {} vs {}", a.ytwy, b.ytwy);
        for (i, (x, y)) in a.gram.iter().zip(&b.gram).enumerate() {
            assert!(rel(*x, *y), "gram[{i}] {x} vs {y}");
        }
        for (i, (x, y)) in a.xtwy.iter().zip(&b.xtwy).enumerate() {
            assert!(rel(*x, *y), "xtwy[{i}] {x} vs {y}");
        }
    }

    #[test]
    fn add_rows_matches_scalar_oracle_within_1e12() {
        use bellwether_prop::check;
        check("suffstats/add_rows_vs_scalar_add", 400, |rng| {
            let unit = rng.flip(0.5);
            let d = random_data(rng, unit);
            let mut batched = RegSuffStats::new(d.p());
            batched.add_rows(&d);
            // The scalar fold is the reference oracle.
            let mut scalar = RegSuffStats::new(d.p());
            for i in 0..d.n() {
                let x = d.row(i);
                scalar.add(&x, d.y(i), d.w(i));
            }
            assert_stats_close(&batched, &scalar, 1e-12);
        });
    }

    #[test]
    fn add_rows_is_deterministic_and_batch_invariant_bits() {
        // The canonical order depends only on the rows themselves: the
        // same dataset accumulated twice, or into a reused scratch,
        // gives the same bits.
        use bellwether_prop::check;
        check("suffstats/add_rows_bit_determinism", 200, |rng| {
            let unit = rng.flip(0.5);
            let d = random_data(rng, unit);
            let mut a = RegSuffStats::new(d.p());
            a.add_rows(&d);
            let mut b = RegSuffStats::new(d.p());
            b.add_rows(&d);
            assert_eq!(a, b);
            let mut reused = RegSuffStats::new(d.p() + 1);
            reused.reset(d.p());
            reused.add_rows(&d);
            assert_eq!(a, reused);
        });
    }

    #[test]
    fn unit_weight_path_bitwise_equals_weighted_all_ones() {
        // `1.0 * x` is bitwise identity and summing n ones is exact, so
        // the unit fast path must reproduce the weighted kernels fed
        // all-ones weights bit for bit.
        use bellwether_prop::check;
        check("suffstats/unit_vs_all_ones_weights", 200, |rng| {
            let d = random_data(rng, true);
            let cols = d.cols();
            let ones = vec![1.0; d.n()];
            for i in 0..d.p() {
                assert_eq!(
                    dot4(&cols[i], d.ys()).to_bits(),
                    wdot4(&ones, &cols[i], d.ys()).to_bits()
                );
                for j in 0..=i {
                    assert_eq!(
                        dot4(&cols[i], &cols[j]).to_bits(),
                        wdot4(&ones, &cols[i], &cols[j]).to_bits()
                    );
                }
            }
            assert_eq!(sum4(&ones).to_bits(), (d.n() as f64).to_bits());
        });
    }

    #[test]
    fn add_from_cols_bitwise_equals_scalar_add() {
        use bellwether_prop::check;
        check("suffstats/add_from_cols_vs_add", 200, |rng| {
            let unit = rng.flip(0.5);
            let d = random_data(rng, unit);
            let mut by_cols = RegSuffStats::new(d.p());
            let mut by_rows = RegSuffStats::new(d.p());
            for i in 0..d.n() {
                by_cols.add_from_cols(d.cols(), i, d.y(i), d.w(i));
                by_rows.add(&d.row(i), d.y(i), d.w(i));
            }
            assert_eq!(by_cols, by_rows, "scalar folds must agree bitwise");
        });
    }

    #[test]
    fn flat_terms_fold_to_the_scalar_fold_bitwise() {
        use bellwether_prop::check;
        check("suffstats/unit_terms_vs_add_from_cols", 200, |rng| {
            let d = random_data(rng, true);
            let mut scalar = RegSuffStats::new(d.p());
            let mut flat = vec![0.0; RegSuffStats::flat_len(d.p())];
            let mut terms = flat.clone();
            for i in 0..d.n() {
                scalar.add_from_cols(d.cols(), i, d.y(i), 1.0);
                RegSuffStats::unit_terms_from_cols(d.cols(), i, d.y(i), &mut terms);
                for (sum, term) in flat.iter_mut().zip(&terms) {
                    *sum += term;
                }
            }
            let mut loaded = RegSuffStats::new(0);
            loaded.load_flat(d.p(), d.n(), &flat);
            assert_eq!(loaded, scalar, "flat fold must equal the scalar fold bitwise");
        });
    }

    /// A CV fold's training statistic is the total downdated by the fold
    /// (`total − fold`), not the complement accumulated directly. Per
    /// entry the two differ by no more than the rounding of the sums
    /// involved: the total (`n` rows), the fold and the complement each
    /// err by at most `n·ε` times the sum of their terms' magnitudes,
    /// and the subtraction by `ε` of its result, so
    /// `|Δ| ≤ (2n + 1)·ε·Σ|term|` over all `n` rows. On a near-collinear
    /// design the same bound holds entrywise — what it cannot promise is
    /// a positive pivot: such a Gram matrix is singular to within that
    /// much, which is where ridge rescues come from. Normwise, against the
    /// total's largest entry, the worst relative error is at most
    /// `(2n + 1)·ε` (a term-magnitude sum is at most the largest diagonal
    /// one, which is a sum of squares).
    #[test]
    fn downdated_gram_is_the_direct_complement_within_the_summation_bound() {
        use bellwether_prop::check;
        check("suffstats/downdate_vs_direct_complement", 300, |rng| {
            let (n, p, k) = (rng.usize_in(4, 160), rng.usize_in(2, 7), rng.usize_in(2, 11));
            let collinear = rng.flip(0.5);
            let mut data = RegressionData::new(p);
            let mut magnitudes = RegressionData::new(p);
            for _ in 0..n {
                let mut x: Vec<f64> = (0..p).map(|_| rng.f64_in(-1e3, 1e3)).collect();
                x[0] = 1.0;
                if collinear {
                    // The last feature repeats another to ~6 digits.
                    x[p - 1] = x[p / 2] * (1.0 + rng.f64_in(-1e-6, 1e-6));
                }
                let y = rng.f64_in(-1e4, 1e4);
                data.push(&x, y);
                let abs: Vec<f64> = x.iter().map(|v| v.abs()).collect();
                magnitudes.push(&abs, y.abs());
            }
            let assignment = crate::crossval::fold_assignment(n, k, rng.next_u64());
            let mut folded = crate::folded::FoldedSuffStats::new(p, k);
            folded.add_dataset(&data, &assignment);
            let terms = RegSuffStats::from_dataset(&magnitudes);
            let slack = (2 * n + 1) as f64 * f64::EPSILON * (1.0 + 1e-9);
            let mut worst = 0.0f64;
            for f in 0..k {
                let rest: Vec<usize> = (0..n).filter(|&i| assignment[i] != f).collect();
                let direct = RegSuffStats::from_dataset(&data.subset(&rest));
                let mut down = folded.total().clone();
                down.subtract(folded.fold(f));
                assert_eq!(down.n(), direct.n());
                let pairs = [
                    (&down.gram, &direct.gram, &terms.gram),
                    (&down.xtwy, &direct.xtwy, &terms.xtwy),
                ];
                for (got, want, bound) in pairs {
                    for ((g, w), b) in got.iter().zip(want).zip(bound) {
                        assert!((g - w).abs() <= slack * b, "n={n} p={p}: {g} vs {w}, bound {b}");
                    }
                }
                assert!((down.ytwy - direct.ytwy).abs() <= slack * terms.ytwy);
                let largest = terms.gram.iter().fold(0.0f64, |m, g| m.max(*g));
                let apart = down.gram.iter().zip(&direct.gram).map(|(g, w)| (g - w).abs());
                worst = worst.max(apart.fold(0.0, f64::max) / largest);
            }
            assert!(worst <= slack, "normwise {worst:e} > {slack:e}");
        });
    }

    #[test]
    fn sse_of_coeffs_matches_sse_of_model() {
        let mut d = RegressionData::new(2);
        for i in 0..6 {
            d.push(&[1.0, i as f64], 0.5 + 1.5 * i as f64 + (i % 2) as f64);
        }
        let s = RegSuffStats::from_dataset(&d);
        let model = LinearModel::new(vec![0.3, 1.1]);
        assert_eq!(
            s.sse_of_model(&model).to_bits(),
            s.sse_of_coeffs(&[0.3, 1.1]).to_bits()
        );
    }
}
