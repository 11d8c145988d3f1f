//! Cholesky factorisation and solves for the symmetric positive
//! (semi-)definite Gram matrices `X'WX` arising in least squares, held
//! packed: the lower triangle, row-major, `p(p+1)/2` floats
//! ([`packed_idx`]).
//!
//! Tiny regions can yield rank-deficient Gram matrices (constant or
//! collinear features). [`packed_solve_spd_ridged`] retries with a small ridge
//! proportional to the matrix trace, which is the standard regularised
//! fallback and keeps bellwether search total — a region never aborts the
//! search, it just gets an honest (usually poor) model.

// Triangular-solve loops index neighbouring rows; indexed form is the
// clearest here.
#![allow(clippy::needless_range_loop)]

/// Error from a failed factorisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Pivot index where factorisation broke down.
    pub pivot: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix not positive definite at pivot {}", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// First relative ridge level [`packed_solve_spd_ridged`] tries.
pub const RIDGE_EPS: f64 = 1e-9;

/// Diagnostics from a (possibly ridged) SPD solve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FitDiagnostics {
    /// Relative ridge level `λ` the solve settled on: `0.0` when plain
    /// Cholesky succeeded, otherwise the multiplier of `trace(A)/n` that
    /// was added to the diagonal to rescue the factorisation.
    pub ridge_lambda: f64,
}

impl FitDiagnostics {
    /// True if the solve needed a ridge to go through.
    pub fn ridged(&self) -> bool {
        self.ridge_lambda > 0.0
    }
}

/// Number of entries in packed lower-triangular storage for `p` rows.
pub const fn packed_len(p: usize) -> usize {
    p * (p + 1) / 2
}

/// Index of entry `(i, j)` (`j ≤ i`) in packed lower-triangular
/// row-major storage: row `i` occupies `i(i+1)/2 .. i(i+1)/2 + i + 1`.
pub const fn packed_idx(i: usize, j: usize) -> usize {
    i * (i + 1) / 2 + j
}

/// In-place Cholesky of a packed lower-triangular SPD matrix: on success
/// `a` holds the packed factor `L` with `L·L' = A`. The loop order is the
/// textbook dense row-major one, which the tests keep as this factor's
/// oracle and match bit for bit.
pub fn packed_cholesky_in_place(a: &mut [f64], p: usize) -> Result<(), NotPositiveDefinite> {
    debug_assert_eq!(a.len(), packed_len(p), "packed length mismatch");
    for i in 0..p {
        let row_i = packed_idx(i, 0);
        for j in 0..=i {
            let row_j = packed_idx(j, 0);
            let mut sum = a[row_i + j];
            for k in 0..j {
                sum -= a[row_i + k] * a[row_j + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(NotPositiveDefinite { pivot: i });
                }
                a[row_i + j] = sum.sqrt();
            } else {
                a[row_i + j] = sum / a[row_j + j];
            }
        }
    }
    Ok(())
}

/// Solve `L·L' x = b` from a packed factor, writing the solution into
/// `x` (used as the only workspace — forward substitution fills it, back
/// substitution overwrites it; the arithmetic matches the dense
/// forward and back substitution bit for bit).
pub fn packed_solve_in_place(l: &[f64], p: usize, b: &[f64], x: &mut [f64]) {
    debug_assert_eq!(l.len(), packed_len(p), "packed length mismatch");
    assert_eq!(b.len(), p, "rhs length mismatch");
    assert_eq!(x.len(), p, "solution buffer length mismatch");
    // Forward substitution: L y = b (y lands in x).
    for i in 0..p {
        let row_i = packed_idx(i, 0);
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[row_i + k] * x[k];
        }
        x[i] = sum / l[row_i + i];
    }
    // Back substitution: L' x = y. Entry (k, i) of L lives at row k.
    for i in (0..p).rev() {
        let mut sum = x[i];
        for k in (i + 1)..p {
            sum -= l[packed_idx(k, i)] * x[k];
        }
        x[i] = sum / l[packed_idx(i, i)];
    }
}

/// Trace of a packed lower-triangular matrix.
pub fn packed_trace(a: &[f64], p: usize) -> f64 {
    (0..p).map(|i| a[packed_idx(i, i)]).sum()
}

/// Solve `A x = b` for a packed symmetric positive semi-definite `A`,
/// reusing caller-provided buffers so the hot path performs no heap
/// allocation once `factor` and `x` are warm: copies `a` into `factor`,
/// factors in place (retrying with the escalating ridge λ·(trace(A)/p)·I,
/// λ = 1e-9, 1e-6, 1e-3, when plain Cholesky fails) and solves into `x`.
/// Returns the settled ridge level, or `None` for hopeless inputs
/// (non-finite entries, or no λ rescues the factorisation).
pub fn packed_solve_spd_ridged(
    a: &[f64],
    p: usize,
    b: &[f64],
    factor: &mut Vec<f64>,
    x: &mut Vec<f64>,
) -> Option<FitDiagnostics> {
    debug_assert_eq!(a.len(), packed_len(p), "packed length mismatch");
    x.clear();
    x.resize(p, 0.0);
    factor.clear();
    factor.extend_from_slice(a);
    if packed_cholesky_in_place(factor, p).is_ok() {
        packed_solve_in_place(factor, p, b, x);
        return Some(FitDiagnostics { ridge_lambda: 0.0 });
    }
    let mean_diag = packed_trace(a, p) / p.max(1) as f64;
    let base = if mean_diag.abs() > 0.0 && mean_diag.is_finite() {
        mean_diag.abs()
    } else {
        1.0
    };
    for lambda in [RIDGE_EPS, 1e-6, 1e-3] {
        factor.clear();
        factor.extend_from_slice(a);
        for i in 0..p {
            factor[packed_idx(i, i)] += lambda * base;
        }
        if packed_cholesky_in_place(factor, p).is_ok() {
            packed_solve_in_place(factor, p, b, x);
            return Some(FitDiagnostics { ridge_lambda: lambda });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_prop::{check, Rng};
    use std::cell::Cell;

    /// The dense row-major factor the packed one replaced, kept as its
    /// oracle: `L` lands in `l[i·p + j]` (`j ≤ i`) by the same loops and
    /// the same arithmetic, so a packed factor must equal it bit for bit.
    fn dense_factor(a: &[f64], p: usize) -> Result<Vec<f64>, NotPositiveDefinite> {
        let mut l = vec![0.0; p * p];
        for i in 0..p {
            for j in 0..=i {
                let mut sum = a[i * p + j];
                for k in 0..j {
                    sum -= l[i * p + k] * l[j * p + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NotPositiveDefinite { pivot: i });
                    }
                    l[i * p + j] = sum.sqrt();
                } else {
                    l[i * p + j] = sum / l[j * p + j];
                }
            }
        }
        Ok(l)
    }

    /// `L·L' x = b` from a dense factor: forward, then back substitution.
    fn dense_solve(l: &[f64], p: usize, b: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; p];
        for i in 0..p {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i * p + k] * y[k];
            }
            y[i] = sum / l[i * p + i];
        }
        let mut x = vec![0.0; p];
        for i in (0..p).rev() {
            let mut sum = y[i];
            for k in (i + 1)..p {
                sum -= l[k * p + i] * x[k];
            }
            x[i] = sum / l[i * p + i];
        }
        x
    }

    /// Plain Cholesky, then the ridge levels `packed_solve_spd_ridged`
    /// tries in turn.
    const LADDER: [f64; 4] = [0.0, RIDGE_EPS, 1e-6, 1e-3];

    /// What the ridged solve must settle on, read off the dense factor:
    /// the first λ of [`LADDER`] at which `A + λ·base·I` factors, with
    /// `base = |tr A / p|` (1 when that is 0 or not finite); `None` when
    /// every rung fails.
    fn dense_ridged(a: &[f64], p: usize, b: &[f64]) -> Option<(f64, Vec<f64>)> {
        let mean_diag = (0..p).map(|i| a[i * p + i]).sum::<f64>() / p as f64;
        let base = if mean_diag.abs() > 0.0 && mean_diag.is_finite() {
            mean_diag.abs()
        } else {
            1.0
        };
        LADDER.into_iter().find_map(|lambda| {
            let mut shifted = a.to_vec();
            if lambda > 0.0 {
                for i in 0..p {
                    shifted[i * p + i] += lambda * base;
                }
            }
            let l = dense_factor(&shifted, p).ok()?;
            Some((lambda, dense_solve(&l, p, b)))
        })
    }

    /// The lower triangle of a dense row-major symmetric matrix, packed.
    fn pack(a: &[f64], p: usize) -> Vec<f64> {
        (0..p).flat_map(|i| (0..=i).map(move |j| a[i * p + j])).collect()
    }

    /// A dense symmetric `p × p` matrix of one of the three kinds a Gram
    /// matrix can be: SPD (`M'M + I`), rank-deficient (`M'M` for an
    /// integer `M` of `r < p` rows; `r = 0` is all zeros), or SPD with one
    /// NaN mirrored across the diagonal. A rank-deficient matrix is also
    /// shifted by `−s·(tr/p)·I`, the slight indefiniteness roundoff leaves
    /// in a nearly singular Gram matrix: `s` = 0, 1e-8, 1e-5 and 1e-2
    /// settle on `RIDGE_EPS`, 1e-6, 1e-3 and no rung of [`LADDER`].
    fn symmetric(rng: &mut Rng, p: usize) -> Vec<f64> {
        let kind = rng.below(3);
        let rows = if kind == 1 { rng.below(p) } else { p };
        let m: Vec<f64> = (0..rows * p)
            .map(|_| match kind {
                1 => rng.i64_in(-3, 4) as f64,
                _ => rng.f64_in(-3.0, 3.0),
            })
            .collect();
        let mut a = vec![0.0; p * p];
        for i in 0..p {
            for j in 0..p {
                a[i * p + j] = (0..rows).map(|r| m[r * p + i] * m[r * p + j]).sum();
            }
            if kind != 1 {
                a[i * p + i] += 1.0;
            }
        }
        if kind == 1 {
            let mean_diag = (0..p).map(|i| a[i * p + i]).sum::<f64>() / p as f64;
            let shift = rng.choice(&[0.0, 1e-8, 1e-5, 1e-2]) * mean_diag;
            for i in 0..p {
                a[i * p + i] -= shift;
            }
        }
        if kind == 2 {
            let (i, j) = (rng.below(p), rng.below(p));
            a[i * p + j] = f64::NAN;
            a[j * p + i] = f64::NAN;
        }
        a
    }

    /// `[[5, 2, 1], [2, 6, 2], [1, 2, 4]]`, SPD, packed.
    fn spd3() -> Vec<f64> {
        vec![5.0, 2.0, 6.0, 1.0, 2.0, 4.0]
    }

    /// [`packed_solve_spd_ridged`] into fresh buffers.
    fn solve(a: &[f64], p: usize, b: &[f64]) -> Option<(Vec<f64>, FitDiagnostics)> {
        let (mut factor, mut x) = (Vec::new(), Vec::new());
        let diag = packed_solve_spd_ridged(a, p, b, &mut factor, &mut x)?;
        Some((x, diag))
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let mut l = a.clone();
        packed_cholesky_in_place(&mut l, 3).unwrap();
        for i in 0..3 {
            for j in 0..=i {
                let back: f64 = (0..=j).map(|k| l[packed_idx(i, k)] * l[packed_idx(j, k)]).sum();
                assert!((back - a[packed_idx(i, j)]).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_matches_direct_check() {
        let a = spd3();
        let x_true = [1.0, -2.0, 0.5];
        let b: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| a[packed_idx(i.max(j), i.min(j))] * x_true[j]).sum())
            .collect();
        let mut l = a;
        packed_cholesky_in_place(&mut l, 3).unwrap();
        let mut x = [0.0; 3];
        packed_solve_in_place(&l, 3, &b, &mut x);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{xi} vs {ti}");
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = vec![1.0, 2.0, 1.0]; // [[1, 2], [2, 1]]: eigenvalues 3, -1
        assert_eq!(packed_cholesky_in_place(&mut a, 2), Err(NotPositiveDefinite { pivot: 1 }));
    }

    #[test]
    fn ridge_rescues_singular() {
        // Rank 1: plain Cholesky fails, and the ridged solution of this
        // consistent system stays close to a least-norm one.
        let (x, _) = solve(&[1.0, 1.0, 1.0], 2, &[2.0, 2.0]).unwrap();
        assert!((x[0] + x[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn ridge_gives_up_on_garbage() {
        assert!(solve(&[f64::NAN], 1, &[1.0]).is_none());
    }

    #[test]
    fn one_by_one() {
        let mut l = vec![4.0];
        packed_cholesky_in_place(&mut l, 1).unwrap();
        let mut x = [0.0];
        packed_solve_in_place(&l, 1, &[8.0], &mut x);
        assert_eq!(x, [2.0]);
    }

    #[test]
    fn packed_layout_indexing() {
        assert_eq!(packed_len(0), 0);
        assert_eq!(packed_len(3), 6);
        assert_eq!(packed_idx(0, 0), 0);
        assert_eq!(packed_idx(2, 1), 4);
        assert_eq!(packed_idx(3, 0), 6);
    }

    #[test]
    fn packed_factor_bit_identical_to_dense() {
        check("packed_factor_bit_identical_to_dense", 256, |rng| {
            let p = rng.usize_in(1, 9);
            let a = symmetric(rng, p);
            let mut packed = pack(&a, p);
            match (packed_cholesky_in_place(&mut packed, p), dense_factor(&a, p)) {
                (Ok(()), Ok(l)) => {
                    for i in 0..p {
                        for j in 0..=i {
                            let (got, want) = (packed[packed_idx(i, j)], l[i * p + j]);
                            assert_eq!(got.to_bits(), want.to_bits(), "p={p} ({i},{j})");
                        }
                    }
                }
                (got, want) => assert_eq!(got.err(), want.err(), "p={p}"),
            }
        });
    }

    #[test]
    fn packed_solve_bit_identical_to_dense() {
        // How many cases settled on each rung of the ladder, then `None`.
        let settled = Cell::new([0usize; LADDER.len() + 1]);
        check("packed_solve_bit_identical_to_dense", 256, |rng| {
            let p = rng.usize_in(1, 9);
            let a = symmetric(rng, p);
            let b: Vec<f64> = (0..p).map(|_| rng.f64_in(-10.0, 10.0)).collect();
            let (mut factor, mut x) = (Vec::new(), Vec::new());
            let got = packed_solve_spd_ridged(&pack(&a, p), p, &b, &mut factor, &mut x);
            let want = dense_ridged(&a, p, &b);
            assert_eq!(got.map(|d| d.ridge_lambda), want.as_ref().map(|w| w.0), "p={p}");
            let mut counts = settled.get();
            match want {
                Some((lambda, dense_x)) => {
                    counts[LADDER.iter().position(|&l| l == lambda).unwrap()] += 1;
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&x), bits(&dense_x), "p={p} λ={lambda}");
                }
                None => counts[LADDER.len()] += 1,
            }
            settled.set(counts);
        });
        let counts = settled.get();
        assert!(counts.iter().all(|&n| n > 0), "every rung and the give-up reached: {counts:?}");
    }

    #[test]
    fn packed_ridged_reports_clean_solve() {
        let (_, diag) = solve(&spd3(), 3, &[1.0, 0.0, 2.0]).unwrap();
        assert_eq!(diag.ridge_lambda, 0.0);
        assert!(!diag.ridged());
    }

    #[test]
    fn ridged_diag_reports_settled_lambda() {
        // Rank 1: plain Cholesky fails, the first ridge rescues.
        let (_, diag) = solve(&[1.0, 1.0, 1.0], 2, &[2.0, 2.0]).unwrap();
        assert_eq!(diag.ridge_lambda, RIDGE_EPS);
        assert!(diag.ridged());
    }

    #[test]
    fn packed_ridged_reuses_buffers_without_realloc() {
        let a = spd3();
        let (mut factor, mut x) = (Vec::new(), Vec::new());
        packed_solve_spd_ridged(&a, 3, &[1.0, 2.0, 3.0], &mut factor, &mut x).unwrap();
        let (fc, xc) = (factor.capacity(), x.capacity());
        let (fp, xp) = (factor.as_ptr(), x.as_ptr());
        for _ in 0..10 {
            packed_solve_spd_ridged(&a, 3, &[3.0, 2.0, 1.0], &mut factor, &mut x).unwrap();
        }
        assert_eq!((factor.capacity(), x.capacity()), (fc, xc));
        assert_eq!((factor.as_ptr(), x.as_ptr()), (fp, xp));
    }
}
