//! Property tests of the numerical core: Cholesky solves and
//! least-squares optimality.

use bellwether_linreg::{
    fit_wls, normal_quantile, packed_idx, packed_solve_spd_ridged, RegSuffStats, RegressionData,
};
use bellwether_prop::{check, Rng};

/// A random SPD matrix A = M'M + I, packed (lower triangle, row-major).
fn spd(rng: &mut Rng, n: usize) -> Vec<f64> {
    let m: Vec<f64> = (0..n * n).map(|_| rng.f64_in(-3.0, 3.0)).collect();
    let mut a = Vec::new();
    for i in 0..n {
        for j in 0..=i {
            let mtm: f64 = (0..n).map(|r| m[r * n + i] * m[r * n + j]).sum();
            a.push(mtm + if i == j { 1.0 } else { 0.0 });
        }
    }
    a
}

#[test]
fn cholesky_solves_spd_systems() {
    check("cholesky_solves_spd_systems", 64, |rng| {
        let a = spd(rng, 4);
        let x: Vec<f64> = (0..4).map(|_| rng.f64_in(-10.0, 10.0)).collect();
        // b = A·x, each entry read from the lower triangle.
        let b: Vec<f64> = (0..4)
            .map(|i| (0..4).map(|j| a[packed_idx(i.max(j), i.min(j))] * x[j]).sum())
            .collect();
        let (mut factor, mut solved) = (Vec::new(), Vec::new());
        let diag = packed_solve_spd_ridged(&a, 4, &b, &mut factor, &mut solved).unwrap();
        assert!(!diag.ridged(), "a well-conditioned system needs no ridge");
        for (s, t) in solved.iter().zip(&x) {
            assert!((s - t).abs() < 1e-6, "{s} vs {t}");
        }
    });
}

#[test]
fn ols_residuals_are_orthogonal_to_features() {
    check("ols_residuals_are_orthogonal_to_features", 64, |rng| {
        let rows = rng.vec_of(8, 60, |r| (r.f64_in(-5.0, 5.0), r.f64_in(-100.0, 100.0)));
        // Least-squares optimality: X'(y − Xβ) ≈ 0.
        let mut d = RegressionData::new(2);
        for (x, y) in &rows {
            d.push(&[1.0, *x], *y);
        }
        let Some(model) = fit_wls(&d) else { return };
        let mut g0 = 0.0;
        let mut g1 = 0.0;
        for i in 0..d.n() {
            let r = d.y(i) - d.predict_at(i, model.coefficients());
            g0 += r * d.feature(i, 0);
            g1 += r * d.feature(i, 1);
        }
        let scale = rows.len() as f64 * 100.0;
        assert!(g0.abs() < 1e-6 * scale, "intercept gradient {g0}");
        assert!(g1.abs() < 1e-6 * scale, "slope gradient {g1}");
    });
}

#[test]
fn suffstats_sse_is_minimal_at_fit() {
    check("suffstats_sse_is_minimal_at_fit", 64, |rng| {
        let rows = rng.vec_of(6, 40, |r| (r.f64_in(-5.0, 5.0), r.f64_in(-50.0, 50.0)));
        let db0 = rng.f64_in(-1.0, 1.0);
        let db1 = rng.f64_in(-1.0, 1.0);
        let mut d = RegressionData::new(2);
        for (x, y) in &rows {
            d.push(&[1.0, *x], *y);
        }
        let stats = RegSuffStats::from_dataset(&d);
        let Some(model) = stats.fit() else { return };
        let fitted_sse = stats.sse_of_model(&model);
        // Any perturbed model can't do better.
        let perturbed = bellwether_linreg::LinearModel::new(vec![
            model.coefficients()[0] + db0,
            model.coefficients()[1] + db1,
        ]);
        assert!(stats.sse_of_model(&perturbed) >= fitted_sse - 1e-6);
    });
}

#[test]
fn normal_quantile_is_monotone() {
    check("normal_quantile_is_monotone", 128, |rng| {
        let a = rng.f64_in(0.001, 0.999);
        let b = rng.f64_in(0.001, 0.999);
        if a < b {
            assert!(normal_quantile(a) <= normal_quantile(b));
        }
    });
}
