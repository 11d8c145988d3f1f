//! Fitted linear models and the convenience WLS entry point.

use crate::dataset::RegressionData;
use crate::suffstats::RegSuffStats;

/// A fitted linear model `ŷ = x'β`. The intercept, if any, is the
/// coefficient of a constant-1 feature column supplied by the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    beta: Vec<f64>,
}

impl LinearModel {
    /// Wrap a coefficient vector.
    pub fn new(beta: Vec<f64>) -> Self {
        LinearModel { beta }
    }

    /// The coefficients β.
    pub fn coefficients(&self) -> &[f64] {
        &self.beta
    }

    /// Number of features the model expects.
    pub fn p(&self) -> usize {
        self.beta.len()
    }

    /// Predict one example.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.beta.len(), "feature width mismatch");
        x.iter().zip(&self.beta).map(|(a, b)| a * b).sum()
    }

    /// Root mean squared prediction error over a dataset (unweighted,
    /// the evaluation metric used throughout the paper's figures).
    pub fn rmse_on(&self, data: &RegressionData) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let sse: f64 = (0..data.n())
            .map(|i| {
                let r = data.y(i) - data.predict_at(i, &self.beta);
                r * r
            })
            .sum();
        (sse / data.n() as f64).sqrt()
    }
}

/// Fit weighted least squares using the dataset's weights.
pub fn fit_wls(data: &RegressionData) -> Option<LinearModel> {
    RegSuffStats::from_dataset(data).fit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_is_dot_product() {
        let m = LinearModel::new(vec![2.0, -1.0]);
        assert_eq!(m.predict(&[3.0, 4.0]), 2.0);
        assert_eq!(m.p(), 2);
    }

    #[test]
    fn ols_ignores_weights_wls_uses_them() {
        let mut d = RegressionData::new(1);
        d.push_weighted(&[1.0], 0.0, 1.0);
        d.push_weighted(&[1.0], 10.0, 3.0);
        let mut unweighted = RegSuffStats::new(1);
        unweighted.add_rows_unweighted(&d);
        let ols = unweighted.fit().unwrap();
        let wls = fit_wls(&d).unwrap();
        assert!((ols.coefficients()[0] - 5.0).abs() < 1e-9);
        assert!((wls.coefficients()[0] - 7.5).abs() < 1e-9);
    }

    #[test]
    fn rmse_on_exact_fit_is_zero() {
        let mut d = RegressionData::new(2);
        for i in 0..4 {
            d.push(&[1.0, i as f64], 1.0 + 2.0 * i as f64);
        }
        let m = fit_wls(&d).unwrap();
        assert!(m.rmse_on(&d) < 1e-9);
    }

    #[test]
    fn rmse_on_empty_is_zero() {
        let m = LinearModel::new(vec![1.0]);
        assert_eq!(m.rmse_on(&RegressionData::new(1)), 0.0);
    }
}
