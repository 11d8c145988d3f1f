//! The bellwether problem definition (Definitions 1 and 2).

use crate::error::{BellwetherError, Result};
use crate::scan::ScanPolicy;
use bellwether_cube::Parallelism;
use bellwether_linreg::{ErrorEstimate, EvalScratch, RegressionData};
use bellwether_obs::{NoopRecorder, Recorder};
use std::sync::Arc;

/// How model error is estimated (§2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorMeasure {
    /// k-fold cross-validation RMSE (the paper uses k = 10).
    CrossValidation {
        /// Number of folds.
        folds: usize,
        /// Shuffle seed, fixed for reproducibility.
        seed: u64,
    },
    /// Training-set RMSE with `n − p` degrees of freedom. For linear
    /// models this closely tracks cross-validation (Fig. 7c) and is what
    /// makes the optimized cube's algebraic rollup possible.
    TrainingSet,
}

impl ErrorMeasure {
    /// The paper's default: 10-fold cross-validation.
    pub fn cv10() -> Self {
        ErrorMeasure::CrossValidation { folds: 10, seed: 0xBE11 }
    }

    /// Estimate the error of a WLS linear model on `data` (`None` when
    /// the data cannot support a model: too few examples) through the
    /// algebraic error engine using caller-owned scratch: one statistics
    /// pass plus k downdated packed solves for cross-validation, one fit
    /// for training-set error — no dataset copies, and no heap
    /// allocation once `scratch` is warm. Values are
    /// bit-identical to a refit per fold (`bellwether_linreg`'s test
    /// oracle holds the engine to that).
    pub fn estimate_with(
        &self,
        data: &RegressionData,
        scratch: &mut EvalScratch,
    ) -> Option<ErrorEstimate> {
        match *self {
            ErrorMeasure::CrossValidation { folds, seed } => {
                scratch.cv_estimate(data, folds, seed)
            }
            ErrorMeasure::TrainingSet => scratch.training_estimate(data),
        }
    }

    /// The `value` of [`ErrorMeasure::estimate_with`], bit for bit, for
    /// scans that rank regions by error and discard `std_err`: the
    /// training-set measure then skips its residual pass.
    pub fn estimate_value_with(
        &self,
        data: &RegressionData,
        scratch: &mut EvalScratch,
    ) -> Option<f64> {
        match *self {
            ErrorMeasure::CrossValidation { folds, seed } => {
                scratch.cv_estimate(data, folds, seed).map(|e| e.value)
            }
            ErrorMeasure::TrainingSet => scratch.training_value(data),
        }
    }
}

/// Full configuration of a bellwether analysis run: the constrained
/// optimization criterion of Definition 1 plus estimation knobs.
#[derive(Debug, Clone)]
pub struct BellwetherConfig {
    /// Budget B: maximum acquisition cost of the chosen region.
    pub budget: f64,
    /// Coverage threshold C ∈ [0, 1]: minimum fraction of training items
    /// with data in the region.
    pub min_coverage: f64,
    /// Error measure.
    pub error_measure: ErrorMeasure,
    /// Minimum number of training examples a region must supply before a
    /// model is considered (guards meaningless fits; the cube's size
    /// threshold K plays the same role for item subsets).
    pub min_examples: usize,
    /// Thread budget shared by every parallel code path driven from this
    /// config (region evaluation, CUBE kernels). Results never depend on
    /// the chosen value — see the determinism policy in
    /// `bellwether_cube::parallel`.
    pub parallelism: Parallelism,
    /// Metrics sink every algorithm driven from this config reports into
    /// (search spans, per-level tree scans, cube-build counters). The
    /// default [`NoopRecorder`] costs one branch per phase; results are
    /// bit-identical whether or not recording is enabled.
    pub recorder: Arc<dyn Recorder>,
    /// How builders react to unreadable regions (corrupt or failing
    /// blocks): fail fast ([`ScanPolicy::Strict`], the default) or skip
    /// up to a budget with exact accounting of what was dropped
    /// ([`ScanPolicy::SkipUnreadable`]); skipped indices surface in each
    /// builder's result and under the `scan/regions_skipped` counter.
    pub scan_policy: ScanPolicy,
}

impl BellwetherConfig {
    /// Start building a config with budget `B` and the paper defaults:
    /// coverage ≥ 0.5, 10-fold CV, at least 10 examples, hardware
    /// parallelism (`BW_THREADS` overridable), no recorder.
    pub fn builder(budget: f64) -> BellwetherConfigBuilder {
        BellwetherConfigBuilder {
            budget,
            min_coverage: 0.5,
            error_measure: ErrorMeasure::cv10(),
            min_examples: 10,
            parallelism: Parallelism::default(),
            recorder: Arc::new(NoopRecorder),
            scan_policy: ScanPolicy::Strict,
        }
    }

}

/// Builder for [`BellwetherConfig`] with typed validation: invalid knob
/// combinations are rejected at [`BellwetherConfigBuilder::build`] time
/// with a `BellwetherError::Config` instead of surfacing as a confusing
/// empty search result later.
#[derive(Debug, Clone)]
pub struct BellwetherConfigBuilder {
    budget: f64,
    min_coverage: f64,
    error_measure: ErrorMeasure,
    min_examples: usize,
    parallelism: Parallelism,
    recorder: Arc<dyn Recorder>,
    scan_policy: ScanPolicy,
}

impl BellwetherConfigBuilder {
    /// Coverage threshold C ∈ [0, 1].
    pub fn min_coverage(mut self, c: f64) -> Self {
        self.min_coverage = c;
        self
    }

    /// Error measure (§2).
    pub fn error_measure(mut self, m: ErrorMeasure) -> Self {
        self.error_measure = m;
        self
    }

    /// Minimum example count before a region can fit a model (≥ 1).
    pub fn min_examples(mut self, n: usize) -> Self {
        self.min_examples = n;
        self
    }

    /// Thread budget for every parallel code path driven from the config.
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Metrics sink (e.g. a shared `bellwether_obs::Registry`).
    pub fn recorder(mut self, r: Arc<dyn Recorder>) -> Self {
        self.recorder = r;
        self
    }

    /// Reaction to unreadable regions: fail fast (default) or skip up
    /// to a budget with exact accounting.
    pub fn scan_policy(mut self, p: ScanPolicy) -> Self {
        self.scan_policy = p;
        self
    }

    /// Validate and produce the config. Rejects non-positive or NaN
    /// budgets (`+inf` = unconstrained is fine), coverage outside
    /// `[0, 1]`, and `min_examples == 0`.
    pub fn build(self) -> Result<BellwetherConfig> {
        if self.budget.is_nan() || self.budget <= 0.0 {
            return Err(BellwetherError::Config(format!(
                "budget must be positive (or +inf for unconstrained), got {}",
                self.budget
            )));
        }
        if !(0.0..=1.0).contains(&self.min_coverage) {
            return Err(BellwetherError::Config(format!(
                "min_coverage must be in [0, 1], got {}",
                self.min_coverage
            )));
        }
        if self.min_examples == 0 {
            return Err(BellwetherError::Config(
                "min_examples must be at least 1".to_string(),
            ));
        }
        if let ErrorMeasure::CrossValidation { folds, .. } = self.error_measure {
            if folds < 2 {
                return Err(BellwetherError::Config(format!(
                    "cross-validation needs at least 2 folds, got {folds}"
                )));
            }
        }
        if self.parallelism.min_chunk == 0 {
            return Err(BellwetherError::Config(
                "parallelism.min_chunk must be at least 1".to_string(),
            ));
        }
        Ok(BellwetherConfig {
            budget: self.budget,
            min_coverage: self.min_coverage,
            error_measure: self.error_measure,
            min_examples: self.min_examples,
            parallelism: self.parallelism,
            recorder: self.recorder,
            scan_policy: self.scan_policy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> RegressionData {
        let mut d = RegressionData::new(2);
        for i in 0..n {
            d.push(&[1.0, i as f64], 5.0 + 2.0 * i as f64);
        }
        d
    }

    #[test]
    fn both_measures_agree_on_exact_data() {
        let d = line(100);
        let scratch = &mut EvalScratch::new();
        let cv = ErrorMeasure::cv10().estimate_with(&d, scratch).unwrap();
        let tr = ErrorMeasure::TrainingSet.estimate_with(&d, scratch).unwrap();
        assert!(cv.value < 1e-6);
        assert!(tr.value < 1e-6);
    }

    #[test]
    fn degenerate_data_yields_none() {
        let d = line(1);
        let scratch = &mut EvalScratch::new();
        assert!(ErrorMeasure::cv10().estimate_with(&d, scratch).is_none());
        assert!(ErrorMeasure::TrainingSet.estimate_with(&d, scratch).is_none());
    }

    #[test]
    fn measures_are_the_engine_estimates_bitwise() {
        use bellwether_linreg::SplitMix64;
        let mut rng = SplitMix64::new(17);
        let mut d = RegressionData::new(2);
        for i in 0..120 {
            let x = i as f64 / 10.0;
            let e = (rng.next_u64() as f64 / u64::MAX as f64 - 0.5) * 2.0;
            d.push(&[1.0, x], 1.0 + 2.0 * x + e);
        }
        let mut scratch = EvalScratch::new();
        let cv = ErrorMeasure::cv10().estimate_with(&d, &mut scratch).unwrap();
        let engine_cv = EvalScratch::new().cv_estimate(&d, 10, 0xBE11).unwrap();
        assert_eq!(cv.value.to_bits(), engine_cv.value.to_bits());
        assert_eq!(cv.std_err.to_bits(), engine_cv.std_err.to_bits());
        let tr = ErrorMeasure::TrainingSet.estimate_with(&d, &mut scratch).unwrap();
        let engine_tr = EvalScratch::new().training_estimate(&d).unwrap();
        assert_eq!(tr.value.to_bits(), engine_tr.value.to_bits());
        for (measure, full) in [(ErrorMeasure::cv10(), cv), (ErrorMeasure::TrainingSet, tr)] {
            let value = measure.estimate_value_with(&d, &mut scratch).unwrap();
            assert_eq!(value.to_bits(), full.value.to_bits());
        }
        assert!(scratch.stats.fits >= 11);
    }

    #[test]
    fn typed_builder_validates_and_builds() {
        let c = BellwetherConfig::builder(50.0)
            .min_coverage(0.8)
            .error_measure(ErrorMeasure::TrainingSet)
            .min_examples(5)
            .parallelism(Parallelism::fixed(3))
            .build()
            .unwrap();
        assert_eq!(c.budget, 50.0);
        assert_eq!(c.min_coverage, 0.8);
        assert_eq!(c.error_measure, ErrorMeasure::TrainingSet);
        assert_eq!(c.min_examples, 5);
        assert_eq!(c.parallelism, Parallelism::fixed(3));
        assert!(!c.recorder.enabled()); // default is the no-op recorder

        // Unconstrained budget is legal, and defaults are the paper's.
        let built = BellwetherConfig::builder(f64::INFINITY).build().unwrap();
        assert_eq!(built.budget, f64::INFINITY);
        assert_eq!(built.min_coverage, 0.5);
        assert_eq!(built.error_measure, ErrorMeasure::cv10());
        assert_eq!(built.min_examples, 10);
    }

    #[test]
    fn typed_builder_rejects_bad_knobs() {
        assert!(BellwetherConfig::builder(0.0).build().is_err());
        assert!(BellwetherConfig::builder(-1.0).build().is_err());
        assert!(BellwetherConfig::builder(f64::NAN).build().is_err());
        assert!(BellwetherConfig::builder(1.0).min_coverage(1.5).build().is_err());
        assert!(BellwetherConfig::builder(1.0).min_coverage(-0.1).build().is_err());
        assert!(BellwetherConfig::builder(1.0)
            .min_coverage(f64::NAN)
            .build()
            .is_err());
        assert!(BellwetherConfig::builder(1.0).min_examples(0).build().is_err());
        assert!(BellwetherConfig::builder(1.0)
            .error_measure(ErrorMeasure::CrossValidation { folds: 1, seed: 0 })
            .build()
            .is_err());
        // min_chunk == 0 cannot come from with_min_chunk (it panics) but
        // can from direct field assignment; the builder rejects it too.
        let mut zero = Parallelism::fixed(2);
        zero.min_chunk = 0;
        assert!(BellwetherConfig::builder(1.0)
            .parallelism(zero)
            .build()
            .is_err());
    }

    #[test]
    fn builder_sets_scan_policy() {
        let c = BellwetherConfig::builder(1.0).build().unwrap();
        assert_eq!(c.scan_policy, ScanPolicy::Strict);
        let c = BellwetherConfig::builder(1.0)
            .scan_policy(ScanPolicy::SkipUnreadable { max_skipped: 3 })
            .build()
            .unwrap();
        assert_eq!(c.scan_policy, ScanPolicy::SkipUnreadable { max_skipped: 3 });
    }

    #[test]
    fn builder_attaches_recorder() {
        let reg = bellwether_obs::Registry::shared();
        let c = BellwetherConfig::builder(1.0)
            .recorder(reg.clone())
            .build()
            .unwrap();
        assert!(c.recorder.enabled());
        c.recorder.add("probe", 2);
        assert_eq!(reg.snapshot().counter("probe"), Some(2));
    }
}
