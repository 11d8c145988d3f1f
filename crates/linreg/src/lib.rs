//! # bellwether-linreg
//!
//! The regression substrate of the bellwether reproduction: weighted
//! least squares fitted from the Theorem-1 sufficient statistic
//! (`⟨Y'WY, X'WX, X'WY⟩`, with exact merge/subtract) through one packed
//! Cholesky solve with a ridge fallback, k-fold cross-validation, and
//! error estimates with confidence intervals.
//!
//! Everything downstream — basic bellwether search, bellwether trees and
//! cubes — measures model quality through [`ErrorEstimate`]s produced
//! here, and the optimized cube algorithm rolls [`RegSuffStats`] up the
//! item-hierarchy lattice instead of refitting models.
//!
//! ```
//! use bellwether_linreg::{EvalScratch, RegressionData, RegSuffStats};
//!
//! let mut data = RegressionData::new(2);
//! for i in 0..50 {
//!     let x = i as f64;
//!     data.push(&[1.0, x], 3.0 + 2.0 * x);
//! }
//! let model = RegSuffStats::from_dataset(&data).fit().unwrap();
//! assert!((model.predict(&[1.0, 10.0]) - 23.0).abs() < 1e-6);
//! let err = EvalScratch::new().cv_estimate(&data, 10, 42).unwrap();
//! assert!(err.value < 1e-6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cholesky;
pub mod confint;
pub mod crossval;
pub mod dataset;
pub mod folded;
pub mod model;
pub mod stats;
pub mod suffstats;

pub use cholesky::{packed_idx, packed_len, packed_solve_spd_ridged, FitDiagnostics};
pub use confint::ErrorEstimate;
pub use crossval::{fold_assignment, fold_assignment_into};
pub use folded::{EvalScratch, EvalStats, FoldedSuffStats};
pub use dataset::RegressionData;
pub use model::{fit_wls, LinearModel};
pub use stats::{mean, normal_quantile, sample_std, sample_variance, SplitMix64};
pub use suffstats::RegSuffStats;
