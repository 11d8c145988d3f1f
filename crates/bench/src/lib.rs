//! # bellwether-bench
//!
//! Shared harness code for the figure-reproduction binaries
//! (`fig07` … `fig12`) and the micro-benchmarks. Each binary
//! regenerates one figure of the paper's evaluation section, printing
//! the same series the paper plots and dumping machine-readable JSON
//! under `results/`. The micro-benchmarks use the local wall-clock
//! [`harness`] (the build is offline and self-contained).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
pub mod report;
pub mod setup;

pub use harness::{emit_metrics_json, BenchResult, Harness};
pub use report::{results_dir, FigureReport, Series};
pub use setup::{budget_filtered_source, prepare_retail, PreparedRetail};

/// True when the harness should run a scaled-down configuration
/// (`BW_QUICK=1`), used by smoke tests and constrained environments.
pub fn quick_mode() -> bool {
    std::env::var("BW_QUICK").is_ok_and(|v| v == "1")
}

/// Wall-clock seconds of a closure.
pub fn time_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
