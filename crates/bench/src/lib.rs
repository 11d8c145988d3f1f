//! # bellwether-bench
//!
//! The paper's evaluation section, regenerated: [`figures`] holds one
//! function per figure of §7, the `fig07` … `fig12` binaries print each
//! and write its JSON under `results/`, and `tests/figures.rs` holds the
//! committed files to them. The `ratchets` micro-benchmark times the
//! hand-written kernels against their baselines with the local
//! wall-clock [`harness`] (the build is offline and self-contained).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod harness;
pub mod report;
pub mod setup;

pub use harness::{BenchResult, Harness};
pub use report::{results_dir, FigureReport, Series};
pub use setup::{budget_filtered_source, prepare_retail, PreparedRetail};

use std::process::ExitCode;

/// True when the figure binaries should run a scaled-down configuration
/// (`BW_QUICK=1`), used by smoke runs and constrained environments.
pub fn quick_mode() -> bool {
    std::env::var("BW_QUICK").is_ok_and(|v| v == "1")
}

/// Wall-clock seconds of a closure.
pub fn time_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Print every report's table and write it to `results/<id>.json`, or
/// under [`quick_mode`] only print it: a quick run is smaller than the
/// committed figures and must not replace them. Fails at the first file
/// that cannot be written, so a broken regeneration exits non-zero.
pub fn emit_figures(reports: &[FigureReport]) -> ExitCode {
    let quick = quick_mode();
    for report in reports {
        if quick {
            println!("{}", report.render());
        } else if let Err(e) = report.emit(&results_dir()) {
            eprintln!("error: cannot write {}.json: {e}", report.id);
            return ExitCode::FAILURE;
        }
    }
    if quick {
        println!("(quick run: results/ left as committed)");
    }
    ExitCode::SUCCESS
}
