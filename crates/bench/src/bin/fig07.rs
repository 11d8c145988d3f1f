//! Figure 7 — basic bellwether analysis of the mail-order dataset (see
//! [`bellwether_bench::figures::fig07`]), plus the bellwether region found
//! at each budget.
//!
//! `BW_QUICK=1` runs a scaled-down configuration and writes nothing.

use bellwether_bench::{emit_figures, figures, quick_mode};
use std::process::ExitCode;

fn main() -> ExitCode {
    let fig = figures::fig07(quick_mode());
    for (measure, winners) in [
        ("10-fold CV", &fig.winners_cv),
        ("training-set error", &fig.winners_training),
    ] {
        println!("bellwether regions by budget ({measure}):");
        for (budget, label) in winners {
            println!("  budget {budget}: {label}");
        }
    }
    emit_figures(&fig.reports)
}
