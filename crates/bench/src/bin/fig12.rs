//! Figure 12 — the optimized cube against significant subsets and the RF
//! tree against item-table features (see [`bellwether_bench::figures::fig12`]).
//!
//! `BW_QUICK=1` runs a scaled-down configuration and writes nothing.

use bellwether_bench::{emit_figures, figures, quick_mode};
use std::process::ExitCode;

fn main() -> ExitCode {
    emit_figures(&figures::fig12(quick_mode()))
}
