//! Figure 10 — controlled simulation: error vs noise and vs concept
//! complexity (see [`bellwether_bench::figures::fig10`]).
//!
//! `BW_QUICK=1` runs a scaled-down configuration and writes nothing.

use bellwether_bench::{emit_figures, figures, quick_mode};
use std::process::ExitCode;

fn main() -> ExitCode {
    emit_figures(&figures::fig10(quick_mode()))
}
