//! Figure 8 — item-centric bellwether-based prediction on the mail-order
//! dataset: Basic vs Tree vs Cube (see [`bellwether_bench::figures::fig08`]).
//!
//! `BW_QUICK=1` runs a scaled-down configuration and writes nothing.

use bellwether_bench::{emit_figures, figures, quick_mode};
use std::process::ExitCode;

fn main() -> ExitCode {
    emit_figures(&figures::fig08(quick_mode()))
}
