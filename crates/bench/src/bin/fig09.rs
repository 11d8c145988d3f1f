//! Figure 9 — the book-store dataset, where no clear bellwether exists
//! (see [`bellwether_bench::figures::fig09`]).
//!
//! `BW_QUICK=1` runs a scaled-down configuration and writes nothing.

use bellwether_bench::{emit_figures, figures, quick_mode};
use std::process::ExitCode;

fn main() -> ExitCode {
    emit_figures(&figures::fig09(quick_mode()))
}
