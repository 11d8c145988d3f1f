//! Figure 11 — efficiency and scalability, every region read from disk
//! (see [`bellwether_bench::figures::fig11`]).
//!
//! `BW_QUICK=1` runs a scaled-down configuration and writes nothing.

use bellwether_bench::{emit_figures, figures, quick_mode};
use std::process::ExitCode;

fn main() -> ExitCode {
    emit_figures(&figures::fig11(quick_mode()))
}
