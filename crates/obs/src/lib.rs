//! # bellwether-obs
//!
//! The workspace-wide observability layer: a zero-dependency metrics
//! registry with named monotonic [`Counter`]s, [`Gauge`]s and
//! hierarchical span timers, cheap enough to stay on in release builds.
//!
//! Three layers, from hot to cold:
//!
//! * **Handles** — [`Counter`] / [`Gauge`] are `Arc<AtomicU64>` wrappers;
//!   holding one makes an increment a single relaxed atomic op, with no
//!   name lookup. The storage crate's `IoStats` and every storage
//!   wrapper hold these handles, and read them back through
//!   `TrainingSource::snapshot`.
//! * **[`Recorder`]** — the dynamic sink the algorithms talk to. The
//!   default [`NoopRecorder`] reports `enabled() == false`, so an
//!   instrumented kernel pays one branch per *phase* (never per row)
//!   when observability is off. [`Registry`] implements `Recorder`.
//! * **[`Registry`] / [`MetricsSnapshot`]** — the named store and its
//!   point-in-time copy, with hand-rolled JSON export (the build is
//!   offline; the shape matches the bench harness reports) and a
//!   rendered span tree for profiles.
//!
//! Beside them, [`peak_rss_bytes`] / [`reset_peak_rss`] read and reset
//! the kernel's resident-set high-water mark of this process.
//!
//! Span paths are hierarchical by `/` segments — `cube_pass/phase1_scan`
//! nests under `cube_pass` — and the [`span!`] macro produces a drop
//! guard that records elapsed wall-clock time on scope exit:
//!
//! ```
//! use bellwether_obs::{span, Recorder, Registry};
//!
//! let reg = Registry::shared();
//! {
//!     let _outer = span!(reg, "cube_pass");
//!     let _inner = span!(reg, "cube_pass/phase{}", 1);
//! } // guards drop here, recording both spans
//! reg.add("cube_pass/rows_scanned", 4096);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("cube_pass/rows_scanned"), Some(4096));
//! println!("{}", snap.render_span_tree());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod names;
mod registry;
mod rss;
mod snapshot;
mod span;

pub use registry::{Counter, Gauge, NoopRecorder, Recorder, Registry};
pub use rss::{peak_rss_bytes, reset_peak_rss};
pub use snapshot::{MetricsSnapshot, SpanStat};
pub use span::Span;
