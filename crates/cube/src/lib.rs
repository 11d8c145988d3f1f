//! # bellwether-cube
//!
//! The OLAP substrate of the bellwether reproduction:
//!
//! * [`dimension`] — interval and hierarchical dimensions (§4.1), also
//!   used as item hierarchies (§6.1);
//! * [`region`] — the product space of candidate regions / cube subsets,
//!   with containment, enumeration and CUBE expansion;
//! * [`cost`] — monotone cost models (the κ query; basic search checks
//!   cost ≤ B before it reads a region, and coverage ≥ C from its block);
//! * [`mod@cube_pass`] — one-pass computation of every `(region, item)`
//!   aggregate, the §4.2 query rewrite, as a parallel allocation-lean
//!   kernel with a bit-identical-for-any-thread-count guarantee;
//! * [`parallel`] — the shared [`Parallelism`] thread-budget knob
//!   consumed by every multi-threaded code path in the workspace;
//! * [`rollup`] — generic algebraic-aggregate rollup over the item
//!   hierarchy lattice (Observation 1 / §6.4).
//!
//! ```
//! use bellwether_cube::{Dimension, Hierarchy, RegionSpace, RegionId};
//!
//! let mut loc = Hierarchy::new("Location", "All");
//! let us = loc.add_child(0, "US");
//! loc.add_child(us, "WI");
//! let space = RegionSpace::new(vec![
//!     Dimension::Interval { name: "Time".into(), max_t: 52 },
//!     Dimension::Hierarchy(loc),
//! ]);
//! assert_eq!(space.num_regions(), 52 * 3);
//! assert_eq!(space.label(&RegionId(vec![0, 2])), "[1-1, WI]");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod columns;
pub mod cost;
pub mod cube_pass;
pub mod delta;
pub mod dimension;
pub mod external;
mod fxhash;
pub mod parallel;
pub mod region;
pub mod rollup;
#[cfg(test)]
mod rollup_tests;
#[cfg(test)]
mod testutil;

pub use bellwether_obs::{NoopRecorder, Recorder, Registry};
pub use cost::{CostModel, ProductCost, UniformCellCost};
pub use cube_pass::{
    aggregate_filtered, cube_pass, cube_pass_traced, cube_pass_with, CubeError, CubeInput,
    CubeResult, Measure, RegionColumns, Row,
};
pub use delta::{DeltaUpdate, StreamingCube};
pub use external::{cube_pass_external, RUN_CHUNKS, UNLIMITED_BUDGET};
pub use parallel::{Parallelism, DEFAULT_MIN_CHUNK};
pub use dimension::{Dimension, HierNode, Hierarchy};
pub use region::{RegionId, RegionSpace};
pub use rollup::{rollup_lattice, LatticeSchedule};
