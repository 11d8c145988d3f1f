//! # bellwether-datagen
//!
//! Deterministic synthetic workload generators standing in for the
//! resources the paper used but we cannot obtain:
//!
//! * [`retail`] — star-schema sales generators replacing the
//!   proprietary **mail order** (planted bellwether, Fig. 7/8) and
//!   **book store** (no clear bellwether, Fig. 9) datasets;
//! * [`simulation`] — the §7.3 controlled simulation (hidden decision
//!   tree over binary item features with per-leaf bellwether regions,
//!   Fig. 10);
//! * [`scale`] — the §7.4 scalability workload (2,500 items × as many
//!   regions as the experiment needs, streamed to disk, Fig. 11/12).
//!
//! All generators take explicit seeds and regenerate byte-identical
//! datasets, so every number in EXPERIMENTS.md is reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod retail;
pub mod rng;
pub mod scale;
pub mod simulation;
pub mod stream;

pub use retail::{generate_retail, RetailConfig, RetailDataset, US_CENSUS};
pub use rng::Gen;
pub use scale::{build_scale_workload, ScaleConfig, ScaleWorkload};
pub use simulation::{generate_simulation, Simulation, SimulationConfig};
pub use stream::{build_stream_workload, StreamConfig, StreamWorkload};
