//! # bellwether
//!
//! Umbrella crate for the reproduction of *"Bellwether Analysis:
//! Predicting Global Aggregates from Local Regions"* (Chen,
//! Ramakrishnan, Shavlik, Tamma — VLDB 2006).
//!
//! Re-exports the workspace crates under stable paths:
//!
//! * [`table`] — typed columnar tables, the `AggFunc` vocabulary, CSV import;
//! * [`linreg`] — OLS/WLS regression, Theorem-1 sufficient statistics,
//!   cross-validation, confidence intervals;
//! * [`cube`] — dimensions, regions, cost models, CUBE pass, lattice
//!   rollup;
//! * [`storage`] — region-partitioned entire-training-data storage;
//! * [`datagen`] — deterministic synthetic workloads;
//! * [`core`] — the paper's algorithms: basic search, bellwether trees
//!   and bellwether cubes, plus item-centric prediction;
//! * [`obs`] — zero-dependency metrics/span observability layer
//!   (attach a [`prelude::Registry`] via
//!   [`prelude::BellwetherConfig::builder`] to profile any run);
//! * [`serve`] — versioned model snapshots served over HTTP: train
//!   once, [`prelude::ModelBuilder`] + `save`, then answer predictions
//!   at QPS from an immutable [`prelude::BellwetherModel`];
//! * [`coord`] — deterministic multi-process shard coordinator: one
//!   worker process per shard behind a CRC-framed protocol, with a
//!   seeded fault-injected lifecycle (crash/hang/corrupt/slow),
//!   bounded restarts, and a replayable simulated transport.
//!
//! ```
//! use bellwether::prelude::*;
//!
//! // Generate a small planted mail-order-style dataset …
//! let mut cfg = RetailConfig::mail_order(60, 42);
//! cfg.months = 6;
//! cfg.converge_month = 4;
//! cfg.states = Some(vec!["MD", "WI", "CA", "TX", "NY", "IL"]);
//! let data = generate_retail(&cfg);
//!
//! // … label items with an aggregate query, build every region's
//! // training set in one CUBE pass …
//! let task = data.task();
//! let regions = task.regions_within(f64::INFINITY);
//! let source = task.materialize(&regions, Memory, Parallelism::default(), &NoopRecorder).unwrap();
//!
//! // … and find the bellwether under a budget, with metrics on.
//! let registry = Registry::shared();
//! let config = BellwetherConfig::builder(40.0)
//!     .min_coverage(0.5)
//!     .recorder(registry.clone())
//!     .build()
//!     .unwrap();
//! let search = basic_search(&source, &data.space, &data.cost, &config, data.items.len()).unwrap();
//! let report = search.report().expect("a bellwether exists");
//! assert!(report.n_examples > 0);
//! assert!(registry.snapshot().counter("search/regions_evaluated").unwrap() > 0);
//! ```

#![forbid(unsafe_code)]

pub use bellwether_coord as coord;
pub use bellwether_core as core;
pub use bellwether_cube as cube;
pub use bellwether_datagen as datagen;
pub use bellwether_linreg as linreg;
pub use bellwether_obs as obs;
pub use bellwether_serve as serve;
pub use bellwether_storage as storage;
pub use bellwether_table as table;

/// Common imports for end-to-end use of the library.
///
/// Brings in the space/config types, the search/tree/cube builders,
/// storage sources, the datagen workloads and the observability layer
/// ([`Registry`](bellwether_obs::Registry),
/// [`Recorder`](bellwether_obs::Recorder),
/// [`MetricsSnapshot`](bellwether_obs::MetricsSnapshot) and the
/// [`span!`](bellwether_obs::span) macro). Every example in
/// `examples/` compiles from this module alone.
pub mod prelude {
    pub use bellwether_core::{
        basic_search, basic_search_linear, build_cube_input, build_memory_source,
        build_naive_cube, build_naive_tree, build_optimized_cube, build_rainforest,
        build_single_scan_cube, evaluate_method, global_target, prune_tree,
        sampling_baseline_error, scan_regions, select_cell_for_item, BasicSearchResult,
        BellwetherConfig,
        BellwetherConfigBuilder, BellwetherCube, BellwetherError, BellwetherTree, CubeConfig,
        CubeConfigBuilder, ErrorMeasure, EvalContext, FeatureQuery, ItemCentricEval,
        BellwetherModel, BellwetherReport, ItemTable, LinearCriterion, MergeableAccumulator,
        Layout, Memory, Method, MethodKind, ModelBuilder, ScanPolicy, Scanned, SplitCriterion,
        StarDatabase, TrainingTask, TreeConfig, TreeConfigBuilder,
    };
    pub use bellwether_cube::{
        cube_pass, CostModel, CubeInput, Dimension, Hierarchy, Parallelism,
        ProductCost, RegionId, RegionSpace, UniformCellCost,
    };
    pub use bellwether_coord::{
        Coordinator, CoordinatorConfig, WorkerExit, WorkerFault, WorkerFaultPlan,
    };
    pub use bellwether_obs::{span, MetricsSnapshot, NoopRecorder, Recorder, Registry};
    pub use bellwether_serve::{ServeConfig, ServeConfigBuilder, Server, ServerHandle};
    pub use bellwether_datagen::{
        build_scale_workload, generate_retail, generate_simulation, RetailConfig, ScaleConfig,
        SimulationConfig,
    };
    pub use bellwether_linreg::{ErrorEstimate, LinearModel, RegSuffStats, RegressionData};
    pub use bellwether_storage::{
        even_shard_plan, is_corrupt, CachedSource, CorruptBlock, DiskSource,
        FaultPlan, FaultySource, MemorySource, RegionBlock, RetryPolicy, RetryPolicyBuilder,
        RetryingSource, ShardManifest, ShardedSource, ShardedWriter, TrainingSource,
    };
    pub use bellwether_table::ops::AggFunc;
    pub use bellwether_table::{Column, DataType, Schema, Table, Value};
}
