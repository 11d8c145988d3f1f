//! # bellwether-core
//!
//! A faithful reproduction of **"Bellwether Analysis: Predicting Global
//! Aggregates from Local Regions"** (Chen, Ramakrishnan, Shavlik, Tamma
//! — VLDB 2006).
//!
//! Bellwether analysis finds a *cost-bounded region* of an OLAP
//! dimension space (e.g. `[first 2 weeks, Wisconsin]`) whose
//! query-generated features best predict a global, query-generated
//! target (e.g. first-year worldwide profit) — turning unlabeled
//! historical data into supervised training sets with no human
//! labelling.
//!
//! The crate provides:
//!
//! * [`problem`] — Definitions 1 and 2 (constrained-optimization
//!   criterion, error measures);
//! * [`features`] — the stylized feature/target generation queries over
//!   a star schema and their CUBE rewrite (§4.2);
//! * [`training`] — materialisation of the entire training data;
//! * [`task`] — the bellwether task as data, and the one entry that
//!   materialises its training data into memory or a sharded layout;
//! * [`basic`] — basic bellwether search, plus the Avg-Err baseline and
//!   the Figure 7(b) indistinguishability analysis;
//! * [`sampling`] — the random-collection baseline (Smp Err);
//! * [`tree`] — bellwether trees: naive and RainForest-style (Lemma 1);
//! * [`cube`] — bellwether cubes: naive, single-scan (Lemma 2) and the
//!   Theorem-1 optimized algorithm, with confidence-bound cell selection
//!   for prediction;
//! * [`predict`] — the item-centric evaluation harness comparing the
//!   basic/tree/cube methods.
//!
//! See the workspace README for an end-to-end example.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod basic;
pub mod cube;
pub mod error;
pub mod eval;
pub mod features;
pub mod items;
pub mod model;
pub mod predict;
pub mod problem;
pub mod report;
pub mod sampling;
pub mod scan;
pub mod seeded;
pub mod stream;
pub mod task;
pub mod training;
pub mod tree;

pub use basic::{
    basic_search, basic_search_linear, BasicSearchResult, LinearCriterion,
    LinearSearchResult, RegionReport,
};
pub use cube::naive::build_naive_cube;
pub use cube::optimized::build_optimized_cube;
pub use cube::predict::{candidate_cells, select_cell, select_cell_for_item};
pub use cube::single_scan::build_single_scan_cube;
pub use cube::{BellwetherCube, CubeConfig, CubeConfigBuilder, SubsetCell};
pub use error::{BellwetherError, Result};
pub use eval::{record_eval_stats, RegionEvalScratch};
pub use bellwether_cube::Parallelism;
pub use bellwether_obs::{
    MetricsSnapshot, NoopRecorder, Recorder, Registry,
};
pub use bellwether_storage::retry::{RetryPolicy, RetryPolicyBuilder, RetryingSource};
pub use features::{build_cube_input, global_target, FeatureQuery, StarDatabase};
pub use items::{ItemIndex, ItemTable};
pub use model::{BellwetherModel, MethodKind, ModelBuilder};
pub use predict::{evaluate_method, EvalContext, ItemCentricEval, Method};
pub use problem::{BellwetherConfig, BellwetherConfigBuilder, ErrorMeasure};
pub use report::BellwetherReport;
pub use sampling::sampling_baseline_error;
pub use scan::{
    scan_regions, BestRegion, Concat, MergeableAccumulator, ScanPolicy, ScanScratch, Scanned,
    WithScratch,
};
pub use seeded::{hash_fold, seeded_rng};
pub use stream::{AppendOutcome, DriftEvent, StreamingBellwether};
pub use task::{Layout, Memory, Sink, TrainingTask};
pub use training::{build_memory_source, region_block};
pub use tree::naive::build_naive as build_naive_tree;
pub use tree::prune::prune_tree;
pub use tree::rainforest::build_rainforest;
pub use tree::{BellwetherTree, NodeInfo, SplitCriterion, TreeConfig, TreeConfigBuilder};
