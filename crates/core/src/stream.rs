//! Incremental bellwether maintenance: O(Δ) streaming appends.
//!
//! [`StreamingBellwether`] keeps a live bellwether search warm across
//! fact appends without ever rebuilding the world:
//!
//! 1. the delta CUBE ([`StreamingCube`]) folds the new rows into its
//!    retained suffstat tables and reports exactly which candidate
//!    regions changed (the *dirty set*);
//! 2. only those regions' training blocks are re-assembled and written
//!    to the sharded layout as a new *generation* (an append-only
//!    overlay — clean blocks are never rewritten);
//! 3. the [`CachedSource`] evicts exactly the dirty blocks; every clean
//!    block stays cached and is never re-read;
//! 4. only the dirty candidates are re-scored, through a retained
//!    [`RegionEvalScratch`], and the argmin is recomputed over the
//!    retained per-region reports. An argmin flip is a
//!    [`DriftEvent`] — the signal a server uses to hot-swap its model.
//!
//! # Equivalence contract
//!
//! After any sequence of appends, [`StreamingBellwether::search_result`]
//! is **bit-identical** to running [`basic_search`] cold over a layout
//! built from the concatenated input: the delta cube is bit-identical
//! by construction (see `bellwether-cube`'s `delta` module), the block
//! assembly is the same [`region_block`] call, and the re-score path
//! replicates `basic_search`'s evaluation verbatim — same budget
//! prefilter (over-budget regions are never read, so they can never
//! enter the report set), same coverage/`min_examples` gates, same
//! scratch pipeline, same `(error, source index)` argmin tie-break.
//! Regions *not* in the dirty set keep their previous report, which is
//! bit-identical to what a cold pass would recompute because their
//! suffstats did not change.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bellwether_cube::{CostModel, CubeInput, RegionId, RegionSpace, StreamingCube};
use bellwether_obs::names;
use bellwether_storage::{
    even_shard_plan, CachedSource, ShardAppender, ShardedSource, ShardedWriter,
    TrainingSource,
};

use crate::basic::{basic_search, evaluate_candidate, BasicSearchResult, Candidate, RegionReport};
use crate::error::{BellwetherError, Result};
use crate::eval::RegionEvalScratch;
use crate::items::ItemTable;
use crate::problem::BellwetherConfig;
use crate::training::region_block;

/// One argmin flip: the bellwether changed identity after an append.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEvent {
    /// 1-based sequence number of the append that caused the flip.
    pub append_seq: u64,
    /// Previous bellwether region, if any.
    pub from: Option<RegionId>,
    /// Human label of the previous bellwether.
    pub from_label: Option<String>,
    /// Previous bellwether's error estimate.
    pub from_error: Option<f64>,
    /// New bellwether region, if any.
    pub to: Option<RegionId>,
    /// Human label of the new bellwether.
    pub to_label: Option<String>,
    /// New bellwether's error estimate.
    pub to_error: Option<f64>,
}

/// What one [`StreamingBellwether::append`] did.
#[derive(Debug, Clone)]
pub struct AppendOutcome {
    /// Fact rows folded into the delta cube.
    pub rows_appended: usize,
    /// Distinct base cells (finest coordinates, not `(region, item)`
    /// pairs) the appended rows touched.
    pub cells_dirtied: usize,
    /// Candidate regions whose training block was rewritten.
    pub dirty_candidates: usize,
    /// Dirty candidates actually re-scored (dirty minus over-budget).
    pub rescored: usize,
    /// Cached blocks evicted by the dirty-set invalidation.
    pub blocks_invalidated: u64,
    /// Storage generation after the append (unchanged if no candidate
    /// was dirty).
    pub generation: u64,
    /// The drift event, when the argmin flipped.
    pub drift: Option<DriftEvent>,
}

/// Incrementally maintained bellwether search over a sharded layout.
///
/// See the module docs for the maintenance pipeline and the
/// bit-identity contract.
pub struct StreamingBellwether {
    space: RegionSpace,
    cube: StreamingCube,
    items: ItemTable,
    targets: HashMap<i64, f64>,
    regions: Vec<RegionId>,
    region_index: HashMap<RegionId, usize>,
    cost_model: Arc<dyn CostModel + Send + Sync>,
    config: BellwetherConfig,
    total_items: usize,
    dir: PathBuf,
    source: CachedSource<ShardedSource>,
    /// Retained per-candidate reports, indexed by source index.
    reports: Vec<Option<RegionReport>>,
    /// Source index of the current bellwether.
    best: Option<usize>,
    /// Unreadable regions from the bootstrap scan (kept for
    /// [`Self::search_result`] parity with [`basic_search`]).
    skipped: Vec<usize>,
    scratch: RegionEvalScratch,
    /// Dirty candidates of appends whose publish failed after the cube
    /// had moved on: their blocks and reports are stale until the next
    /// append rewrites them.
    unpublished: Vec<usize>,
    appends: u64,
    drift_log: Vec<DriftEvent>,
}

impl StreamingBellwether {
    /// Build the stream: fold `base` into a fresh delta cube, write the
    /// initial sharded layout under `dir`, and bootstrap the report set
    /// with a cold [`basic_search`].
    ///
    /// `item_universe` pins the cube's item key space and must contain
    /// every item id any future append may carry (a superset is free —
    /// it never changes an output bit). `regions` is the candidate list
    /// in scan order; its order defines source indices for the lifetime
    /// of the stream. Returns [`BellwetherError::Config`] when the
    /// region × item key space is too large for dense delta keys or
    /// `base` is malformed.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        dir: &Path,
        space: &RegionSpace,
        base: &CubeInput,
        item_universe: &[i64],
        items: ItemTable,
        targets: HashMap<i64, f64>,
        regions: Vec<RegionId>,
        cost_model: Arc<dyn CostModel + Send + Sync>,
        config: BellwetherConfig,
        total_items: usize,
        n_shards: usize,
        cache_bytes: usize,
    ) -> Result<StreamingBellwether> {
        let cube = StreamingCube::new(space, base, item_universe, config.parallelism)
            .map_err(|e| BellwetherError::Config(format!("incremental maintenance: {e}")))?;

        std::fs::create_dir_all(dir)?;
        let n_static = items.numeric_attrs().len();
        let p = (1 + n_static + cube.result().measure_names.len()) as u32;
        let plan = even_shard_plan(regions.len(), n_shards);
        let mut writer = ShardedWriter::create(dir, p, space.arity() as u32, plan)?;
        for region in &regions {
            writer.write_region(&region_block(cube.result(), region, &items, &targets))?;
        }
        writer.finish()?;

        let source = CachedSource::new(ShardedSource::open(dir)?, cache_bytes);
        let boot = basic_search(
            &source,
            space,
            cost_model.as_ref(),
            &config,
            total_items,
        )?;
        let mut reports: Vec<Option<RegionReport>> = vec![None; regions.len()];
        for report in &boot.reports {
            reports[report.source_index] = Some(report.clone());
        }
        let best = boot.best.map(|i| boot.reports[i].source_index);

        let region_index = regions
            .iter()
            .enumerate()
            .map(|(i, r)| (r.clone(), i))
            .collect();
        Ok(StreamingBellwether {
            space: space.clone(),
            cube,
            items,
            targets,
            regions,
            region_index,
            cost_model,
            config,
            total_items,
            dir: dir.to_path_buf(),
            source,
            reports,
            best,
            skipped: boot.skipped_regions,
            scratch: RegionEvalScratch::new(),
            unpublished: Vec::new(),
            appends: 0,
            drift_log: Vec::new(),
        })
    }

    /// Fold `delta` into the stream: update the cube, rewrite exactly
    /// the dirty candidates' blocks as a new storage generation,
    /// invalidate their cache entries, re-score them, and recompute the
    /// argmin. An append the cube rejects (shape mismatch) leaves every
    /// layer of state unchanged. When storage fails after the cube took
    /// the rows, the call is an `Err` and is not counted, the rows stay
    /// folded, and the next append publishes this one's dirty
    /// candidates with its own — the engine converges on the cold
    /// result instead of serving the stale blocks forever.
    pub fn append(&mut self, delta: &CubeInput) -> Result<AppendOutcome> {
        let update = self.cube.append(delta).map_err(BellwetherError::Config)?;

        // Dirty *candidates*: the cube reports every dirty region in
        // the space; only those in our candidate list hold blocks.
        let mut dirty = std::mem::take(&mut self.unpublished);
        dirty.extend(
            update
                .dirty_regions
                .iter()
                .filter_map(|r| self.region_index.get(r).copied()),
        );
        dirty.sort_unstable();
        dirty.dedup();

        let old_best = self.best;
        let old_summary = old_best.and_then(|i| self.reports[i].clone());

        let mut outcome = AppendOutcome {
            rows_appended: update.rows_appended,
            cells_dirtied: update.cells_dirtied,
            dirty_candidates: dirty.len(),
            rescored: 0,
            blocks_invalidated: 0,
            generation: self.source.inner().generation(),
            drift: None,
        };
        if !dirty.is_empty() {
            if let Err(e) = self.publish(&dirty, &mut outcome) {
                self.unpublished = dirty;
                return Err(e);
            }
        }
        self.appends += 1;
        let rec = &self.config.recorder;
        rec.add(names::STREAM_APPENDS, 1);
        rec.add(names::STREAM_REGIONS_DIRTIED, dirty.len() as u64);
        rec.add(names::STREAM_REGIONS_EXTENDED, update.regions_extended as u64);
        rec.add(names::STREAM_REGIONS_REBUILT, update.regions_rebuilt as u64);
        rec.add(names::STREAM_REGIONS_RESCORED, outcome.rescored as u64);

        let new_best = self.argmin();
        if new_best != old_best {
            let to_summary = new_best.and_then(|i| self.reports[i].as_ref());
            let event = DriftEvent {
                append_seq: self.appends,
                from: old_summary.as_ref().map(|r| r.region.clone()),
                from_label: old_summary.as_ref().map(|r| r.label.clone()),
                from_error: old_summary.as_ref().map(|r| r.error.value),
                to: to_summary.map(|r| r.region.clone()),
                to_label: to_summary.map(|r| r.label.clone()),
                to_error: to_summary.map(|r| r.error.value),
            };
            self.config.recorder.add(names::STREAM_DRIFT_EVENTS, 1);
            self.drift_log.push(event.clone());
            outcome.drift = Some(event);
        }
        self.best = new_best;
        Ok(outcome)
    }

    /// Rewrite the `dirty` candidates' blocks under a new generation,
    /// adopt it, evict their cache entries and re-score them.
    fn publish(&mut self, dirty: &[usize], outcome: &mut AppendOutcome) -> Result<()> {
        // Blocks must be appended in ascending source order (the
        // appender enforces it); `dirty` is sorted.
        let mut appender = ShardAppender::open(&self.dir)?;
        for &idx in dirty {
            let block = region_block(
                self.cube.result(),
                &self.regions[idx],
                &self.items,
                &self.targets,
            );
            appender.write_region(idx, &block)?;
        }
        appender.finish()?;
        outcome.generation = self.source.inner().refresh()?;
        let evicted = self.source.invalidate_regions(dirty);
        outcome.blocks_invalidated = evicted;
        self.config
            .recorder
            .add(names::STORAGE_CACHE_INVALIDATIONS, evicted);

        // Re-score the dirty candidates as `basic_search` does: budget
        // prefilter *before* the read (an over-budget region is never
        // evaluated and stays report-less), then the evaluation function
        // the cold search itself calls.
        for &idx in dirty {
            let region = &self.regions[idx];
            if self.cost_model.cost(&self.space, region) > self.config.budget {
                continue;
            }
            let block = self
                .source
                .read_region(idx)
                .map_err(|e| BellwetherError::RegionRead { index: idx, source: e })?;
            outcome.rescored += 1;
            let candidate = Candidate {
                idx,
                region: region.clone(),
                block: &block,
            };
            self.reports[idx] = evaluate_candidate(
                &mut self.scratch,
                candidate,
                &self.space,
                self.cost_model.as_ref(),
                &self.config,
                self.total_items,
            );
        }
        Ok(())
    }

    /// Argmin over retained reports by `(error, source index)` — the
    /// same order `basic_search` uses (its reports arrive in source
    /// order, so its positional tie-break is the source-index one).
    fn argmin(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (idx, report) in self.reports.iter().enumerate() {
            let Some(r) = report else { continue };
            match best {
                Some((_, e)) if r.error.value.total_cmp(&e).is_ge() => {}
                _ => best = Some((idx, r.error.value)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// The current search state, shaped exactly as a cold
    /// [`basic_search`] over the concatenated input would return it.
    pub fn search_result(&self) -> BasicSearchResult {
        let reports: Vec<RegionReport> = self.reports.iter().flatten().cloned().collect();
        let best = self
            .best
            .map(|bi| reports.iter().position(|r| r.source_index == bi).expect("best report present"));
        BasicSearchResult {
            reports,
            best,
            skipped_regions: self.skipped.clone(),
        }
    }

    /// The current bellwether's report, if any region is feasible.
    pub fn bellwether(&self) -> Option<&RegionReport> {
        self.best.and_then(|i| self.reports[i].as_ref())
    }

    /// Every argmin flip observed so far, in append order.
    pub fn drift_log(&self) -> &[DriftEvent] {
        &self.drift_log
    }

    /// Number of appends folded so far.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Total fact rows folded (base + all appends).
    pub fn rows(&self) -> usize {
        self.cube.rows()
    }

    /// Current storage generation of the underlying layout.
    pub fn generation(&self) -> u64 {
        self.source.inner().generation()
    }

    /// The cached sharded source serving the training blocks.
    pub fn source(&self) -> &CachedSource<ShardedSource> {
        &self.source
    }

    /// The live delta cube (e.g. for inspecting the maintained
    /// `CubeResult`).
    pub fn cube(&self) -> &StreamingCube {
        &self.cube
    }

    /// The item table backing block assembly.
    pub fn items(&self) -> &ItemTable {
        &self.items
    }

    /// The on-disk layout directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}
