//! Incremental bellwether maintenance: O(Δ) streaming appends.
//!
//! [`StreamingBellwether`] keeps a live bellwether search warm across
//! fact appends without ever rebuilding the world:
//!
//! 1. the delta CUBE ([`StreamingCube`]) folds the new rows into its
//!    retained suffstat tables and reports exactly which candidate
//!    regions changed (the *dirty set*);
//! 2. only those regions' training blocks are re-assembled, each handed
//!    as it is built to the engine's [`MemberWriter`], whose thread
//!    writes them to the sharded layout as a new *generation* (an
//!    append-only overlay — clean blocks are never rewritten) and
//!    commits it;
//! 3. while it commits, only the dirty candidates are re-scored, over the
//!    blocks just built — the cold search's own scan (`scan_regions`, so
//!    its panic isolation and the config's `ScanPolicy`) with the dirty
//!    set as its pre-read filter;
//! 4. once the commit is durable and the sharded source has adopted that
//!    generation (opening only the new overlay file), the blocks replace
//!    the dirty regions' entries in the [`CachedSource`] and the
//!    re-scored reports are adopted (every clean block stays cached, and
//!    no block is read back from disk); the argmin is recomputed over the
//!    retained per-region reports. An argmin flip is a [`DriftEvent`] —
//!    the signal a server uses to hot-swap its model.
//!
//! # Equivalence contract
//!
//! After any sequence of appends, [`StreamingBellwether::search_result`]
//! is **bit-identical** to running [`basic_search`] cold over a layout
//! built from the concatenated input: the delta cube is bit-identical
//! by construction (see `bellwether-cube`'s `delta` module), the block
//! assembly is the same [`region_block_lane`] call, and the re-score *is*
//! `basic_search`'s scan and its `(error, source index)` argmin, not a
//! copy of them. Regions *not* in the dirty set keep their previous
//! report, which is bit-identical to what a cold pass would recompute
//! because their suffstats did not change.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bellwether_cube::{CostModel, CubeInput, RegionId, RegionSpace, StreamingCube};
use bellwether_obs::{names, span, MetricsSnapshot};
use bellwether_storage::{
    even_shard_plan, CachedSource, MemberWriter, RegionBlock, ShardedSource, ShardedWriter,
    TrainingSource,
};
use bellwether_table::ColumnData;

use crate::basic::{
    basic_search, evaluate_regions, min_error, BasicSearchResult, Evaluated, RegionReport,
};
use crate::error::{BellwetherError, Result};
use crate::items::ItemTable;
use crate::problem::BellwetherConfig;
use crate::scan::{merge_skipped, Scanned};
use crate::training::{region_block_lane, target_lane};

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
    /// Stale cached blocks the append's own blocks replaced.
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
    /// τ over `items`' rows ([`target_lane`]).
    tau: ColumnData<f64>,
    regions: Vec<RegionId>,
    region_index: HashMap<RegionId, usize>,
    cost_model: Arc<dyn CostModel + Send + Sync>,
    config: BellwetherConfig,
    total_items: usize,
    dir: PathBuf,
    source: CachedSource<ShardedSource>,
    /// The thread the overlays are written on.
    writer: MemberWriter,
    /// Retained per-candidate reports, indexed by source index.
    reports: Vec<Option<RegionReport>>,
    /// Source index of the current bellwether.
    best: Option<usize>,
    /// Regions the scan that last read them found unreadable — the
    /// bootstrap's, then each re-score's verdict on its dirty candidates
    /// (for [`Self::search_result`] parity with [`basic_search`]).
    skipped: Vec<usize>,
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
        let tau = target_lane(&items, &targets);
        for region in &regions {
            writer.write_region(&region_block_lane(cube.result(), region, &items, &tau))?;
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
            tau,
            regions,
            region_index,
            cost_model,
            config,
            total_items,
            dir: dir.to_path_buf(),
            source,
            writer: MemberWriter::new(),
            reports,
            best,
            skipped: boot.skipped_regions,
            unpublished: Vec::new(),
            appends: 0,
            drift_log: Vec::new(),
        })
    }

    /// Fold `delta` into the stream: update the cube, rewrite exactly
    /// the dirty candidates' blocks as a new storage generation, put
    /// them in the cache in place of the stale entries, re-score them,
    /// and recompute the argmin. An append the cube rejects (shape
    /// mismatch) leaves every layer of state unchanged. When storage fails after the cube took
    /// the rows, the call is an `Err` and is not counted, the rows stay
    /// folded, and the next append publishes this one's dirty
    /// candidates with its own — the engine converges on the cold
    /// result instead of serving the stale blocks forever.
    pub fn append(&mut self, delta: &CubeInput) -> Result<AppendOutcome> {
        let rec = Arc::clone(&self.config.recorder);
        let _append = span!(rec, "{}", names::STREAM_APPEND);
        let update = {
            let _cube = span!(rec, "{}", names::STREAM_APPEND_DELTA_CUBE);
            self.cube.append(delta)?
        };

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
            rec.add(names::STREAM_DRIFT_EVENTS, 1);
            self.drift_log.push(event.clone());
            outcome.drift = Some(event);
        }
        self.best = new_best;
        Ok(outcome)
    }

    /// Rewrite the `dirty` candidates' blocks under a new generation and
    /// re-score them while it commits, then adopt the generation and seed
    /// the cache with the blocks.
    fn publish(&mut self, dirty: &[usize], outcome: &mut AppendOutcome) -> Result<()> {
        let rec = Arc::clone(&self.config.recorder);
        let _publish = span!(rec, "{}", names::STREAM_APPEND_PUBLISH);
        // The append publishes the generation after the one the
        // source serves, so adopt first whatever was published since
        // this engine's last refresh: another writer's generation, or
        // this engine's own when the refresh after it failed. Either may
        // replace blocks the cache holds.
        let source = self.source.inner();
        let served = source.generation();
        if source.refresh()? != served {
            self.source.clear();
        }
        let mut append = self.writer.append(source);
        // Each block goes to the overlay writer as it is built; `dirty`
        // ascends, as the append requires.
        let blocks = {
            let _build = span!(rec, "{}", names::STREAM_APPEND_BLOCK_BUILD);
            let (cube, items, tau) = (self.cube.result(), &self.items, &self.tau);
            let mut blocks = Vec::with_capacity(dirty.len());
            for &idx in dirty {
                let block = Arc::new(region_block_lane(cube, &self.regions[idx], items, tau));
                append.write_region(idx, Arc::clone(&block))?;
                blocks.push(block);
            }
            blocks
        };
        #[cfg(test)]
        tests::other_writer(tests::Stage::BeforeCommit, &self.dir);
        let commit = append.commit();
        // While the overlay commits, re-score the very blocks it holds.
        let rescored = {
            let _rescore = span!(rec, "{}", names::STREAM_APPEND_RESCORE);
            let writing = Writing {
                source: &self.source,
                dirty,
                blocks: &blocks,
            };
            self.evaluate(&writing, dirty)
        };
        // The stale blocks the overlay replaces leave the cache now and
        // are freed while the commit may still run; the cache takes the
        // new blocks once the source serves them.
        let stale = self.source.take_regions(dirty.iter().copied());
        outcome.blocks_invalidated = stale.len() as u64;
        drop(stale);
        let published = {
            let _wait = span!(rec, "{}", names::STREAM_APPEND_COMMIT_WAIT);
            commit.join(rec.as_ref())?
        };
        #[cfg(test)]
        tests::other_writer(tests::Stage::AfterCommit, &self.dir);
        outcome.generation = {
            let _refresh = span!(rec, "{}", names::STORAGE_REFRESH);
            self.source.inner().refresh()?
        };
        // The cache may hold a dirty block, and the engine the report
        // scored from it, only once the source serves it: a newer
        // generation another writer published may hold other blocks for
        // these regions, and then the re-score reads what the source
        // serves.
        let adopted = outcome.generation == published;
        if adopted {
            let replaced = self.source.replace_regions(dirty.iter().copied().zip(blocks));
            outcome.blocks_invalidated += replaced;
        } else {
            self.source.clear();
        }
        rec.add(names::STORAGE_CACHE_INVALIDATIONS, outcome.blocks_invalidated);
        if adopted {
            self.adopt(dirty, rescored?, outcome);
            Ok(())
        } else {
            let _rescore = span!(rec, "{}", names::STREAM_APPEND_RESCORE);
            self.rescore(dirty, outcome)
        }
    }

    /// Re-score the `dirty` candidates through the cold search's own
    /// scan, narrowed to them, reading what the source serves.
    fn rescore(&mut self, dirty: &[usize], outcome: &mut AppendOutcome) -> Result<()> {
        let scanned = self.evaluate(&self.source, dirty)?;
        self.adopt(dirty, scanned, outcome);
        Ok(())
    }

    /// Evaluate the `dirty` candidates of `source`: an over-budget region
    /// is still never read and stays report-less, an unreadable one is
    /// the scan policy's to fail on or to skip.
    fn evaluate(&self, source: &dyn TrainingSource, dirty: &[usize]) -> Result<Scanned<Evaluated>> {
        evaluate_regions(
            source,
            &self.space,
            self.cost_model.as_ref(),
            &self.config,
            self.total_items,
            |idx| dirty.binary_search(&idx).is_ok(),
        )
    }

    /// Take the re-scored `dirty` candidates' reports; a skipped one loses
    /// its report.
    fn adopt(&mut self, dirty: &[usize], scanned: Scanned<Evaluated>, outcome: &mut AppendOutcome) {
        outcome.rescored = scanned.acc.len();
        for (idx, report) in scanned.acc {
            self.reports[idx] = report;
        }
        self.skipped.retain(|idx| dirty.binary_search(idx).is_err());
        merge_skipped(&mut self.skipped, &scanned.skipped);
        for &idx in &scanned.skipped {
            self.reports[idx] = None;
        }
    }

    /// Argmin over retained reports by `(error, source index)` — the
    /// order `basic_search` uses.
    fn argmin(&self) -> Option<usize> {
        let reports = self.reports.iter().enumerate();
        min_error(reports.filter_map(|(idx, report)| Some((idx, report.as_ref()?))))
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

/// The engine's source with the blocks an append is writing served from
/// memory, by ascending region index: what the re-score reads while the
/// overlay commits. Every other region reads through to the source.
struct Writing<'a> {
    source: &'a CachedSource<ShardedSource>,
    dirty: &'a [usize],
    blocks: &'a [Arc<RegionBlock>],
}

impl TrainingSource for Writing<'_> {
    fn num_regions(&self) -> usize {
        self.source.num_regions()
    }

    fn feature_arity(&self) -> usize {
        self.source.feature_arity()
    }

    fn region_coords(&self, idx: usize) -> &[u32] {
        self.source.region_coords(idx)
    }

    fn read_region(&self, idx: usize) -> std::io::Result<Arc<RegionBlock>> {
        match self.dirty.binary_search(&idx) {
            Ok(i) => Ok(Arc::clone(&self.blocks[i])),
            Err(_) => self.source.read_region(idx),
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.source.snapshot()
    }

    fn record_corrupt_block(&self) {
        self.source.record_corrupt_block();
    }

    fn shard_starts(&self) -> Option<Vec<usize>> {
        self.source.shard_starts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ErrorMeasure;
    use crate::scan::ScanPolicy;
    use bellwether_cube::{Dimension, Hierarchy, Measure, UniformCellCost};
    use bellwether_storage::ShardAppender;
    use bellwether_table::ops::AggFunc;
    use bellwether_table::{Column, DataType, Schema, Table};
    use std::cell::RefCell;
    use std::io::{Seek, SeekFrom, Write};

    /// Where [`other_writer`] acts in a publish.
    #[derive(Clone, Copy, PartialEq)]
    pub(super) enum Stage {
        /// The blocks are handed to the overlay writer, not yet committed.
        BeforeCommit,
        /// The commit has landed; the source has not refreshed.
        AfterCommit,
    }

    type OtherWrite = Box<dyn FnOnce(&Path)>;

    thread_local! {
        static OTHER_WRITER: RefCell<Option<(Stage, OtherWrite)>> = const { RefCell::new(None) };
    }

    /// Run, once, the write [`when`] set for `stage` on this thread,
    /// over the layout in `dir`.
    pub(super) fn other_writer(stage: Stage, dir: &Path) {
        let due = OTHER_WRITER.with(|w| {
            let mut w = w.borrow_mut();
            if w.as_ref().is_some_and(|(at, _)| *at == stage) {
                w.take()
            } else {
                None
            }
        });
        if let Some((_, write)) = due {
            write(dir);
        }
    }

    /// Have another writer run `write` over the layout when the next
    /// publish on this thread reaches `stage`.
    fn when(stage: Stage, write: impl FnOnce(&Path) + 'static) {
        OTHER_WRITER.with(|w| *w.borrow_mut() = Some((stage, Box::new(write))));
    }

    /// Every one of 12 items sells in both leaves in each of `weeks`
    /// (0-based), in that order.
    fn weeks(weeks: &[u32]) -> CubeInput {
        let rows = weeks.iter().flat_map(|&week| {
            (1..=12i64).flat_map(move |id| [1u32, 2].map(|leaf| (week, id, leaf)))
        });
        let profit = |(week, id, leaf): (u32, i64, u32)| {
            ((id * 7 + leaf as i64 * 3 + week as i64) % 11) as f64
        };
        CubeInput {
            item_ids: rows.clone().map(|(_, id, _)| id).collect(),
            coords: rows
                .clone()
                .flat_map(|(week, _, leaf)| [week, leaf])
                .collect(),
            measures: vec![Measure::Numeric {
                name: "profit".into(),
                func: AggFunc::Sum,
                values: rows.map(|row| Some(profit(row))).collect(),
            }],
        }
    }

    fn week(week: u32) -> CubeInput {
        weeks(&[week])
    }

    /// Three weeks × {All, a, b}: nine candidates over week 0.
    fn engine(tag: &str) -> StreamingBellwether {
        engine_over(tag, &[0])
    }

    /// The engine over `base` weeks: built by a cold search, the oracle
    /// of an engine that appended the same weeks.
    fn engine_over(tag: &str, base: &[u32]) -> StreamingBellwether {
        let space = RegionSpace::new(vec![
            Dimension::Interval {
                name: "T".into(),
                max_t: 3,
            },
            Dimension::Hierarchy(Hierarchy::flat("L", "All", &["a", "b"])),
        ]);
        let ids: Vec<i64> = (1..=12).collect();
        let table = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("rd", DataType::Float)]).unwrap(),
            vec![
                Column::from_ints(ids.clone()),
                Column::from_floats(ids.iter().map(|&id| (id % 5) as f64).collect()),
            ],
        )
        .unwrap();
        let items = ItemTable::from_table(&table, "id", &["rd"], &[]).unwrap();
        let targets = ids.iter().map(|&id| (id, (id * id % 17) as f64)).collect();
        let regions = (0..3).flat_map(|t| (0..3).map(move |l| RegionId(vec![t, l]))).collect();
        let config = BellwetherConfig::builder(f64::INFINITY)
            .min_coverage(0.0)
            .min_examples(4)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap();
        let dir = std::env::temp_dir().join(format!("bw_stream_unit_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        StreamingBellwether::create(
            &dir,
            &space,
            &weeks(base),
            &ids,
            items,
            targets,
            regions,
            Arc::new(UniformCellCost { rate: 1.0 }),
            config,
            12,
            2,
            1 << 20,
        )
        .unwrap()
    }

    /// The re-score is a filtered `scan_regions`: what it does with a
    /// dirty block it cannot read is the scan policy's call, and what it
    /// skipped is part of the search result until a later append reads
    /// the region again.
    #[test]
    fn an_unreadable_dirty_block_is_the_scan_policys_to_judge() {
        let mut engine = engine("policy");
        let mut outcome = engine.append(&week(1)).unwrap();
        // Week 1 reaches the intervals [0..=1] and [0..=2] in every
        // location: candidates 3..9.
        let dirty: Vec<usize> = (3..9).collect();
        assert_eq!((outcome.dirty_candidates, outcome.rescored), (6, 6));
        let healthy = engine.search_result();
        assert_eq!(healthy.reports.len(), 9);

        // Damage the last block of the overlay the append wrote, and
        // make the re-score read it again.
        let view = engine.source.inner().manifest().unwrap();
        let overlay = engine.dir.join(&view.overlays.last().unwrap().file);
        let len = std::fs::metadata(&overlay).unwrap().len();
        let mut file = std::fs::OpenOptions::new().write(true).open(&overlay).unwrap();
        file.seek(SeekFrom::Start(len - 200)).unwrap();
        file.write_all(&[0xA5; 8]).unwrap();
        drop(file);
        engine.source.clear();

        let err = engine.rescore(&dirty, &mut outcome).unwrap_err();
        let BellwetherError::RegionRead { index: bad, .. } = err else {
            panic!("expected RegionRead, got {err}");
        };
        assert!(dirty.contains(&bad), "region {bad}");

        engine.config.scan_policy = ScanPolicy::SkipUnreadable { max_skipped: 1 };
        engine.rescore(&dirty, &mut outcome).unwrap();
        assert_eq!(outcome.rescored, 5);
        let degraded = engine.search_result();
        assert_eq!(degraded.skipped_regions, vec![bad]);
        let kept: Vec<usize> = degraded.reports.iter().map(|r| r.source_index).collect();
        assert_eq!(kept, (0..9).filter(|&idx| idx != bad).collect::<Vec<_>>());
        for report in &degraded.reports {
            let before = &healthy.reports[report.source_index];
            assert_eq!(report.error.value.to_bits(), before.error.value.to_bits());
        }

        // The next append rewrites the region and reads it back.
        let outcome = engine.append(&week(1)).unwrap();
        assert_eq!(outcome.rescored, 6);
        let recovered = engine.search_result();
        assert!(recovered.skipped_regions.is_empty());
        assert_eq!(recovered.reports.len(), 9);
        std::fs::remove_dir_all(engine.dir()).ok();
    }

    /// Another writer takes the generation's name while the append's
    /// overlay is being written, so its commit fails: the re-score that
    /// ran beside it is dropped, and the reports, the skipped set and
    /// the drift log stay as they were. The next append adopts the other
    /// writer's generation, publishes the stranded candidates with its
    /// own, and serves the cold search over every week folded.
    #[test]
    fn a_failed_commit_changes_nothing_and_the_next_append_converges() {
        let mut engine = engine("commit_fails");
        engine.append(&week(1)).unwrap();
        let (before, drifts) = (engine.search_result(), engine.drift_log().to_vec());
        // The other writer republishes a block week 2 leaves alone.
        when(Stage::BeforeCommit, |dir| {
            let served = ShardedSource::open(dir).unwrap().read_region(0).unwrap();
            let mut other = ShardAppender::open(dir).unwrap();
            other.write_region(0, &served).unwrap();
            other.finish().unwrap();
        });
        let err = engine.append(&week(2)).unwrap_err();
        assert!(matches!(err, BellwetherError::Io(_)), "{err}");
        assert_eq!(engine.appends(), 1);
        assert_eq!(engine.generation(), 1, "nothing adopted");
        let after = engine.search_result();
        assert_eq!(format!("{after:?}"), format!("{before:?}"));
        assert_eq!(engine.drift_log(), drifts);

        let outcome = engine.append(&week(2)).unwrap();
        assert_eq!(
            outcome.generation, 3,
            "after the other writer's generation 2"
        );
        let cold = engine_over("commit_fails_cold", &[0, 1, 2, 2]);
        let (got, want) = (engine.search_result(), cold.search_result());
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        std::fs::remove_dir_all(engine.dir()).ok();
        std::fs::remove_dir_all(cold.dir()).ok();
    }

    /// When another writer publishes after the append's commit, the
    /// source adopts its generation too, and what it serves for the dirty
    /// regions is no longer what the engine wrote: the engine drops the
    /// re-score it ran over its own blocks and the cache, and re-scores
    /// from the source.
    #[test]
    fn a_newer_generation_adopted_after_the_commit_is_rescored_from_the_source() {
        let mut engine = engine("newer");
        // Week 1 dirties candidates 3..9; the other writer changes one.
        when(Stage::AfterCommit, |dir| {
            let served = ShardedSource::open(dir).unwrap().read_region(4).unwrap();
            let mut changed = (*served).clone();
            for (i, y) in changed.targets.iter_mut().enumerate() {
                *y = *y * 3.0 + (i % 2) as f64;
            }
            let mut other = ShardAppender::open(dir).unwrap();
            other.write_region(4, &changed).unwrap();
            other.finish().unwrap();
        });
        let outcome = engine.append(&week(1)).unwrap();
        assert_eq!((outcome.generation, outcome.rescored), (2, 6));
        // Cleared, not seeded: the cache holds only what the re-score read.
        assert_eq!(engine.source().cached_blocks(), 6);
        let fresh = ShardedSource::open(engine.dir()).unwrap();
        let cold = basic_search(
            &fresh,
            &engine.space,
            engine.cost_model.as_ref(),
            &engine.config,
            engine.total_items,
        )
        .unwrap();
        let got = engine.search_result();
        assert_eq!(format!("{got:?}"), format!("{cold:?}"));
        std::fs::remove_dir_all(engine.dir()).ok();
    }
}
