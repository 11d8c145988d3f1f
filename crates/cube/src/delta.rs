//! Incremental (delta) CUBE maintenance: `O(Δ)` appends instead of
//! full rebuilds.
//!
//! [`StreamingCube`] retains the phase-1 base-cell state of the
//! in-memory kernel ([`crate::cube_pass`]) between batches of fact
//! rows. An append folds **only the new rows** into chunk tables,
//! merges them into the retained state in the kernel's own
//! deterministic chunk order, and folds the touched cells onto the
//! retained phase-2 tables, re-finishing **only the regions whose
//! sufficient statistics changed** (the *dirty set*).
//!
//! # Delta algebra
//!
//! Theorem 1's sufficient statistic is mergeable, and the kernel's
//! accumulators are exactly that statistic in columnar form. The
//! retained `complete` table is the left fold of every *completed*
//! [`ROW_CHUNK`]-row chunk of the concatenated stream, merged in
//! ascending chunk order with the same copy-first semantics as the
//! cold pass's phase-1b merge (`MergeRuns`); rows past the last chunk
//! boundary wait in a `pending` tail (< one chunk) and are folded as the
//! partial final chunk of each rollup. Per `(cell, item)` slot the update sequence is
//! therefore *identical* to a cold pass over the concatenated data —
//! which is what makes stream-then-update **bit-identical** to a cold
//! rebuild, not merely close.
//!
//! # Dirty-set semantics
//!
//! A base cell is dirty iff a row of the current append touched it;
//! a region is dirty iff it contains a dirty cell. Cells that merely
//! *move* from the pending tail into `complete` when a chunk boundary
//! is crossed re-fold to bit-equal values (same rows, same order), so
//! they are not dirty and their regions keep their previous values
//! verbatim.
//!
//! # Resuming the rollup walk
//!
//! Phase 2 folds base cells in ascending key order into one running
//! table per table key and hands a table out as a region each time an
//! epoch closes (`RollupPlan` in [`crate::cube_pass`]: with time as the
//! major stride a table stands for `[1..t] × n` for every `t` from the
//! last time point it has seen; in any other space it is one region's
//! table). The stream retains those running tables, each with the
//! largest cell it has folded. An append walks its dirty cells the same
//! way. A table whose smallest dirty cell lies past everything it has
//! folded — an append at the end of the timeline — sees the new cells as
//! a pure suffix of its fold, so the walk is *resumed* on it: the cells
//! merge in place and the table is handed out again for every epoch
//! from the first dirty one on, one finish shared by all the regions it
//! now stands for. These are the very operations the cold pass would
//! run, in the same order, hence bit-identical. Any other table (a
//! re-appended week, a back-fill, time as a minor stride) is poisoned,
//! and its regions from the first dirty epoch on are rebuilt by the
//! key-filtered cold walk over all base cells, which is the only step
//! whose cost grows with the retained state.
//!
//! # Pinned item universe
//!
//! The dense key encoding needs the item domain up front, so the
//! universe of item ids is pinned at construction (a superset of the
//! base input's items is fine). A superset universe never changes the
//! output: keys order by `(cell, item-rank)` either way, and items
//! without data are never emitted. Appending a row whose item is
//! outside the universe is an error.

use crate::cube_pass::{
    chunk_range, dedup_pairs, fold_chunk, rollup_walk, CubeError, CubeInput, CubeResult, KeySpace,
    Measure, RegionTable, RollupPlan, StateCol, StateTable, Walk, ROW_CHUNK,
};
use crate::fxhash::FxMap;
use crate::parallel::Parallelism;
use crate::region::{RegionId, RegionSpace};
use bellwether_obs::NoopRecorder;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::convert::Infallible;

/// Merge every entry of the key-sorted `src` table into `dst` in one
/// pass: existing keys merge in place, new keys append. Both key arrays
/// ascend, so each search starts where the last one ended — an append at
/// the end of the key space finds its first key past everything and
/// searches no more. Copy-first semantics match the cold merge exactly,
/// and only the touched distinct slots are re-deduplicated.
fn merge_delta_into(dst: &mut StateTable, src: &StateTable) {
    if src.len() == 0 {
        return;
    }
    if dst.cols.is_empty() && dst.keys.is_empty() {
        dst.cols = src.cols.iter().map(|c| c.new_like(0)).collect();
    }
    let old_len = dst.keys.len();
    let mut dsts: Vec<u32> = Vec::with_capacity(src.len());
    let mut was: Vec<bool> = Vec::with_capacity(src.len());
    let mut from = 0;
    for &k in &src.keys {
        from += dst.keys[from..old_len].partition_point(|&old| old < k);
        let found = from < old_len && dst.keys[from] == k;
        dsts.push(if found { from } else { dst.keys.len() } as u32);
        was.push(found);
        if !found {
            dst.keys.push(k);
        }
    }
    let new_len = dst.keys.len();
    for (col, src_col) in dst.cols.iter_mut().zip(&src.cols) {
        col.resize_default(new_len);
        col.merge_from(src_col, 0..src.len(), &dsts, &was);
        if let StateCol::Distinct { pairs, .. } = col {
            // Keep-last dedup composes: dedup(dedup(a) ++ b) ==
            // dedup(a ++ b), so restoring the invariant per append is
            // bit-equal to the cold single dedup at the end.
            for &d in &dsts {
                dedup_pairs(&mut pairs[d as usize]);
            }
        }
    }
    // The new keys ascend behind the old ones: they interleave only
    // when an append back-fills an earlier part of the key space.
    if old_len > 0 && new_len > old_len && dst.keys[old_len] < dst.keys[old_len - 1] {
        dst.sort_by_key();
    }
}

/// Drop the first `rows` rows of `input` in place.
fn drain_rows(input: &mut CubeInput, rows: usize, arity: usize) {
    input.item_ids.drain(..rows);
    input.coords.drain(..rows * arity);
    for m in &mut input.measures {
        match m {
            Measure::Numeric { values, .. } => values.drain_front(rows),
            Measure::DistinctKeyed { keys, values, .. } => {
                keys.drain_front(rows);
                values.drain(..rows);
            }
        }
    }
}

/// The outcome of one [`StreamingCube::append`]: which regions changed.
#[derive(Debug, Clone)]
pub struct DeltaUpdate {
    /// The dirty regions, ascending by dense region key. Every region
    /// whose aggregates changed is listed; listed regions whose value
    /// happens to be unchanged are possible (a row can merge a value
    /// identical to the old one) but the kernel does not chase that.
    pub dirty_regions: Vec<RegionId>,
    /// Rows in the append.
    pub rows_appended: usize,
    /// Distinct base cells the append touched.
    pub cells_dirtied: usize,
    /// Dirty regions handed out again by a retained table that took the
    /// new cells as a suffix of its fold.
    pub regions_extended: usize,
    /// Dirty regions re-aggregated from every base cell they cover —
    /// the slow path; zero for appends at the end of the timeline.
    pub regions_rebuilt: usize,
}

/// Incrementally maintained CUBE state — see the [module docs](self).
///
/// ```
/// use bellwether_cube::{CubeInput, Dimension, Measure, Parallelism, RegionSpace, StreamingCube};
/// use bellwether_table::{ops::AggFunc, ColumnData};
///
/// let space = RegionSpace::new(vec![Dimension::Interval { name: "T".into(), max_t: 4 }]);
/// let input = CubeInput {
///     item_ids: vec![1, 2],
///     coords: vec![0, 1],
///     measures: vec![Measure::Numeric {
///         name: "sales".into(),
///         func: AggFunc::Sum,
///         values: ColumnData { values: vec![10.0, 20.0], validity: None },
///     }],
/// };
/// let mut stream =
///     StreamingCube::new(&space, &input, &[1, 2, 3], Parallelism::default()).unwrap();
/// let mut delta = input.clone();
/// delta.item_ids = vec![3];
/// delta.coords = vec![2];
/// delta.measures = vec![Measure::Numeric {
///     name: "sales".into(),
///     func: AggFunc::Sum,
///     values: ColumnData { values: vec![5.0], validity: None },
/// }];
/// let update = stream.append(&delta).unwrap();
/// assert_eq!(update.rows_appended, 1);
/// assert!(!update.dirty_regions.is_empty());
/// ```
#[derive(Clone)]
pub struct StreamingCube {
    space: RegionSpace,
    ks: KeySpace,
    plan: RollupPlan,
    /// Merged state of every completed chunk, key-sorted.
    complete: StateTable,
    /// Rows past the last chunk boundary (always < [`ROW_CHUNK`]).
    pending: CubeInput,
    rows_total: usize,
    par: Parallelism,
    /// Phase 2's running tables as the walk over everything seen so far
    /// left them, by table key.
    tables: FxMap<u64, RegionTable>,
    result: CubeResult,
}

impl StreamingCube {
    /// Build the stream from its base input and a pinned item
    /// universe (must contain every item id the stream will ever see;
    /// a superset never changes any output bit). On
    /// [`CubeError::KeySpaceTooLarge`] the caller stays on cold rebuilds;
    /// a malformed base input is [`CubeError::InvalidInput`].
    pub fn new(
        space: &RegionSpace,
        input: &CubeInput,
        item_universe: &[i64],
        par: Parallelism,
    ) -> Result<StreamingCube, CubeError> {
        let ks = KeySpace::build(space, item_universe).ok_or(CubeError::KeySpaceTooLarge)?;
        let plan = RollupPlan::new(space, &ks);
        let measure_names = input.measures.iter().map(|m| m.name().to_string()).collect();
        let mut stream = StreamingCube {
            space: space.clone(),
            ks,
            plan,
            complete: StateTable::default(),
            pending: input.empty_like(),
            rows_total: 0,
            par,
            tables: FxMap::default(),
            result: CubeResult {
                measure_names,
                regions: HashMap::new(),
            },
        };
        stream.validate(input).map_err(CubeError::InvalidInput)?;
        stream.ingest(input);
        stream.rebuild(None);
        Ok(stream)
    }

    /// Append a batch of fact rows and patch the retained result.
    /// `O(Δ · ancestors + dirty tables · items)` when every table the
    /// batch reaches resumes its walk (see the module docs); a table that
    /// cannot is rebuilt from the base cells it covers. Malformed input
    /// (shape mismatch, unknown item, out-of-range coordinate) is
    /// [`CubeError::InvalidInput`] and leaves the stream unchanged.
    pub fn append(&mut self, delta: &CubeInput) -> Result<DeltaUpdate, CubeError> {
        let rows = delta.item_ids.len();
        let dirty_cells = self.validate(delta).map_err(CubeError::InvalidInput)?;
        self.ingest(delta);

        // Walk the dirty cells ascending, so a table meets its smallest
        // dirty cell first: past its last cell (or no table yet) it
        // joins the resumed walk, otherwise it is poisoned — nothing is
        // past `u64::MAX` — and left for the rebuild.
        let cells = self.dirty_table(&dirty_cells);
        let (stride, n_epochs) = (self.plan.epoch_stride, self.plan.n_epochs);
        // A table reached at epoch `first` dirties its region of every
        // epoch from `first` on.
        let regions_from = |first: u64, key: u64| (first..n_epochs).map(move |e| e * stride + key);
        let mut walk = Walk::new(&self.plan, &self.ks, None, false);
        let (mut dirty_keys, mut rebuild): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
        walk.walk_segment(&cells, |walking, cell, key| {
            if walking.contains_key(&key) {
                return true;
            }
            let resumes = match self.tables.entry(key) {
                Entry::Occupied(e) if e.get().last_cell == u64::MAX => return false,
                Entry::Occupied(mut e) if e.get().last_cell >= cell => {
                    e.get_mut().last_cell = u64::MAX;
                    false
                }
                Entry::Occupied(e) => {
                    walking.insert(key, e.remove());
                    true
                }
                Entry::Vacant(_) => true,
            };
            dirty_keys.extend(regions_from(cell / stride, key));
            if !resumes {
                rebuild.extend(regions_from(cell / stride, key));
            }
            resumes
        });
        let rolled = walk.finish();
        self.tables.extend(rolled.tables);
        self.result.regions.extend(rolled.finished);

        dirty_keys.sort_unstable();
        if !rebuild.is_empty() {
            rebuild.sort_unstable();
            self.rebuild(Some(&rebuild));
        }
        Ok(DeltaUpdate {
            dirty_regions: dirty_keys.iter().map(|&rk| RegionId(self.ks.decode_region(rk))).collect(),
            rows_appended: rows,
            cells_dirtied: dirty_cells.len(),
            regions_extended: dirty_keys.len() - rebuild.len(),
            regions_rebuilt: rebuild.len(),
        })
    }

    /// The current result — bit-identical to [`crate::cube_pass`] over
    /// the concatenation of the base input and every appended batch.
    pub fn result(&self) -> &CubeResult {
        &self.result
    }

    /// Total fact rows folded so far (base + appends).
    pub fn rows(&self) -> usize {
        self.rows_total
    }

    /// The pinned item universe, ascending.
    pub fn item_universe(&self) -> &[i64] {
        &self.ks.items
    }

    fn threads(&self) -> usize {
        self.par.threads_for(self.rows_total.div_ceil(ROW_CHUNK).max(1))
    }

    /// Validate a batch and return its distinct dirty cell keys.
    fn validate(&self, delta: &CubeInput) -> Result<Vec<u64>, String> {
        let arity = self.space.arity();
        delta.check_shape(arity)?;
        self.pending.check_schema(delta)?;
        delta.check_coords(&self.space)?;
        if let Some(id) = delta.item_ids.iter().find(|id| !self.ks.item_index.contains_key(id)) {
            return Err(format!("item {id} is outside the pinned item universe"));
        }
        let coords = |row: usize| &delta.coords[row * arity..(row + 1) * arity];
        let mut cells: Vec<u64> = (0..delta.item_ids.len()).map(|row| self.ks.cell_key(coords(row))).collect();
        cells.sort_unstable();
        cells.dedup();
        Ok(cells)
    }

    /// Fold `delta` into the stream: extend the pending tail, then
    /// extract every completed chunk into `complete` in chunk order.
    fn ingest(&mut self, delta: &CubeInput) {
        self.pending.extend(delta);
        self.rows_total += delta.item_ids.len();
        let arity = self.space.arity();
        while self.pending.item_ids.len() >= ROW_CHUNK {
            let chunk = self.fold_pending(chunk_range(0, ROW_CHUNK));
            merge_delta_into(&mut self.complete, &chunk);
            drain_rows(&mut self.pending, ROW_CHUNK, arity);
        }
    }

    /// Fold a row range of the pending tail into a chunk table.
    fn fold_pending(&self, rows: std::ops::Range<usize>) -> StateTable {
        let key_of = self.ks.key_fn(&self.pending);
        fold_chunk(&self.pending, &[], self.space.arity(), rows, &key_of)
    }

    /// The base-cell table to roll up: `complete` plus the pending
    /// tail folded as the partial final chunk — exactly the chunk
    /// sequence a cold pass over the concatenated data merges. With no
    /// tail it is `complete` itself, borrowed.
    fn rollup_table(&self) -> Cow<'_, StateTable> {
        if self.pending.item_ids.is_empty() {
            return Cow::Borrowed(&self.complete);
        }
        let tail = self.fold_pending(0..self.pending.item_ids.len());
        let mut table = self.complete.clone();
        merge_delta_into(&mut table, &tail);
        Cow::Owned(table)
    }

    /// [`Self::rollup_table`] restricted to `cells` (ascending base
    /// cells), without touching any other retained entry: each cell's
    /// slice of `complete`, then the pending rows that fall in `cells`.
    fn dirty_table(&self, cells: &[u64]) -> StateTable {
        let n = self.ks.n_items;
        let mut table = StateTable {
            keys: Vec::new(),
            cols: self.complete.cols.iter().map(|c| c.new_like(0)).collect(),
        };
        let (mut dsts, mut was): (Vec<u32>, Vec<bool>) = (Vec::new(), Vec::new());
        for &cell in cells {
            let r = self.complete.range_of(cell * n, (cell + 1) * n);
            dsts.clear();
            dsts.extend(table.len() as u32..(table.len() + r.len()) as u32);
            was.resize(r.len(), false);
            table.keys.extend_from_slice(&self.complete.keys[r.clone()]);
            for (col, src) in table.cols.iter_mut().zip(&self.complete.cols) {
                col.resize_default(table.keys.len());
                col.merge_from(src, r.clone(), &dsts, &was);
            }
        }
        let key_of = self.ks.key_fn(&self.pending);
        let in_cells = |row: usize, coords: &[u32]| {
            key_of(row, coords).filter(|key| cells.binary_search(&(key / n)).is_ok())
        };
        let rows = 0..self.pending.item_ids.len();
        let tail = fold_chunk(&self.pending, &[], self.space.arity(), rows, &in_cells);
        merge_delta_into(&mut table, &tail);
        table
    }

    /// Roll the regions in `filter` (sorted region keys; `None` = all)
    /// up from every base cell through the cold walk, replacing their
    /// tables and results.
    fn rebuild(&mut self, filter: Option<&[u64]>) {
        let segments = [Ok::<_, Infallible>(self.rollup_table())];
        let Ok(rolled) =
            rollup_walk(&self.plan, &self.ks, segments, self.threads(), filter, &NoopRecorder);
        self.tables.extend(rolled.tables);
        self.result.regions.extend(rolled.finished);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube_pass::cube_pass;
    use crate::cube_pass::tests::with_one_epoch;
    use bellwether_table::Bitmap;
    use crate::testutil::{
        assert_bit_identical, gen_distinct_input, gen_functional_input, gen_input, space,
    };

    #[test]
    fn appends_match_cold_rebuild_bit_for_bit() {
        let space = space();
        let items: Vec<i64> = (0..48).map(|i| i * 3 + 1).collect();
        // The stream keeps pair lists; the cold pass folds a functional
        // measure into bitsets.
        for gen_input in [gen_input, gen_functional_input] {
            let base = gen_input(7, 700, &items);
            for threads in [1usize, 2, 4] {
                let par = Parallelism::fixed(threads);
                let mut stream = StreamingCube::new(&space, &base, &items, par).unwrap();
                let mut concat = base.clone();
                // Uneven batches that straddle the 4096-row chunk boundary
                // several times.
                for (i, rows) in [900usize, 3000, 1, 650, 4096, 77].iter().enumerate() {
                    let delta = gen_input(100 + i as u64, *rows, &items);
                    let update = stream.append(&delta).unwrap();
                    assert_eq!(update.rows_appended, *rows);
                    concat.extend(&delta);
                    let cold = cube_pass(&space, &concat, par, &NoopRecorder).unwrap();
                    let what = format!("threads={threads} batch {i}");
                    assert_bit_identical(stream.result(), &cold, &what);
                }
                assert_eq!(stream.rows(), 700 + 900 + 3000 + 1 + 650 + 4096 + 77);
            }
        }
    }

    /// `gen_input` rows moved onto the given weeks and location leaves.
    fn rows_at(seed: u64, rows: usize, items: &[i64], weeks: &[u32], leaves: &[u32]) -> CubeInput {
        let mut input = gen_input(seed, rows, items);
        for c in input.coords.chunks_mut(2) {
            c[0] = weeks[c[0] as usize % weeks.len()];
            let leaf = ALL_LEAVES.iter().position(|&l| l == c[1]).expect("a leaf of `space`");
            c[1] = leaves[leaf % leaves.len()];
        }
        input
    }

    /// `(regions_extended, regions_rebuilt)`.
    fn counts(update: &DeltaUpdate) -> (usize, usize) {
        (update.regions_extended, update.regions_rebuilt)
    }

    /// Append `batches` in turn at threads {1, 2, 4}, holding every step
    /// bit-identical to the cold pass over the concatenation; the
    /// updates (the same at every thread count) come back. A stream
    /// planned with one epoch — a table per region, which is how this
    /// type kept its rollup state before tables ran across epochs — takes
    /// the same batches: it must dirty the same regions, and unless
    /// `back_fills` names the batch it must extend and rebuild as many.
    fn check_schedule(
        space: &RegionSpace,
        universe: &[i64],
        base: &CubeInput,
        batches: &[CubeInput],
        back_fills: &[usize],
    ) -> Vec<DeltaUpdate> {
        let mut updates: Vec<DeltaUpdate> = Vec::new();
        for threads in [1usize, 2, 4] {
            let par = Parallelism::fixed(threads);
            let mut stream = StreamingCube::new(space, base, universe, par).unwrap();
            let mut concat = base.clone();
            for (i, batch) in batches.iter().enumerate() {
                let update = stream.append(batch).unwrap();
                concat.extend(batch);
                let cold = cube_pass(space, &concat, par, &NoopRecorder).unwrap();
                let what = format!("threads={threads} batch {i}");
                assert_bit_identical(stream.result(), &cold, &what);
                assert_eq!(
                    update.regions_extended + update.regions_rebuilt,
                    update.dirty_regions.len()
                );
                if threads == 1 {
                    updates.push(update);
                } else {
                    assert_eq!(update.dirty_regions, updates[i].dirty_regions);
                    assert_eq!(update.regions_rebuilt, updates[i].regions_rebuilt);
                }
            }
        }
        let par = Parallelism::fixed(1);
        let mut per_region =
            with_one_epoch(|| StreamingCube::new(space, base, universe, par)).unwrap();
        for (i, (batch, update)) in batches.iter().zip(&updates).enumerate() {
            let flat = per_region.append(batch).unwrap();
            assert_eq!(flat.dirty_regions, update.dirty_regions, "batch {i}");
            if back_fills.contains(&i) {
                assert!(flat.regions_rebuilt < update.regions_rebuilt, "batch {i}");
            } else {
                assert_eq!(counts(&flat), counts(update), "batch {i}");
            }
        }
        let mut concat = base.clone();
        batches.iter().for_each(|batch| concat.extend(batch));
        let cold = cube_pass(space, &concat, par, &NoopRecorder).unwrap();
        assert_bit_identical(per_region.result(), &cold, "a table per region");
        updates
    }

    const ALL_LEAVES: [u32; 3] = [2, 3, 5];

    #[test]
    fn in_order_weeks_extend_every_dirty_region() {
        let items: Vec<i64> = (0..30).collect();
        let base = rows_at(1, 600, &items, &[0], &ALL_LEAVES);
        // One week a batch: short of the chunk boundary, across it,
        // across two in one batch, exactly onto one (empty pending
        // tail), and a single row.
        let batches: Vec<CubeInput> = [400usize, 3500, 9000, 2884, 1]
            .iter()
            .enumerate()
            .map(|(i, &rows)| rows_at(10 + i as u64, rows, &items, &[i as u32 + 1], &ALL_LEAVES))
            .collect();
        assert_eq!(600 + 400 + 3500 + 9000 + 2884, 4 * ROW_CHUNK);
        for update in check_schedule(&space(), &items, &base, &batches, &[]) {
            assert!(update.regions_extended > 0);
            assert_eq!(update.regions_rebuilt, 0, "an append at the end of the timeline");
        }
    }

    #[test]
    fn a_batch_spanning_weeks_hands_each_week_its_own_regions() {
        let items: Vec<i64> = (0..30).collect();
        let base = rows_at(8, 600, &items, &[0, 1], &ALL_LEAVES);
        let batches = [
            rows_at(80, 500, &items, &[2, 3], &ALL_LEAVES), // two weeks in a row
            rows_at(81, 500, &items, &[3, 5], &[2, 3]),     // a week again, past a gap
        ];
        let updates = check_schedule(&space(), &items, &base, &batches, &[]);
        // Weeks 3 to 6 of all six locations.
        assert_eq!(counts(&updates[0]), (4 * 6, 0));
        // WI, MD, US and All have folded week 4: rebuilt from it on. A
        // batch that only reached week 6 would have extended them.
        assert_eq!(counts(&updates[1]), (0, 3 * 4));
        let late = [rows_at(82, 300, &items, &[3], &[5]), rows_at(83, 300, &items, &[4, 5], &[5])];
        let updates = check_schedule(&space(), &items, &base, &late, &[]);
        // B1 and B are new at week 4, All extends: [1-4..6] of each; then
        // weeks 5 and 6 on top.
        assert_eq!(counts(&updates[0]), (3 * 3, 0));
        assert_eq!(counts(&updates[1]), (2 * 3, 0));
    }

    #[test]
    fn distinct_partials_outgrow_the_sorted_regime_between_appends() {
        let items: Vec<i64> = (0..5).collect();
        // Week `w` draws its keys from `15w..15w + 20`, values free: the
        // retained `[1-t, ·]` partials hold ~20 keys after the base,
        // ~35 after the first append and ~80 after the last, and a key
        // shared by two weeks takes the later week's value.
        let week = |w: u32, rows: usize| {
            let keys = 15 * w as i64..15 * w as i64 + 20;
            gen_distinct_input(50 + w as u64, rows, &items, &[w], keys, false)
        };
        let base = week(0, 600);
        let batches: Vec<CubeInput> =
            [500usize, 3500, 5000, 300, 40].iter().zip(1..).map(|(&rows, w)| week(w, rows)).collect();
        for update in check_schedule(&space(), &items, &base, &batches, &[]) {
            assert!(update.regions_extended > 0);
            assert_eq!(update.regions_rebuilt, 0, "an append at the end of the timeline");
        }
    }

    #[test]
    fn reappended_week_backfill_and_mixed_batch_rebuild() {
        let items: Vec<i64> = (0..30).collect();
        let base = rows_at(2, 500, &items, &[0, 1, 3], &ALL_LEAVES);
        let mut mixed = rows_at(23, 200, &items, &[4], &[2]); // existing cells, WI
        mixed.extend(&rows_at(24, 200, &items, &[5], &[3])); // new cells, MD
        let batches = [
            rows_at(20, 300, &items, &[4], &ALL_LEAVES),
            rows_at(21, 300, &items, &[4], &ALL_LEAVES), // the same week again
            rows_at(22, 300, &items, &[2], &ALL_LEAVES), // back-fill
            mixed,
        ];
        let updates = check_schedule(&space(), &items, &base, &batches, &[2]);
        assert_eq!(updates[0].regions_rebuilt, 0);
        assert_eq!(updates[1].regions_extended, 0);
        // Every table has folded weeks past the back-filled one, so all
        // six are rebuilt for [1-3..6, *]. (Per-region tables extended
        // the six [1-3, *], which end before those later weeks; a running
        // table no longer holds that state.)
        assert_eq!((updates[2].regions_extended, updates[2].regions_rebuilt), (0, 24));
        // [1-6, MD] holds only the new cell; [1-6, US] also an old one.
        assert!(updates[3].regions_extended > 0 && updates[3].regions_rebuilt > 0);
    }

    #[test]
    fn a_rebuild_onto_a_chunk_boundary_walks_the_retained_cells_borrowed() {
        // Back-fills that leave no pending tail: each rebuild walks
        // `complete` itself, not a merged copy.
        let items: Vec<i64> = (0..30).collect();
        let base = rows_at(3, 500, &items, &[0, 1, 3], &ALL_LEAVES);
        let batches = [
            rows_at(30, ROW_CHUNK - 500, &items, &[2], &ALL_LEAVES),
            rows_at(31, ROW_CHUNK, &items, &[1], &[3]),
        ];
        for update in check_schedule(&space(), &items, &base, &batches, &[0]) {
            assert!(update.regions_rebuilt > 0);
        }
    }

    #[test]
    fn time_as_minor_stride_falls_back_on_ancestor_regions() {
        let by_time = space();
        let by_loc = RegionSpace::new(by_time.dims().iter().rev().cloned().collect());
        let items: Vec<i64> = (0..30).collect();
        let swapped = |mut input: CubeInput| {
            input.coords.chunks_mut(2).for_each(|c| c.swap(0, 1));
            input
        };
        let base = swapped(rows_at(3, 500, &items, &[0, 1], &ALL_LEAVES));
        let batches: Vec<CubeInput> = (2..5)
            .map(|w| swapped(rows_at(30 + w as u64, 300, &items, &[w], &ALL_LEAVES)))
            .collect();
        for update in check_schedule(&by_loc, &items, &base, &batches, &[]) {
            // (WI, week w) sorts before (MD, week w - 1): leaf regions
            // still extend, US and All do not.
            assert!(update.regions_extended > 0 && update.regions_rebuilt > 0);
        }
    }

    #[test]
    fn region_first_filled_by_an_append() {
        let items: Vec<i64> = (0..30).collect();
        let base = rows_at(4, 400, &items, &[0, 1, 2], &[2, 3]);
        let batches = [
            rows_at(40, 200, &items, &[3], &[5]), // B and B1 hold nothing yet
            rows_at(41, 200, &items, &[0], &[5]), // [1-1..3, B1] are new regions
        ];
        let updates = check_schedule(&space(), &items, &base, &batches, &[1]);
        assert!(updates[0].regions_extended > 0);
        assert_eq!(updates[0].regions_rebuilt, 0);
        // B1, B and All have each folded week 4 already: a back-fill
        // rebuilds them for all six weeks, new regions included.
        assert_eq!((updates[1].regions_extended, updates[1].regions_rebuilt), (0, 18));
    }

    #[test]
    fn hashed_item_slots_extend_in_place() {
        // A universe past 2^16 items puts every region on hash-assigned
        // item slots, which an extension grows.
        let universe: Vec<i64> = (0..(1 << 16) + 2).collect();
        let items: Vec<i64> = (0..40).map(|i| i * 1500).collect();
        let base = rows_at(5, 400, &items[..25], &[0, 1], &ALL_LEAVES);
        let batches: Vec<CubeInput> = (2..5)
            .map(|w| rows_at(50 + w as u64, 300, &items, &[w], &ALL_LEAVES))
            .collect();
        for update in check_schedule(&space(), &universe, &base, &batches, &[]) {
            assert_eq!(update.regions_rebuilt, 0);
        }
    }

    #[test]
    fn clones_diverge_independently() {
        let space = space();
        let items: Vec<i64> = (0..30).collect();
        let base = rows_at(6, 500, &items, &[0, 1, 2], &ALL_LEAVES);
        let par = Parallelism::fixed(2);
        let mut a = StreamingCube::new(&space, &base, &items, par).unwrap();
        let mut b = a.clone();
        let (da, db) = (
            rows_at(60, 300, &items, &[3], &ALL_LEAVES),
            rows_at(61, 300, &items, &[3, 4], &ALL_LEAVES),
        );
        assert_eq!(a.append(&da).unwrap().regions_rebuilt, 0);
        assert_eq!(b.append(&db).unwrap().regions_rebuilt, 0);
        for (stream, delta) in [(&a, &da), (&b, &db)] {
            let mut concat = base.clone();
            concat.extend(delta);
            let cold = cube_pass(&space, &concat, par, &NoopRecorder).unwrap();
            assert_bit_identical(stream.result(), &cold, "diverged clone");
        }
    }

    #[test]
    fn malformed_base_is_an_error_not_a_panic() {
        let space = space();
        let items: Vec<i64> = (0..8).collect();
        let par = Parallelism::fixed(1);
        let mut bad = gen_input(15, 20, &items);
        bad.coords[1] = 99;
        let err = StreamingCube::new(&space, &bad, &items, par).err().unwrap();
        assert!(matches!(&err, CubeError::InvalidInput(why) if why.contains("out of range")));
        let base = gen_input(15, 20, &items);
        let err = StreamingCube::new(&space, &base, &items[..2], par).err().unwrap();
        assert!(matches!(&err, CubeError::InvalidInput(why) if why.contains("universe")));
        let wide = RegionSpace::new(vec![
            crate::dimension::Dimension::Interval { name: "T".into(), max_t: u32::MAX };
            3
        ]);
        let empty = gen_input(0, 1, &items).empty_like();
        let err = StreamingCube::new(&wide, &empty, &items, par).err().unwrap();
        assert!(matches!(err, CubeError::KeySpaceTooLarge), "{err}");
        // COUNT over distinct keys is not a function the kernel computes.
        let mut bad = gen_input(15, 20, &items);
        let Some(Measure::DistinctKeyed { func, .. }) = bad.measures.last_mut() else {
            panic!("generator puts a distinct-keyed measure last")
        };
        *func = bellwether_table::ops::AggFunc::Count;
        let err = StreamingCube::new(&space, &bad, &items, par).err().unwrap();
        assert!(
            matches!(&err, CubeError::InvalidInput(why) if why.contains("count is not computed")),
            "{err}"
        );
    }

    #[test]
    fn superset_universe_never_changes_bits() {
        let space = space();
        let items: Vec<i64> = (0..20).collect();
        let universe: Vec<i64> = (-5..40).collect(); // strict superset
        let base = gen_input(3, 300, &items);
        let par = Parallelism::fixed(1);
        let mut stream = StreamingCube::new(&space, &base, &universe, par).unwrap();
        let cold = cube_pass(&space, &base, par, &NoopRecorder).unwrap();
        assert_bit_identical(stream.result(), &cold, "base");
        let delta = gen_input(4, 500, &items);
        stream.append(&delta).unwrap();
        let mut concat = base.clone();
        concat.extend(&delta);
        let cold = cube_pass(&space, &concat, par, &NoopRecorder).unwrap();
        assert_bit_identical(stream.result(), &cold, "after append");
    }

    #[test]
    fn dirty_set_is_exactly_the_touched_regions() {
        let space = space();
        let items: Vec<i64> = (0..8).collect();
        let base = gen_input(11, 200, &items);
        let mut stream =
            StreamingCube::new(&space, &base, &items, Parallelism::fixed(1)).unwrap();
        // One row in week 2 at leaf WI (coords [2, 2]): dirty regions
        // are exactly (intervals containing week 2) × {WI, US, All}.
        let mut delta = base.empty_like();
        delta.item_ids.push(3);
        delta.coords.extend_from_slice(&[2, 2]);
        for m in &mut delta.measures {
            match m {
                Measure::Numeric { values, .. } => *values = [Some(1.0)].into_iter().collect(),
                Measure::DistinctKeyed { keys, values, .. } => {
                    *keys = [Some(1)].into_iter().collect();
                    values.push(2.0);
                }
            }
        }
        let update = stream.append(&delta).unwrap();
        assert_eq!(update.cells_dirtied, 1);
        let containing_intervals = space.dims()[0].containing_values(2).len();
        assert_eq!(update.dirty_regions.len(), containing_intervals * 3);
        for r in &update.dirty_regions {
            assert!(space.dims()[0].containing_values(2).contains(&r.0[0]));
            assert!([0, 1, 2].contains(&r.0[1]));
        }
    }

    /// Whether `got` is an `InvalidInput` error that says `says`.
    fn invalid<T>(got: Result<T, CubeError>, says: &str) -> bool {
        matches!(got, Err(CubeError::InvalidInput(why)) if why.contains(says))
    }

    #[test]
    fn appends_are_validated_and_leave_state_unchanged() {
        let space = space();
        let items: Vec<i64> = (0..8).collect();
        let base = gen_input(13, 100, &items);
        let mut stream =
            StreamingCube::new(&space, &base, &items, Parallelism::fixed(1)).unwrap();
        let before = stream.result().regions.len();

        let mut bad = gen_input(14, 5, &items);
        bad.item_ids[0] = 999; // outside the universe
        assert!(invalid(stream.append(&bad), "universe"));

        let mut bad = gen_input(14, 5, &items);
        bad.coords[0] = 6; // out of range on T
        assert!(invalid(stream.append(&bad), "out of range"));

        let mut bad = gen_input(14, 5, &items);
        bad.measures.pop();
        assert!(invalid(stream.append(&bad), "measures"));

        // A short measure column — for a distinct-keyed measure, either
        // of its two — is an error, not a panic or a stray index.
        let mut bad = gen_input(14, 5, &items);
        let Some(Measure::Numeric { values, .. }) = bad.measures.first_mut() else {
            panic!("generator puts a numeric measure first")
        };
        values.values.pop();
        assert!(invalid(stream.append(&bad), "length mismatch"));

        // So is a validity bitmap a row short of its lane.
        let mut bad = gen_input(14, 5, &items);
        let Some(Measure::DistinctKeyed { keys, .. }) = bad.measures.last_mut() else {
            panic!("generator puts a distinct-keyed measure last")
        };
        keys.validity = Some(Bitmap::ones(4));
        assert!(invalid(stream.append(&bad), "length mismatch"));

        let mut bad = gen_input(14, 5, &items);
        let Some(Measure::DistinctKeyed { values, .. }) = bad.measures.last_mut() else {
            panic!("generator puts a distinct-keyed measure last")
        };
        values.pop();
        assert!(invalid(stream.append(&bad), "length mismatch"));

        assert_eq!(stream.result().regions.len(), before);
        assert_eq!(stream.rows(), 100);
    }

    #[test]
    fn empty_base_then_appends() {
        let space = space();
        let items: Vec<i64> = (0..8).collect();
        let empty = gen_input(0, 1, &items).empty_like();
        let par = Parallelism::fixed(2);
        let mut stream = StreamingCube::new(&space, &empty, &items, par).unwrap();
        assert!(stream.result().regions.is_empty());
        let delta = gen_input(21, 450, &items);
        stream.append(&delta).unwrap();
        let cold = cube_pass(&space, &delta, par, &NoopRecorder).unwrap();
        assert_bit_identical(stream.result(), &cold, "empty base");
    }
}
