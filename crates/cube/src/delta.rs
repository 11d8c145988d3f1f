//! Incremental (delta) CUBE maintenance: `O(Δ)` appends instead of
//! full rebuilds.
//!
//! [`StreamingCube`] retains the phase-1 base-cell state of the
//! in-memory kernel ([`crate::cube_pass`]) between batches of fact
//! rows. An append folds **only the new rows** into chunk tables,
//! merges them into the retained state in the kernel's own
//! deterministic chunk order, and re-rolls up **only the regions whose
//! sufficient statistics changed** (the *dirty set*) through the
//! region-key-filtered phase 2.
//!
//! # Delta algebra
//!
//! Theorem 1's sufficient statistic is mergeable, and the kernel's
//! accumulators are exactly that statistic in columnar form. The
//! retained `complete` table is the left fold of every *completed*
//! [`ROW_CHUNK`]-row chunk of the concatenated stream, merged in
//! ascending chunk order with the same copy-first semantics as the
//! cold `merge_chunks`; rows past the last chunk boundary wait in a
//! `pending` tail (< one chunk) and are folded as the partial final
//! chunk of each rollup. Per `(cell, item)` slot the update sequence is
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
//! verbatim. The filtered rollup walks all base cells in full key
//! order, so a dirty region's recomputed value is bit-identical to the
//! same region in an unfiltered rollup.
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
    ancestor_key_tables, chunk_range, dedup_pairs, expand_rollup, expansion_keys, fold_chunk,
    CubeInput, CubeResult, KeySpace, Measure, StateCol, StateTable, ROW_CHUNK,
};
use crate::parallel::Parallelism;
use crate::region::{RegionId, RegionSpace};
use std::collections::HashMap;

/// Merge every entry of the key-sorted `src` table into `dst` in one
/// pass: existing keys merge in place (binary search against the
/// pre-merge key array), new keys append. Copy-first semantics match
/// the cold merge exactly, and only the touched distinct slots are
/// re-deduplicated, so the work is `O(src + log dst)` per entry.
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
    for &k in &src.keys {
        match dst.keys[..old_len].binary_search(&k) {
            Ok(i) => {
                dsts.push(i as u32);
                was.push(true);
            }
            Err(_) => {
                dsts.push(dst.keys.len() as u32);
                dst.keys.push(k);
                was.push(false);
            }
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
    // New keys interleave with old ones only when an append back-fills
    // an earlier part of the key space; `sort_by_key` is an O(n)
    // is-sorted check in the common append-at-the-end case.
    dst.sort_by_key();
}

/// Drop the first `rows` rows of `input` in place.
fn drain_rows(input: &mut CubeInput, rows: usize, arity: usize) {
    input.item_ids.drain(..rows);
    input.coords.drain(..rows * arity);
    for m in &mut input.measures {
        match m {
            Measure::Numeric { values, .. } => {
                values.drain(..rows);
            }
            Measure::DistinctKeyed { keys, values, .. } => {
                keys.drain(..rows);
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
}

/// Incrementally maintained CUBE state — see the [module docs](self).
///
/// ```
/// use bellwether_cube::{CubeInput, Dimension, Measure, Parallelism, RegionSpace, StreamingCube};
/// use bellwether_table::ops::AggFunc;
///
/// let space = RegionSpace::new(vec![Dimension::Interval { name: "T".into(), max_t: 4 }]);
/// let input = CubeInput {
///     item_ids: vec![1, 2],
///     coords: vec![0, 1],
///     measures: vec![Measure::Numeric {
///         name: "sales".into(),
///         func: AggFunc::Sum,
///         values: vec![Some(10.0), Some(20.0)],
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
///     values: vec![Some(5.0)],
/// }];
/// let update = stream.append(&delta).unwrap();
/// assert_eq!(update.rows_appended, 1);
/// assert!(!update.dirty_regions.is_empty());
/// ```
#[derive(Clone)]
pub struct StreamingCube {
    space: RegionSpace,
    ks: KeySpace,
    anc_keys: Vec<Vec<Vec<u64>>>,
    /// Merged state of every completed chunk, key-sorted.
    complete: StateTable,
    /// Rows past the last chunk boundary (always < [`ROW_CHUNK`]).
    pending: CubeInput,
    rows_total: usize,
    par: Parallelism,
    result: CubeResult,
}

impl StreamingCube {
    /// Build the stream from its base input and a pinned item
    /// universe (must contain every item id the stream will ever see;
    /// a superset never changes any output bit). Returns `None` when
    /// the dense key encoding cannot cover `space` × universe — the
    /// caller then stays on cold rebuilds. Panics on a malformed base
    /// input, like the cold passes.
    pub fn new(
        space: &RegionSpace,
        input: &CubeInput,
        item_universe: &[i64],
        par: Parallelism,
    ) -> Option<StreamingCube> {
        let ks = KeySpace::build(space, item_universe)?;
        let anc_keys = ancestor_key_tables(space, &ks);
        let measure_names = input.measures.iter().map(|m| m.name().to_string()).collect();
        let mut stream = StreamingCube {
            space: space.clone(),
            ks,
            anc_keys,
            complete: StateTable {
                keys: Vec::new(),
                cols: Vec::new(),
            },
            pending: input.empty_like(),
            rows_total: 0,
            par,
            result: CubeResult {
                measure_names,
                regions: HashMap::new(),
            },
        };
        stream.validate(input).unwrap_or_else(|e| panic!("{e}"));
        stream.ingest(input);
        if !input.item_ids.is_empty() {
            let table = stream.rollup_table();
            let (regions, _) = expand_rollup(
                &stream.space,
                &stream.ks,
                std::slice::from_ref(&table),
                stream.threads(),
                None,
            );
            stream.result.regions = regions;
        }
        Some(stream)
    }

    /// Append a batch of fact rows and patch the retained result.
    /// `O(Δ)` in the new rows plus the dirty regions' rollup — never a
    /// rescan of old chunks. Errors (shape mismatch, unknown item,
    /// out-of-range coordinate) leave the stream unchanged.
    pub fn append(&mut self, delta: &CubeInput) -> Result<DeltaUpdate, String> {
        let rows = delta.item_ids.len();
        let dirty_cells = self.validate(delta)?;
        if rows == 0 {
            return Ok(DeltaUpdate {
                dirty_regions: Vec::new(),
                rows_appended: 0,
                cells_dirtied: 0,
            });
        }
        self.ingest(delta);

        // Expand dirty cells to dirty region keys.
        let mut dirty_keys: Vec<u64> = Vec::new();
        let mut expansion: Vec<u64> = Vec::new();
        for &cell in &dirty_cells {
            expansion_keys(
                cell,
                &self.ks,
                &self.anc_keys,
                0,
                self.ks.cell_space,
                &mut expansion,
            );
            dirty_keys.extend_from_slice(&expansion);
        }
        dirty_keys.sort_unstable();
        dirty_keys.dedup();

        let table = self.rollup_table();
        let (mut patched, _) = expand_rollup(
            &self.space,
            &self.ks,
            std::slice::from_ref(&table),
            self.threads(),
            Some(&dirty_keys),
        );
        let mut dirty_regions = Vec::with_capacity(dirty_keys.len());
        for &rk in &dirty_keys {
            let id = RegionId(self.ks.decode_region(rk));
            match patched.remove(&id) {
                Some(items) => {
                    self.result.regions.insert(id.clone(), items);
                }
                None => {
                    self.result.regions.remove(&id);
                }
            }
            dirty_regions.push(id);
        }
        Ok(DeltaUpdate {
            dirty_regions,
            rows_appended: rows,
            cells_dirtied: dirty_cells.len(),
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
        let mut cells: Vec<u64> = Vec::with_capacity(delta.item_ids.len());
        for (row, &id) in delta.item_ids.iter().enumerate() {
            let coords = &delta.coords[row * arity..(row + 1) * arity];
            cells.push(self.ks.row_key(coords, id)? / self.ks.n_items);
        }
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
        fold_chunk(&self.pending, self.space.arity(), rows, &key_of)
    }

    /// The base-cell table to roll up: `complete` plus the pending
    /// tail folded as the partial final chunk — exactly the chunk
    /// sequence a cold pass over the concatenated data merges.
    fn rollup_table(&self) -> StateTable {
        if self.pending.item_ids.is_empty() {
            return self.complete.clone();
        }
        let tail = self.fold_pending(0..self.pending.item_ids.len());
        let mut table = self.complete.clone();
        merge_delta_into(&mut table, &tail);
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube_pass::cube_pass_with;
    use crate::testutil::{assert_bit_identical, gen_input, space};

    #[test]
    fn appends_match_cold_rebuild_bit_for_bit() {
        let space = space();
        let items: Vec<i64> = (0..48).map(|i| i * 3 + 1).collect();
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
                let cold = cube_pass_with(&space, &concat, par, None);
                assert_bit_identical(stream.result(), &cold, &format!("threads={threads} batch {i}"));
            }
            assert_eq!(stream.rows(), 700 + 900 + 3000 + 1 + 650 + 4096 + 77);
        }
    }

    #[test]
    fn superset_universe_never_changes_bits() {
        let space = space();
        let items: Vec<i64> = (0..20).collect();
        let universe: Vec<i64> = (-5..40).collect(); // strict superset
        let base = gen_input(3, 300, &items);
        let par = Parallelism::fixed(1);
        let mut stream = StreamingCube::new(&space, &base, &universe, par).unwrap();
        let cold = cube_pass_with(&space, &base, par, None);
        assert_bit_identical(stream.result(), &cold, "base");
        let delta = gen_input(4, 500, &items);
        stream.append(&delta).unwrap();
        let mut concat = base.clone();
        concat.extend(&delta);
        let cold = cube_pass_with(&space, &concat, par, None);
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
                Measure::Numeric { values, .. } => values.push(Some(1.0)),
                Measure::DistinctKeyed { keys, values, .. } => {
                    keys.push(Some(1));
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
        assert!(stream.append(&bad).unwrap_err().contains("universe"));

        let mut bad = gen_input(14, 5, &items);
        bad.coords[0] = 6; // out of range on T
        assert!(stream.append(&bad).unwrap_err().contains("out of range"));

        let mut bad = gen_input(14, 5, &items);
        bad.measures.pop();
        assert!(stream.append(&bad).unwrap_err().contains("measures"));

        // A short measure column — for a distinct-keyed measure, either
        // of its two — is an error, not a panic or a stray index.
        let mut bad = gen_input(14, 5, &items);
        let Some(Measure::Numeric { values, .. }) = bad.measures.first_mut() else {
            panic!("generator puts a numeric measure first")
        };
        values.pop();
        assert!(stream.append(&bad).unwrap_err().contains("length mismatch"));

        let mut bad = gen_input(14, 5, &items);
        let Some(Measure::DistinctKeyed { values, .. }) = bad.measures.last_mut() else {
            panic!("generator puts a distinct-keyed measure last")
        };
        values.pop();
        assert!(stream.append(&bad).unwrap_err().contains("length mismatch"));

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
        let cold = cube_pass_with(&space, &delta, par, None);
        assert_bit_identical(stream.result(), &cold, "empty base");
    }
}
