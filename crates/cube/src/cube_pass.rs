//! The CUBE pass (§4.2): compute every `(region, item)` aggregate in one
//! sweep over the fact data.
//!
//! The paper rewrites each feature query `α_f σ_{ID=i, Z∈r} F` into a
//! single grouped aggregation `α_{Z, ID, f} F` whose aggregate operator
//! "performs the CUBE operation on the dimension attributes". We realise
//! it in two phases:
//!
//! 1. **Base aggregation** — fact rows collapse into *base cells* keyed
//!    by (finest dimension coordinates, item). This is an ordinary
//!    group-by and shrinks the data from `#rows` to at most
//!    `#items × #finest-cells`.
//! 2. **Rollup expansion** — each base cell is merged into every region
//!    that contains it (the cartesian product of per-dimension
//!    ancestors). All numeric aggregates here are distributive; the
//!    distinct-FK form keeps its set of keys (a bitset over interned key
//!    ids when they fit, key→value pairs otherwise) so set-union dedups
//!    exactly as `π_FK` requires.
//!
//! # Kernel layout
//!
//! The hot path is allocation-lean, columnar and parallel:
//!
//! * Coordinates and item id encode into one dense `u64` **cell key**
//!   (per-dimension strides over `Dimension::num_values`, times a dense
//!   item index), so phase 1 groups by a machine word instead of a
//!   `(Vec<u32>, i64)` tuple.
//! * Aggregation state lives in **structure-of-arrays tables**
//!   ([`StateTable`]): one sorted key vector plus one [`StateCol`] per
//!   measure, each a flat lane of primitive accumulators. Cells never
//!   own per-cell state vectors, so folding and merging are branch-lean
//!   slice walks (the measure-kind `match` is hoisted out of the
//!   per-cell loop) with no per-cell heap allocation.
//! * Fact rows are cut into fixed [`ROW_CHUNK`]-row chunks. Workers fold
//!   chunks into small key-sorted tables (phase 1a) — one key pass that
//!   numbers the cell slots in key order (rows that arrive key-ascending
//!   are their own numbering; others sort their keys once), then one
//!   columnar update pass per measure. Phase 1b merges a run's chunk
//!   tables **in chunk order** through `external::MergeRuns`, the k-way
//!   merge the runs go through, each table a one-frame run: tables that
//!   chain in key order pass through uncopied, and the merge holds state
//!   only for the cells it meets, never for the whole key space.
//! * Phase 2 rolls base cells up with precomputed per-dimension ancestor
//!   key tables into dense item-indexed [`RegionTable`]s (the same
//!   columnar lanes), each output cell accumulating contributions in
//!   ascending base-key order. A leading interval dimension is a chain
//!   of prefixes `[1..1] ⊂ [1..2] ⊂ …`, so there the walk keeps one
//!   running table per combination of the *other* coordinates and hands
//!   it out as `[1..t]`'s region when the cells pass time point `t`
//!   ([`RollupPlan`]) instead of folding every cell into every prefix
//!   that contains it. Workers own disjoint table-key ranges, so no
//!   locks and no duplicated work.
//!
//! Because chunk boundaries and merge order are fixed properties of the
//! *input* — never of the worker count — the result is **bit-identical
//! for every thread count**, floating-point and all. Merging preserves
//! copy-first semantics: the first contribution to a slot is written,
//! not merged into a zero-initialised accumulator, so even signed-zero
//! corner cases match the row-at-a-time (AoS) reference kernel the tests
//! keep as their oracle. A key space the dense `u64` key cannot encode
//! is [`CubeError::KeySpaceTooLarge`], never a different pass.
//!
//! The result maps every region to its [`RegionColumns`]: the items with
//! data in it, ascending, and one flat lane per measure — the relation a
//! training block is copied from, not a lookup structure.

pub use crate::columns::{RegionColumns, Row, RowIter};
use crate::dimension::Dimension;
use crate::external::{cube_pass_runs, MergeRuns, UNLIMITED_BUDGET};
use crate::fxhash::FxMap;
use crate::parallel::{fork_join, split_point, Parallelism};
use crate::region::{RegionId, RegionSpace};
use bellwether_obs::{names, span, NoopRecorder, Recorder};
use bellwether_table::ops::AggFunc;
use bellwether_table::ColumnData;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Fixed scan granularity: fact rows are folded in chunks of this many
/// rows regardless of thread count, which is what makes the parallel
/// merge order (and hence every floating-point sum) reproducible.
pub const ROW_CHUNK: usize = 4096;

/// Largest item domain for which phase-2 rollup keeps one dense
/// item-indexed table per region (memory `O(regions × items)`); above
/// this it falls back to a `(region, item)`-keyed hash table.
const DENSE_ITEMS_MAX: u64 = 1 << 16;

/// Slot marker for rows the key function filtered out.
const NO_SLOT: u32 = u32::MAX;

/// Base cells the rollup walks per fork: it gathers whole segments until
/// it holds this many, and the k-way merge cuts its segments at it.
pub(crate) const SEGMENT_CELLS: usize = 1 << 16;

/// One measure (feature column) to compute per `(region, item)`.
#[derive(Debug, Clone)]
pub enum Measure {
    /// `α_f(column)` over the fact rows of the cell: the paper's first
    /// two query forms (`f(F.A)` and `f(T.A)` after a fact-side join,
    /// which the caller performs by materialising the joined column).
    /// `func` must be Sum, Min, Max, Avg or Count.
    Numeric {
        /// Output feature name.
        name: String,
        /// Aggregate function.
        func: AggFunc,
        /// Per-fact-row input; a row its validity clears is SQL NULL
        /// (skipped).
        values: ColumnData<f64>,
    },
    /// `α_f(T.A)((π_FK F) ⋈ T)`: aggregate over *distinct* foreign keys,
    /// each key contributing its (functional) reference-table value once.
    /// `func` may be Sum, Min, Max, Avg or CountDistinct.
    DistinctKeyed {
        /// Output feature name.
        name: String,
        /// Aggregate function over the distinct keys' values.
        func: AggFunc,
        /// Per-fact-row foreign key; a NULL key never joins.
        keys: ColumnData<i64>,
        /// Per-fact-row joined value `T.A` (ignored for CountDistinct).
        values: Vec<f64>,
    },
}

impl Measure {
    /// Output feature name.
    pub fn name(&self) -> &str {
        match self {
            Measure::Numeric { name, .. } | Measure::DistinctKeyed { name, .. } => name,
        }
    }

    /// Name, kind (distinct-keyed or not) and function.
    fn shape(&self) -> (&str, bool, AggFunc) {
        match self {
            Measure::Numeric { name, func, .. } => (name, false, *func),
            Measure::DistinctKeyed { name, func, .. } => (name, true, *func),
        }
    }

    /// A measure of the same shape with no rows.
    fn empty_like(&self) -> Measure {
        match self {
            Measure::Numeric { name, func, .. } => Measure::Numeric {
                name: name.clone(),
                func: *func,
                values: ColumnData::default(),
            },
            Measure::DistinctKeyed { name, func, .. } => Measure::DistinctKeyed {
                name: name.clone(),
                func: *func,
                keys: ColumnData::default(),
                values: Vec::new(),
            },
        }
    }

    /// Append `src`'s rows (same shape — see [`CubeInput::check_schema`]).
    fn extend(&mut self, src: &Measure) {
        match (self, src) {
            (Measure::Numeric { values, .. }, Measure::Numeric { values: sv, .. }) => {
                values.extend_from(sv);
            }
            (
                Measure::DistinctKeyed { keys, values, .. },
                Measure::DistinctKeyed {
                    keys: sk,
                    values: sv,
                    ..
                },
            ) => {
                keys.extend_from(sk);
                values.extend_from_slice(sv);
            }
            _ => unreachable!("measure shapes checked before extend"),
        }
    }

    /// `Err` unless every per-row column and validity bitmap has exactly
    /// `n` rows — the kernel indexes `keys`, `values` and validity alike
    /// by row — and the kernel computes `func` over this kind: Count over
    /// fact rows only, CountDistinct over distinct keys only.
    fn check(&self, n: usize) -> Result<(), String> {
        fn rows<T>(lane: &ColumnData<T>, n: usize) -> bool {
            lane.values.len() == n && lane.validity.as_ref().is_none_or(|v| v.len() == n)
        }
        let (ok, refused, over) = match self {
            Measure::Numeric { values, .. } => (rows(values, n), AggFunc::CountDistinct, "fact rows"),
            Measure::DistinctKeyed { keys, values, .. } => {
                (rows(keys, n) && values.len() == n, AggFunc::Count, "distinct keys")
            }
        };
        let (name, _, func) = self.shape();
        if func == refused {
            return Err(format!("measure {name}: {} is not computed over {over}", func.name()));
        }
        ok.then_some(()).ok_or_else(|| format!("measure {name} length mismatch"))
    }
}

/// Fact-side input to the CUBE pass.
#[derive(Debug, Clone)]
pub struct CubeInput {
    /// Item id per fact row.
    pub item_ids: Vec<i64>,
    /// Flattened `n × arity` finest-grained coordinates per fact row
    /// (time points 0-based, hierarchy leaf node ids).
    pub coords: Vec<u32>,
    /// The measures to aggregate.
    pub measures: Vec<Measure>,
}

impl CubeInput {
    /// An input with the same measure schema and no rows.
    pub(crate) fn empty_like(&self) -> CubeInput {
        CubeInput {
            item_ids: Vec::new(),
            coords: Vec::new(),
            measures: self.measures.iter().map(Measure::empty_like).collect(),
        }
    }

    /// Append every row of `src` (same arity and measure schema —
    /// validated by the caller).
    pub(crate) fn extend(&mut self, src: &CubeInput) {
        self.item_ids.extend_from_slice(&src.item_ids);
        self.coords.extend_from_slice(&src.coords);
        for (dst, sm) in self.measures.iter_mut().zip(&src.measures) {
            dst.extend(sm);
        }
    }

    /// `Err` unless `coords` and every measure column hold exactly one
    /// entry per row of `item_ids`, and every measure's function is one
    /// its kind computes.
    pub(crate) fn check_shape(&self, arity: usize) -> Result<(), String> {
        let n = self.item_ids.len();
        if self.coords.len() != n * arity {
            return Err("coords length mismatch".to_string());
        }
        self.measures.iter().try_for_each(|m| m.check(n))
    }

    /// `Err` naming the first coordinate at or past its dimension's
    /// `num_values`: its dense key would alias another cell's.
    pub(crate) fn check_coords(&self, space: &RegionSpace) -> Result<(), String> {
        let bounds: Vec<u32> = space.dims().iter().map(Dimension::num_values).collect();
        let mut bounded = self.coords.iter().zip(bounds.iter().cycle());
        bounded.position(|(&c, &bound)| c >= bound).map_or(Ok(()), |i| {
            let d = i % bounds.len();
            Err(format!("coordinate {} out of range on dimension {d}", self.coords[i]))
        })
    }

    /// What inputs must agree on to be aggregated together.
    fn schema(&self) -> impl Iterator<Item = (&str, bool, AggFunc)> {
        self.measures.iter().map(Measure::shape)
    }

    /// `Err` unless `other`'s measures line up with this input's (same
    /// count, names, kinds and functions, in order).
    pub(crate) fn check_schema(&self, other: &CubeInput) -> Result<(), String> {
        if self.schema().eq(other.schema()) {
            return Ok(());
        }
        Err(format!(
            "measures {:?} do not match the schema {:?}",
            other.schema().collect::<Vec<_>>(),
            self.schema().collect::<Vec<_>>()
        ))
    }
}

/// One measure's aggregation state over a table of cells, structure-of-
/// arrays: flat primitive lanes indexed by cell slot. Fold, merge and
/// finish all hoist the measure-kind `match` out of the per-cell loop.
///
/// Every variant distinguishes "never contributed" from its accumulator
/// value (`seen` lanes / counts), so merging can preserve **copy-first**
/// semantics: the first contribution to a slot assigns, later ones
/// merge. That keeps e.g. a `-0.0` sum bit-identical to the AoS oracle,
/// which clones the first contribution instead of adding it to `0.0`.
/// A distinct-FK measure whose keys [`intern_keys`] numbered holds a
/// bitset over those ids per slot ([`StateCol::Bits`]: a fold sets a
/// bit, a merge copies or ORs words). Any other holds `(key, value)`
/// pair lists instead of hash maps. A chunk fold pushes rows and restores the map-overwrite
/// semantics ("last insert wins per key") with [`dedup_pairs`], a stable
/// sort-by-key + keep-last dedup; from there on every merge goes through
/// [`union_into`], which keeps a list a key-sorted set while it is small
/// and a compacting append log past that. The dedup at merge boundaries
/// and at finish is what closes a log; on a sorted set it changes
/// nothing.
#[derive(Debug, Clone)]
pub(crate) enum StateCol {
    Sum { totals: Vec<f64>, seen: Vec<bool> },
    Count(Vec<u64>),
    Avg { totals: Vec<f64>, counts: Vec<u64> },
    Min { vals: Vec<f64>, seen: Vec<bool> },
    Max { vals: Vec<f64>, seen: Vec<bool> },
    Distinct { func: AggFunc, pairs: Vec<Vec<(i64, f64)>> },
    /// Slot `i`'s distinct key ids are the bits set in
    /// `bits[i * w..(i + 1) * w]`, `w = words(vals)`; `vals[id]` is the
    /// one value key `id` joins.
    Bits { func: AggFunc, vals: Arc<[f64]>, bits: Vec<u64> },
}

/// Largest distinct-FK key domain held in bitset lanes: four words a
/// slot, 32 bytes, against a pair list's 24-byte header alone.
pub(crate) const BITSET_KEYS_MAX: usize = 256;

/// Id lane entry of a row whose key is NULL.
const NO_KEY: u32 = u32::MAX;

/// Words per slot of a bitset lane over `vals.len()` key ids.
pub(crate) fn words(vals: &[f64]) -> usize {
    vals.len().div_ceil(64)
}

/// One input's interned distinct-FK measure: the values the ids join,
/// and one id per row ([`NO_KEY`] for a NULL key).
#[derive(Clone, Copy)]
pub(crate) struct IdLane<'a> { pub(crate) vals: &'a Arc<[f64]>, pub(crate) ids: &'a [u32] }

/// A distinct-FK measure's values by key id, and per input its id lane.
pub(crate) type Interned = (Arc<[f64]>, Vec<Vec<u32>>);

/// Number distinct-FK measure `m`'s keys over all `inputs` in ascending
/// key order: `vals[id]` is the key's value, `ids[i]` input `i`'s id
/// lane. `None` (pair lists) unless it has 1 to [`BITSET_KEYS_MAX`] keys
/// and every row of a key joins the same value, compared by bits.
pub(crate) fn intern_keys(inputs: &[CubeInput], m: usize) -> Option<Interned> {
    #[cfg(test)]
    if tests::pair_lists_forced() {
        return None;
    }
    let mut index: FxMap<i64, u32> = FxMap::default();
    let mut seen: Vec<(i64, f64)> = Vec::new();
    let mut lanes = Vec::with_capacity(inputs.len());
    for input in inputs {
        let Measure::DistinctKeyed { keys, values, .. } = &input.measures[m] else {
            return None;
        };
        let mut lane = Vec::with_capacity(values.len());
        for (row, (&key, &v)) in keys.values.iter().zip(values).enumerate() {
            if !keys.is_valid(row) {
                lane.push(NO_KEY);
                continue;
            }
            let next = seen.len() as u32;
            let id = *index.entry(key).or_insert(next);
            if id == next {
                if seen.len() == BITSET_KEYS_MAX {
                    return None;
                }
                seen.push((key, v));
            } else if seen[id as usize].1.to_bits() != v.to_bits() {
                return None;
            }
            lane.push(id);
        }
        lanes.push(lane);
    }
    if seen.is_empty() {
        return None;
    }
    let mut order: Vec<u32> = (0..seen.len() as u32).collect();
    order.sort_unstable_by_key(|&i| seen[i as usize].0);
    let mut rank = vec![0u32; seen.len()];
    (0u32..).zip(&order).for_each(|(r, &i)| rank[i as usize] = r);
    for id in lanes.iter_mut().flatten().filter(|id| **id != NO_KEY) {
        *id = rank[*id as usize];
    }
    Some((order.iter().map(|&i| seen[i as usize].1).collect(), lanes))
}

/// The ids set in one slot's words, ascending.
fn set_ids(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    (0..).zip(words).flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
            rest &= rest - 1;
            Some(w * 64 + bit)
        })
    })
}

/// Longest distinct pair list handled by element moves: [`dedup_pairs`]
/// insertion-sorts up to this many pairs, and [`union_into`] keeps a
/// destination a sorted set while destination plus source fit in it.
pub(crate) const SMALL_PAIRS_MAX: usize = 32;

/// Stable-sort `pairs` by key and keep the **last** occurrence of each
/// key (= hash-map insert order semantics). The result is key-sorted.
pub(crate) fn dedup_pairs(pairs: &mut Vec<(i64, f64)>) {
    if pairs.len() < 2 {
        return;
    }
    // Stable sort by key; the lists are almost always tiny (one entry
    // per contributing cell), where a hand-rolled insertion sort beats
    // the general sort's dispatch overhead.
    if pairs.len() <= SMALL_PAIRS_MAX {
        for i in 1..pairs.len() {
            let mut j = i;
            while j > 0 && pairs[j - 1].0 > pairs[j].0 {
                pairs.swap(j - 1, j);
                j -= 1;
            }
        }
    } else {
        pairs.sort_by_key(|&(k, _)| k); // stable: preserves arrival order per key
    }
    let mut w = 0;
    let mut i = 0;
    while i < pairs.len() {
        let k = pairs[i].0;
        let mut j = i;
        while j + 1 < pairs.len() && pairs[j + 1].0 == k {
            j += 1;
        }
        pairs[w] = pairs[j];
        w += 1;
        i = j + 1;
    }
    pairs.truncate(w);
}

/// Whether `pairs` is a key-sorted set: what every deduplicated lane is.
pub(crate) fn strictly_ascending(pairs: &[(i64, f64)]) -> bool {
    pairs.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Fold the later arrival `src` (strictly key-ascending, as every
/// deduplicated lane is) into `dst` so that `dedup_pairs(dst)` afterwards
/// equals `dedup_pairs(old dst ++ src)`.
///
/// While both fit in [`SMALL_PAIRS_MAX`] pairs, `dst` is a key-sorted
/// set and `src` is upserted in place: an equal key takes the later
/// value, a new key is inserted in order. A slot that receives the same
/// few keys from every cell it covers therefore never holds more than
/// its distinct keys. Past that size a sorted insert would move O(n)
/// pairs per arrival, so `dst` becomes an append log that is compacted
/// whenever it would outgrow its allocation, and the allocation doubles
/// only if the compacted log still fills more than half of it: O(log n)
/// amortised work per arrival, memory O(distinct keys). A log is longer
/// than [`SMALL_PAIRS_MAX`] until a dedup shortens it, which also sorts
/// it, so a list short enough for the sorted regime is always sorted.
fn union_into(dst: &mut Vec<(i64, f64)>, src: &[(i64, f64)]) {
    if dst.len() + src.len() > SMALL_PAIRS_MAX {
        let cap = dst.capacity();
        let full = dst.len() + src.len() > cap;
        if full {
            #[cfg(test)]
            tests::touched(dst.len());
            dedup_pairs(dst);
        }
        if dst.len() + src.len() > SMALL_PAIRS_MAX {
            if full && dst.len() > cap / 2 {
                dst.reserve(cap);
            }
            dst.extend_from_slice(src);
            return;
        }
    }
    debug_assert!(strictly_ascending(dst), "sorted-regime destination: {dst:?}");
    debug_assert!(strictly_ascending(src), "sorted-regime source: {src:?}");
    let mut hi = dst.len();
    for &(key, value) in src.iter().rev() {
        while hi > 0 && dst[hi - 1].0 > key {
            hi -= 1;
        }
        if hi > 0 && dst[hi - 1].0 == key {
            hi -= 1;
            dst[hi].1 = value;
        } else {
            dst.insert(hi, (key, value));
        }
    }
    #[cfg(test)]
    tests::touched(dst.len() * src.len());
}

/// Reduce one cell's `n` distinct keys, whose values `vals` yields in
/// ascending key order.
pub(crate) fn finish_distinct_vals(
    func: AggFunc,
    n: usize,
    vals: impl Iterator<Item = f64>,
) -> Option<f64> {
    if func == AggFunc::CountDistinct {
        return Some(n as f64);
    }
    if n == 0 {
        return None;
    }
    Some(match func {
        AggFunc::Sum => vals.sum(),
        AggFunc::Avg => vals.sum::<f64>() / n as f64,
        AggFunc::Min => vals.fold(f64::INFINITY, f64::min),
        AggFunc::Max => vals.fold(f64::NEG_INFINITY, f64::max),
        AggFunc::Count | AggFunc::CountDistinct => unreachable!("refused by `Measure::check`"),
    })
}

/// `idx.map(|i| v[i])` for `Copy` lanes.
fn gather_copy<T: Copy>(v: &[T], idx: &[u32]) -> Vec<T> {
    idx.iter().map(|&i| v[i as usize]).collect()
}

/// `idx.map(|i| take(v[i]))` for owned lanes (indices must be distinct).
fn gather_take<T: Default>(v: &mut [T], idx: &[u32]) -> Vec<T> {
    idx.iter()
        .map(|&i| std::mem::take(&mut v[i as usize]))
        .collect()
}

/// Call `f(row, slot, value)` for each row of `rows` that has a cell
/// slot and a valid value, in row order. The validity bitmap is looked
/// up once per call: a lane with no NULLs walks its values alone.
#[inline(always)]
fn fold_valid<T: Copy>(
    lane: &ColumnData<T>,
    rows: Range<usize>,
    slots: &[u32],
    mut f: impl FnMut(usize, usize, T),
) {
    let rows = rows.clone().zip(&lane.values[rows]).zip(slots);
    let kept = rows.filter(|&(_, &slot)| slot != NO_SLOT);
    match &lane.validity {
        None => kept.for_each(|((row, &v), &slot)| f(row, slot as usize, v)),
        Some(valid) => kept
            .filter(|&((row, _), _)| valid.get(row))
            .for_each(|((row, &v), &slot)| f(row, slot as usize, v)),
    }
}

impl StateCol {
    /// A column of `len` empty slots for `func`, over distinct-FK lanes
    /// when `distinct`.
    fn with_len(func: AggFunc, distinct: bool, len: usize) -> StateCol {
        if distinct {
            return StateCol::Distinct {
                func,
                pairs: vec![Vec::new(); len],
            };
        }
        match func {
            AggFunc::Sum => StateCol::Sum {
                totals: vec![0.0; len],
                seen: vec![false; len],
            },
            AggFunc::Count => StateCol::Count(vec![0; len]),
            AggFunc::Avg => StateCol::Avg {
                totals: vec![0.0; len],
                counts: vec![0; len],
            },
            AggFunc::Min => StateCol::Min {
                vals: vec![0.0; len],
                seen: vec![false; len],
            },
            AggFunc::Max => StateCol::Max {
                vals: vec![0.0; len],
                seen: vec![false; len],
            },
            AggFunc::CountDistinct => unreachable!("refused by `Measure::check`"),
        }
    }

    /// `len` empty bitset slots over the ids `vals` is indexed by.
    fn bitset(func: AggFunc, vals: &Arc<[f64]>, len: usize) -> StateCol {
        StateCol::Bits { func, vals: Arc::clone(vals), bits: vec![0; len * words(vals)] }
    }

    /// `len` empty slots of `measure`, as bitsets over `lane`'s ids when
    /// it has one.
    fn new(measure: &Measure, lane: Option<IdLane>, len: usize) -> StateCol {
        let (_, distinct, func) = measure.shape();
        match lane {
            Some(lane) => StateCol::bitset(func, lane.vals, len),
            None => StateCol::with_len(func, distinct, len),
        }
    }

    /// A fresh column of the same measure kind with `len` empty slots.
    pub(crate) fn new_like(&self, len: usize) -> StateCol {
        let (func, distinct) = match self {
            StateCol::Sum { .. } => (AggFunc::Sum, false),
            StateCol::Count(_) => (AggFunc::Count, false),
            StateCol::Avg { .. } => (AggFunc::Avg, false),
            StateCol::Min { .. } => (AggFunc::Min, false),
            StateCol::Max { .. } => (AggFunc::Max, false),
            StateCol::Distinct { func, .. } => (*func, true),
            StateCol::Bits { func, vals, .. } => return StateCol::bitset(*func, vals, len),
        };
        StateCol::with_len(func, distinct, len)
    }

    /// Grow to `len` slots (new slots empty).
    pub(crate) fn resize_default(&mut self, len: usize) {
        match self {
            StateCol::Sum { totals, seen }
            | StateCol::Min { vals: totals, seen }
            | StateCol::Max { vals: totals, seen } => {
                totals.resize(len, 0.0);
                seen.resize(len, false);
            }
            StateCol::Count(c) => c.resize(len, 0),
            StateCol::Avg { totals, counts } => {
                totals.resize(len, 0.0);
                counts.resize(len, 0);
            }
            StateCol::Distinct { pairs, .. } => pairs.resize_with(len, Vec::new),
            StateCol::Bits { vals, bits, .. } => bits.resize(len * words(vals), 0),
        }
    }

    /// Fold the rows of one chunk into this column: `slots[row - rows.start]`
    /// is the row's cell slot ([`NO_SLOT`] = filtered out), and a bitset
    /// column reads `lane`'s ids. One `match`, then a single pass over the
    /// chunk's rows in row order ([`fold_valid`]: validity once a chunk).
    fn update_rows(&mut self, measure: &Measure, lane: Option<IdLane>, rows: Range<usize>, slots: &[u32]) {
        match (self, measure) {
            (StateCol::Bits { vals, bits, .. }, _) => {
                let (w, ids) = (words(vals), lane.expect("a bitset column folds interned ids").ids);
                for (&id, &slot) in ids[rows].iter().zip(slots) {
                    if slot != NO_SLOT && id != NO_KEY {
                        bits[slot as usize * w + id as usize / 64] |= 1 << (id % 64);
                    }
                }
            }
            (StateCol::Sum { totals, seen }, Measure::Numeric { values, .. }) => {
                fold_valid(values, rows, slots, |_, s, v| {
                    totals[s] += v;
                    seen[s] = true;
                });
            }
            (StateCol::Count(counts), Measure::Numeric { values, .. }) => {
                fold_valid(values, rows, slots, |_, s, _| counts[s] += 1);
            }
            (StateCol::Avg { totals, counts }, Measure::Numeric { values, .. }) => {
                fold_valid(values, rows, slots, |_, s, v| {
                    totals[s] += v;
                    counts[s] += 1;
                });
            }
            (StateCol::Min { vals, seen }, Measure::Numeric { values, .. }) => {
                fold_valid(values, rows, slots, |_, s, v| {
                    vals[s] = if seen[s] { vals[s].min(v) } else { v };
                    seen[s] = true;
                });
            }
            (StateCol::Max { vals, seen }, Measure::Numeric { values, .. }) => {
                fold_valid(values, rows, slots, |_, s, v| {
                    vals[s] = if seen[s] { vals[s].max(v) } else { v };
                    seen[s] = true;
                });
            }
            (
                StateCol::Distinct { pairs, .. },
                Measure::DistinctKeyed { keys: ks, values, .. },
            ) => {
                fold_valid(ks, rows, slots, |row, s, k| pairs[s].push((k, values[row])));
            }
            _ => unreachable!("state/measure kind mismatch"),
        }
    }

    /// Merge entries `range` of `src` into this column: entry `i` lands
    /// in destination slot `dsts[i - range.start]`, with
    /// `was[i - range.start]` saying whether that slot was occupied
    /// before this source table's contribution (false ⇒ copy, true ⇒
    /// merge). One `match`, then lock-step slice walks — the source
    /// lanes, `dsts` and `was` are iterated zipped so the only indexed
    /// (bounds-checked) accesses left are the destination-lane scatters.
    pub(crate) fn merge_from(&mut self, src: &StateCol, range: Range<usize>, dsts: &[u32], was: &[bool]) {
        debug_assert_eq!(dsts.len(), range.len());
        debug_assert_eq!(was.len(), range.len());
        match (self, src) {
            (StateCol::Sum { totals, seen }, StateCol::Sum { totals: st, seen: ss }) => {
                let lanes = st[range.clone()].iter().zip(&ss[range]);
                for ((&v, &b), (&d, &w)) in lanes.zip(dsts.iter().zip(was)) {
                    let d = d as usize;
                    if w {
                        totals[d] += v;
                        seen[d] |= b;
                    } else {
                        totals[d] = v;
                        seen[d] = b;
                    }
                }
            }
            (StateCol::Count(counts), StateCol::Count(sc)) => {
                for (&c, (&d, &w)) in sc[range].iter().zip(dsts.iter().zip(was)) {
                    let d = d as usize;
                    if w {
                        counts[d] += c;
                    } else {
                        counts[d] = c;
                    }
                }
            }
            (
                StateCol::Avg { totals, counts },
                StateCol::Avg {
                    totals: st,
                    counts: sc,
                },
            ) => {
                let lanes = st[range.clone()].iter().zip(&sc[range]);
                for ((&v, &c), (&d, &w)) in lanes.zip(dsts.iter().zip(was)) {
                    let d = d as usize;
                    if w {
                        totals[d] += v;
                        counts[d] += c;
                    } else {
                        totals[d] = v;
                        counts[d] = c;
                    }
                }
            }
            (StateCol::Min { vals, seen }, StateCol::Min { vals: sv, seen: ss }) => {
                let lanes = sv[range.clone()].iter().zip(&ss[range]);
                for ((&v, &b), (&d, &w)) in lanes.zip(dsts.iter().zip(was)) {
                    let d = d as usize;
                    if !w {
                        vals[d] = v;
                        seen[d] = b;
                    } else if b {
                        vals[d] = if seen[d] { vals[d].min(v) } else { v };
                        seen[d] = true;
                    }
                }
            }
            (StateCol::Max { vals, seen }, StateCol::Max { vals: sv, seen: ss }) => {
                let lanes = sv[range.clone()].iter().zip(&ss[range]);
                for ((&v, &b), (&d, &w)) in lanes.zip(dsts.iter().zip(was)) {
                    let d = d as usize;
                    if !w {
                        vals[d] = v;
                        seen[d] = b;
                    } else if b {
                        vals[d] = if seen[d] { vals[d].max(v) } else { v };
                        seen[d] = true;
                    }
                }
            }
            (StateCol::Distinct { pairs, .. }, StateCol::Distinct { pairs: sp, .. }) => {
                #[cfg(test)]
                let union_into = tests::distinct_merge_arm();
                for (sl, (&d, &w)) in sp[range].iter().zip(dsts.iter().zip(was)) {
                    let d = d as usize;
                    if !w {
                        pairs[d].clear();
                    }
                    union_into(&mut pairs[d], sl);
                }
            }
            (StateCol::Bits { vals, bits, .. }, StateCol::Bits { bits: sb, .. }) => {
                let w = words(vals);
                let src = sb[range.start * w..range.end * w].chunks_exact(w);
                for (s, (&d, &occupied)) in src.zip(dsts.iter().zip(was)) {
                    let dst = &mut bits[d as usize * w..(d as usize + 1) * w];
                    if occupied {
                        dst.iter_mut().zip(s).for_each(|(a, &b)| *a |= b);
                    } else {
                        dst.copy_from_slice(s);
                    }
                }
            }
            _ => unreachable!("merging mismatched state columns"),
        }
    }

    /// Reorder into `idx` order (indices distinct), consuming the lanes.
    pub(crate) fn gather(&mut self, idx: &[u32]) -> StateCol {
        match self {
            StateCol::Sum { totals, seen } => StateCol::Sum {
                totals: gather_copy(totals, idx),
                seen: gather_copy(seen, idx),
            },
            StateCol::Count(c) => StateCol::Count(gather_copy(c, idx)),
            StateCol::Avg { totals, counts } => StateCol::Avg {
                totals: gather_copy(totals, idx),
                counts: gather_copy(counts, idx),
            },
            StateCol::Min { vals, seen } => StateCol::Min {
                vals: gather_copy(vals, idx),
                seen: gather_copy(seen, idx),
            },
            StateCol::Max { vals, seen } => StateCol::Max {
                vals: gather_copy(vals, idx),
                seen: gather_copy(seen, idx),
            },
            StateCol::Distinct { func, pairs } => StateCol::Distinct {
                func: *func,
                pairs: gather_take(pairs, idx),
            },
            StateCol::Bits { func, vals, bits } => {
                let w = words(vals);
                let slot = |&i: &u32| &bits[i as usize * w..(i as usize + 1) * w];
                StateCol::Bits {
                    func: *func,
                    vals: Arc::clone(vals),
                    bits: idx.iter().flat_map(slot).copied().collect(),
                }
            }
        }
    }

    /// Restore the per-slot "last insert wins, unique keys, key-sorted"
    /// invariant on distinct lanes after a round of appends; no-op for
    /// the numeric kinds. Must run before [`StateCol::finish_at`].
    pub(crate) fn dedup_distinct(&mut self) {
        if let StateCol::Distinct { pairs, .. } = self {
            for list in pairs {
                dedup_pairs(list);
            }
        }
    }

    /// Finalize slot `i` into the output value (`None` = SQL NULL).
    /// Distinct lanes must have been deduplicated (see
    /// [`StateCol::dedup_distinct`]).
    pub(crate) fn finish_at(&self, i: usize) -> Option<f64> {
        match self {
            StateCol::Sum { totals, seen } => seen[i].then_some(totals[i]),
            StateCol::Count(c) => Some(c[i] as f64),
            StateCol::Avg { totals, counts } => {
                (counts[i] > 0).then(|| totals[i] / counts[i] as f64)
            }
            StateCol::Min { vals, seen } | StateCol::Max { vals, seen } => {
                seen[i].then_some(vals[i])
            }
            StateCol::Distinct { func, pairs } => {
                finish_distinct_vals(*func, pairs[i].len(), pairs[i].iter().map(|&(_, v)| v))
            }
            StateCol::Bits { func, vals, bits } => {
                let w = words(vals);
                let set = &bits[i * w..(i + 1) * w];
                let n = set.iter().map(|word| word.count_ones() as usize).sum();
                finish_distinct_vals(*func, n, set_ids(set).map(|id| vals[id]))
            }
        }
    }
}

/// A key-sorted table of cells in structure-of-arrays layout: `keys[i]`
/// is cell `i`'s dense key, `cols[m]` holds measure `m`'s accumulator
/// lanes for every cell.
#[derive(Debug, Clone, Default)]
pub(crate) struct StateTable {
    pub(crate) keys: Vec<u64>,
    pub(crate) cols: Vec<StateCol>,
}

impl StateTable {
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Index range of the keys in `[lo, hi)` (keys must be sorted).
    pub(crate) fn range_of(&self, lo: u64, hi: u64) -> Range<usize> {
        let a = self.keys.partition_point(|&k| k < lo);
        let b = self.keys.partition_point(|&k| k < hi);
        a..b
    }

    /// Sort by key via one permutation applied to every lane.
    pub(crate) fn sort_by_key(&mut self) {
        if self.keys.is_sorted() {
            return;
        }
        let mut perm: Vec<u32> = (0..self.keys.len() as u32).collect();
        perm.sort_unstable_by_key(|&i| self.keys[i as usize]);
        self.keys = gather_copy(&self.keys, &perm);
        for col in &mut self.cols {
            *col = col.gather(&perm);
        }
    }
}

/// Per-region aggregate columns produced by [`cube_pass`].
#[derive(Debug, Clone)]
pub struct CubeResult {
    /// Feature names, in measure order.
    pub measure_names: Vec<String>,
    /// `region → its items' aggregates`. Regions a pass finished from the
    /// same state (`[1..t] × n` over weeks with no rows under `n`) share
    /// one allocation.
    pub regions: HashMap<RegionId, Arc<RegionColumns>>,
}

impl CubeResult {
    /// Number of distinct items with data in `r` (the coverage
    /// numerator `|I_r|`).
    pub fn coverage_count(&self, r: &RegionId) -> usize {
        self.regions.get(r).map_or(0, |cols| cols.len())
    }

    /// The feature vector of `item` in region `r`, if the item has data.
    pub fn features(&self, r: &RegionId, item: i64) -> Option<Row<'_>> {
        self.regions.get(r)?.get(item)
    }
}

/// Why a CUBE pass ([`cube_pass`], [`crate::cube_pass_external`],
/// [`aggregate_filtered`], [`crate::StreamingCube`]) failed.
#[derive(Debug)]
pub enum CubeError {
    /// Malformed input: a column of the wrong length, a coordinate out of
    /// range, inputs with different measure schemas, a function the
    /// measure's kind does not compute, an item outside a stream's
    /// universe.
    InvalidInput(String),
    /// The space × item domain does not fit the dense `u64` cell key.
    KeySpaceTooLarge,
    /// Spill I/O failed, or a spilled run read back damaged
    /// (`InvalidData`, `UnexpectedEof`, or `is_corrupt`).
    Io(io::Error),
}

impl fmt::Display for CubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CubeError::InvalidInput(why) => write!(f, "invalid CUBE input: {why}"),
            CubeError::KeySpaceTooLarge => {
                f.write_str("region × item key space too large for dense keys")
            }
            CubeError::Io(e) => write!(f, "CUBE spill: {e}"),
        }
    }
}

impl std::error::Error for CubeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CubeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CubeError {
    fn from(e: io::Error) -> Self {
        CubeError::Io(e)
    }
}

/// Dense `u64` encoding of `(finest coords, item)` keys.
///
/// Cell coordinates use per-dimension strides over `num_values` (so the
/// *same* encoding covers both finest cells and region coordinates);
/// the item id maps through a dense index over the distinct ids. `build`
/// returns `None` when the combined key space cannot fit a `u64` with
/// headroom, which every entry reports as [`CubeError::KeySpaceTooLarge`].
#[derive(Clone)]
pub(crate) struct KeySpace {
    pub(crate) strides: Vec<u64>,
    pub(crate) num_values: Vec<u64>,
    pub(crate) cell_space: u64,
    /// Dense item index → item id, sorted ascending.
    pub(crate) items: Vec<i64>,
    pub(crate) item_index: FxMap<i64, u32>,
    pub(crate) n_items: u64,
}

/// The pass's item numbering: the distinct ids ascending (dense item index
/// → id) and its inverse. `None` past `u32` indices.
fn number_items(item_ids: &[i64]) -> Option<(Vec<i64>, FxMap<i64, u32>)> {
    let mut items = item_ids.to_vec();
    items.sort_unstable();
    items.dedup();
    u32::try_from(items.len()).ok()?;
    let index = (0u32..).zip(&items).map(|(i, &id)| (id, i)).collect();
    Some((items, index))
}

impl KeySpace {
    pub(crate) fn build(space: &RegionSpace, item_ids: &[i64]) -> Option<KeySpace> {
        let num_values: Vec<u64> = space
            .dims()
            .iter()
            .map(|d| d.num_values() as u64)
            .collect();
        if num_values.contains(&0) {
            return None;
        }
        let mut strides = vec![1u64; num_values.len()];
        let mut acc: u128 = 1;
        for d in (0..num_values.len()).rev() {
            strides[d] = u64::try_from(acc).ok()?;
            acc *= num_values[d] as u128;
        }
        let cell_space = u64::try_from(acc).ok()?;
        let (items, item_index) = number_items(item_ids)?;
        let n_items = items.len() as u64;
        if (cell_space as u128) * (n_items as u128) > (1u128 << 62) {
            return None;
        }
        Some(KeySpace {
            strides,
            num_values,
            cell_space,
            items,
            item_index,
            n_items,
        })
    }

    #[inline]
    pub(crate) fn cell_key(&self, coords: &[u32]) -> u64 {
        coords
            .iter()
            .zip(&self.strides)
            .map(|(&c, &s)| c as u64 * s)
            .sum()
    }

    /// The dense key of `input`'s rows as the key function [`fold_chunk`]
    /// takes, unchecked: every pass checks coordinates first
    /// ([`CubeInput::check_coords`]); the cold passes build the key space
    /// from the items they fold, and the delta pass refuses an item
    /// outside its universe before folding.
    pub(crate) fn key_fn<'a>(
        &'a self,
        input: &'a CubeInput,
    ) -> impl Fn(usize, &[u32]) -> Option<u64> + Sync + 'a {
        move |row, coords| {
            Some(self.cell_key(coords) * self.n_items + self.item_index[&input.item_ids[row]] as u64)
        }
    }

    pub(crate) fn decode_region(&self, key: u64) -> Vec<u32> {
        let mut rem = key;
        self.strides
            .iter()
            .map(|&s| {
                let v = rem / s;
                rem %= s;
                v as u32
            })
            .collect()
    }
}

pub(crate) fn chunk_range(chunk: usize, n: usize) -> Range<usize> {
    chunk * ROW_CHUNK..((chunk + 1) * ROW_CHUNK).min(n)
}

/// Phase 1a for one chunk: fold its rows into a key-sorted table. Pass
/// one computes every row's key and numbers the cell slots in ascending
/// key order: a chunk whose keys strictly ascend (stream inputs arrive
/// so) takes its rows' order as it is, any other sorts its keys once.
/// Pass two updates each measure column over the whole chunk with the
/// measure kind matched once. Per (cell, measure) the update sequence is
/// row-ascending, so every accumulated scalar is bit-equal to a
/// row-at-a-time fold. `lanes[m]`, when given, is measure `m`'s
/// interned key ids, which it folds into bitset lanes.
pub(crate) fn fold_chunk<K>(
    input: &CubeInput, lanes: &[Option<IdLane>], arity: usize, rows: Range<usize>, key_of: &K,
) -> StateTable
where
    K: Fn(usize, &[u32]) -> Option<u64>,
{
    #[cfg(test)]
    if tests::phase1_oracle() {
        return tests::fold_chunk_by_map(input, lanes, arity, rows, key_of);
    }
    let mut keys: Vec<u64> = Vec::with_capacity(rows.len());
    let mut slots: Vec<u32> = Vec::with_capacity(rows.len());
    let mut ascending = true;
    for row in rows.clone() {
        match key_of(row, &input.coords[row * arity..(row + 1) * arity]) {
            Some(key) => {
                ascending &= keys.last().is_none_or(|&last| last < key);
                slots.push(keys.len() as u32);
                keys.push(key);
            }
            None => slots.push(NO_SLOT),
        }
    }
    if !ascending {
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for slot in slots.iter_mut().filter(|s| **s != NO_SLOT) {
            *slot = sorted.binary_search(&keys[*slot as usize]).expect("a key of the chunk") as u32;
        }
        keys = sorted;
    }
    let cols = (0..)
        .zip(&input.measures)
        .map(|(m, measure)| {
            let lane = lanes.get(m).copied().flatten();
            let mut col = StateCol::new(measure, lane, keys.len());
            col.update_rows(measure, lane, rows.clone(), &slots);
            col.dedup_distinct();
            col
        })
        .collect();
    StateTable { keys, cols }
}

/// Phase 1a: fold chunks `chunks` of `input`, sharding them over
/// `threads` workers. The returned tables are in chunk order — the
/// partition of chunks onto workers never shows in the output.
pub(crate) fn fold_chunks<K>(
    input: &CubeInput,
    lanes: &[Option<IdLane>],
    arity: usize,
    chunks: Range<usize>,
    threads: usize,
    key_of: &K,
) -> Vec<StateTable>
where
    K: Fn(usize, &[u32]) -> Option<u64> + Sync,
{
    let n = input.item_ids.len();
    let threads = threads.min(chunks.len()).max(1);
    let cut = |w| chunks.start + split_point(chunks.len() as u64, w, threads) as usize;
    fork_join(threads, |w| {
        (cut(w)..cut(w + 1))
            .map(|c| fold_chunk(input, lanes, arity, chunk_range(c, n), key_of))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Where a table's items live in its lanes — chosen from the observed
/// item domain, never by the caller.
#[derive(Clone)]
enum ItemSlots {
    /// Slot = dense item index; `occupied[i]` says whether item `i` has
    /// data. Memory `O(tables × items)`, so only up to
    /// [`DENSE_ITEMS_MAX`] items.
    Dense(Vec<bool>),
    /// Huge item domains: dense item index → slot, assigned in
    /// first-contribution order, so a table pays only for the items it
    /// actually holds.
    Hashed(FxMap<u32, u32>),
}

/// One running table of the rollup walk: `cols[m]` holds measure `m`'s
/// lanes over the table's item slots.
#[derive(Clone)]
pub(crate) struct RegionTable {
    slots: ItemSlots,
    cols: Vec<StateCol>,
    /// The largest base cell folded so far (runs arrive ascending). The
    /// delta pass may fold a cell past it straight onto this state.
    pub(crate) last_cell: u64,
    /// The columns finished from this very state; `None` once a cell
    /// arrives.
    emitted: Option<Arc<RegionColumns>>,
    /// The id lane last finished. Occupancy only grows, so while the
    /// occupied-slot count equals its length it is this table's lane.
    ids: Arc<[i64]>,
}

/// How phase 2 lays a region space out for its walk.
///
/// Base cells arrive in ascending key order with dimension 0 as the
/// major stride. When that dimension is an interval, region
/// `([1..t], n)` folds exactly the cells `([1..t−1], n)` folds, in the
/// same order, and then time point `t`'s cells under `n`. The walk
/// therefore keeps one running table per combination `n` of *trailing*
/// coordinates and hands it out as region `(t, n)` whenever the leading
/// coordinate moves past `t` — an **epoch** closes. Every other space
/// (no leading interval, or nothing trailing it to split workers over)
/// is the same walk with one epoch: a table per region, handed out once
/// at the end.
///
/// A table is addressed by its **table key**, the region key with the
/// epoch taken out: `region key = epoch × epoch_stride + table key`.
#[derive(Clone)]
pub(crate) struct RollupPlan {
    /// Cell keys per epoch, which is also the size of the table-key
    /// space.
    pub(crate) epoch_stride: u64,
    pub(crate) n_epochs: u64,
    /// `anc_keys[d][v]` lists the table-key contribution (ancestor value
    /// × stride) of every value of dimension `d` containing `v`; a
    /// dimension that is the epoch contributes the single key 0.
    anc_keys: Vec<Vec<Vec<u64>>>,
}

impl RollupPlan {
    pub(crate) fn new(space: &RegionSpace, ks: &KeySpace) -> RollupPlan {
        let shared =
            space.arity() > 1 && matches!(space.dims()[0], Dimension::Interval { .. });
        #[cfg(test)]
        let shared = shared && !tests::one_epoch_oracle();
        let mut anc_keys: Vec<Vec<Vec<u64>>> = space
            .dims()
            .iter()
            .zip(&ks.strides)
            .map(|(dim, &stride)| {
                (0..dim.num_values())
                    .map(|v| dim.containing_values(v).into_iter().map(|a| a as u64 * stride).collect())
                    .collect()
            })
            .collect();
        let (epoch_stride, n_epochs) = if shared {
            anc_keys[0].iter_mut().for_each(|keys| *keys = vec![0]);
            (ks.strides[0], ks.num_values[0])
        } else {
            (ks.cell_space, 1)
        };
        RollupPlan { epoch_stride, n_epochs, anc_keys }
    }

    /// The table keys worker `w` of `threads` owns: an even cut of the
    /// table-key space, so no two workers share a table and every
    /// region of a table comes from the one worker that folded it.
    pub(crate) fn worker_range(&self, w: usize, threads: usize) -> (u64, u64) {
        (
            split_point(self.epoch_stride, w, threads),
            split_point(self.epoch_stride, w + 1, threads),
        )
    }

    /// The table keys `cell_key` rolls up into that fall in `[lo, hi)`,
    /// written into `out`: an odometer over the per-dimension ancestor
    /// key contributions, maintaining the key sum incrementally.
    pub(crate) fn table_keys(&self, cell_key: u64, ks: &KeySpace, lo: u64, hi: u64, out: &mut Vec<u64>) {
        out.clear();
        let arity = ks.strides.len();
        let mut lists: Vec<&[u64]> = Vec::with_capacity(arity);
        let mut rem = cell_key;
        for (&stride, anc_d) in ks.strides.iter().zip(&self.anc_keys) {
            let v = (rem / stride) as usize;
            rem %= stride;
            lists.push(&anc_d[v]);
        }
        let mut idx = vec![0usize; arity];
        let mut sum: u64 = lists.iter().map(|l| l[0]).sum();
        loop {
            if (lo..hi).contains(&sum) {
                out.push(sum);
            }
            let mut d = arity;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                sum -= lists[d][idx[d]];
                idx[d] += 1;
                if idx[d] < lists[d].len() {
                    sum += lists[d][idx[d]];
                    break;
                }
                idx[d] = 0;
                sum += lists[d][0];
            }
        }
    }
}

/// Finalize one table's lanes into the region's columns, in item order
/// (slot order in a dense table; a hashed one sorts its pairs once). The
/// table stays valid for further cells: keep-last dedup composes, so a
/// dedup now and another after more cells equal one dedup at the end.
fn finish_region(ks: &KeySpace, table: &mut RegionTable) -> RegionColumns {
    for col in &mut table.cols {
        col.dedup_distinct();
    }
    #[cfg(test)]
    if tests::row_finish_oracle() {
        return RegionColumns::from_rows(tests::finish_region_by_rows(ks, table));
    }
    let mut slots: Vec<(u32, u32)> = match &table.slots {
        ItemSlots::Dense(occupied) => {
            (0u32..).zip(occupied).filter_map(|(i, &occ)| occ.then_some((i, i))).collect()
        }
        ItemSlots::Hashed(index) => index.iter().map(|(&item, &slot)| (item, slot)).collect(),
    };
    slots.sort_unstable();
    let lane = |c: &StateCol| slots.iter().map(|&(_, s)| c.finish_at(s as usize)).collect();
    let lanes = table.cols.iter().map(lane).collect();
    if table.ids.len() != slots.len() {
        table.ids = slots.iter().map(|&(i, _)| ks.items[i as usize]).collect();
    }
    RegionColumns::from_lanes(Arc::clone(&table.ids), lanes)
}

/// What a walk leaves behind.
pub(crate) struct Rolled {
    /// The running tables at the end of the walk, by table key.
    pub(crate) tables: FxMap<u64, RegionTable>,
    /// Every region handed out.
    pub(crate) finished: Vec<(RegionId, Arc<RegionColumns>)>,
    /// Merges into an occupied slot.
    pub(crate) merges: u64,
    /// Nanoseconds the walk's batches took, when timed.
    pub(crate) nanos: u64,
}

/// One walk over base cells in ascending key order: the running tables
/// of a table-key range, and the regions handed out so far.
pub(crate) struct Walk<'a> {
    plan: &'a RollupPlan,
    ks: &'a KeySpace,
    /// Sorted region keys to hand out (`None` = all).
    filter: Option<&'a [u64]>,
    pub(crate) tables: FxMap<u64, RegionTable>,
    /// The earliest epoch not yet closed.
    epoch: u64,
    rolled_out: Vec<(RegionId, Arc<RegionColumns>)>,
    merges: u64,
    /// The table keys this walk folds; the cell last seen, and its keys.
    keys: Range<u64>,
    cell: u64,
    expansion: Vec<u64>,
    /// Whether the walk is timed; its time in batches, finishing included.
    timed: bool,
    nanos: u64,
    finish_nanos: u64,
    /// Dense item index of each entry of the run being flushed — one
    /// `% n_items` per entry, shared across every table and column.
    items: Vec<u32>,
    /// Hash-assigned slot per entry for the current table.
    hashed: Vec<u32>,
    /// Occupancy pre-state per entry for the current table.
    was: Vec<bool>,
}

impl<'a> Walk<'a> {
    pub(crate) fn new(
        plan: &'a RollupPlan,
        ks: &'a KeySpace,
        filter: Option<&'a [u64]>,
        timed: bool,
    ) -> Walk<'a> {
        Walk {
            plan,
            ks,
            filter,
            tables: FxMap::default(),
            epoch: 0,
            rolled_out: Vec::new(),
            merges: 0,
            keys: 0..plan.epoch_stride,
            cell: u64::MAX,
            expansion: Vec::new(),
            timed,
            nanos: 0,
            finish_nanos: 0,
            items: Vec::new(),
            hashed: Vec::new(),
            was: Vec::new(),
        }
    }

    /// Hand every running table out as its region of each epoch before
    /// `until` that is still open: call with a cell's epoch *before*
    /// flushing the cell, so a region is finished after the last cell it
    /// contains and before the first it does not. A table no cell has
    /// reached since it was last finished hands the same columns out
    /// again.
    pub(crate) fn close_epochs(&mut self, until: u64) {
        if until <= self.epoch {
            return;
        }
        let started = self.timed.then(Instant::now);
        let epochs = std::mem::replace(&mut self.epoch, until)..until;
        for (&key, table) in &mut self.tables {
            for epoch in epochs.clone() {
                let region = epoch * self.plan.epoch_stride + key;
                if self.filter.is_some_and(|keep| keep.binary_search(&region).is_err()) {
                    continue;
                }
                let columns =
                    table.emitted.take().unwrap_or_else(|| Arc::new(finish_region(self.ks, table)));
                table.emitted = Some(Arc::clone(&columns));
                self.rolled_out.push((RegionId(self.ks.decode_region(region)), columns));
            }
        }
        if let Some(started) = started {
            self.finish_nanos += started.elapsed().as_nanos() as u64;
        }
    }

    /// Merge one cell's run of shard entries (`run`, a contiguous index
    /// range of `shard` sharing a cell key) into the tables of every key
    /// in the cell's `expansion`. Runs arrive in ascending cell-key order, so each
    /// `(table, item)` slot accumulates its contributions in the same
    /// order for any sharding — a run split at a shard boundary flushes
    /// as two segments, which preserves that per-slot order.
    fn flush(&mut self, shard: &StateTable, run: Range<usize>) {
        if self.expansion.is_empty() {
            // Filtered rollups prune most cells; don't pay the per-entry
            // item decode for a run no table will consume.
            return;
        }
        let n_items = self.ks.n_items;
        let Walk { tables, merges, items, hashed, was, expansion, .. } = self;
        items.clear();
        items.extend(shard.keys[run.clone()].iter().map(|&k| (k % n_items) as u32));
        let cell = shard.keys[run.start] / n_items;
        for &key in expansion.iter() {
            let table = tables.entry(key).or_insert_with(|| {
                let (slots, len) = if n_items <= DENSE_ITEMS_MAX {
                    (ItemSlots::Dense(vec![false; n_items as usize]), n_items as usize)
                } else {
                    (ItemSlots::Hashed(FxMap::default()), 0)
                };
                RegionTable {
                    slots,
                    cols: shard.cols.iter().map(|c| c.new_like(len)).collect(),
                    last_cell: cell,
                    emitted: None,
                    ids: Arc::default(),
                }
            });
            table.last_cell = cell;
            table.emitted = None;
            was.clear();
            let dsts: &[u32] = match &mut table.slots {
                ItemSlots::Dense(occupied) => {
                    for &it in items.iter() {
                        let w = std::mem::replace(&mut occupied[it as usize], true);
                        *merges += w as u64;
                        was.push(w);
                    }
                    items
                }
                ItemSlots::Hashed(index) => {
                    hashed.clear();
                    for &it in items.iter() {
                        let next = index.len() as u32;
                        let slot = *index.entry(it).or_insert(next);
                        *merges += (slot != next) as u64;
                        was.push(slot != next);
                        hashed.push(slot);
                    }
                    for col in &mut table.cols {
                        col.resize_default(index.len());
                    }
                    hashed
                }
            };
            for (dst, src) in table.cols.iter_mut().zip(&shard.cols) {
                dst.merge_from(src, run.clone(), dsts, was);
            }
        }
    }

    /// Walk one segment, folding each cell into the tables of its keys in
    /// `self.keys` that `keep(tables, cell, key)` accepts. Base cells with
    /// the same coordinates are adjacent in key order, so the expansion
    /// list is memoised per distinct cell and the cell's items are
    /// batched into one columnar run, hashing each table key once per run
    /// instead of once per (table, item).
    pub(crate) fn walk_segment(
        &mut self,
        shard: &StateTable,
        mut keep: impl FnMut(&mut FxMap<u64, RegionTable>, u64, u64) -> bool,
    ) {
        let (plan, ks) = (self.plan, self.ks);
        let mut i = 0;
        while i < shard.len() {
            let cell = shard.keys[i] / ks.n_items;
            let j = i + shard.keys[i..].partition_point(|&k| k / ks.n_items == cell);
            if cell != self.cell {
                self.cell = cell;
                self.close_epochs(cell / plan.epoch_stride);
                plan.table_keys(cell, ks, self.keys.start, self.keys.end, &mut self.expansion);
                let tables = &mut self.tables;
                self.expansion.retain(|&key| keep(tables, cell, key));
            }
            self.flush(shard, i..j);
            i = j;
        }
    }

    /// Close every remaining epoch and hand the walk's state over.
    pub(crate) fn finish(mut self) -> Rolled {
        self.close_epochs(self.plan.n_epochs);
        Rolled {
            tables: self.tables,
            finished: self.rolled_out,
            merges: self.merges,
            nanos: 0,
        }
    }
}

/// Phase 2's base-cell walk: roll base cells up into the running tables
/// of a [`RollupPlan`] and hand every region out as its last epoch
/// closes. Workers own disjoint table-key ranges; every worker walks all
/// base cells in key order, so each output cell accumulates its
/// contributions in a fixed order and no two workers ever touch the same
/// output cell.
///
/// The base cells arrive as ascending `segments`, pulled as the walk
/// goes: every worker walks each batch of [`SEGMENT_CELLS`] cells in one
/// [`fork_join`], then the batch is dropped. A failed pull is the error.
///
/// When `filter` is given (a **sorted** list of region keys), only those
/// regions are handed out, and only the tables that stand for one of
/// them are kept — the delta pass uses this to rebuild regions it cannot
/// extend in place. Because each kept table still accumulates every base
/// cell under it in full key order, a filtered region's value is
/// bit-identical to the same region in an unfiltered walk.
///
/// An enabled `rec` gets one `phase2_walk` and one `phase2_finish` span
/// per worker; the result's `nanos` times the batches alone, not the
/// pulls between them.
pub(crate) fn rollup_walk<S, E>(
    plan: &RollupPlan,
    ks: &KeySpace,
    segments: impl IntoIterator<Item = Result<S, E>>,
    threads: usize,
    filter: Option<&[u64]>,
    rec: &dyn Recorder,
) -> Result<Rolled, E>
where
    S: Borrow<StateTable> + Sync,
{
    let wanted_tables: Option<Vec<u64>> = filter.map(|keep| {
        let mut keys: Vec<u64> = keep.iter().map(|region| region % plan.epoch_stride).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    });
    let threads = threads
        .min(usize::try_from(plan.epoch_stride).unwrap_or(usize::MAX))
        .max(1);
    let timed = rec.enabled();
    let walks: Vec<Mutex<Walk>> = (0..threads)
        .map(|w| {
            let (lo, hi) = plan.worker_range(w, threads);
            Mutex::new(Walk { keys: lo..hi, ..Walk::new(plan, ks, filter, timed) })
        })
        .collect();
    let mut nanos = 0u64;
    // Every worker walks the batch, the last one closing every epoch
    // still open; then the batch is dropped.
    let mut walk_batch = |batch: &mut Vec<S>, last: bool| {
        let started = timed.then(Instant::now);
        fork_join(threads, |w| {
            let mut walk = walks[w].lock().unwrap_or_else(PoisonError::into_inner);
            let started = timed.then(Instant::now);
            for segment in batch.iter() {
                walk.walk_segment(segment.borrow(), |_, _, key| {
                    wanted_tables.as_ref().is_none_or(|keep| keep.binary_search(&key).is_ok())
                });
            }
            if last {
                walk.close_epochs(plan.n_epochs);
            }
            walk.nanos += started.map_or(0, |s| s.elapsed().as_nanos() as u64);
        });
        batch.clear();
        nanos += started.map_or(0, |s| s.elapsed().as_nanos() as u64);
    };
    let batch_cells = SEGMENT_CELLS;
    #[cfg(test)]
    let batch_cells = tests::batch_cells().unwrap_or(batch_cells);
    let (mut batch, mut cells) = (Vec::new(), 0);
    for segment in segments {
        let segment = segment?;
        cells += segment.borrow().len();
        batch.push(segment);
        if cells >= batch_cells {
            walk_batch(&mut batch, false);
            cells = 0;
        }
    }
    walk_batch(&mut batch, true);
    let mut rolled = Rolled { tables: FxMap::default(), finished: Vec::new(), merges: 0, nanos };
    for walk in walks {
        let walk = walk.into_inner().unwrap_or_else(PoisonError::into_inner);
        if timed {
            rec.record_span(names::CUBE_PASS_PHASE2_WALK, walk.nanos - walk.finish_nanos);
            rec.record_span(names::CUBE_PASS_PHASE2_FINISH, walk.finish_nanos);
        }
        let part = walk.finish();
        rolled.tables.extend(part.tables);
        rolled.finished.extend(part.finished);
        rolled.merges += part.merges;
    }
    Ok(rolled)
}

/// Run the CUBE pass over fact data: one resident run of every chunk, no
/// byte budget, so nothing spills. It reports into `rec`: phase counters
/// under the canonical `cube_pass/*` names plus one span per phase
/// (`phase1_scan`, `phase1_merge`, `phase2_rollup`). With a disabled
/// recorder (e.g. [`NoopRecorder`]) the kernel pays one branch per phase
/// and nothing per row. The result is bit-identical for every
/// [`Parallelism`] and either recorder.
///
/// Malformed input (a short column, a coordinate out of range, a
/// function the measure's kind does not compute) is
/// [`CubeError::InvalidInput`]; a space × item domain past the dense key
/// encoding is [`CubeError::KeySpaceTooLarge`].
pub fn cube_pass(
    space: &RegionSpace,
    input: &CubeInput,
    par: Parallelism,
    rec: &dyn Recorder,
) -> Result<CubeResult, CubeError> {
    cube_pass_runs(space, std::slice::from_ref(input), par, UNLIMITED_BUDGET, usize::MAX, rec)
}

/// [`cube_pass`] under an optional recorder, panicking on its error.
#[doc(hidden)]
pub fn cube_pass_with(
    space: &RegionSpace,
    input: &CubeInput,
    par: Parallelism,
    rec: Option<&dyn Recorder>,
) -> CubeResult {
    cube_pass(space, input, par, rec.unwrap_or(&NoopRecorder)).unwrap_or_else(|e| panic!("{e}"))
}

/// [`cube_pass`], panicking on its error.
#[doc(hidden)]
pub fn cube_pass_traced(
    space: &RegionSpace,
    input: &CubeInput,
    par: Parallelism,
    rec: &dyn Recorder,
) -> CubeResult {
    cube_pass(space, input, par, rec).unwrap_or_else(|e| panic!("{e}"))
}

/// Aggregate the measures per item over the fact rows whose finest-cell
/// coordinates pass `row_filter`, with no cube expansion, using default
/// [`Parallelism`]. Malformed input is [`CubeError::InvalidInput`].
///
/// This evaluates the same feature queries over an *arbitrary* union of
/// cells — the shape the random-sampling baseline of Figure 7(a) buys,
/// which "may not correspond to any OLAP-style region" — and returns it
/// in a region's shape: every item some kept row names, ascending by id,
/// and one lane per measure.
pub fn aggregate_filtered(
    input: &CubeInput,
    arity: usize,
    row_filter: impl Fn(&[u32]) -> bool + Sync,
) -> Result<RegionColumns, CubeError> {
    fold_filtered(input, arity, row_filter, Parallelism::default(), &NoopRecorder)
}

/// [`aggregate_filtered`] with an explicit thread budget, reporting into
/// a [`Recorder`] (same `cube_pass/*` counter names; the scan+merge is
/// timed under the `cube_pass/phase1_scan` and `cube_pass/phase1_merge`
/// spans). Runs on the same chunked phase-1 kernel as [`cube_pass`]
/// (keyed by dense item index alone), so it inherits the bit-identical
/// determinism guarantee; the merged segments arrive in dense-item order,
/// which is id order, and are finished lane by lane as a region is.
pub(crate) fn fold_filtered(
    input: &CubeInput,
    arity: usize,
    row_filter: impl Fn(&[u32]) -> bool + Sync,
    par: Parallelism,
    rec: &dyn Recorder,
) -> Result<RegionColumns, CubeError> {
    let n = input.item_ids.len();
    input.check_shape(arity).map_err(CubeError::InvalidInput)?;
    let (items, item_index) = number_items(&input.item_ids).ok_or(CubeError::KeySpaceTooLarge)?;

    let threads = par.threads_for(n.div_ceil(ROW_CHUNK));
    let key_of = |row: usize, coords: &[u32]| -> Option<u64> {
        row_filter(coords).then(|| item_index[&input.item_ids[row]] as u64)
    };
    let tables = {
        let _t = span!(rec, "cube_pass/phase1_scan");
        fold_chunks(input, &[], arity, 0..n.div_ceil(ROW_CHUNK), threads, &key_of)
    };
    let phase1_merge = span!(rec, "cube_pass/phase1_merge");
    let mut merge = MergeRuns::of_chunks(tables)?;
    let shards: Vec<StateTable> = (&mut merge).collect::<io::Result<_>>()?;
    drop(phase1_merge);
    let base_cells: u64 = shards.iter().map(|s| s.len() as u64).sum();
    rec.add(names::CUBE_PASS_ROWS_SCANNED, n as u64);
    rec.add(names::CUBE_PASS_BASE_CELLS, base_cells);
    rec.add(names::CUBE_PASS_CELL_MERGES, merge.merges);
    let ids = shards.iter().flat_map(|t| &t.keys).map(|&k| items[k as usize]).collect();
    let lane = |m: usize| {
        shards.iter().flat_map(|t| (0..t.len()).map(move |i| t.cols[m].finish_at(i))).collect()
    };
    Ok(RegionColumns::from_lanes(ids, (0..input.measures.len()).map(lane).collect()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::delta::StreamingCube;
    use crate::dimension::Dimension;
    use crate::testutil::{
        assert_bit_identical, cube_pass_reference, fold_filtered_by_rows, gen_distinct_input,
        gen_functional_input, gen_input, measures_of_every_kind, space,
    };
    use bellwether_prop::check;
    use std::cell::Cell;

    type Pairs = Vec<(i64, f64)>;

    thread_local! {
        /// Destination pairs [`union_into`] compared, moved or compacted
        /// on this thread (an upper bound): its work, in a unit no clock
        /// can move.
        static PAIRS_TOUCHED: Cell<u64> = const { Cell::new(0) };
        /// Whether this thread's passes merge distinct lanes with
        /// [`append_oracle`]. Worker threads never see it: run an oracle
        /// pass at one thread.
        static APPEND_ORACLE: Cell<bool> = const { Cell::new(false) };
        /// Whether the rollup plans this thread builds take one epoch
        /// whatever the space: the flat walk that folds every cell into
        /// every region containing it, kept as the oracle.
        static ONE_EPOCH: Cell<bool> = const { Cell::new(false) };
        /// Whether the regions this thread finishes go through
        /// [`finish_region_by_rows`].
        static ROW_FINISH: Cell<bool> = const { Cell::new(false) };
        /// Whether this thread's phase 1 runs as it did before slots
        /// were numbered in key order: chunks fold through
        /// [`fold_chunk_by_map`], every run is merged by copying, and
        /// the final merge copies every frame. Worker threads never see
        /// it: run an oracle pass at one thread.
        static PHASE1_ORACLE: Cell<bool> = const { Cell::new(false) };
        /// Base cells phase 1b and the final run merge copied on this
        /// thread.
        static CELLS_COPIED: Cell<u64> = const { Cell::new(0) };
        /// Whether this thread's passes keep every distinct-FK lane a
        /// pair list: the path bitset lanes are held to.
        static PAIR_LISTS: Cell<bool> = const { Cell::new(false) };
        /// The cells a rollup walk on this thread gathers per batch, when
        /// not [`SEGMENT_CELLS`]: small inputs walk many batches.
        static BATCH_CELLS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    pub(crate) fn batch_cells() -> Option<usize> {
        BATCH_CELLS.with(Cell::get)
    }

    /// Run `f` with this thread's rollup walks forking every `cells`
    /// base cells.
    pub(crate) fn with_batch_cells<T>(cells: usize, f: impl FnOnce() -> T) -> T {
        BATCH_CELLS.with(|b| b.set(Some(cells)));
        let out = f();
        BATCH_CELLS.with(|b| b.set(None));
        out
    }

    pub(crate) fn pair_lists_forced() -> bool {
        PAIR_LISTS.with(Cell::get)
    }

    /// Run `f` with every distinct-FK lane of this thread's passes a pair
    /// list.
    pub(crate) fn with_pair_lists<T>(f: impl FnOnce() -> T) -> T {
        PAIR_LISTS.with(|o| o.set(true));
        let out = f();
        PAIR_LISTS.with(|o| o.set(false));
        out
    }

    pub(crate) fn phase1_oracle() -> bool {
        PHASE1_ORACLE.with(Cell::get)
    }

    /// Run `f` with this thread's phase 1 as its oracle.
    pub(crate) fn with_phase1_oracle<T>(f: impl FnOnce() -> T) -> T {
        PHASE1_ORACLE.with(|o| o.set(true));
        let out = f();
        PHASE1_ORACLE.with(|o| o.set(false));
        out
    }

    pub(crate) fn copied(cells: usize) {
        CELLS_COPIED.with(|c| c.set(c.get() + cells as u64));
    }

    pub(crate) fn cells_copied() -> u64 {
        CELLS_COPIED.with(Cell::get)
    }

    /// The fold that numbered slots by first sight through a chunk-local
    /// hash map and then sorted the table by key, kept as the oracle of
    /// [`fold_chunk`].
    pub(crate) fn fold_chunk_by_map<K>(
        input: &CubeInput,
        lanes: &[Option<IdLane>],
        arity: usize,
        rows: Range<usize>,
        key_of: &K,
    ) -> StateTable
    where
        K: Fn(usize, &[u32]) -> Option<u64>,
    {
        let mut index: FxMap<u64, u32> = FxMap::default();
        let mut keys: Vec<u64> = Vec::new();
        let mut slots: Vec<u32> = Vec::with_capacity(rows.len());
        for row in rows.clone() {
            let coords = &input.coords[row * arity..(row + 1) * arity];
            let slot = match key_of(row, coords) {
                Some(key) => *index.entry(key).or_insert_with(|| {
                    keys.push(key);
                    (keys.len() - 1) as u32
                }),
                None => NO_SLOT,
            };
            slots.push(slot);
        }
        let cols = (0..)
            .zip(&input.measures)
            .map(|(m, measure)| {
                let lane = lanes.get(m).copied().flatten();
                let mut col = StateCol::new(measure, lane, keys.len());
                col.update_rows(measure, lane, rows.clone(), &slots);
                col
            })
            .collect();
        let mut table = StateTable { keys, cols };
        for col in &mut table.cols {
            col.dedup_distinct();
        }
        table.sort_by_key();
        table
    }

    pub(super) fn row_finish_oracle() -> bool {
        ROW_FINISH.with(Cell::get)
    }

    /// The finish the lane finish replaced, kept as its oracle: one
    /// feature vector per item, in whatever order the slots come.
    pub(super) fn finish_region_by_rows(
        ks: &KeySpace,
        table: &RegionTable,
    ) -> HashMap<i64, Vec<Option<f64>>> {
        let row = |slot: usize| table.cols.iter().map(|c| c.finish_at(slot)).collect();
        match &table.slots {
            ItemSlots::Dense(occupied) => occupied
                .iter()
                .enumerate()
                .filter(|&(_, &occ)| occ)
                .map(|(i, _)| (ks.items[i], row(i)))
                .collect(),
            ItemSlots::Hashed(index) => index
                .iter()
                .map(|(&item, &slot)| (ks.items[item as usize], row(slot as usize)))
                .collect(),
        }
    }

    pub(super) fn one_epoch_oracle() -> bool {
        ONE_EPOCH.with(Cell::get)
    }

    /// Run `f` with every rollup it plans on this thread forced to one
    /// epoch.
    pub(crate) fn with_one_epoch<T>(f: impl FnOnce() -> T) -> T {
        ONE_EPOCH.with(|o| o.set(true));
        let out = f();
        ONE_EPOCH.with(|o| o.set(false));
        out
    }

    /// The merge arm this change replaced, kept as the oracle: append,
    /// and leave the set semantics to the next [`dedup_pairs`].
    fn append_oracle(dst: &mut Pairs, src: &[(i64, f64)]) {
        dst.extend_from_slice(src);
    }

    /// What [`StateCol::merge_from`] merges distinct lanes with.
    pub(super) fn distinct_merge_arm() -> fn(&mut Pairs, &[(i64, f64)]) {
        if APPEND_ORACLE.with(Cell::get) {
            append_oracle
        } else {
            union_into
        }
    }

    pub(super) fn touched(pairs: usize) {
        PAIRS_TOUCHED.with(|c| c.set(c.get() + pairs as u64));
    }

    fn pairs_touched() -> u64 {
        PAIRS_TOUCHED.with(Cell::get)
    }

    /// Four fact rows:
    ///   (item 1, t1, WI, profit 10, ad 7→size 3.0)
    ///   (item 1, t2, WI, profit 20, ad 7→size 3.0)   -- same ad twice
    ///   (item 1, t1, MD, profit  5, ad 8→size 9.0)
    ///   (item 2, t2, MD, profit  1, no ad)
    fn input() -> CubeInput {
        CubeInput {
            item_ids: vec![1, 1, 1, 2],
            coords: vec![0, 2, 1, 2, 0, 3, 1, 3],
            measures: vec![
                Measure::Numeric {
                    name: "profit".into(),
                    func: AggFunc::Sum,
                    values: [Some(10.0), Some(20.0), Some(5.0), Some(1.0)].into_iter().collect(),
                },
                Measure::Numeric {
                    name: "orders".into(),
                    func: AggFunc::Count,
                    values: [Some(1.0), Some(1.0), Some(1.0), Some(1.0)].into_iter().collect(),
                },
                Measure::DistinctKeyed {
                    name: "ad_size_total".into(),
                    func: AggFunc::Sum,
                    keys: [Some(7), Some(7), Some(8), None].into_iter().collect(),
                    values: vec![3.0, 3.0, 9.0, 0.0],
                },
            ],
        }
    }

    /// The resident pass at default parallelism, unrecorded.
    fn pass(space: &RegionSpace, input: &CubeInput) -> CubeResult {
        cube_pass(space, input, Parallelism::default(), &NoopRecorder).unwrap()
    }

    fn get(result: &CubeResult, r: Vec<u32>, item: i64) -> Vec<Option<f64>> {
        result
            .features(&RegionId(r), item)
            .unwrap_or_else(|| panic!("missing cell"))
            .iter()
            .collect()
    }

    #[test]
    fn sums_roll_up_over_time_and_space() {
        let r = pass(&space(), &input());
        // [1-1, WI] item 1: only the first row
        assert_eq!(get(&r, vec![0, 2], 1)[0], Some(10.0));
        // [1-2, WI] item 1: rows 1+2
        assert_eq!(get(&r, vec![1, 2], 1)[0], Some(30.0));
        // [1-2, US] item 1: all three rows
        assert_eq!(get(&r, vec![1, 1], 1)[0], Some(35.0));
        // [1-2, All] item 2
        assert_eq!(get(&r, vec![1, 0], 2)[0], Some(1.0));
        // counts
        assert_eq!(get(&r, vec![1, 1], 1)[1], Some(3.0));
    }

    #[test]
    fn distinct_fk_deduplicates_across_cells() {
        let r = pass(&space(), &input());
        // [1-2, WI] item 1: ad 7 appears twice but counts once → 3.0
        assert_eq!(get(&r, vec![1, 2], 1)[2], Some(3.0));
        // [1-2, US] item 1: ads {7, 8} → 3 + 9 = 12
        assert_eq!(get(&r, vec![1, 1], 1)[2], Some(12.0));
        // item 2 has no ads → NULL
        assert_eq!(get(&r, vec![1, 0], 2)[2], None);
    }

    #[test]
    fn coverage_counts() {
        let r = pass(&space(), &input());
        assert_eq!(r.coverage_count(&RegionId(vec![1, 0])), 2); // both items
        assert_eq!(r.coverage_count(&RegionId(vec![0, 2])), 1); // only item 1
    }

    #[test]
    fn coverage_t1_excludes_late_items() {
        let r = pass(&space(), &input());
        // [1-1, All]: item 2's only row is at t2
        assert_eq!(r.coverage_count(&RegionId(vec![0, 0])), 1);
    }

    #[test]
    fn absent_cells_are_none() {
        let r = pass(&space(), &input());
        assert!(r.features(&RegionId(vec![0, 3]), 2).is_none()); // item 2 not in [1-1, MD]
        assert_eq!(r.coverage_count(&RegionId(vec![99, 99])), 0);
    }

    #[test]
    fn min_max_avg_states() {
        let s = space();
        let inp = CubeInput {
            item_ids: vec![1, 1, 1],
            coords: vec![0, 2, 1, 2, 1, 3],
            measures: vec![
                Measure::Numeric {
                    name: "mn".into(),
                    func: AggFunc::Min,
                    values: [Some(5.0), Some(2.0), None].into_iter().collect(),
                },
                Measure::Numeric {
                    name: "mx".into(),
                    func: AggFunc::Max,
                    values: [Some(5.0), Some(2.0), None].into_iter().collect(),
                },
                Measure::Numeric {
                    name: "av".into(),
                    func: AggFunc::Avg,
                    values: [Some(5.0), Some(2.0), None].into_iter().collect(),
                },
            ],
        };
        let r = pass(&s, &inp);
        let v = get(&r, vec![1, 0], 1); // [1-2, All]
        assert_eq!(v[0], Some(2.0));
        assert_eq!(v[1], Some(5.0));
        assert_eq!(v[2], Some(3.5));
        // the all-NULL cell [1-2, MD] row only: min/max/avg = NULL
        let v2 = get(&r, vec![1, 3], 1);
        assert_eq!(v2[0], None);
        assert_eq!(v2[2], None);
    }

    #[test]
    fn count_distinct_counts_keys() {
        let s = space();
        let inp = CubeInput {
            item_ids: vec![1, 1],
            coords: vec![0, 2, 0, 3],
            measures: vec![Measure::DistinctKeyed {
                name: "n_ads".into(),
                func: AggFunc::CountDistinct,
                keys: [Some(4), Some(4)].into_iter().collect(),
                values: vec![0.0, 0.0],
            }],
        };
        let r = pass(&s, &inp);
        assert_eq!(get(&r, vec![0, 1], 1)[0], Some(1.0)); // US: same ad in both states
    }

    #[test]
    fn filtered_aggregation_matches_cube_cell() {
        let s = space();
        let inp = input();
        // Filter = the region [1-2, US]: time ≤ 1 (always true here) and
        // location under US (nodes 2 or 3).
        let under_us = |c: &[u32]| c[0] <= 1 && (c[1] == 2 || c[1] == 3);
        let filtered = aggregate_filtered(&inp, 2, under_us).unwrap();
        let cube = pass(&s, &inp);
        assert_eq!(filtered, *cube.regions[&RegionId(vec![1, 1])]);
    }

    #[test]
    fn filtered_aggregation_empty_filter() {
        let filtered = aggregate_filtered(&input(), 2, |_| false).unwrap();
        assert!(filtered.is_empty());
    }

    #[test]
    fn shape_mismatch_is_invalid_input() {
        let s = space();
        let inp = CubeInput {
            item_ids: vec![1],
            coords: vec![0], // should be 2 coords
            measures: vec![],
        };
        let err = cube_pass(&s, &inp, Parallelism::default(), &NoopRecorder).unwrap_err();
        let says = |why: &str| why.contains("length mismatch");
        assert!(matches!(&err, CubeError::InvalidInput(why) if says(why)), "{err}");
    }

    #[test]
    fn thread_count_never_changes_bits() {
        let s = space();
        let inp = input();
        let base = cube_pass(&s, &inp, Parallelism::sequential(), &NoopRecorder).unwrap();
        for t in 2..=8 {
            let par = cube_pass(&s, &inp, Parallelism::fixed(t), &NoopRecorder).unwrap();
            assert_bit_identical(&base, &par, &format!("threads={t}"));
        }
    }

    #[test]
    fn matches_reference_kernel() {
        let s = space();
        let inp = input(); // integer-valued, so the reference is exact
        let fast = pass(&s, &inp);
        let reference = cube_pass_reference(&s, &inp);
        assert_bit_identical(&fast, &reference, "fast vs reference");
    }

    #[test]
    fn reference_kernel_is_order_deterministic() {
        // Tenths over all 18 base cells of every item: no two orders of
        // adding them agree on every region's low bits.
        let s = space();
        let cells: Vec<(u32, u32)> =
            (0..6).flat_map(|t| [2u32, 3, 5].map(|leaf| (t, leaf))).collect();
        let rows: Vec<(i64, (u32, u32))> =
            (0..12).flat_map(|item| cells.iter().map(move |&c| (item, c))).collect();
        let inp = CubeInput {
            item_ids: rows.iter().map(|&(item, _)| item).collect(),
            coords: rows.iter().flat_map(|&(_, (t, leaf))| [t, leaf]).collect(),
            measures: vec![
                Measure::Numeric {
                    name: "s".into(),
                    func: AggFunc::Sum,
                    values: (1..=rows.len()).map(|k| Some(k as f64 * 0.1)).collect(),
                },
                // Every cell gives key 7 a value of its own: which cell
                // merged last shows.
                Measure::DistinctKeyed {
                    name: "d".into(),
                    func: AggFunc::Sum,
                    keys: vec![Some(7); rows.len()].into_iter().collect(),
                    values: (1..=rows.len()).map(|k| k as f64 * 0.3).collect(),
                },
            ],
        };
        let first = cube_pass_reference(&s, &inp);
        for call in 1..4 {
            assert_bit_identical(&cube_pass_reference(&s, &inp), &first, &format!("call {call}"));
        }
        // And the order is the kernel's own: one row a cell, so the two
        // differ in nothing but how they walk.
        assert_bit_identical(&pass(&s, &inp), &first, "kernel vs reference");
    }

    #[test]
    fn lane_finish_matches_the_row_finish_oracle() {
        let with_row_finish = |f: &dyn Fn() -> CubeResult| {
            ROW_FINISH.with(|o| o.set(true));
            let out = f();
            ROW_FINISH.with(|o| o.set(false));
            out
        };
        let check = |what: &str, pass: &dyn Fn() -> CubeResult| {
            let (lanes, rows) = (pass(), with_row_finish(pass));
            assert_bit_identical(&lanes, &rows, what);
            assert_eq!(lanes.regions, rows.regions, "{what}: lanes, NULL filler included");
            for cols in lanes.regions.values() {
                assert!(cols.item_ids().windows(2).all(|w| w[0] < w[1]), "{what}: {cols:?}");
            }
        };
        let s = space();
        let par = Parallelism::sequential();
        // Dense item slots: ids scrambled against their rank.
        let items: Vec<i64> = (0..40).map(|i| (i * 37) % 41 - 20).collect();
        let inp = gen_input(3, 5000, &items);
        check("dense", &|| cube_pass(&s, &inp, par, &NoopRecorder).unwrap());
        // Hashed slots: a universe past 2^16 items, slots assigned in
        // arrival order, extended by an append.
        let universe: Vec<i64> = (-3..(1 << 16)).collect();
        let sparse: Vec<i64> = (0..40).map(|i| (i * 7919) % 60_000).collect();
        let (base, delta) = (gen_input(4, 600, &sparse[..25]), gen_input(5, 600, &sparse));
        check("hashed", &|| {
            let mut stream = StreamingCube::new(&s, &base, &universe, par).unwrap();
            stream.append(&delta).unwrap();
            stream.result().clone()
        });
    }

    #[test]
    fn sparse_key_space_matches_reference() {
        // Two interval dimensions whose combined key space is past 2^20
        // keys, four cells of it occupied: phase 1b's state follows the
        // cells, not the key space. Coordinates sit near the top of each
        // interval so every cell expands into only a few regions.
        let max_t = 1200u32; // 1200 × 1200 × 2 items > 2^20 keys
        let s = RegionSpace::new(vec![
            Dimension::Interval {
                name: "T1".into(),
                max_t,
            },
            Dimension::Interval {
                name: "T2".into(),
                max_t,
            },
        ]);
        let (a, b) = (max_t - 2, max_t - 1);
        let inp = CubeInput {
            item_ids: vec![1, 2, 1, 1],
            coords: vec![a, b, a, a, b, b, a, b],
            measures: vec![
                Measure::Numeric {
                    name: "s".into(),
                    func: AggFunc::Sum,
                    // Exactly representable sums in any order, so the
                    // reference comparison is bitwise.
                    values: [Some(0.5), Some(2.0), Some(4.0), Some(0.25)].into_iter().collect(),
                },
                Measure::Numeric {
                    name: "m".into(),
                    func: AggFunc::Min,
                    values: [Some(3.0), None, Some(1.0), Some(5.0)].into_iter().collect(),
                },
            ],
        };
        let reference = cube_pass_reference(&s, &inp);
        for t in 1..=4 {
            let fast = cube_pass(&s, &inp, Parallelism::fixed(t), &NoopRecorder).unwrap();
            assert_bit_identical(&fast, &reference, &format!("threads={t}"));
        }
    }

    #[test]
    fn huge_item_domain_matches_reference() {
        // More distinct items than DENSE_ITEMS_MAX forces the
        // hash-slotted rollup tables. Every state kind, two or more rows
        // per (cell, item); all values are integers and each FK value is
        // a function of its key, so every aggregate is exact and the
        // order-free reference is a bitwise oracle.
        let n = (DENSE_ITEMS_MAX + 2) as usize;
        let s = RegionSpace::new(vec![Dimension::Interval {
            name: "Time".into(),
            max_t: 2,
        }]);
        // Rows sweep the item domain once per pass, at time 0, 1, 0, 1.
        let rows = |rows: Range<usize>| {
            let fks: Vec<Option<i64>> =
                rows.clone().map(|r| (r % 5 != 0).then_some((r % 9) as i64)).collect();
            CubeInput {
                item_ids: rows.clone().map(|r| (r % n) as i64).collect(),
                coords: rows.clone().map(|r| (r / n % 2) as u32).collect(),
                measures: measures_of_every_kind(
                    rows.clone().map(|r| (r % 11 != 0).then_some((r % 97) as f64 - 40.0)).collect(),
                    rows.clone().map(|r| (r % 7 != 0).then_some((r % 89) as f64)).collect(),
                    rows.clone().map(|r| Some((r % 13) as f64)).collect(),
                    fks.clone(),
                    fks.iter().map(|k| k.map_or(0.0, |k| (k * 3) as f64)).collect(),
                ),
            }
        };
        let base = rows(0..3 * n);
        let delta = rows(3 * n..4 * n);
        let mut full = base.clone();
        full.extend(&delta);
        let reference = cube_pass_reference(&s, &full);
        let universe: Vec<i64> = (0..n as i64).collect();
        for t in [1usize, 3] {
            let par = Parallelism::fixed(t);
            let fast = cube_pass(&s, &full, par, &NoopRecorder).unwrap();
            assert_bit_identical(&fast, &reference, &format!("cold, threads={t}"));
            // The delta rows sit at time 1, so only [1-2] is dirty and
            // the *filtered* rollup crosses the hashed branch too.
            let mut stream = StreamingCube::new(&s, &base, &universe, par).unwrap();
            let update = stream.append(&delta).unwrap();
            assert_eq!(update.dirty_regions, vec![RegionId(vec![1])]);
            assert_bit_identical(stream.result(), &reference, &format!("stream, threads={t}"));
        }
    }

    #[test]
    fn empty_input_yields_empty_result() {
        let s = space();
        let inp = CubeInput {
            item_ids: vec![],
            coords: vec![],
            measures: vec![Measure::Numeric {
                name: "m".into(),
                func: AggFunc::Sum,
                values: ColumnData::default(),
            }],
        };
        let r = pass(&s, &inp);
        assert_eq!(r.measure_names, vec!["m".to_string()]);
        assert!(r.regions.is_empty());
    }

    #[test]
    fn stats_counters_are_recorded() {
        let s = space();
        let inp = input();
        let stats = bellwether_obs::Registry::new();
        let r = cube_pass(&s, &inp, Parallelism::fixed(2), &stats).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.rows_scanned(), 4);
        // 4 rows in 4 distinct (cell, item) combinations → no phase-1
        // merges, 4 base cells.
        assert_eq!(snap.base_cells(), 4);
        assert_eq!(snap.regions_emitted(), r.regions.len() as u64);
        assert!(snap.cell_merges() > 0); // rollup merges cells
    }

    #[test]
    fn traced_records_spans_and_matches_cube_stats() {
        let s = space();
        let inp = input();
        let reg = bellwether_obs::Registry::shared();
        let r = cube_pass(&s, &inp, Parallelism::fixed(2), reg.as_ref()).unwrap();
        let stats = bellwether_obs::Registry::new();
        let legacy = cube_pass(&s, &inp, Parallelism::fixed(2), &stats).unwrap();
        assert_bit_identical(&r, &legacy, "traced vs stats");
        let snap = reg.snapshot();
        let legacy_snap = stats.snapshot();
        assert_eq!(snap.rows_scanned(), legacy_snap.rows_scanned());
        assert_eq!(snap.base_cells(), legacy_snap.base_cells());
        assert_eq!(snap.cell_merges(), legacy_snap.cell_merges());
        assert_eq!(snap.regions_emitted(), legacy_snap.regions_emitted());
        for phase in ["phase1_scan", "phase1_merge", "phase2_rollup"] {
            let span = snap
                .span(&format!("cube_pass/{phase}"))
                .unwrap_or_else(|| panic!("missing span {phase}"));
            assert_eq!(span.calls, 1);
        }
        // One of each per rollup worker, inside `phase2_rollup`.
        let rollup = snap.span(names::CUBE_PASS_PHASE2_ROLLUP).unwrap().total_nanos;
        for part in [names::CUBE_PASS_PHASE2_WALK, names::CUBE_PASS_PHASE2_FINISH] {
            let span = snap.span(part).unwrap_or_else(|| panic!("missing span {part}"));
            assert!((1..=2).contains(&span.calls), "{part}: {} calls", span.calls);
            assert!(span.total_nanos <= rollup * span.calls, "{part}");
        }
        // One resident run streams its own shards: nothing to merge.
        assert!(snap.span(names::CUBE_PASS_EXTERNAL_MERGE).is_none());
    }

    #[test]
    fn filtered_aggregation_stats_and_threads() {
        let inp = input();
        let stats = bellwether_obs::Registry::new();
        let seq = fold_filtered(
            &inp,
            2,
            |c| c[1] == 2 || c[1] == 3,
            Parallelism::sequential(),
            &NoopRecorder,
        )
        .unwrap();
        let par = fold_filtered(
            &inp,
            2,
            |c| c[1] == 2 || c[1] == 3,
            Parallelism::fixed(4),
            &stats,
        )
        .unwrap();
        assert_eq!(seq, par);
        let snap = stats.snapshot();
        assert_eq!(snap.rows_scanned(), 4);
        assert_eq!(snap.base_cells(), 2); // two items survive the filter
    }

    /// A region's columns as rows of optional aggregate bits, ascending by
    /// id (`-0.0`, NaN payloads and all).
    fn bit_rows(cols: &RegionColumns, measures: usize) -> Vec<(i64, Vec<Option<u64>>)> {
        let bits = |i: usize, m: usize| cols.lane(m).get(i).map(f64::to_bits);
        let row = |(i, &id)| (id, (0..measures).map(|m| bits(i, m)).collect());
        cols.item_ids().iter().enumerate().map(row).collect()
    }

    /// The lanes against the row-map fold they replaced, under filters that
    /// keep every row, no row and about half of them, at one and four
    /// threads, over inputs spanning several row chunks with every state
    /// kind and NULLs.
    #[test]
    fn filtered_columns_match_the_row_map_fold_bit_for_bit() {
        let items: Vec<i64> = (0..50).map(|i| 37 * i - 400).collect();
        let filters: [fn(&[u32]) -> bool; 3] = [|_| true, |_| false, |c| (c[0] + c[1]) % 2 == 0];
        let bits = |row: Vec<Option<f64>>| row.iter().map(|v| v.map(f64::to_bits)).collect();
        for (seed, rows) in [(1, 0), (2, 1), (3, 3 * ROW_CHUNK + 17)] {
            for input in [gen_input(seed, rows, &items), gen_functional_input(seed, rows, &items)] {
                for (what, keep) in ["every row", "no row", "half"].into_iter().zip(filters) {
                    for threads in [1, 4] {
                        let oracle = fold_filtered_by_rows(&input, 2, keep, threads);
                        let mut want: Vec<(i64, Vec<Option<u64>>)> =
                            oracle.into_iter().map(|(id, row)| (id, bits(row))).collect();
                        want.sort_unstable_by_key(|&(id, _)| id);
                        let par = Parallelism::fixed(threads);
                        let got = fold_filtered(&input, 2, keep, par, &NoopRecorder).unwrap();
                        let got = bit_rows(&got, input.measures.len());
                        assert_eq!(got, want, "{rows} rows, {what}, {threads} threads");
                    }
                }
            }
        }
    }

    /// `pairs` after the closing dedup, values as bits (`-0.0`, NaN
    /// payloads and all).
    fn closed_bits(pairs: &Pairs) -> Vec<(i64, u64)> {
        let mut p = pairs.clone();
        dedup_pairs(&mut p);
        p.iter().map(|&(k, v)| (k, v.to_bits())).collect()
    }

    /// `n` pairs with keys `start, start + step, …` and values no other
    /// call with a different `tag` produces.
    fn run_of(start: i64, step: i64, n: usize, tag: f64) -> Pairs {
        (0..n as i64).map(|i| (start + i * step, tag + i as f64 / 3.0)).collect()
    }

    #[test]
    fn union_into_matches_the_append_oracle_bit_for_bit() {
        let special = [-0.0, 0.0, f64::NAN, f64::from_bits(0x7ff8_0000_0000_beef), f64::INFINITY];
        // Key domains under, at, just over and far over the small
        // bound, and all of `i64`.
        let domains = [6u64, 32, 33, 40, 500, u64::MAX];
        check("union_into matches the append oracle", 600, |rng| {
            let domain = *rng.choice(&domains);
            let (mut got, mut want): (Pairs, Pairs) = (Vec::new(), Vec::new());
            for _ in 0..rng.below(60) {
                let max_len = *rng.choice(&[1usize, 2, 8, 50]);
                let mut src = rng.vec_of(0, max_len, |rng| {
                    let key = match rng.below(16) {
                        0 => i64::MIN,
                        1 => i64::MAX,
                        _ => (rng.next_u64() % domain) as i64,
                    };
                    // A key meets a different value on every arrival,
                    // so last-wins is observable.
                    let value = match rng.below(3) {
                        0 => *rng.choice(&special),
                        _ => f64::from_bits(rng.next_u64()),
                    };
                    (key, value)
                });
                dedup_pairs(&mut src);
                match rng.below(12) {
                    // The first contribution to a reused slot.
                    0 => {
                        got.clear();
                        want.clear();
                    }
                    // A dedup boundary between two rounds of merges.
                    1 | 2 => dedup_pairs(&mut got),
                    _ => {}
                }
                union_into(&mut got, &src);
                append_oracle(&mut want, &src);
                assert_eq!(closed_bits(&got), closed_bits(&want));
                if got.len() <= SMALL_PAIRS_MAX {
                    assert!(strictly_ascending(&got), "a short list is a set: {got:?}");
                }
            }
        });
    }

    #[test]
    fn union_into_straddles_the_small_bound() {
        // Totals of 31, 32 and 33 pairs at every split, with the source
        // disjoint from, interleaved with and equal to part of the
        // destination.
        for total in [31usize, 32, 33] {
            for n_src in 0..=total {
                let n_dst = total - n_src;
                for (start, step) in [(1000, 1), (1, 2), (0, 2)] {
                    let mut got = run_of(0, 2, n_dst, 1.0);
                    let mut want = got.clone();
                    let src = run_of(start, step, n_src, 2.0);
                    union_into(&mut got, &src);
                    append_oracle(&mut want, &src);
                    assert_eq!(closed_bits(&got), closed_bits(&want), "{n_dst} + {n_src}");
                    if total <= SMALL_PAIRS_MAX {
                        assert!(strictly_ascending(&got), "{n_dst} + {n_src}: {got:?}");
                    }
                }
            }
        }

        // Into the log and back out through a dedup boundary: the next
        // arrival must find a sorted set again.
        let mut got = run_of(0, 1, 20, 1.0);
        let mut want = got.clone();
        for (round, src) in [run_of(5, 1, 15, 2.0), run_of(0, 3, 8, 3.0)].iter().enumerate() {
            union_into(&mut got, src);
            append_oracle(&mut want, src);
            if round == 0 {
                assert_eq!(got.len(), 35, "an append log past the bound");
                dedup_pairs(&mut got);
            }
        }
        assert_eq!(got.len(), 21);
        assert!(strictly_ascending(&got));
        assert_eq!(closed_bits(&got), closed_bits(&want));

        // Back out through the log's own compaction: a full allocation
        // compacts to 20 keys, and 20 + 10 is a sorted upsert again.
        let mut got: Pairs = Vec::with_capacity(40);
        got.extend(run_of(0, 1, 20, 1.0));
        let mut want = got.clone();
        for src in [run_of(3, 1, 15, 2.0), run_of(10, 1, 10, 3.0)] {
            union_into(&mut got, &src);
            append_oracle(&mut want, &src);
        }
        assert_eq!((got.len(), got.capacity()), (20, 40), "compacted, not grown");
        assert!(strictly_ascending(&got));
        assert_eq!(closed_bits(&got), closed_bits(&want));

        // Extreme keys and an empty source.
        let mut got = vec![(i64::MIN, 1.0), (0, 2.0), (i64::MAX, 3.0)];
        union_into(&mut got, &[]);
        union_into(&mut got, &[(i64::MIN, -0.0), (i64::MAX, f64::NAN)]);
        let bits: Vec<(i64, u64)> = got.iter().map(|&(k, v)| (k, v.to_bits())).collect();
        assert_eq!(
            bits,
            [(i64::MIN, (-0.0f64).to_bits()), (0, 2f64.to_bits()), (i64::MAX, f64::NAN.to_bits())]
        );
    }

    #[test]
    fn a_high_cardinality_lane_costs_linear_compaction_work() {
        // Distinct keys: all different, 60 in rotation (a compacted log
        // that nearly fills its first allocation), 33 in rotation (one
        // past the bound); arrivals one pair and 2,500 at a time.
        for (distinct, arrivals, per_arrival) in
            [(200_000u64, 200_000u64, 1u64), (200_000, 80, 2_500), (60, 200_000, 1), (33, 50_000, 1)]
        {
            let what = format!("{distinct} keys in {arrivals} x {per_arrival}");
            let (mut got, mut want): (Pairs, Pairs) = (Vec::new(), Vec::new());
            let before = pairs_touched();
            let mut n = 0u64;
            for _ in 0..arrivals {
                let mut src: Pairs = (0..per_arrival)
                    .map(|_| {
                        n += 1;
                        // Scrambled, not ascending, arrival order.
                        let key = (n % distinct).wrapping_mul(0x9e37_79b9_7f4a_7c15) as i64;
                        (key, n as f64)
                    })
                    .collect();
                dedup_pairs(&mut src);
                union_into(&mut got, &src);
                append_oracle(&mut want, &src);
                // A sorted upsert touches at most the small bound per
                // pair and only the first few pairs meet one; the log
                // costs an amortised constant.
                let work = pairs_touched() - before;
                let bound = (SMALL_PAIRS_MAX * SMALL_PAIRS_MAX + 4 * want.len()) as u64;
                assert!(work <= bound, "{what}: {work} pairs touched for {}", want.len());
            }
            assert_eq!(closed_bits(&got), closed_bits(&want), "{what}");
            assert!(
                got.capacity() as u64 <= 4 * distinct.max(SMALL_PAIRS_MAX as u64),
                "{what}: {} pairs allocated",
                got.capacity()
            );
        }
    }

    #[test]
    fn distinct_heavy_pass_matches_the_reference_and_the_append_oracle() {
        let sp = space();
        let items: Vec<i64> = (0..24).map(|i| i * 5 - 7).collect();
        let weeks: Vec<u32> = (0..6).collect();
        // 9,000 rows are three chunks over 432 base cells of ~18 keys
        // each out of 90: leaf-level slots stay sorted sets, slots
        // further up turn into logs.
        let functional = gen_distinct_input(11, 9000, &items, &weeks, 0..90, true);
        let free = gen_distinct_input(12, 9000, &items, &weeks, 0..90, false);
        let reference = cube_pass_reference(&sp, &functional);

        let before = pairs_touched();
        APPEND_ORACLE.with(|o| o.set(true));
        let oracle = cube_pass(&sp, &free, Parallelism::fixed(1), &NoopRecorder).unwrap();
        APPEND_ORACLE.with(|o| o.set(false));
        assert_eq!(pairs_touched(), before, "the oracle pass ran union_into");
        // `d_count` is the length of a slot's list.
        let counts: Vec<f64> =
            oracle.regions.values().flat_map(|items| items.iter()).filter_map(|(_, v)| v.get(4)).collect();
        assert!(counts.iter().any(|&c| c < SMALL_PAIRS_MAX as f64), "no short list");
        assert!(counts.iter().any(|&c| c > SMALL_PAIRS_MAX as f64 * 2.0), "no long list");

        for threads in [1usize, 2, 4] {
            let par = Parallelism::fixed(threads).with_min_chunk(1);
            let what = format!("threads={threads}");
            let pass = |input| cube_pass(&sp, input, par, &NoopRecorder).unwrap();
            assert_bit_identical(&pass(&functional), &reference, &what);
            assert_bit_identical(&pass(&free), &oracle, &what);
        }
    }
}
