//! Fixtures shared by the crate's unit tests: one region space, one
//! seeded fact generator covering every state kind, one bit-level
//! result comparison, and the reference kernels the optimized ones are
//! held to — the tuple-keyed AoS CUBE pass, the naive lattice rollup and
//! the dense and hashed key-range merges of phase 1b, and the row-map
//! form `aggregate_filtered` returned before it returned a region's lanes.

use crate::cube_pass::{
    finish_distinct_vals, fold_chunks, CubeInput, CubeResult, Measure, RegionColumns, StateCol,
    StateTable, ROW_CHUNK,
};
use crate::external::MergeRuns;
use crate::dimension::{Dimension, Hierarchy};
use crate::fxhash::FxMap;
use crate::parallel::{fork_join, split_point};
use crate::region::{RegionId, RegionSpace};
use bellwether_table::ops::AggFunc;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Leaf nodes of [`space`]'s location hierarchy.
const LEAVES: [u32; 3] = [2, 3, 5];

/// Time `[1-t]` for `t ≤ 6` × location `All(0) → US(1) → {WI(2), MD(3)}`,
/// `All → B(4) → B1(5)`.
pub(crate) fn space() -> RegionSpace {
    let mut loc = Hierarchy::new("Loc", "All");
    let us = loc.add_child(0, "US");
    loc.add_child(us, "WI");
    loc.add_child(us, "MD");
    let b = loc.add_child(0, "B");
    loc.add_child(b, "B1");
    RegionSpace::new(vec![
        Dimension::Interval {
            name: "Time".into(),
            max_t: 6,
        },
        Dimension::Hierarchy(loc),
    ])
}

/// One measure per state kind — Sum, Min, Max, Avg, Count and both
/// distinct-FK forms — over the given per-row columns.
pub(crate) fn measures_of_every_kind(
    sums: Vec<Option<f64>>,
    extrema: Vec<Option<f64>>,
    avgs: Vec<Option<f64>>,
    fks: Vec<Option<i64>>,
    fk_values: Vec<f64>,
) -> Vec<Measure> {
    let numeric = |name: &str, func, rows: Vec<Option<f64>>| Measure::Numeric {
        name: name.into(),
        func,
        values: rows.into_iter().collect(),
    };
    let distinct = |name: &str, func, rows: Vec<Option<i64>>, values| Measure::DistinctKeyed {
        name: name.into(),
        func,
        keys: rows.into_iter().collect(),
        values,
    };
    vec![
        numeric("s", AggFunc::Sum, sums),
        numeric("mn", AggFunc::Min, extrema.clone()),
        numeric("mx", AggFunc::Max, extrema),
        numeric("a", AggFunc::Avg, avgs.clone()),
        numeric("c", AggFunc::Count, avgs),
        distinct("d", AggFunc::Sum, fks.clone(), fk_values.clone()),
        distinct("cd", AggFunc::CountDistinct, fks, fk_values),
    ]
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// `rows` seeded (xorshift) fact rows over the leaf cells of [`space`],
/// items drawn from `items`, with every measure kind and some NULLs.
pub(crate) fn gen_input(seed: u64, rows: usize, items: &[i64]) -> CubeInput {
    let mut next = xorshift(seed);
    // Awkward floats on purpose: sums must not be exactly representable,
    // so any merge-order deviation shows.
    let float = |x: u64| (x as f64 / u64::MAX as f64) * 10.0 - 5.0 + 1.0 / 3.0;
    let mut item_ids = Vec::with_capacity(rows);
    let mut coords = Vec::with_capacity(rows * 2);
    let (mut sums, mut extrema, mut avgs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fks, mut fk_values) = (Vec::new(), Vec::new());
    for _ in 0..rows {
        item_ids.push(items[(next() % items.len() as u64) as usize]);
        coords.push((next() % 6) as u32);
        coords.push(LEAVES[(next() % 3) as usize]);
        sums.push((!next().is_multiple_of(10)).then(|| float(next())));
        extrema.push((next() % 10 > 1).then(|| float(next())));
        avgs.push(Some(float(next())));
        fks.push((!next().is_multiple_of(4)).then(|| (next() % 40) as i64));
        fk_values.push(float(next()));
    }
    CubeInput {
        item_ids,
        coords,
        measures: measures_of_every_kind(sums, extrema, avgs, fks, fk_values),
    }
}

/// [`gen_input`] with the Sum distinct-FK measure's values a function of
/// the key (the join contract), so that it takes bitset lanes; the
/// CountDistinct one keeps free values and pair lists.
pub(crate) fn gen_functional_input(seed: u64, rows: usize, items: &[i64]) -> CubeInput {
    let mut input = gen_input(seed, rows, items);
    let Some(Measure::DistinctKeyed { keys, values, .. }) = input.measures.get_mut(5) else {
        unreachable!("measures_of_every_kind puts `d` sixth")
    };
    for (row, v) in values.iter_mut().enumerate() {
        *v = keys.get(row).map_or(0.0, |k| k as f64 / 3.0 - 4.0);
    }
    input
}

/// `rows` seeded fact rows over the leaf cells of [`space`] at times
/// drawn from `weeks`, carrying nothing but distinct-FK measures: every
/// `func` the form takes, all over the same foreign keys drawn from
/// `keys`. With `functional` a key's value is a function of the key (the
/// join contract, under which kernels that group rows differently still
/// agree); without it every row draws its own, so which duplicate of a
/// key arrived last shows in the result.
pub(crate) fn gen_distinct_input(
    seed: u64,
    rows: usize,
    items: &[i64],
    weeks: &[u32],
    keys: std::ops::Range<i64>,
    functional: bool,
) -> CubeInput {
    let mut next = xorshift(seed);
    let mut item_ids = Vec::with_capacity(rows);
    let mut coords = Vec::with_capacity(rows * 2);
    let (mut fks, mut fk_values) = (Vec::new(), Vec::new());
    for _ in 0..rows {
        item_ids.push(items[(next() % items.len() as u64) as usize]);
        coords.push(weeks[(next() % weeks.len() as u64) as usize]);
        coords.push(LEAVES[(next() % 3) as usize]);
        let key = keys.start + (next() % (keys.end - keys.start) as u64) as i64;
        fks.push((!next().is_multiple_of(8)).then_some(key));
        // Thirds and sevenths: no sum of them is exact, so a changed
        // operand order would show.
        fk_values.push(if functional {
            key as f64 / 7.0 - 3.0
        } else {
            (next() % 1000) as f64 / 3.0 - 150.0
        });
    }
    let measures = [
        ("d_sum", AggFunc::Sum),
        ("d_min", AggFunc::Min),
        ("d_max", AggFunc::Max),
        ("d_avg", AggFunc::Avg),
        ("d_count", AggFunc::CountDistinct),
    ]
    .into_iter()
    .map(|(name, func)| Measure::DistinctKeyed {
        name: name.into(),
        func,
        keys: fks.iter().copied().collect(),
        values: fk_values.clone(),
    })
    .collect();
    CubeInput {
        item_ids,
        coords,
        measures,
    }
}

/// Rows `rows` of `input` as an input of their own.
pub(crate) fn slice_rows(input: &CubeInput, rows: std::ops::Range<usize>) -> CubeInput {
    let arity = input.coords.len() / input.item_ids.len().max(1);
    let mut out = input.empty_like();
    out.item_ids = input.item_ids[rows.clone()].to_vec();
    out.coords = input.coords[rows.start * arity..rows.end * arity].to_vec();
    for (dst, src) in out.measures.iter_mut().zip(&input.measures) {
        match (dst, src) {
            (Measure::Numeric { values, .. }, Measure::Numeric { values: sv, .. }) => {
                *values = rows.clone().map(|r| sv.get(r)).collect();
            }
            (
                Measure::DistinctKeyed { keys, values, .. },
                Measure::DistinctKeyed { keys: sk, values: sv, .. },
            ) => {
                *keys = rows.clone().map(|r| sk.get(r)).collect();
                *values = sv[rows.clone()].to_vec();
            }
            _ => unreachable!("`empty_like` keeps measure kinds"),
        }
    }
    out
}

/// Bit-level comparison of two results (NaN-safe), read through the view
/// every consumer reads.
pub(crate) fn assert_bit_identical(a: &CubeResult, b: &CubeResult, what: &str) {
    assert_eq!(a.measure_names, b.measure_names, "{what}: names");
    assert_eq!(a.regions.len(), b.regions.len(), "{what}: region count");
    for (r, items) in &a.regions {
        let other = b
            .regions
            .get(r)
            .unwrap_or_else(|| panic!("{what}: region {r:?} missing"));
        assert_eq!(items.len(), other.len(), "{what}: {r:?} item count");
        for (id, vals) in items.iter() {
            let ovals = other
                .get(id)
                .unwrap_or_else(|| panic!("{what}: {r:?} item {id} missing"));
            let bits: Vec<Option<u64>> = vals.iter().map(|v| v.map(f64::to_bits)).collect();
            let obits: Vec<Option<u64>> = ovals.iter().map(|v| v.map(f64::to_bits)).collect();
            assert_eq!(bits, obits, "{what}: {r:?} item {id}");
        }
    }
}

/// Reduce the distinct-key map of one cell in key order, so the float
/// result does not depend on hash-map iteration (part of the
/// determinism policy).
fn finish_distinct(func: AggFunc, keys: &FxMap<i64, f64>) -> Option<f64> {
    let mut pairs: Vec<(i64, f64)> = keys.iter().map(|(&k, &v)| (k, v)).collect();
    pairs.sort_unstable_by_key(|&(k, _)| k);
    finish_distinct_vals(func, pairs.len(), pairs.iter().map(|&(_, v)| v))
}

/// Mergeable per-cell state of one measure: the row-at-a-time (AoS)
/// representation of [`cube_pass_reference`].
#[derive(Debug, Clone)]
enum CellState {
    Sum { total: f64, seen: bool },
    Count(u64),
    Avg { total: f64, count: u64 },
    Min(Option<f64>),
    Max(Option<f64>),
    Distinct { func: AggFunc, keys: FxMap<i64, f64> },
}

impl CellState {
    fn new(measure: &Measure) -> CellState {
        match measure {
            Measure::Numeric { func, .. } => match func {
                AggFunc::Sum => CellState::Sum {
                    total: 0.0,
                    seen: false,
                },
                AggFunc::Count => CellState::Count(0),
                AggFunc::Avg => CellState::Avg {
                    total: 0.0,
                    count: 0,
                },
                AggFunc::Min => CellState::Min(None),
                AggFunc::Max => CellState::Max(None),
                AggFunc::CountDistinct => {
                    panic!("CountDistinct requires Measure::DistinctKeyed")
                }
            },
            Measure::DistinctKeyed { func, .. } => CellState::Distinct {
                func: *func,
                keys: FxMap::default(),
            },
        }
    }

    fn update(&mut self, measure: &Measure, row: usize) {
        match (self, measure) {
            (CellState::Sum { total, seen }, Measure::Numeric { values, .. }) => {
                if let Some(v) = values.get(row) {
                    *total += v;
                    *seen = true;
                }
            }
            (CellState::Count(c), Measure::Numeric { values, .. }) => {
                if values.is_valid(row) {
                    *c += 1;
                }
            }
            (CellState::Avg { total, count }, Measure::Numeric { values, .. }) => {
                if let Some(v) = values.get(row) {
                    *total += v;
                    *count += 1;
                }
            }
            (CellState::Min(best), Measure::Numeric { values, .. }) => {
                if let Some(v) = values.get(row) {
                    *best = Some(best.map_or(v, |b| b.min(v)));
                }
            }
            (CellState::Max(best), Measure::Numeric { values, .. }) => {
                if let Some(v) = values.get(row) {
                    *best = Some(best.map_or(v, |b| b.max(v)));
                }
            }
            (CellState::Distinct { keys, .. }, Measure::DistinctKeyed { keys: ks, values, .. }) => {
                if let Some(k) = ks.get(row) {
                    keys.insert(k, values[row]);
                }
            }
            _ => unreachable!("state/measure kind mismatch"),
        }
    }

    fn merge(&mut self, other: &CellState) {
        match (self, other) {
            (CellState::Sum { total, seen }, CellState::Sum { total: t2, seen: s2 }) => {
                *total += t2;
                *seen |= s2;
            }
            (CellState::Count(a), CellState::Count(b)) => *a += b,
            (
                CellState::Avg { total, count },
                CellState::Avg {
                    total: t2,
                    count: c2,
                },
            ) => {
                *total += t2;
                *count += c2;
            }
            (CellState::Min(a), CellState::Min(b)) => {
                if let Some(bv) = b {
                    *a = Some(a.map_or(*bv, |av| av.min(*bv)));
                }
            }
            (CellState::Max(a), CellState::Max(b)) => {
                if let Some(bv) = b {
                    *a = Some(a.map_or(*bv, |av| av.max(*bv)));
                }
            }
            (CellState::Distinct { keys, .. }, CellState::Distinct { keys: k2, .. }) => {
                for (k, v) in k2 {
                    keys.insert(*k, *v);
                }
            }
            _ => unreachable!("merging mismatched states"),
        }
    }

    fn finish(&self) -> Option<f64> {
        match self {
            CellState::Sum { total, seen } => seen.then_some(*total),
            CellState::Count(c) => Some(*c as f64),
            CellState::Avg { total, count } => (*count > 0).then(|| total / *count as f64),
            CellState::Min(v) | CellState::Max(v) => *v,
            CellState::Distinct { func, keys } => finish_distinct(*func, keys),
        }
    }
}

/// The original tuple-keyed, single-threaded CUBE pass: the kernel's
/// differential-testing reference. It needs no dense key, so it also runs
/// on spaces the kernel refuses as too large.
///
/// Phase 2 folds the base cells in ascending `(coords, item)` order — the
/// order [`crate::cube_pass()`] folds them in — so every call returns the
/// same bits, floating-point sums and keep-last distinct values included.
pub(crate) fn cube_pass_reference(space: &RegionSpace, input: &CubeInput) -> CubeResult {
    let n = input.item_ids.len();
    let arity = space.arity();
    input.check_shape(arity).unwrap();

    // Phase 1: base-cell aggregation keyed by (finest coords, item).
    let mut base: BTreeMap<(Vec<u32>, i64), Vec<CellState>> = BTreeMap::new();
    for row in 0..n {
        let coords = input.coords[row * arity..(row + 1) * arity].to_vec();
        let key = (coords, input.item_ids[row]);
        let states = base
            .entry(key)
            .or_insert_with(|| input.measures.iter().map(CellState::new).collect());
        for (state, measure) in states.iter_mut().zip(&input.measures) {
            state.update(measure, row);
        }
    }

    // Phase 2: expand base cells, in key order, into all containing regions.
    let mut regions: HashMap<RegionId, HashMap<i64, Vec<CellState>>> = HashMap::new();
    for ((coords, item), states) in &base {
        for region in space.containing_regions(coords) {
            let items = regions.entry(region).or_default();
            match items.get_mut(item) {
                Some(existing) => {
                    for (a, b) in existing.iter_mut().zip(states) {
                        a.merge(b);
                    }
                }
                None => {
                    items.insert(*item, states.clone());
                }
            }
        }
    }

    // Finalize.
    let measure_names = input.measures.iter().map(|m| m.name().to_string()).collect();
    let regions = regions
        .into_iter()
        .map(|(r, items)| {
            let rows = items
                .into_iter()
                .map(|(i, states)| (i, states.iter().map(CellState::finish).collect()))
                .collect();
            (r, Arc::new(RegionColumns::from_rows(rows)))
        })
        .collect();
    CubeResult {
        measure_names,
        regions,
    }
}

/// The lattice rollup straight from its definition: for every lattice
/// cell, merge the base cells it contains.
pub(crate) fn rollup_naive<T: Clone>(
    space: &RegionSpace,
    base: &HashMap<RegionId, T>,
    mut merge: impl FnMut(&mut T, &T),
) -> HashMap<RegionId, T> {
    let mut out: HashMap<RegionId, T> = HashMap::new();
    for cell in space.all_regions() {
        let mut acc: Option<T> = None;
        for (bk, bv) in base {
            if space.contains(&cell, bk) {
                match &mut acc {
                    Some(a) => merge(a, bv),
                    None => acc = Some(bv.clone()),
                }
            }
        }
        if let Some(a) = acc {
            out.insert(cell, a);
        }
    }
    out
}

/// Under [`crate::cube_pass::tests::with_phase1_oracle`], the shards and
/// merges [`merge_chunks`] makes of one run's chunk tables, over a key
/// space reaching their largest key, its copies counted; `None` otherwise.
pub(crate) fn phase1b_oracle(tables: &[StateTable]) -> Option<(Vec<StateTable>, u64)> {
    if !crate::cube_pass::tests::phase1_oracle() {
        return None;
    }
    let key_space = tables.iter().filter_map(|t| t.keys.last()).max().map_or(0, |k| k + 1);
    let (shards, merges) = merge_chunks(tables, key_space, 1);
    crate::cube_pass::tests::copied(shards.iter().map(StateTable::len).sum());
    Some((shards, merges))
}

/// Largest combined key space for which [`merge_chunks`] uses a flat
/// dense table (per-worker slice of a `Vec`) instead of a hash index.
const DENSE_SLOTS_MAX: u64 = 1 << 20;

/// Phase 1b as it was before runs' chunk tables went through
/// [`crate::external::MergeRuns`]: merge chunk tables into per-worker
/// shards of contiguous key ranges, into a flat dense table when the key
/// space is small, a hash-indexed one otherwise. Concatenating the shards
/// in order yields all base cells sorted by key — for every worker count.
/// Kept as the phase-1b oracle; returns the shards and the merges into an
/// occupied slot.
pub(crate) fn merge_chunks(
    tables: &[StateTable],
    key_space: u64,
    threads: usize,
) -> (Vec<StateTable>, u64) {
    let dense = key_space <= DENSE_SLOTS_MAX;
    let cut = |w| split_point(key_space, w, threads);
    let parts = fork_join(threads, |w| {
        let mut merges = 0;
        let shard = merge_range(tables, cut(w), cut(w + 1), dense, &mut merges);
        (shard, merges)
    });
    let merges = parts.iter().map(|(_, m)| m).sum();
    (parts.into_iter().map(|(shard, _)| shard).collect(), merges)
}

/// Phase 1b for one key range: merge every chunk's slice of `[lo, hi)`
/// in chunk order, column by column. Per source table the occupancy
/// pre-state of every touched slot is captured first, so each column
/// merge knows copy vs merge without re-deriving it. Returns the
/// range's base cells sorted by key.
fn merge_range(
    tables: &[StateTable],
    lo: u64,
    hi: u64,
    dense: bool,
    merges: &mut u64,
) -> StateTable {
    let mut was: Vec<bool> = Vec::new();
    let mut dsts: Vec<u32> = Vec::new();
    if dense {
        let n_slots = (hi - lo) as usize;
        let mut occupied = vec![false; n_slots];
        let mut cols: Vec<StateCol> = tables
            .first()
            .map(|t| t.cols.iter().map(|c| c.new_like(n_slots)).collect())
            .unwrap_or_default();
        for t in tables {
            let r = t.range_of(lo, hi);
            if r.is_empty() {
                continue;
            }
            was.clear();
            dsts.clear();
            for &k in &t.keys[r.clone()] {
                let s = (k - lo) as usize;
                *merges += occupied[s] as u64;
                was.push(occupied[s]);
                dsts.push(s as u32);
                occupied[s] = true;
            }
            for (dst, src) in cols.iter_mut().zip(&t.cols) {
                dst.merge_from(src, r.clone(), &dsts, &was);
            }
        }
        let idx: Vec<u32> = occupied
            .iter()
            .enumerate()
            .filter_map(|(i, &o)| o.then_some(i as u32))
            .collect();
        let keys: Vec<u64> = idx.iter().map(|&i| lo + i as u64).collect();
        for col in &mut cols {
            *col = col.gather(&idx);
            col.dedup_distinct();
        }
        StateTable { keys, cols }
    } else {
        let mut index: FxMap<u64, u32> = FxMap::default();
        let mut keys: Vec<u64> = Vec::new();
        let mut cols: Vec<StateCol> = tables
            .first()
            .map(|t| t.cols.iter().map(|c| c.new_like(0)).collect())
            .unwrap_or_default();
        let mut slots: Vec<u32> = Vec::new();
        for t in tables {
            let r = t.range_of(lo, hi);
            if r.is_empty() {
                continue;
            }
            slots.clear();
            was.clear();
            for &k in &t.keys[r.clone()] {
                match index.entry(k) {
                    Entry::Occupied(e) => {
                        slots.push(*e.get());
                        was.push(true);
                    }
                    Entry::Vacant(e) => {
                        let s = keys.len() as u32;
                        keys.push(k);
                        e.insert(s);
                        slots.push(s);
                        was.push(false);
                    }
                }
            }
            *merges += was.iter().filter(|&&w| w).count() as u64; // sparse path: cold
            for col in &mut cols {
                col.resize_default(keys.len());
            }
            for (dst, src) in cols.iter_mut().zip(&t.cols) {
                dst.merge_from(src, r.clone(), &slots, &was);
            }
        }
        let mut table = StateTable { keys, cols };
        for col in &mut table.cols {
            col.dedup_distinct();
        }
        table.sort_by_key();
        table
    }
}

/// [`crate::aggregate_filtered`] as it was before it returned a
/// [`RegionColumns`]: its own sort / dedup / map item numbering, and one
/// row of optional aggregates per item in a map. The oracle of
/// `cube_pass::tests::filtered_columns_match_the_row_map_fold_bit_for_bit`;
/// panics on malformed input.
pub(crate) fn fold_filtered_by_rows(
    input: &CubeInput,
    arity: usize,
    row_filter: impl Fn(&[u32]) -> bool + Sync,
    threads: usize,
) -> HashMap<i64, Vec<Option<f64>>> {
    let n = input.item_ids.len();
    input.check_shape(arity).unwrap();
    if n == 0 {
        return HashMap::new();
    }
    let mut items: Vec<i64> = input.item_ids.clone();
    items.sort_unstable();
    items.dedup();
    let item_index: FxMap<i64, u64> =
        items.iter().enumerate().map(|(i, &id)| (id, i as u64)).collect();
    let key_of = |row: usize, coords: &[u32]| -> Option<u64> {
        row_filter(coords).then(|| item_index[&input.item_ids[row]])
    };
    let tables = fold_chunks(input, &[], arity, 0..n.div_ceil(ROW_CHUNK), threads, &key_of);
    let shards: Vec<StateTable> = MergeRuns::of_chunks(tables)
        .unwrap()
        .collect::<std::io::Result<_>>()
        .unwrap();
    let mut out = HashMap::new();
    for t in &shards {
        for (i, &k) in t.keys.iter().enumerate() {
            out.insert(items[k as usize], t.cols.iter().map(|c| c.finish_at(i)).collect());
        }
    }
    out
}
