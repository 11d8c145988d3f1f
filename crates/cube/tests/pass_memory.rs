//! What the out-of-core CUBE pass holds at its peak, counted by the
//! allocator.
//!
//! The pass spills every run under a tiny budget, so phase 1 keeps one
//! open run's chunk tables, and the k-way merge streams the sorted
//! base-cell table into the rollup a batch at a time. The live heap above
//! the entry point therefore never holds the result *and* the merged
//! base-cell table; a pass that merges every run into one table before it
//! rolls up does.
//!
//! The pass's input is counted too: a measure column with no NULL row is
//! its values alone, eight bytes a row, with no validity bitmap.
//!
//! This file is its own test binary, and its tests take turns on one
//! lock, so the counting allocator sees the measured work and nothing
//! running beside it.

use bellwether_cube::{
    cube_pass_external, CubeInput, Dimension, Hierarchy, Measure, Parallelism, RegionSpace,
    Registry, RUN_CHUNKS,
};
use bellwether_obs::names;
use bellwether_prop::Rng;
use bellwether_table::ops::AggFunc;
use bellwether_table::ColumnData;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Taken by every test for its whole body: the counters are global.
static SERIAL: Mutex<()> = Mutex::new(());

const ROW_CHUNK: usize = 4096;
const WEEKS: u32 = 10;
const ITEMS: i64 = 4000;

/// Ten weeks × a two-level location hierarchy of 20 leaves.
fn space() -> RegionSpace {
    let mut loc = Hierarchy::new("L", "All");
    for r in 0..4 {
        let region = loc.add_child(0, format!("r{r}"));
        for l in 0..5 {
            loc.add_child(region, format!("r{r}l{l}"));
        }
    }
    RegionSpace::new(vec![
        Dimension::Interval {
            name: "T".into(),
            max_t: WEEKS,
        },
        Dimension::Hierarchy(loc),
    ])
}

/// One fact row for about 70% of the (week, leaf, item) cells, in key
/// order, so phase 1's chunk tables chain and every run is a week slice
/// of the base cells, as a warehouse loads them; one summed measure.
fn facts(space: &RegionSpace) -> CubeInput {
    let Dimension::Hierarchy(loc) = &space.dims()[1] else {
        unreachable!("dimension 1 is the location hierarchy")
    };
    let mut rng = Rng::new(36);
    let mut input = CubeInput {
        item_ids: Vec::new(),
        coords: Vec::new(),
        measures: Vec::new(),
    };
    let mut values = Vec::new();
    for week in 0..WEEKS {
        for &leaf in &loc.leaves() {
            for item in 0..ITEMS {
                if rng.flip(0.7) {
                    input.item_ids.push(item);
                    input.coords.extend([week, leaf]);
                    values.push(rng.i64_in(1, 1000) as f64 / 8.0);
                }
            }
        }
    }
    input.measures.push(Measure::Numeric {
        name: "sales".into(),
        func: AggFunc::Sum,
        values: ColumnData {
            values,
            validity: None,
        },
    });
    input
}

/// Bytes a sorted state table spends per cell of one summed measure: the
/// `u64` key, the `f64` total and its `bool` validity.
const CELL_BYTES: usize = 8 + 8 + 1;

#[test]
fn the_pass_never_holds_the_result_and_the_merged_base_cells_at_once() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let space = space();
    let run_rows = RUN_CHUNKS * ROW_CHUNK;
    let input = facts(&space);
    // Three runs, the last one short; every one spills.
    assert!((2 * run_rows + 1..3 * run_rows).contains(&input.item_ids.len()));
    let reg = Registry::shared();

    let entry = LIVE.load(Ordering::Relaxed);
    PEAK.store(entry, Ordering::Relaxed);
    let result = cube_pass_external(
        &space,
        std::slice::from_ref(&input),
        Parallelism::fixed(1),
        1,
        reg.as_ref(),
    )
    .expect("spill I/O");
    let peak = PEAK.load(Ordering::Relaxed) - entry;
    let result_bytes = LIVE.load(Ordering::Relaxed) - entry;

    let snap = reg.snapshot();
    assert_eq!(snap.counter(names::SHARD_RUNS_MERGED), Some(3));
    assert_eq!(snap.counter(names::SHARD_SPILLS), Some(3));
    assert_eq!(result.regions.len(), (WEEKS * 25) as usize);
    let base_cells = snap.base_cells() as usize;
    let merged_table = base_cells * CELL_BYTES;
    // Phase 1 folds a run into at most one state cell per row.
    let open_run = run_rows * CELL_BYTES;
    // Beyond that, phase 1 holds the encode buffer of the run it
    // spills; phase 2 the running tables (25 locations × every item: slot
    // flag, total and validity, 1 MB), a batch of `SEGMENT_CELLS` = 65,536
    // cells (1.1 MB) and one frame of 4,096 cells per run: about 2 MiB at
    // this size, half the slack.
    let slack = 4 << 20;
    assert!(
        peak <= result_bytes + open_run + slack,
        "peak {peak} B > result {result_bytes} + open run {open_run} + slack {slack}"
    );
    assert!(
        peak < result_bytes + merged_table,
        "peak {peak} B: the result ({result_bytes}) and the merged base-cell table \
         ({merged_table}) were resident at once"
    );
}

#[test]
fn a_null_free_input_holds_32_bytes_a_row() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const N: usize = 100_000;
    let entry = LIVE.load(Ordering::Relaxed);
    // Arity 2 and two summed measures, collected the way a caller with
    // nullable data builds a lane.
    let input = CubeInput {
        item_ids: (0..N as i64).map(|r| r % ITEMS).collect(),
        coords: (0..2 * N as u32)
            .map(|i| if i % 2 == 0 { i / 2 % WEEKS } else { 5 })
            .collect(),
        measures: ["sales", "volume"]
            .into_iter()
            .map(|name| Measure::Numeric {
                name: name.into(),
                func: AggFunc::Sum,
                values: (0..N).map(|r| Some(r as f64 / 8.0)).collect(),
            })
            .collect(),
    };
    let held = LIVE.load(Ordering::Relaxed) - entry;
    for m in &input.measures {
        let Measure::Numeric { values, .. } = m else {
            unreachable!("both measures are numeric")
        };
        assert!(
            values.validity.is_none(),
            "a lane with no NULL row keeps no bitmap"
        );
    }
    // An item id (8 B), two coordinates (8 B) and two values (16 B) a
    // row; the slack covers the names and the measure list.
    let slack = 1 << 10;
    assert!(
        held <= 32 * N + slack,
        "input holds {held} B for {N} rows: > 32 B a row + {slack}"
    );
}
