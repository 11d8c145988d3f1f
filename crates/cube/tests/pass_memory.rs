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
//! Phase 1b merges a run's chunk tables key by key, so the resident pass
//! holds state in proportion to its cells, never to the size of the key
//! space those cells are drawn from.
//!
//! The pass's input is counted too: a measure column with no NULL row is
//! its values alone, eight bytes a row, with no validity bitmap.
//!
//! This file is its own test binary. The allocator counts per thread and
//! every pass runs at one thread, inline, so a count sees the measured
//! work and nothing the test harness does beside it; the tests still take
//! turns on one lock.

use bellwether_cube::{
    cube_pass, cube_pass_external, CubeInput, Dimension, Hierarchy, Measure, NoopRecorder,
    Parallelism, RegionSpace, Registry, RUN_CHUNKS,
};
use bellwether_obs::names;
use bellwether_prop::Rng;
use bellwether_table::ops::AggFunc;
use bellwether_table::ColumnData;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

/// The system allocator, counting each thread's live bytes and their
/// high-water mark.
struct Counting;

thread_local! {
    /// Bytes this thread allocated less those it freed (it may free what
    /// another thread allocated, hence signed).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    // A thread whose locals are gone (it is exiting) is not counted.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as isize));
}

/// This thread's live bytes.
fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Start a high-water mark at this thread's live bytes; returns them.
fn reset_peak() -> isize {
    let entry = live();
    PEAK.with(|peak| peak.set(entry));
    entry
}

/// Bytes `count` is above `entry`.
fn above(count: isize, entry: isize) -> usize {
    usize::try_from(count - entry).unwrap_or(0)
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
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Taken by every test for its whole body.
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

    let entry = reset_peak();
    let result = cube_pass_external(
        &space,
        std::slice::from_ref(&input),
        Parallelism::fixed(1),
        1,
        reg.as_ref(),
    )
    .expect("spill I/O");
    let peak = above(PEAK.with(Cell::get), entry);
    let result_bytes = above(live(), entry);

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
    let entry = live();
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
    let held = above(live(), entry);
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

#[test]
fn phase_1b_holds_cells_not_the_key_space() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // 255 weeks × 4,096 items: a key space of 1,044,480, just under 2^20.
    // 5,000 rows in the last two weeks, shuffled, so the two chunk tables
    // interleave over the same cells and must merge.
    const ROWS: usize = 5_000;
    const WEEKS: u32 = 255;
    const ITEMS: usize = 4096;
    let space = RegionSpace::new(vec![Dimension::Interval {
        name: "T".into(),
        max_t: WEEKS,
    }]);
    let mut rng = Rng::new(38);
    let mut rows: Vec<(i64, u32)> = (0..ROWS)
        .map(|r| ((r % ITEMS) as i64, WEEKS - 1 - rng.i64_in(0, 2) as u32))
        .collect();
    rng.shuffle(&mut rows);
    let input = CubeInput {
        item_ids: rows.iter().map(|r| r.0).collect(),
        coords: rows.iter().map(|r| r.1).collect(),
        measures: vec![Measure::Numeric {
            name: "sales".into(),
            func: AggFunc::Sum,
            values: (0..ROWS).map(|r| Some(r as f64 / 8.0)).collect(),
        }],
    };
    const { assert!(ROWS > ROW_CHUNK && ROWS < 2 * ROW_CHUNK, "two chunks") };

    let entry = reset_peak();
    let result = cube_pass(&space, &input, Parallelism::fixed(1), &NoopRecorder).expect("valid input");
    let peak = above(PEAK.with(Cell::get), entry);
    assert_eq!(result.regions.len(), 2, "[1-254] and [1-255]");
    // Phase 1 holds two chunk tables and the run they merge into, and
    // phase 2 one running table of every item and the two regions: 0.8 MB
    // at this size, 164 bytes a row. A merge into a flat table over the
    // key space holds ten bytes a key of it for one summed measure
    // (total, validity, occupancy): 10.4 MB here.
    let budget = 160 * ROWS + (512 << 10);
    assert!(peak <= budget, "peak {peak} B for {ROWS} rows > {budget}");
}
