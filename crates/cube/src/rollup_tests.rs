//! The prefix-sharing rollup walk against its one-epoch oracle.
//!
//! [`RollupPlan`] shares prefixes on a leading interval dimension; forced
//! to one epoch ([`with_one_epoch`]) it is the flat walk that folds every
//! base cell into every region containing it. Everything here holds the
//! two bit-identical: over generated spaces of every shape, timelines
//! with empty stretches, late items and locations, every state kind,
//! every thread count, filtered walks, base cells streamed in segments
//! of any size and batches of any size, the external pass at both ends
//! of its budget, and a live recorder.

use crate::cube_pass::tests::{with_batch_cells, with_one_epoch};
use crate::cube_pass::{
    cube_pass, fold_chunks, rollup_walk, CubeInput, CubeResult, KeySpace,
    RegionColumns, RollupPlan, StateTable, ROW_CHUNK,
};
use crate::dimension::{Dimension, Hierarchy};
use crate::external::{cube_pass_runs, UNLIMITED_BUDGET};
use crate::parallel::Parallelism;
use crate::region::{RegionId, RegionSpace};
use crate::testutil::{assert_bit_identical, measures_of_every_kind, merge_chunks, slice_rows};
use bellwether_obs::{names, NoopRecorder, Registry};
use bellwether_prop::{check, Rng};
use std::cell::Cell;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

/// Dimension kinds, leading first: interval leading, trailing, absent,
/// doubled, and alone.
const SHAPES: [&str; 8] = ["IH", "IHH", "HI", "HH", "II", "IIH", "I", "H"];

/// The spans a pass records on its calling thread.
const PASS_SPANS: [&str; 5] =
    ["phase1_scan", "phase1_merge", "external_spill", "external_merge", "phase2_rollup"];

/// A space of the given shape and, per dimension, the fact-level
/// coordinates rows may use.
fn space_of(rng: &mut Rng, shape: &str) -> (RegionSpace, Vec<Vec<u32>>) {
    let mut dims = Vec::new();
    let mut pools = Vec::new();
    for (d, kind) in shape.chars().enumerate() {
        if kind == 'I' {
            let max_t = rng.u32_in(2, 9);
            dims.push(Dimension::Interval {
                name: format!("T{d}"),
                max_t,
            });
            pools.push((0..max_t).collect());
        } else {
            let mut h = Hierarchy::new(format!("H{d}"), "All");
            for c in 0..rng.u32_in(2, 5) {
                let child = h.add_child(0, format!("c{c}"));
                for g in 0..rng.u32_in(0, 3) {
                    h.add_child(child, format!("c{c}g{g}"));
                }
            }
            pools.push(h.leaves());
            dims.push(Dimension::Hierarchy(h));
        }
    }
    (RegionSpace::new(dims), pools)
}

/// Fact rows over `pools` with every state kind. Each interval keeps a
/// random subset of its time points (so the timeline has empty stretches
/// wherever the draw puts them); items and the values of dimension 1
/// first appear at a random point of dimension 0's pool; foreign keys
/// come from a window that moves with dimension 0, so a slot's distinct
/// list grows past the sorted regime from one epoch to the next, and a
/// key two epochs share takes the later value.
fn facts(rng: &mut Rng, space: &RegionSpace, pools: &[Vec<u32>], rows: usize) -> CubeInput {
    let pools: Vec<Vec<u32>> = pools
        .iter()
        .zip(space.dims())
        .map(|(pool, dim)| {
            let mut kept: Vec<u32> = match dim {
                Dimension::Interval { .. } => {
                    pool.iter().copied().filter(|_| rng.flip(0.6)).collect()
                }
                Dimension::Hierarchy(_) => pool.clone(),
            };
            if kept.is_empty() {
                kept.push(*rng.choice(pool));
            }
            kept
        })
        .collect();
    let items: Vec<i64> = (0..rng.i64_in(1, 10)).map(|i| i * 7 - 3).collect();
    // Position in `pools[0]` from which an item / a dimension-1 value is
    // drawn; the first of each is there from the start.
    let late = |rng: &mut Rng, n: usize| -> Vec<usize> {
        (0..n)
            .map(|i| if i == 0 { 0 } else { rng.below(pools[0].len()) })
            .collect()
    };
    let item_from = late(rng, items.len());
    let second_from = late(rng, pools.get(1).map_or(1, Vec::len));

    let mut input = CubeInput {
        item_ids: Vec::new(),
        coords: Vec::new(),
        measures: Vec::new(),
    };
    let (mut sums, mut extrema, mut avgs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fks, mut fk_values) = (Vec::new(), Vec::new());
    for _ in 0..rows {
        let at = rng.below(pools[0].len());
        let pick = |rng: &mut Rng, from: &[usize]| loop {
            let i = rng.below(from.len());
            if from[i] <= at {
                return i;
            }
        };
        input.item_ids.push(items[pick(rng, &item_from)]);
        for (d, pool) in pools.iter().enumerate() {
            input.coords.push(match d {
                0 => pool[at],
                1 => pool[pick(rng, &second_from)],
                _ => *rng.choice(pool),
            });
        }
        // Thirds: no sum of them is exact, so a changed order shows.
        let float = |rng: &mut Rng| rng.i64_in(-300, 300) as f64 / 3.0;
        sums.push((!rng.flip(0.1)).then(|| float(rng)));
        extrema.push((!rng.flip(0.2)).then(|| float(rng)));
        avgs.push(Some(float(rng)));
        fks.push((!rng.flip(0.2)).then(|| rng.i64_in(12 * at as i64, 12 * at as i64 + 30)));
        fk_values.push(float(rng));
    }
    input.measures = measures_of_every_kind(sums, extrema, avgs, fks, fk_values);
    input
}

/// Phase 1 at one thread: the key space and the sorted base cells.
fn base_cells(space: &RegionSpace, input: &CubeInput) -> (KeySpace, Vec<StateTable>) {
    let ks = KeySpace::build(space, &input.item_ids).expect("small key space");
    let chunks = input.item_ids.len().div_ceil(ROW_CHUNK);
    let tables = fold_chunks(input, &[], space.arity(), 0..chunks, 1, &ks.key_fn(input));
    let (shards, _) = merge_chunks(&tables, ks.cell_space * ks.n_items, 1);
    (ks, shards)
}

/// `shards` re-cut at random points into ascending segments, a cell's
/// items split between two segments wherever a cut falls inside them.
fn cut(rng: &mut Rng, shards: &[StateTable]) -> Vec<StateTable> {
    let mut segments = Vec::new();
    for shard in shards {
        let mut at = 0;
        while at < shard.len() {
            let end = (at + 1 + rng.below(40)).min(shard.len());
            let mut segment = StateTable {
                keys: shard.keys[at..end].to_vec(),
                cols: shard.cols.iter().map(|c| c.new_like(end - at)).collect(),
            };
            let dsts: Vec<u32> = (0..(end - at) as u32).collect();
            for (dst, src) in segment.cols.iter_mut().zip(&shard.cols) {
                dst.merge_from(src, at..end, &dsts, &vec![false; end - at]);
            }
            segments.push(segment);
            at = end;
        }
    }
    segments
}

/// The regions a walk over `segments` hands out, as a result.
fn walked(
    plan: &RollupPlan,
    ks: &KeySpace,
    segments: &[StateTable],
    threads: usize,
    filter: Option<&[u64]>,
) -> CubeResult {
    let segments = segments.iter().map(Ok::<_, Infallible>);
    let Ok(rolled) = rollup_walk(plan, ks, segments, threads, filter, &NoopRecorder);
    let n = rolled.finished.len();
    let regions: HashMap<RegionId, Arc<RegionColumns>> = rolled.finished.into_iter().collect();
    assert_eq!(regions.len(), n, "a region handed out twice");
    CubeResult {
        measure_names: Vec::new(),
        regions,
    }
}

#[test]
fn prefix_walk_matches_the_one_epoch_oracle() {
    // `cd`, the distinct count, is the length of a slot's pair list.
    let (narrowest, widest) = (Cell::new(f64::MAX), Cell::new(0.0f64));
    for shape in SHAPES {
        check(
            &format!("prefix walk = one-epoch oracle over {shape}"),
            8,
            |rng| {
                let (space, pools) = space_of(rng, shape);
                let rows = *rng.choice(&[1usize, 40, 700, 5000]);
                let input = facts(rng, &space, &pools, rows);
                let (ks, shards) = base_cells(&space, &input);
                let plan = RollupPlan::new(&space, &ks);
                let flat = with_one_epoch(|| RollupPlan::new(&space, &ks));
                assert_eq!(flat.n_epochs, 1);
                let shares = shape.starts_with('I') && shape.len() > 1;
                assert_eq!(plan.n_epochs > 1, shares, "{shape}");

                // Workers cut the table keys, whatever the region keys are.
                for threads in 1..=5usize {
                    let ranges: Vec<(u64, u64)> = (0..threads)
                        .map(|w| plan.worker_range(w, threads))
                        .collect();
                    assert_eq!((ranges[0].0, ranges[threads - 1].1), (0, plan.epoch_stride));
                    assert!(ranges.windows(2).all(|r| r[0].1 == r[1].0), "{ranges:?}");
                    assert_eq!(plan.epoch_stride * plan.n_epochs, ks.cell_space);
                }

                let oracle = walked(&flat, &ks, &shards, 1, None);
                for count in oracle
                    .regions
                    .values()
                    .flat_map(|items| items.iter())
                    .filter_map(|(_, v)| v.get(6))
                {
                    narrowest.set(narrowest.get().min(count));
                    widest.set(widest.get().max(count));
                }
                // The same cells streamed in small segments, a fork every
                // few of them.
                let segments = cut(rng, &shards);
                let batch = 1 + rng.below(100);
                for threads in [1usize, 2, 4] {
                    let what = format!("{shape}, threads={threads}");
                    assert_bit_identical(
                        &walked(&plan, &ks, &shards, threads, None),
                        &oracle,
                        &what,
                    );
                    assert_bit_identical(
                        &walked(&flat, &ks, &shards, threads, None),
                        &oracle,
                        &what,
                    );
                    let streamed =
                        with_batch_cells(batch, || walked(&plan, &ks, &segments, threads, None));
                    assert_bit_identical(&streamed, &oracle, &format!("{what}, batch={batch}"));
                }

                // A sorted subset of the region keys, some of them empty
                // regions: exactly those regions, with the same bits.
                let keep: Vec<u64> = (0..ks.cell_space).filter(|_| rng.flip(0.3)).collect();
                let mut want = CubeResult {
                    measure_names: Vec::new(),
                    regions: HashMap::new(),
                };
                for &key in &keep {
                    let id = RegionId(ks.decode_region(key));
                    if let Some(items) = oracle.regions.get(&id) {
                        want.regions.insert(id, items.clone());
                    }
                }
                for threads in [1usize, 2, 4] {
                    let what = format!("{shape}, filtered, threads={threads}");
                    let got = walked(&plan, &ks, &shards, threads, Some(&keep));
                    assert_bit_identical(&got, &want, &what);
                    let streamed = with_batch_cells(batch, || {
                        walked(&plan, &ks, &segments, threads, Some(&keep))
                    });
                    assert_bit_identical(&streamed, &want, &format!("{what}, batch={batch}"));
                }
            },
        );
    }
    // Sorted sets and compacting logs both crossed epochs.
    assert!(
        narrowest.get() < 8.0 && widest.get() > 64.0,
        "{narrowest:?}..{widest:?}"
    );
}

#[test]
fn whole_passes_match_the_oracle_at_any_budget_with_any_recorder() {
    for shape in SHAPES {
        check(
            &format!("cold and external passes = oracle over {shape}"),
            3,
            |rng| {
                let (space, pools) = space_of(rng, shape);
                let rows = *rng.choice(&[300usize, 6000, 9000]);
                let input = facts(rng, &space, &pools, rows);
                let par = |threads| Parallelism::fixed(threads).with_min_chunk(1);
                let pass =
                    |threads| cube_pass(&space, &input, par(threads), &NoopRecorder).unwrap();
                let oracle = with_one_epoch(|| pass(1));
                let batch = 1 + rng.below(2000);
                for threads in [1usize, 2, 4] {
                    let what = format!("{shape}, threads={threads}");
                    assert_bit_identical(&pass(threads), &oracle, &what);
                    let streamed = with_batch_cells(batch, || pass(threads));
                    assert_bit_identical(&streamed, &oracle, &format!("{what}, batch={batch}"));
                }

                // Two inputs, one chunk a run: up to four runs to merge.
                let cut = rng.usize_in(0, rows + 1);
                let slices = [slice_rows(&input, 0..cut), slice_rows(&input, cut..rows)];
                let runs = |budget, threads, rec: &dyn bellwether_obs::Recorder| {
                    cube_pass_runs(&space, &slices, par(threads), budget, 1, rec)
                        .expect("spill I/O")
                };
                let oracle = with_one_epoch(|| runs(UNLIMITED_BUDGET, 1, &NoopRecorder));
                for (budget, threads) in [(0, 1), (UNLIMITED_BUDGET, 2), (0, 4)] {
                    let reg = Registry::shared();
                    let what = format!("{shape}, budget={budget}, threads={threads}");
                    assert_bit_identical(&runs(budget, threads, &NoopRecorder), &oracle, &what);
                    let streamed = with_batch_cells(batch, || runs(budget, threads, &NoopRecorder));
                    assert_bit_identical(&streamed, &oracle, &format!("{what}, batch={batch}"));
                    let started = Instant::now();
                    let traced = runs(budget, threads, reg.as_ref());
                    let elapsed = started.elapsed().as_nanos() as u64;
                    assert_bit_identical(&traced, &oracle, &what);
                    let snap = reg.snapshot();
                    let rollup = snap.span("cube_pass/phase2_rollup").expect("rollup span");
                    let walk = snap.span(names::CUBE_PASS_PHASE2_WALK).expect("walk span");
                    let finish = snap
                        .span(names::CUBE_PASS_PHASE2_FINISH)
                        .expect("finish span");
                    assert_eq!(rollup.calls, 1, "{what}");
                    assert!((1..=threads as u64).contains(&walk.calls), "{what}");
                    assert_eq!(walk.calls, finish.calls, "{what}");
                    let decode = snap.span(names::CUBE_PASS_EXTERNAL_DECODE);
                    let merge = snap.span("cube_pass/external_merge");
                    let merged = snap.counter(names::SHARD_RUNS_MERGED).is_some();
                    assert_eq!(decode.is_some(), merged, "{what}");
                    assert_eq!(merge.map(|m| m.calls), merged.then_some(1), "{what}");
                    // The pass's own spans are self-times on the calling thread:
                    // the merge and the rollup interleave, neither clock
                    // runs inside the other, so together they fit the pass.
                    let own: u64 = PASS_SPANS
                        .iter()
                        .filter_map(|phase| snap.span(&format!("cube_pass/{phase}")))
                        .map(|span| span.total_nanos)
                        .sum();
                    assert!(own <= elapsed, "{what}: {own} > {elapsed} ns");
                }
            },
        );
    }
}

#[test]
fn empty_weeks_hand_out_their_predecessors_values() {
    // Six weeks × {All → a, b}; rows in weeks 2 and 4 only (time points
    // 1 and 3), `b` only in week 4.
    let space = RegionSpace::new(vec![
        Dimension::Interval {
            name: "T".into(),
            max_t: 6,
        },
        Dimension::Hierarchy(Hierarchy::flat("L", "All", &["a", "b"])),
    ]);
    let input = CubeInput {
        item_ids: vec![1, 1, 2, 1],
        coords: vec![1, 1, 1, 1, 3, 1, 3, 2],
        measures: measures_of_every_kind(
            vec![Some(1.0 / 3.0), Some(2.0 / 3.0), Some(5.0), Some(7.0 / 3.0)],
            vec![Some(4.0), None, Some(-1.0), Some(9.0)],
            vec![Some(1.0); 4],
            vec![Some(1), Some(2), Some(1), Some(2)],
            vec![0.5, 1.5, 2.5, 3.5],
        ),
    };
    let pass = || cube_pass(&space, &input, Parallelism::sequential(), &NoopRecorder).unwrap();
    let oracle = with_one_epoch(pass);
    let got = pass();
    assert_bit_identical(&got, &oracle, "empty weeks");
    let region = |t: u32, n: u32| got.regions.get(&RegionId(vec![t, n]));
    // Nothing before the first row; `b` is empty until week 4.
    assert!(region(0, 0).is_none() && region(2, 2).is_none());
    // Weeks 3, 5 and 6 have no rows of their own.
    assert!(region(1, 1).is_some() && region(1, 1) == region(2, 1));
    for n in 0..3 {
        assert!(region(3, n).is_some(), "[1-4, {n}]");
        assert_eq!(region(3, n), region(4, n), "[1-5, {n}]");
        assert_eq!(region(3, n), region(5, n), "[1-6, {n}]");
        // Not equal copies: the one allocation, handed out three times.
        assert!(Arc::ptr_eq(region(3, n).unwrap(), region(5, n).unwrap()), "[1-6, {n}]");
    }
    assert_ne!(region(2, 0), region(3, 0));
    assert_eq!(got.regions.len(), 2 * 2 + 3 * 3);
}

#[test]
fn a_table_whose_items_did_not_grow_hands_its_epochs_one_id_lane() {
    // Three weeks × {All → a, b}: items 1 and 2 under `a` in weeks 1 and
    // 2, item 3 joins in week 3; `b` has rows in week 1 only.
    let space = RegionSpace::new(vec![
        Dimension::Interval {
            name: "T".into(),
            max_t: 3,
        },
        Dimension::Hierarchy(Hierarchy::flat("L", "All", &["a", "b"])),
    ]);
    let input = CubeInput {
        item_ids: vec![1, 2, 2, 1, 2, 3, 1],
        coords: vec![0, 1, 0, 1, 1, 1, 1, 1, 2, 1, 2, 1, 0, 2],
        measures: measures_of_every_kind(
            (1..=7).map(|v| Some(v as f64 / 3.0)).collect(),
            vec![Some(4.0); 7],
            vec![Some(1.0); 7],
            (1..=7).map(Some).collect(),
            vec![0.5; 7],
        ),
    };
    let got = cube_pass(&space, &input, Parallelism::sequential(), &NoopRecorder).unwrap();
    let region = |t: u32, n: u32| &got.regions[&RegionId(vec![t, n])];
    let lane = |t: u32, n: u32| region(t, n).item_ids().as_ptr();
    for n in [0, 1] {
        // Week 2 changed the values, not the items: a new finish, the
        // same lane.
        assert_ne!(region(0, n), region(1, n), "[1-2, {n}]");
        assert_eq!(lane(0, n), lane(1, n), "[1-2, {n}]");
        // Week 3's item 3 grew the set: a lane of its own.
        assert_ne!(lane(1, n), lane(2, n), "[1-3, {n}]");
        assert_eq!(region(2, n).item_ids(), [1, 2, 3].as_slice() , "[1-3, {n}]");
    }
    assert_eq!(region(0, 0).item_ids(), [1, 2].as_slice());
    assert_eq!(region(0, 2).item_ids(), [1].as_slice());
    // `b` saw no cell after week 1: the one allocation, all of it.
    assert!(Arc::ptr_eq(region(0, 2), region(2, 2)));
    assert_bit_identical(&got, &with_one_epoch(|| {
        cube_pass(&space, &input, Parallelism::sequential(), &NoopRecorder).unwrap()
    }), "shared lanes");
}
