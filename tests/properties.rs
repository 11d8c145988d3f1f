//! Property-based tests of the core invariants, spanning crates:
//!
//! * the CUBE pass agrees with direct filtered aggregation on every
//!   region, for arbitrary fact data;
//! * the parallel CUBE kernel is bit-identical to the sequential one
//!   for every tested thread count, space shape and measure mix;
//! * the delta CUBE is bit-identical to the cold pass over the
//!   concatenation after every append of a random schedule, and
//!   time-ordered appends never leave its fast path;
//! * lattice rollup of counts agrees with the naive per-cell definition;
//! * basic search reads exactly the regions within budget and reports
//!   every one that passes coverage and can fit a model;
//! * the Theorem-1 statistic is merge-order invariant and subtraction
//!   inverts merge;
//! * region containment is a partial order consistent with coverage.

use bellwether::prelude::*;
use bellwether_cube::{
    aggregate_filtered, rollup_lattice, CubeResult, Measure, Parallelism, StreamingCube,
};
use bellwether::core::StreamingBellwether;
use bellwether::datagen::{build_stream_workload, StreamConfig};
use bellwether::obs::names;
use bellwether_prop::{check, Rng};
use bellwether_table::ColumnData;
use std::collections::HashMap;
use std::sync::Arc;

/// A small two-dimensional space: 3 time points × a 2-level hierarchy.
fn space() -> RegionSpace {
    let mut loc = Hierarchy::new("L", "All");
    let a = loc.add_child(0, "A");
    loc.add_child(a, "a1");
    loc.add_child(a, "a2");
    let b = loc.add_child(0, "B");
    loc.add_child(b, "b1");
    RegionSpace::new(vec![
        Dimension::Interval {
            name: "T".into(),
            max_t: 3,
        },
        Dimension::Hierarchy(loc),
    ])
}

/// Leaf coordinates usable in the space above: a time point and a
/// hierarchy leaf (node ids 2, 3 and 5).
fn leaf(rng: &mut Rng) -> (u32, u32) {
    (rng.u32_in(0, 3), *rng.choice(&[2u32, 3, 5]))
}

fn facts(rng: &mut Rng) -> Vec<(i64, (u32, u32), f64)> {
    rng.vec_of(1, 120, |r| {
        (r.i64_in(0, 6), leaf(r), r.f64_in(-100.0, 100.0))
    })
}

#[test]
fn cube_pass_matches_filtered_aggregation() {
    check("cube_pass_matches_filtered_aggregation", 64, |rng| {
        let rows = facts(rng);
        let s = space();
        let input = CubeInput {
            item_ids: rows.iter().map(|(i, _, _)| *i).collect(),
            coords: rows.iter().flat_map(|(_, (t, l), _)| [*t, *l]).collect(),
            measures: vec![Measure::Numeric {
                name: "v".into(),
                func: AggFunc::Sum,
                values: rows.iter().map(|(_, _, v)| Some(*v)).collect(),
            }],
        };
        let cube = cube_pass(&s, &input, Parallelism::default(), &NoopRecorder).unwrap();
        for region in s.all_regions() {
            let direct = aggregate_filtered(&input, 2, |cell| {
                s.contains(&region, &RegionId(cell.to_vec()))
            })
            .unwrap();
            // Same covered items.
            assert_eq!(cube.coverage_count(&region), direct.len());
            for (at, &item) in direct.item_ids().iter().enumerate() {
                let got = cube.features(&region, item).unwrap();
                let want = direct.lane(0).get(at);
                match (got.get(0), want) {
                    (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9),
                    (a, b) => assert_eq!(a, b),
                }
            }
        }
    });
}

/// A random region space: 1–3 dimensions, each an interval or a (flat or
/// two-level) hierarchy. Returns the space plus, per dimension, the
/// fact-level coordinates rows may use.
fn random_space(rng: &mut Rng) -> (RegionSpace, Vec<Vec<u32>>) {
    let arity = rng.usize_in(1, 4);
    let mut dims = Vec::new();
    let mut leaf_pools = Vec::new();
    for d in 0..arity {
        if rng.flip(0.4) {
            let max_t = rng.u32_in(2, 6);
            dims.push(Dimension::Interval {
                name: format!("T{d}"),
                max_t,
            });
            leaf_pools.push((0..max_t).collect());
        } else {
            let mut h = Hierarchy::new(format!("H{d}"), "All");
            for c in 0..rng.u32_in(2, 5) {
                let cid = h.add_child(0, format!("c{c}"));
                // Sometimes grow a second level under this child.
                if rng.flip(0.5) {
                    for g in 0..rng.u32_in(1, 4) {
                        h.add_child(cid, format!("c{c}g{g}"));
                    }
                }
            }
            let leaves = h.leaves();
            dims.push(Dimension::Hierarchy(h));
            leaf_pools.push(leaves);
        }
    }
    (RegionSpace::new(dims), leaf_pools)
}

/// A random measure over `n` fact rows: numeric (with NULLs) or
/// distinct-keyed (with NULL keys).
fn random_measure(rng: &mut Rng, idx: usize, n: usize) -> Measure {
    if rng.flip(0.6) {
        let func = *rng.choice(&[
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::Count,
        ]);
        Measure::Numeric {
            name: format!("m{idx}"),
            func,
            values: (0..n)
                .map(|_| {
                    if rng.flip(0.15) {
                        None
                    } else {
                        Some(rng.f64_in(-50.0, 50.0))
                    }
                })
                .collect(),
        }
    } else {
        let func = *rng.choice(&[
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::CountDistinct,
        ]);
        Measure::DistinctKeyed {
            name: format!("m{idx}"),
            func,
            keys: (0..n)
                .map(|_| {
                    if rng.flip(0.15) {
                        None
                    } else {
                        Some(rng.i64_in(0, 12))
                    }
                })
                .collect(),
            values: (0..n).map(|_| rng.f64_in(-20.0, 20.0)).collect(),
        }
    }
}

/// `input` with every other distinct-keyed measure (the first, the
/// third, …) joining one value per key — the join contract, under which
/// the kernel folds those measures into bitset lanes — and, when it has
/// no distinct-keyed measure, one such measure appended.
fn with_functional_values(rng: &mut Rng, input: &CubeInput) -> CubeInput {
    let table: Vec<f64> = (0..12).map(|_| rng.f64_in(-20.0, 20.0)).collect();
    let joined = |keys: &ColumnData<i64>| {
        (0..keys.values.len()).map(|r| keys.get(r).map_or(0.0, |k| table[k as usize])).collect()
    };
    let mut out = input.clone();
    let mut distinct = 0;
    for m in &mut out.measures {
        if let Measure::DistinctKeyed { keys, values, .. } = m {
            if distinct % 2 == 0 {
                *values = joined(keys);
            }
            distinct += 1;
        }
    }
    if distinct == 0 {
        let n = input.item_ids.len();
        let keys: ColumnData<i64> = (0..n)
            .map(|_| (!rng.flip(0.15)).then(|| rng.i64_in(0, 12)))
            .collect();
        let funcs = [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg, AggFunc::CountDistinct];
        out.measures.push(Measure::DistinctKeyed {
            name: "f".into(),
            func: *rng.choice(&funcs),
            values: joined(&keys),
            keys,
        });
    }
    out
}

/// Bitwise equality of two cube results (float payloads compared via
/// `to_bits`, so "close" is not good enough).
fn assert_bit_identical(a: &CubeResult, b: &CubeResult) {
    assert_eq!(a.measure_names, b.measure_names);
    assert_eq!(a.regions.len(), b.regions.len());
    for (region, items) in &a.regions {
        let other = b.regions.get(region).expect("region missing");
        assert_eq!(items.len(), other.len(), "item count differs in {region:?}");
        for (item, vals) in items.iter() {
            let ovals = other.get(item).expect("item missing");
            assert_eq!(vals.len(), ovals.len());
            for (x, y) in vals.iter().zip(ovals) {
                assert_eq!(
                    x.map(f64::to_bits),
                    y.map(f64::to_bits),
                    "value bits differ for item {item} in {region:?}"
                );
            }
        }
    }
}

#[test]
fn parallel_cube_pass_is_bit_identical_to_sequential() {
    check("parallel_cube_pass_is_bit_identical", 12, |rng| {
        let (s, leaf_pools) = random_space(rng);
        // Up to ~10k rows: most cases span several 4096-row chunks, so
        // the scan sharding genuinely engages for higher thread counts.
        let n = rng.usize_in(1, 10_000);
        let item_ids: Vec<i64> = (0..n).map(|_| rng.i64_in(0, 8)).collect();
        let coords: Vec<u32> = (0..n)
            .flat_map(|_| {
                leaf_pools
                    .iter()
                    .map(|pool| *rng.choice(pool))
                    .collect::<Vec<_>>()
            })
            .collect();
        let measures = (0..rng.usize_in(1, 4))
            .map(|i| random_measure(rng, i, n))
            .collect();
        let input = CubeInput {
            item_ids,
            coords,
            measures,
        };
        let functional = with_functional_values(rng, &input);
        for input in [&input, &functional] {
            let pass = |par| cube_pass(&s, input, par, &NoopRecorder).unwrap();
            let seq = pass(Parallelism::sequential());
            for threads in 2..=8 {
                assert_bit_identical(&seq, &pass(Parallelism::fixed(threads)));
            }
        }
    });
}

/// Rows `rows` of `input` as an input of their own.
fn slice_input(input: &CubeInput, rows: std::ops::Range<usize>, arity: usize) -> CubeInput {
    CubeInput {
        item_ids: input.item_ids[rows.clone()].to_vec(),
        coords: input.coords[rows.start * arity..rows.end * arity].to_vec(),
        measures: input
            .measures
            .iter()
            .map(|m| match m {
                Measure::Numeric { name, func, values } => Measure::Numeric {
                    name: name.clone(),
                    func: *func,
                    values: rows.clone().map(|r| values.get(r)).collect(),
                },
                Measure::DistinctKeyed { name, func, keys, values } => Measure::DistinctKeyed {
                    name: name.clone(),
                    func: *func,
                    keys: rows.clone().map(|r| keys.get(r)).collect(),
                    values: values[rows.clone()].to_vec(),
                },
            })
            .collect(),
    }
}

/// The delta CUBE equals the cold pass over everything seen so far
/// after *every* append, at threads {1, 2, 4}, for random spaces
/// (any dimension order), measure mixes and batch sizes up to a few
/// chunks. Where time is the major dimension and each batch is one time
/// point in order, every dirty region must extend its retained state —
/// none may be re-aggregated.
#[test]
fn streaming_cube_matches_cold_pass_on_random_schedules() {
    check("streaming_cube_matches_cold_pass", 10, |rng| {
        let (s, leaf_pools) = random_space(rng);
        let arity = leaf_pools.len();
        let n = rng.usize_in(1, 10_000);
        let in_order = matches!(s.dims()[0], Dimension::Interval { .. }) && rng.flip(0.7);
        let mut times: Vec<u32> = (0..n).map(|_| *rng.choice(&leaf_pools[0])).collect();
        if in_order {
            times.sort_unstable();
        }
        let coords: Vec<u32> = times
            .iter()
            .flat_map(|&t| {
                let rest = leaf_pools[1..].iter().map(|pool| *rng.choice(pool));
                std::iter::once(t).chain(rest).collect::<Vec<_>>()
            })
            .collect();
        let input = CubeInput {
            item_ids: (0..n).map(|_| rng.i64_in(0, 8)).collect(),
            coords,
            measures: (0..rng.usize_in(1, 4)).map(|i| random_measure(rng, i, n)).collect(),
        };
        // Batch ends: every change of time point when in order (so no
        // time point is ever appended twice), a few random cuts if not.
        let mut cuts: Vec<usize> = if in_order {
            (1..n).filter(|&r| times[r] != times[r - 1]).collect()
        } else {
            (0..rng.usize_in(1, 5)).map(|_| rng.usize_in(0, n + 1)).collect()
        };
        cuts.push(n);
        cuts.sort_unstable();
        let universe: Vec<i64> = (0..8).collect();
        // The stream keeps pair lists; the cold pass folds the functional
        // input's measures into bitsets.
        let functional = with_functional_values(rng, &input);
        for input in [&input, &functional] {
            for threads in [1usize, 2, 4] {
                let par = Parallelism::fixed(threads);
                let base = slice_input(input, 0..cuts[0], arity);
                let mut stream = StreamingCube::new(&s, &base, &universe, par).unwrap();
                for w in cuts.windows(2) {
                    let update = stream.append(&slice_input(input, w[0]..w[1], arity)).unwrap();
                    let prefix = slice_input(input, 0..w[1], arity);
                    let cold = cube_pass(&s, &prefix, par, &NoopRecorder).unwrap();
                    assert_bit_identical(stream.result(), &cold);
                    assert_eq!(
                        update.regions_extended + update.regions_rebuilt,
                        update.dirty_regions.len()
                    );
                    if in_order {
                        assert_eq!(update.regions_rebuilt, 0, "time-ordered append left the fast path");
                    }
                }
            }
        }
    });
}

/// The lattice rollup straight from its definition: for every lattice
/// cell, merge the base cells it contains.
fn rollup_naive<T: Clone>(
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

#[test]
fn rollup_matches_naive_for_random_bases() {
    check("rollup_matches_naive_for_random_bases", 64, |rng| {
        let entries = rng.vec_of(1, 20, |r| {
            (r.u32_in(0, 3), r.u32_in(0, 3), r.next_u64() % 99 + 1)
        });
        // item space: two flat hierarchies with 3 leaves each.
        let h1 = Hierarchy::flat("H1", "any1", &["x", "y", "z"]);
        let h2 = Hierarchy::flat("H2", "any2", &["p", "q", "r"]);
        let s = RegionSpace::new(vec![
            Dimension::Hierarchy(h1),
            Dimension::Hierarchy(h2),
        ]);
        let mut base: HashMap<RegionId, u64> = HashMap::new();
        for (l1, l2, v) in entries {
            // leaves are node ids 1..=3
            *base.entry(RegionId(vec![l1 + 1, l2 + 1])).or_insert(0) += v;
        }
        let fast = rollup_lattice(&s, base.clone(), |a, b| *a += *b);
        let slow = rollup_naive(&s, &base, |a, b| *a += *b);
        assert_eq!(fast, slow);
    });
}

#[test]
fn basic_search_evaluates_exactly_the_feasible_regions() {
    check("basic_search_evaluates_feasible_regions", 64, |rng| {
        let budget = rng.f64_in(0.0, 30.0);
        let min_cov = rng.f64();
        let min_examples = rng.usize_in(1, 6);
        let total_items = 10;
        let p = 2;
        let s = space();
        // Every region of the space, each with a random number of items.
        let blocks: Vec<RegionBlock> = s
            .all_regions()
            .into_iter()
            .map(|r| {
                let mut block = RegionBlock::new(r.0, p as u32);
                for item in 0..rng.below(total_items + 1) {
                    let x = [rng.f64_in(-10.0, 10.0), rng.f64_in(-10.0, 10.0)];
                    block.push(item as i64, &x, rng.f64_in(-100.0, 100.0));
                }
                block
            })
            .collect();
        let weights = s
            .dims()
            .iter()
            .map(|d| {
                (0..d.num_values())
                    .map(|v| (v, rng.f64_in(0.0, 10.0)))
                    .collect()
            })
            .collect();
        let models: [Box<dyn CostModel>; 2] = [
            Box::new(UniformCellCost { rate: 1.0 }),
            Box::new(ProductCost::new(weights)),
        ];
        let config = BellwetherConfig::builder(budget)
            .min_coverage(min_cov)
            .min_examples(min_examples)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap();
        let min_n = min_examples.max((min_cov * total_items as f64).ceil() as usize);
        for cost in &models {
            let source = MemorySource::new(blocks.clone());
            let found = basic_search(&source, &s, cost.as_ref(), &config, total_items).unwrap();
            let affordable: Vec<&RegionBlock> = blocks
                .iter()
                .filter(|b| cost.cost(&s, &RegionId(b.region.clone())) <= budget)
                .collect();
            // Over-budget regions are never read.
            assert_eq!(source.snapshot().regions_read(), affordable.len() as u64);
            for report in &found.reports {
                assert!(report.cost <= budget, "{} over budget", report.label);
                assert!(
                    report.n_examples >= min_n,
                    "{} under coverage",
                    report.label
                );
            }
            for block in affordable.iter().filter(|b| b.n() >= min_n && b.n() > p) {
                assert!(
                    found.reports.iter().any(|r| r.region.0 == block.region),
                    "feasible region {:?} has no report",
                    block.region
                );
            }
        }
    });
}

#[test]
fn suffstats_merge_is_order_invariant() {
    check("suffstats_merge_is_order_invariant", 64, |rng| {
        let rows = rng.vec_of(6, 40, |r| (r.f64_in(0.1, 10.0), r.f64_in(-10.0, 10.0)));
        let splits = rng.usize_in(1, 5);
        let p = 2;
        let chunk = (rows.len() / (splits + 1)).max(1);
        let mut forward = RegSuffStats::new(p);
        let mut chunks: Vec<RegSuffStats> = Vec::new();
        for group in rows.chunks(chunk) {
            let mut s = RegSuffStats::new(p);
            for (x, y) in group {
                s.add(&[1.0, *x], *y, 1.0);
                forward.add(&[1.0, *x], *y, 1.0);
            }
            chunks.push(s);
        }
        // Merge in reverse order.
        let mut backward = RegSuffStats::new(p);
        for s in chunks.iter().rev() {
            backward.merge(s);
        }
        assert_eq!(forward.n(), backward.n());
        match (forward.sse(), backward.sse()) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-6 * (1.0 + a.abs())),
            (a, b) => assert_eq!(a.is_some(), b.is_some()),
        }
    });
}

#[test]
fn suffstats_subtract_inverts_merge() {
    check("suffstats_subtract_inverts_merge", 64, |rng| {
        let rows = rng.vec_of(8, 40, |r| (r.f64_in(0.1, 10.0), r.f64_in(-10.0, 10.0)));
        let p = 2;
        let half = rows.len() / 2;
        let mut a = RegSuffStats::new(p);
        for (x, y) in &rows[..half] {
            a.add(&[1.0, *x], *y, 1.0);
        }
        let mut b = RegSuffStats::new(p);
        for (x, y) in &rows[half..] {
            b.add(&[1.0, *x], *y, 1.0);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        merged.subtract(&b);
        assert_eq!(merged.n(), a.n());
        if let (Some(x), Some(y)) = (merged.sse(), a.sse()) {
            assert!((x - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
    });
}

#[test]
fn containment_is_a_partial_order() {
    check("containment_is_a_partial_order", 128, |rng| {
        let s = space();
        let a = RegionId(vec![rng.u32_in(0, 3), rng.u32_in(0, 6)]);
        let b = RegionId(vec![rng.u32_in(0, 3), rng.u32_in(0, 6)]);
        // reflexive
        assert!(s.contains(&a, &a));
        // antisymmetric
        if s.contains(&a, &b) && s.contains(&b, &a) {
            assert_eq!(&a, &b);
        }
        // finest-cell counts are monotone
        if s.contains(&a, &b) {
            assert!(s.finest_cell_count(&a) >= s.finest_cell_count(&b));
        }
    });
}

/// Canonical, deterministic rendering of a bellwether tree.
/// `SplitCriterion::Categorical` holds a HashMap whose Debug order is
/// not deterministic, so each node renders sorted criterion pairs plus
/// everything else verbatim.
fn canon_tree(tree: &BellwetherTree) -> Vec<String> {
    tree.nodes
        .iter()
        .map(|n| {
            let split = n.split.as_ref().map(|(c, children)| match c {
                SplitCriterion::Categorical { attr, code_children } => {
                    let mut pairs: Vec<_> =
                        code_children.iter().map(|(k, v)| (*k, *v)).collect();
                    pairs.sort_unstable();
                    format!("cat attr={attr} {pairs:?} -> {children:?}")
                }
                SplitCriterion::Numeric { attr, threshold } => {
                    format!("num attr={attr} t={threshold:?} -> {children:?}")
                }
            });
            format!(
                "d{} rows{:?} info{:?} split{:?}",
                n.depth, n.item_rows, n.info, split
            )
        })
        .collect()
}

/// Canonical rendering of a bellwether cube (cell HashMap order is not
/// deterministic — cells are keyed and sorted by subset).
fn canon_cube(cube: &BellwetherCube) -> Vec<(RegionId, String)> {
    let mut v: Vec<_> = cube
        .cells
        .iter()
        .map(|(k, c)| (k.clone(), format!("{c:?}")))
        .collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// Enabling a live metrics recorder must not change a single bit of any
/// search, tree or cube result, nor a streaming engine's state after its
/// appends — the observability layer only watches.
#[test]
fn recorder_does_not_change_results() {
    check("recorder_does_not_change_results", 12, |rng| {
        // Random single-dimension region space data: All/{ra, rb, rc}.
        let region_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
            "L",
            "All",
            &["ra", "rb", "rc"],
        ))]);
        let n_items = rng.usize_in(8, 24) as i64;
        let groups: Vec<&str> = (0..n_items)
            .map(|_| *rng.choice(&["ga", "gb"]))
            .collect();
        let mut blocks = Vec::new();
        for region in 0u32..4 {
            let mut block = RegionBlock::new(vec![region], 2);
            for id in 0..n_items {
                if rng.flip(0.85) {
                    block.push(id, &[1.0, rng.f64_in(-10.0, 10.0)], rng.f64_in(-50.0, 50.0));
                }
            }
            blocks.push(block);
        }
        let source = MemorySource::new(blocks);
        let items = ItemTable::from_table(
            &Table::new(
                Schema::from_pairs(&[("id", DataType::Int), ("g", DataType::Str)]).unwrap(),
                vec![
                    Column::from_ints((0..n_items).collect()),
                    Column::from_strs(&groups),
                ],
            )
            .unwrap(),
            "id",
            &[],
            &["g"],
        )
        .unwrap();
        let item_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
            "G",
            "Any",
            &["ga", "gb"],
        ))]);
        let item_coords: HashMap<i64, Vec<u32>> = (0..n_items)
            .map(|id| (id, vec![if groups[id as usize] == "ga" { 1 } else { 2 }]))
            .collect();

        let base = BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(3)
            .error_measure(ErrorMeasure::TrainingSet);
        let off = base.clone().build().unwrap();
        let reg = Registry::shared();
        let on = base.recorder(reg.clone()).build().unwrap();

        let cost = UniformCellCost { rate: 1.0 };
        let tree_cfg = TreeConfig {
            min_node_items: 4,
            ..TreeConfig::default()
        };
        let cube_cfg = CubeConfig { min_subset_size: 3 };

        // Basic search.
        let s_off =
            basic_search(&source, &region_space, &cost, &off, n_items as usize).unwrap();
        let s_on =
            basic_search(&source, &region_space, &cost, &on, n_items as usize).unwrap();
        assert_eq!(format!("{s_off:?}"), format!("{s_on:?}"), "basic search diverged");

        // RainForest tree (canonicalized — see `canon_tree`).
        let t_off =
            build_rainforest(&source, &region_space, &items, None, &off, &tree_cfg).unwrap();
        let t_on =
            build_rainforest(&source, &region_space, &items, None, &on, &tree_cfg).unwrap();
        assert_eq!(canon_tree(&t_off), canon_tree(&t_on), "rainforest tree diverged");

        // Optimized cube (canonicalized — see `canon_cube`).
        let c_off = build_optimized_cube(
            &source,
            &region_space,
            &item_space,
            &item_coords,
            &off,
            &cube_cfg,
        )
        .unwrap();
        let c_on = build_optimized_cube(
            &source,
            &region_space,
            &item_space,
            &item_coords,
            &on,
            &cube_cfg,
        )
        .unwrap();
        assert_eq!(canon_cube(&c_off), canon_cube(&c_on), "optimized cube diverged");

        // Streaming appends, timed layer by layer.
        let wl = build_stream_workload(&StreamConfig {
            n_items: 20,
            weeks: 5,
            leaves: 3,
            open_week: 2,
            seed: rng.next_u64(),
            ..StreamConfig::default()
        });
        let stream = |config: &BellwetherConfig, tag: &str| {
            let dir = std::env::temp_dir().join(format!("bw_props_recorder_{tag}"));
            std::fs::remove_dir_all(&dir).ok();
            let mut engine = StreamingBellwether::create(
                &dir,
                &wl.region_space,
                &wl.input_range(0, 1),
                &wl.item_universe(),
                wl.items.clone(),
                wl.target_map(),
                wl.regions.clone(),
                Arc::new(UniformCellCost { rate: 1.0 }),
                config.clone(),
                wl.items.len(),
                2,
                1 << 20,
            )
            .unwrap();
            for week in 1..5 {
                engine.append(&wl.input_range(week, week + 1)).unwrap();
            }
            let run = (format!("{:?}", engine.search_result()), engine.drift_log().to_vec());
            std::fs::remove_dir_all(&dir).ok();
            run
        };
        assert_eq!(stream(&off, "off"), stream(&on, "on"), "streaming appends diverged");

        // The recorder really was live: the traced runs left counters.
        let snap = reg.snapshot();
        let append_spans = [
            names::STREAM_APPEND,
            names::STREAM_APPEND_DELTA_CUBE,
            names::STREAM_APPEND_BLOCK_BUILD,
            names::STREAM_APPEND_PUBLISH,
            names::STREAM_APPEND_RESCORE,
            names::STREAM_APPEND_COMMIT_WAIT,
            names::STORAGE_APPEND_WRITE,
            names::STORAGE_APPEND_COMMIT,
            names::STORAGE_REFRESH,
        ];
        for path in append_spans {
            assert_eq!(snap.span(path).map(|s| s.calls), Some(4), "{path}");
        }
        // And an append records no span besides these: every span under
        // `stream/append` or `storage/` (a region read is no part of
        // the traced engine's stack) is one of them, once per append.
        for s in &snap.spans {
            if s.path.starts_with("stream/append") || s.path.starts_with("storage/") {
                assert!(append_spans.contains(&s.path.as_str()), "unlisted span {}", s.path);
                assert_eq!(s.calls, 4, "{}", s.path);
            }
        }
        assert!(snap.counter("search/regions_evaluated").is_some());
        assert!(snap.counter("tree/nodes").is_some());
        // The level statistics were counted while they were left alone:
        // every block row of an item adds to the root's total slot.
        let rows: u64 = source.blocks().iter().map(|b| b.n() as u64).sum();
        assert!(snap.counter("tree/slot_adds").unwrap() >= rows);
        assert!(snap.counter("tree/stat_slots").unwrap() >= 1);
    });
}

/// Lemma 1 / Theorem 1 in action: the scan engine's thread count and
/// the decoded-block cache must not change a single bit of any
/// builder's output. Every builder runs at threads ∈ {1, 2, 4, 7}
/// (with `min_chunk` 1, so small fixtures really shard) × cache
/// {off, generous, eviction-churning} and must reproduce the
/// sequential, uncached result exactly.
#[test]
fn thread_count_and_cache_do_not_change_results() {
    check("thread_count_and_cache_do_not_change_results", 6, |rng| {
        // Random blocks over a 7-leaf flat hierarchy (8 regions, so a
        // 7-thread scan gets more than one non-empty chunk).
        let leaves = ["ra", "rb", "rc", "rd", "re", "rf", "rg"];
        let region_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
            "L", "All", &leaves,
        ))]);
        let n_items = rng.usize_in(10, 24) as i64;
        let groups: Vec<&str> = (0..n_items)
            .map(|_| *rng.choice(&["ga", "gb"]))
            .collect();
        let mut blocks = Vec::new();
        for region in 0u32..8 {
            let mut block = RegionBlock::new(vec![region], 2);
            for id in 0..n_items {
                if rng.flip(0.8) {
                    block.push(id, &[1.0, rng.f64_in(-10.0, 10.0)], rng.f64_in(-50.0, 50.0));
                }
            }
            blocks.push(block);
        }
        let block_bytes: usize = blocks.iter().map(|b| b.encoded_len()).sum();
        let items = ItemTable::from_table(
            &Table::new(
                Schema::from_pairs(&[("id", DataType::Int), ("g", DataType::Str)]).unwrap(),
                vec![
                    Column::from_ints((0..n_items).collect()),
                    Column::from_strs(&groups),
                ],
            )
            .unwrap(),
            "id",
            &[],
            &["g"],
        )
        .unwrap();
        let item_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
            "G",
            "Any",
            &["ga", "gb"],
        ))]);
        let item_coords: HashMap<i64, Vec<u32>> = (0..n_items)
            .map(|id| (id, vec![if groups[id as usize] == "ga" { 1 } else { 2 }]))
            .collect();

        let config_for = |par: Parallelism| {
            BellwetherConfig::builder(1e9)
                .min_coverage(0.0)
                .min_examples(3)
                .error_measure(ErrorMeasure::TrainingSet)
                .parallelism(par)
                .build()
                .unwrap()
        };
        let cost = UniformCellCost { rate: 1.0 };
        let tree_cfg = TreeConfig {
            min_node_items: 4,
            ..TreeConfig::default()
        };
        let cube_cfg = CubeConfig { min_subset_size: 3 };

        // One run of every builder against a given source and config,
        // rendered canonically so HashMap iteration order cannot leak in.
        let run_all = |source: &dyn TrainingSource, cfg: &BellwetherConfig| -> Vec<String> {
            let search =
                basic_search(source, &region_space, &cost, cfg, n_items as usize).unwrap();
            let rf =
                build_rainforest(source, &region_space, &items, None, cfg, &tree_cfg).unwrap();
            let naive_tree =
                build_naive_tree(source, &region_space, &items, None, cfg, &tree_cfg).unwrap();
            let mut out = vec![
                format!("{search:?}"),
                format!("{:?}", canon_tree(&rf)),
                format!("{:?}", canon_tree(&naive_tree)),
            ];
            for build in [build_naive_cube, build_single_scan_cube, build_optimized_cube] {
                let cube = build(
                    source,
                    &region_space,
                    &item_space,
                    &item_coords,
                    cfg,
                    &cube_cfg,
                )
                .unwrap();
                out.push(format!("{:?}", canon_cube(&cube)));
            }
            out
        };

        let baseline = run_all(
            &MemorySource::new(blocks.clone()),
            &config_for(Parallelism::sequential()),
        );

        for threads in [1usize, 2, 4, 7] {
            let cfg = config_for(Parallelism::fixed(threads).with_min_chunk(1));
            // Cache off.
            let plain = MemorySource::new(blocks.clone());
            assert_eq!(
                run_all(&plain, &cfg),
                baseline,
                "threads={threads} uncached diverged"
            );
            // Generous cache: everything fits, repeat scans all hit.
            let roomy = CachedSource::new(MemorySource::new(blocks.clone()), block_bytes);
            assert_eq!(
                run_all(&roomy, &cfg),
                baseline,
                "threads={threads} cached diverged"
            );
            let snap = roomy.snapshot();
            assert!(
                snap.cache_hits() > 0,
                "multi-scan builders should hit a roomy cache"
            );
            // Tight cache (two regions' worth): constant eviction churn
            // must not change results either.
            let tight = CachedSource::new(
                MemorySource::new(blocks.clone()),
                blocks.iter().map(|b| b.encoded_len()).max().unwrap() * 2,
            );
            assert_eq!(
                run_all(&tight, &cfg),
                baseline,
                "threads={threads} tight-cache diverged"
            );
            assert!(tight.snapshot().cache_evictions() > 0, "tight cache should evict");
        }
    });
}

/// The batched suffstat kernels pin a canonical summation order that is
/// a function of `n` alone: four lanes, example `r` in lane `r mod 4`,
/// lanes combined `(s0 + s1) + (s2 + s3)`. This test drives the full
/// scan + algebraic-CV pipeline over blocks whose row counts cover every
/// `n mod 4` tail, across thread counts, and demands bit-identical
/// search output (`f64`'s `Debug` repr round-trips bits, so string
/// equality is bit equality).
#[test]
fn scan_suffstats_bit_identical_across_threads_and_tails() {
    check("scan_suffstats_threads_tails", 8, |rng| {
        let leaves = ["ra", "rb", "rc", "rd", "re", "rf", "rg"];
        let region_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
            "L", "All", &leaves,
        ))]);
        // Region r gets 4k + (r mod 4) rows: every dot4 tail length
        // occurs in every generated case, in leaf regions and in the
        // unions the rollup regions see.
        let mut blocks = Vec::new();
        let mut n_items = 0i64;
        for region in 0u32..8 {
            let n_rows = 4 * rng.usize_in(2, 6) + region as usize % 4;
            let mut block = RegionBlock::new(vec![region], 2);
            for _ in 0..n_rows {
                block.push(
                    n_items,
                    &[1.0, rng.f64_in(-10.0, 10.0)],
                    rng.f64_in(-50.0, 50.0),
                );
                n_items += 1;
            }
            blocks.push(block);
        }
        let cost = UniformCellCost { rate: 1.0 };
        let config_for = |threads: usize| {
            BellwetherConfig::builder(1e9)
                .min_coverage(0.0)
                .min_examples(6)
                .error_measure(ErrorMeasure::CrossValidation { folds: 3, seed: 7 })
                .parallelism(Parallelism::fixed(threads).with_min_chunk(1))
                .build()
                .unwrap()
        };
        let run = |threads: usize| -> String {
            let source = MemorySource::new(blocks.clone());
            let search =
                basic_search(&source, &region_space, &cost, &config_for(threads), n_items as usize)
                    .unwrap();
            format!("{search:?}")
        };
        let baseline = run(1);
        for threads in [2usize, 4, 7] {
            assert_eq!(run(threads), baseline, "threads={threads} diverged");
        }
    });
}

/// Classic per-fold refit CV, used as the reference for the algebraic
/// engine: every fold trains on a fresh copy of its complement with the
/// Gram matrix rebuilt from raw rows. Mirrors the engine's fold
/// shuffling exactly.
fn refit_cv(data: &RegressionData, k: usize, seed: u64) -> Option<f64> {
    use bellwether::linreg::{fit_wls, fold_assignment};
    let n = data.n();
    if n < 2 {
        return None;
    }
    let assignment = fold_assignment(n, k, seed);
    let k = assignment.iter().copied().max().map_or(1, |m| m + 1);
    let mut fold_rmses = Vec::new();
    for fold in 0..k {
        let mut train = RegressionData::new(data.p());
        for (i, &f) in assignment.iter().enumerate() {
            if f != fold {
                train.push(&data.row(i), data.y(i));
            }
        }
        let Some(model) = fit_wls(&train) else { continue };
        let (mut sse, mut count) = (0.0, 0usize);
        for (i, &f) in assignment.iter().enumerate() {
            if f == fold {
                let r = data.y(i) - data.predict_at(i, model.coefficients());
                sse += r * r;
                count += 1;
            }
        }
        if count > 0 {
            fold_rmses.push((sse / count as f64).sqrt());
        }
    }
    if fold_rmses.is_empty() {
        None
    } else {
        Some(ErrorEstimate::from_folds(&fold_rmses).value)
    }
}

/// The algebraic CV engine (one statistics pass + k downdated solves,
/// through reusable per-worker scratch) agrees with the classic
/// per-fold refit within 1e-8 relative on well-conditioned data, for
/// every reported region, across folds {2, 5, 10} × threads {1, 2, 4}.
#[test]
fn algebraic_cv_matches_refit_cv() {
    check("algebraic_cv_matches_refit_cv", 6, |rng| {
        let leaves = ["ra", "rb", "rc", "rd", "re", "rf", "rg"];
        let region_space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
            "L", "All", &leaves,
        ))]);
        // Well-conditioned regions: wide x spread, modest noise, enough
        // rows that no fold complement is ever rank-deficient.
        let mut blocks = Vec::new();
        for region in 0u32..8 {
            let mut block = RegionBlock::new(vec![region], 2);
            let n = rng.usize_in(25, 60);
            let (a, b) = (rng.f64_in(-5.0, 5.0), rng.f64_in(-3.0, 3.0));
            for id in 0..n as i64 {
                let x = rng.f64_in(-10.0, 10.0);
                let y = a + b * x + rng.f64_in(-1.0, 1.0);
                block.push(id, &[1.0, x], y);
            }
            blocks.push(block);
        }
        let source = MemorySource::new(blocks.clone());
        let cost = UniformCellCost { rate: 1.0 };
        let n_items = 60;

        for folds in [2usize, 5, 10] {
            // Reference errors, region by region, via classic refits.
            let refit: Vec<Option<f64>> = blocks
                .iter()
                .map(|b| {
                    let mut data = RegressionData::new(2);
                    data.extend_from_cols(b.cols(), &b.targets);
                    refit_cv(&data, folds, 0xBE11)
                })
                .collect();

            for threads in [1usize, 2, 4] {
                let cfg = BellwetherConfig::builder(1e9)
                    .min_coverage(0.0)
                    .min_examples(5)
                    .error_measure(ErrorMeasure::CrossValidation {
                        folds,
                        seed: 0xBE11,
                    })
                    .parallelism(Parallelism::fixed(threads).with_min_chunk(1))
                    .build()
                    .unwrap();
                let search =
                    basic_search(&source, &region_space, &cost, &cfg, n_items).unwrap();
                assert!(!search.reports.is_empty());
                for report in &search.reports {
                    let expect = refit[report.source_index]
                        .expect("refit fits wherever the engine fit");
                    let diff = (report.error.value - expect).abs();
                    assert!(
                        diff < 1e-8 * expect.abs() || diff < 1e-9,
                        "folds={folds} threads={threads} region {}: \
                         engine {} vs refit {expect}",
                        report.source_index,
                        report.error.value
                    );
                }
            }
        }
    });
}

/// Every builder answers "which region is the bellwether for all
/// items?" through the same algebraic error engine, so on one retail
/// workload they must all select the same region with the same error
/// (1e-8 relative): basic search, both trees and both row-level cubes
/// under cross-validation and under training-set error, plus the
/// training-set-only optimized cube and the item-fold CV cube (whose
/// fold *partition* differs by design, so only its selection is
/// compared).
#[test]
fn all_builders_agree_on_retail_bellwether() {
    let mut retail_cfg = RetailConfig::mail_order(40, 5);
    retail_cfg.months = 4;
    retail_cfg.converge_month = 3;
    retail_cfg.states = Some(vec!["MD", "WI", "CA", "NY"]);
    let data = generate_retail(&retail_cfg);
    let (task, par) = (data.task(), Parallelism::default());
    let regions = task.regions_within(f64::INFINITY);
    let source = task.materialize(&regions, Memory, par, &NoopRecorder).unwrap();
    let n_items = data.items.len();
    let root_subset = RegionId(vec![0]); // the item space's "Any" root

    let tree_cfg = TreeConfig {
        max_depth: 1,
        min_node_items: 10,
        ..TreeConfig::default()
    };
    let cube_cfg = CubeConfig {
        min_subset_size: 5,
    };

    for measure in [ErrorMeasure::cv10(), ErrorMeasure::TrainingSet] {
        let problem = BellwetherConfig::builder(f64::INFINITY)
            .min_coverage(0.0)
            .min_examples(10)
            .error_measure(measure)
            .build()
            .unwrap();

        // (builder name, selected source index, error) per builder.
        let mut selections: Vec<(&str, usize, f64)> = Vec::new();

        let search =
            basic_search(&source, &data.space, &data.cost, &problem, n_items).unwrap();
        let best = search.bellwether().expect("basic search finds a bellwether");
        selections.push(("basic", best.source_index, best.error.value));

        let rf = build_rainforest(&source, &data.space, &data.items, None, &problem, &tree_cfg)
            .unwrap();
        let info = rf.root().info.as_ref().expect("RF root bellwether");
        selections.push(("rainforest", info.region_index, info.error));

        let naive_tree =
            build_naive_tree(&source, &data.space, &data.items, None, &problem, &tree_cfg)
                .unwrap();
        let info = naive_tree.root().info.as_ref().expect("naive-tree root bellwether");
        selections.push(("naive_tree", info.region_index, info.error));

        let ncube = build_naive_cube(
            &source,
            &data.space,
            &data.item_space,
            &data.item_coords,
            &problem,
            &cube_cfg,
        )
        .unwrap();
        let cell = ncube.cell(&root_subset).expect("naive cube root cell");
        selections.push(("naive_cube", cell.region_index, cell.error.value));

        let scube = build_single_scan_cube(
            &source,
            &data.space,
            &data.item_space,
            &data.item_coords,
            &problem,
            &cube_cfg,
        )
        .unwrap();
        let cell = scube.cell(&root_subset).expect("single-scan cube root cell");
        selections.push(("single_scan_cube", cell.region_index, cell.error.value));

        if measure == ErrorMeasure::TrainingSet {
            let ocube = build_optimized_cube(
                &source,
                &data.space,
                &data.item_space,
                &data.item_coords,
                &problem,
                &cube_cfg,
            )
            .unwrap();
            let cell = ocube.cell(&root_subset).expect("optimized cube root cell");
            selections.push(("optimized_cube", cell.region_index, cell.error.value));
        }

        let (_, want_idx, want_err) = selections[0];
        for (name, idx, err) in &selections {
            assert_eq!(
                *idx, want_idx,
                "{name} selected region {idx}, basic search selected {want_idx} ({measure:?})"
            );
            let diff = (err - want_err).abs();
            assert!(
                diff < 1e-8 * want_err.abs() || diff < 1e-9,
                "{name} error {err} vs basic {want_err} ({measure:?})"
            );
        }

        // Under cross-validation the optimized cube partitions folds by
        // item hash instead of row shuffle — numerically a different
        // estimate, but it must still pick the same bellwether for the
        // all-items subset.
        if measure != ErrorMeasure::TrainingSet {
            let cvcube = build_optimized_cube(
                &source,
                &data.space,
                &data.item_space,
                &data.item_coords,
                &problem,
                &cube_cfg,
            )
            .unwrap();
            let cell = cvcube.cell(&root_subset).expect("CV cube root cell");
            assert_eq!(
                cell.region_index, want_idx,
                "item-fold CV cube selected region {}, others selected {want_idx}",
                cell.region_index
            );
        }
    }
}
