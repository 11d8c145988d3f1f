//! Tests of the level scorer. The row reader — cross-validation's path,
//! and the only path until the training-set measure got per-slot
//! statistics — is held to the hash-routed oracle bit for bit, and is
//! itself the oracle of the statistics path: same gates, same `n`,
//! errors equal up to the reordering of the sums.

use super::*;
use crate::items::ItemTable;
use crate::tree::naive::build_naive;
use crate::tree::rainforest::build_rainforest;
use crate::tree::tests_support::oracle;
use crate::tree::{BellwetherTree, TreeConfig};
use bellwether_cube::{Dimension, Hierarchy, Parallelism, RegionSpace};
use bellwether_prop::{check, Rng};
use bellwether_storage::MemorySource;
use bellwether_table::{Column, DataType, Schema, Table};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

thread_local! {
    /// While set, plans built on this thread read gathered rows whatever
    /// the measure (see [`with_gather_oracle`]).
    pub(super) static GATHER_ORACLE: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with every [`LevelPlan`] built on this thread scoring through
/// gathered rows — the reader cross-validation runs, and what the
/// training-set measure did before it had slot statistics — as the
/// statistics' oracle.
pub(crate) fn with_gather_oracle<T>(f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            GATHER_ORACLE.with(|o| o.set(false));
        }
    }
    GATHER_ORACLE.with(|o| o.set(true));
    let _reset = Reset;
    f()
}

fn block() -> RegionBlock {
    let mut b = RegionBlock::new(vec![0], 2);
    // items 0..10: y = 2x; items 10..20: y = -3x
    for i in 0..20i64 {
        let x = i as f64;
        let y = if i < 10 { 2.0 * x } else { -3.0 * x };
        b.push(i, &[1.0, x], y);
    }
    b
}

fn config() -> BellwetherConfig {
    BellwetherConfig::builder(1.0)
        .min_examples(3)
        .error_measure(ErrorMeasure::TrainingSet)
        .build()
        .unwrap()
}

fn categorical(partition: Vec<Vec<usize>>) -> CandidateSplit {
    CandidateSplit {
        criterion: SplitCriterion::Categorical {
            attr: 0,
            code_children: HashMap::new(),
        },
        partition,
    }
}

/// The thresholds of numeric attribute `attr` over `items` (positions)
/// with `value_of` giving an item's value, as `candidate_splits` lays a
/// threshold's children out.
fn thresholds(
    attr: usize,
    items: &[usize],
    value_of: impl Fn(usize) -> f64,
    thresholds: &[f64],
) -> Vec<CandidateSplit> {
    thresholds
        .iter()
        .map(|&threshold| {
            let mut partition = vec![Vec::new(), Vec::new()];
            for &item in items {
                partition[usize::from(value_of(item) >= threshold)].push(item);
            }
            CandidateSplit {
                criterion: SplitCriterion::Numeric { attr, threshold },
                partition,
            }
        })
        .collect()
}

/// What one block yields under a plan: per node its own error, and per
/// node, candidate and child the child's error.
#[derive(Debug, Clone, PartialEq)]
struct Scores {
    own: Vec<Option<f64>>,
    children: Vec<Vec<Vec<Option<f64>>>>,
}

fn bits(errs: &[Option<f64>]) -> Vec<Option<u64>> {
    errs.iter().map(|e| e.map(f64::to_bits)).collect()
}

fn score(
    plan: &LevelPlan,
    nodes: &[(&[usize], &[CandidateSplit])],
    block: &RegionBlock,
    scratch: &mut RoutedScratch,
    config: &BellwetherConfig,
    scope: Scope,
) -> Scores {
    let mut scores = Scores {
        own: vec![None; nodes.len()],
        children: nodes
            .iter()
            .map(|(_, cands)| cands.iter().map(|c| vec![None; c.partition.len()]).collect())
            .collect(),
    };
    plan.score(block, scratch, config, scope, |node, scored, err| {
        let slot = match scored {
            Scored::Node => &mut scores.own[node],
            Scored::Child { cand, child } => &mut scores.children[node][cand][child],
        };
        assert!(slot.replace(err).is_none(), "{scored:?} of node {node} reported twice");
    });
    scores
}

/// Child errors of one categorical split of exactly the children's
/// items.
fn partition_errors(
    block: &RegionBlock,
    child_ids: &[HashSet<i64>],
    config: &BellwetherConfig,
) -> Vec<Option<f64>> {
    let mut ids: Vec<i64> = child_ids.iter().flatten().copied().collect();
    ids.sort_unstable();
    let index = ItemIndex::new(&ids);
    let node: Vec<usize> = (0..ids.len()).collect();
    let partition = child_ids
        .iter()
        .map(|c| c.iter().map(|&id| index.get(id).unwrap()).collect())
        .collect();
    let candidates = [categorical(partition)];
    let nodes = [(node.as_slice(), candidates.as_slice())];
    let plan = LevelPlan::new(&index, config.error_measure, &nodes);
    let mut scratch = RoutedScratch::new();
    score(&plan, &nodes, block, &mut scratch, config, Scope::Level)
        .children
        .remove(0)
        .remove(0)
}

/// [`partition_errors`] through the statistics and through the oracle.
fn both_paths(
    block: &RegionBlock,
    child_ids: &[HashSet<i64>],
) -> [Vec<Option<f64>>; 2] {
    [
        partition_errors(block, child_ids, &config()),
        with_gather_oracle(|| partition_errors(block, child_ids, &config())),
    ]
}

#[test]
fn children_score_independently() {
    let b = block();
    let low: HashSet<i64> = (0..10).collect();
    let high: HashSet<i64> = (10..20).collect();
    for errs in both_paths(&b, &[low, high]) {
        // each side is a perfect line → ~0 error
        assert!(errs[0].unwrap() < 1e-6);
        assert!(errs[1].unwrap() < 1e-6);
    }
    // mixed set is NOT a line → substantial error
    for mixed in both_paths(&b, &[(0..20).collect()]) {
        assert!(mixed[0].unwrap() > 1.0);
    }
}

#[test]
fn partition_errors_match_direct_subset_computation() {
    let b = block();
    let subset: HashSet<i64> = [1, 3, 5, 7, 9].into_iter().collect();
    let direct = config()
        .error_measure
        .estimate_with(&oracle::gather(&b, &subset).0, &mut EvalScratch::new())
        .unwrap()
        .value;
    let [stats, gathered] = both_paths(&b, &[subset]);
    assert_eq!(direct.to_bits(), gathered[0].unwrap().to_bits());
    assert!((stats[0].unwrap() - direct).abs() < 1e-9);
}

#[test]
fn tiny_children_are_none() {
    let tiny: HashSet<i64> = [0, 1].into_iter().collect();
    for errs in both_paths(&block(), &[tiny]) {
        assert_eq!(errs, [None]);
    }
}

#[test]
fn absent_items_are_ignored() {
    let ghost: HashSet<i64> = (100..120).collect();
    for errs in both_paths(&block(), &[ghost]) {
        assert_eq!(errs, [None]);
    }
}

/// One random scan level: an item universe, disjoint nodes over part of
/// it, candidate criteria per node, and blocks whose ids need not
/// respect any of that.
struct Level {
    ids: Vec<i64>,
    nodes: Vec<Vec<usize>>,
    candidates: Vec<Vec<CandidateSplit>>,
    blocks: Vec<RegionBlock>,
    config: BellwetherConfig,
}

impl Level {
    fn nodes(&self) -> Vec<(&[usize], &[CandidateSplit])> {
        let nodes = self.nodes.iter().zip(&self.candidates);
        nodes.map(|(items, cands)| (items.as_slice(), cands.as_slice())).collect()
    }

    fn id_set(&self, items: &[usize]) -> HashSet<i64> {
        items.iter().map(|&item| self.ids[item]).collect()
    }
}

/// Candidate criteria over `items` the way a node enumerates them: a few
/// categorical attributes (some leaving items in no child), then the
/// threshold runs of a few numeric ones — with ties, repeated
/// thresholds, a NaN threshold, NaN values, and now and then a run out
/// of order.
fn random_candidates(rng: &mut Rng, items: &[usize]) -> Vec<CandidateSplit> {
    let mut out = Vec::new();
    for _ in 0..rng.usize_in(0, 3) {
        let mut children = vec![Vec::new(); rng.usize_in(1, 5)];
        for &item in items {
            if !rng.flip(0.1) {
                let c = rng.below(children.len());
                children[c].push(item);
            }
        }
        out.push(categorical(children));
    }
    for attr in 0..rng.usize_in(0, 3) {
        let values: HashMap<usize, f64> = items
            .iter()
            .map(|&item| {
                let v = if rng.flip(0.05) {
                    f64::NAN
                } else {
                    rng.usize_in(0, 8) as f64
                };
                (item, v)
            })
            .collect();
        let mut ts: Vec<f64> = (0..rng.usize_in(1, 5))
            .map(|_| rng.usize_in(0, 8) as f64 + 0.5)
            .collect();
        ts.sort_by(f64::total_cmp);
        if rng.flip(0.3) {
            ts.push(*ts.last().unwrap()); // equal thresholds
        }
        if rng.flip(0.2) {
            ts.push(f64::NAN);
        }
        if rng.flip(0.15) {
            rng.shuffle(&mut ts);
        }
        out.extend(thresholds(attr, items, |item| values[&item], &ts));
    }
    out
}

fn random_level(rng: &mut Rng, measure: Option<ErrorMeasure>) -> Level {
    let n_items = rng.usize_in(1, 60);
    let mut ids: Vec<i64> = match rng.below(3) {
        0 => (0..n_items as i64).collect(),
        1 => (0..n_items as i64).map(|i| 3 * i - 70).collect(),
        _ => (0..n_items).map(|_| rng.next_u64() as i64).collect(),
    };
    ids.sort_unstable();
    ids.dedup();
    rng.shuffle(&mut ids);
    // Items land in one of the nodes or (last bucket) in none, as when
    // `root_rows` restricts a tree to part of the item table.
    let n_nodes = rng.usize_in(1, 6);
    let mut nodes = vec![Vec::new(); n_nodes];
    for item in 0..ids.len() {
        let g = rng.below(n_nodes + 1);
        if g < n_nodes {
            nodes[g].push(item);
        }
    }
    let candidates = nodes.iter().map(|items| random_candidates(rng, items)).collect();
    let p = rng.usize_in(1, 7);
    let blocks = (0..rng.usize_in(1, 5))
        .map(|r| {
            let mut b = RegionBlock::new(vec![r as u32], p as u32);
            // Some blocks draw from few items, so whole nodes are
            // absent from them and ids repeat.
            let pool = rng.usize_in(1, ids.len() + 1);
            for _ in 0..rng.usize_in(0, 120) {
                let id = if rng.flip(0.15) {
                    rng.next_u64() as i64 // most likely not an item
                } else {
                    ids[rng.below(pool)]
                };
                let mut x = vec![1.0];
                x.extend((1..p).map(|_| rng.f64_in(-10.0, 10.0)));
                b.push(id, &x, rng.f64_in(-50.0, 50.0));
            }
            b
        })
        .collect();
    let measure = measure.unwrap_or_else(|| {
        if rng.flip(0.5) {
            ErrorMeasure::TrainingSet
        } else {
            ErrorMeasure::CrossValidation {
                folds: rng.usize_in(2, 5),
                seed: rng.next_u64(),
            }
        }
    });
    let config = BellwetherConfig::builder(1.0)
        .min_examples(rng.usize_in(1, 6))
        .error_measure(measure)
        .build()
        .unwrap();
    Level {
        ids,
        nodes,
        candidates,
        blocks,
        config,
    }
}

#[test]
fn dense_routing_matches_the_hash_oracle_bit_for_bit() {
    check("dense_routing_matches_the_hash_oracle", 200, |rng| {
        let level = random_level(rng, None);
        let index = ItemIndex::new(&level.ids);
        let nodes = level.nodes();
        let plan = with_gather_oracle(|| LevelPlan::new(&index, level.config.error_measure, &nodes));
        let mut scratch = RoutedScratch::new();
        let mut rows = 0;
        for block in &level.blocks {
            let got = score(&plan, &nodes, block, &mut scratch, &level.config, Scope::Level);
            rows += block.n() as u64;
            assert_eq!(scratch.rows_routed, rows);
            for (g, &(items, candidates)) in nodes.iter().enumerate() {
                let (data, ids) = oracle::gather(block, &level.id_set(items));
                let own = oracle::error_of(&data, &level.config);
                // A node without rows in the block reports nothing.
                let own = own.filter(|_| data.n() > 0);
                assert_eq!(got.own[g].map(f64::to_bits), own.map(f64::to_bits));
                for (c, cand) in candidates.iter().enumerate() {
                    let child_ids: Vec<HashSet<i64>> =
                        cand.partition.iter().map(|c| level.id_set(c)).collect();
                    let mut hashed = oracle::HashPartitionSpec::new(&child_ids)
                        .errors(&data, &ids, &level.config);
                    if data.n() == 0 {
                        hashed.fill(None);
                    }
                    assert_eq!(bits(&got.children[g][c]), bits(&hashed));
                }
            }
        }
    });
}

/// Under cross-validation a child's rows are read off the bucket table.
/// Whatever the criteria — categorical values no item of the node has,
/// items in no child, equal thresholds, NaN values — every set the
/// reader hands out holds exactly the block's rows of its `partition`
/// items (or the node's items), ascending, and a node without rows in
/// the block hands out nothing.
#[test]
fn the_cv_reader_gathers_each_childs_partition() {
    let nonempty = Cell::new(0);
    check("cv_reader_children_are_partitions", 300, |rng| {
        let level = random_level(rng, Some(ErrorMeasure::CrossValidation { folds: 3, seed: 1 }));
        let index = ItemIndex::new(&level.ids);
        let nodes = level.nodes();
        let plan = LevelPlan::new(&index, level.config.error_measure, &nodes);
        assert_eq!(plan.stat_slots(), 0);
        let mut scratch = RoutedScratch::new();
        for block in &level.blocks {
            let mut got = Vec::new();
            plan.read_rows(block, &mut scratch, Scope::Level, |g, scored, rows, _| {
                got.push((g, scored, rows.to_vec()));
            });
            let rows_of = |items: &[usize]| -> Vec<usize> {
                let ids = level.id_set(items);
                (0..block.n()).filter(|&i| ids.contains(&block.item_ids[i])).collect()
            };
            let mut want = Vec::new();
            for (g, &(items, candidates)) in nodes.iter().enumerate() {
                if rows_of(items).is_empty() {
                    continue;
                }
                want.push((g, Scored::Node, rows_of(items)));
                for (cand, c) in candidates.iter().enumerate() {
                    for (child, members) in c.partition.iter().enumerate() {
                        want.push((g, Scored::Child { cand, child }, rows_of(members)));
                    }
                }
            }
            nonempty.set(nonempty.get() + want.iter().filter(|(.., rows)| !rows.is_empty()).count());
            assert_eq!(got, want);
        }
    });
    assert!(nonempty.get() > 5_000, "only {} non-empty sets", nonempty.get());
}

/// `Σ y²` and the row count of the rows of `block` whose item is in
/// `ids`.
fn ytwy_and_n(block: &RegionBlock, ids: &HashSet<i64>) -> (f64, usize) {
    let rows = (0..block.n()).filter(|&i| ids.contains(&block.item_ids[i]));
    rows.fold((0.0, 0), |(sum, n), i| (sum + block.y(i) * block.y(i), n + 1))
}

/// The statistics path against the gather oracle on one set of rows:
/// the same gates pass, and the two sums of squared errors differ by no
/// more than reordering `n` additions can move them. The bound is
/// stated against `Y'WY`, the magnitude the subtraction
/// `Y'WY − (X'WY)'β` starts from — not against the error, which a
/// near-perfect fit cancels to nothing. `C` covers the design: a
/// perturbation `δG` of the Gram system moves the SSE by
/// `[1, −β]' δG [1, −β]`, i.e. by `(1 + |x'β| / |y|)²` times the
/// perturbation of `Y'WY` alone.
fn assert_same_error(
    what: &str,
    stats: Option<f64>,
    gathered: Option<f64>,
    p: usize,
    (ytwy, n): (f64, usize),
) {
    const C: f64 = 64.0;
    assert_eq!(stats.is_some(), gathered.is_some(), "{what}: {stats:?} vs {gathered:?}");
    let (Some(stats), Some(gathered)) = (stats, gathered) else { return };
    let dof = (n - p) as f64;
    let delta = (stats * stats * dof - gathered * gathered * dof).abs();
    let bound = C * n as f64 * f64::EPSILON * ytwy;
    assert!(
        delta <= bound,
        "{what}: SSE {} vs {} differ by {delta:e} > {bound:e} (n = {n})",
        stats * stats * dof,
        gathered * gathered * dof
    );
}

/// Hold `level`'s statistics scores to the gather oracle, block by
/// block; returns how many errors were compared.
fn assert_statistics_match_the_oracle(level: &Level) -> usize {
    let index = ItemIndex::new(&level.ids);
    let nodes = level.nodes();
    let measure = level.config.error_measure;
    let plan = LevelPlan::new(&index, measure, &nodes);
    let oracle_plan = with_gather_oracle(|| LevelPlan::new(&index, measure, &nodes));
    assert!(plan.stat_slots() >= nodes.len());
    assert_eq!(oracle_plan.stat_slots(), 0);
    let (mut scratch, mut oracle_scratch) = (RoutedScratch::new(), RoutedScratch::new());
    let mut compared = 0;
    for block in &level.blocks {
        let p = block.p as usize;
        let got = score(&plan, &nodes, block, &mut scratch, &level.config, Scope::Level);
        let want = score(
            &oracle_plan,
            &nodes,
            block,
            &mut oracle_scratch,
            &level.config,
            Scope::Level,
        );
        for (g, &(items, candidates)) in nodes.iter().enumerate() {
            let of_node = ytwy_and_n(block, &level.id_set(items));
            assert_same_error(&format!("node {g}"), got.own[g], want.own[g], p, of_node);
            compared += usize::from(got.own[g].is_some());
            for (c, cand) in candidates.iter().enumerate() {
                for (child, members) in cand.partition.iter().enumerate() {
                    let what = format!("node {g} {:?} child {child}", cand.criterion);
                    let (stats, gathered) =
                        (got.children[g][c][child], want.children[g][c][child]);
                    let of_child = ytwy_and_n(block, &level.id_set(members));
                    assert_same_error(&what, stats, gathered, p, of_child);
                    compared += usize::from(stats.is_some());
                }
            }
        }
        // What a scan asks for does not change what it gets: the naive
        // tree's scans and the RainForest scans below the root read the
        // very bits of the root's level scan, from either path, into a
        // scratch that saw other blocks — and a plan without candidates
        // (the naive root's) reads the same own errors.
        let bare: Vec<(&[usize], &[CandidateSplit])> =
            nodes.iter().map(|&(items, _)| (items, &[][..])).collect();
        let bare_plans = [
            LevelPlan::new(&index, measure, &bare),
            with_gather_oracle(|| LevelPlan::new(&index, measure, &bare)),
        ];
        for ((plan, level_scores), bare_plan) in [(&plan, &got), (&oracle_plan, &want)].into_iter().zip(&bare_plans) {
            let mut fresh = RoutedScratch::new();
            let own = score(bare_plan, &bare, block, &mut fresh, &level.config, Scope::Level);
            assert_eq!(bits(&own.own), bits(&level_scores.own));
            let children = score(plan, &nodes, block, &mut fresh, &level.config, Scope::Children);
            assert!(children.own.iter().all(Option::is_none));
            let pairs = children.children.iter().flatten().zip(level_scores.children.iter().flatten());
            pairs.for_each(|(errs, level_errs)| assert_eq!(bits(errs), bits(level_errs)));
            let most = level.candidates.iter().map(Vec::len).max().unwrap_or(0);
            for c in 0..most {
                let one = score(plan, &nodes, block, &mut fresh, &level.config, Scope::Candidate(c));
                assert!(one.own.iter().all(Option::is_none));
                for (g, node) in one.children.iter().enumerate() {
                    for (other, errs) in node.iter().enumerate() {
                        if other == c {
                            assert_eq!(bits(errs), bits(&level_scores.children[g][c]));
                        } else {
                            assert!(errs.iter().all(Option::is_none));
                        }
                    }
                }
            }
        }
    }
    compared
}

#[test]
fn statistics_match_the_gather_oracle_within_the_summation_bound() {
    let compared = Cell::new(0);
    check("level_statistics_vs_gather_oracle", 300, |rng| {
        let level = random_level(rng, Some(ErrorMeasure::TrainingSet));
        compared.set(compared.get() + assert_statistics_match_the_oracle(&level));
    });
    assert!(compared.get() > 5_000, "only {} errors compared", compared.get());
}

#[test]
fn equal_nan_and_unordered_thresholds_need_no_special_case() {
    // Values with ties and a NaN; thresholds that repeat, that no value
    // reaches, that every value reaches, a NaN one, and a run that
    // descends (which no enumeration produces, and which must then
    // simply not share buckets).
    let values = [1.0, 2.0, 2.0, 3.0, f64::NAN, 5.0, 0.0, 2.0, 4.0, 4.0, 1.0, 3.0];
    let items: Vec<usize> = (0..values.len()).collect();
    let ids: Vec<i64> = (0..values.len() as i64).collect();
    let mut rng = Rng::new(5);
    let mut block = RegionBlock::new(vec![0], 2);
    for _ in 0..4 {
        for &id in &ids {
            block.push(id, &[1.0, rng.f64_in(-10.0, 10.0)], rng.f64_in(-50.0, 50.0));
        }
    }
    for ts in [
        &[2.0, 2.0, 2.5, 2.5][..],
        &[-1.0, 0.5, 9.0],
        &[1.5, f64::NAN, 3.5],
        &[f64::NAN],
        &[3.5, 2.5, 1.5],
        &[1.5, 3.5, 2.5, 4.5, 0.5],
    ] {
        let mut candidates = thresholds(0, &items, |item| values[item], ts);
        candidates.extend(thresholds(1, &items, |item| -values[item], &[-2.5, -2.5, -1.5]));
        let level = Level {
            ids: ids.clone(),
            nodes: vec![items.clone()],
            candidates: vec![candidates],
            blocks: vec![block.clone()],
            config: BellwetherConfig::builder(1.0)
                .min_examples(1)
                .error_measure(ErrorMeasure::TrainingSet)
                .build()
                .unwrap(),
        };
        assert!(assert_statistics_match_the_oracle(&level) > ts.len());
    }
}

#[test]
fn a_threshold_child_keeps_its_digits_beside_a_huge_sibling() {
    // A child is the sum of its own buckets and of nothing else. Were
    // child 1 read as `total − child 0` (or the reverse), rows nine
    // orders of magnitude larger on the other side of the threshold
    // would cancel every digit it has; the bound in
    // `assert_same_error` is stated against the child's own `Y'WY`.
    let items: Vec<usize> = (0..20).collect();
    let ids: Vec<i64> = (0..20).collect();
    for huge_side in [0, 1] {
        let mut rng = Rng::new(3 + huge_side as u64);
        let mut block = RegionBlock::new(vec![0], 2);
        for _ in 0..5 {
            for &id in &ids {
                let scale = if usize::from(id >= 10) == huge_side { 1e9 } else { 1.0 };
                let x = rng.f64_in(-10.0, 10.0);
                block.push(id, &[1.0, x], scale * (3.0 * x + rng.f64_in(-50.0, 50.0)));
            }
        }
        let level = Level {
            ids: ids.clone(),
            nodes: vec![items.clone()],
            candidates: vec![thresholds(0, &items, |item| item as f64, &[4.5, 9.5, 14.5])],
            blocks: vec![block],
            config: config(),
        };
        assert_eq!(assert_statistics_match_the_oracle(&level), 1 + 3 * 2);
    }
}

#[test]
fn the_gates_are_the_oracles_gates() {
    // Children of 0..=8 rows under p = 1..=6 features and min_examples
    // 1..=8: a child scores iff it has min_examples rows and more rows
    // than features.
    for p in 1..=6usize {
        let ids: Vec<i64> = (0..9).collect();
        let items: Vec<usize> = (0..9).collect();
        let mut rng = Rng::new(p as u64);
        let mut block = RegionBlock::new(vec![0], p as u32);
        for &id in &ids {
            // Item `id` has `id` rows.
            for _ in 0..id {
                let mut x = vec![1.0];
                x.extend((1..p).map(|_| rng.f64_in(-10.0, 10.0)));
                block.push(id, &x, rng.f64_in(-50.0, 50.0));
            }
        }
        let candidates = vec![categorical(items.iter().map(|&item| vec![item]).collect())];
        for min_examples in 1..=8 {
            let level = Level {
                ids: ids.clone(),
                nodes: vec![items.clone()],
                candidates: vec![candidates.clone()],
                blocks: vec![block.clone()],
                config: BellwetherConfig::builder(1.0)
                    .min_examples(min_examples)
                    .error_measure(ErrorMeasure::TrainingSet)
                    .build()
                    .unwrap(),
            };
            assert_statistics_match_the_oracle(&level);
            let index = ItemIndex::new(&level.ids);
            let nodes = level.nodes();
            let plan = LevelPlan::new(&index, ErrorMeasure::TrainingSet, &nodes);
            let mut scratch = RoutedScratch::new();
            let got = score(&plan, &nodes, &block, &mut scratch, &level.config, Scope::Level);
            for (rows, err) in got.children[0][0].iter().enumerate() {
                assert_eq!(err.is_some(), rows >= min_examples && rows > p, "{rows} rows, p = {p}");
            }
            // One fit per scored child and one for the node.
            let scored = got.children[0][0].iter().flatten().count() as u64;
            assert_eq!(scratch.eval.eval.stats.fits, scored + 1);
        }
    }
}

#[test]
fn a_split_may_have_more_than_255_children() {
    // 300 children of two items each; a narrower slot would alias
    // child 256 onto child 0.
    let n_children = 300;
    let ids: Vec<i64> = (0..2 * n_children).collect();
    let child_ids: Vec<HashSet<i64>> =
        (0..n_children).map(|c| HashSet::from([2 * c, 2 * c + 1])).collect();
    let mut rng = Rng::new(7);
    let mut block = RegionBlock::new(vec![0], 2);
    for _ in 0..3 {
        for &id in &ids {
            block.push(id, &[1.0, rng.f64_in(-10.0, 10.0)], rng.f64_in(-50.0, 50.0));
        }
    }
    let (data, row_ids) = oracle::gather(&block, &ids.iter().copied().collect());
    let hashed = oracle::HashPartitionSpec::new(&child_ids).errors(&data, &row_ids, &config());
    assert!(hashed.iter().all(Option::is_some));

    let gathered = with_gather_oracle(|| partition_errors(&block, &child_ids, &config()));
    assert_eq!(bits(&gathered), bits(&hashed));

    let stats = partition_errors(&block, &child_ids, &config());
    assert_eq!(stats.len(), n_children as usize);
    for (c, (stats, gathered)) in stats.iter().zip(&gathered).enumerate() {
        let of_child = ytwy_and_n(&block, &child_ids[c]);
        assert_same_error(&format!("child {c}"), *stats, *gathered, 2, of_child);
    }
}

#[test]
fn warm_routed_scratch_stops_growing() {
    let mut rng = Rng::new(11);
    let level = loop {
        let level = random_level(&mut rng, Some(ErrorMeasure::TrainingSet));
        let numeric = |c: &CandidateSplit| matches!(c.criterion, SplitCriterion::Numeric { .. });
        if level.blocks.iter().any(|b| b.n() > 40)
            && level.candidates.iter().flatten().any(numeric)
        {
            break level;
        }
    };
    let index = ItemIndex::new(&level.ids);
    let nodes = level.nodes();
    for gather in [false, true] {
        let build = || LevelPlan::new(&index, level.config.error_measure, &nodes);
        let plan = if gather { with_gather_oracle(build) } else { build() };
        let mut scratch = RoutedScratch::new();
        let scan = |scratch: &mut RoutedScratch| {
            for block in &level.blocks {
                plan.score(block, scratch, &level.config, Scope::Level, |_, _, _| {});
            }
            scratch.eval.eval.stats.scratch_grows
        };
        let cold = scan(&mut scratch);
        assert!(cold > 0);
        assert_eq!(scan(&mut scratch), cold, "a warm level scan must not grow");
    }
}

/// A random tree workload: items with two numeric and two categorical
/// attributes, and one block per region of a flat hierarchy whose
/// targets follow a different line per (item group, region), so that
/// trees keep finding splits worth scoring.
fn random_tree_workload(rng: &mut Rng) -> (MemorySource, RegionSpace, ItemTable) {
    let n_items = rng.usize_in(200, 320);
    let leaves: Vec<String> = (0..rng.usize_in(4, 8)).map(|r| format!("r{r}")).collect();
    let leaf_refs: Vec<&str> = leaves.iter().map(String::as_str).collect();
    let space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
        "L", "All", &leaf_refs,
    ))]);
    let cat_a: Vec<usize> = (0..n_items).map(|_| rng.below(3)).collect();
    let cat_b: Vec<usize> = (0..n_items).map(|_| rng.below(2)).collect();
    // Few distinct values in one attribute (ties), many in the other.
    let num_a: Vec<f64> = (0..n_items).map(|_| rng.usize_in(0, 6) as f64).collect();
    let num_b: Vec<f64> = (0..n_items).map(|_| rng.f64_in(0.0, 100.0).round()).collect();
    let labels = |codes: &[usize], prefix: &str| -> Vec<String> {
        codes.iter().map(|c| format!("{prefix}{c}")).collect()
    };
    let (la, lb) = (labels(&cat_a, "a"), labels(&cat_b, "b"));
    let table = Table::new(
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("ca", DataType::Str),
            ("cb", DataType::Str),
            ("na", DataType::Float),
            ("nb", DataType::Float),
        ])
        .unwrap(),
        vec![
            Column::from_ints((0..n_items as i64).map(|i| 5 * i - 40).collect()),
            Column::from_strs(&la.iter().map(String::as_str).collect::<Vec<_>>()),
            Column::from_strs(&lb.iter().map(String::as_str).collect::<Vec<_>>()),
            Column::from_floats(num_a.clone()),
            Column::from_floats(num_b.clone()),
        ],
    )
    .unwrap();
    let items = ItemTable::from_table(&table, "id", &["na", "nb"], &["ca", "cb"]).unwrap();
    let blocks = (0..=leaves.len() as u32)
        .map(|region| {
            let mut block = RegionBlock::new(vec![region], 3);
            let lines: Vec<[f64; 3]> = (0..12)
                .map(|_| [rng.f64_in(-20.0, 20.0), rng.f64_in(-3.0, 3.0), rng.f64_in(-3.0, 3.0)])
                .collect();
            for item in 0..n_items {
                if !rng.flip(0.9) {
                    continue;
                }
                let group = cat_a[item] * 4 + cat_b[item] * 2 + usize::from(num_a[item] >= 3.0);
                let (x1, x2) = (rng.f64_in(-10.0, 10.0), rng.f64_in(0.0, 50.0));
                let [a, b, c] = lines[group];
                let y = a + b * x1 + c * x2 + rng.f64_in(-2.0, 2.0);
                block.push(items.ids()[item], &[1.0, x1, x2], y);
            }
            block
        })
        .collect();
    (MemorySource::new(blocks), space, items)
}

/// Everything but the error values, which the two paths round
/// differently: per node its items, split, bellwether region, example
/// count and coefficient bits.
fn shape_of(tree: &BellwetherTree, items: &ItemTable) -> Vec<String> {
    tree.nodes
        .iter()
        .map(|node| {
            let info = node.info.as_ref().map(|i| {
                let coefficients: Vec<u64> =
                    i.model.coefficients().iter().map(|c| c.to_bits()).collect();
                (i.region_index, i.n_examples, coefficients)
            });
            let split = node
                .split
                .as_ref()
                .map(|(criterion, children)| (criterion.describe(items), children.clone()));
            format!("{:?} {info:?} {split:?}", node.item_rows)
        })
        .collect()
}

#[test]
fn whole_trees_equal_the_gather_oracles() {
    check("level_statistics_whole_trees", 6, |rng| {
        let (src, space, items) = random_tree_workload(rng);
        // Nodes stay large enough that no two criteria induce the same
        // partition: such a pair ties exactly in the oracle, where equal
        // rows give equal bits and the first criterion wins, while the
        // statistics sum the same children in two orders and either may
        // win by an ulp.
        let tree_cfg = TreeConfig {
            max_depth: rng.usize_in(3, 5),
            min_node_items: 24,
            max_numeric_splits: rng.usize_in(2, 6),
            // Grow wherever a split can be scored at all.
            require_positive_goodness: false,
            perfect_error_tol: 0.0,
            ..TreeConfig::default()
        };
        let subset: Vec<usize> = (0..items.len()).filter(|_| rng.flip(0.7)).collect();
        for root_rows in [None, Some(subset)] {
            let mut problem = config();
            problem.min_examples = 4;
            problem.parallelism = Parallelism::fixed(rng.usize_in(1, 4)).with_min_chunk(1);
            type Build = fn(
                &dyn bellwether_storage::TrainingSource,
                &RegionSpace,
                &ItemTable,
                Option<Vec<usize>>,
                &BellwetherConfig,
                &TreeConfig,
            ) -> crate::error::Result<BellwetherTree>;
            for build in [build_rainforest as Build, build_naive as Build] {
                let run = || build(&src, &space, &items, root_rows.clone(), &problem, &tree_cfg);
                let tree = run().unwrap();
                let oracle = with_gather_oracle(run).unwrap();
                assert!(tree.depth() >= 2 && tree.nodes.len() >= 9, "small tree");
                assert_eq!(shape_of(&tree, &items), shape_of(&oracle, &items));
                for (id, (node, oracle_node)) in tree.nodes.iter().zip(&oracle.nodes).enumerate() {
                    let (info, want) = (node.info.as_ref().unwrap(), oracle_node.info.as_ref().unwrap());
                    let block = &src.blocks()[info.region_index];
                    let ids = node.item_rows.iter().map(|&r| items.ids()[r]).collect();
                    let of_node = ytwy_and_n(block, &ids);
                    assert_eq!(of_node.1, info.n_examples);
                    let what = format!("node {id}");
                    assert_same_error(&what, Some(info.error), Some(want.error), 3, of_node);
                }
            }
        }
    });
}
