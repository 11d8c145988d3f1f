//! The RF (RainForest-style) bellwether tree algorithm (Figure 4,
//! bottom; §5.2).
//!
//! Instead of re-reading the entire training data for every
//! (node, criterion), the RF algorithm works level by level: one scan
//! over all feasible regions collects, for every active node `v`,
//! criterion `c` and child partition `p`, the sufficient statistic
//! `MinError[v, c, p] = min_r Error(h_r | S_p)` (together with `|S_p|`),
//! which is all the goodness computation needs. By Lemma 1 the resulting
//! tree is identical to the naive one while scanning the data once per
//! level (plus one targeted region read per node to fit its final
//! model).

use super::{
    candidate_splits, fit_node, merge_skipped, BellwetherTree, CandidateSplit, Node, TreeConfig,
};
use crate::error::Result;
use crate::eval::record_eval_stats;
use crate::items::ItemTable;
use crate::problem::BellwetherConfig;
use crate::scan::{scan_regions, BestRegion, MergeableAccumulator, WithScratch};
use crate::tree::naive::goodness_of;
use crate::tree::partition::{LevelPlan, RoutedScratch, Scope, Scored};
use bellwether_cube::RegionSpace;
use bellwether_obs::{names, span};
use bellwether_storage::TrainingSource;

/// Per-level bookkeeping for one node. Read-only during the level scan
/// so workers can share it; the scan's mutable state lives in
/// [`LevelAcc`].
struct LevelEntry {
    node_id: usize,
    /// Candidates (empty when inactive).
    candidates: Vec<CandidateSplit>,
    active: bool,
}

/// One node's share of the level statistic.
struct EntryPartial {
    /// Best (region index, error) for the node's own item set.
    node_best: BestRegion,
    /// MinError[c][p].
    min_err: Vec<Vec<f64>>,
}

/// The level's sufficient statistic (Lemma 1): per active node, the
/// `MinError[v, c, p]` table plus the node's own best region. Both
/// merge exactly — `min` over disjoint region ranges is `min` over
/// their union, and strict-`<` updates with in-order merging preserve
/// the sequential scan's lowest-region-index tie-breaking.
struct LevelAcc(Vec<EntryPartial>);

impl LevelAcc {
    fn for_entries(entries: &[LevelEntry]) -> Self {
        LevelAcc(
            entries
                .iter()
                .map(|e| EntryPartial {
                    node_best: BestRegion::default(),
                    min_err: e
                        .candidates
                        .iter()
                        .map(|c| vec![f64::INFINITY; c.partition.len()])
                        .collect(),
                })
                .collect(),
        )
    }
}

impl MergeableAccumulator for LevelAcc {
    fn merge(&mut self, later: Self) {
        for (ours, theirs) in self.0.iter_mut().zip(later.0) {
            ours.node_best.merge(theirs.node_best);
            for (oc, tc) in ours.min_err.iter_mut().zip(theirs.min_err) {
                for (ov, tv) in oc.iter_mut().zip(tc) {
                    if tv < *ov {
                        *ov = tv;
                    }
                }
            }
        }
    }
}

/// Build a bellwether tree with the RF algorithm.
pub fn build_rainforest(
    source: &dyn TrainingSource,
    space: &RegionSpace,
    items: &ItemTable,
    root_rows: Option<Vec<usize>>,
    problem: &BellwetherConfig,
    tree_cfg: &TreeConfig,
) -> Result<BellwetherTree> {
    let _timer = span!(problem.recorder, "tree/rainforest");
    let rows = root_rows.unwrap_or_else(|| (0..items.len()).collect());
    let index = items.index();
    let mut tree = BellwetherTree {
        nodes: Vec::new(),
        skipped_regions: Vec::new(),
    };
    tree.nodes.push(Node {
        depth: 0,
        item_rows: rows,
        info: None,
        split: None,
    });

    let mut level: Vec<usize> = vec![0];
    let mut depth = 0usize;
    let mut stat_slots = 0;
    while !level.is_empty() {
        // Prepare the level: termination decides which nodes are active,
        // active nodes enumerate their candidate criteria.
        let entries: Vec<LevelEntry> = level
            .iter()
            .map(|&node_id| {
                let node = &tree.nodes[node_id];
                let active = node.depth < tree_cfg.max_depth
                    && node.item_rows.len() >= tree_cfg.min_node_items;
                let candidates = if active {
                    candidate_splits(items, &node.item_rows, tree_cfg)
                } else {
                    Vec::new()
                };
                LevelEntry {
                    node_id,
                    candidates,
                    active,
                }
            })
            .collect();
        // The level's nodes hold disjoint items, so one plan routes a
        // row to its node and says what the node's candidates need from
        // it.
        let nodes: Vec<(&[usize], &[CandidateSplit])> = entries
            .iter()
            .map(|e| (tree.nodes[e.node_id].item_rows.as_slice(), e.candidates.as_slice()))
            .collect();
        let plan = LevelPlan::new(index, problem.error_measure, &nodes);
        stat_slots = stat_slots.max(plan.stat_slots());

        // The level's single scan over the entire training data, run
        // through the shared engine (parallel under
        // `problem.parallelism`, merged in region order): every block
        // yields each node's own error and the child errors of all its
        // candidates. One span per level scan — the empirical witness of
        // Lemma 1's "`l` scans over the entire training data" claim.
        let level_timer = span!(problem.recorder, "tree/rainforest/level{depth}");
        let scanned = scan_regions(
            source,
            problem.parallelism,
            problem.scan_policy,
            |_| true,
            || WithScratch {
                acc: LevelAcc::for_entries(&entries),
                scratch: RoutedScratch::new(),
            },
            |ws: &mut WithScratch<LevelAcc, RoutedScratch>, idx, block| {
                let WithScratch { acc, scratch } = ws;
                plan.score(block, scratch, problem, Scope::Level, |node, scored, err| {
                    let partial = &mut acc.0[node];
                    match scored {
                        // Track the node's own bellwether in the same pass.
                        Scored::Node => partial.node_best.observe(idx, err),
                        Scored::Child { cand, child } => {
                            let min = &mut partial.min_err[cand][child];
                            if err < *min {
                                *min = err;
                            }
                        }
                    }
                });
                Ok(())
            },
        )?;

        drop(level_timer); // the level span covers the scan loop only
        scanned.record_skipped(problem.recorder.as_ref());
        merge_skipped(&mut tree.skipped_regions, &scanned.skipped);
        let WithScratch { acc, scratch } = scanned.acc;
        record_eval_stats(problem.recorder.as_ref(), &scratch.node.eval.stats);
        record_eval_stats(problem.recorder.as_ref(), &scratch.children.eval.stats);
        problem
            .recorder
            .add(names::TREE_ROWS_ROUTED, scratch.rows_routed);
        if scratch.slot_adds > 0 {
            problem.recorder.add(names::TREE_SLOT_ADDS, scratch.slot_adds);
        }

        // Finalize the level: fit node models (targeted reads), pick
        // splits, spawn the next level.
        let mut next_level = Vec::new();
        for (e, partial) in entries.iter().zip(acc.0) {
            if let Some((ridx, err)) = partial.node_best.0 {
                let rows = &tree.nodes[e.node_id].item_rows;
                let keep = rows.iter().map(|&r| items.ids()[r]).collect();
                tree.nodes[e.node_id].info = fit_node(source, space, problem, &keep, ridx, err)?;
            }
            let Some((_, node_err)) = partial.node_best.0 else { continue };
            if !e.active
                || tree.nodes[e.node_id].info.is_none()
                || node_err <= tree_cfg.perfect_error_tol
            {
                continue;
            }

            let rows = tree.nodes[e.node_id].item_rows.clone();
            let mut best: Option<(usize, f64)> = None;
            for (ci, cand) in e.candidates.iter().enumerate() {
                if partial.min_err[ci].iter().any(|v| !v.is_finite()) {
                    continue;
                }
                let g = goodness_of(&rows, node_err, cand, &partial.min_err[ci]);
                if best.is_none_or(|(_, bg)| g > bg) {
                    best = Some((ci, g));
                }
            }
            let Some((ci, goodness)) = best else { continue };
            if tree_cfg.require_positive_goodness && goodness <= 0.0 {
                continue;
            }

            let cand = e.candidates[ci].clone();
            let depth = tree.nodes[e.node_id].depth;
            let mut children = Vec::with_capacity(cand.partition.len());
            for part in &cand.partition {
                let child_id = tree.nodes.len();
                tree.nodes.push(Node {
                    depth: depth + 1,
                    item_rows: part.clone(),
                    info: None,
                    split: None,
                });
                children.push(child_id);
                next_level.push(child_id);
            }
            tree.nodes[e.node_id].split = Some((cand.criterion, children));
        }
        level = next_level;
        depth += 1;
    }
    problem.recorder.add(names::TREE_NODES, tree.nodes.len() as u64);
    if stat_slots > 0 {
        problem.recorder.add(names::TREE_STAT_SLOTS, stat_slots as u64);
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ErrorMeasure;
    use crate::tree::naive::build_naive;
    use crate::tree::tests_support::{canonical_form, two_group_fixture};
    use bellwether_storage::TrainingSource;
    use std::collections::HashSet;

    fn problem() -> BellwetherConfig {
        BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(4)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap()
    }

    fn tree_cfg() -> TreeConfig {
        TreeConfig {
            min_node_items: 8,
            ..TreeConfig::default()
        }
    }

    #[test]
    fn lemma_1_same_tree_as_naive() {
        let (src, space, items) = two_group_fixture();
        let naive = build_naive(&src, &space, &items, None, &problem(), &tree_cfg()).unwrap();
        let rf =
            build_rainforest(&src, &space, &items, None, &problem(), &tree_cfg()).unwrap();
        assert_eq!(
            canonical_form(&naive, &items),
            canonical_form(&rf, &items),
            "Lemma 1: RF and naive must build the same tree"
        );
    }

    #[test]
    fn lemma_1_scan_counts() {
        let (src, space, items) = two_group_fixture();
        let num_regions = src.num_regions() as u64;

        src.stats().reset();
        let rf =
            build_rainforest(&src, &space, &items, None, &problem(), &tree_cfg()).unwrap();
        let rf_reads = src.snapshot().regions_read();

        src.stats().reset();
        let _naive =
            build_naive(&src, &space, &items, None, &problem(), &tree_cfg()).unwrap();
        let naive_reads = src.snapshot().regions_read();

        // RF: one full scan per level plus one targeted read per node.
        let levels = rf.depth() as u64 + 1;
        let nodes = rf.nodes.len() as u64;
        assert_eq!(rf_reads, levels * num_regions + nodes);
        // Naive re-scans per (node, criterion) and per node: strictly more.
        assert!(
            naive_reads > rf_reads,
            "naive {naive_reads} should exceed RF {rf_reads}"
        );
    }

    #[test]
    fn one_level_span_per_scan() {
        let (src, space, items) = two_group_fixture();
        let reg = bellwether_obs::Registry::shared();
        let mut problem = problem();
        problem.recorder = reg.clone();
        let rf =
            build_rainforest(&src, &space, &items, None, &problem, &tree_cfg()).unwrap();
        let snap = reg.snapshot();
        // Exactly one `tree/rainforest/level{d}` span per level, each
        // called once — the Lemma 1 `l`-scan claim, observed.
        let levels = rf.depth() + 1;
        for d in 0..levels {
            let s = snap
                .span(&format!("tree/rainforest/level{d}"))
                .unwrap_or_else(|| panic!("missing level {d} span"));
            assert_eq!(s.calls, 1);
        }
        assert!(snap.span(&format!("tree/rainforest/level{levels}")).is_none());
        assert_eq!(
            snap.counter(bellwether_obs::names::TREE_NODES),
            Some(rf.nodes.len() as u64)
        );
    }

    #[test]
    fn every_block_row_is_routed_once_per_level() {
        let (src, space, items) = two_group_fixture();
        let reg = bellwether_obs::Registry::shared();
        let mut problem = problem();
        problem.recorder = reg.clone();
        let rf =
            build_rainforest(&src, &space, &items, None, &problem, &tree_cfg()).unwrap();
        let levels = rf.depth() as u64 + 1;
        assert!(levels > 1);
        let block_rows: u64 = src.blocks().iter().map(|b| b.n() as u64).sum();
        assert_eq!(
            reg.snapshot().counter(bellwether_obs::names::TREE_ROWS_ROUTED),
            Some(levels * block_rows)
        );
    }

    #[test]
    fn slot_counters_follow_the_plan_at_any_thread_count() {
        use crate::tree::SplitCriterion;
        use bellwether_cube::Parallelism;
        use bellwether_obs::names::{TREE_SLOT_ADDS, TREE_STAT_SLOTS};
        let (src, space, items) = two_group_fixture();
        let mut seen = Vec::new();
        for threads in [1usize, 2, 4] {
            let reg = bellwether_obs::Registry::shared();
            let mut problem = problem();
            problem.recorder = reg.clone();
            problem.parallelism = Parallelism::fixed(threads).with_min_chunk(1);
            let rf =
                build_rainforest(&src, &space, &items, None, &problem, &tree_cfg()).unwrap();
            // What the plan of every level holds and adds, from the
            // finished tree: a node's total, plus per attribute with a
            // candidate one bucket per child or threshold interval.
            let (mut adds, mut widest) = (0u64, 0u64);
            for depth in 0..=rf.depth() {
                let mut slots = 0;
                for node in rf.nodes.iter().filter(|n| n.depth == depth) {
                    let cfg = tree_cfg();
                    let active =
                        depth < cfg.max_depth && node.item_rows.len() >= cfg.min_node_items;
                    let candidates = if active {
                        candidate_splits(&items, &node.item_rows, &cfg)
                    } else {
                        Vec::new()
                    };
                    let mut attrs = std::collections::BTreeMap::new();
                    for cand in &candidates {
                        match cand.criterion {
                            SplitCriterion::Categorical { attr, .. } => {
                                attrs.insert((0, attr), cand.partition.len() as u64);
                            }
                            SplitCriterion::Numeric { attr, .. } => {
                                *attrs.entry((1, attr)).or_insert(1) += 1;
                            }
                        }
                    }
                    slots += 1 + attrs.values().sum::<u64>();
                    let ids: HashSet<i64> =
                        node.item_rows.iter().map(|&r| items.ids()[r]).collect();
                    let rows = src
                        .blocks()
                        .iter()
                        .flat_map(|b| &b.item_ids)
                        .filter(|id| ids.contains(id))
                        .count() as u64;
                    adds += rows * (1 + attrs.len() as u64);
                }
                widest = widest.max(slots);
            }
            let snap = reg.snapshot();
            assert_eq!(snap.counter(TREE_SLOT_ADDS), Some(adds));
            assert_eq!(snap.counter(TREE_STAT_SLOTS), Some(widest));
            seen.push((adds, widest));
        }
        // 20 items in 3 blocks; the root has both attributes (3 adds a
        // row), its two children only the numeric one (2 adds).
        assert_eq!(seen, [(300, 1 + 2 + 20); 3]);

        // Cross-validation scores gathered rows and has no slots.
        let reg = bellwether_obs::Registry::shared();
        let cv = BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(4)
            .recorder(reg.clone())
            .build()
            .unwrap();
        build_rainforest(&src, &space, &items, None, &cv, &tree_cfg()).unwrap();
        assert_eq!(reg.snapshot().counter(TREE_SLOT_ADDS), None);
        assert_eq!(reg.snapshot().counter(TREE_STAT_SLOTS), None);
    }

    #[test]
    fn stump_when_nothing_active() {
        let (src, space, items) = two_group_fixture();
        let cfg = TreeConfig {
            max_depth: 0,
            ..tree_cfg()
        };
        let tree = build_rainforest(&src, &space, &items, None, &problem(), &cfg).unwrap();
        assert_eq!(tree.nodes.len(), 1);
        assert!(tree.root().info.is_some());
    }

    #[test]
    fn root_rows_subset_restricts_training() {
        let (src, space, items) = two_group_fixture();
        // Only group-a items (rows 0..10): no useful split remains.
        let tree = build_rainforest(
            &src,
            &space,
            &items,
            Some((0..10).collect()),
            &problem(),
            &tree_cfg(),
        )
        .unwrap();
        let info = tree.root().info.as_ref().unwrap();
        assert_eq!(info.label, "[ra]");
        assert!(info.error < 1e-6);
    }
}
