//! The RF (RainForest-style) bellwether tree algorithm (Figure 4,
//! bottom; §5.2).
//!
//! Instead of re-reading the entire training data for every
//! (node, criterion), the RF algorithm works level by level: one scan
//! over all feasible regions collects, for every active node `v`,
//! criterion `c` and child partition `p`, the sufficient statistic
//! `MinError[v, c, p] = min_r Error(h_r | S_p)` (together with `|S_p|`),
//! which is all the goodness computation needs. The scan keeps each
//! minimum's arg-min region beside it, so the children of the chosen
//! criterion are born with their bellwethers: only the root's is scanned
//! for, and a level none of whose nodes can split is not scanned at all.
//! By Lemma 1 the resulting tree is identical to the naive one while
//! scanning the data `l` times, once per level that splits (plus one
//! targeted region read per node to fit its final model).

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
    /// The node's bellwether, inherited from the scan that scored it as
    /// a child; the root's is found by the root level's scan.
    best: BestRegion,
    /// Candidates (empty when the node will not split).
    candidates: Vec<CandidateSplit>,
}

/// One node's share of the level statistic.
struct EntryPartial {
    /// Best (region index, error) for the node's own item set (scored
    /// at the root only).
    node_best: BestRegion,
    /// `MinError[c][p]` with its arg-min: per candidate and child, the
    /// best region for the child's items.
    children: Vec<Vec<BestRegion>>,
}

/// The level's sufficient statistic (Lemma 1): per node, the
/// `MinError[v, c, p]` table and (at the root) the node's own best
/// region. Both merge exactly: strict-`<` updates with in-order merging
/// keep the sequential scan's minimum and its lowest-region-index
/// tie-breaking.
struct LevelAcc(Vec<EntryPartial>);

impl LevelAcc {
    fn for_entries(entries: &[LevelEntry]) -> Self {
        LevelAcc(
            entries
                .iter()
                .map(|e| EntryPartial {
                    node_best: BestRegion::default(),
                    children: e
                        .candidates
                        .iter()
                        .map(|c| vec![BestRegion::default(); c.partition.len()])
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
            ours.children.merge(theirs.children);
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

    let mut level = vec![(0, BestRegion::default())];
    let mut depth = 0usize;
    let mut stat_slots = 0;
    while !level.is_empty() {
        // Prepare the level: termination decides which nodes may split
        // (below the root a node's error is known before the scan, and a
        // perfect one will not), those enumerate their candidate criteria.
        let root = depth == 0;
        let entries: Vec<LevelEntry> = level
            .into_iter()
            .map(|(node_id, best)| {
                let node = &tree.nodes[node_id];
                let splits = node.depth < tree_cfg.max_depth
                    && node.item_rows.len() >= tree_cfg.min_node_items
                    && (root || best.0.is_some_and(|(_, err)| err > tree_cfg.perfect_error_tol));
                let candidates = if splits {
                    candidate_splits(items, &node.item_rows, tree_cfg)
                } else {
                    Vec::new()
                };
                LevelEntry {
                    node_id,
                    best,
                    candidates,
                }
            })
            .collect();

        // The level's single scan over the entire training data, run
        // through the shared engine (parallel under
        // `problem.parallelism`, merged in region order): every block
        // yields the child errors of every node's candidates, and at the
        // root the root's own error. One span per level scan — the
        // empirical witness of Lemma 1's "`l` scans over the entire
        // training data" claim.
        let mut acc = LevelAcc::for_entries(&entries);
        if root || entries.iter().any(|e| !e.candidates.is_empty()) {
            // The level's nodes hold disjoint items, so one plan routes a
            // row to its node and says what the node's candidates need
            // from it.
            let nodes: Vec<(&[usize], &[CandidateSplit])> = entries
                .iter()
                .map(|e| (tree.nodes[e.node_id].item_rows.as_slice(), e.candidates.as_slice()))
                .collect();
            let plan = LevelPlan::new(index, problem.error_measure, &nodes);
            stat_slots = stat_slots.max(plan.stat_slots());
            let scope = if root { Scope::Level } else { Scope::Children };
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
                    plan.score(block, scratch, problem, scope, |node, scored, err| {
                        let partial = &mut acc.0[node];
                        match scored {
                            Scored::Node => partial.node_best.observe(idx, err),
                            Scored::Child { cand, child } => {
                                partial.children[cand][child].observe(idx, err)
                            }
                        }
                    });
                    Ok(())
                },
            )?;

            drop(level_timer); // the level span covers the scan loop only
            scanned.record_skipped(problem.recorder.as_ref());
            merge_skipped(&mut tree.skipped_regions, &scanned.skipped);
            let WithScratch { acc: level_acc, scratch } = scanned.acc;
            acc = level_acc;
            record_eval_stats(problem.recorder.as_ref(), &scratch.eval.eval.stats);
            problem
                .recorder
                .add(names::TREE_ROWS_ROUTED, scratch.rows_routed);
            if scratch.slot_adds > 0 {
                problem.recorder.add(names::TREE_SLOT_ADDS, scratch.slot_adds);
            }
        }

        // Finalize the level: fit node models (targeted reads), pick
        // splits, spawn the next level with its bellwethers.
        let mut next_level = Vec::new();
        for (e, partial) in entries.iter().zip(acc.0) {
            let best = if root { partial.node_best } else { e.best };
            let Some((ridx, node_err)) = best.0 else { continue };
            let rows = &tree.nodes[e.node_id].item_rows;
            let keep = rows.iter().map(|&r| items.ids()[r]).collect();
            tree.nodes[e.node_id].info = fit_node(source, space, problem, &keep, ridx, node_err)?;
            if e.candidates.is_empty()
                || tree.nodes[e.node_id].info.is_none()
                || node_err <= tree_cfg.perfect_error_tol
            {
                continue;
            }

            let rows = &tree.nodes[e.node_id].item_rows;
            let mut chosen: Option<(usize, f64)> = None;
            for (ci, cand) in e.candidates.iter().enumerate() {
                let Some(g) = goodness_of(rows, node_err, cand, &partial.children[ci]) else {
                    continue;
                };
                if chosen.is_none_or(|(_, bg)| g > bg) {
                    chosen = Some((ci, g));
                }
            }
            let Some((ci, goodness)) = chosen else { continue };
            if tree_cfg.require_positive_goodness && goodness <= 0.0 {
                continue;
            }

            let cand = e.candidates[ci].clone();
            let depth = tree.nodes[e.node_id].depth;
            let mut children = Vec::with_capacity(cand.partition.len());
            for (part, &best) in cand.partition.iter().zip(&partial.children[ci]) {
                let child_id = tree.nodes.len();
                tree.nodes.push(Node {
                    depth: depth + 1,
                    item_rows: part.clone(),
                    info: None,
                    split: None,
                });
                children.push(child_id);
                next_level.push((child_id, best));
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

    /// The candidates a build scored for `node`, read off the finished
    /// tree: none unless the node is active and — below the root, where
    /// its error was known before the scan — imperfect.
    fn scored_candidates(node: &Node, items: &ItemTable, cfg: &TreeConfig) -> Vec<CandidateSplit> {
        let imperfect = node.info.as_ref().is_some_and(|i| i.error > cfg.perfect_error_tol);
        let splits = node.depth < cfg.max_depth
            && node.item_rows.len() >= cfg.min_node_items
            && (node.depth == 0 || imperfect);
        if splits {
            candidate_splits(items, &node.item_rows, cfg)
        } else {
            Vec::new()
        }
    }

    /// The level scans a build made: the root's, and one for each level
    /// below it with a node that had candidates to score. A level without
    /// one has no children, so these are levels `0..scans`.
    fn level_scans(tree: &BellwetherTree, items: &ItemTable, cfg: &TreeConfig) -> usize {
        let scanned = |d: usize| {
            let mut at_depth = tree.nodes.iter().filter(|n| n.depth == d);
            at_depth.any(|n| !scored_candidates(n, items, cfg).is_empty())
        };
        1 + (1..=tree.depth()).filter(|&d| scanned(d)).count()
    }

    #[test]
    fn lemma_1_scan_counts() {
        let (src, space, items) = two_group_fixture();
        let num_regions = src.num_regions() as u64;

        let reads = || src.snapshot().regions_read();
        let before = reads();
        let rf =
            build_rainforest(&src, &space, &items, None, &problem(), &tree_cfg()).unwrap();
        let rf_reads = reads() - before;

        let before = reads();
        let _naive =
            build_naive(&src, &space, &items, None, &problem(), &tree_cfg()).unwrap();
        let naive_reads = reads() - before;

        // RF: the paper's `l` scans — one per level above the leaves,
        // whose bellwethers their parent's scan found — plus one
        // targeted read per node.
        let nodes = rf.nodes.len() as u64;
        assert_eq!(rf_reads, rf.depth() as u64 * num_regions + nodes);
        // Naive re-scans per (node, criterion): strictly more.
        assert!(
            naive_reads > rf_reads,
            "naive {naive_reads} should exceed RF {rf_reads}"
        );
    }

    /// The fixture's tree with its two perfect leaves still scored: an
    /// error tolerance of zero makes them worth splitting.
    fn deep_cfg() -> TreeConfig {
        TreeConfig {
            perfect_error_tol: 0.0,
            ..tree_cfg()
        }
    }

    #[test]
    fn one_level_span_per_scan() {
        let (src, space, items) = two_group_fixture();
        for cfg in [tree_cfg(), deep_cfg()] {
            let reg = bellwether_obs::Registry::shared();
            let mut problem = problem();
            problem.recorder = reg.clone();
            let rf = build_rainforest(&src, &space, &items, None, &problem, &cfg).unwrap();
            let snap = reg.snapshot();
            // Exactly one `tree/rainforest/level{d}` span per level scan,
            // each called once — the Lemma 1 `l`-scan claim, observed —
            // and none for a level that was not scanned.
            let scans = level_scans(&rf, &items, &cfg);
            for d in 0..scans {
                let s = snap
                    .span(&format!("tree/rainforest/level{d}"))
                    .unwrap_or_else(|| panic!("missing level {d} span"));
                assert_eq!(s.calls, 1);
            }
            assert!(snap.span(&format!("tree/rainforest/level{scans}")).is_none());
            assert_eq!(
                snap.counter(bellwether_obs::names::TREE_NODES),
                Some(rf.nodes.len() as u64)
            );
        }
    }

    #[test]
    fn every_block_row_is_routed_once_per_level() {
        let (src, space, items) = two_group_fixture();
        let block_rows: u64 = src.blocks().iter().map(|b| b.n() as u64).sum();
        let mut seen = Vec::new();
        for cfg in [tree_cfg(), deep_cfg()] {
            let reg = bellwether_obs::Registry::shared();
            let mut problem = problem();
            problem.recorder = reg.clone();
            let rf = build_rainforest(&src, &space, &items, None, &problem, &cfg).unwrap();
            let scans = level_scans(&rf, &items, &cfg) as u64;
            assert_eq!(
                reg.snapshot().counter(bellwether_obs::names::TREE_ROWS_ROUTED),
                Some(scans * block_rows)
            );
            seen.push(scans);
        }
        assert_eq!(seen[0], 1, "the perfect leaves are not scanned");
        assert!(seen[1] > 1, "{seen:?}");
    }

    #[test]
    fn slot_counters_follow_the_plan_at_any_thread_count() {
        use crate::tree::SplitCriterion;
        use bellwether_cube::Parallelism;
        use bellwether_obs::names::{TREE_SLOT_ADDS, TREE_STAT_SLOTS};
        let (src, space, items) = two_group_fixture();
        for cfg in [tree_cfg(), deep_cfg()] {
            let mut seen = Vec::new();
            for threads in [1usize, 2, 4] {
                let reg = bellwether_obs::Registry::shared();
                let mut problem = problem();
                problem.recorder = reg.clone();
                problem.parallelism = Parallelism::fixed(threads).with_min_chunk(1);
                let rf = build_rainforest(&src, &space, &items, None, &problem, &cfg).unwrap();
                // What the plan of every scanned level holds and adds, from
                // the finished tree: a node's total, plus per attribute with
                // a candidate one bucket per child or threshold interval;
                // a row adds to its node's total at the root only.
                let (mut adds, mut widest) = (0u64, 0u64);
                for depth in 0..level_scans(&rf, &items, &cfg) {
                    let mut slots = 0;
                    for node in rf.nodes.iter().filter(|n| n.depth == depth) {
                        let mut attrs = std::collections::BTreeMap::new();
                        for cand in scored_candidates(node, &items, &cfg) {
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
                        adds += rows * (u64::from(depth == 0) + attrs.len() as u64);
                    }
                    widest = widest.max(slots);
                }
                let snap = reg.snapshot();
                assert_eq!(snap.counter(TREE_SLOT_ADDS), Some(adds));
                assert_eq!(snap.counter(TREE_STAT_SLOTS), Some(widest));
                seen.push((adds, widest));
            }
            assert!(seen.iter().all(|&s| s == seen[0]), "{seen:?}");
        }

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
        let before = src.snapshot().regions_read();
        let tree = build_rainforest(&src, &space, &items, None, &problem(), &cfg).unwrap();
        assert_eq!(tree.nodes.len(), 1);
        assert!(tree.root().info.is_some());
        // One scan for the root's bellwether, one read to fit it.
        let reads = src.snapshot().regions_read() - before;
        assert_eq!(reads, src.num_regions() as u64 + 1);
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
