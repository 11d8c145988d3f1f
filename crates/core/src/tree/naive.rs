//! The naive bellwether tree algorithm (Figure 4, top): plain recursive
//! splitting where every (node, criterion) evaluation re-reads the
//! entire training data. Correct but IO-bound: ~`l·m` full scans.

use super::{candidate_splits, BellwetherTree, CandidateSplit, Node, TreeConfig};
use crate::error::Result;
use crate::eval::record_eval_stats;
use crate::items::{ItemIndex, ItemTable};
use crate::problem::BellwetherConfig;
use crate::scan::{scan_regions_policy, MinSlots, WithScratch};
use crate::tree::partition::{GroupRouting, RoutedScratch};
use crate::tree::{merge_skipped, subset_bellwether_scanned};
use bellwether_cube::RegionSpace;
use bellwether_obs::{names, span};
use bellwether_storage::TrainingSource;

/// Build a bellwether tree with the naive algorithm. `root_rows`
/// restricts the training items (defaults to every item).
pub fn build_naive(
    source: &dyn TrainingSource,
    space: &RegionSpace,
    items: &ItemTable,
    root_rows: Option<Vec<usize>>,
    problem: &BellwetherConfig,
    tree_cfg: &TreeConfig,
) -> Result<BellwetherTree> {
    let _timer = span!(problem.recorder, "tree/naive");
    let rows = root_rows.unwrap_or_else(|| (0..items.len()).collect());
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
    split_node(0, source, space, items, problem, tree_cfg, &mut tree)?;
    problem.recorder.add(names::TREE_NODES, tree.nodes.len() as u64);
    Ok(tree)
}

/// Recursive SplitNode from Figure 4.
fn split_node(
    node_id: usize,
    source: &dyn TrainingSource,
    space: &RegionSpace,
    items: &ItemTable,
    problem: &BellwetherConfig,
    tree_cfg: &TreeConfig,
    tree: &mut BellwetherTree,
) -> Result<()> {
    let rows = tree.nodes[node_id].item_rows.clone();
    let depth = tree.nodes[node_id].depth;

    // Find the bellwether for this node's item subset (one full scan).
    let ids: std::collections::HashSet<i64> =
        rows.iter().map(|&r| items.ids()[r]).collect();
    let (info, skipped) = subset_bellwether_scanned(source, space, &ids, problem)?;
    merge_skipped(&mut tree.skipped_regions, &skipped);
    let node_err = info.as_ref().map(|i| i.error);
    tree.nodes[node_id].info = info;

    // Termination condition (including the numerically-perfect gate).
    if depth >= tree_cfg.max_depth
        || rows.len() < tree_cfg.min_node_items
        || node_err.is_none_or(|e| e <= tree_cfg.perfect_error_tol)
    {
        return Ok(());
    }
    let node_err = node_err.unwrap();

    // Evaluate every splitting criterion: one full scan each, computing
    // all of the criterion's child errors inside the same scan.
    let candidates = candidate_splits(items, &rows, tree_cfg);
    let index = ItemIndex::new(items.ids());
    let routing = GroupRouting::new(&index, [rows.as_slice()]);
    let mut best: Option<(usize, f64, Vec<f64>)> = None; // (cand idx, goodness, child errs)
    for (ci, cand) in candidates.iter().enumerate() {
        let spec = routing.spec(rows.len(), &cand.partition);
        let parts = cand.partition.len();
        let scanned = scan_regions_policy(
            source,
            problem.parallelism,
            problem.scan_policy,
            || WithScratch {
                acc: MinSlots::new(parts),
                scratch: RoutedScratch::new(),
            },
            |ws: &mut WithScratch<MinSlots, RoutedScratch>, _, block| {
                let WithScratch { acc, scratch } = ws;
                routing.split(block, scratch);
                if scratch.gather_group(block, 0) {
                    let errs = scratch.child_errors(&spec, 0, problem);
                    for (slot, e) in errs.iter().enumerate() {
                        if let Some(e) = *e {
                            acc.observe(slot, e);
                        }
                    }
                }
                Ok(())
            },
        )?;
        scanned.record_skipped(problem.recorder.as_ref());
        merge_skipped(&mut tree.skipped_regions, &scanned.skipped);
        let WithScratch { acc, scratch } = scanned.acc;
        record_eval_stats(problem.recorder.as_ref(), &scratch.node.eval.stats);
        record_eval_stats(problem.recorder.as_ref(), &scratch.children.eval.stats);
        let min_err = acc.0;
        if min_err.iter().any(|e| !e.is_finite()) {
            continue; // some child cannot be modelled anywhere
        }
        let goodness = goodness_of(&rows, node_err, cand, &min_err);
        if best.as_ref().is_none_or(|(_, g, _)| goodness > *g) {
            best = Some((ci, goodness, min_err));
        }
    }

    let Some((ci, goodness, _)) = best else {
        return Ok(());
    };
    if tree_cfg.require_positive_goodness && goodness <= 0.0 {
        return Ok(());
    }
    let cand = candidates.into_iter().nth(ci).expect("candidate index");

    // Create children and recurse.
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
    }
    tree.nodes[node_id].split = Some((cand.criterion, children.clone()));
    for child in children {
        split_node(child, source, space, items, problem, tree_cfg, tree)?;
    }
    Ok(())
}

/// `Goodness(c) = |S|·Error(h_r|S) − Σ_p |S_p|·Error(h_{r_p}|S_p)`.
pub(crate) fn goodness_of(
    rows: &[usize],
    node_err: f64,
    cand: &CandidateSplit,
    child_errs: &[f64],
) -> f64 {
    let total = rows.len() as f64 * node_err;
    let split: f64 = cand
        .partition
        .iter()
        .zip(child_errs)
        .map(|(p, e)| p.len() as f64 * e)
        .sum();
    total - split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ErrorMeasure;
    use crate::tree::tests_support::two_group_fixture;

    #[test]
    fn splits_items_with_different_bellwethers() {
        let (src, space, items) = two_group_fixture();
        let problem = BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(4)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap();
        let tree_cfg = TreeConfig {
            min_node_items: 8,
            ..TreeConfig::default()
        };
        let tree = build_naive(&src, &space, &items, None, &problem, &tree_cfg).unwrap();
        // The fixture plants group-dependent bellwethers: the root must
        // split on the categorical attribute and each leaf must pick its
        // group's region.
        assert!(tree.nodes[0].split.is_some(), "root should split");
        assert_eq!(tree.num_leaves(), 2);
        let leaf_regions: Vec<String> = tree
            .nodes
            .iter()
            .filter(|n| n.split.is_none())
            .map(|n| n.info.as_ref().unwrap().label.clone())
            .collect();
        assert!(leaf_regions.contains(&"[ra]".to_string()), "{leaf_regions:?}");
        assert!(leaf_regions.contains(&"[rb]".to_string()), "{leaf_regions:?}");
    }

    #[test]
    fn small_nodes_do_not_split() {
        let (src, space, items) = two_group_fixture();
        let problem = BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(4)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap();
        let tree_cfg = TreeConfig {
            min_node_items: 10_000,
            ..TreeConfig::default()
        };
        let tree = build_naive(&src, &space, &items, None, &problem, &tree_cfg).unwrap();
        assert_eq!(tree.nodes.len(), 1);
        assert!(tree.root().info.is_some());
    }

    #[test]
    fn max_depth_zero_gives_stump() {
        let (src, space, items) = two_group_fixture();
        let problem = BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(4)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap();
        let tree_cfg = TreeConfig {
            max_depth: 0,
            min_node_items: 2,
            ..TreeConfig::default()
        };
        let tree = build_naive(&src, &space, &items, None, &problem, &tree_cfg).unwrap();
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn routing_reaches_leaves() {
        let (src, space, items) = two_group_fixture();
        let problem = BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(4)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap();
        let tree_cfg = TreeConfig {
            min_node_items: 8,
            ..TreeConfig::default()
        };
        let tree = build_naive(&src, &space, &items, None, &problem, &tree_cfg).unwrap();
        for &id in items.ids() {
            let node = tree.route_item(&items, id).unwrap();
            assert!(tree.nodes[node].split.is_none());
            assert!(tree.predicting_info(&items, id).is_some());
        }
    }
}
