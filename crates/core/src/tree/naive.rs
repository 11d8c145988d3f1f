//! The naive bellwether tree algorithm (Figure 4, top): plain recursive
//! splitting where every (node, criterion) evaluation re-reads the
//! entire training data. Correct but IO-bound: ~`l·m` full scans.

use super::{candidate_splits, fit_node, BellwetherTree, CandidateSplit, Node, TreeConfig};
use crate::error::Result;
use crate::eval::record_eval_stats;
use crate::items::{ItemIndex, ItemTable};
use crate::problem::BellwetherConfig;
use crate::scan::{scan_regions, BestRegion, MergeableAccumulator, WithScratch};
use crate::tree::merge_skipped;
use crate::tree::partition::{LevelPlan, RoutedScratch, Scope, Scored};
use bellwether_cube::RegionSpace;
use bellwether_obs::{names, span};
use bellwether_storage::{RegionBlock, TrainingSource};

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
    let index = items.index();
    // The root's bellwether: one full scan for its own error. Every other
    // node is born with its bellwether, found by the criterion scan that
    // scored it as a child.
    let plan = LevelPlan::new(index, problem.error_measure, &[(&rows, &[])]);
    let best = full_scan(
        source,
        problem,
        &mut tree,
        BestRegion::default,
        |best, scratch, idx, block| {
            plan.score(block, scratch, problem, Scope::Level, |_, _, err| best.observe(idx, err));
        },
    )?;
    tree.nodes.push(Node {
        depth: 0,
        item_rows: rows,
        info: None,
        split: None,
    });
    split_node(0, best, source, space, items, index, problem, tree_cfg, &mut tree)?;
    problem.recorder.add(names::TREE_NODES, tree.nodes.len() as u64);
    Ok(tree)
}

/// One full scan of the naive algorithm: `fold` receives every block
/// with a fresh accumulator's worth of scratch. Accounts for skipped
/// regions and the scratch's work counters.
fn full_scan<A: MergeableAccumulator>(
    source: &dyn TrainingSource,
    problem: &BellwetherConfig,
    tree: &mut BellwetherTree,
    init: impl Fn() -> A + Sync,
    fold: impl Fn(&mut A, &mut RoutedScratch, usize, &RegionBlock) + Sync,
) -> Result<A> {
    let scanned = scan_regions(
        source,
        problem.parallelism,
        problem.scan_policy,
        |_| true,
        || WithScratch {
            acc: init(),
            scratch: RoutedScratch::new(),
        },
        |ws: &mut WithScratch<A, RoutedScratch>, idx, block| {
            fold(&mut ws.acc, &mut ws.scratch, idx, block);
            Ok(())
        },
    )?;
    scanned.record_skipped(problem.recorder.as_ref());
    merge_skipped(&mut tree.skipped_regions, &scanned.skipped);
    let WithScratch { acc, scratch } = scanned.acc;
    record_eval_stats(problem.recorder.as_ref(), &scratch.eval.eval.stats);
    Ok(acc)
}

/// Recursive SplitNode from Figure 4, for a node whose bellwether `best`
/// is already known.
#[allow(clippy::too_many_arguments)] // the recursion's fixed context
fn split_node(
    node_id: usize,
    best: BestRegion,
    source: &dyn TrainingSource,
    space: &RegionSpace,
    items: &ItemTable,
    index: &ItemIndex,
    problem: &BellwetherConfig,
    tree_cfg: &TreeConfig,
    tree: &mut BellwetherTree,
) -> Result<()> {
    let rows = tree.nodes[node_id].item_rows.clone();
    let depth = tree.nodes[node_id].depth;

    // Fit the bellwether's model (a targeted read of the winning region).
    let Some((ridx, node_err)) = best.0 else { return Ok(()) };
    let keep = rows.iter().map(|&r| items.ids()[r]).collect();
    tree.nodes[node_id].info = fit_node(source, space, problem, &keep, ridx, node_err)?;

    // Termination condition (including the numerically-perfect gate).
    let splits = depth < tree_cfg.max_depth && rows.len() >= tree_cfg.min_node_items;
    if !splits || tree.nodes[node_id].info.is_none() || node_err <= tree_cfg.perfect_error_tol {
        return Ok(());
    }

    // Evaluate every splitting criterion: one full scan each, computing
    // all of the criterion's child bellwethers inside the same scan. The
    // node is scored exactly as a RainForest level of one node would
    // score it (Lemma 1); only the scans differ.
    let candidates = candidate_splits(items, &rows, tree_cfg);
    let plan = LevelPlan::new(index, problem.error_measure, &[(&rows, &candidates)]);
    let mut best: Option<(usize, f64, Vec<BestRegion>)> = None; // (cand idx, goodness, children)
    for (ci, cand) in candidates.iter().enumerate() {
        let children = full_scan(
            source,
            problem,
            tree,
            || vec![BestRegion::default(); cand.partition.len()],
            |children, scratch, idx, block| {
                plan.score(block, scratch, problem, Scope::Candidate(ci), |_, scored, err| {
                    if let Scored::Child { child, .. } = scored {
                        children[child].observe(idx, err);
                    }
                });
            },
        )?;
        // `None`: some child cannot be modelled anywhere.
        let Some(goodness) = goodness_of(&rows, node_err, cand, &children) else { continue };
        if best.as_ref().is_none_or(|&(_, g, _)| goodness > g) {
            best = Some((ci, goodness, children));
        }
    }

    let Some((ci, goodness, bellwethers)) = best else {
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
    for (child, best) in children.into_iter().zip(bellwethers) {
        split_node(child, best, source, space, items, index, problem, tree_cfg, tree)?;
    }
    Ok(())
}

/// `Goodness(c) = |S|·Error(h_r|S) − Σ_p |S_p|·Error(h_{r_p}|S_p)`, from
/// each child's bellwether; `None` unless every child has one with a
/// finite error.
pub(crate) fn goodness_of(
    rows: &[usize],
    node_err: f64,
    cand: &CandidateSplit,
    children: &[BestRegion],
) -> Option<f64> {
    let total = rows.len() as f64 * node_err;
    let split: f64 = cand
        .partition
        .iter()
        .zip(children)
        .map(|(p, child)| {
            let (_, e) = child.0.filter(|(_, e)| e.is_finite())?;
            Some(p.len() as f64 * e)
        })
        .sum::<Option<f64>>()?;
    Some(total - split)
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
