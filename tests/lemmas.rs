//! Cross-crate verification of the paper's formal claims on realistic
//! (generated) data, larger than the unit-test fixtures:
//!
//! * Lemma 1 — RF bellwether tree ≡ naive bellwether tree, at `l` scans;
//! * Lemma 2 — single-scan cube ≡ naive cube, at 1 scan;
//! * Theorem 1 — the optimized cube (suffstats rollup) ≡ single-scan.

use bellwether::prelude::*;
use bellwether_core::{
    build_naive_cube, build_naive_tree, build_optimized_cube, build_rainforest,
    build_single_scan_cube, CubeConfig, ErrorMeasure, TreeConfig,
};

fn workload() -> (bellwether_datagen::ScaleWorkload, MemorySource) {
    let cfg = ScaleConfig {
        n_items: 400,
        fact_dim_leaves: [3, 3],
        item_hierarchy_leaves: [3, 2, 2],
        n_numeric_attrs: 3,
        regional_features: 4,
        bellwether_noise: 0.5,
        seed: 1234,
    };
    let w = build_scale_workload(&cfg);
    let src = w.memory_source();
    (w, src)
}

fn problem() -> BellwetherConfig {
    BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(10)
        .error_measure(ErrorMeasure::TrainingSet)
        .build()
        .unwrap()
}

fn tree_cfg() -> TreeConfig {
    TreeConfig {
        max_depth: 3,
        min_node_items: 60,
        max_numeric_splits: 5,
        ..TreeConfig::default()
    }
}

#[test]
fn lemma_1_rf_equals_naive_tree() {
    let (w, src) = workload();
    let naive =
        build_naive_tree(&src, &w.region_space, &w.items, None, &problem(), &tree_cfg())
            .unwrap();
    let rf =
        build_rainforest(&src, &w.region_space, &w.items, None, &problem(), &tree_cfg())
            .unwrap();

    // Structural equality: same node count, same leaf regions and item
    // partitions level by level.
    assert_eq!(naive.nodes.len(), rf.nodes.len());
    assert_eq!(naive.num_leaves(), rf.num_leaves());
    for id in w.items.ids() {
        let a = naive.predicting_info(&w.items, *id).unwrap();
        let b = rf.predicting_info(&w.items, *id).unwrap();
        assert_eq!(a.region, b.region, "item {id} routed differently");
        assert!((a.error - b.error).abs() < 1e-9);
    }
}

/// A tree down to the bit, independent of node numbering (naive numbers
/// depth-first, RF level by level): every node's bellwether — region,
/// error, example count, model coefficients — its items and its split.
fn canonical_bits(tree: &BellwetherTree, items: &ItemTable) -> String {
    fn rec(tree: &BellwetherTree, items: &ItemTable, id: usize, out: &mut String) {
        let node = &tree.nodes[id];
        let info = node.info.as_ref().map(|i| {
            let coefficients: Vec<u64> =
                i.model.coefficients().iter().map(|c| c.to_bits()).collect();
            (i.region_index, i.error.to_bits(), i.n_examples, coefficients)
        });
        let mut ids: Vec<i64> = node.item_rows.iter().map(|&r| items.ids()[r]).collect();
        ids.sort_unstable();
        out.push_str(&format!("({info:?} {ids:?}"));
        if let Some((criterion, children)) = &node.split {
            out.push_str(&criterion.describe(items));
            for &c in children {
                rec(tree, items, c, out);
            }
        }
        out.push(')');
    }
    let mut out = String::new();
    rec(tree, items, 0, &mut out);
    out
}

/// Lemma 1 where a level has many nodes: random scale workloads grown to
/// depth 4 and beyond with small nodes, on the whole item table and on a
/// `root_rows` subset of it, at three thread counts. Equal means equal
/// bits.
#[test]
fn lemma_1_on_deep_random_workloads_at_any_thread_count() {
    bellwether_prop::check("lemma_1_deep_random_workloads", 4, |rng| {
        let w = build_scale_workload(&ScaleConfig {
            n_items: rng.usize_in(60, 140),
            fact_dim_leaves: [rng.usize_in(2, 4), rng.usize_in(2, 4)],
            item_hierarchy_leaves: [rng.usize_in(2, 4), 2, 2],
            n_numeric_attrs: 2,
            regional_features: 2,
            bellwether_noise: 0.5,
            seed: rng.next_u64(),
        });
        let src = w.memory_source();
        let tree_cfg = TreeConfig {
            max_depth: rng.usize_in(4, 6),
            min_node_items: 6,
            max_numeric_splits: 2,
            // Grow wherever a split can be scored at all.
            require_positive_goodness: false,
            perfect_error_tol: 0.0,
            ..TreeConfig::default()
        };
        let subset: Vec<usize> = (0..w.items.len()).filter(|_| rng.flip(0.7)).collect();
        for root_rows in [None, Some(subset)] {
            let mut builds = Vec::new();
            for threads in [1usize, 2, 4] {
                let mut problem = problem();
                problem.min_examples = 4;
                problem.parallelism = Parallelism::fixed(threads).with_min_chunk(1);
                let space = &w.region_space;
                let naive =
                    build_naive_tree(&src, space, &w.items, root_rows.clone(), &problem, &tree_cfg)
                        .unwrap();
                let rf =
                    build_rainforest(&src, space, &w.items, root_rows.clone(), &problem, &tree_cfg)
                        .unwrap();
                let widest = (0..=rf.depth())
                    .map(|d| rf.nodes.iter().filter(|n| n.depth == d).count())
                    .max();
                assert!(rf.depth() >= 4 && widest >= Some(4), "shallow tree: widest {widest:?}");
                builds.push(canonical_bits(&naive, &w.items));
                builds.push(canonical_bits(&rf, &w.items));
            }
            assert!(builds.iter().all(|b| *b == builds[0]), "naive and RF builds differ");
        }
    });
}

/// Cross-validation shuffles each child's own row positions into folds,
/// which no shared statistic reproduces: its trees are scored from
/// gathered rows, as every tree was before the training-set measure got
/// level statistics. That path must not move when the other does — the
/// digests are those of the commit before level statistics (PR 16).
#[test]
fn cross_validated_trees_are_the_gather_paths_bit_for_bit() {
    fn fnv1a(text: &str) -> u64 {
        text.bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }
    let (w, src) = workload();
    let mut problem = problem();
    problem.error_measure = ErrorMeasure::CrossValidation { folds: 5, seed: 99 };
    let tree_cfg = TreeConfig {
        max_depth: 3,
        min_node_items: 40,
        max_numeric_splits: 3,
        ..TreeConfig::default()
    };
    let rf = build_rainforest(&src, &w.region_space, &w.items, None, &problem, &tree_cfg).unwrap();
    assert!(rf.nodes.len() >= 5, "{} nodes", rf.nodes.len());
    assert_eq!(fnv1a(&canonical_bits(&rf, &w.items)), CV_TREE_DIGEST);
    let naive =
        build_naive_tree(&src, &w.region_space, &w.items, None, &problem, &tree_cfg).unwrap();
    assert_eq!(fnv1a(&canonical_bits(&naive, &w.items)), CV_TREE_DIGEST);
}

/// FNV-1a of [`canonical_bits`] of the tree above.
const CV_TREE_DIGEST: u64 = 6_086_481_988_088_189_166;

#[test]
fn lemma_1_rf_scan_budget() {
    let (w, src) = workload();
    let regions = src.num_regions() as u64;
    let reads = |tree_cfg: &TreeConfig| {
        let before = src.snapshot().regions_read();
        let rf = build_rainforest(&src, &w.region_space, &w.items, None, &problem(), tree_cfg)
            .unwrap();
        (rf, src.snapshot().regions_read() - before)
    };
    // The paper's `l`: one scan per level above the leaves, whose
    // bellwethers their parent's scan already found, plus one fit-read
    // per node.
    let (rf, read) = reads(&tree_cfg());
    assert_eq!(rf.depth(), tree_cfg().max_depth, "the tree reaches its depth cap");
    assert_eq!(
        read,
        rf.depth() as u64 * regions + rf.nodes.len() as u64,
        "RF must scan once per level above the leaves plus one fit-read per node"
    );
    // A stump still scans once, for the root's own bellwether.
    let stump = TreeConfig {
        max_depth: 0,
        ..tree_cfg()
    };
    let (rf, read) = reads(&stump);
    assert_eq!(rf.nodes.len(), 1);
    assert_eq!(read, regions + 1);
}

/// Every non-root node's bellwether is inherited from the scan that
/// scored it as a child of its parent's chosen criterion. The oracle is
/// the scan that found it before: the node planned alone, without
/// candidates, for its own error. Under cross-validation a child's
/// gathered rows are the rows its own scan gathers, and under the
/// training-set measure a categorical child's bucket is its total slot,
/// so both give the same bits; a numeric child sums the same rows'
/// terms as a merge of buckets, which moves the error by no more than
/// reordering `n` additions can (the bound of
/// `statistics_match_the_gather_oracle_within_the_summation_bound`).
#[test]
fn a_node_inherits_its_bellwether_from_its_parents_scan() {
    use bellwether_core::tree::partition::{LevelPlan, RoutedScratch, Scope};
    use bellwether_core::{scan_regions, BestRegion, WithScratch};
    let (categorical, numeric) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    bellwether_prop::check("inherited_bellwethers_vs_own_scans", 4, |rng| {
        let w = build_scale_workload(&ScaleConfig {
            n_items: rng.usize_in(150, 300),
            fact_dim_leaves: [rng.usize_in(2, 4), rng.usize_in(2, 4)],
            item_hierarchy_leaves: [rng.usize_in(2, 4), 2, 2],
            n_numeric_attrs: 2,
            regional_features: 2,
            bellwether_noise: 0.5,
            seed: rng.next_u64(),
        });
        let src = w.memory_source();
        let tree_cfg = TreeConfig {
            max_depth: 4,
            min_node_items: 20,
            max_numeric_splits: 3,
            require_positive_goodness: false,
            perfect_error_tol: 0.0,
            ..TreeConfig::default()
        };
        for measure in [ErrorMeasure::TrainingSet, ErrorMeasure::CrossValidation { folds: 3, seed: 5 }] {
            let mut problem = problem();
            problem.min_examples = 4;
            problem.error_measure = measure;
            let own_scan = |rows: &[usize]| -> BestRegion {
                let nodes: [(&[usize], &[_]); 1] = [(rows, &[])];
                let plan = LevelPlan::new(w.items.index(), measure, &nodes);
                let scanned = scan_regions(
                    &src,
                    Parallelism::sequential(),
                    problem.scan_policy,
                    |_| true,
                    || WithScratch { acc: BestRegion::default(), scratch: RoutedScratch::new() },
                    |ws: &mut WithScratch<BestRegion, RoutedScratch>, idx, block| {
                        let WithScratch { acc, scratch } = ws;
                        plan.score(block, scratch, &problem, Scope::Level, |_, _, err| acc.observe(idx, err));
                        Ok(())
                    },
                );
                scanned.unwrap().acc.acc
            };
            let space = &w.region_space;
            let builds = [
                build_rainforest(&src, space, &w.items, None, &problem, &tree_cfg).unwrap(),
                build_naive_tree(&src, space, &w.items, None, &problem, &tree_cfg).unwrap(),
            ];
            for tree in &builds {
                assert!(tree.depth() >= 2, "shallow tree");
                for parent in &tree.nodes {
                    let Some((criterion, children)) = &parent.split else { continue };
                    for &child in children {
                        let node = &tree.nodes[child];
                        let info = node.info.as_ref().expect("a split's children are fitted");
                        let (region, err) = own_scan(&node.item_rows).0.expect("an own bellwether");
                        assert_eq!(info.region_index, region, "node {child}");
                        let numeric_split = matches!(criterion, SplitCriterion::Numeric { .. });
                        if !numeric_split || measure != ErrorMeasure::TrainingSet {
                            assert_eq!(info.error.to_bits(), err.to_bits(), "node {child}");
                            categorical.set(categorical.get() + usize::from(!numeric_split));
                            continue;
                        }
                        // `|ΔSSE| ≤ 64·n·ε·Y'Y` over the node's rows of the
                        // winning region, whose SSE is `err²·(n − p)`.
                        numeric.set(numeric.get() + 1);
                        let block = &src.blocks()[region];
                        let ids: std::collections::HashSet<i64> =
                            node.item_rows.iter().map(|&r| w.items.ids()[r]).collect();
                        let rows = (0..block.n()).filter(|&i| ids.contains(&block.item_ids[i]));
                        let (ytwy, n) = rows.fold((0.0, 0), |(s, n), i| (s + block.y(i) * block.y(i), n + 1));
                        let dof = (n - block.p as usize) as f64;
                        let delta = (info.error * info.error * dof - err * err * dof).abs();
                        let bound = 64.0 * n as f64 * f64::EPSILON * ytwy;
                        assert!(delta <= bound, "node {child}: ΔSSE {delta:e} > {bound:e}");
                    }
                }
            }
        }
    });
    let (categorical, numeric) = (categorical.get(), numeric.get());
    assert!(categorical > 10 && numeric > 10, "{categorical} categorical, {numeric} numeric");
}

/// Both builders hand the error engine a subset's rows of a block in
/// ascending order, so under either measure every cell is the same down
/// to the bit: region, error and spread, model and example count.
#[test]
fn lemma_2_single_scan_equals_naive_cube() {
    let (w, src) = workload();
    let cc = CubeConfig {
        min_subset_size: 25,
    };
    for measure in [ErrorMeasure::TrainingSet, ErrorMeasure::CrossValidation { folds: 5, seed: 99 }] {
        let mut problem = problem();
        problem.error_measure = measure;
        let naive =
            build_naive_cube(&src, &w.region_space, &w.item_space, &w.item_coords, &problem, &cc)
                .unwrap();
        let single =
            build_single_scan_cube(&src, &w.region_space, &w.item_space, &w.item_coords, &problem, &cc)
                .unwrap();
        assert_eq!(naive.cells.len(), single.cells.len());
        assert!(!naive.cells.is_empty());
        for (subset, a) in &naive.cells {
            let b = &single.cells[subset];
            let what = format!("{measure:?} subset {subset:?}");
            assert_eq!(a.region, b.region, "{what}");
            assert_eq!(a.error.value.to_bits(), b.error.value.to_bits(), "{what}");
            assert_eq!(a.error.std_err.to_bits(), b.error.std_err.to_bits(), "{what}");
            let bits = |m: &bellwether_linreg::LinearModel| -> Vec<u64> {
                m.coefficients().iter().map(|c| c.to_bits()).collect()
            };
            assert_eq!(bits(&a.model), bits(&b.model), "{what}");
            assert_eq!(a.n_examples, b.n_examples, "{what}");
            assert_eq!(a.size, b.size, "{what}");
        }
    }
}

#[test]
fn theorem_1_optimized_equals_single_scan() {
    let (w, src) = workload();
    let cc = CubeConfig {
        min_subset_size: 25,
    };
    let single = build_single_scan_cube(
        &src,
        &w.region_space,
        &w.item_space,
        &w.item_coords,
        &problem(),
        &cc,
    )
    .unwrap();
    let optimized = build_optimized_cube(
        &src,
        &w.region_space,
        &w.item_space,
        &w.item_coords,
        &problem(),
        &cc,
    )
    .unwrap();
    assert_eq!(single.cells.len(), optimized.cells.len());
    for (subset, a) in &single.cells {
        let b = &optimized.cells[subset];
        assert_eq!(a.region, b.region, "subset {subset:?}");
        assert!(
            (a.error.value - b.error.value).abs() < 1e-6,
            "{subset:?}: {} vs {}",
            a.error.value,
            b.error.value
        );
    }
}

#[test]
fn scan_count_ordering_naive_vs_scan_based() {
    let (w, src) = workload();
    let cc = CubeConfig {
        min_subset_size: 25,
    };

    let reads = || src.snapshot().regions_read();
    let before = reads();
    build_single_scan_cube(
        &src,
        &w.region_space,
        &w.item_space,
        &w.item_coords,
        &problem(),
        &cc,
    )
    .unwrap();
    let single_reads = reads() - before;

    let before = reads();
    build_naive_cube(
        &src,
        &w.region_space,
        &w.item_space,
        &w.item_coords,
        &problem(),
        &cc,
    )
    .unwrap();
    let naive_reads = reads() - before;
    assert!(
        naive_reads > 3 * single_reads,
        "naive {naive_reads} vs single {single_reads}"
    );
}
