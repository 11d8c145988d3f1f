//! Bellwether trees (§5): item-centric bellwether prediction by
//! recursive partitioning on item-table features.
//!
//! A bellwether tree looks like a regression tree, but each leaf holds a
//! *bellwether region and model* for its item subset instead of a
//! constant prediction. Split quality is the reduction in total weighted
//! error, `Goodness(c) = |S|·Error(h_r|S) − Σ_p |S_p|·Error(h_{r_p}|S_p)`,
//! where each error is already minimised over feasible regions.
//!
//! Two construction algorithms produce **identical trees** (Lemma 1):
//! [`naive::build_naive`] re-reads the entire training data for every
//! (node, criterion), while [`rainforest::build_rainforest`] scans it
//! once per level above the leaves, accumulating the sufficient statistic
//! `{MinError[v,c,p], Size[v,c,p]}` with each minimum's region — a child's
//! bellwether, so only the root's is scanned for.

pub mod naive;
pub mod partition;
pub mod prune;
pub mod rainforest;
#[cfg(test)]
pub(crate) mod tests_support;

use crate::error::{BellwetherError, Result};
use crate::eval::{record_eval_stats, RegionEvalScratch, WinnerFits};
use crate::items::{ItemIndex, ItemTable};
use crate::problem::BellwetherConfig;
use crate::scan::{scan_regions, BestRegion, Scanned, WithScratch};
use bellwether_cube::{RegionId, RegionSpace};
use bellwether_linreg::LinearModel;
use bellwether_storage::TrainingSource;
use std::collections::{HashMap, HashSet};

/// Construction knobs for bellwether trees.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum tree depth (root = 0). The scalability experiments use 7.
    pub max_depth: usize,
    /// Termination threshold: do not split nodes with fewer items.
    pub min_node_items: usize,
    /// Cap on numeric thresholds considered per attribute (the paper
    /// suggests ~50 percentiles when distinct values are many).
    pub max_numeric_splits: usize,
    /// Only split when the best criterion strictly reduces error
    /// (a pre-pruning stand-in for post-hoc MDL pruning).
    pub require_positive_goodness: bool,
    /// Nodes whose error is already below this RMSE are treated as
    /// (numerically) perfect and never split: on noiseless data the
    /// residual error is floating-point noise, and "improving" it grows
    /// spurious subtrees.
    pub perfect_error_tol: f64,
    /// Post-construction cost-complexity pruning strength (the paper's
    /// MDL-pruning stand-in): each extra leaf must cut at least this
    /// fraction of the root's total weighted error to survive. 0 = no
    /// pruning.
    pub prune_frac: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 7,
            min_node_items: 40,
            max_numeric_splits: 50,
            require_positive_goodness: true,
            perfect_error_tol: 1e-6,
            prune_frac: 0.0,
        }
    }
}

impl TreeConfig {
    /// Start building from the defaults, with validation at
    /// [`TreeConfigBuilder::build`] time.
    pub fn builder() -> TreeConfigBuilder {
        TreeConfigBuilder(TreeConfig::default())
    }
}

/// Builder for [`TreeConfig`] with typed validation, matching
/// `BellwetherConfig::builder` in style.
#[derive(Debug, Clone, Default)]
pub struct TreeConfigBuilder(TreeConfig);

impl TreeConfigBuilder {
    /// Maximum tree depth (root = 0).
    pub fn max_depth(mut self, d: usize) -> Self {
        self.0.max_depth = d;
        self
    }

    /// Termination threshold: do not split nodes with fewer items (≥ 1).
    pub fn min_node_items(mut self, n: usize) -> Self {
        self.0.min_node_items = n;
        self
    }

    /// Cap on numeric thresholds per attribute (≥ 1).
    pub fn max_numeric_splits(mut self, n: usize) -> Self {
        self.0.max_numeric_splits = n;
        self
    }

    /// Only split when the best criterion strictly reduces error.
    pub fn require_positive_goodness(mut self, b: bool) -> Self {
        self.0.require_positive_goodness = b;
        self
    }

    /// RMSE below which a node counts as perfect (finite, ≥ 0).
    pub fn perfect_error_tol(mut self, tol: f64) -> Self {
        self.0.perfect_error_tol = tol;
        self
    }

    /// Cost-complexity pruning strength ∈ [0, 1]; 0 = no pruning.
    pub fn prune_frac(mut self, f: f64) -> Self {
        self.0.prune_frac = f;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<TreeConfig> {
        let c = self.0;
        if c.min_node_items == 0 {
            return Err(BellwetherError::Config(
                "min_node_items must be at least 1".to_string(),
            ));
        }
        if c.max_numeric_splits == 0 {
            return Err(BellwetherError::Config(
                "max_numeric_splits must be at least 1".to_string(),
            ));
        }
        if !c.perfect_error_tol.is_finite() || c.perfect_error_tol < 0.0 {
            return Err(BellwetherError::Config(format!(
                "perfect_error_tol must be finite and non-negative, got {}",
                c.perfect_error_tol
            )));
        }
        if !(0.0..=1.0).contains(&c.prune_frac) {
            return Err(BellwetherError::Config(format!(
                "prune_frac must be in [0, 1], got {}",
                c.prune_frac
            )));
        }
        Ok(c)
    }
}

/// A splitting criterion over item-table features.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitCriterion {
    /// `⟨A_k⟩`: one child per categorical value present at the node.
    Categorical {
        /// Index into `ItemTable::categorical_attrs`.
        attr: usize,
        /// Dictionary code → child slot.
        code_children: HashMap<u32, usize>,
    },
    /// `⟨A_k, b⟩`: child 0 takes `A_k < b`, child 1 takes `A_k ≥ b`.
    Numeric {
        /// Index into `ItemTable::numeric_attrs`.
        attr: usize,
        /// Split point b.
        threshold: f64,
    },
}

impl SplitCriterion {
    /// Which child slot an item-table row goes to; `None` if the value
    /// was unseen at construction (caller stops routing there).
    pub fn child_of(&self, items: &ItemTable, row: usize) -> Option<usize> {
        match self {
            SplitCriterion::Categorical {
                attr,
                code_children,
            } => {
                let code = items.categorical_attrs()[*attr].codes[row];
                code_children.get(&code).copied()
            }
            SplitCriterion::Numeric { attr, threshold } => {
                let v = items.numeric_attrs()[*attr].values[row];
                Some(if v < *threshold { 0 } else { 1 })
            }
        }
    }

    /// Human-readable form, e.g. `rd_expense >= 50000` or `category`.
    pub fn describe(&self, items: &ItemTable) -> String {
        match self {
            SplitCriterion::Categorical { attr, .. } => {
                format!("⟨{}⟩", items.categorical_attrs()[*attr].name)
            }
            SplitCriterion::Numeric { attr, threshold } => {
                format!("⟨{} ≥ {threshold}⟩", items.numeric_attrs()[*attr].name)
            }
        }
    }
}

/// A candidate split at a node: the criterion plus its induced partition
/// of the node's item rows. Both construction algorithms enumerate
/// candidates through [`candidate_splits`], so their criterion order —
/// and therefore tie-breaking — is identical.
#[derive(Debug, Clone)]
pub struct CandidateSplit {
    /// The criterion.
    pub criterion: SplitCriterion,
    /// Item rows per child (indices into the ItemTable).
    pub partition: Vec<Vec<usize>>,
}

/// Enumerate the paper's candidate criteria for a node holding the item
/// rows `rows`: one per categorical attribute (children = values present)
/// and one per numeric threshold (midpoints of sorted distinct values,
/// capped at `max_numeric_splits` percentile points).
pub fn candidate_splits(
    items: &ItemTable,
    rows: &[usize],
    config: &TreeConfig,
) -> Vec<CandidateSplit> {
    let mut out = Vec::new();

    for (attr, cat) in items.categorical_attrs().iter().enumerate() {
        let mut code_children: HashMap<u32, usize> = HashMap::new();
        let mut partition: Vec<Vec<usize>> = Vec::new();
        for &row in rows {
            let code = cat.codes[row];
            let slot = *code_children.entry(code).or_insert_with(|| {
                partition.push(Vec::new());
                partition.len() - 1
            });
            partition[slot].push(row);
        }
        if partition.len() >= 2 {
            out.push(CandidateSplit {
                criterion: SplitCriterion::Categorical {
                    attr,
                    code_children,
                },
                partition,
            });
        }
    }

    for (attr, num) in items.numeric_attrs().iter().enumerate() {
        let mut values: Vec<f64> = rows.iter().map(|&r| num.values[r]).collect();
        values.sort_by(f64::total_cmp);
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        let mut thresholds: Vec<f64> = values
            .windows(2)
            .map(|w| (w[0] + w[1]) / 2.0)
            .collect();
        if thresholds.len() > config.max_numeric_splits {
            // Percentile thinning: keep max_numeric_splits evenly spaced.
            let step = thresholds.len() as f64 / config.max_numeric_splits as f64;
            thresholds = (0..config.max_numeric_splits)
                .map(|i| thresholds[(i as f64 * step) as usize])
                .collect();
        }
        for threshold in thresholds {
            let mut partition = vec![Vec::new(), Vec::new()];
            for &row in rows {
                let slot = usize::from(num.values[row] >= threshold);
                partition[slot].push(row);
            }
            if !partition[0].is_empty() && !partition[1].is_empty() {
                out.push(CandidateSplit {
                    criterion: SplitCriterion::Numeric { attr, threshold },
                    partition,
                });
            }
        }
    }
    out
}

/// The bellwether found for one node's item subset.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// Index of the bellwether region in the training source.
    pub region_index: usize,
    /// The bellwether region.
    pub region: RegionId,
    /// Display label.
    pub label: String,
    /// `Error(h_r | S)` — minimum over feasible regions.
    pub error: f64,
    /// The bellwether model, trained on the node's items in the region.
    pub model: LinearModel,
    /// Training examples behind the model.
    pub n_examples: usize,
}

/// One tree node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Depth (root = 0).
    pub depth: usize,
    /// Item-table rows of the node's item subset.
    pub item_rows: Vec<usize>,
    /// Bellwether for this subset (present on every node so routing can
    /// stop early on unseen categorical values).
    pub info: Option<NodeInfo>,
    /// Chosen split and child node ids; `None` for leaves.
    pub split: Option<(SplitCriterion, Vec<usize>)>,
}

/// A fitted bellwether tree.
#[derive(Debug, Clone)]
pub struct BellwetherTree {
    /// Nodes; index 0 is the root.
    pub nodes: Vec<Node>,
    /// Region indices skipped as unreadable during construction
    /// (sorted, deduplicated across all scans). Empty under
    /// [`crate::scan::ScanPolicy::Strict`]; non-empty marks the tree as
    /// a degraded result built without those regions.
    pub skipped_regions: Vec<usize>,
}

impl BellwetherTree {
    /// The root node.
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    /// Node ids reachable from the root (pruning leaves orphaned
    /// subtrees in the arena; they are not part of the logical tree).
    fn reachable(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![0usize];
        while let Some(id) = stack.pop() {
            out.push(id);
            if let Some((_, children)) = &self.nodes[id].split {
                stack.extend_from_slice(children);
            }
        }
        out
    }

    /// Number of (reachable) leaves.
    pub fn num_leaves(&self) -> usize {
        self.reachable()
            .into_iter()
            .filter(|&id| self.nodes[id].split.is_none())
            .count()
    }

    /// Depth of the deepest reachable node.
    pub fn depth(&self) -> usize {
        self.reachable()
            .into_iter()
            .map(|id| self.nodes[id].depth)
            .max()
            .unwrap_or(0)
    }

    /// Route an item-table row to the deepest reachable node (a leaf, or
    /// an internal node if a categorical value was unseen below it).
    pub fn route_row(&self, items: &ItemTable, row: usize) -> usize {
        let mut at = 0;
        loop {
            let node = &self.nodes[at];
            let Some((criterion, children)) = &node.split else {
                return at;
            };
            match criterion.child_of(items, row) {
                Some(slot) => at = children[slot],
                None => return at,
            }
        }
    }

    /// Route by item id.
    pub fn route_item(&self, items: &ItemTable, id: i64) -> Option<usize> {
        Some(self.route_row(items, items.row_of(id)?))
    }

    /// The node whose bellwether model should predict for `id`: the
    /// routed node, or its nearest ancestor carrying a model.
    pub fn predicting_info(&self, items: &ItemTable, id: i64) -> Option<&NodeInfo> {
        let mut at = self.route_item(items, id)?;
        loop {
            if let Some(info) = &self.nodes[at].info {
                return Some(info);
            }
            // info is set on every constructed node; this loop guards
            // against degenerate trees where a node could not fit any
            // model — fall back toward the root.
            if at == 0 {
                return None;
            }
            at = self
                .nodes
                .iter()
                .position(|n| {
                    n.split
                        .as_ref()
                        .is_some_and(|(_, ch)| ch.contains(&at))
                })
                .unwrap_or(0);
        }
    }

    /// Render the tree as an indented outline (for examples and docs).
    pub fn describe(&self, items: &ItemTable) -> String {
        let mut out = String::new();
        self.describe_node(0, 0, items, &mut out);
        out
    }

    fn describe_node(&self, id: usize, indent: usize, items: &ItemTable, out: &mut String) {
        let node = &self.nodes[id];
        let pad = "  ".repeat(indent);
        match (&node.split, &node.info) {
            (Some((c, children)), _) => {
                out.push_str(&format!(
                    "{pad}split {} ({} items)\n",
                    c.describe(items),
                    node.item_rows.len()
                ));
                for &ch in children {
                    self.describe_node(ch, indent + 1, items, out);
                }
            }
            (None, Some(info)) => {
                out.push_str(&format!(
                    "{pad}leaf {} err={:.4} ({} items)\n",
                    info.label,
                    info.error,
                    node.item_rows.len()
                ));
            }
            (None, None) => {
                out.push_str(&format!("{pad}leaf (unfit, {} items)\n", node.item_rows.len()));
            }
        }
    }
}

/// The basic bellwether scan for an item subset: the region whose
/// block, restricted to the items `members` indexes, gives the lowest
/// `Error(h_r | S)` (a block holding fewer than `min_examples` of them
/// supports no model). One pass through the shared [`crate::scan`]
/// engine, so it parallelises under `config.parallelism` and honours
/// `config.scan_policy`; the skip count and the workers' `linreg/*`
/// counters are recorded here.
pub(crate) fn best_region(
    source: &dyn TrainingSource,
    members: &ItemIndex,
    config: &BellwetherConfig,
) -> Result<Scanned<BestRegion>> {
    let scanned = scan_regions(
        source,
        config.parallelism,
        config.scan_policy,
        |_| true,
        || WithScratch {
            acc: BestRegion::default(),
            scratch: RegionEvalScratch::new(),
        },
        |ws: &mut WithScratch<BestRegion, RegionEvalScratch>, idx, block| {
            ws.scratch.gather(block, Some(members));
            if ws.scratch.data.n() >= config.min_examples.max(1) {
                if let Some(err) = ws.scratch.estimate_value(config) {
                    ws.acc.observe(idx, err);
                }
            }
            Ok(())
        },
    )?;
    scanned.record_skipped(config.recorder.as_ref());
    let WithScratch { acc, scratch } = scanned.acc;
    record_eval_stats(config.recorder.as_ref(), &scratch.eval.stats);
    Ok(Scanned {
        acc,
        skipped: scanned.skipped,
    })
}

/// Solve the basic bellwether problem for an item subset: one
/// `best_region` scan over all stored regions, then the winner fit.
/// Returns the min-error region and its model.
pub fn subset_bellwether(
    source: &dyn TrainingSource,
    space: &RegionSpace,
    keep: &HashSet<i64>,
    config: &BellwetherConfig,
) -> Result<Option<NodeInfo>> {
    let members: ItemIndex = keep.iter().copied().collect();
    let Some((region_index, error)) = best_region(source, &members, config)?.acc.0 else {
        return Ok(None);
    };
    fit_node(source, space, config, &members, region_index, error)?
        .ok_or_else(|| BellwetherError::Config("winning region no longer fits a model".into()))
        .map(Some)
}

/// The final model of a node — the items `keep` indexes — from its
/// winning region and the error the scan found there: one
/// [`WinnerFits::fit`], so one targeted read. `None` when the rows no
/// longer fit a model.
pub(crate) fn fit_node(
    source: &dyn TrainingSource,
    space: &RegionSpace,
    config: &BellwetherConfig,
    keep: &ItemIndex,
    region_index: usize,
    error: f64,
) -> Result<Option<NodeInfo>> {
    let fitted = WinnerFits::new(source, config).fit(region_index, keep, |_| Some(error))?;
    Ok(fitted.map(|w| NodeInfo {
        region_index,
        label: space.label(&w.region),
        region: w.region,
        error: w.error,
        model: w.model,
        n_examples: w.n_examples,
    }))
}

pub(crate) use crate::scan::merge_skipped;

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_table::{Column, DataType, Schema, Table};

    fn items() -> ItemTable {
        let t = Table::new(
            Schema::from_pairs(&[
                ("id", DataType::Int),
                ("cat", DataType::Str),
                ("x", DataType::Float),
            ])
            .unwrap(),
            vec![
                Column::from_ints(vec![1, 2, 3, 4]),
                Column::from_strs(&["a", "b", "a", "b"]),
                Column::from_floats(vec![1.0, 2.0, 3.0, 4.0]),
            ],
        )
        .unwrap();
        ItemTable::from_table(&t, "id", &["x"], &["cat"]).unwrap()
    }

    #[test]
    fn candidates_enumerate_cat_and_numeric() {
        let it = items();
        let cands = candidate_splits(&it, &[0, 1, 2, 3], &TreeConfig::default());
        // 1 categorical + 3 numeric midpoints (1.5, 2.5, 3.5)
        assert_eq!(cands.len(), 4);
        assert!(matches!(
            cands[0].criterion,
            SplitCriterion::Categorical { .. }
        ));
        assert_eq!(cands[0].partition.len(), 2);
        assert_eq!(cands[0].partition[0], vec![0, 2]); // "a"
        let numeric: Vec<f64> = cands[1..]
            .iter()
            .map(|c| match c.criterion {
                SplitCriterion::Numeric { threshold, .. } => threshold,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(numeric, vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn single_valued_attrs_produce_no_candidates() {
        let it = items();
        // rows 0 and 2 share cat "a"; x values 1 and 3 differ
        let cands = candidate_splits(&it, &[0, 2], &TreeConfig::default());
        assert_eq!(cands.len(), 1); // only the numeric midpoint 2.0
        assert!(matches!(cands[0].criterion, SplitCriterion::Numeric { .. }));
    }

    #[test]
    fn numeric_split_cap() {
        let t = Table::new(
            Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap(),
            vec![
                Column::from_ints((0..200).collect()),
                Column::from_floats((0..200).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let it = ItemTable::from_table(&t, "id", &["x"], &[]).unwrap();
        let rows: Vec<usize> = (0..200).collect();
        let cfg = TreeConfig {
            max_numeric_splits: 10,
            ..TreeConfig::default()
        };
        let cands = candidate_splits(&it, &rows, &cfg);
        assert_eq!(cands.len(), 10);
    }

    #[test]
    fn criterion_routing() {
        let it = items();
        let crit = SplitCriterion::Numeric {
            attr: 0,
            threshold: 2.5,
        };
        assert_eq!(crit.child_of(&it, 0), Some(0));
        assert_eq!(crit.child_of(&it, 3), Some(1));
        let mut map = HashMap::new();
        map.insert(0u32, 0usize); // code of "a"
        let cat = SplitCriterion::Categorical {
            attr: 0,
            code_children: map,
        };
        assert_eq!(cat.child_of(&it, 0), Some(0));
        assert_eq!(cat.child_of(&it, 1), None); // "b" unseen
    }
}
