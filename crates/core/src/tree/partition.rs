//! Shared partition-error computation.
//!
//! Both tree algorithms must score a node and its candidate criteria the
//! same way, or Lemma 1 (naive ≡ RainForest) breaks. This module is that
//! single code path: a [`LevelPlan`] over the item-disjoint nodes of one
//! scan scores a region block — each node's own error and each
//! candidate's child errors — and both builders only choose which of
//! those a scan wants ([`Scope`]).
//!
//! Routing is dense. A scan resolves a block's id lane to item positions
//! once ([`ItemIndex`]) and [`GroupRouting`] maps a position to the one
//! node holding the item and the item's place within it. What happens to
//! a routed row follows the error measure:
//!
//! * **Training-set error** is an algebraic aggregate of the mergeable
//!   `⟨Y'WY, X'WX, X'WY⟩` (Theorem 1), so a row is never copied: its
//!   unit-weight terms are computed once and added to the node's *total*
//!   slot and to one *bucket* slot per attribute that has a candidate. A
//!   categorical attribute's buckets are its criterion's children; the
//!   `m` thresholds of a numeric attribute share `m + 1` buckets and
//!   every threshold's two children are merges of them. See
//!   [`LevelPlan`] for the order of every sum.
//! * **Cross-validation** draws its folds from a shuffle of the child's
//!   own row positions, which no shared statistic can reproduce, so it
//!   reads rows off the same plan instead of summing them: rows are
//!   handed to their node, and a child's rows are those whose bucket
//!   entry its criterion admits, gathered into the one
//!   [`RegionEvalScratch`]. Rows keep their ascending block order at
//!   every step, so each dataset — and every reduction over it — is the
//!   one a per-child filter of the block would give. This reader is
//!   also the oracle the statistics path is tested against.

use super::{CandidateSplit, SplitCriterion};
use crate::eval::RegionEvalScratch;
use crate::items::{ItemIndex, NO_ITEM};
use crate::problem::{BellwetherConfig, ErrorMeasure};
use crate::scan::ScanScratch;
use bellwether_linreg::{EvalScratch, RegSuffStats};
use bellwether_storage::RegionBlock;
use std::ops::Range;

/// Bucket entry of an item that no child of a categorical criterion
/// takes.
const NO_CHILD: u32 = u32::MAX;

/// Where an item sits among a scan's groups.
#[derive(Debug, Clone, Copy)]
struct Place {
    group: u32,
    /// Position within the group's item list.
    at: u32,
}

/// Dense routing of block rows to the item-disjoint groups of one scan —
/// the nodes of a tree level (RainForest), or a single node (naive).
#[derive(Debug)]
struct GroupRouting<'a> {
    index: &'a ItemIndex,
    /// Per position of `index`; `group == NO_ITEM` for items in no group.
    place: Vec<Place>,
    n_groups: usize,
}

impl<'a> GroupRouting<'a> {
    /// `groups[g]` lists group `g`'s items as positions of `index`
    /// (for an index over [`crate::items::ItemTable::ids`], item-table
    /// rows). Groups must be disjoint.
    fn new<'g>(index: &'a ItemIndex, groups: impl IntoIterator<Item = &'g [usize]>) -> Self {
        let nowhere = Place {
            group: NO_ITEM,
            at: NO_ITEM,
        };
        let mut place = vec![nowhere; index.len()];
        let mut n_groups = 0;
        for (g, items) in groups.into_iter().enumerate() {
            assert!(g < NO_ITEM as usize && items.len() < NO_ITEM as usize);
            for (at, &item) in items.iter().enumerate() {
                place[item] = Place {
                    group: g as u32,
                    at: at as u32,
                };
            }
            n_groups = g + 1;
        }
        GroupRouting {
            index,
            place,
            n_groups,
        }
    }

    /// Hand each row of `block` to the group holding its item: one id
    /// resolution and one `place` load per row, rows ascending within
    /// every group. Rows of unknown or ungrouped items go nowhere.
    fn split(&self, block: &RegionBlock, scratch: &mut RoutedScratch) {
        let RoutedScratch { items, rows, .. } = scratch;
        rows.resize_with(self.n_groups.max(rows.len()), Vec::new);
        rows.iter_mut().for_each(Vec::clear);
        self.index.resolve_into(&block.item_ids, items);
        for (i, &item) in items.iter().enumerate() {
            let Some(place) = self.place.get(item as usize) else { continue };
            let Some(group_rows) = rows.get_mut(place.group as usize) else { continue };
            group_rows.push(i);
        }
        scratch.rows_routed += block.n() as u64;
    }
}

/// Which of a plan's errors one scan wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every node's own error and the children of all its candidates: the
    /// RainForest scan of the root level (and, over a plan without
    /// candidates, the naive tree's scan for the root's own error).
    Level,
    /// The children of every candidate, but no node's own error: a
    /// RainForest level below the root, whose nodes inherited their own
    /// bellwethers from the scan that scored them as children.
    Children,
    /// The children of each node's candidate with this index: the naive
    /// tree's scan for one criterion.
    Candidate(usize),
}

impl Scope {
    /// Whether the scan wants the nodes' own errors.
    fn own(self) -> bool {
        self == Scope::Level
    }

    /// The candidates the scan wants, of a node that has `n`.
    fn candidates(self, n: usize) -> Range<usize> {
        match self {
            Scope::Level | Scope::Children => 0..n,
            Scope::Candidate(c) => c.min(n)..(c + 1).min(n),
        }
    }

    /// The attribute groups (of one node) those candidates sit in.
    fn groups(self, groups: &[AttrGroup]) -> Range<usize> {
        match self {
            Scope::Level | Scope::Children => 0..groups.len(),
            Scope::Candidate(c) => groups
                .iter()
                .position(|group| group.cands.contains(&c))
                .map_or(0..0, |g| g..g + 1),
        }
    }
}

/// One error a scored block yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scored {
    /// The node's own error.
    Node,
    /// The error of one child of one of the node's candidates.
    Child {
        /// Index into the node's candidate list.
        cand: usize,
        /// Child slot within the candidate's partition.
        child: usize,
    },
}

/// The candidates of one node that share an attribute, and the bucket
/// slots their children are merged from.
#[derive(Debug)]
struct AttrGroup {
    /// The candidates it serves (indices into the node's list): one
    /// categorical criterion, or consecutive thresholds of one numeric
    /// attribute.
    cands: Range<usize>,
    /// Its bucket slots: one per child of a categorical criterion,
    /// `m + 1` for `m` thresholds.
    buckets: Range<usize>,
    numeric: bool,
}

impl AttrGroup {
    /// The child of candidate `cand` that holds an item with bucket
    /// entry `entry`: a categorical child is its bucket ([`NO_CHILD`] is
    /// in none), and threshold `j`'s child 0 is buckets `0..=j`, its
    /// child 1 the rest — the nesting [`StatPlan::push_node`] builds.
    fn child_of(&self, cand: usize, entry: u32) -> Option<usize> {
        if entry == NO_CHILD {
            return None;
        }
        let bucket = entry as usize - self.buckets.start;
        Some(if self.numeric {
            usize::from(bucket > cand - self.cands.start)
        } else {
            bucket
        })
    }
}

/// One node's slots.
#[derive(Debug)]
struct StatNode {
    /// The node's total slot.
    total: usize,
    groups: Vec<AttrGroup>,
    n_candidates: usize,
    /// Start of the node's part of [`StatPlan::slot_of`]: the item at
    /// position `at` owns the `groups.len()` entries from
    /// `table + at * groups.len()`, its bucket slot under each group.
    table: usize,
}

/// The statistics form of a plan: the slot numbers of every node and the
/// bucket slot of every (item, attribute group).
#[derive(Debug, Default)]
struct StatPlan {
    nodes: Vec<StatNode>,
    /// [`NO_CHILD`] where a categorical criterion has no child for the
    /// item.
    slot_of: Vec<u32>,
    n_slots: usize,
}

impl StatPlan {
    fn push_node(
        &mut self,
        routing: &GroupRouting,
        items: &[usize],
        candidates: &[CandidateSplit],
    ) {
        let total = self.n_slots;
        let mut next = total + 1;
        let mut groups = Vec::new();
        let mut c = 0;
        while c < candidates.len() {
            let mut end = c + 1;
            let mut numeric = false;
            if let SplitCriterion::Numeric { attr, threshold } = candidates[c].criterion {
                // The thresholds of one attribute, as long as they do
                // not descend: each one's child 1 lies inside that of
                // the one before it.
                numeric = true;
                let mut last = threshold;
                while let Some(SplitCriterion::Numeric {
                    attr: a,
                    threshold: t,
                }) = candidates.get(end).map(|cand| &cand.criterion)
                {
                    if *a != attr || t.partial_cmp(&last).is_none_or(|o| o.is_lt()) {
                        break;
                    }
                    last = *t;
                    end += 1;
                }
            }
            let n_buckets = if numeric {
                end - c + 1
            } else {
                candidates[c].partition.len()
            };
            groups.push(AttrGroup {
                cands: c..end,
                buckets: next..next + n_buckets,
                numeric,
            });
            next += n_buckets;
            c = end;
        }
        assert!(next < NO_CHILD as usize, "too many slots for a u32");

        let table = self.slot_of.len();
        let width = groups.len();
        self.slot_of.resize(table + items.len() * width, NO_CHILD);
        let entry = |item: usize, g: usize| table + routing.place[item].at as usize * width + g;
        for (g, group) in groups.iter().enumerate() {
            let first = &candidates[group.cands.start];
            if group.numeric {
                // An item's bucket is the number of the group's
                // thresholds whose child 1 holds it.
                debug_assert_eq!(
                    first.partition.iter().map(Vec::len).sum::<usize>(),
                    items.len(),
                    "a threshold splits all of the node's items in two"
                );
                for &item in first.partition.iter().flatten() {
                    self.slot_of[entry(item, g)] = group.buckets.start as u32;
                }
                for cand in &candidates[group.cands.clone()] {
                    for &item in &cand.partition[1] {
                        self.slot_of[entry(item, g)] += 1;
                    }
                }
            } else {
                for (child, members) in first.partition.iter().enumerate() {
                    for &item in members {
                        self.slot_of[entry(item, g)] = (group.buckets.start + child) as u32;
                    }
                }
            }
        }
        self.nodes.push(StatNode {
            total,
            groups,
            n_candidates: candidates.len(),
            table,
        });
        self.n_slots = next;
    }

    /// The bucket entries, one per attribute group, of the item at
    /// position `at` of `node`.
    fn entries(&self, node: &StatNode, at: u32) -> &[u32] {
        let width = node.groups.len();
        &self.slot_of[node.table + at as usize * width..][..width]
    }

    /// Read the errors `scope` asks for out of the slots
    /// [`LevelPlan::accumulate`] filled.
    fn errors(
        &self,
        p: usize,
        scratch: &mut RoutedScratch,
        config: &BellwetherConfig,
        scope: Scope,
        sink: &mut impl FnMut(usize, Scored, f64),
    ) {
        let stride = RegSuffStats::flat_len(p);
        let RoutedScratch {
            sums,
            counts,
            wanted,
            prefix,
            suffix,
            suffix_n,
            eval,
            ..
        } = scratch;
        let eval = &mut eval.eval;
        let slot = |s: usize| &sums[s * stride..(s + 1) * stride];
        for (g, node) in self.nodes.iter().enumerate() {
            if scope.own() {
                let n = counts[node.total];
                if n == 0 {
                    continue; // none of the node's items in this block
                }
                if let Some(err) = flat_error(eval, config, p, n, slot(node.total)) {
                    sink(g, Scored::Node, err);
                }
            }
            let cands = scope.candidates(node.n_candidates);
            let mut child = |cand: usize, child: usize, n: u32, flat: &[f64]| {
                if let Some(err) = flat_error(eval, config, p, n, flat) {
                    sink(g, Scored::Child { cand, child }, err);
                }
            };
            // The groups `accumulate` filled for this scope.
            for group in &node.groups[wanted[g].clone()] {
                let base = group.buckets.start;
                if !group.numeric {
                    for (c, bucket) in group.buckets.clone().enumerate() {
                        child(group.cands.start, c, counts[bucket], slot(bucket));
                    }
                    continue;
                }
                // Child 1 of threshold j is buckets j+1..=m, summed from
                // the top bucket down; entry m is the empty sum.
                let m = group.cands.len();
                suffix.clear();
                suffix.resize((m + 1) * stride, 0.0);
                suffix_n.clear();
                suffix_n.resize(m + 1, 0);
                for j in (0..m).rev() {
                    let (below, above) = suffix.split_at_mut((j + 1) * stride);
                    let sum = &mut below[j * stride..];
                    sum.copy_from_slice(&above[..stride]);
                    add_into(sum, slot(base + j + 1));
                    suffix_n[j] = suffix_n[j + 1] + counts[base + j + 1];
                }
                // Child 0 is buckets 0..=j, summed from bucket 0 up.
                prefix.clear();
                prefix.resize(stride, 0.0);
                let mut prefix_n = 0;
                for j in 0..m {
                    add_into(prefix, slot(base + j));
                    prefix_n += counts[base + j];
                    let cand = group.cands.start + j;
                    if cands.contains(&cand) {
                        child(cand, 0, prefix_n, prefix);
                        child(cand, 1, suffix_n[j], &suffix[j * stride..(j + 1) * stride]);
                    }
                }
            }
        }
    }
}

/// `into[i] += from[i]`: the one addition every slot sum and bucket merge
/// is made of.
#[inline]
pub(crate) fn add_into(into: &mut [f64], from: &[f64]) {
    for (sum, part) in into.iter_mut().zip(from) {
        *sum += part;
    }
}

/// The training-set error of the model fitted to the `n` rows summed in
/// `flat`, under the gates every scored set passes: `min_examples`
/// rows, then (inside the engine) more rows than features.
fn flat_error(
    eval: &mut EvalScratch,
    config: &BellwetherConfig,
    p: usize,
    n: u32,
    flat: &[f64],
) -> Option<f64> {
    let n = n as usize;
    if n < config.min_examples.max(1) {
        return None;
    }
    eval.training_value_flat(p, n, flat)
}

/// The error of the model fitted to `rows` of `block`, gathered in that
/// order, under [`flat_error`]'s gates.
fn gathered_error(
    eval: &mut RegionEvalScratch,
    block: &RegionBlock,
    rows: &[usize],
    config: &BellwetherConfig,
) -> Option<f64> {
    if rows.len() < config.min_examples.max(1) {
        return None;
    }
    eval.gather_rows(block, rows);
    eval.estimate_value(config)
}

/// Everything one scan needs to score region blocks for a set of
/// item-disjoint nodes — a tree level (RainForest) or one node (naive):
/// the routing of items to nodes and, per node, what its candidates need
/// from a routed row. Built once and shared read-only by the scan's
/// workers; [`LevelPlan::score`] is the one scoring function of both
/// tree builders.
///
/// # Order of the sums (training-set error)
///
/// One [`LevelPlan::score`] call works on one block and starts from
/// zeroed slots. A **slot** — a node's total, or one bucket of one
/// attribute group — is the scalar fold, in ascending row order, of the
/// unit-weight terms ([`RegSuffStats::unit_terms_from_cols`]) of the
/// block's rows that belong to it. A node's own error is read from its
/// total slot. A categorical criterion's child *is* its bucket. The
/// thresholds `t_0 ≤ … ≤ t_{m−1}` of a numeric attribute share buckets
/// `0..=m`, an item's bucket being the number of thresholds whose child
/// 1 (`value ≥ t`) holds it; threshold `j`'s child 0 is buckets `0..=j`
/// summed ascending from bucket 0, its child 1 is buckets `j+1..=m`
/// summed descending from bucket `m`. Additions only: no child is a
/// `total − sibling` downdate. Every sum is therefore a function of the
/// block, the nodes' items and their candidate lists alone — not of
/// which worker scores the block, what it scored before, or which of the
/// errors the scan wants ([`Scope`]).
///
/// # The rows of a set (cross-validation)
///
/// A node's rows are the block's rows of its items; a child's are those
/// of them whose bucket entry under the child's attribute group the
/// child takes ([`AttrGroup::child_of`]). Both are gathered ascending,
/// so a set's dataset is the block filtered to its items.
#[derive(Debug)]
pub struct LevelPlan<'a> {
    routing: GroupRouting<'a>,
    plan: StatPlan,
    /// Whether errors are read from gathered rows (cross-validation)
    /// rather than from summed slots.
    gather: bool,
}

impl<'a> LevelPlan<'a> {
    /// Plan for `nodes`, each given by its items (positions of `index`,
    /// disjoint between nodes) and its candidate criteria in enumeration
    /// order (none for a node that will not split). A numeric
    /// candidate's two children must hold all of the node's items.
    pub fn new(
        index: &'a ItemIndex,
        measure: ErrorMeasure,
        nodes: &[(&[usize], &[CandidateSplit])],
    ) -> Self {
        let routing = GroupRouting::new(index, nodes.iter().map(|&(items, _)| items));
        let mut plan = StatPlan::default();
        for &(items, candidates) in nodes {
            plan.push_node(&routing, items, candidates);
        }
        // Theorem 1 decomposes training-set SSE; cross-validation folds
        // shuffle each child's own row positions and need the rows.
        let gather = measure != ErrorMeasure::TrainingSet;
        #[cfg(test)]
        let gather = gather || tests::GATHER_ORACLE.with(std::cell::Cell::get);
        LevelPlan {
            routing,
            plan,
            gather,
        }
    }

    /// Statistic slots one worker holds while scanning under this plan
    /// (none when it gathers rows).
    pub fn stat_slots(&self) -> usize {
        if self.gather {
            0
        } else {
            self.plan.n_slots
        }
    }

    /// Score one block: `sink(node, what, error)` receives every error
    /// `scope` asks for that the block supports — the node (or child)
    /// has at least `config.min_examples` rows in it, more rows than
    /// features, and a model that fits.
    pub fn score(
        &self,
        block: &RegionBlock,
        scratch: &mut RoutedScratch,
        config: &BellwetherConfig,
        scope: Scope,
        mut sink: impl FnMut(usize, Scored, f64),
    ) {
        if self.gather {
            return self.read_rows(block, scratch, scope, |g, scored, rows, eval| {
                if let Some(err) = gathered_error(eval, block, rows, config) {
                    sink(g, scored, err);
                }
            });
        }
        let before = scratch.slot_capacity();
        self.accumulate(block, scratch, scope);
        self.plan.errors(block.p as usize, scratch, config, scope, &mut sink);
        let grew = scratch.slot_capacity() > before;
        scratch.note_shape(grew);
    }

    /// Hand each row of `block` to its node, then `each(node, what,
    /// rows, engine)` every set `scope` asks for with its rows of the
    /// block, ascending: a node's own rows, and each child's, picked off
    /// the bucket table. Nodes without rows in the block are skipped.
    fn read_rows(
        &self,
        block: &RegionBlock,
        scratch: &mut RoutedScratch,
        scope: Scope,
        mut each: impl FnMut(usize, Scored, &[usize], &mut RegionEvalScratch),
    ) {
        self.routing.split(block, scratch);
        let RoutedScratch {
            items,
            rows,
            child_rows,
            eval,
            ..
        } = scratch;
        for (g, node) in self.plan.nodes.iter().enumerate() {
            let rows = &rows[g];
            if rows.is_empty() {
                continue;
            }
            if scope.own() {
                each(g, Scored::Node, rows, eval);
            }
            let cands = scope.candidates(node.n_candidates);
            for a in scope.groups(&node.groups) {
                let group = &node.groups[a];
                let k = if group.numeric { 2 } else { group.buckets.len() };
                for cand in group.cands.clone().filter(|c| cands.contains(c)) {
                    child_rows.resize_with(k.max(child_rows.len()), Vec::new);
                    child_rows[..k].iter_mut().for_each(Vec::clear);
                    for &row in rows {
                        let at = self.routing.place[items[row] as usize].at;
                        if let Some(child) = group.child_of(cand, self.plan.entries(node, at)[a]) {
                            child_rows[child].push(row);
                        }
                    }
                    for (child, rows) in child_rows[..k].iter().enumerate() {
                        each(g, Scored::Child { cand, child }, rows, eval);
                    }
                }
            }
        }
    }

    /// Fold every routed row of `block` into its node's total slot (when
    /// the scan wants own errors) and into its bucket slot under each
    /// attribute group the scan wants: the row's terms are computed
    /// once, every slot it belongs to adds them.
    fn accumulate(&self, block: &RegionBlock, scratch: &mut RoutedScratch, scope: Scope) {
        let plan = &self.plan;
        let stride = RegSuffStats::flat_len(block.p as usize);
        let RoutedScratch {
            items,
            sums,
            counts,
            terms,
            wanted,
            ..
        } = scratch;
        sums.clear();
        sums.resize(plan.n_slots * stride, 0.0);
        counts.clear();
        counts.resize(plan.n_slots, 0);
        terms.resize(stride, 0.0);
        wanted.clear();
        wanted.extend(plan.nodes.iter().map(|node| scope.groups(&node.groups)));
        self.routing.index.resolve_into(&block.item_ids, items);

        let mut add = |slot: usize, terms: &[f64]| {
            counts[slot] += 1;
            add_into(&mut sums[slot * stride..(slot + 1) * stride], terms);
        };
        let own = scope.own();
        let mut adds = 0;
        for (row, &item) in items.iter().enumerate() {
            let Some(place) = self.routing.place.get(item as usize) else { continue };
            let Some(node) = plan.nodes.get(place.group as usize) else { continue };
            RegSuffStats::unit_terms_from_cols(block.cols(), row, block.targets[row], terms);
            if own {
                add(node.total, terms);
                adds += 1;
            }
            let entries = plan.entries(node, place.at);
            for &slot in &entries[wanted[place.group as usize].clone()] {
                if slot != NO_CHILD {
                    add(slot as usize, terms);
                    adds += 1;
                }
            }
        }
        scratch.rows_routed += block.n() as u64;
        scratch.slot_adds += adds;
    }
}

/// Per-worker scratch of a [`LevelPlan`] scan: the slots of the block
/// last scored (training-set error) or its routed rows (cross-validation),
/// and the one engine every error is read through.
#[derive(Debug, Default)]
pub struct RoutedScratch {
    /// Resolved item positions of the block's rows.
    items: Vec<u32>,
    /// Per group: its rows of the block, ascending.
    rows: Vec<Vec<usize>>,
    /// Per child of the candidate being read: its rows, ascending.
    child_rows: Vec<Vec<usize>>,
    /// Per slot, its `RegSuffStats::flat_len` sums.
    sums: Vec<f64>,
    /// Per slot, the rows folded into it.
    counts: Vec<u32>,
    /// One row's terms.
    terms: Vec<f64>,
    /// Per node, the attribute groups the scan wants.
    wanted: Vec<Range<usize>>,
    /// A threshold group's running child 0.
    prefix: Vec<f64>,
    /// Every child 1 of a threshold group, and their row counts.
    suffix: Vec<f64>,
    suffix_n: Vec<u32>,
    /// Block rows routed so far — every row of every block, once.
    pub rows_routed: u64,
    /// Slot additions so far: per routed row of a node's item, one for
    /// each slot it was folded into.
    pub slot_adds: u64,
    /// The gathered rows, and the error engine of every error.
    pub eval: RegionEvalScratch,
}

impl RoutedScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        RoutedScratch::default()
    }

    /// What the slot buffers can hold without allocating.
    fn slot_capacity(&self) -> usize {
        self.items.capacity()
            + self.sums.capacity()
            + self.counts.capacity()
            + self.terms.capacity()
            + self.wanted.capacity()
            + self.prefix.capacity()
            + self.suffix.capacity()
            + self.suffix_n.capacity()
    }

    fn note_shape(&mut self, grew: bool) {
        let stats = &mut self.eval.eval.stats;
        if grew {
            stats.scratch_grows += 1;
        } else {
            stats.scratch_reuses += 1;
        }
    }
}

impl ScanScratch for RoutedScratch {
    fn absorb(&mut self, later: Self) {
        self.rows_routed += later.rows_routed;
        self.slot_adds += later.slot_adds;
        self.eval.absorb(later.eval);
    }
}

#[cfg(test)]
#[path = "partition_tests.rs"]
mod tests;
