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
//!   own row positions, which no shared statistic can reproduce; it
//!   keeps the gather path: rows are handed to their node, the node's
//!   rows gathered once, and each candidate routes them to per-child
//!   datasets through a [`PartitionSpec`]. Rows keep their ascending
//!   block order at every step, so each dataset — and every reduction
//!   over it — sees the same operands in the same lanes as a per-child
//!   filter of the block would give. This path is also the oracle the
//!   statistics path is tested against.

use super::{CandidateSplit, SplitCriterion};
use crate::eval::{PartitionScratch, RegionEvalScratch};
use crate::items::{ItemIndex, NO_ITEM};
use crate::problem::{BellwetherConfig, ErrorMeasure};
use crate::scan::ScanScratch;
use bellwether_linreg::{EvalScratch, RegSuffStats};
use bellwether_storage::RegionBlock;
use std::ops::Range;

/// Slot of a member that no child (or bucket) takes.
const NO_CHILD: u32 = u32::MAX;

/// A reusable routing table for one child partition of an item set (a
/// tree node's items, a cube's item universe): the child slot of each
/// member, indexed by the member's position in the set. Building it is
/// O(members); it is then shared by every region block of a scan.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// `u32`, not narrower: a categorical criterion has one child per
    /// value present and attributes with more than 255 values exist.
    slot_of: Vec<u32>,
    n_children: usize,
}

impl PartitionSpec {
    /// Build from each child's member positions (disjoint, all below
    /// `n_members`). Members in no child are routed nowhere.
    pub fn new<C>(n_members: usize, children: C) -> Self
    where
        C: IntoIterator,
        C::Item: IntoIterator<Item = usize>,
    {
        let mut slot_of = vec![NO_CHILD; n_members];
        let mut n_children = 0;
        for (slot, members) in children.into_iter().enumerate() {
            assert!(slot < NO_CHILD as usize, "too many children for a u32 slot");
            for at in members {
                slot_of[at] = slot as u32;
            }
            n_children = slot + 1;
        }
        PartitionSpec {
            slot_of,
            n_children,
        }
    }

    /// Number of children.
    pub fn n_children(&self) -> usize {
        self.n_children
    }

    /// Child slot of the member at position `at`; `None` for members no
    /// child takes and for anything past the set ([`NO_ITEM`] included).
    #[inline]
    pub fn slot_of(&self, at: u32) -> Option<usize> {
        match self.slot_of.get(at as usize) {
            Some(&slot) if slot != NO_CHILD => Some(slot as usize),
            _ => None,
        }
    }
}

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

    /// The routing table of `partition` — a split of one group's `len`
    /// items, given like the group itself as positions of the index.
    fn spec(&self, len: usize, partition: &[Vec<usize>]) -> PartitionSpec {
        PartitionSpec::new(
            len,
            partition
                .iter()
                .map(|items| items.iter().map(|&item| self.place[item].at as usize)),
        )
    }

    /// Hand each row of `block` to the group holding its item: one id
    /// resolution and one `place` load per row, rows ascending within
    /// every group. Rows of unknown or ungrouped items go nowhere.
    fn split(&self, block: &RegionBlock, scratch: &mut RoutedScratch) {
        let before = scratch.routed_capacity();
        let RoutedScratch {
            items, rows, at, ..
        } = scratch;
        rows.resize_with(self.n_groups.max(rows.len()), Vec::new);
        at.resize_with(self.n_groups.max(at.len()), Vec::new);
        for (r, a) in rows.iter_mut().zip(at.iter_mut()) {
            r.clear();
            a.clear();
        }
        self.index.resolve_into(&block.item_ids, items);
        for (i, &item) in items.iter().enumerate() {
            let Some(place) = self.place.get(item as usize) else { continue };
            let Some(group_rows) = rows.get_mut(place.group as usize) else { continue };
            group_rows.push(i);
            at[place.group as usize].push(place.at);
        }
        scratch.rows_routed += block.n() as u64;
        let grew = scratch.routed_capacity() > before;
        scratch.note_shape(grew);
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
            node: own,
            children,
            ..
        } = scratch;
        let slot = |s: usize| &sums[s * stride..(s + 1) * stride];
        for (g, node) in self.nodes.iter().enumerate() {
            if scope.own() {
                let n = counts[node.total];
                if n == 0 {
                    continue; // none of the node's items in this block
                }
                if let Some(err) = flat_error(&mut own.eval, config, p, n, slot(node.total)) {
                    sink(g, Scored::Node, err);
                }
            }
            let cands = scope.candidates(node.n_candidates);
            let mut child = |cand: usize, child: usize, n: u32, flat: &[f64]| {
                if let Some(err) = flat_error(&mut children.eval, config, p, n, flat) {
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

/// How a plan turns routed rows into errors.
#[derive(Debug)]
enum Scorer {
    /// From per-slot statistics (training-set error).
    Stats(StatPlan),
    /// From gathered per-child datasets: per node, each candidate's
    /// routing table.
    Gather(Vec<Vec<PartitionSpec>>),
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
#[derive(Debug)]
pub struct LevelPlan<'a> {
    routing: GroupRouting<'a>,
    scorer: Scorer,
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
        // Theorem 1 decomposes training-set SSE; cross-validation folds
        // shuffle each child's own row positions and need the rows.
        let stats = measure == ErrorMeasure::TrainingSet;
        #[cfg(test)]
        let stats = stats && !tests::GATHER_ORACLE.with(std::cell::Cell::get);
        let scorer = if stats {
            let mut plan = StatPlan::default();
            for &(items, candidates) in nodes {
                plan.push_node(&routing, items, candidates);
            }
            Scorer::Stats(plan)
        } else {
            let specs = |&(items, candidates): &(&[usize], &[CandidateSplit])| {
                let spec = |c: &CandidateSplit| routing.spec(items.len(), &c.partition);
                candidates.iter().map(spec).collect()
            };
            Scorer::Gather(nodes.iter().map(specs).collect())
        };
        LevelPlan { routing, scorer }
    }

    /// Statistic slots one worker holds while scanning under this plan
    /// (none on the gather path).
    pub fn stat_slots(&self) -> usize {
        match &self.scorer {
            Scorer::Stats(plan) => plan.n_slots,
            Scorer::Gather(_) => 0,
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
        match &self.scorer {
            Scorer::Stats(plan) => {
                let before = scratch.slot_capacity();
                self.accumulate(plan, block, scratch, scope);
                plan.errors(block.p as usize, scratch, config, scope, &mut sink);
                let grew = scratch.slot_capacity() > before;
                scratch.note_shape(grew);
            }
            Scorer::Gather(specs) => {
                self.routing.split(block, scratch);
                for (g, specs) in specs.iter().enumerate() {
                    let cands = scope.candidates(specs.len());
                    if (!scope.own() && cands.is_empty()) || !scratch.gather_group(block, g) {
                        continue;
                    }
                    if scope.own() && scratch.node.data.n() >= config.min_examples.max(1) {
                        if let Some(err) = scratch.node.estimate_value(config) {
                            sink(g, Scored::Node, err);
                        }
                    }
                    for cand in cands {
                        let errs = scratch.child_errors(&specs[cand], g, config);
                        for (child, err) in errs.iter().enumerate() {
                            if let Some(err) = *err {
                                sink(g, Scored::Child { cand, child }, err);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Fold every routed row of `block` into its node's total slot (when
    /// the scan wants own errors) and into its bucket slot under each
    /// attribute group the scan wants: the row's terms are computed
    /// once, every slot it belongs to adds them.
    fn accumulate(
        &self,
        plan: &StatPlan,
        block: &RegionBlock,
        scratch: &mut RoutedScratch,
        scope: Scope,
    ) {
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
            let width = node.groups.len();
            let entries = &plan.slot_of[node.table + place.at as usize * width..][..width];
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

/// Per-worker scratch of a [`LevelPlan`] scan. On the statistics path:
/// the slots of the block last scored. On the gather path: the routed
/// rows of that block, the dataset of the node being scored, and the
/// per-child datasets of its candidates.
#[derive(Debug, Default)]
pub struct RoutedScratch {
    /// Resolved item positions of the block's rows.
    items: Vec<u32>,
    /// Per group: its rows of the block, ascending.
    rows: Vec<Vec<usize>>,
    /// Per group: each of those rows' position within the group.
    at: Vec<Vec<u32>>,
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
    /// The gathered group, and the error engine of nodes' own errors.
    pub node: RegionEvalScratch,
    /// Child datasets, and the error engine of child errors.
    pub children: PartitionScratch,
}

impl RoutedScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        RoutedScratch::default()
    }

    /// What the routing buffers can hold without allocating.
    fn routed_capacity(&self) -> usize {
        self.items.capacity()
            + self.rows.iter().map(Vec::capacity).sum::<usize>()
            + self.at.iter().map(Vec::capacity).sum::<usize>()
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
        let stats = &mut self.node.eval.stats;
        if grew {
            stats.scratch_grows += 1;
        } else {
            stats.scratch_reuses += 1;
        }
    }

    /// Gather group `g`'s rows of the block last split into `node`.
    /// False (and nothing gathered) when the block holds none.
    fn gather_group(&mut self, block: &RegionBlock, g: usize) -> bool {
        let rows = &self.rows[g];
        if rows.is_empty() {
            return false;
        }
        self.node.gather_rows(block, rows);
        true
    }

    /// Each child's model error over the gathered group `g` under one
    /// of its candidates' routing tables.
    fn child_errors(
        &mut self,
        spec: &PartitionSpec,
        g: usize,
        config: &BellwetherConfig,
    ) -> &[Option<f64>] {
        let data = &self.node.data;
        self.children
            .errors_cols(spec, data.p(), data.cols(), &self.at[g], data.ys(), config)
    }
}

impl ScanScratch for RoutedScratch {
    fn absorb(&mut self, later: Self) {
        self.rows_routed += later.rows_routed;
        self.slot_adds += later.slot_adds;
        self.node.absorb(later.node);
        self.children.absorb(later.children);
    }
}

#[cfg(test)]
#[path = "partition_tests.rs"]
mod tests;
