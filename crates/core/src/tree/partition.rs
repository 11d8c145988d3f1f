//! Shared partition-error computation.
//!
//! Both tree algorithms must score a splitting criterion's children the
//! same way, or Lemma 1 (naive ≡ RainForest) breaks. This module is that
//! single code path: given one region block and a node's child
//! partition, build each child's training subset in one pass over the
//! block and estimate each child's error.
//!
//! Routing is dense. A scan resolves a block's id lane to item positions
//! once ([`ItemIndex`]), [`GroupRouting`] hands each row to the one
//! group (tree node) holding its item with one array load, and every
//! candidate criterion of that node routes the node's rows to children
//! through a [`PartitionSpec`] — a slot table indexed by the item's
//! position *within its node*. A level's nodes are disjoint, so its
//! tables total O(candidates × items) entries however many nodes it
//! has. Rows keep their ascending block order at every step, so each
//! child dataset — and every reduction over it — sees the same operands
//! in the same lanes as a per-child filter of the block would give.

use super::NodeInfo;
use crate::eval::{PartitionScratch, RegionEvalScratch};
use crate::items::{ItemIndex, NO_ITEM};
use crate::problem::BellwetherConfig;
use crate::scan::ScanScratch;
use bellwether_linreg::fit_wls;
use bellwether_storage::RegionBlock;
use std::collections::HashSet;

/// Slot of a member that no child takes.
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
pub struct GroupRouting<'a> {
    index: &'a ItemIndex,
    /// Per position of `index`; `group == NO_ITEM` for items in no group.
    place: Vec<Place>,
    n_groups: usize,
}

impl<'a> GroupRouting<'a> {
    /// `groups[g]` lists group `g`'s items as positions of `index`
    /// (for an index over [`crate::items::ItemTable::ids`], item-table
    /// rows). Groups must be disjoint.
    pub fn new<'g>(index: &'a ItemIndex, groups: impl IntoIterator<Item = &'g [usize]>) -> Self {
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
    pub fn spec(&self, len: usize, partition: &[Vec<usize>]) -> PartitionSpec {
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
    pub fn split(&self, block: &RegionBlock, scratch: &mut RoutedScratch) {
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
        let stats = &mut scratch.node.eval.stats;
        if grew {
            stats.scratch_grows += 1;
        } else {
            stats.scratch_reuses += 1;
        }
    }
}

/// Per-worker scratch of a [`GroupRouting`] scan: the routed rows of the
/// block last split, the dataset of the group being scored, and the
/// per-child datasets of its candidates.
#[derive(Debug, Default)]
pub struct RoutedScratch {
    /// Resolved item positions of the block's rows.
    items: Vec<u32>,
    /// Per group: its rows of the block, ascending.
    rows: Vec<Vec<usize>>,
    /// Per group: each of those rows' position within the group.
    at: Vec<Vec<u32>>,
    /// Block rows split so far — every row of every block, once.
    pub rows_routed: u64,
    /// The gathered group and its error engine.
    pub node: RegionEvalScratch,
    /// Child datasets and their error engine.
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

    /// Gather group `g`'s rows of the block last split into `node`.
    /// False (and nothing gathered) when the block holds none.
    pub fn gather_group(&mut self, block: &RegionBlock, g: usize) -> bool {
        let rows = &self.rows[g];
        if rows.is_empty() {
            return false;
        }
        self.node.gather_rows(block, rows);
        true
    }

    /// Each child's model error over the gathered group `g` under one
    /// of its candidates' routing tables.
    pub fn child_errors(
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
        self.node.absorb(later.node);
        self.children.absorb(later.children);
    }
}

/// Fit the final model of a node: its item subset restricted to the
/// winning region's block.
pub fn fit_node_model(
    block: &RegionBlock,
    ids: &HashSet<i64>,
    region_index: usize,
    region: bellwether_cube::RegionId,
    label: String,
    error: f64,
) -> Option<NodeInfo> {
    let data = crate::training::block_subset_data(block, ids);
    let model = fit_wls(&data)?;
    Some(NodeInfo {
        region_index,
        region,
        label,
        error,
        model,
        n_examples: data.n(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ErrorMeasure;
    use crate::training::block_subset_data;
    use crate::tree::tests_support::oracle;
    use bellwether_prop::{check, Rng};

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

    /// Child errors through the dense path: the children's items form
    /// the one group of a routing over exactly those items.
    fn partition_errors(
        block: &RegionBlock,
        child_ids: &[HashSet<i64>],
        config: &BellwetherConfig,
    ) -> Vec<Option<f64>> {
        let mut ids: Vec<i64> = child_ids.iter().flatten().copied().collect();
        ids.sort_unstable();
        let index = ItemIndex::new(&ids);
        let group: Vec<usize> = (0..ids.len()).collect();
        let routing = GroupRouting::new(&index, [group.as_slice()]);
        let partition: Vec<Vec<usize>> = child_ids
            .iter()
            .map(|c| c.iter().map(|&id| index.get(id).unwrap()).collect())
            .collect();
        let spec = routing.spec(group.len(), &partition);
        let mut scratch = RoutedScratch::new();
        routing.split(block, &mut scratch);
        if !scratch.gather_group(block, 0) {
            return vec![None; child_ids.len()];
        }
        scratch.child_errors(&spec, 0, config).to_vec()
    }

    #[test]
    fn children_score_independently() {
        let b = block();
        let low: HashSet<i64> = (0..10).collect();
        let high: HashSet<i64> = (10..20).collect();
        let errs = partition_errors(&b, &[low, high], &config());
        // each side is a perfect line → ~0 error
        assert!(errs[0].unwrap() < 1e-6);
        assert!(errs[1].unwrap() < 1e-6);
        // mixed set is NOT a line → substantial error
        let all: HashSet<i64> = (0..20).collect();
        let mixed = partition_errors(&b, &[all], &config());
        assert!(mixed[0].unwrap() > 1.0);
    }

    #[test]
    fn partition_errors_match_direct_subset_computation() {
        let b = block();
        let subset: HashSet<i64> = [1, 3, 5, 7, 9].into_iter().collect();
        let direct = config()
            .error_measure
            .estimate(&block_subset_data(&b, &subset))
            .unwrap()
            .value;
        let via = partition_errors(&b, &[subset], &config())[0].unwrap();
        assert_eq!(direct.to_bits(), via.to_bits());
    }

    #[test]
    fn tiny_children_are_none() {
        let b = block();
        let tiny: HashSet<i64> = [0, 1].into_iter().collect();
        let errs = partition_errors(&b, &[tiny], &config());
        assert_eq!(errs[0], None);
    }

    #[test]
    fn absent_items_are_ignored() {
        let b = block();
        let ghost: HashSet<i64> = (100..120).collect();
        let errs = partition_errors(&b, &[ghost], &config());
        assert_eq!(errs[0], None);
    }

    fn bits(errs: &[Option<f64>]) -> Vec<Option<u64>> {
        errs.iter().map(|e| e.map(f64::to_bits)).collect()
    }

    /// One random scan level: an item universe, disjoint groups over
    /// part of it, candidate partitions per group, and blocks whose ids
    /// need not respect any of that.
    struct Level {
        ids: Vec<i64>,
        groups: Vec<Vec<usize>>,
        /// Per group, per candidate, per child: item positions.
        candidates: Vec<Vec<Vec<Vec<usize>>>>,
        blocks: Vec<RegionBlock>,
        config: BellwetherConfig,
    }

    fn random_level(rng: &mut Rng) -> Level {
        let n_items = rng.usize_in(1, 60);
        let mut ids: Vec<i64> = match rng.below(3) {
            0 => (0..n_items as i64).collect(),
            1 => (0..n_items as i64).map(|i| 3 * i - 70).collect(),
            _ => (0..n_items).map(|_| rng.next_u64() as i64).collect(),
        };
        ids.sort_unstable();
        ids.dedup();
        rng.shuffle(&mut ids);
        // Items land in one of the groups or (last bucket) in none, as
        // when `root_rows` restricts a tree to part of the item table.
        let n_groups = rng.usize_in(1, 6);
        let mut groups = vec![Vec::new(); n_groups];
        for item in 0..ids.len() {
            let g = rng.below(n_groups + 1);
            if g < n_groups {
                groups[g].push(item);
            }
        }
        let candidates = groups
            .iter()
            .map(|items| {
                (0..rng.usize_in(0, 4))
                    .map(|_| {
                        let mut children = vec![Vec::new(); rng.usize_in(1, 5)];
                        for &item in items {
                            let c = rng.below(children.len());
                            children[c].push(item);
                        }
                        children
                    })
                    .collect()
            })
            .collect();
        let blocks = (0..rng.usize_in(1, 5))
            .map(|r| {
                let mut b = RegionBlock::new(vec![r as u32], 2);
                // Some blocks draw from few items, so whole groups are
                // absent from them and ids repeat.
                let pool = rng.usize_in(1, ids.len() + 1);
                for _ in 0..rng.usize_in(0, 120) {
                    let id = if rng.flip(0.15) {
                        rng.next_u64() as i64 // most likely not an item
                    } else {
                        ids[rng.below(pool)]
                    };
                    b.push(id, &[1.0, rng.f64_in(-10.0, 10.0)], rng.f64_in(-50.0, 50.0));
                }
                b
            })
            .collect();
        let measure = if rng.flip(0.5) {
            ErrorMeasure::TrainingSet
        } else {
            ErrorMeasure::CrossValidation {
                folds: rng.usize_in(2, 5),
                seed: rng.next_u64(),
            }
        };
        let config = BellwetherConfig::builder(1.0)
            .min_examples(rng.usize_in(1, 6))
            .error_measure(measure)
            .build()
            .unwrap();
        Level {
            ids,
            groups,
            candidates,
            blocks,
            config,
        }
    }

    #[test]
    fn dense_routing_matches_the_hash_oracle_bit_for_bit() {
        check("dense_routing_matches_the_hash_oracle", 200, |rng| {
            let level = random_level(rng);
            let id_set = |items: &[usize]| -> HashSet<i64> {
                items.iter().map(|&item| level.ids[item]).collect()
            };
            let index = ItemIndex::new(&level.ids);
            let routing = GroupRouting::new(&index, level.groups.iter().map(Vec::as_slice));
            let mut scratch = RoutedScratch::new();
            let mut rows = 0;
            for block in &level.blocks {
                routing.split(block, &mut scratch);
                rows += block.n() as u64;
                assert_eq!(scratch.rows_routed, rows);
                for (g, items) in level.groups.iter().enumerate() {
                    let (data, ids) = oracle::gather(block, &id_set(items));
                    let gathered = scratch.gather_group(block, g);
                    assert_eq!(gathered, data.n() > 0);
                    if !gathered {
                        continue;
                    }
                    assert_eq!(scratch.node.data, data);
                    let enough = data.n() >= level.config.min_examples.max(1);
                    let own = enough
                        .then(|| scratch.node.estimate_value(&level.config))
                        .flatten();
                    let expect = oracle::error_of(&data, &level.config);
                    assert_eq!(own.map(f64::to_bits), expect.map(f64::to_bits));
                    for children in &level.candidates[g] {
                        let spec = routing.spec(items.len(), children);
                        let dense = scratch.child_errors(&spec, g, &level.config).to_vec();
                        let child_ids: Vec<HashSet<i64>> =
                            children.iter().map(|c| id_set(c)).collect();
                        let hashed = oracle::HashPartitionSpec::new(&child_ids)
                            .errors(&data, &ids, &level.config);
                        assert_eq!(bits(&dense), bits(&hashed));
                    }
                }
            }
        });
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
        let dense = partition_errors(&block, &child_ids, &config());
        assert_eq!(dense.len(), n_children as usize);

        let (data, row_ids) = oracle::gather(&block, &ids.iter().copied().collect());
        let hashed =
            oracle::HashPartitionSpec::new(&child_ids).errors(&data, &row_ids, &config());
        assert_eq!(bits(&dense), bits(&hashed));
        assert!(dense.iter().all(Option::is_some));
    }

    #[test]
    fn warm_routed_scratch_stops_growing() {
        let mut rng = Rng::new(11);
        let level = loop {
            let level = random_level(&mut rng);
            if level.blocks.iter().any(|b| b.n() > 40) {
                break level;
            }
        };
        let index = ItemIndex::new(&level.ids);
        let routing = GroupRouting::new(&index, level.groups.iter().map(Vec::as_slice));
        let specs: Vec<Vec<PartitionSpec>> = level
            .groups
            .iter()
            .zip(&level.candidates)
            .map(|(items, cands)| cands.iter().map(|c| routing.spec(items.len(), c)).collect())
            .collect();
        let mut scratch = RoutedScratch::new();
        let scan = |scratch: &mut RoutedScratch| {
            for block in &level.blocks {
                routing.split(block, scratch);
                for (g, specs) in specs.iter().enumerate() {
                    if scratch.gather_group(block, g) {
                        scratch.node.estimate_value(&level.config);
                        for spec in specs {
                            scratch.child_errors(spec, g, &level.config);
                        }
                    }
                }
            }
            scratch.node.eval.stats.scratch_grows + scratch.children.eval.stats.scratch_grows
        };
        let cold = scan(&mut scratch);
        assert!(cold > 0);
        assert_eq!(scan(&mut scratch), cold, "a warm level scan must not grow");
    }
}
