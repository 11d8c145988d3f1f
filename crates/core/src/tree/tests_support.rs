//! Shared fixtures for tree tests: a tiny dataset with *planted*
//! group-dependent bellwethers, plus a canonical tree serialisation used
//! to assert Lemma 1 (naive ≡ RF) structurally.

use super::BellwetherTree;
use crate::items::ItemTable;
use crate::problem::BellwetherConfig;
use bellwether_linreg::{EvalScratch, RegressionData};
use std::collections::{HashMap, HashSet};
use bellwether_cube::{Dimension, Hierarchy, RegionSpace};
use bellwether_storage::{MemorySource, RegionBlock};
use bellwether_table::{Column, DataType, Schema, Table};

/// 20 items in two categories. Category "a" items are perfectly
/// predictable from region `ra`, category "b" items from region `rb`;
/// every other (region, group) pairing carries junk. A bellwether tree
/// must split on the category and give each leaf its own region.
pub fn two_group_fixture() -> (MemorySource, RegionSpace, ItemTable) {
    let space = RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat(
        "L",
        "All",
        &["ra", "rb"],
    ))]);

    let n = 20i64;
    let is_a = |i: i64| i < 10;
    let fa = |i: i64| (i + 1) as f64;
    let fb = |i: i64| (2 * i + 3) as f64;
    let junk = |i: i64, salt: i64| ((i * 37 + salt * 13) % 11) as f64;
    let target = |i: i64| {
        if is_a(i) {
            5.0 * fa(i)
        } else {
            7.0 * fb(i)
        }
    };

    // p = 2: [intercept, regional feature]
    let mut ra = RegionBlock::new(vec![1], 2);
    let mut rb = RegionBlock::new(vec![2], 2);
    let mut all = RegionBlock::new(vec![0], 2);
    for i in 0..n {
        let f_ra = if is_a(i) { fa(i) } else { junk(i, 1) };
        let f_rb = if is_a(i) { junk(i, 2) } else { fb(i) };
        ra.push(i, &[1.0, f_ra], target(i));
        rb.push(i, &[1.0, f_rb], target(i));
        all.push(i, &[1.0, f_ra + f_rb], target(i));
    }
    let source = MemorySource::new(vec![all, ra, rb]);

    let table = Table::new(
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("cat", DataType::Str),
            ("idx", DataType::Float),
        ])
        .unwrap(),
        vec![
            Column::from_ints((0..n).collect()),
            Column::from_strs(
                &(0..n)
                    .map(|i| if is_a(i) { "a" } else { "b" })
                    .collect::<Vec<_>>(),
            ),
            Column::from_floats((0..n).map(|i| i as f64).collect()),
        ],
    )
    .unwrap();
    let items = ItemTable::from_table(&table, "id", &["idx"], &["cat"]).unwrap();
    (source, space, items)
}

/// Canonical structural form of a tree: split descriptions and leaf
/// (region, item multiset) pairs, recursively. Independent of node
/// numbering, so naive and RF outputs compare directly.
pub fn canonical_form(tree: &BellwetherTree, items: &ItemTable) -> String {
    fn rec(tree: &BellwetherTree, items: &ItemTable, id: usize, out: &mut String) {
        let node = &tree.nodes[id];
        match &node.split {
            Some((criterion, children)) => {
                out.push_str(&format!("({}", criterion.describe(items)));
                for &c in children {
                    out.push(' ');
                    rec(tree, items, c, out);
                }
                out.push(')');
            }
            None => {
                let mut ids: Vec<i64> =
                    node.item_rows.iter().map(|&r| items.ids()[r]).collect();
                ids.sort_unstable();
                let label = node
                    .info
                    .as_ref()
                    .map(|i| i.label.clone())
                    .unwrap_or_else(|| "<none>".into());
                out.push_str(&format!("[{label}:{ids:?}]"));
            }
        }
    }
    let mut out = String::new();
    rec(tree, items, 0, &mut out);
    out
}

/// The routing the builders used before the dense tables, kept as the
/// oracle the dense path is tested against bit for bit: a hash-set probe
/// per row to gather a node's rows, a hash-map probe per gathered row
/// and criterion to route them, and the full error estimate (of which
/// the scans only ever kept `value`).
pub mod oracle {
    use super::*;
    use bellwether_storage::RegionBlock;

    /// The rows of `block` whose item is in `keep`, with their ids.
    pub fn gather(block: &RegionBlock, keep: &HashSet<i64>) -> (RegressionData, Vec<i64>) {
        let rows: Vec<usize> = (0..block.n())
            .filter(|&i| keep.contains(&block.item_ids[i]))
            .collect();
        let mut data = RegressionData::new(block.p as usize);
        data.extend_from_cols_gather(block.cols(), &block.targets, &rows);
        (data, rows.iter().map(|&i| block.item_ids[i]).collect())
    }

    /// Error of the model over `data` under `config`'s gates.
    pub fn error_of(data: &RegressionData, config: &BellwetherConfig) -> Option<f64> {
        if data.n() < config.min_examples.max(1) {
            return None;
        }
        config
            .error_measure
            .estimate_with(data, &mut EvalScratch::new())
            .map(|e| e.value)
    }

    /// Item id → child slot.
    pub struct HashPartitionSpec {
        slot_of: HashMap<i64, usize>,
        n_children: usize,
    }

    impl HashPartitionSpec {
        pub fn new(child_ids: &[HashSet<i64>]) -> Self {
            let mut slot_of = HashMap::new();
            for (slot, ids) in child_ids.iter().enumerate() {
                for &id in ids {
                    slot_of.insert(id, slot);
                }
            }
            HashPartitionSpec {
                slot_of,
                n_children: child_ids.len(),
            }
        }

        /// Each child's error over rows given as columns and ids.
        pub fn errors(
            &self,
            data: &RegressionData,
            ids: &[i64],
            config: &BellwetherConfig,
        ) -> Vec<Option<f64>> {
            let mut rowsets = vec![Vec::new(); self.n_children];
            for (i, id) in ids.iter().enumerate() {
                if let Some(&slot) = self.slot_of.get(id) {
                    rowsets[slot].push(i);
                }
            }
            rowsets
                .iter()
                .map(|rows| {
                    let mut child = RegressionData::new(data.p());
                    child.extend_from_cols_gather(data.cols(), data.ys(), rows);
                    error_of(&child, config)
                })
                .collect()
        }
    }
}
