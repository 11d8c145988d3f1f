//! The item table `I` (§5): per-item attributes that are always known —
//! before any regional data is bought — and therefore usable for tree
//! splits, item hierarchies and static model features.

use crate::error::{BellwetherError, Result};
use bellwether_cube::Hierarchy;
use bellwether_table::{DataType, Table};
use std::collections::HashMap;

/// A numeric item attribute.
#[derive(Debug, Clone)]
pub struct NumericAttr {
    /// Attribute name.
    pub name: String,
    /// One value per item, in item order.
    pub values: Vec<f64>,
}

/// A categorical item attribute, dictionary-encoded.
#[derive(Debug, Clone)]
pub struct CategoricalAttr {
    /// Attribute name.
    pub name: String,
    /// Dictionary code per item.
    pub codes: Vec<u32>,
    /// Code → label.
    pub labels: Vec<String>,
}

impl CategoricalAttr {
    /// Label of one item's value.
    pub fn label_of(&self, item_idx: usize) -> &str {
        &self.labels[self.codes[item_idx] as usize]
    }
}

/// [`ItemIndex`]'s answer for an id it does not hold.
pub const NO_ITEM: u32 = u32::MAX;

/// Item id → dense position (the id's place in the list the index was
/// built from), made to resolve a whole block's id lane at once: scan
/// loops route rows through small arrays indexed by that position
/// instead of probing a hash set per row.
///
/// The form follows the ids observed at construction: a compact id range
/// gets a direct table (one load per id); ids spread too thin for that —
/// sparse keys, extreme values — are kept sorted and binary-searched.
/// Neither hashes, so hostile ids cannot degrade a lookup.
#[derive(Debug, Clone)]
pub struct ItemIndex {
    lookup: Lookup,
    len: usize,
}

#[derive(Debug, Clone)]
enum Lookup {
    /// `table[id − min]` is the position, [`NO_ITEM`] in the gaps.
    Direct { min: i64, table: Vec<u32> },
    /// Ids ascending, each with its position.
    Sorted { ids: Vec<i64>, at: Vec<u32> },
}

impl ItemIndex {
    /// Index `ids` by their position in the slice. Ids should be
    /// distinct; one listed twice keeps its first position.
    pub fn new(ids: &[i64]) -> Self {
        assert!(ids.len() < NO_ITEM as usize, "too many items for a u32 position");
        let len = ids.len();
        let (min, max) = ids
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &id| (lo.min(id), hi.max(id)));
        // A direct table may spend up to four slots per item (16 bytes,
        // against the sorted form's 12).
        let span = (max as i128 - min as i128 + 1).max(0) as u128;
        let lookup = if span <= 4 * len as u128 + 64 {
            let mut table = vec![NO_ITEM; span as usize];
            for (at, &id) in ids.iter().enumerate().rev() {
                table[(id - min) as usize] = at as u32;
            }
            Lookup::Direct { min, table }
        } else {
            let mut order: Vec<u32> = (0..len as u32).collect();
            order.sort_by_key(|&at| ids[at as usize]);
            order.dedup_by_key(|at| ids[*at as usize]);
            Lookup::Sorted {
                ids: order.iter().map(|&at| ids[at as usize]).collect(),
                at: order,
            }
        };
        ItemIndex { lookup, len }
    }

    /// Number of positions (the length of the indexed list).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no id is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Position of `id`, if indexed.
    pub fn get(&self, id: i64) -> Option<usize> {
        let at = match &self.lookup {
            Lookup::Direct { min, table } => direct(*min, table, id),
            Lookup::Sorted { ids, at } => sorted(ids, at, id),
        };
        (at != NO_ITEM).then_some(at as usize)
    }

    /// Resolve a block's id lane: `out[i]` is the position of `ids[i]`,
    /// or [`NO_ITEM`].
    pub fn resolve_into(&self, ids: &[i64], out: &mut Vec<u32>) {
        out.clear();
        match &self.lookup {
            Lookup::Direct { min, table } => {
                out.extend(ids.iter().map(|&id| direct(*min, table, id)));
            }
            Lookup::Sorted { ids: sorted_ids, at } => {
                out.extend(ids.iter().map(|&id| sorted(sorted_ids, at, id)));
            }
        }
    }
}

impl FromIterator<i64> for ItemIndex {
    /// Index ids by the order the iterator yields them.
    fn from_iter<I: IntoIterator<Item = i64>>(ids: I) -> Self {
        ItemIndex::new(&ids.into_iter().collect::<Vec<_>>())
    }
}

#[inline]
fn direct(min: i64, table: &[u32], id: i64) -> u32 {
    // Ids below `min` wrap to offsets past any table.
    let offset = id.wrapping_sub(min) as u64;
    usize::try_from(offset)
        .ok()
        .and_then(|o| table.get(o))
        .copied()
        .unwrap_or(NO_ITEM)
}

#[inline]
fn sorted(ids: &[i64], at: &[u32], id: i64) -> u32 {
    ids.binary_search(&id).map_or(NO_ITEM, |i| at[i])
}

/// The item table: ids plus typed attributes with O(1) id lookup.
#[derive(Debug, Clone)]
pub struct ItemTable {
    ids: Vec<i64>,
    index: ItemIndex,
    numeric: Vec<NumericAttr>,
    categorical: Vec<CategoricalAttr>,
}

/// Index `ids` by table row; an id listed twice is an error.
fn index_rows(ids: &[i64]) -> Result<ItemIndex> {
    let index = ItemIndex::new(ids);
    // A repeated id keeps its first row, so its second does not resolve
    // to itself.
    match ids.iter().enumerate().find(|&(row, &id)| index.get(id) != Some(row)) {
        Some((_, id)) => Err(BellwetherError::Config(format!("duplicate item id {id}"))),
        None => Ok(index),
    }
}

impl ItemTable {
    /// Build from a relational table: `id_col` must be Int and unique;
    /// `numeric_cols` become numeric attributes (NULL → error) and
    /// `categorical_cols` become dictionary-encoded attributes.
    pub fn from_table(
        table: &Table,
        id_col: &str,
        numeric_cols: &[&str],
        categorical_cols: &[&str],
    ) -> Result<Self> {
        let n = table.num_rows();
        let id_data = table.column_by_name(id_col)?.as_int(id_col)?;
        if let Some(row) = (0..n).find(|&row| !id_data.is_valid(row)) {
            return Err(BellwetherError::Config(format!("NULL item id at row {row}")));
        }
        let ids = id_data.values.clone();
        let index = index_rows(&ids)?;

        let mut numeric = Vec::with_capacity(numeric_cols.len());
        for &name in numeric_cols {
            let col = table.column_by_name(name)?;
            let mut values = Vec::with_capacity(n);
            for row in 0..n {
                match col.float_at(row) {
                    Some(v) => values.push(v),
                    None => {
                        return Err(BellwetherError::Config(format!(
                            "NULL or non-numeric value in item attribute {name} at row {row}"
                        )))
                    }
                }
            }
            numeric.push(NumericAttr {
                name: name.to_string(),
                values,
            });
        }

        let mut categorical = Vec::with_capacity(categorical_cols.len());
        for &name in categorical_cols {
            let col = table.column_by_name(name)?;
            if col.dtype() != DataType::Str {
                return Err(BellwetherError::Config(format!(
                    "categorical item attribute {name} must be a string column"
                )));
            }
            let data = col.as_str(name)?;
            let mut labels: Vec<String> = Vec::new();
            let mut dict: HashMap<&str, u32> = HashMap::new();
            let mut codes = Vec::with_capacity(n);
            for row in 0..n {
                if !data.is_valid(row) {
                    return Err(BellwetherError::Config(format!(
                        "NULL value in item attribute {name} at row {row}"
                    )));
                }
                let label: &str = &data.values[row];
                let code = *dict.entry(label).or_insert_with(|| {
                    labels.push(label.to_string());
                    (labels.len() - 1) as u32
                });
                codes.push(code);
            }
            categorical.push(CategoricalAttr {
                name: name.to_string(),
                codes,
                labels,
            });
        }

        Ok(ItemTable {
            ids,
            index,
            numeric,
            categorical,
        })
    }

    /// Assemble an item table from its parts (the model-snapshot decode
    /// path, or ids alone). Validates what [`ItemTable::from_table`] would
    /// have: unique ids and one attribute value per item.
    pub fn from_parts(
        ids: Vec<i64>,
        numeric: Vec<NumericAttr>,
        categorical: Vec<CategoricalAttr>,
    ) -> Result<Self> {
        let n = ids.len();
        let index = index_rows(&ids)?;
        for a in &numeric {
            if a.values.len() != n {
                return Err(BellwetherError::Config(format!(
                    "item attribute {} has {} values for {n} items",
                    a.name,
                    a.values.len()
                )));
            }
        }
        for a in &categorical {
            if a.codes.len() != n {
                return Err(BellwetherError::Config(format!(
                    "item attribute {} has {} codes for {n} items",
                    a.name,
                    a.codes.len()
                )));
            }
            if let Some(&code) = a.codes.iter().find(|&&c| c as usize >= a.labels.len()) {
                return Err(BellwetherError::Config(format!(
                    "item attribute {} has code {code} outside its dictionary",
                    a.name
                )));
            }
        }
        Ok(ItemTable {
            ids,
            index,
            numeric,
            categorical,
        })
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// All item ids, in table order.
    pub fn ids(&self) -> &[i64] {
        &self.ids
    }

    /// Row index of an item id.
    pub fn row_of(&self, id: i64) -> Option<usize> {
        self.index.get(id)
    }

    /// The id → row index, for resolving a whole id lane at once.
    pub fn index(&self) -> &ItemIndex {
        &self.index
    }

    /// Numeric attributes.
    pub fn numeric_attrs(&self) -> &[NumericAttr] {
        &self.numeric
    }

    /// Categorical attributes.
    pub fn categorical_attrs(&self) -> &[CategoricalAttr] {
        &self.categorical
    }

    /// The static numeric feature vector of an item (used as model input
    /// features alongside the query-generated regional features).
    pub fn static_features(&self, id: i64) -> Option<Vec<f64>> {
        let row = self.row_of(id)?;
        Some(self.numeric.iter().map(|a| a.values[row]).collect())
    }

    /// Map each item to its leaf coordinates in the given item
    /// hierarchies, matching categorical attribute values to hierarchy
    /// leaf labels. `attr_for_hierarchy[k]` names the categorical
    /// attribute feeding hierarchy `k`.
    pub fn leaf_coords(
        &self,
        hierarchies: &[Hierarchy],
        attr_for_hierarchy: &[&str],
    ) -> Result<HashMap<i64, Vec<u32>>> {
        assert_eq!(hierarchies.len(), attr_for_hierarchy.len());
        let attrs: Vec<&CategoricalAttr> = attr_for_hierarchy
            .iter()
            .map(|name| {
                self.categorical
                    .iter()
                    .find(|a| a.name == *name)
                    .ok_or_else(|| BellwetherError::NotFound(format!("item attribute {name}")))
            })
            .collect::<Result<Vec<_>>>()?;

        let mut out = HashMap::with_capacity(self.len());
        for (row, &id) in self.ids.iter().enumerate() {
            let mut coords = Vec::with_capacity(hierarchies.len());
            for (h, attr) in hierarchies.iter().zip(&attrs) {
                let label = attr.label_of(row);
                let node = h.id_of(label).ok_or_else(|| {
                    BellwetherError::NotFound(format!(
                        "hierarchy {} has no leaf {label:?}",
                        h.name()
                    ))
                })?;
                if !h.is_leaf(node) {
                    return Err(BellwetherError::Config(format!(
                        "item {id} maps to non-leaf node {label:?} of {}",
                        h.name()
                    )));
                }
                coords.push(node);
            }
            out.insert(id, coords);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_table::{Column, Schema};

    fn item_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("category", DataType::Str),
            ("rd_expense", DataType::Float),
        ])
        .unwrap();
        Table::new(
            schema,
            vec![
                Column::from_ints(vec![1, 2, 3]),
                Column::from_strs(&["laptop", "desktop", "laptop"]),
                Column::from_floats(vec![10.0, 20.0, 30.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn builds_and_looks_up() {
        let it =
            ItemTable::from_table(&item_table(), "id", &["rd_expense"], &["category"]).unwrap();
        assert_eq!(it.len(), 3);
        assert_eq!(it.row_of(2), Some(1));
        assert_eq!(it.static_features(3), Some(vec![30.0]));
        assert_eq!(it.categorical_attrs()[0].label_of(1), "desktop");
        assert_eq!(it.categorical_attrs()[0].labels.len(), 2);
        assert!(it.static_features(99).is_none());
    }

    #[test]
    fn item_index_resolves_compact_sparse_and_extreme_ids() {
        let cases: [&[i64]; 6] = [
            &[],
            &[7],
            &[3, 1, 2, 0],
            &[-5, 12, -40, 0, 33],
            &[i64::MIN, -1, 0, 1, i64::MAX],
            &[1_000_000_007, 5, 2_000_000_011, -9_000_000_000],
        ];
        for ids in cases {
            let index = ItemIndex::new(ids);
            assert_eq!(index.len(), ids.len());
            for (at, &id) in ids.iter().enumerate() {
                assert_eq!(index.get(id), Some(at), "{ids:?}");
            }
            let probes = [i64::MIN + 1, -41, -6, 4, 6, 8, 34, i64::MAX - 1];
            let mut lane: Vec<i64> = ids.to_vec();
            lane.extend(probes.iter().filter(|p| !ids.contains(p)));
            lane.extend_from_slice(ids); // a block may repeat an id
            let mut out = vec![99];
            index.resolve_into(&lane, &mut out);
            assert_eq!(out.len(), lane.len());
            for (&id, &at) in lane.iter().zip(&out) {
                let expect = ids.iter().position(|&x| x == id);
                assert_eq!((at != NO_ITEM).then_some(at as usize), expect, "{ids:?} {id}");
                assert_eq!(index.get(id), expect);
            }
        }
        // The two forms are chosen by id spread, and a repeated id keeps
        // its first position in both.
        assert!(matches!(ItemIndex::new(&[4, 5, 4]).lookup, Lookup::Direct { .. }));
        assert_eq!(ItemIndex::new(&[4, 5, 4]).get(4), Some(0));
        let sparse = ItemIndex::new(&[1 << 40, 5, 1 << 40]);
        assert!(matches!(sparse.lookup, Lookup::Sorted { .. }));
        assert_eq!(sparse.get(1 << 40), Some(0));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]).unwrap();
        let t = Table::new(schema, vec![Column::from_ints(vec![1, 1])]).unwrap();
        assert!(ItemTable::from_table(&t, "id", &[], &[]).is_err());
        // Compact ids take the direct index, spread ones the sorted one.
        for ids in [vec![3, 4, 5, 4], vec![1 << 40, 5, -9, 1 << 40]] {
            let err = ItemTable::from_parts(ids.clone(), vec![], vec![]).unwrap_err();
            assert!(err.to_string().contains(&format!("duplicate item id {}", ids[3])), "{err}");
            let distinct = ItemTable::from_parts(ids[..3].to_vec(), vec![], vec![]).unwrap();
            assert_eq!(distinct.row_of(ids[2]), Some(2));
        }
    }

    #[test]
    fn leaf_coords_map_through_hierarchy() {
        let it = ItemTable::from_table(&item_table(), "id", &[], &["category"]).unwrap();
        let mut h = Hierarchy::new("Category", "Any");
        let hw = h.add_child(0, "hardware");
        let laptop = h.add_child(hw, "laptop");
        let desktop = h.add_child(hw, "desktop");
        let coords = it.leaf_coords(&[h], &["category"]).unwrap();
        assert_eq!(coords[&1], vec![laptop]);
        assert_eq!(coords[&2], vec![desktop]);
    }

    #[test]
    fn leaf_coords_reject_unknown_labels() {
        let it = ItemTable::from_table(&item_table(), "id", &[], &["category"]).unwrap();
        let h = Hierarchy::flat("Category", "Any", &["laptop"]); // no desktop
        assert!(it.leaf_coords(&[h], &["category"]).is_err());
    }

    #[test]
    fn leaf_coords_reject_internal_nodes() {
        let schema =
            Schema::from_pairs(&[("id", DataType::Int), ("cat", DataType::Str)]).unwrap();
        let t = Table::new(
            schema,
            vec![Column::from_ints(vec![1]), Column::from_strs(&["hardware"])],
        )
        .unwrap();
        let it = ItemTable::from_table(&t, "id", &[], &["cat"]).unwrap();
        let mut h = Hierarchy::new("Category", "Any");
        let hw = h.add_child(0, "hardware");
        h.add_child(hw, "laptop");
        assert!(it.leaf_coords(&[h], &["cat"]).is_err());
    }
}
