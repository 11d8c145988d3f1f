//! The shape a region leaves the CUBE pass in: one ascending item-id lane
//! and, per measure, one value lane with its validity bitmap — the
//! [`ColumnData`] a measure enters the pass as, the layout the rollup's
//! running tables already hold, and the one a training block is copied
//! from lane by lane.

use bellwether_table::ColumnData;
use std::sync::Arc;

/// The aggregates of one region: every item with data in it, ascending by
/// id, and one lane per measure over those items, collected from its
/// optional aggregates (`0.0` where NULL, a bitmap only if one is).
/// Regions a running table finished from the same item set share one id
/// lane.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionColumns {
    item_ids: Arc<[i64]>,
    lanes: Vec<ColumnData<f64>>,
}

impl RegionColumns {
    /// From a strictly ascending id lane and one lane per measure over it.
    pub(crate) fn from_lanes(item_ids: Arc<[i64]>, lanes: Vec<ColumnData<f64>>) -> RegionColumns {
        debug_assert!(item_ids.windows(2).all(|w| w[0] < w[1]), "item ids ascend");
        debug_assert!(lanes.iter().all(|l| l.values.len() == item_ids.len()));
        RegionColumns { item_ids, lanes }
    }

    /// The columns of per-item feature vectors (all of one length): sorted
    /// by id, split into lanes: how the reference kernels' row maps are
    /// compared with the pass.
    #[cfg(test)]
    pub(crate) fn from_rows(
        rows: std::collections::HashMap<i64, Vec<Option<f64>>>,
    ) -> RegionColumns {
        let mut rows: Vec<(i64, Vec<Option<f64>>)> = rows.into_iter().collect();
        rows.sort_unstable_by_key(|&(id, _)| id);
        let n_measures = rows.first().map_or(0, |(_, vals)| vals.len());
        assert!(rows.iter().all(|(_, vals)| vals.len() == n_measures), "ragged feature vectors");
        let lanes = (0..n_measures)
            .map(|m| rows.iter().map(|(_, vals)| vals[m]).collect())
            .collect();
        RegionColumns::from_lanes(rows.iter().map(|&(id, _)| id).collect(), lanes)
    }

    /// Number of items with data in the region.
    pub fn len(&self) -> usize {
        self.item_ids.len()
    }

    /// True if no item has data in the region.
    pub fn is_empty(&self) -> bool {
        self.item_ids.is_empty()
    }

    /// The items with data in the region, strictly ascending.
    pub fn item_ids(&self) -> &[i64] {
        &self.item_ids
    }

    /// Measure `m` over [`Self::item_ids`], with `0.0` for a NULL
    /// aggregate (the training-block policy; [`Row::get`] tells them
    /// apart).
    pub fn values(&self, m: usize) -> &[f64] {
        &self.lanes[m].values
    }

    /// Measure `m` over [`Self::item_ids`]: [`Self::values`] and which of
    /// them are NULL.
    pub fn lane(&self, m: usize) -> &ColumnData<f64> {
        &self.lanes[m]
    }

    /// The feature vector of `item`, if it has data in the region.
    pub fn get(&self, item: i64) -> Option<Row<'_>> {
        let at = self.item_ids.binary_search(&item).ok()?;
        Some(Row { cols: self, at })
    }

    /// Every item with its feature vector, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (i64, Row<'_>)> {
        self.item_ids.iter().enumerate().map(move |(at, &id)| (id, Row { cols: self, at }))
    }
}

/// One item's feature vector inside a [`RegionColumns`]: one optional
/// aggregate per measure (`None` = SQL NULL).
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    cols: &'a RegionColumns,
    at: usize,
}

impl<'a> Row<'a> {
    /// Number of measures.
    pub fn len(&self) -> usize {
        self.cols.lanes.len()
    }

    /// True if the cube has no measures.
    pub fn is_empty(&self) -> bool {
        self.cols.lanes.is_empty()
    }

    /// Measure `m`'s aggregate. Panics if out of range.
    pub fn get(&self, m: usize) -> Option<f64> {
        self.cols.lanes[m].get(self.at)
    }

    /// The aggregates in measure order.
    pub fn iter(&self) -> RowIter<'a> {
        RowIter { row: *self, measures: 0..self.len() }
    }
}

impl<'a> IntoIterator for Row<'a> {
    type Item = Option<f64>;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Row`]'s aggregates.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    row: Row<'a>,
    measures: std::ops::Range<usize>,
}

impl Iterator for RowIter<'_> {
    type Item = Option<f64>;

    fn next(&mut self) -> Option<Option<f64>> {
        self.measures.next().map(|m| self.row.get(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn rows_become_sorted_lanes_and_read_back() {
        let rows: HashMap<i64, Vec<Option<f64>>> = [
            (9, vec![Some(1.5), None]),
            (-4, vec![None, Some(-0.0)]),
            (2, vec![Some(f64::NAN), Some(7.0)]),
        ]
        .into_iter()
        .collect();
        let cols = RegionColumns::from_rows(rows.clone());
        assert_eq!(cols.item_ids(), &[-4, 2, 9]);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.values(1)[2].to_bits(), 0f64.to_bits(), "NULL is +0.0 in the lane");
        assert_eq!(cols.values(1)[0].to_bits(), (-0.0f64).to_bits());
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        for (id, row) in cols.iter() {
            assert_eq!(row.len(), 2);
            let want: Vec<_> = rows[&id].iter().copied().map(bits).collect();
            assert_eq!(row.iter().map(bits).collect::<Vec<_>>(), want);
            assert_eq!(cols.get(id).unwrap().into_iter().map(bits).collect::<Vec<_>>(), want);
        }
        assert!(cols.get(3).is_none());
        let empty = RegionColumns::from_rows(HashMap::new());
        assert!(empty.is_empty() && empty.iter().next().is_none());
    }
}
