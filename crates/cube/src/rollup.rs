//! Generic lattice rollup for algebraic aggregates (§6.4).
//!
//! Given a value per *base* cell of a product-of-hierarchies space (e.g.
//! the Theorem-1 sufficient statistic per base item subset), compute the
//! merged value for **every** cell of the lattice by rolling up one
//! dimension at a time. With `D` hierarchies of depth `h`, each cell's
//! value is built from its children in `O(D·h)` merges total per base
//! cell — this is the data-cube computation the optimized bellwether
//! cube replaces per-subset model refits with.
//!
//! The merge operation must be associative and commutative and the base
//! cells disjoint, which is exactly the "distributive or algebraic
//! aggregate" condition of Observation 1.

use crate::dimension::Dimension;
use crate::region::{RegionId, RegionSpace};
use std::collections::HashMap;

/// Roll base-cell values up to every lattice cell.
///
/// `space` must consist of hierarchy dimensions only (item hierarchies);
/// base keys must sit at leaf coordinates. Returns a map containing every
/// cell that has at least one base descendant.
pub fn rollup_lattice<T: Clone>(
    space: &RegionSpace,
    base: HashMap<RegionId, T>,
    mut merge: impl FnMut(&mut T, &T),
) -> HashMap<RegionId, T> {
    for dim in space.dims() {
        assert!(
            matches!(dim, Dimension::Hierarchy(_)),
            "rollup_lattice requires hierarchy dimensions"
        );
    }
    let mut current = base;
    for (d, dim) in space.dims().iter().enumerate() {
        let Dimension::Hierarchy(h) = dim else { unreachable!() };
        let mut next: HashMap<RegionId, T> = HashMap::with_capacity(current.len() * 2);
        // Ascending key order, not the map's: a cell's children must
        // merge in one fixed order, because float merges are only
        // commutative — regrouping them changes the low bits callers
        // take arg-mins over.
        let mut cells: Vec<(RegionId, T)> = current.into_iter().collect();
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        for (key, value) in cells {
            // After processing dims 0..d, the key's coordinate along d is
            // still a leaf; expand it to every ancestor-or-self.
            for anc in h.ancestors_or_self(key.coord(d)) {
                let mut coords = key.0.clone();
                coords[d] = anc;
                let k = RegionId(coords);
                match next.get_mut(&k) {
                    Some(existing) => merge(existing, &value),
                    None => {
                        next.insert(k, value.clone());
                    }
                }
            }
        }
        current = next;
    }
    current
}

/// Reference implementation for tests: for every lattice cell, merge the
/// base cells it contains, straight from the definition.
pub fn rollup_naive<T: Clone>(
    space: &RegionSpace,
    base: &HashMap<RegionId, T>,
    mut merge: impl FnMut(&mut T, &T),
) -> HashMap<RegionId, T> {
    let mut out: HashMap<RegionId, T> = HashMap::new();
    for cell in space.all_regions() {
        let mut acc: Option<T> = None;
        for (bk, bv) in base {
            if space.contains(&cell, bk) {
                match &mut acc {
                    Some(a) => merge(a, bv),
                    None => acc = Some(bv.clone()),
                }
            }
        }
        if let Some(a) = acc {
            out.insert(cell, a);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::Hierarchy;

    /// Two item hierarchies mirroring Fig. 5: Category and RDExpense.
    fn item_space() -> RegionSpace {
        let mut cat = Hierarchy::new("Category", "Any");
        let hw = cat.add_child(0, "Hardware");
        cat.add_child(hw, "Desktop");
        cat.add_child(hw, "Laptop");
        let sw = cat.add_child(0, "Software");
        cat.add_child(sw, "Others");

        let mut exp = Hierarchy::new("RDExpense", "AnyExp");
        let low = exp.add_child(0, "Low");
        exp.add_child(low, "100K");
        let hi = exp.add_child(0, "High");
        exp.add_child(hi, "1M");
        RegionSpace::new(vec![
            Dimension::Hierarchy(cat),
            Dimension::Hierarchy(exp),
        ])
    }

    fn base_counts(space: &RegionSpace) -> HashMap<RegionId, u64> {
        // one base cell per (leaf, leaf) combination with a distinct count
        let mut base = HashMap::new();
        for (i, r) in space.base_regions().into_iter().enumerate() {
            base.insert(r, i as u64 + 1);
        }
        base
    }

    #[test]
    fn rollup_matches_naive_on_counts() {
        let s = item_space();
        let base = base_counts(&s);
        let fast = rollup_lattice(&s, base.clone(), |a, b| *a += *b);
        let slow = rollup_naive(&s, &base, |a, b| *a += *b);
        assert_eq!(fast.len(), slow.len());
        for (k, v) in &slow {
            assert_eq!(fast.get(k), Some(v), "cell {k:?}");
        }
    }

    #[test]
    fn root_cell_is_grand_total() {
        let s = item_space();
        let base = base_counts(&s);
        let total: u64 = base.values().sum();
        let rolled = rollup_lattice(&s, base, |a, b| *a += *b);
        // [Any, AnyExp] = coords [0, 0]
        assert_eq!(rolled.get(&RegionId(vec![0, 0])), Some(&total));
    }

    #[test]
    fn intermediate_cells_partial_sums() {
        let s = item_space();
        // base subsets: leaves of cat = {Desktop(2), Laptop(3), Others(5)},
        // leaves of exp = {100K(2), 1M(4)}
        let mut base = HashMap::new();
        base.insert(RegionId(vec![2, 2]), 1u64); // Desktop, 100K
        base.insert(RegionId(vec![3, 4]), 10u64); // Laptop, 1M
        let rolled = rollup_lattice(&s, base, |a, b| *a += *b);
        // [Hardware, AnyExp] = coords [1, 0] contains both
        assert_eq!(rolled.get(&RegionId(vec![1, 0])), Some(&11));
        // [Hardware, Low] = [1, 1] contains only Desktop/100K
        assert_eq!(rolled.get(&RegionId(vec![1, 1])), Some(&1));
        // [Software, AnyExp] = [4, 0] contains nothing → absent
        assert!(!rolled.contains_key(&RegionId(vec![4, 0])));
    }

    #[test]
    fn merge_order_is_the_same_on_every_call() {
        // Concatenation is not commutative, so the value of a cell is
        // the order its children merged in. Every map here is seeded
        // afresh, so an order taken from map iteration would differ
        // between calls.
        let s = item_space();
        let rolled = || {
            let base: HashMap<RegionId, String> = s
                .base_regions()
                .into_iter()
                .map(|r| (r.clone(), format!("{:?};", r.0)))
                .collect();
            let mut cells: Vec<_> = rollup_lattice(&s, base, |a, b| a.push_str(b))
                .into_iter()
                .collect();
            cells.sort();
            cells
        };
        let first = rolled();
        assert!(first.iter().any(|(_, v)| v.matches(';').count() > 2));
        for _ in 0..50 {
            assert_eq!(rolled(), first);
        }
    }

    #[test]
    fn cell_count_matches_membership() {
        // Every produced key must contain at least one base key.
        let s = item_space();
        let base = base_counts(&s);
        let rolled = rollup_lattice(&s, base.clone(), |a, b| *a += *b);
        for k in rolled.keys() {
            assert!(base.keys().any(|b| s.contains(k, b)));
        }
    }

    #[test]
    #[should_panic(expected = "hierarchy dimensions")]
    fn interval_dims_rejected() {
        let s = RegionSpace::new(vec![Dimension::Interval {
            name: "T".into(),
            max_t: 3,
        }]);
        rollup_lattice(&s, HashMap::<RegionId, u64>::new(), |a, b| *a += *b);
    }
}
