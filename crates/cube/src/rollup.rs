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
//! aggregate" condition of Observation 1. The merge order is derived
//! once, as a [`LatticeSchedule`], and replayed.

use crate::dimension::Dimension;
use crate::region::{RegionId, RegionSpace};
use std::collections::HashMap;

/// The merge order of a lattice rollup over a fixed set of base cells, as
/// `(from, to)` steps between slots. Stage 0 is the base cells, stage
/// `d + 1` every cell that rolling stage `d` up dimension `d` reaches, each
/// ascending; the steps visit a stage's cells in order and each one's
/// ancestors-or-self along `d`, nearest first, a slot's first arrival a
/// copy and later ones merges. Float merges only commute, so this order is
/// part of the result. Replayed over only *some* base cells — empty sources
/// skipped, empty destinations copied into — it is their rollup bit for bit.
#[derive(Debug, Clone)]
pub struct LatticeSchedule {
    /// Base cells, ascending: slot `i` holds `base[i]`.
    pub base: Vec<RegionId>,
    /// The last stage, ascending, in the slots from `first_cell` on.
    pub cells: Vec<RegionId>,
    /// Slot of `cells[0]`.
    pub first_cell: usize,
    /// `(from, to)` in execution order, `from` in an earlier stage.
    pub steps: Vec<(usize, usize)>,
}

impl LatticeSchedule {
    /// The schedule of `space` (hierarchy dimensions only) over `base`
    /// (duplicates ignored).
    pub fn new(space: &RegionSpace, base: impl IntoIterator<Item = RegionId>) -> Self {
        let mut stage: Vec<RegionId> = base.into_iter().collect();
        stage.sort();
        stage.dedup();
        let (base, mut first, mut steps) = (stage.clone(), 0, Vec::new());
        for (d, dim) in space.dims().iter().enumerate() {
            let Dimension::Hierarchy(h) = dim else {
                panic!("rollup_lattice requires hierarchy dimensions");
            };
            let mut reached = Vec::new();
            for (at, key) in stage.iter().enumerate() {
                for anc in h.ancestors_or_self(key.coord(d)) {
                    let mut coords = key.0.clone();
                    coords[d] = anc;
                    reached.push((first + at, RegionId(coords)));
                }
            }
            let mut next: Vec<RegionId> = reached.iter().map(|(_, key)| key.clone()).collect();
            next.sort();
            next.dedup();
            first += stage.len();
            let slot_of = |key: &RegionId| first + next.binary_search(key).expect("reached");
            steps.extend(reached.iter().map(|(from, key)| (*from, slot_of(key))));
            stage = next;
        }
        let (cells, first_cell) = (stage, first);
        LatticeSchedule { base, cells, first_cell, steps }
    }

    /// Slot of a rolled-up cell, if the rollup reaches it.
    pub fn cell_slot(&self, cell: &RegionId) -> Option<usize> {
        self.cells.binary_search(cell).ok().map(|i| self.first_cell + i)
    }

    /// Roll `base` — values for some of the schedule's base cells; other
    /// keys are ignored — up to every cell they reach.
    pub fn rollup<T: Clone>(
        &self,
        mut base: HashMap<RegionId, T>,
        mut merge: impl FnMut(&mut T, &T),
    ) -> HashMap<RegionId, T> {
        let mut slots: Vec<Option<T>> = self.base.iter().map(|key| base.remove(key)).collect();
        slots.resize_with(self.first_cell + self.cells.len(), || None);
        for &(from, to) in &self.steps {
            let (sources, rest) = slots.split_at_mut(to);
            let Some(value) = &sources[from] else { continue };
            match &mut rest[0] {
                Some(cell) => merge(cell, value),
                empty => *empty = Some(value.clone()),
            }
        }
        let rolled = self.cells.iter().zip(&mut slots[self.first_cell..]);
        rolled.filter_map(|(key, value)| Some((key.clone(), value.take()?))).collect()
    }
}

/// Roll base-cell values up to every lattice cell.
///
/// `space` must consist of hierarchy dimensions only (item hierarchies);
/// base keys must sit at leaf coordinates. Returns a map containing every
/// cell that has at least one base descendant.
pub fn rollup_lattice<T: Clone>(
    space: &RegionSpace,
    base: HashMap<RegionId, T>,
    merge: impl FnMut(&mut T, &T),
) -> HashMap<RegionId, T> {
    LatticeSchedule::new(space, base.keys().cloned()).rollup(base, merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::Hierarchy;
    use crate::testutil::rollup_naive;
    use bellwether_prop::{check, Rng};

    /// The rollup as it was before the schedule, kept as its oracle: one
    /// map per stage, each cell inserted on first arrival and merged into
    /// after, cells visited in ascending key order.
    fn rollup_by_maps<T: Clone>(
        space: &RegionSpace,
        base: HashMap<RegionId, T>,
        mut merge: impl FnMut(&mut T, &T),
    ) -> HashMap<RegionId, T> {
        let mut current = base;
        for (d, dim) in space.dims().iter().enumerate() {
            let Dimension::Hierarchy(h) = dim else { unreachable!() };
            let mut next: HashMap<RegionId, T> = HashMap::with_capacity(current.len() * 2);
            let mut cells: Vec<(RegionId, T)> = current.into_iter().collect();
            cells.sort_by(|a, b| a.0.cmp(&b.0));
            for (key, value) in cells {
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

    /// A hierarchy of depth 1–3 whose nodes have 1–5 children each.
    fn random_hierarchy(rng: &mut Rng, name: &str) -> Hierarchy {
        let mut h = Hierarchy::new(name, "All");
        let mut frontier = vec![0];
        for depth in 0..rng.usize_in(1, 4) {
            let mut next = Vec::new();
            for parent in frontier {
                for c in 0..rng.usize_in(1, 6) {
                    next.push(h.add_child(parent, format!("{name}{depth}.{parent}.{c}")));
                }
            }
            frontier = next;
        }
        h
    }

    #[test]
    fn the_schedule_is_the_rollup() {
        check("lattice_schedule_vs_map_rollup", 300, |rng| {
            // Few enough base cells for `rollup_naive`'s quadratic walk.
            let (space, all) = loop {
                let dims = (0..rng.usize_in(1, 4))
                    .map(|d| Dimension::Hierarchy(random_hierarchy(rng, &format!("h{d}"))))
                    .collect();
                let space = RegionSpace::new(dims);
                let all = space.base_regions();
                if all.len() <= 240 {
                    break (space, all);
                }
            };
            // Every base cell, none, or a random part of them.
            let keep = match rng.below(4) {
                0 => 1.0,
                1 => 0.0,
                _ => rng.f64(),
            };
            let present: Vec<RegionId> = all.iter().filter(|_| rng.flip(keep)).cloned().collect();
            // Magnitudes far apart, so regrouping any sum moves its bits.
            let floats: HashMap<RegionId, f64> = present
                .iter()
                .map(|r| (r.clone(), rng.f64_in(-1.0, 1.0) * 10f64.powi(rng.below(16) as i32)))
                .collect();
            let counts: HashMap<RegionId, u64> =
                present.iter().map(|r| (r.clone(), rng.next_u64() >> 20)).collect();

            // One schedule over every base cell, replayed over the
            // present ones — what the optimized cube does per block.
            let schedule = LatticeSchedule::new(&space, all.iter().cloned());
            let add_f = |a: &mut f64, b: &f64| *a += *b;
            let want = rollup_by_maps(&space, floats.clone(), add_f);
            let bits = |m: &HashMap<RegionId, f64>| -> HashMap<RegionId, u64> {
                m.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
            };
            assert_eq!(bits(&schedule.rollup(floats.clone(), add_f)), bits(&want));
            assert_eq!(bits(&rollup_lattice(&space, floats.clone(), add_f)), bits(&want));

            let add_u = |a: &mut u64, b: &u64| *a += *b;
            let want = rollup_by_maps(&space, counts.clone(), add_u);
            assert_eq!(schedule.rollup(counts.clone(), add_u), want);
            assert_eq!(rollup_lattice(&space, counts.clone(), add_u), want);
            assert_eq!(rollup_naive(&space, &counts, add_u), want);
            let near = rollup_naive(&space, &floats, add_f);
            assert_eq!(near.len(), want.len());
            for (cell, v) in &rollup_lattice(&space, floats.clone(), add_f) {
                let scale: f64 = floats
                    .iter()
                    .filter(|(b, _)| space.contains(cell, b))
                    .map(|(_, x)| x.abs())
                    .sum();
                assert!((v - near[cell]).abs() <= 1e-12 * scale, "{cell:?}");
            }
        });
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
