//! Cost models for data acquisition (the κ query of Definition 1).
//!
//! The paper assumes a cost table `C(Z, Cost)` over finest-grained
//! regions, with a larger region costing an aggregate (e.g. the sum) of
//! its cells — [`UniformCellCost`] is that sum over a uniform table; the
//! mail-order experiment uses the product form `months × zip_areas/100`
//! ([`ProductCost`]). Both are *monotone*: a region containing
//! another never costs less. The trait documents and tests that
//! property; basic search compares each region's cost with the budget
//! before reading it, so no pruning relies on it.

use crate::region::{RegionId, RegionSpace};
use std::collections::HashMap;

/// A cost model over candidate regions. Implementations must be monotone
/// w.r.t. region containment: `a ⊇ b ⇒ cost(a) ≥ cost(b)`.
///
/// `Send + Sync` so searches can evaluate regions from worker threads.
pub trait CostModel: Send + Sync {
    /// Cost of collecting data for a new item from region `r`.
    fn cost(&self, space: &RegionSpace, r: &RegionId) -> f64;
}

/// Uniform per-cell cost: `cost(r) = rate × (#finest cells in r)`.
#[derive(Debug, Clone)]
pub struct UniformCellCost {
    /// Cost of one finest-grained cell.
    pub rate: f64,
}

impl CostModel for UniformCellCost {
    fn cost(&self, space: &RegionSpace, r: &RegionId) -> f64 {
        self.rate * space.finest_cell_count(r) as f64
    }
}

/// Per-dimension-value weights multiplied together, the mail-order form:
/// `cost([1-m, loc]) = m × weight(loc)` with `weight` supplied per value
/// (e.g. zip-code areas / 100). Missing weights default to the number of
/// finest cells of the value.
#[derive(Debug, Clone, Default)]
pub struct ProductCost {
    /// `weights[d]` maps dimension `d`'s value id to its factor.
    pub weights: Vec<HashMap<u32, f64>>,
}

impl ProductCost {
    /// Product cost with explicit per-dimension weight tables.
    pub fn new(weights: Vec<HashMap<u32, f64>>) -> Self {
        ProductCost { weights }
    }
}

impl CostModel for ProductCost {
    fn cost(&self, space: &RegionSpace, r: &RegionId) -> f64 {
        space
            .dims()
            .iter()
            .enumerate()
            .map(|(d, dim)| {
                let v = r.coord(d);
                self.weights
                    .get(d)
                    .and_then(|w| w.get(&v))
                    .copied()
                    .unwrap_or_else(|| dim.finest_cell_count(v) as f64)
            })
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::{Dimension, Hierarchy};

    fn space() -> RegionSpace {
        let mut loc = Hierarchy::new("Loc", "All");
        let us = loc.add_child(0, "US");
        loc.add_child(us, "WI");
        loc.add_child(us, "MD");
        loc.add_child(0, "KR");
        RegionSpace::new(vec![
            Dimension::Interval {
                name: "Time".into(),
                max_t: 3,
            },
            Dimension::Hierarchy(loc),
        ])
    }

    #[test]
    fn uniform_cost_counts_cells() {
        let s = space();
        let c = UniformCellCost { rate: 2.0 };
        // [1-2, US]: 2 points × 2 leaves = 4 cells → cost 8
        assert_eq!(c.cost(&s, &RegionId(vec![1, 1])), 8.0);
        assert_eq!(c.cost(&s, &RegionId(vec![0, 4])), 2.0);
    }

    #[test]
    fn product_cost_uses_weights_with_fallback() {
        let s = space();
        let mut loc_w = HashMap::new();
        loc_w.insert(2u32, 5.0); // WI weighs 5
        let c = ProductCost::new(vec![HashMap::new(), loc_w]);
        // time falls back to cell count (=2 for [1-2]); WI weight 5
        assert_eq!(c.cost(&s, &RegionId(vec![1, 2])), 10.0);
        // MD falls back to leaf count 1
        assert_eq!(c.cost(&s, &RegionId(vec![1, 3])), 2.0);
    }

    #[test]
    fn costs_are_monotone_in_containment() {
        let s = space();
        // Weights that grow with containment: time [1-1] 0.5, [1-2] 2,
        // [1-3] its 3 cells; All 10 ⊇ US 6 ⊇ {WI 5, MD 1}, All ⊇ KR 3.
        let time_w = HashMap::from([(0u32, 0.5), (1, 2.0)]);
        let loc_w = HashMap::from([(0u32, 10.0), (1, 6.0), (2, 5.0), (3, 1.0), (4, 3.0)]);
        let models: Vec<Box<dyn CostModel>> = vec![
            Box::new(UniformCellCost { rate: 1.0 }),
            Box::new(ProductCost::new(vec![time_w, loc_w])),
        ];
        let all = s.all_regions();
        for m in &models {
            for a in &all {
                for b in &all {
                    if s.contains(a, b) {
                        assert!(
                            m.cost(&s, a) >= m.cost(&s, b),
                            "cost not monotone: {:?} vs {:?}",
                            a,
                            b
                        );
                    }
                }
            }
        }
    }
}
