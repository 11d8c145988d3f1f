//! Fact-stream workload for the incremental-maintenance engine.
//!
//! Unlike [`crate::scale`], which plants training *blocks* directly,
//! this generator emits raw **fact rows** in strict time order, so any
//! split of the timeline into `[0,k)` + `[k,weeks)` concatenates to the
//! exact full input — the property the delta CUBE's bit-identity
//! contract is tested against.
//!
//! The region space is `Interval(weeks) × Location` with a flat
//! location hierarchy. Every `(week, leaf, item)` triple carries one
//! fact row whose measures are seeded per-triple, so generation is
//! O(1)-seekable and independent of how the stream is sliced.
//!
//! # Planted drift
//!
//! Leaf 0 is the *early bellwether*: its per-row values track a planted
//! per-item signal with noise `bellwether_noise`, so regions over leaf
//! 0 predict the targets well from week one. Leaf 1 is the *late
//! bellwether*: its noise is `late_noise` (much smaller) but it has
//! **no rows at all** before `open_week` — its regions have zero
//! coverage and stay infeasible until the stream crosses that week, at
//! which point they surface, win the argmin, and deterministically
//! flip the bellwether. Every other leaf is background noise.

use crate::rng::Gen;
use bellwether_core::items::ItemTable;
use bellwether_cube::{CubeInput, Dimension, Hierarchy, Measure, RegionId, RegionSpace};
use bellwether_table::ops::AggFunc;
use bellwether_table::{Column, ColumnData, DataType, Schema, Table};
use std::collections::HashMap;

/// Stream-workload parameters.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Items in the catalogue.
    pub n_items: usize,
    /// Weeks of history (`Interval { max_t: weeks }`).
    pub weeks: u32,
    /// Leaves of the flat location hierarchy (≥ 3: early bellwether,
    /// late bellwether, background).
    pub leaves: usize,
    /// Leaves of the single item hierarchy (for cube builders).
    pub item_hierarchy_leaves: usize,
    /// Numeric item attributes (static features).
    pub n_numeric_attrs: usize,
    /// Noise of the early bellwether (leaf 0).
    pub bellwether_noise: f64,
    /// Noise of the late bellwether (leaf 1); should be ≪
    /// `bellwether_noise` so the flip is unambiguous.
    pub late_noise: f64,
    /// First week (0-based) with any leaf-1 rows.
    pub open_week: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            n_items: 60,
            weeks: 12,
            leaves: 5,
            item_hierarchy_leaves: 3,
            n_numeric_attrs: 2,
            bellwether_noise: 0.05,
            late_noise: 0.0005,
            open_week: 8,
            seed: 7,
        }
    }
}

/// Static description of the stream workload.
pub struct StreamWorkload {
    /// Candidate-region space: `Interval(weeks) × Location`.
    pub region_space: RegionSpace,
    /// All regions in scan order.
    pub regions: Vec<RegionId>,
    /// The item table (one hierarchy + numeric attributes).
    pub items: ItemTable,
    /// Item space over the item hierarchy.
    pub item_space: RegionSpace,
    /// Per-item leaf coordinates in `item_space`.
    pub item_coords: HashMap<i64, Vec<u32>>,
    /// Per-item targets (linear in the planted per-item signal).
    pub targets: Vec<f64>,
    /// Per-item planted signal `f(i)`.
    signal: Vec<f64>,
    cfg: StreamConfig,
}

/// Build the static workload (items, spaces, signal, targets).
pub fn build_stream_workload(cfg: &StreamConfig) -> StreamWorkload {
    assert!(cfg.leaves >= 3, "need early/late/background leaves");
    assert!(cfg.open_week < cfg.weeks, "late bellwether must open");
    let mut rng = Gen::new(cfg.seed);

    let loc_labels: Vec<String> = (0..cfg.leaves).map(|l| format!("L{l}")).collect();
    let region_space = RegionSpace::new(vec![
        Dimension::Interval {
            name: "Week".into(),
            max_t: cfg.weeks,
        },
        Dimension::Hierarchy(Hierarchy::flat(
            "Location",
            "All",
            &loc_labels.iter().map(String::as_str).collect::<Vec<_>>(),
        )),
    ]);
    let regions = region_space.all_regions();

    // Per-item planted signal and a linear target on it.
    let signal: Vec<f64> = (0..cfg.n_items).map(|_| rng.uniform(-40.0, 40.0)).collect();
    let targets: Vec<f64> = signal.iter().map(|&f| 3.0 + 2.0 * f).collect();

    // Item table: id + one hierarchy label + numeric attributes.
    let hier_labels: Vec<String> = (0..cfg.item_hierarchy_leaves)
        .map(|i| format!("g{i}"))
        .collect();
    let item_cats: Vec<String> = (0..cfg.n_items)
        .map(|_| hier_labels[rng.below(hier_labels.len())].clone())
        .collect();
    let mut columns: Vec<Column> = vec![
        Column::from_ints((0..cfg.n_items as i64).collect()),
        Column::from_strs(&item_cats.iter().map(String::as_str).collect::<Vec<_>>()),
    ];
    let mut fields: Vec<(String, DataType)> =
        vec![("id".into(), DataType::Int), ("h0".into(), DataType::Str)];
    for a in 0..cfg.n_numeric_attrs {
        fields.push((format!("n{a}"), DataType::Float));
        columns.push(Column::from_floats(
            (0..cfg.n_items).map(|_| rng.uniform(0.0, 10.0)).collect(),
        ));
    }
    let schema = Schema::from_pairs(
        &fields
            .iter()
            .map(|(n, t)| (n.as_str(), *t))
            .collect::<Vec<_>>(),
    )
    .expect("item schema");
    let table = Table::new(schema, columns).expect("item table");
    let numeric_names: Vec<String> =
        (0..cfg.n_numeric_attrs).map(|a| format!("n{a}")).collect();
    let items = ItemTable::from_table(
        &table,
        "id",
        &numeric_names.iter().map(String::as_str).collect::<Vec<_>>(),
        &["h0"],
    )
    .expect("items");

    let item_hier = Hierarchy::flat(
        "h0",
        "any",
        &hier_labels.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let item_coords = items
        .leaf_coords(std::slice::from_ref(&item_hier), &["h0"])
        .expect("item coords");
    let item_space = RegionSpace::new(vec![Dimension::Hierarchy(item_hier)]);

    StreamWorkload {
        region_space,
        regions,
        items,
        item_space,
        item_coords,
        targets,
        signal,
        cfg: cfg.clone(),
    }
}

impl StreamWorkload {
    /// Per-leaf noise amplitude.
    fn noise_of(&self, leaf: usize) -> f64 {
        match leaf {
            0 => self.cfg.bellwether_noise,
            1 => self.cfg.late_noise,
            _ => 8.0,
        }
    }

    /// Fact rows for weeks `[week_lo, week_hi)`, in the canonical
    /// (week, leaf, item) order. Concatenating consecutive ranges is
    /// byte-for-byte the same input as generating the union directly.
    pub fn input_range(&self, week_lo: u32, week_hi: u32) -> CubeInput {
        assert!(week_lo <= week_hi && week_hi <= self.cfg.weeks);
        let mut item_ids = Vec::new();
        let mut coords = Vec::new();
        let mut values = Vec::new();
        let mut volumes = Vec::new();
        for w in week_lo..week_hi {
            for leaf in 0..self.cfg.leaves {
                if leaf == 1 && w < self.cfg.open_week {
                    continue;
                }
                let noise = self.noise_of(leaf);
                for i in 0..self.cfg.n_items {
                    // Seed per (week, leaf, item) so slicing the stream
                    // anywhere reproduces identical rows.
                    let mut g = Gen::new(
                        self.cfg
                            .seed
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add((w as u64) << 40)
                            .wrapping_add((leaf as u64) << 20)
                            .wrapping_add(i as u64),
                    );
                    item_ids.push(i as i64);
                    // Interval leaf coord for week w is w; location
                    // leaf l is hierarchy node l+1 (0 = All).
                    coords.push(w);
                    coords.push((leaf + 1) as u32);
                    values.push(self.signal[i] + g.normal(0.0, noise));
                    volumes.push(g.uniform(0.0, 5.0));
                }
            }
        }
        CubeInput {
            item_ids,
            coords,
            measures: vec![
                Measure::Numeric {
                    name: "avg_v".into(),
                    func: AggFunc::Avg,
                    values: ColumnData {
                        values,
                        validity: None,
                    },
                },
                Measure::Numeric {
                    name: "volume".into(),
                    func: AggFunc::Sum,
                    values: ColumnData {
                        values: volumes,
                        validity: None,
                    },
                },
            ],
        }
    }

    /// The full timeline as one input.
    pub fn full_input(&self) -> CubeInput {
        self.input_range(0, self.cfg.weeks)
    }

    /// Pinned item universe for the delta cube.
    pub fn item_universe(&self) -> Vec<i64> {
        (0..self.cfg.n_items as i64).collect()
    }

    /// Per-item targets as a map.
    pub fn target_map(&self) -> HashMap<i64, f64> {
        self.targets
            .iter()
            .enumerate()
            .map(|(i, &t)| (i as i64, t))
            .collect()
    }

    /// The workload's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Fact rows in the full timeline.
    pub fn total_rows(&self) -> usize {
        let full_weeks = self.cfg.weeks as usize * self.cfg.leaves;
        let gated = self.cfg.open_week as usize; // leaf 1 closed weeks
        (full_weeks - gated) * self.cfg.n_items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_concatenate_to_the_full_input() {
        let wl = build_stream_workload(&StreamConfig::default());
        let full = wl.full_input();
        assert_eq!(full.item_ids.len(), wl.total_rows());
        let mut ids = Vec::new();
        let mut coords = Vec::new();
        let mut vals: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
        for (lo, hi) in [(0, 3), (3, 4), (4, 9), (9, 12)] {
            let part = wl.input_range(lo, hi);
            ids.extend(part.item_ids);
            coords.extend(part.coords);
            for (m, out) in part.measures.iter().zip(vals.iter_mut()) {
                let Measure::Numeric { values, .. } = m else { panic!() };
                assert!(values.validity.is_none(), "a stream lane has no NULLs");
                out.extend(&values.values);
            }
        }
        assert_eq!(ids, full.item_ids);
        assert_eq!(coords, full.coords);
        for (m, got) in full.measures.iter().zip(vals.iter()) {
            let Measure::Numeric { values, .. } = m else { panic!() };
            assert!(values.validity.is_none(), "a stream lane has no NULLs");
            assert_eq!(&values.values, got);
        }
    }

    #[test]
    fn late_bellwether_opens_at_open_week() {
        let cfg = StreamConfig::default();
        let wl = build_stream_workload(&cfg);
        let before = wl.input_range(0, cfg.open_week);
        assert!(!before.coords.chunks(2).any(|c| c[1] == 2));
        let after = wl.input_range(cfg.open_week, cfg.weeks);
        assert!(after.coords.chunks(2).any(|c| c[1] == 2));
    }
}
