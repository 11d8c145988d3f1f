//! Synthetic retail star-schema datasets standing in for the paper's
//! proprietary *mail order* (§7.1) and *book store* (§7.2) datasets.
//!
//! The generator plants (or deliberately omits) bellwether structure:
//!
//! * Each item has a latent demand driver `g_i` and per-state
//!   multiplicative noise `u_{i,s}`. In a category's *tight state* the
//!   noise is absent (`u = 1`), so that state's sales track `g_i`
//!   exactly.
//! * Monthly sales shares are random per item **except for a fixed tail
//!   after the convergence month**, so the cumulative profit of a tight
//!   state through month `converge_month` is exactly proportional to
//!   `g_i` — the region `[1..converge, tight_state]` is a planted
//!   bellwether, and earlier intervals are noisier (error falls with
//!   budget until it converges, as in Figure 7(a)).
//! * With `planted` empty and a free tail, every state is equally noisy
//!   and no clear bellwether exists — the bookstore negative result of
//!   Figure 9.
//!
//! The target (total profit over the whole period and area) is *not*
//! planted separately: it is whatever the fact table sums to, exactly
//! as the paper computes it with a query.

use crate::rng::Gen;
use bellwether_core::features::{FeatureQuery, StarDatabase};
use bellwether_core::items::ItemTable;
use bellwether_core::task::TrainingTask;
use bellwether_cube::{Dimension, Hierarchy, ProductCost, RegionSpace};
use bellwether_table::ops::AggFunc;
use bellwether_table::{Column, DataType, Schema, Table, TableBuilder, Value};
use std::collections::HashMap;

/// US census regions → divisions → states, used as the location
/// hierarchy of the mail-order dataset.
#[allow(clippy::type_complexity)] // a static nested literal, clearest as-is
pub const US_CENSUS: &[(&str, &[(&str, &[&str])])] = &[
    (
        "Northeast",
        &[
            ("NewEngland", &["CT", "ME", "MA", "NH", "RI", "VT"]),
            ("MiddleAtlantic", &["NJ", "NY", "PA"]),
        ],
    ),
    (
        "Midwest",
        &[
            ("EastNorthCentral", &["IL", "IN", "MI", "OH", "WI"]),
            (
                "WestNorthCentral",
                &["IA", "KS", "MN", "MO", "NE", "ND", "SD"],
            ),
        ],
    ),
    (
        "South",
        &[
            (
                "SouthAtlantic",
                &["DE", "FL", "GA", "MD", "NC", "SC", "VA", "WV"],
            ),
            ("EastSouthCentral", &["AL", "KY", "MS", "TN"]),
            ("WestSouthCentral", &["AR", "LA", "OK", "TX"]),
        ],
    ),
    (
        "West",
        &[
            ("Mountain", &["AZ", "CO", "ID", "MT", "NV", "NM", "UT", "WY"]),
            ("Pacific", &["AK", "CA", "HI", "OR", "WA"]),
        ],
    ),
];

/// Configuration of the retail generator.
#[derive(Debug, Clone)]
pub struct RetailConfig {
    /// Number of items.
    pub n_items: usize,
    /// Number of months (interval dimension length).
    pub months: u32,
    /// RNG seed.
    pub seed: u64,
    /// `(category, tight state)` pairs: items of each category get a
    /// noise-free signal in their tight state. Empty = no bellwether.
    pub planted: Vec<(String, String)>,
    /// Month after which monthly shares are fixed (cumulative signal
    /// converges). Ignored when `planted` is empty.
    pub converge_month: u32,
    /// Restrict the state set (`None` = all 50 census states).
    pub states: Option<Vec<&'static str>>,
    /// σ of the per-(item, state) multiplicative noise.
    pub state_noise: f64,
    /// Probability an item records sales in a non-tight (state, month).
    pub sell_prob: f64,
    /// Number of catalogs in the reference table.
    pub n_catalogs: usize,
    /// Fraction of items that start selling late (months 2–4).
    pub late_start_frac: f64,
}

impl RetailConfig {
    /// The mail-order stand-in: 10 months, all states, a bellwether
    /// planted in MD for every category, converging at month 8 — so the
    /// basic search should find `[1-8, MD]`, echoing the paper. Item
    /// subsets behave alike (both categories share the tight state), so
    /// trees/cubes improve only mildly — also echoing the paper's
    /// Figure 8 observation.
    pub fn mail_order(n_items: usize, seed: u64) -> Self {
        RetailConfig {
            n_items,
            months: 10,
            seed,
            planted: vec![
                ("electronics".into(), "MD".into()),
                ("apparel".into(), "MD".into()),
            ],
            converge_month: 8,
            states: None,
            state_noise: 0.45,
            sell_prob: 0.9,
            n_catalogs: 120,
            late_start_frac: 0.15,
        }
    }

    /// A mail-order variant whose two categories have *different* tight
    /// states (MD vs WI): item subsets genuinely need different
    /// bellwethers, so trees and cubes clearly beat the basic search —
    /// the regime of the paper's simulation study.
    pub fn mail_order_heterogeneous(n_items: usize, seed: u64) -> Self {
        let mut cfg = Self::mail_order(n_items, seed);
        cfg.planted = vec![
            ("electronics".into(), "MD".into()),
            ("apparel".into(), "WI".into()),
        ];
        cfg
    }

    /// The bookstore stand-in: 12 months, five states, no planted
    /// bellwether and uniformly noisy shares — no region should be
    /// clearly distinguishable (Figure 9).
    pub fn book_store(n_items: usize, seed: u64) -> Self {
        RetailConfig {
            n_items,
            months: 12,
            seed,
            planted: Vec::new(),
            converge_month: u32::MAX,
            states: Some(vec!["CA", "TX", "NY", "FL", "IL"]),
            state_noise: 0.6,
            sell_prob: 0.85,
            n_catalogs: 60,
            late_start_frac: 0.1,
        }
    }
}

/// A generated retail dataset: everything the experiment harnesses need.
pub struct RetailDataset {
    /// The star-schema database (fact `orders`, reference `catalogs`).
    pub db: StarDatabase,
    /// Candidate-region space: months × location hierarchy.
    pub space: RegionSpace,
    /// The mail-order cost model `months × zip_areas/100`.
    pub cost: ProductCost,
    /// Item table (id, category, list_price).
    pub items: ItemTable,
    /// Raw relational item table.
    pub item_table: Table,
    /// Item hierarchy over categories (for the bellwether cube).
    pub item_hierarchies: Vec<Hierarchy>,
    /// Names of the categorical attributes feeding the hierarchies.
    pub hierarchy_attrs: Vec<String>,
    /// The regional feature queries.
    pub feature_queries: Vec<FeatureQuery>,
    /// Item space (product of the item hierarchies).
    pub item_space: RegionSpace,
    /// Per-item leaf coordinates in the item space.
    pub item_coords: HashMap<i64, Vec<u32>>,
}

impl RetailDataset {
    /// The bellwether task over this dataset: τ is each item's total profit.
    pub fn task(&self) -> TrainingTask<'_> {
        TrainingTask {
            db: &self.db,
            space: &self.space,
            features: &self.feature_queries,
            target_column: "profit",
            target_func: AggFunc::Sum,
            items: &self.items,
            cost: &self.cost,
        }
    }
}

/// State list under a config.
fn state_list(cfg: &RetailConfig) -> Vec<&'static str> {
    match &cfg.states {
        Some(list) => list.clone(),
        None => US_CENSUS
            .iter()
            .flat_map(|(_, divs)| divs.iter().flat_map(|(_, sts)| sts.iter().copied()))
            .collect(),
    }
}

/// Build the location hierarchy restricted to the configured states.
fn location_hierarchy(cfg: &RetailConfig) -> Hierarchy {
    let wanted = state_list(cfg);
    let mut h = Hierarchy::new("Location", "All");
    for (region, divisions) in US_CENSUS {
        let states_in_region: Vec<&str> = divisions
            .iter()
            .flat_map(|(_, sts)| sts.iter().copied())
            .filter(|s| wanted.contains(s))
            .collect();
        if states_in_region.is_empty() {
            continue;
        }
        let rid = h.add_child(0, *region);
        for (division, states) in *divisions {
            let present: Vec<&str> = states
                .iter()
                .copied()
                .filter(|s| wanted.contains(s))
                .collect();
            if present.is_empty() {
                continue;
            }
            let did = h.add_child(rid, *division);
            for s in present {
                h.add_child(did, s);
            }
        }
    }
    h
}

/// Generate a retail dataset.
pub fn generate_retail(cfg: &RetailConfig) -> RetailDataset {
    let mut rng = Gen::new(cfg.seed);
    let states = state_list(cfg);
    let months = cfg.months as usize;

    // --- geography: state weights (market size) and zip-code factors.
    let mut market_w: HashMap<&str, f64> = HashMap::new();
    let mut zip_w: HashMap<&str, f64> = HashMap::new();
    for &s in &states {
        market_w.insert(s, rng.uniform(0.5, 2.0));
        zip_w.insert(s, rng.uniform(2.0, 8.0));
    }
    // Tight states are kept affordable so the bellwether is cost-effective.
    for (_, tight) in &cfg.planted {
        zip_w.insert(
            states
                .iter()
                .copied()
                .find(|s| s == tight)
                .expect("tight state must be in the state list"),
            rng.uniform(3.5, 5.0),
        );
    }

    // --- items.
    let categories: Vec<String> = if cfg.planted.is_empty() {
        vec!["fiction".into(), "nonfiction".into()]
    } else {
        cfg.planted.iter().map(|(c, _)| c.clone()).collect()
    };
    let tight_of: HashMap<&str, &str> = cfg
        .planted
        .iter()
        .map(|(c, s)| (c.as_str(), s.as_str()))
        .collect();

    let mut item_cat: Vec<usize> = Vec::with_capacity(cfg.n_items);
    let mut driver: Vec<f64> = Vec::with_capacity(cfg.n_items);
    let mut price: Vec<f64> = Vec::with_capacity(cfg.n_items);
    let mut start_month: Vec<u32> = Vec::with_capacity(cfg.n_items);
    for i in 0..cfg.n_items {
        item_cat.push(i % categories.len());
        driver.push(rng.log_normal(4.0, 0.8));
        price.push(rng.uniform(5.0, 120.0));
        start_month.push(if rng.flip(cfg.late_start_frac) {
            2 + rng.below(3) as u32 // starts in month 2..4
        } else {
            1
        });
    }

    // --- monthly shares per item: random over the active months, with a
    // fixed tail after the convergence month when a bellwether is
    // planted (this is what makes the cumulative signal converge).
    let tail_share = 0.08;
    let shares: Vec<Vec<f64>> = (0..cfg.n_items)
        .map(|i| {
            let start = start_month[i] as usize;
            let mut s = vec![0.0; months];
            let converge = cfg.converge_month.min(cfg.months) as usize;
            let (free_end, fixed_mass) = if cfg.planted.is_empty() || converge >= months {
                (months, 0.0)
            } else {
                let fixed_months = months - converge;
                (converge, tail_share * fixed_months as f64)
            };
            // Clamp late starters into the free window so every item has
            // at least one free month to carry its mass.
            let start_idx = (start - 1).min(free_end.saturating_sub(1));
            let mut total = 0.0;
            for slot in s.iter_mut().take(free_end).skip(start_idx) {
                let v = rng.uniform(0.5, 1.5);
                *slot = v;
                total += v;
            }
            for v in s.iter_mut().take(free_end) {
                *v *= (1.0 - fixed_mass) / total;
            }
            for v in s.iter_mut().take(months).skip(free_end) {
                *v = tail_share;
            }
            s
        })
        .collect();

    // --- per-(item, state) multiplicative noise; 1.0 in tight states.
    //
    // With no planted bellwether (bookstore mode) the noise is mostly a
    // *shared* per-item factor with only a small independent per-state
    // wobble: every state then carries nearly the same (imperfect)
    // signal, so no region is statistically distinguishable from the
    // rest — the Figure 9 negative result.
    let u: Vec<Vec<f64>> = (0..cfg.n_items)
        .map(|i| {
            let tight = tight_of
                .get(categories[item_cat[i]].as_str())
                .copied();
            let shared = if cfg.planted.is_empty() {
                (1.0 + rng.normal(0.0, cfg.state_noise)).max(0.05)
            } else {
                1.0
            };
            let indep_sigma = if cfg.planted.is_empty() {
                0.05 * cfg.state_noise
            } else {
                cfg.state_noise
            };
            states
                .iter()
                .map(|&s| {
                    if Some(s) == tight {
                        1.0
                    } else {
                        (shared * (1.0 + rng.normal(0.0, indep_sigma))).max(0.05)
                    }
                })
                .collect()
        })
        .collect();

    // --- catalogs reference table.
    let catalog_pages: Vec<f64> = (0..cfg.n_catalogs)
        .map(|_| rng.uniform(8.0, 64.0).round())
        .collect();
    // One catalog per (item, month), shared across states.
    let item_month_catalog: Vec<Vec<i64>> = (0..cfg.n_items)
        .map(|_| (0..months).map(|_| rng.below(cfg.n_catalogs) as i64).collect())
        .collect();

    // --- fact table.
    let fact_schema = Schema::from_pairs(&[
        ("item", DataType::Int),
        ("month", DataType::Int),
        ("state", DataType::Str),
        ("profit", DataType::Float),
        ("quantity", DataType::Int),
        ("catalog", DataType::Int),
    ])
    .expect("fact schema");
    let mut fact = TableBuilder::new(fact_schema);
    for i in 0..cfg.n_items {
        let tight = tight_of.get(categories[item_cat[i]].as_str()).copied();
        for m in 1..=months {
            let share = shares[i][m - 1];
            if share <= 0.0 {
                continue;
            }
            for (si, &s) in states.iter().enumerate() {
                let is_tight = Some(s) == tight;
                if !is_tight && !rng.flip(cfg.sell_prob) {
                    continue;
                }
                // Tight states carry the exact signal; everything else
                // gets a little per-cell jitter on top of u.
                let jitter = if is_tight {
                    1.0
                } else {
                    1.0 + rng.normal(0.0, 0.02)
                };
                let profit =
                    driver[i] * market_w[s] * u[i][si] * share * jitter;
                let quantity = (profit / price[i]).ceil().max(1.0) as i64;
                fact.push_row(vec![
                    Value::Int(i as i64),
                    Value::Int(m as i64),
                    Value::from(s),
                    Value::Float(profit),
                    Value::Int(quantity),
                    Value::Int(item_month_catalog[i][m - 1]),
                ])
                .expect("fact row");
            }
        }
    }
    let fact = fact.finish().expect("fact table");

    let catalogs = Table::new(
        Schema::from_pairs(&[("catalog", DataType::Int), ("pages", DataType::Float)])
            .expect("catalog schema"),
        vec![
            Column::from_ints((0..cfg.n_catalogs as i64).collect()),
            Column::from_floats(catalog_pages),
        ],
    )
    .expect("catalog table");

    let mut refs = HashMap::new();
    refs.insert("catalogs".to_string(), (catalogs, "catalog".to_string()));
    let db = StarDatabase {
        fact,
        refs,
        item_col: "item".into(),
        dim_cols: vec!["month".into(), "state".into()],
    };

    // --- region space and cost model.
    let location = location_hierarchy(cfg);
    let mut loc_weights: HashMap<u32, f64> = HashMap::new();
    // zip weight of internal nodes = sum of descendant states.
    for node in 0..location.num_nodes() {
        let mut total = 0.0;
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if location.is_leaf(n) {
                total += zip_w[location.node(n).label.as_str()];
            } else {
                stack.extend_from_slice(location.children(n));
            }
        }
        loc_weights.insert(node, total);
    }
    let mut month_weights: HashMap<u32, f64> = HashMap::new();
    for t in 0..cfg.months {
        month_weights.insert(t, (t + 1) as f64);
    }
    let cost = ProductCost::new(vec![month_weights, loc_weights]);
    let space = RegionSpace::new(vec![
        Dimension::Interval {
            name: "Time".into(),
            max_t: cfg.months,
        },
        Dimension::Hierarchy(location),
    ]);

    // --- item table and hierarchies.
    let item_schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("category", DataType::Str),
        ("list_price", DataType::Float),
    ])
    .expect("item schema");
    let item_table = Table::new(
        item_schema,
        vec![
            Column::from_ints((0..cfg.n_items as i64).collect()),
            Column::from_strs(
                &item_cat
                    .iter()
                    .map(|&c| categories[c].as_str())
                    .collect::<Vec<_>>(),
            ),
            Column::from_floats(price.clone()),
        ],
    )
    .expect("item table");
    let items = ItemTable::from_table(&item_table, "id", &["list_price"], &["category"])
        .expect("item table parse");

    let cat_hierarchy = Hierarchy::flat(
        "Category",
        "Any",
        &categories.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let item_space = RegionSpace::new(vec![Dimension::Hierarchy(cat_hierarchy.clone())]);
    let item_coords = items
        .leaf_coords(std::slice::from_ref(&cat_hierarchy), &["category"])
        .expect("item coords");

    let feature_queries = vec![
        FeatureQuery::FactAgg {
            name: "regional_profit".into(),
            column: "profit".into(),
            func: AggFunc::Sum,
        },
        FeatureQuery::FactAgg {
            name: "regional_orders".into(),
            column: "profit".into(),
            func: AggFunc::Count,
        },
        FeatureQuery::JoinAgg {
            name: "max_catalog_pages".into(),
            table: "catalogs".into(),
            fk: "catalog".into(),
            column: "pages".into(),
            func: AggFunc::Max,
        },
        FeatureQuery::DistinctJoinAgg {
            name: "catalog_pages".into(),
            table: "catalogs".into(),
            fk: "catalog".into(),
            column: "pages".into(),
            func: AggFunc::Sum,
        },
    ];

    RetailDataset {
        db,
        space,
        cost,
        items,
        item_table,
        item_hierarchies: vec![cat_hierarchy],
        hierarchy_attrs: vec!["category".into()],
        feature_queries,
        item_space,
        item_coords,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_core::features::global_target;

    fn small_mail_order() -> RetailDataset {
        let mut cfg = RetailConfig::mail_order(60, 7);
        cfg.months = 6;
        cfg.converge_month = 4;
        cfg.states = Some(vec!["MD", "WI", "CA", "TX", "NY", "IL", "FL", "OH"]);
        generate_retail(&cfg)
    }

    #[test]
    fn schema_and_shapes() {
        let d = small_mail_order();
        assert!(d.db.fact.num_rows() > 500);
        assert_eq!(d.items.len(), 60);
        assert_eq!(d.space.arity(), 2);
        // 6 months × (8 states + internal nodes)
        assert!(d.space.num_regions() >= 6 * 9);
        assert_eq!(d.feature_queries.len(), 4);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small_mail_order();
        let b = small_mail_order();
        assert_eq!(a.db.fact.num_rows(), b.db.fact.num_rows());
        assert_eq!(
            a.db.fact.value(100, "profit").unwrap(),
            b.db.fact.value(100, "profit").unwrap()
        );
    }

    #[test]
    fn tight_state_cumulative_tracks_target() {
        // The planted invariant: for electronics items, cumulative MD
        // profit through the convergence month is proportional to the
        // driver — and hence the target is ~linear in it.
        let d = small_mail_order();
        let targets = global_target(&d.db, "profit", AggFunc::Sum).unwrap();
        assert!(targets.len() >= 59);
        for &t in targets.values() {
            assert!(t > 0.0);
        }
    }

    #[test]
    fn costs_are_monotone_and_product_shaped() {
        use bellwether_cube::CostModel;
        let d = small_mail_order();
        let all = d.space.all_regions();
        for a in &all {
            for b in &all {
                if d.space.contains(a, b) {
                    assert!(d.cost.cost(&d.space, a) >= d.cost.cost(&d.space, b) - 1e-9);
                }
            }
        }
    }

    #[test]
    fn bookstore_has_five_states() {
        let mut cfg = RetailConfig::book_store(40, 3);
        cfg.months = 4;
        let d = generate_retail(&cfg);
        // 4 months × (5 states + division/region/All internals)
        let leaves = match &d.space.dims()[1] {
            Dimension::Hierarchy(h) => h.leaves().len(),
            _ => panic!(),
        };
        assert_eq!(leaves, 5);
        assert_eq!(d.item_coords.len(), 40);
    }

    #[test]
    fn late_starters_have_no_early_rows() {
        let d = small_mail_order();
        // Some items must be missing from month 1 (late start).
        let month_col = d.db.fact.column_by_name("month").unwrap();
        let item_col = d.db.fact.column_by_name("item").unwrap();
        let mut first_month: HashMap<i64, i64> = HashMap::new();
        for r in 0..d.db.fact.num_rows() {
            let m = month_col.value(r).as_int().unwrap();
            let i = item_col.value(r).as_int().unwrap();
            let e = first_month.entry(i).or_insert(m);
            *e = (*e).min(m);
        }
        assert!(first_month.values().any(|&m| m > 1));
    }
}
