//! The §7.4 scalability generator.
//!
//! "The item table contains 2,500 randomly generated items, and has
//! three item hierarchies and several numeric attributes. … The fact
//! table has two tree-structured hierarchical dimensions. … We generate
//! one transaction for each item in each region. As a result, each
//! region has 2,500 transactions, and the size of the fact table is the
//! total number of regions times 2,500. The target values are generated
//! based on four predefined bellwether regions with small errors, and
//! regional features are randomly generated."
//!
//! The entire training data is emitted region by region, so multi-
//! million-example datasets stream straight to a
//! [`bellwether_storage::TrainingWriter`] without living in memory.

use crate::rng::Gen;
use bellwether_core::items::ItemTable;
use bellwether_cube::{Dimension, Hierarchy, RegionSpace};
use bellwether_storage::{
    even_shard_plan, MemorySource, RegionBlock, ShardManifest, ShardedWriter, TrainingWriter,
};
use bellwether_table::{Column, DataType, Schema, Table};
use std::collections::HashMap;
use std::path::Path;

/// Scalability-workload parameters.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Items (paper: 2,500).
    pub n_items: usize,
    /// Leaves of each of the two fact-table dimensions; the region
    /// count is `(leaves+1)²` (flat hierarchies), so this controls the
    /// entire-training-data size: `regions × n_items` examples.
    pub fact_dim_leaves: [usize; 2],
    /// Leaves of each of the three item hierarchies.
    pub item_hierarchy_leaves: [usize; 3],
    /// Extra numeric item attributes (the RF tree's split features).
    pub n_numeric_attrs: usize,
    /// Regional features per example (paper-style: 4).
    pub regional_features: usize,
    /// Noise of the planted bellwether regions.
    pub bellwether_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ScaleConfig {
    /// Paper-shaped defaults sized to roughly `target_examples` total
    /// training examples.
    pub fn sized_for(target_examples: usize, seed: u64) -> Self {
        let n_items = 2500;
        let regions = target_examples.div_ceil(n_items).max(4);
        // (l+1)² ≈ regions
        let l = ((regions as f64).sqrt().ceil() as usize).max(2) - 1;
        ScaleConfig {
            n_items,
            fact_dim_leaves: [l, l],
            item_hierarchy_leaves: [4, 4, 4],
            n_numeric_attrs: 4,
            regional_features: 4,
            bellwether_noise: 0.05,
            seed,
        }
    }
}

/// Static description of the generated workload (no blocks yet).
pub struct ScaleWorkload {
    /// The candidate-region space.
    pub region_space: RegionSpace,
    /// All regions in scan order.
    pub regions: Vec<bellwether_cube::RegionId>,
    /// The item table.
    pub items: ItemTable,
    /// Item space over the three hierarchies.
    pub item_space: RegionSpace,
    /// Per-item leaf coordinates.
    pub item_coords: HashMap<i64, Vec<u32>>,
    /// Per-item targets.
    pub targets: Vec<f64>,
    /// Scan indices of the four planted bellwether regions.
    pub planted_regions: Vec<usize>,
    cfg: ScaleConfig,
    /// β of the planted linear relation (length 1 + k).
    beta: Vec<f64>,
}

fn flat_hierarchy(name: &str, prefix: &str, leaves: usize) -> Hierarchy {
    let labels: Vec<String> = (0..leaves).map(|i| format!("{prefix}{i}")).collect();
    Hierarchy::flat(
        name,
        &format!("{prefix}_all"),
        &labels.iter().map(String::as_str).collect::<Vec<_>>(),
    )
}

/// Build the static workload (items, spaces, targets, planted regions).
pub fn build_scale_workload(cfg: &ScaleConfig) -> ScaleWorkload {
    let mut rng = Gen::new(cfg.seed);

    let region_space = RegionSpace::new(vec![
        Dimension::Hierarchy(flat_hierarchy("D1", "a", cfg.fact_dim_leaves[0])),
        Dimension::Hierarchy(flat_hierarchy("D2", "b", cfg.fact_dim_leaves[1])),
    ]);
    let regions = region_space.all_regions();

    // Four planted bellwether regions, spread across the scan order.
    let planted_regions: Vec<usize> = (0..4)
        .map(|i| (regions.len() * (2 * i + 1)) / 8)
        .collect();

    // Items: hierarchies + numeric attributes.
    let hier_labels: Vec<Vec<String>> = cfg
        .item_hierarchy_leaves
        .iter()
        .map(|&l| (0..l).map(|i| format!("v{i}")).collect())
        .collect();
    let mut columns: Vec<Column> =
        vec![Column::from_ints((0..cfg.n_items as i64).collect())];
    let mut fields: Vec<(String, DataType)> = vec![("id".into(), DataType::Int)];
    let mut cat_values: Vec<Vec<String>> = Vec::new();
    for (h, labels) in hier_labels.iter().enumerate() {
        let vals: Vec<String> = (0..cfg.n_items)
            .map(|_| labels[rng.below(labels.len())].clone())
            .collect();
        fields.push((format!("h{h}"), DataType::Str));
        columns.push(Column::from_strs(
            &vals.iter().map(String::as_str).collect::<Vec<_>>(),
        ));
        cat_values.push(vals);
    }
    for a in 0..cfg.n_numeric_attrs {
        fields.push((format!("n{a}"), DataType::Float));
        columns.push(Column::from_floats(
            (0..cfg.n_items).map(|_| rng.uniform(0.0, 100.0)).collect(),
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
    let cat_names: Vec<String> = (0..3).map(|h| format!("h{h}")).collect();
    let items = ItemTable::from_table(
        &table,
        "id",
        &numeric_names.iter().map(String::as_str).collect::<Vec<_>>(),
        &cat_names.iter().map(String::as_str).collect::<Vec<_>>(),
    )
    .expect("items");

    let hierarchies: Vec<Hierarchy> = (0..3)
        .map(|h| {
            let labels: Vec<&str> = hier_labels[h].iter().map(String::as_str).collect();
            Hierarchy::flat(format!("h{h}"), &format!("any{h}"), &labels)
        })
        .collect();
    let item_coords = items
        .leaf_coords(
            &hierarchies,
            &cat_names.iter().map(String::as_str).collect::<Vec<_>>(),
        )
        .expect("coords");
    let item_space = RegionSpace::new(
        hierarchies.into_iter().map(Dimension::Hierarchy).collect(),
    );

    // Planted relation: y = β·[1, x…] exactly in the planted regions.
    // The last coefficient stays away from zero because region blocks
    // solve for the last feature by dividing by it.
    let k = cfg.regional_features;
    let mut beta: Vec<f64> = (0..=k).map(|_| rng.uniform(-3.0, 3.0)).collect();
    while beta[k].abs() < 0.5 {
        beta[k] = rng.uniform(-3.0, 3.0);
    }
    let targets: Vec<f64> = (0..cfg.n_items).map(|_| rng.uniform(-50.0, 50.0)).collect();

    ScaleWorkload {
        region_space,
        regions,
        items,
        item_space,
        item_coords,
        targets,
        planted_regions,
        cfg: cfg.clone(),
        beta,
    }
}

impl ScaleWorkload {
    /// Feature arity of the emitted blocks.
    pub fn feature_arity(&self) -> usize {
        1 + self.cfg.regional_features
    }

    /// Total examples the workload will emit.
    pub fn total_examples(&self) -> usize {
        self.regions.len() * self.cfg.n_items
    }

    /// Per-item targets as a map (for harness use).
    pub fn target_map(&self) -> HashMap<i64, f64> {
        self.targets
            .iter()
            .enumerate()
            .map(|(i, &t)| (i as i64, t))
            .collect()
    }

    /// Generate the block of one region. Blocks are generated from a
    /// per-region seed, so streaming and in-memory materialisation
    /// produce identical data.
    pub fn region_block(&self, region_idx: usize) -> RegionBlock {
        let cfg = &self.cfg;
        let k = cfg.regional_features;
        let mut rng = Gen::new(cfg.seed ^ (0x5eed_0000 + region_idx as u64));
        let planted = self.planted_regions.contains(&region_idx);
        let mut block =
            RegionBlock::new(self.regions[region_idx].0.clone(), (1 + k) as u32);
        let mut x = vec![0.0; 1 + k];
        for i in 0..cfg.n_items {
            x[0] = 1.0;
            for slot in x.iter_mut().take(k).skip(1) {
                *slot = rng.uniform(0.0, 10.0);
            }
            if planted {
                // Solve the last feature so that β·x = target (+ noise).
                let partial: f64 = self.beta[..k]
                    .iter()
                    .zip(x.iter().take(k))
                    .map(|(b, v)| b * v)
                    .sum();
                let noise = rng.normal(0.0, cfg.bellwether_noise);
                let bk = self.beta[k];
                x[k] = (self.targets[i] + noise - partial) / bk;
            } else {
                x[k] = rng.uniform(0.0, 10.0);
            }
            block.push(i as i64, &x, self.targets[i]);
        }
        block
    }

    /// Materialise the whole training data in memory (moderate sizes).
    pub fn memory_source(&self) -> MemorySource {
        MemorySource::new(
            (0..self.regions.len())
                .map(|r| self.region_block(r))
                .collect(),
        )
    }

    /// Stream the training data to disk, block by block.
    pub fn write_to_disk(&self, path: &Path) -> std::io::Result<()> {
        let mut writer = TrainingWriter::create(
            path,
            self.feature_arity() as u32,
            self.region_space.arity() as u32,
        )?;
        for r in 0..self.regions.len() {
            writer.write_region(&self.region_block(r))?;
        }
        writer.finish()
    }

    /// Stream the training data into a region-partitioned sharded
    /// layout under `dir`: `n_shards` block files plus a checksummed
    /// manifest ([`bellwether_storage::MANIFEST_NAME`]). Regions are
    /// split evenly and contiguously in scan order, so a
    /// [`bellwether_storage::ShardedSource`] over the result reads
    /// region `r` from exactly the same bytes `write_to_disk` would
    /// have produced for it — one region block at a time, never holding
    /// a shard in memory.
    pub fn write_sharded(
        &self,
        dir: &Path,
        n_shards: usize,
    ) -> std::io::Result<ShardManifest> {
        let plan = even_shard_plan(self.regions.len(), n_shards);
        let mut writer = ShardedWriter::create(
            dir,
            self.feature_arity() as u32,
            self.region_space.arity() as u32,
            plan,
        )?;
        for r in 0..self.regions.len() {
            writer.write_region(&self.region_block(r))?;
        }
        writer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_storage::{DiskSource, TrainingSource};

    fn small() -> ScaleConfig {
        ScaleConfig {
            n_items: 50,
            fact_dim_leaves: [3, 3],
            item_hierarchy_leaves: [2, 2, 2],
            n_numeric_attrs: 2,
            regional_features: 3,
            bellwether_noise: 0.01,
            seed: 77,
        }
    }

    #[test]
    fn shapes_and_counts() {
        let w = build_scale_workload(&small());
        assert_eq!(w.regions.len(), 16); // (3+1)²
        assert_eq!(w.total_examples(), 16 * 50);
        assert_eq!(w.feature_arity(), 4);
        assert_eq!(w.planted_regions.len(), 4);
        assert_eq!(w.items.len(), 50);
        assert_eq!(w.item_space.arity(), 3);
    }

    #[test]
    fn planted_regions_fit_well_others_do_not() {
        use bellwether_linreg::{EvalScratch, RegressionData};
        let w = build_scale_workload(&small());
        let errs: Vec<f64> = (0..w.regions.len())
            .map(|r| {
                let b = w.region_block(r);
                let mut d = RegressionData::new(4);
                d.extend_from_cols(b.cols(), &b.targets);
                EvalScratch::new().training_value(&d).unwrap()
            })
            .collect();
        for &p in &w.planted_regions {
            assert!(errs[p] < 0.1, "planted region {p} err {}", errs[p]);
        }
        let unplanted_min = errs
            .iter()
            .enumerate()
            .filter(|(i, _)| !w.planted_regions.contains(i))
            .map(|(_, &e)| e)
            .fold(f64::INFINITY, f64::min);
        assert!(unplanted_min > 1.0, "unplanted min err {unplanted_min}");
    }

    #[test]
    fn disk_and_memory_agree() {
        let w = build_scale_workload(&small());
        let mem = w.memory_source();
        let path = std::env::temp_dir().join("bw_scale_rt.bwtd");
        w.write_to_disk(&path).unwrap();
        let disk = DiskSource::open(&path).unwrap();
        assert_eq!(disk.num_regions(), mem.num_regions());
        for r in [0, 5, 15] {
            assert_eq!(disk.read_region(r).unwrap(), mem.read_region(r).unwrap());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_and_flat_layouts_agree_region_by_region() {
        use bellwether_storage::ShardedSource;
        let w = build_scale_workload(&small());
        let mem = w.memory_source();
        for shards in [1, 3, 5] {
            let dir = std::env::temp_dir().join(format!("bw_scale_sharded_{shards}"));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            let manifest = w.write_sharded(&dir, shards).unwrap();
            assert_eq!(manifest.shards.len(), shards);
            assert_eq!(manifest.total_regions(), w.regions.len() as u64);
            assert_eq!(manifest.total_examples(), w.total_examples() as u64);
            let src = ShardedSource::open(&dir).unwrap();
            assert_eq!(src.num_regions(), mem.num_regions());
            for r in 0..src.num_regions() {
                assert_eq!(src.read_region(r).unwrap(), mem.read_region(r).unwrap());
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn sized_for_hits_target() {
        let cfg = ScaleConfig::sized_for(100_000, 1);
        let w = build_scale_workload(&cfg);
        let total = w.total_examples();
        assert!(
            (100_000..=160_000).contains(&total),
            "sized {total} for 100k"
        );
    }

    #[test]
    fn beta_last_coefficient_nonzero() {
        // region_block divides by beta[k]; the generator must keep it
        // away from zero or planted regions degenerate.
        let w = build_scale_workload(&small());
        assert!(w.beta[w.cfg.regional_features].abs() > 1e-6);
    }
}
