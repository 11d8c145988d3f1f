//! Dataset preparation shared by the retail figures (7, 8, 9).

use bellwether_core::{build_cube_input, build_memory_source, global_target};
use bellwether_cube::{cube_pass, CostModel, CubeInput, NoopRecorder, Parallelism, RegionId};
use bellwether_datagen::{generate_retail, RetailConfig, RetailDataset};
use bellwether_storage::{MemorySource, TrainingSource};
use bellwether_table::ops::AggFunc;
use std::collections::HashMap;

/// A retail dataset with its entire training data materialised over
/// *all* candidate regions (budget filtering happens per experiment
/// point, so one CUBE pass serves the whole sweep).
pub struct PreparedRetail {
    /// The generated dataset.
    pub data: RetailDataset,
    /// Per-item targets (total profit over the full period and area).
    pub targets: HashMap<i64, f64>,
    /// The compiled CUBE input (reused by the sampling baseline).
    pub cube_input: CubeInput,
    /// Entire training data over all regions, in region scan order.
    pub source: MemorySource,
    /// Region ids in scan order.
    pub regions: Vec<RegionId>,
}

/// Generate + label + CUBE a retail dataset.
pub fn prepare_retail(cfg: &RetailConfig) -> PreparedRetail {
    let data = generate_retail(cfg);
    let targets =
        global_target(&data.db, "profit", AggFunc::Sum).expect("target query");
    let cube_input = build_cube_input(&data.db, &data.space, &data.feature_queries)
        .expect("cube input");
    let cube = cube_pass(&data.space, &cube_input, Parallelism::default(), &NoopRecorder)
        .expect("CUBE pass");
    let regions = data.space.all_regions();
    let source = build_memory_source(&cube, &regions, &data.items, &targets);
    PreparedRetail {
        data,
        targets,
        cube_input,
        source,
        regions,
    }
}

/// A new in-memory source containing only the regions affordable under
/// `budget` (for the item-centric methods, which search every stored
/// region).
pub fn budget_filtered_source(prep: &PreparedRetail, budget: f64) -> MemorySource {
    let blocks: Vec<_> = (0..prep.source.num_regions())
        .filter(|&i| {
            let region = RegionId(prep.source.region_coords(i).to_vec());
            prep.data.cost.cost(&prep.data.space, &region) <= budget
        })
        .map(|i| prep.source.blocks()[i].clone())
        .collect();
    MemorySource::from_shared(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_small_retail() {
        let mut cfg = RetailConfig::mail_order(40, 5);
        cfg.months = 4;
        cfg.converge_month = 3;
        cfg.states = Some(vec!["MD", "WI", "CA", "NY"]);
        let prep = prepare_retail(&cfg);
        assert_eq!(prep.source.num_regions() as u64, prep.data.space.num_regions());
        assert_eq!(prep.targets.len(), 40);
        let filtered = budget_filtered_source(&prep, 10.0);
        assert!(filtered.num_regions() < prep.source.num_regions());
        assert!(filtered.num_regions() > 0);
    }
}
