//! Dataset preparation shared by the retail figures (7, 8, 9).

use bellwether_core::{build_cube_input, global_target, Memory};
use bellwether_cube::{CubeInput, NoopRecorder, Parallelism, RegionId};
use bellwether_datagen::{generate_retail, RetailConfig, RetailDataset};
use bellwether_storage::MemorySource;
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
    /// The compiled CUBE input, for the sampling baseline.
    pub cube_input: CubeInput,
    /// Entire training data over all regions, in region scan order.
    pub source: MemorySource,
    /// Region ids in scan order.
    pub regions: Vec<RegionId>,
}

/// Generate + label + CUBE a retail dataset.
pub fn prepare_retail(cfg: &RetailConfig) -> PreparedRetail {
    let data = generate_retail(cfg);
    let (task, par) = (data.task(), Parallelism::default());
    let regions = task.regions_within(f64::INFINITY);
    let source = task.materialize(&regions, Memory, par, &NoopRecorder).expect("training data");
    let targets = global_target(&data.db, "profit", AggFunc::Sum).expect("target query");
    let cube_input = build_cube_input(&data.db, &data.space, &data.feature_queries)
        .expect("cube input");
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
    // The affordable regions are a subsequence of `prep.regions`.
    let mut affordable = prep.data.task().regions_within(budget).into_iter().peekable();
    let blocks = prep.regions.iter().zip(prep.source.blocks());
    let kept = blocks.filter(|(r, _)| affordable.next_if_eq(r).is_some());
    MemorySource::from_shared(kept.map(|(_, block)| block.clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_storage::TrainingSource;

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
