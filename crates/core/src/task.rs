//! The bellwether task as data (§3) and the one cold-path entry (§4.2):
//! τ, the CUBE input, one CUBE pass, and one training block per region
//! into a [`Sink`]. The task is data, not a language: no parser, no syntax.

use crate::error::Result;
use crate::features::{build_cube_input, global_target, FeatureQuery, StarDatabase};
use crate::items::ItemTable;
use crate::training::{columns_block, region_block_lane, target_lane};
use bellwether_cube::parallel::{fork_join, split_point};
use bellwether_cube::{cube_pass, CostModel, CubeResult, Parallelism, RegionId, RegionSpace};
use bellwether_obs::Recorder;
use bellwether_storage::{even_shard_plan, MemorySource, ShardManifest, ShardedWriter};
use bellwether_table::{ops::AggFunc, ColumnData};
use std::path::Path;

/// A bellwether task: the paper's §3 problem as data.
pub struct TrainingTask<'a> {
    /// The historical star database.
    pub db: &'a StarDatabase,
    /// The candidate regions' space.
    pub space: &'a RegionSpace,
    /// One regional feature per query.
    pub features: &'a [FeatureQuery],
    /// τ: the global `target_func` of this fact column, per item.
    pub target_column: &'a str,
    /// τ's aggregate.
    pub target_func: AggFunc,
    /// The items and their static features.
    pub items: &'a ItemTable,
    /// The cost of a region's data.
    pub cost: &'a dyn CostModel,
}

impl TrainingTask<'_> {
    /// The regions whose cost is within `budget`, in scan order;
    /// `f64::INFINITY` gives every region.
    pub fn regions_within(&self, budget: f64) -> Vec<RegionId> {
        let mut regions = self.space.all_regions();
        regions.retain(|r| self.cost.cost(self.space, r) <= budget);
        regions
    }

    /// The entire training data of `regions`, into `sink` in `regions`
    /// order, from one CUBE pass on `par`'s workers recording into `rec`.
    pub fn materialize<S: Sink>(
        &self,
        regions: &[RegionId],
        sink: S,
        par: Parallelism,
        rec: &dyn Recorder,
    ) -> Result<S::Output> {
        let targets = global_target(self.db, self.target_column, self.target_func)?;
        let input = build_cube_input(self.db, self.space, self.features)?;
        let cube = cube_pass(self.space, &input, par, rec)?;
        let tau = target_lane(self.items, &targets);
        sink.write(self.space, &cube, regions, self.items, &tau, par)
    }
}

/// Where [`TrainingTask::materialize`] puts the blocks.
pub trait Sink {
    /// What the sink holds once every block is in it.
    type Output;

    /// One block per region of `regions`, in order, each built from
    /// `cube` by [`region_block_lane`] with τ as `tau`'s lane over `items`.
    fn write(
        self,
        space: &RegionSpace,
        cube: &CubeResult,
        regions: &[RegionId],
        items: &ItemTable,
        tau: &ColumnData<f64>,
        par: Parallelism,
    ) -> Result<Self::Output>;
}

/// Into a [`MemorySource`], assembled across `par`'s workers.
pub struct Memory;

impl Sink for Memory {
    type Output = MemorySource;

    fn write(
        self,
        _: &RegionSpace,
        cube: &CubeResult,
        regions: &[RegionId],
        items: &ItemTable,
        tau: &ColumnData<f64>,
        par: Parallelism,
    ) -> Result<MemorySource> {
        Ok(memory_source(cube, regions, items, tau, par))
    }
}

/// [`Memory`]'s assembly: each worker builds one contiguous range of the
/// regions, and the blocks come back in `regions` (scan) order.
pub(crate) fn memory_source(
    cube: &CubeResult,
    regions: &[RegionId],
    items: &ItemTable,
    tau: &ColumnData<f64>,
    par: Parallelism,
) -> MemorySource {
    let threads = par.threads_for(regions.len());
    let cut = |w| split_point(regions.len() as u64, w, threads) as usize;
    let blocks = fork_join(threads, |w| {
        regions[cut(w)..cut(w + 1)]
            .iter()
            .map(|r| region_block_lane(cube, r, items, tau))
            .collect::<Vec<_>>()
    });
    MemorySource::new(blocks.into_iter().flatten().collect())
}

/// Into a sharded layout of `shards` files ([`even_shard_plan`]) under
/// `dir`, one block built and written at a time; gives back its manifest.
pub struct Layout<'p> {
    /// The layout's directory (created if absent).
    pub dir: &'p Path,
    /// Its number of shard files.
    pub shards: usize,
}

impl Sink for Layout<'_> {
    type Output = ShardManifest;

    fn write(
        self,
        space: &RegionSpace,
        cube: &CubeResult,
        regions: &[RegionId],
        items: &ItemTable,
        tau: &ColumnData<f64>,
        _: Parallelism,
    ) -> Result<ShardManifest> {
        // An empty block's arity: only the block assembly spells the rule.
        let p = columns_block(Vec::new(), None, cube.measure_names.len(), items, |_, _| None).p;
        let plan = even_shard_plan(regions.len(), self.shards);
        let mut writer = ShardedWriter::create(self.dir, p, space.arity() as u32, plan)?;
        for region in regions {
            writer.write_region(&region_block_lane(cube, region, items, tau))?;
        }
        Ok(writer.finish()?)
    }
}
