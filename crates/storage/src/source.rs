//! The `TrainingSource` abstraction: the *entire training data* (the
//! training sets of all feasible regions) behind one trait, with an
//! in-memory implementation for quality experiments and an on-disk one
//! (see [`crate::reader`]) for the efficiency experiments.

use crate::block::RegionBlock;
use crate::metrics::IoStats;
use bellwether_obs::MetricsSnapshot;
use std::io;
use std::sync::Arc;

/// A store of per-region training sets that the scan algorithms read.
///
/// Region order is fixed at construction; "one scan over the entire
/// training data" = `read_region(0..num_regions())` in order. Every read
/// is counted, and [`TrainingSource::snapshot`] reads the counts, so
/// tests can verify the paper's scan-count lemmas.
pub trait TrainingSource: Send + Sync {
    /// Number of stored regions.
    fn num_regions(&self) -> usize;

    /// Feature arity shared by all regions.
    fn feature_arity(&self) -> usize;

    /// Coordinates of region `idx`.
    fn region_coords(&self, idx: usize) -> &[u32];

    /// Read (and account) the training set of region `idx`.
    ///
    /// Returns a shared handle so sources that already hold decoded
    /// blocks (the in-memory source, the decoded-block cache) can serve
    /// reads as a refcount bump instead of copying row data; `Arc<..>`
    /// derefs to [`RegionBlock`], so call sites read it like a plain
    /// block.
    fn read_region(&self, idx: usize) -> io::Result<Arc<RegionBlock>>;

    /// Point-in-time copy of this source's counters, and of every layer
    /// it wraps, addressed by the canonical names in
    /// `bellwether_obs::names` — the one way to read scan counts. Each
    /// name appears once.
    fn snapshot(&self) -> MetricsSnapshot;

    /// Count one block of this source's that failed validation above it:
    /// a `FaultySource` serving injected corruption calls this, so the
    /// rot lands under `storage/corrupt_blocks` exactly as a real rotten
    /// block read here would. Wrappers forward it to their inner source.
    fn record_corrupt_block(&self);

    /// Index of the region with the given coordinates, if stored.
    fn find_region(&self, coords: &[u32]) -> Option<usize> {
        (0..self.num_regions()).find(|&i| self.region_coords(i) == coords)
    }

    /// Total example count across regions (reads nothing if the
    /// implementation caches it; the default scans).
    fn total_examples(&self) -> io::Result<u64> {
        let mut total = 0;
        for i in 0..self.num_regions() {
            total += self.read_region(i)?.n() as u64;
        }
        Ok(total)
    }

    /// Global start index of each contiguous shard of the region order,
    /// if this source is shard-partitioned (`None` for flat sources).
    /// When present: non-empty, `starts[0] == 0`, strictly ascending
    /// entries below `num_regions()`. The scan engine aligns its
    /// two-level merge to these boundaries so per-shard accumulators
    /// merge in ascending shard order — wrappers must forward this so a
    /// cached/faulty/retrying sharded source still schedules shard-wise.
    fn shard_starts(&self) -> Option<Vec<usize>> {
        None
    }
}

/// In-memory training source. Reads are logical (shared handles to the
/// stored blocks — no row data is copied) but still counted, so
/// algorithm scan counts are comparable with the disk source.
#[derive(Debug)]
pub struct MemorySource {
    blocks: Vec<Arc<RegionBlock>>,
    p: usize,
    stats: IoStats,
}

impl MemorySource {
    /// Wrap pre-built region blocks (all must share one feature arity).
    pub fn new(blocks: Vec<RegionBlock>) -> Self {
        MemorySource::from_shared(blocks.into_iter().map(Arc::new).collect())
    }

    /// Wrap already-shared region blocks without re-allocating them —
    /// the zero-copy path for sources derived from another source's
    /// blocks (e.g. budget-filtered bench subsets).
    pub fn from_shared(blocks: Vec<Arc<RegionBlock>>) -> Self {
        let p = blocks.first().map_or(0, |b| b.p as usize);
        for b in &blocks {
            assert_eq!(b.p as usize, p, "inconsistent feature arity");
        }
        MemorySource {
            blocks,
            p,
            stats: IoStats::default(),
        }
    }

    /// Direct (uncounted) access for construction-time bookkeeping.
    pub fn blocks(&self) -> &[Arc<RegionBlock>] {
        &self.blocks
    }
}

impl TrainingSource for MemorySource {
    fn num_regions(&self) -> usize {
        self.blocks.len()
    }

    fn feature_arity(&self) -> usize {
        self.p
    }

    fn region_coords(&self, idx: usize) -> &[u32] {
        &self.blocks[idx].region
    }

    fn read_region(&self, idx: usize) -> io::Result<Arc<RegionBlock>> {
        let b = Arc::clone(&self.blocks[idx]);
        self.stats
            .record_region_read(b.encoded_len() as u64, b.n() as u64);
        Ok(b)
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.stats.snapshot()
    }

    fn record_corrupt_block(&self) {
        self.stats.record_corrupt_block();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks() -> Vec<RegionBlock> {
        let mut a = RegionBlock::new(vec![0, 0], 2);
        a.push(1, &[1.0, 2.0], 3.0);
        let mut b = RegionBlock::new(vec![0, 1], 2);
        b.push(1, &[4.0, 5.0], 6.0);
        b.push(2, &[7.0, 8.0], 9.0);
        vec![a, b]
    }

    #[test]
    fn memory_source_reads_and_counts() {
        let src = MemorySource::new(blocks());
        assert_eq!(src.num_regions(), 2);
        assert_eq!(src.feature_arity(), 2);
        let b = src.read_region(1).unwrap();
        assert_eq!(b.n(), 2);
        assert_eq!(src.snapshot().regions_read(), 1);
        assert_eq!(src.snapshot().examples_read(), 2);
    }

    #[test]
    fn find_region_by_coords() {
        let src = MemorySource::new(blocks());
        assert_eq!(src.find_region(&[0, 1]), Some(1));
        assert_eq!(src.find_region(&[9, 9]), None);
    }

    #[test]
    fn total_examples_scans() {
        let src = MemorySource::new(blocks());
        assert_eq!(src.total_examples().unwrap(), 3);
        assert_eq!(src.snapshot().regions_read(), 2);
    }

    #[test]
    #[should_panic(expected = "inconsistent feature arity")]
    fn arity_mismatch_rejected() {
        let mut bad = blocks();
        bad.push(RegionBlock::new(vec![1, 1], 3));
        MemorySource::new(bad);
    }
}
