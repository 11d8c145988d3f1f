//! A bounded decoded-block cache in front of any [`TrainingSource`].
//!
//! The multi-scan algorithms (naive tree ≈ `l·m` scans, RF tree = `l`
//! scans) re-read the *same* regions on every pass. Against a
//! [`crate::DiskSource`] each of those re-reads pays a positioned read
//! plus a full block decode. [`CachedSource`] keeps recently decoded
//! [`RegionBlock`]s in memory under a byte budget so repeat reads are an
//! `Arc` refcount bump.
//!
//! Design points:
//!
//! * **Interior mutability.** Scan algorithms hold `&dyn TrainingSource`
//!   and may share it across scoped worker threads, so the cache state
//!   lives behind a [`Mutex`]. Misses read the inner source *outside*
//!   the lock — parallel workers never serialize on disk IO, only on
//!   the (cheap) map bookkeeping.
//! * **Byte budget, LRU eviction.** Entries are charged their
//!   [`RegionBlock::encoded_len`] and the least-recently-used entry is
//!   evicted once the budget is exceeded. A block alone larger than the
//!   whole budget is served but never cached.
//! * **Honest IO accounting.** Cache hits do not touch the inner
//!   source, so its `storage/regions_read` keeps counting *real* reads
//!   and the paper's scan-count lemmas stay assertable. Hits, misses,
//!   evictions and replacements are the cache's own counters, bindable
//!   to a shared `bellwether_obs` registry via
//!   [`CachedSource::with_registry`]; [`TrainingSource::snapshot`] reads
//!   both sets.
//! * **Bit identity.** A hit returns a shared handle to the very block
//!   the inner source decoded, so cached and uncached scans see
//!   identical data.

use crate::block::RegionBlock;
use crate::source::TrainingSource;
use bellwether_obs::{names, Counter, MetricsSnapshot, Registry};
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug)]
struct CacheEntry {
    block: Arc<RegionBlock>,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    map: HashMap<usize, CacheEntry>,
    bytes: usize,
    tick: u64,
}

impl CacheState {
    /// Evict least-recently-used entries (never `keep`) until the byte
    /// total fits `budget`. Returns the number of evictions.
    fn evict_to(&mut self, budget: usize, keep: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            let Some(&victim) = self
                .map
                .iter()
                .filter(|(&idx, _)| idx != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(idx, _)| idx)
            else {
                break;
            };
            let entry = self.map.remove(&victim).expect("victim chosen from map");
            self.bytes -= entry.bytes;
            evicted += 1;
        }
        evicted
    }

    /// Cache `block` (charged `bytes`) as `idx`'s most recently used
    /// entry — only marking the entry used if `idx` is already cached —
    /// then evict down to `budget`. Returns the number of evictions.
    fn admit(&mut self, idx: usize, block: Arc<RegionBlock>, bytes: usize, budget: usize) -> u64 {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(&idx) {
            entry.last_used = tick;
            return 0;
        }
        self.bytes += bytes;
        self.map.insert(
            idx,
            CacheEntry {
                block,
                bytes,
                last_used: tick,
            },
        );
        self.evict_to(budget, idx)
    }
}

/// A byte-budgeted LRU cache of decoded [`RegionBlock`]s wrapping any
/// inner [`TrainingSource`]. See the [module docs](self) for the design.
#[derive(Debug)]
pub struct CachedSource<S> {
    inner: S,
    budget_bytes: usize,
    state: Mutex<CacheState>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
}

impl<S: TrainingSource> CachedSource<S> {
    /// Wrap `inner`, keeping at most `budget_bytes` of decoded blocks
    /// (charged by [`RegionBlock::encoded_len`]).
    pub fn new(inner: S, budget_bytes: usize) -> Self {
        CachedSource {
            inner,
            budget_bytes,
            state: Mutex::new(CacheState::default()),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            invalidations: Counter::new(),
        }
    }

    /// Like [`CachedSource::new`], but the cache's counters are bound to
    /// the canonical `storage/cache_*` entries of `reg`.
    pub fn with_registry(inner: S, budget_bytes: usize, reg: &Registry) -> Self {
        CachedSource {
            hits: reg.counter(names::STORAGE_CACHE_HITS),
            misses: reg.counter(names::STORAGE_CACHE_MISSES),
            evictions: reg.counter(names::STORAGE_CACHE_EVICTIONS),
            invalidations: reg.counter(names::STORAGE_CACHE_INVALIDATIONS),
            ..CachedSource::new(inner, budget_bytes)
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Lock the cache state, recovering from poison. A thread that
    /// panicked while holding the lock may have left the bookkeeping
    /// half-updated, so recovery drops every cached entry (correctness
    /// never depends on cache contents — the inner source is re-read)
    /// and un-poisons the mutex, instead of propagating the panic to
    /// every subsequent reader forever.
    fn lock_state(&self) -> MutexGuard<'_, CacheState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.state.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.map.clear();
                guard.bytes = 0;
                guard
            }
        }
    }

    /// Number of blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.lock_state().map.len()
    }

    /// Bytes currently charged against the budget.
    pub fn cached_bytes(&self) -> usize {
        self.lock_state().bytes
    }

    /// Drop every cached block (counters are kept).
    pub fn clear(&self) {
        let mut state = self.lock_state();
        state.map.clear();
        state.bytes = 0;
    }

    /// Drop the cache's entries of `regions` and hand their blocks to
    /// the caller, which decides when they are freed. Counts them under
    /// `storage/cache_invalidations`. This is the streaming append's
    /// eviction of the blocks its overlay replaces: it takes them before
    /// the commit and frees them while the commit runs.
    pub fn take_regions(&self, regions: impl IntoIterator<Item = usize>) -> Vec<Arc<RegionBlock>> {
        let taken: Vec<_> = {
            let mut state = self.lock_state();
            regions
                .into_iter()
                .filter_map(|idx| {
                    let entry = state.map.remove(&idx)?;
                    state.bytes -= entry.bytes;
                    Some(entry.block)
                })
                .collect()
        };
        if !taken.is_empty() {
            self.invalidations.add(taken.len() as u64);
        }
        taken
    }

    /// Put `blocks` — `(region index, block)` pairs — in the cache in
    /// place of whatever it holds for those regions. This is the
    /// write-through hook of the streaming append path: once the inner
    /// source serves the blocks an append wrote, the append hands over
    /// the very blocks it built, so a re-read of a dirty region is a hit
    /// while every clean region keeps its warm entry. Each block is
    /// cached as a miss would cache it (within the budget, evicting the
    /// least recently used). Counts the stale entries replaced under
    /// `storage/cache_invalidations` and returns that count.
    pub fn replace_regions(
        &self,
        blocks: impl IntoIterator<Item = (usize, Arc<RegionBlock>)>,
    ) -> u64 {
        let (mut replaced, mut evicted) = (0u64, 0u64);
        {
            let mut state = self.lock_state();
            for (idx, block) in blocks {
                if let Some(stale) = state.map.remove(&idx) {
                    state.bytes -= stale.bytes;
                    replaced += 1;
                }
                let bytes = block.encoded_len();
                if bytes <= self.budget_bytes {
                    evicted += state.admit(idx, block, bytes, self.budget_bytes);
                }
            }
        }
        if replaced > 0 {
            self.invalidations.add(replaced);
        }
        if evicted > 0 {
            self.evictions.add(evicted);
        }
        replaced
    }
}

impl<S: TrainingSource> TrainingSource for CachedSource<S> {
    fn num_regions(&self) -> usize {
        self.inner.num_regions()
    }

    fn feature_arity(&self) -> usize {
        self.inner.feature_arity()
    }

    fn region_coords(&self, idx: usize) -> &[u32] {
        self.inner.region_coords(idx)
    }

    fn read_region(&self, idx: usize) -> io::Result<Arc<RegionBlock>> {
        {
            let mut state = self.lock_state();
            state.tick += 1;
            let tick = state.tick;
            if let Some(entry) = state.map.get_mut(&idx) {
                entry.last_used = tick;
                let block = Arc::clone(&entry.block);
                drop(state);
                self.hits.inc();
                return Ok(block);
            }
        }
        // Miss: read the inner source outside the lock so concurrent
        // scan workers overlap their IO. Two workers missing the same
        // index both read (and both count a miss); the second insert is
        // a no-op.
        let block = self.inner.read_region(idx)?;
        self.misses.inc();
        let bytes = block.encoded_len();
        if bytes <= self.budget_bytes {
            let mut state = self.lock_state();
            let evicted = state.admit(idx, Arc::clone(&block), bytes, self.budget_bytes);
            drop(state);
            if evicted > 0 {
                self.evictions.add(evicted);
            }
        }
        Ok(block)
    }

    /// Inner counters plus this cache's hit/miss/eviction/invalidation
    /// counters in one snapshot, so `snapshot().cache_hit_rate()` works
    /// directly.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.inner.snapshot();
        for (name, counter) in [
            (names::STORAGE_CACHE_HITS, &self.hits),
            (names::STORAGE_CACHE_MISSES, &self.misses),
            (names::STORAGE_CACHE_EVICTIONS, &self.evictions),
            (names::STORAGE_CACHE_INVALIDATIONS, &self.invalidations),
        ] {
            snap.counters.push((name.to_string(), counter.get()));
        }
        snap
    }

    fn record_corrupt_block(&self) {
        self.inner.record_corrupt_block();
    }

    fn find_region(&self, coords: &[u32]) -> Option<usize> {
        self.inner.find_region(coords)
    }

    fn total_examples(&self) -> io::Result<u64> {
        self.inner.total_examples()
    }

    fn shard_starts(&self) -> Option<Vec<usize>> {
        self.inner.shard_starts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemorySource;

    fn blocks(n: usize) -> Vec<RegionBlock> {
        (0..n as u32)
            .map(|r| {
                let mut b = RegionBlock::new(vec![r], 1);
                b.push(r as i64, &[r as f64], (r as f64) * 2.0);
                b
            })
            .collect()
    }

    fn block_bytes() -> usize {
        blocks(1)[0].encoded_len()
    }

    /// Budget holding exactly `n` of the uniform test blocks.
    fn source(regions: usize, budget_blocks: usize) -> CachedSource<MemorySource> {
        CachedSource::new(
            MemorySource::new(blocks(regions)),
            budget_blocks * block_bytes(),
        )
    }

    #[test]
    fn hits_skip_the_inner_source_and_return_identical_blocks() {
        let src = source(4, 4);
        let first = src.read_region(2).unwrap();
        let second = src.read_region(2).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit shares the decoded block");
        let snap = src.snapshot();
        assert_eq!(snap.cache_misses(), 1);
        assert_eq!(snap.cache_hits(), 1);
        // The inner source saw exactly one real read — scan-count
        // accounting stays honest under caching.
        assert_eq!(snap.regions_read(), 1);
        assert!((snap.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let src = source(3, 2);
        src.read_region(0).unwrap();
        src.read_region(1).unwrap();
        assert_eq!(src.cached_blocks(), 2);
        // Third block evicts the least recently used (region 0).
        src.read_region(2).unwrap();
        assert_eq!(src.cached_blocks(), 2);
        assert_eq!(src.cached_bytes(), 2 * block_bytes());
        assert_eq!(src.snapshot().cache_evictions(), 1);
        // Region 1 is still cached, region 0 is gone.
        src.read_region(1).unwrap();
        src.read_region(0).unwrap();
        let snap = src.snapshot();
        assert_eq!(snap.cache_hits(), 1);
        assert_eq!(snap.cache_misses(), 4);
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        let src = source(3, 2);
        src.read_region(0).unwrap();
        src.read_region(1).unwrap();
        src.read_region(0).unwrap(); // refresh 0 → 1 is now LRU
        src.read_region(2).unwrap(); // evicts 1
        src.read_region(0).unwrap();
        assert_eq!(src.snapshot().cache_hits(), 2);
        src.read_region(1).unwrap();
        assert_eq!(src.snapshot().cache_misses(), 4);
    }

    #[test]
    fn oversized_blocks_are_served_but_never_cached() {
        let src = CachedSource::new(MemorySource::new(blocks(2)), block_bytes() - 1);
        for _ in 0..3 {
            assert_eq!(src.read_region(0).unwrap().n(), 1);
        }
        assert_eq!(src.cached_blocks(), 0);
        assert_eq!(src.cached_bytes(), 0);
        let snap = src.snapshot();
        assert_eq!(snap.cache_misses(), 3);
        assert_eq!(snap.cache_hits(), 0);
        assert_eq!(snap.cache_evictions(), 0);
    }

    #[test]
    fn zero_budget_cache_is_a_transparent_wrapper() {
        let src = CachedSource::new(MemorySource::new(blocks(3)), 0);
        for idx in 0..3 {
            let got = src.read_region(idx).unwrap();
            let direct = src.inner().read_region(idx).unwrap();
            assert_eq!(got, direct);
        }
        assert_eq!(src.cached_blocks(), 0);
    }

    #[test]
    fn clear_drops_blocks_but_keeps_counters() {
        let src = source(2, 2);
        src.read_region(0).unwrap();
        src.read_region(0).unwrap();
        src.clear();
        assert_eq!(src.cached_blocks(), 0);
        assert_eq!(src.cached_bytes(), 0);
        src.read_region(0).unwrap();
        let snap = src.snapshot();
        assert_eq!(snap.cache_hits(), 1);
        assert_eq!(snap.cache_misses(), 2);
    }

    #[test]
    fn replacement_swaps_exactly_the_named_regions() {
        let src = source(4, 4);
        for idx in 0..4 {
            src.read_region(idx).unwrap();
        }
        assert_eq!(src.cached_blocks(), 4);

        // Replace two cached regions, and seed one that was not cached.
        let fresh = |r: u32| {
            let mut b = RegionBlock::new(vec![r], 1);
            b.push(100 + r as i64, &[-1.0], -2.0);
            Arc::new(b)
        };
        let replaced = src.replace_regions([(1, fresh(1)), (3, fresh(3))]);
        assert_eq!(replaced, 2);
        assert_eq!(src.cached_blocks(), 4);
        assert_eq!(src.cached_bytes(), 4 * block_bytes());
        let invalidations = src.snapshot().counter(names::STORAGE_CACHE_INVALIDATIONS);
        assert_eq!(invalidations, Some(2));

        // Every region hits; replaced ones serve the handed-over block.
        for idx in 0..4 {
            let got = src.read_region(idx).unwrap();
            let want = match idx {
                1 | 3 => fresh(idx as u32),
                _ => Arc::new(blocks(4)[idx].clone()),
            };
            assert_eq!(got, want, "region {idx}");
        }
        let snap = src.snapshot();
        assert_eq!(snap.cache_hits(), 4);
        assert_eq!(snap.cache_misses(), 4);
        assert_eq!(snap.regions_read(), 4, "no replaced region was read again");

        // Seeding regions that were not cached replaces nothing; over the
        // budget, the least recently used entries make room.
        assert_eq!(src.replace_regions([(0, fresh(0))]), 1);
        let src = source(4, 2);
        src.read_region(0).unwrap();
        assert_eq!(src.replace_regions([(2, fresh(2)), (3, fresh(3))]), 0);
        assert_eq!(src.cached_blocks(), 2);
        let snap = src.snapshot();
        assert_eq!(snap.cache_evictions(), 1);
        assert_eq!(snap.counter(names::STORAGE_CACHE_INVALIDATIONS).unwrap(), 0);
        src.read_region(3).unwrap();
        assert_eq!(src.snapshot().cache_hits(), 1);

        // A block larger than the whole budget is never cached.
        let tiny = CachedSource::new(MemorySource::new(blocks(2)), block_bytes() - 1);
        assert_eq!(tiny.replace_regions([(0, fresh(0))]), 0);
        assert_eq!(tiny.cached_blocks(), 0);
    }

    /// Taken regions leave the cache with their blocks, counted as
    /// invalidations; a region not cached yields nothing, and every other
    /// entry stays warm.
    #[test]
    fn taken_regions_hand_back_their_blocks() {
        let src = source(4, 4);
        for idx in 0..3 {
            src.read_region(idx).unwrap();
        }
        let taken = src.take_regions([0, 2, 3]);
        let old = blocks(4);
        assert_eq!(taken, [&old[0], &old[2]].map(|b| Arc::new(b.clone())));
        assert_eq!(src.cached_blocks(), 1);
        assert_eq!(src.cached_bytes(), block_bytes());
        let snap = src.snapshot();
        assert_eq!(snap.counter(names::STORAGE_CACHE_INVALIDATIONS), Some(2));
        src.read_region(1).unwrap();
        src.read_region(2).unwrap();
        let snap = src.snapshot();
        assert_eq!((snap.cache_hits(), snap.cache_misses()), (1, 4));
    }

    #[test]
    fn registry_bound_invalidations_reach_the_registry() {
        let reg = Registry::shared();
        let src = CachedSource::with_registry(MemorySource::new(blocks(3)), 1 << 20, &reg);
        for idx in 0..3 {
            src.read_region(idx).unwrap();
        }
        let seeded = blocks(3).into_iter().map(Arc::new).enumerate().step_by(2);
        assert_eq!(src.replace_regions(seeded), 2);
        assert_eq!(
            reg.snapshot().counter(names::STORAGE_CACHE_INVALIDATIONS),
            Some(2)
        );
    }

    #[test]
    fn works_behind_a_trait_object() {
        let src = source(4, 4);
        let dyn_src: &dyn TrainingSource = &src;
        assert_eq!(dyn_src.num_regions(), 4);
        assert_eq!(dyn_src.feature_arity(), 1);
        assert_eq!(dyn_src.region_coords(3), &[3]);
        assert_eq!(dyn_src.find_region(&[2]), Some(2));
        assert_eq!(dyn_src.total_examples().unwrap(), 4);
        dyn_src.read_region(1).unwrap();
        dyn_src.read_region(1).unwrap();
        assert_eq!(dyn_src.snapshot().cache_hits(), 1);
    }

    #[test]
    fn registry_bound_cache_reports_into_registry() {
        let reg = Registry::shared();
        let src = CachedSource::with_registry(MemorySource::new(blocks(2)), 1 << 20, &reg);
        src.read_region(0).unwrap();
        src.read_region(0).unwrap();
        src.read_region(1).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.cache_hits(), 1);
        assert_eq!(snap.cache_misses(), 2);
        assert!((snap.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_readers_get_identical_blocks() {
        let src = Arc::new(source(8, 8));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let src = Arc::clone(&src);
                std::thread::spawn(move || {
                    for idx in 0..src.num_regions() {
                        let block = src.read_region(idx).unwrap();
                        assert_eq!(block.region, vec![idx as u32]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = src.snapshot();
        // Every lookup was counted exactly once. (Racing misses on one
        // index may each count a miss, so only a lower bound on hits is
        // portable — every index is missed at least once.)
        assert_eq!(snap.cache_hits() + snap.cache_misses(), 4 * 8);
        assert!(snap.cache_misses() >= 8);
        assert_eq!(src.cached_blocks(), 8);
    }

    #[test]
    fn recovers_from_a_poisoned_lock() {
        let src = Arc::new(source(4, 4));
        src.read_region(0).unwrap();
        src.read_region(1).unwrap();
        assert_eq!(src.cached_blocks(), 2);

        // Poison the state mutex: a panicking thread dies while holding
        // the guard.
        let poisoner = Arc::clone(&src);
        let handle = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("worker died holding the cache lock");
        });
        assert!(handle.join().is_err());
        assert!(src.state.is_poisoned());

        // Subsequent readers recover instead of panicking: the cache is
        // cleared (its bookkeeping can no longer be trusted), the mutex
        // is un-poisoned, and reads keep working.
        assert_eq!(*src.read_region(0).unwrap(), blocks(4)[0]);
        assert!(!src.state.is_poisoned());
        src.read_region(0).unwrap();
        let snap = src.snapshot();
        // Read after recovery missed (entries dropped), then hit again.
        assert!(snap.cache_misses() >= 3);
        assert!(snap.cache_hits() >= 1);
        assert!(src.cached_blocks() >= 1);
    }
}
