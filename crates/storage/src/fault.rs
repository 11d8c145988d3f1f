//! Deterministic fault injection for training sources.
//!
//! Real fault tolerance cannot be tested against real hardware faults,
//! so [`FaultySource`] wraps any [`TrainingSource`] and injects the
//! failure modes a production deployment sees — transient `io::Error`s,
//! bit-flip corruption, extra latency — driven by a seeded [`FaultPlan`]
//! that makes every run reproducible: the same plan over the same source
//! injects the same faults at the same region indices, whatever the
//! thread count.
//!
//! Faults apply to [`TrainingSource::read_region`] only; metadata
//! queries (`num_regions`, `region_coords`, `find_region`) always
//! succeed, matching a disk whose index loaded fine but whose data
//! blocks are suspect.

use crate::block::RegionBlock;
use crate::format::{decode_block_v2, encode_block_v2};
use crate::source::TrainingSource;
use bellwether_obs::{names, Counter, MetricsSnapshot, Registry};
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64-style finalizer: decorrelates `(seed, idx)` pairs so fault
/// placement (and retry jitter) looks arbitrary but is a pure function
/// of its inputs.
pub(crate) fn mix(seed: u64, idx: u64) -> u64 {
    let mut z = seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seeded schedule of injected faults.
///
/// Roughly one in `period` regions is selected for each configured fault
/// kind; *which* regions is a pure function of `(seed, region index)`,
/// so tests can enumerate the plan up front via
/// [`FaultPlan::is_transient_region`] / [`FaultPlan::is_corrupt_region`]
/// and assert exact outcomes.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    transient_period: u64,
    transient_depth: u32,
    corrupt_period: u64,
    latency: Option<Duration>,
}

impl FaultPlan {
    /// A plan that injects nothing (configure with the `*_every`
    /// methods).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_period: 0,
            transient_depth: 0,
            corrupt_period: 0,
            latency: None,
        }
    }

    /// Select ~one in `period` regions for transient failures: their
    /// first `depth` read attempts fail with `ErrorKind::Interrupted`,
    /// after which reads succeed — the disk-flake a retry layer must
    /// absorb. `period = 1` selects every region; `period = 0` disables.
    pub fn transient_every(mut self, period: u64, depth: u32) -> Self {
        self.transient_period = period;
        self.transient_depth = depth;
        self
    }

    /// Select ~one in `period` regions for permanent corruption: every
    /// read returns the block with one deterministically chosen bit
    /// flipped in its v2 encoding, which the checksum rejects as
    /// [`crate::format::CorruptBlock`]. `period = 0` disables.
    pub fn corrupt_every(mut self, period: u64) -> Self {
        self.corrupt_period = period;
        self
    }

    /// Add `latency` to every read (injected slowness; never changes
    /// results).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Whether region `idx` is selected for transient failures.
    pub fn is_transient_region(&self, idx: usize) -> bool {
        self.transient_period != 0
            && mix(self.seed, idx as u64).is_multiple_of(self.transient_period)
    }

    /// Whether region `idx` is selected for permanent corruption.
    pub fn is_corrupt_region(&self, idx: usize) -> bool {
        self.corrupt_period != 0
            && mix(self.seed ^ 0x00C0_FFEE, idx as u64).is_multiple_of(self.corrupt_period)
    }

    /// Number of failing attempts before a transient region recovers.
    pub fn transient_depth(&self) -> u32 {
        self.transient_depth
    }

    /// Bit position to flip when corrupting an `len`-byte encoding of
    /// region `idx`.
    fn corrupt_bit(&self, idx: usize, len: usize) -> usize {
        (mix(self.seed ^ 0x0BAD_B10C, idx as u64) % (len as u64 * 8)) as usize
    }
}

/// A [`TrainingSource`] wrapper injecting the faults of a [`FaultPlan`].
///
/// Transient faults are stateful per region (the first `depth` attempts
/// fail, then reads succeed), so composing with
/// [`crate::RetryingSource`] demonstrates end-to-end recovery;
/// corruption is stateless and permanent, so retry layers must classify
/// and give up. Injected faults are counted under
/// `storage/faults_injected`; injected corruption also ticks the wrapped
/// source's `storage/corrupt_blocks`, exactly as a real rotten block
/// would.
pub struct FaultySource<S> {
    inner: S,
    plan: FaultPlan,
    attempts: Vec<AtomicU32>,
    faults: Counter,
}

impl<S: TrainingSource> FaultySource<S> {
    /// Wrap `inner`, injecting the faults scheduled by `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        let attempts = (0..inner.num_regions()).map(|_| AtomicU32::new(0)).collect();
        FaultySource {
            inner,
            plan,
            attempts,
            faults: Counter::new(),
        }
    }

    /// Like [`FaultySource::new`], but the injected-fault counter is
    /// bound to the canonical `storage/faults_injected` entry of `reg`.
    pub fn with_registry(inner: S, plan: FaultPlan, reg: &Registry) -> Self {
        let mut src = FaultySource::new(inner, plan);
        src.faults = reg.counter(names::STORAGE_FAULTS_INJECTED);
        src
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The driving plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Forget transient-fault history, so previously recovered regions
    /// fail again on their next reads (a "second incident").
    pub fn reset_transients(&self) {
        for a in &self.attempts {
            a.store(0, Ordering::Relaxed);
        }
    }
}

impl<S: TrainingSource> TrainingSource for FaultySource<S> {
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
        if let Some(latency) = self.plan.latency {
            std::thread::sleep(latency);
        }
        if self.plan.is_transient_region(idx) {
            let attempt = self.attempts[idx].fetch_add(1, Ordering::Relaxed);
            if attempt < self.plan.transient_depth {
                self.faults.inc();
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected transient fault (attempt {attempt})"),
                ));
            }
        }
        if self.plan.is_corrupt_region(idx) {
            // Serve the real block through a corrupted v2 encoding so the
            // error comes from the genuine checksum path, not a mock.
            let block = self.inner.read_region(idx)?;
            let mut buf = Vec::with_capacity(block.encoded_len() + 4);
            encode_block_v2(&block, &mut buf);
            let bit = self.plan.corrupt_bit(idx, buf.len());
            buf[bit / 8] ^= 1 << (bit % 8);
            let err = decode_block_v2(&buf).expect_err("flipped bit must fail the checksum");
            self.faults.inc();
            self.inner.record_corrupt_block();
            return Err(err);
        }
        self.inner.read_region(idx)
    }

    /// Inner counters plus `storage/faults_injected`.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.inner.snapshot();
        snap.counters
            .push((names::STORAGE_FAULTS_INJECTED.to_string(), self.faults.get()));
        snap
    }

    fn record_corrupt_block(&self) {
        self.inner.record_corrupt_block();
    }

    fn find_region(&self, coords: &[u32]) -> Option<usize> {
        self.inner.find_region(coords)
    }

    fn shard_starts(&self) -> Option<Vec<usize>> {
        self.inner.shard_starts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::is_corrupt;
    use crate::source::MemorySource;

    fn blocks(n: usize) -> Vec<RegionBlock> {
        (0..n as u32)
            .map(|r| {
                let mut b = RegionBlock::new(vec![r], 2);
                b.push(r as i64, &[r as f64, 1.0], r as f64 * 3.0);
                b
            })
            .collect()
    }

    #[test]
    fn no_faults_is_a_transparent_wrapper() {
        let src = FaultySource::new(MemorySource::new(blocks(6)), FaultPlan::new(7));
        for idx in 0..6 {
            assert_eq!(src.read_region(idx).unwrap().region, vec![idx as u32]);
        }
        assert_eq!(src.snapshot().faults_injected(), 0);
    }

    #[test]
    fn plan_selection_is_deterministic_and_seeded() {
        let plan_a = FaultPlan::new(42).transient_every(3, 1).corrupt_every(4);
        let plan_b = FaultPlan::new(42).transient_every(3, 1).corrupt_every(4);
        let plan_c = FaultPlan::new(43).transient_every(3, 1).corrupt_every(4);
        let pick = |p: &FaultPlan| {
            (0..64)
                .map(|i| (p.is_transient_region(i), p.is_corrupt_region(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(&plan_a), pick(&plan_b), "same seed, same plan");
        assert_ne!(pick(&plan_a), pick(&plan_c), "different seed differs");
        // Period 1 selects everything.
        let all = FaultPlan::new(1).transient_every(1, 2);
        assert!((0..64).all(|i| all.is_transient_region(i)));
        assert_eq!(all.transient_depth(), 2);
    }

    #[test]
    fn transient_regions_fail_then_recover() {
        let plan = FaultPlan::new(5).transient_every(1, 2);
        let src = FaultySource::new(MemorySource::new(blocks(2)), plan);
        for attempt in 0..2 {
            let err = src.read_region(0).expect_err("injected fault expected");
            assert_eq!(err.kind(), io::ErrorKind::Interrupted, "attempt {attempt}");
        }
        // Third attempt recovers and reads the true block.
        assert_eq!(src.read_region(0).unwrap().region, vec![0]);
        assert_eq!(src.snapshot().faults_injected(), 2);
        // Only the failed attempts were faults; the real read was
        // counted by the inner source exactly once.
        assert_eq!(src.snapshot().regions_read(), 1);
        // reset_transients re-arms the fault.
        src.reset_transients();
        assert!(src.read_region(0).is_err());
    }

    #[test]
    fn corrupt_regions_fail_the_real_checksum_path() {
        let plan = FaultPlan::new(9).corrupt_every(1);
        let src = FaultySource::new(MemorySource::new(blocks(3)), plan);
        for idx in 0..3 {
            let err = src.read_region(idx).expect_err("corruption expected");
            assert!(is_corrupt(&err), "region {idx}: {err}");
            // Corruption is permanent: the next read fails identically.
            let again = src.read_region(idx).expect_err("still corrupt");
            assert!(is_corrupt(&again));
        }
        assert_eq!(src.snapshot().faults_injected(), 6);
        assert_eq!(src.snapshot().corrupt_blocks(), 6);
    }

    #[test]
    fn registry_bound_faults_show_in_registry_snapshot() {
        let reg = Registry::new();
        let plan = FaultPlan::new(3).transient_every(1, 1);
        let src = FaultySource::with_registry(MemorySource::new(blocks(2)), plan, &reg);
        assert!(src.read_region(0).is_err());
        assert!(src.read_region(0).is_ok());
        assert_eq!(reg.snapshot().faults_injected(), 1);
        assert_eq!(src.snapshot().faults_injected(), 1);
    }

    #[test]
    fn latency_injection_preserves_results() {
        let plan = FaultPlan::new(4).with_latency(Duration::from_micros(50));
        let src = FaultySource::new(MemorySource::new(blocks(2)), plan);
        assert_eq!(src.read_region(1).unwrap().region, vec![1]);
        assert_eq!(src.snapshot().faults_injected(), 0);
    }
}
