//! Transient-fault recovery for training sources.
//!
//! [`RetryingSource`] wraps any [`TrainingSource`] and retries failed
//! `read_region` calls under a builder-validated [`RetryPolicy`]:
//! bounded attempts, exponential backoff capped at a maximum, and
//! *deterministic* jitter (a pure function of `(jitter seed, region,
//! attempt)`) so retried runs stay reproducible while concurrent workers
//! still fan out their retry schedules.
//!
//! Errors are classified before any attempt is spent:
//!
//! * **transient** — `Interrupted`, `TimedOut`, `WouldBlock`: the read
//!   may succeed if repeated (flaky disk, saturated queue). Retried.
//! * **permanent** — everything else, notably `InvalidData` carrying a
//!   [`crate::format::CorruptBlock`]: the same bytes will fail the same
//!   way forever. Returned immediately; retrying would only burn the
//!   budget and hide the rot from the caller.
//!
//! A successful retried read returns the block the inner source decoded
//! — bit-identical to a run with no faults at all, which the workspace
//! property tests assert across thread counts.

use crate::block::RegionBlock;
use crate::fault::mix;
use crate::source::TrainingSource;
use bellwether_obs::{names, Counter, MetricsSnapshot, Registry};
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Validated retry configuration; build via [`RetryPolicy::builder`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    max_attempts: u32,
    base_backoff: Duration,
    max_backoff: Duration,
    multiplier: f64,
    jitter_seed: u64,
}

/// Builder for [`RetryPolicy`]; invalid combinations are rejected at
/// [`RetryPolicyBuilder::build`] time with `io::ErrorKind::InvalidInput`.
#[derive(Debug, Clone)]
pub struct RetryPolicyBuilder {
    max_attempts: u32,
    base_backoff: Duration,
    max_backoff: Duration,
    multiplier: f64,
    jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Four attempts, 1 ms base backoff doubling up to 50 ms.
    fn default() -> Self {
        RetryPolicy::builder().build().expect("default policy is valid")
    }
}

impl RetryPolicy {
    /// Start from the default policy (4 attempts, 1 ms base backoff
    /// doubling up to 50 ms, jitter seed 0).
    pub fn builder() -> RetryPolicyBuilder {
        RetryPolicyBuilder {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            multiplier: 2.0,
            jitter_seed: 0,
        }
    }

    /// Total attempts allowed per read (first try included).
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Whether `err` is worth retrying: the kinds real sources emit for
    /// conditions that can clear on their own. Checksum failures and
    /// structural garbage are permanent — see the [module docs](self).
    pub fn is_transient(err: &io::Error) -> bool {
        matches!(
            err.kind(),
            io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        )
    }

    /// Backoff before retry number `attempt` (1-based: after the first
    /// failure `attempt = 1`) of a read of `region`. Exponential in
    /// `attempt`, capped at the maximum, scaled by a deterministic
    /// jitter factor in `[0.5, 1.0]` — a pure function of the policy's
    /// jitter seed, the region and the attempt, so runs are
    /// reproducible while concurrent retries desynchronize.
    pub fn backoff_for(&self, region: usize, attempt: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.multiplier.powi(attempt.saturating_sub(1).min(63) as i32);
        let uncapped = self.base_backoff.as_secs_f64() * exp;
        let capped = uncapped.min(self.max_backoff.as_secs_f64());
        let h = mix(self.jitter_seed, ((region as u64) << 32) | attempt as u64);
        let jitter = 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        Duration::from_secs_f64(capped * jitter)
    }
}

impl RetryPolicyBuilder {
    /// Total attempts per read, first try included (≥ 1).
    pub fn max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n;
        self
    }

    /// Backoff before the first retry. `Duration::ZERO` disables
    /// sleeping entirely (useful in tests).
    pub fn base_backoff(mut self, d: Duration) -> Self {
        self.base_backoff = d;
        self
    }

    /// Upper bound on any single backoff (must be ≥ the base).
    pub fn max_backoff(mut self, d: Duration) -> Self {
        self.max_backoff = d;
        self
    }

    /// Exponential growth factor per retry (finite, ≥ 1).
    pub fn multiplier(mut self, m: f64) -> Self {
        self.multiplier = m;
        self
    }

    /// Seed for the deterministic jitter factor.
    pub fn jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Validate and build the policy.
    pub fn build(self) -> io::Result<RetryPolicy> {
        fn invalid(msg: &str) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidInput, msg)
        }
        if self.max_attempts < 1 {
            return Err(invalid("max_attempts must be at least 1"));
        }
        if !self.multiplier.is_finite() || self.multiplier < 1.0 {
            return Err(invalid("multiplier must be finite and >= 1"));
        }
        if self.max_backoff < self.base_backoff {
            return Err(invalid("max_backoff must be >= base_backoff"));
        }
        Ok(RetryPolicy {
            max_attempts: self.max_attempts,
            base_backoff: self.base_backoff,
            max_backoff: self.max_backoff,
            multiplier: self.multiplier,
            jitter_seed: self.jitter_seed,
        })
    }
}

/// A [`TrainingSource`] wrapper that retries transient read failures
/// under a [`RetryPolicy`]. Composes with the other wrappers — e.g.
/// `CachedSource<RetryingSource<DiskSource>>` caches only reads that
/// (eventually) succeeded. Each retry is counted under
/// `storage/retries`.
pub struct RetryingSource<S> {
    inner: S,
    policy: RetryPolicy,
    retries: Counter,
}

impl<S: TrainingSource> RetryingSource<S> {
    /// Wrap `inner` with `policy`.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        RetryingSource {
            inner,
            policy,
            retries: Counter::new(),
        }
    }

    /// Like [`RetryingSource::new`], but the retry counter is bound to
    /// the canonical `storage/retries` entry of `reg`.
    pub fn with_registry(inner: S, policy: RetryPolicy, reg: &Registry) -> Self {
        let mut src = RetryingSource::new(inner, policy);
        src.retries = reg.counter(names::STORAGE_RETRIES);
        src
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

}

impl<S: TrainingSource> TrainingSource for RetryingSource<S> {
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
        let mut attempt = 1u32;
        loop {
            match self.inner.read_region(idx) {
                Ok(block) => return Ok(block),
                Err(err)
                    if attempt < self.policy.max_attempts && RetryPolicy::is_transient(&err) =>
                {
                    self.retries.inc();
                    let backoff = self.policy.backoff_for(idx, attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    attempt += 1;
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Inner counters plus `storage/retries`.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.inner.snapshot();
        snap.counters
            .push((names::STORAGE_RETRIES.to_string(), self.retries.get()));
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
    use crate::cache::CachedSource;
    use crate::fault::{FaultPlan, FaultySource};
    use crate::format::is_corrupt;
    use crate::source::MemorySource;

    fn blocks(n: usize) -> Vec<RegionBlock> {
        (0..n as u32)
            .map(|r| {
                let mut b = RegionBlock::new(vec![r], 1);
                b.push(r as i64, &[r as f64], r as f64);
                b
            })
            .collect()
    }

    /// Zero-backoff policy so tests never sleep.
    fn fast_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy::builder()
            .max_attempts(max_attempts)
            .base_backoff(Duration::ZERO)
            .max_backoff(Duration::ZERO)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(RetryPolicy::builder().max_attempts(0).build().is_err());
        assert!(RetryPolicy::builder().multiplier(0.5).build().is_err());
        assert!(RetryPolicy::builder().multiplier(f64::NAN).build().is_err());
        assert!(RetryPolicy::builder()
            .base_backoff(Duration::from_millis(10))
            .max_backoff(Duration::from_millis(5))
            .build()
            .is_err());
        let ok = RetryPolicy::default();
        assert_eq!(ok.max_attempts(), 4);
    }

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let p = RetryPolicy::builder()
            .base_backoff(Duration::from_millis(10))
            .max_backoff(Duration::from_millis(40))
            .multiplier(2.0)
            .jitter_seed(99)
            .build()
            .unwrap();
        let b1 = p.backoff_for(3, 1);
        let b2 = p.backoff_for(3, 2);
        let b5 = p.backoff_for(3, 5);
        // Jitter scales into [0.5, 1.0] of the nominal value.
        assert!(b1 >= Duration::from_millis(5) && b1 <= Duration::from_millis(10));
        assert!(b2 >= Duration::from_millis(10) && b2 <= Duration::from_millis(20));
        // Attempt 5 nominal = 160ms, capped at 40ms before jitter.
        assert!(b5 <= Duration::from_millis(40));
        // Pure function: same inputs, same backoff.
        assert_eq!(p.backoff_for(3, 2), b2);
        // Different regions desynchronize.
        assert_ne!(p.backoff_for(4, 1), b1);
    }

    #[test]
    fn transient_classification() {
        for kind in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WouldBlock,
        ] {
            assert!(RetryPolicy::is_transient(&io::Error::new(kind, "flake")));
        }
        for kind in [
            io::ErrorKind::InvalidData,
            io::ErrorKind::NotFound,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::PermissionDenied,
        ] {
            assert!(!RetryPolicy::is_transient(&io::Error::new(kind, "fatal")));
        }
    }

    #[test]
    fn retries_absorb_transient_faults() {
        // Every region flakes twice; 3 attempts are enough.
        let plan = FaultPlan::new(11).transient_every(1, 2);
        let faulty = FaultySource::new(MemorySource::new(blocks(4)), plan);
        let src = RetryingSource::new(faulty, fast_policy(3));
        for idx in 0..4 {
            assert_eq!(src.read_region(idx).unwrap().region, vec![idx as u32]);
        }
        assert_eq!(src.snapshot().retries(), 8, "two retries per region");
        assert_eq!(src.snapshot().retries(), 8);
        assert_eq!(src.snapshot().regions_read(), 4);
    }

    #[test]
    fn attempts_budget_is_respected() {
        // Faults outlast the budget: 5 failing attempts vs 3 allowed.
        let plan = FaultPlan::new(11).transient_every(1, 5);
        let faulty = FaultySource::new(MemorySource::new(blocks(1)), plan);
        let src = RetryingSource::new(faulty, fast_policy(3));
        let err = src.read_region(0).expect_err("budget exhausted");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(src.snapshot().retries(), 2, "max_attempts - 1 retries");
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let plan = FaultPlan::new(13).corrupt_every(1);
        let faulty = FaultySource::new(MemorySource::new(blocks(1)), plan);
        let src = RetryingSource::new(faulty, fast_policy(5));
        let err = src.read_region(0).expect_err("corruption is permanent");
        assert!(is_corrupt(&err));
        assert_eq!(src.snapshot().retries(), 0, "no attempts wasted on permanent rot");
        assert_eq!(src.inner().snapshot().faults_injected(), 1, "single read attempt");
    }

    #[test]
    fn composes_with_the_cache() {
        // Cache on the outside: only successful reads are cached, and a
        // hit never touches the flaky inner source again.
        let plan = FaultPlan::new(17).transient_every(1, 1);
        let faulty = FaultySource::new(MemorySource::new(blocks(2)), plan);
        let retrying = RetryingSource::new(faulty, fast_policy(2));
        let src = CachedSource::new(retrying, 1 << 20);
        assert_eq!(src.read_region(0).unwrap().region, vec![0]);
        assert_eq!(src.read_region(0).unwrap().region, vec![0]);
        assert_eq!(src.inner().snapshot().retries(), 1, "second read was a cache hit");
        let snap = src.snapshot();
        assert_eq!(snap.cache_hits(), 1);
        assert_eq!(snap.retries(), 1);
    }

    #[test]
    fn registry_bound_retries_show_in_registry_snapshot() {
        let reg = Registry::new();
        let plan = FaultPlan::new(19).transient_every(1, 1);
        let faulty = FaultySource::with_registry(MemorySource::new(blocks(1)), plan, &reg);
        let src = RetryingSource::with_registry(faulty, fast_policy(2), &reg);
        src.read_region(0).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.retries(), 1);
        assert_eq!(snap.faults_injected(), 1);
    }
}
