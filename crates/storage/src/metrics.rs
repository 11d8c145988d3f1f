//! IO accounting shared by all training-data sources.
//!
//! The paper's efficiency claims are stated in *scans over the entire
//! training data* (naive tree ≈ `l·m` scans, RF tree = `l`, single-scan
//! cube = 1). These counters let integration tests assert the claims
//! exactly, independent of wall-clock noise.
//!
//! [`IoStats`] is a thin bundle of [`Counter`] handles that a source
//! owns. Constructed via [`IoStats::in_registry`] the handles are bound
//! to the canonical [`names`] entries of a shared [`Registry`], so a
//! source's own books and the workspace-wide metrics see the *same*
//! atomics. Values are read through the source's
//! `TrainingSource::snapshot`.

use bellwether_obs::{names, Counter, MetricsSnapshot, Registry};

/// Thread-safe IO counters of one source.
#[derive(Debug, Default)]
pub struct IoStats {
    regions_read: Counter,
    bytes_read: Counter,
    examples_read: Counter,
    corrupt_blocks: Counter,
}

impl IoStats {
    /// Counters bound to the canonical `storage/*` entries of `reg`:
    /// every read recorded here is visible in `reg.snapshot()` too.
    pub fn in_registry(reg: &Registry) -> IoStats {
        IoStats {
            regions_read: reg.counter(names::STORAGE_REGIONS_READ),
            bytes_read: reg.counter(names::STORAGE_BYTES_READ),
            examples_read: reg.counter(names::STORAGE_EXAMPLES_READ),
            corrupt_blocks: reg.counter(names::STORAGE_CORRUPT_BLOCKS),
        }
    }

    /// Record one region read of `bytes` bytes and `examples` examples.
    pub fn record_region_read(&self, bytes: u64, examples: u64) {
        self.regions_read.inc();
        self.bytes_read.add(bytes);
        self.examples_read.add(examples);
    }

    /// Record one region block that failed checksum (or structural)
    /// validation.
    pub fn record_corrupt_block(&self) {
        self.corrupt_blocks.inc();
    }

    /// Point-in-time copy of the counters under their canonical names.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                (names::STORAGE_REGIONS_READ.to_string(), self.regions_read.get()),
                (names::STORAGE_BYTES_READ.to_string(), self.bytes_read.get()),
                (
                    names::STORAGE_EXAMPLES_READ.to_string(),
                    self.examples_read.get(),
                ),
                (
                    names::STORAGE_CORRUPT_BLOCKS.to_string(),
                    self.corrupt_blocks.get(),
                ),
            ],
            gauges: Vec::new(),
            spans: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let s = IoStats::default();
        s.record_region_read(100, 10);
        s.record_region_read(50, 5);
        let snap = s.snapshot();
        assert_eq!(snap.regions_read(), 2);
        assert_eq!(snap.bytes_read(), 150);
        assert_eq!(snap.examples_read(), 15);
        assert!((snap.scan_equivalents(4) - 0.5).abs() < 1e-12);
        assert_eq!(IoStats::default().snapshot().scan_equivalents(0), 0.0);
    }

    #[test]
    fn registry_bound_stats_share_atomics() {
        let reg = Registry::shared();
        let io = IoStats::in_registry(&reg);
        io.record_region_read(64, 4);
        let snap = reg.snapshot();
        assert_eq!(snap.regions_read(), 1);
        assert_eq!(snap.bytes_read(), 64);
        assert_eq!(snap.examples_read(), 4);
        // The source's own view agrees with the registry view.
        assert_eq!(io.snapshot().regions_read(), 1);
    }

    #[test]
    fn shared_across_threads() {
        let s = IoStats::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.record_region_read(1, 1);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().regions_read(), 4000);
    }
}
