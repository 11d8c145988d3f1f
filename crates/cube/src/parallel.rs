//! Shared parallelism configuration.
//!
//! One small knob consumed by every multi-threaded code path in the
//! workspace — the CUBE-pass kernel, the basic bellwether search, the
//! tree/cube builders' region scans, and training-data materialisation —
//! so thread budgets are decided in one place instead of per-call-site
//! hardcoded caps.
//!
//! **Determinism policy:** no algorithm in this workspace may let the
//! thread count influence its output. Work is split into fixed-size
//! chunks whose partial results are combined in a fixed order, so any
//! `Parallelism` produces bit-identical results (see `cube_pass` and
//! `bellwether_core`'s `scan_regions`).
//!
//! **Small-input fallback:** spawning a thread costs tens of
//! microseconds; on inputs where each extra worker would own fewer than
//! [`Parallelism::min_chunk`] work items the kernels run sequentially
//! instead. This is what keeps `threads=4` from being *slower* than
//! `threads=1` on tiny inputs (a CUBE-pass regression this knob was
//! introduced to fix).

/// Default [`Parallelism::min_chunk`]: each extra worker must own at
/// least this many work items (row chunks, regions, …) before a thread
/// is worth spawning.
pub const DEFAULT_MIN_CHUNK: usize = 16;

/// Thread-budget configuration for parallel kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Upper bound on worker threads; `None` uses the hardware
    /// parallelism reported by the OS.
    pub max_threads: Option<usize>,
    /// Minimum number of work items (rows-chunks, regions, …) each
    /// worker must receive before an extra thread is worth spawning.
    /// Inputs with fewer than `2 * min_chunk` items always run
    /// sequentially — the small-input fallback. Must be ≥ 1; config
    /// builders reject 0.
    pub min_chunk: usize,
}

impl Default for Parallelism {
    /// Hardware parallelism, honouring a `BW_THREADS` environment
    /// override (useful for benchmarking thread-scaling matrices).
    fn default() -> Self {
        let max_threads = std::env::var("BW_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0);
        Parallelism {
            max_threads,
            min_chunk: DEFAULT_MIN_CHUNK,
        }
    }
}

impl Parallelism {
    /// Force single-threaded execution.
    pub fn sequential() -> Self {
        Parallelism {
            max_threads: Some(1),
            min_chunk: DEFAULT_MIN_CHUNK,
        }
    }

    /// Exactly `n` worker threads (clamped to ≥ 1), regardless of the
    /// hardware count, still subject to the small-input fallback. Used
    /// by the thread-scaling benches.
    pub fn fixed(n: usize) -> Self {
        Parallelism {
            max_threads: Some(n.max(1)),
            min_chunk: DEFAULT_MIN_CHUNK,
        }
    }

    /// Builder-style minimum work items per worker (the sequential
    /// fallback threshold). Tests that must exercise real threading on
    /// tiny fixtures set this to 1.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` — a zero threshold would divide work into
    /// nothing; [`crate::Parallelism::min_chunk`] is validated again by
    /// the config builders for the field-assignment path.
    pub fn with_min_chunk(mut self, n: usize) -> Self {
        assert!(n > 0, "Parallelism::min_chunk must be >= 1");
        self.min_chunk = n;
        self
    }

    /// The number of worker threads to use for `work_items` independent
    /// pieces of work: capped by hardware, by `max_threads`, and by the
    /// work available (`work_items / min_chunk`). Always at least 1.
    pub fn threads_for(&self, work_items: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
        let cap = self.max_threads.map_or(hw, |m| m.max(1));
        let by_work = work_items / self.min_chunk.max(1);
        cap.min(by_work).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_one_thread() {
        assert_eq!(Parallelism::sequential().threads_for(1_000_000), 1);
    }

    #[test]
    fn fixed_overrides_hardware() {
        assert_eq!(Parallelism::fixed(4).threads_for(1_000_000), 4);
        assert_eq!(Parallelism::fixed(0).threads_for(10 * DEFAULT_MIN_CHUNK), 1);
    }

    #[test]
    fn work_bounds_threads() {
        let p = Parallelism::fixed(8).with_min_chunk(1);
        assert_eq!(p.threads_for(3), 3);
        assert_eq!(p.threads_for(0), 1);
    }

    #[test]
    fn min_chunk_throttles() {
        let p = Parallelism::fixed(8).with_min_chunk(100);
        assert_eq!(p.threads_for(250), 2);
        assert_eq!(p.threads_for(99), 1);
    }

    #[test]
    fn default_min_chunk_is_sequential_fallback() {
        // Fewer than 2*min_chunk items → a second worker would own less
        // than min_chunk → sequential, even at fixed(4).
        let p = Parallelism::fixed(4);
        assert_eq!(p.threads_for(DEFAULT_MIN_CHUNK * 2 - 1), 1);
        assert_eq!(p.threads_for(DEFAULT_MIN_CHUNK * 2), 2);
        assert_eq!(p.threads_for(DEFAULT_MIN_CHUNK * 64), 4);
    }

    #[test]
    #[should_panic(expected = "min_chunk must be >= 1")]
    fn zero_min_chunk_rejected() {
        let _ = Parallelism::fixed(2).with_min_chunk(0);
    }
}
