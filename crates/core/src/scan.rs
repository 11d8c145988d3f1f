//! The shared region-scan engine: one scan idiom for every algorithm
//! that folds per-region statistics over the entire training data.
//!
//! Every builder in this crate — basic search, both bellwether trees,
//! all three bellwether cubes — at its core runs
//! `for idx in 0..source.num_regions() { fold(read_region(idx)) }`.
//! The statistics those folds accumulate are *mergeable* in the sense
//! of the paper's Lemma 1 / Theorem 1 and the RainForest framework:
//! `MinError[v, c, p]` merges by `min`, best-region choices merge by
//! keeping the smaller error, `RegSuffStats` merges by component-wise
//! addition. [`scan_regions`] exploits that: it shards `0..num_regions`
//! into contiguous per-worker chunks under a [`Parallelism`] budget,
//! folds each chunk into its own accumulator on a scoped thread, then
//! merges the partials **in ascending chunk order**.
//!
//! # Determinism
//!
//! The merge is exact, not approximate, and the thread count never
//! changes output bits (the workspace-wide policy of
//! `bellwether_cube::parallel`):
//!
//! * chunk boundaries depend only on `num_regions` and the thread
//!   count chosen by [`Parallelism::threads_for`] — never on timing;
//! * each worker folds its indices in ascending order, exactly as the
//!   sequential loop would;
//! * partials merge in ascending chunk order, so an accumulator whose
//!   `merge` keeps `self` on ties (strict `<` comparisons) reproduces
//!   the sequential scan's lowest-index-wins tie-breaking bit for bit.
//!
//! The sequential fallback ([`Parallelism::min_chunk`]) makes tiny
//! inputs skip thread spawning entirely; the fallback runs the very
//! same fold closure over the same indices in the same order.
//!
//! # Sharded sources: the two-level merge
//!
//! When the source is shard-partitioned
//! ([`TrainingSource::shard_starts`] returns the contiguous shard
//! boundaries, e.g. `bellwether_storage::ShardedSource`), the engine
//! aligns its chunks to those boundaries: shards are scanned one after
//! another in ascending order, each shard's regions are chunked across
//! the worker budget, and every partial — within-shard chunks first,
//! then whole shards — merges in ascending index order. A chunk never
//! spans a shard boundary, so each worker's reads stay inside one shard
//! file (one page-cache/fault domain at a time), while the merge is the
//! very same ascending-contiguous-range discipline as the flat scan.
//! By the [`MergeableAccumulator`] contract the result is therefore
//! bit-identical at **any shard × thread combination**, including the
//! unsharded scan of the same regions.

use crate::error::{BellwetherError, Result};
use bellwether_cube::parallel::fork_join;
use bellwether_cube::Parallelism;
use bellwether_obs::{names, Recorder};
use bellwether_storage::{RegionBlock, TrainingSource};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A per-scan statistic that can be merged across contiguous index
/// ranges without changing the result of a sequential fold.
///
/// Implementations must satisfy: folding regions `lo..hi` into one
/// accumulator equals folding `lo..mid` and `mid..hi` separately and
/// then calling `self.merge(later)` on the earlier accumulator. For
/// tie-broken statistics (best region by error), "equals" includes the
/// tie-breaking: `merge` receives partials from strictly later region
/// indices, so keeping `self` on ties preserves lowest-index-wins.
pub trait MergeableAccumulator: Send {
    /// Fold `later` — the accumulator of a strictly later contiguous
    /// index range — into `self`.
    fn merge(&mut self, later: Self);
}

/// Best region by error with the sequential scan's tie-breaking: the
/// *earliest* index achieving the minimum wins (strict `<` updates).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BestRegion(pub Option<(usize, f64)>);

impl BestRegion {
    /// Consider `(idx, err)`; keeps the current winner on ties (strict
    /// `<`, the sequential builders' update rule). Callers must observe
    /// indices in ascending order (as `scan_regions`' fold does).
    pub fn observe(&mut self, idx: usize, err: f64) {
        match self.0 {
            Some((_, best)) => {
                if err < best {
                    self.0 = Some((idx, err));
                }
            }
            None => self.0 = Some((idx, err)),
        }
    }
}

impl MergeableAccumulator for BestRegion {
    fn merge(&mut self, later: Self) {
        if let Some((idx, err)) = later.0 {
            match self.0 {
                Some((_, best)) if err < best => self.0 = Some((idx, err)),
                None => self.0 = Some((idx, err)),
                _ => {}
            }
        }
    }
}

/// Concatenation accumulator: per-region rows collected in scan order.
/// Valid because `scan_regions` merges partials in ascending chunk
/// order, so the concatenated vector equals the sequential scan's.
#[derive(Debug, Clone, PartialEq)]
pub struct Concat<T>(pub Vec<T>);

impl<T> Default for Concat<T> {
    fn default() -> Self {
        Concat(Vec::new())
    }
}

impl<T: Send> MergeableAccumulator for Concat<T> {
    fn merge(&mut self, later: Self) {
        self.0.extend(later.0);
    }
}

impl<A: MergeableAccumulator> MergeableAccumulator for Vec<A> {
    /// Element-wise merge of parallel per-slot accumulators (e.g. one
    /// [`BestRegion`] per candidate subset). Lengths must match — every
    /// worker builds its vector from the same shared problem structure.
    fn merge(&mut self, later: Self) {
        assert_eq!(self.len(), later.len(), "accumulator arity mismatch");
        for (s, l) in self.iter_mut().zip(later) {
            s.merge(l);
        }
    }
}

/// Per-worker scratch carried alongside a scan accumulator: reusable
/// buffers whose contents never influence results, only their work
/// counters survive the merge.
pub trait ScanScratch: Send {
    /// Absorb a later worker's counters (buffers are simply dropped).
    fn absorb(&mut self, later: Self);
}

/// An accumulator bundled with per-worker [`ScanScratch`], so the fold
/// closure gets reusable evaluation buffers (zero heap allocation per
/// region after warm-up) without threading extra state through the scan
/// engine. Merging merges the accumulator exactly as before and absorbs
/// the scratch's counters in ascending chunk order — totals stay
/// deterministic at any thread count.
#[derive(Debug)]
pub struct WithScratch<A, S> {
    /// The real mergeable statistic.
    pub acc: A,
    /// Worker-local reusable buffers + work counters.
    pub scratch: S,
}

impl<A: MergeableAccumulator, S: ScanScratch> MergeableAccumulator for WithScratch<A, S> {
    fn merge(&mut self, later: Self) {
        self.acc.merge(later.acc);
        self.scratch.absorb(later.scratch);
    }
}

/// How a scan reacts to a region whose read fails (truncation,
/// corruption, IO error). Fold-function errors are *never* skippable —
/// only the read itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanPolicy {
    /// Fail fast: the first unreadable region aborts the scan with a
    /// [`BellwetherError::RegionRead`] naming the failing index.
    #[default]
    Strict,
    /// Skip unreadable regions and keep scanning, up to `max_skipped`
    /// of them; exceeding the budget aborts with
    /// [`BellwetherError::TooManyUnreadable`]. Every skipped index is
    /// reported exactly in [`Scanned::skipped`] — degraded results are
    /// always labelled with *what* they are missing.
    SkipUnreadable {
        /// Maximum unreadable regions tolerated across the whole scan.
        max_skipped: usize,
    },
}

/// The outcome of a policy-aware scan: the merged accumulator plus the
/// exact accounting of regions the policy dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Scanned<A> {
    /// The merged fold result over every region that was read.
    pub acc: A,
    /// Ascending indices of regions skipped as unreadable (always empty
    /// under [`ScanPolicy::Strict`]).
    pub skipped: Vec<usize>,
}

impl<A> Scanned<A> {
    /// Record the skip count under the canonical `scan/regions_skipped`
    /// counter.
    pub fn record_skipped(&self, rec: &dyn Recorder) {
        if !self.skipped.is_empty() {
            rec.add(names::SCAN_REGIONS_SKIPPED, self.skipped.len() as u64);
        }
    }
}

/// Merge one scan's skipped-region list into a builder's running
/// account, keeping it sorted and deduplicated (builders that scan more
/// than once may skip the same region repeatedly).
pub(crate) fn merge_skipped(into: &mut Vec<usize>, scan_skipped: &[usize]) {
    if scan_skipped.is_empty() {
        return;
    }
    into.extend_from_slice(scan_skipped);
    into.sort_unstable();
    into.dedup();
}

/// The contiguous `[lo, hi)` segments a scan processes one after
/// another: the source's shard ranges when it is shard-partitioned, a
/// single whole-range segment otherwise. Empty shards are dropped; a
/// malformed `shard_starts` (not starting at 0, descending, or past the
/// region count) falls back to the flat single segment rather than
/// corrupting the scan.
fn shard_segments(starts: Option<Vec<usize>>, n: usize) -> Vec<(usize, usize)> {
    if let Some(starts) = starts {
        let valid = !starts.is_empty()
            && starts[0] == 0
            && starts.windows(2).all(|w| w[0] <= w[1])
            && *starts.last().expect("non-empty") <= n;
        if valid {
            let mut segments = Vec::with_capacity(starts.len());
            for (i, &lo) in starts.iter().enumerate() {
                let hi = starts.get(i + 1).copied().unwrap_or(n);
                if lo < hi {
                    segments.push((lo, hi));
                }
            }
            if !segments.is_empty() {
                return segments;
            }
        }
    }
    vec![(0, n)]
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// string literal or a formatted message covers practically all of std
/// and this workspace).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Scan every region of `source` once, folding into accumulators
/// sharded by `par`, and return the in-order merge of the partials with
/// the exact account of what `policy` dropped.
///
/// Equivalent to
/// `let mut acc = init(); for idx in 0..n { fold(&mut acc, idx, &read(idx)?)? }`
/// — bit for bit, at any thread count. `fold` observes each region
/// index exactly once, in ascending order within its chunk. Regions
/// where `keep(idx)` is false are passed over *without being read*,
/// preserving the read counts (and disk IO) of callers that prune by
/// cost before touching data, like the budget check in `basic_search`;
/// a scan with nothing to prune passes `|_| true`.
///
/// This is the one scan entry point — pre-read filter, fault policy and
/// panic isolation — so the fault semantics are uniform and
/// thread-count-invariant:
///
/// * a worker panic (sequential or parallel — `catch_unwind` wraps the
///   chunk either way) surfaces as [`BellwetherError::WorkerPanic`]
///   with the worker's index and panic message — the process never
///   aborts;
/// * under [`ScanPolicy::Strict`], the lowest failing region index
///   aborts the scan as [`BellwetherError::RegionRead`] (errors merge
///   in ascending chunk order, and each chunk stops at its first
///   failure);
/// * under [`ScanPolicy::SkipUnreadable`], unreadable regions are
///   recorded and skipped; if more than `max_skipped` accumulate the
///   scan aborts with [`BellwetherError::TooManyUnreadable`] (a
///   parallel abort may report a higher skip count than the sequential
///   early-exit, but aborts in exactly the same situations);
/// * fold errors always abort — the policy only covers *reads*.
pub fn scan_regions<A, K, I, F>(
    source: &dyn TrainingSource,
    par: Parallelism,
    policy: ScanPolicy,
    keep: K,
    init: I,
    fold: F,
) -> Result<Scanned<A>>
where
    A: MergeableAccumulator,
    K: Fn(usize) -> bool + Sync,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize, &RegionBlock) -> Result<()> + Sync,
{
    let n = source.num_regions();
    let segments = shard_segments(source.shard_starts(), n);

    let run_chunk = |worker: usize, lo: usize, hi: usize| -> Result<Scanned<A>> {
        let caught = catch_unwind(AssertUnwindSafe(|| -> Result<Scanned<A>> {
            let mut acc = init();
            let mut skipped = Vec::new();
            for idx in lo..hi {
                if !keep(idx) {
                    continue;
                }
                match source.read_region(idx) {
                    Ok(block) => fold(&mut acc, idx, &block)?,
                    Err(source) => match policy {
                        ScanPolicy::Strict => {
                            return Err(BellwetherError::RegionRead { index: idx, source })
                        }
                        ScanPolicy::SkipUnreadable { max_skipped } => {
                            skipped.push(idx);
                            if skipped.len() > max_skipped {
                                return Err(BellwetherError::TooManyUnreadable {
                                    skipped: skipped.len(),
                                    max_skipped,
                                });
                            }
                        }
                    },
                }
            }
            Ok(Scanned { acc, skipped })
        }));
        caught.unwrap_or_else(|payload| {
            Err(BellwetherError::WorkerPanic {
                worker,
                message: panic_message(payload.as_ref()),
            })
        })
    };

    // Two-level merge: segments (shards, or the single whole range) are
    // scanned sequentially in ascending order; each segment's regions
    // are chunked across the worker budget and its partials merge in
    // ascending chunk order. Errors surface in the same order — the
    // earliest failing chunk of the earliest failing shard holds the
    // lowest failing index, exactly the sequential scan's first error.
    // Skipped indices concatenate ascending for the same reason.
    let mut merged: Option<A> = None;
    let mut skipped: Vec<usize> = Vec::new();
    for (seg_lo, seg_hi) in segments {
        let len = seg_hi - seg_lo;
        let threads = par.threads_for(len);
        let chunk = len.div_ceil(threads);
        let partials = fork_join(threads, |t| {
            let lo = seg_lo + t * chunk;
            run_chunk(t, lo, (lo + chunk).min(seg_hi))
        });
        for partial in partials {
            let part = partial?;
            skipped.extend(part.skipped);
            match merged.as_mut() {
                None => merged = Some(part.acc),
                Some(m) => m.merge(part.acc),
            }
        }
        if let ScanPolicy::SkipUnreadable { max_skipped } = policy {
            // Chunks bound their local counts; the running global
            // budget is checked after each shard, so an out-of-core
            // scan stops paying IO as soon as the budget is blown.
            if skipped.len() > max_skipped {
                return Err(BellwetherError::TooManyUnreadable {
                    skipped: skipped.len(),
                    max_skipped,
                });
            }
        }
    }
    Ok(Scanned {
        acc: merged.expect("shard_segments returns at least one segment"),
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_storage::MemorySource;

    fn source(n: usize) -> MemorySource {
        let blocks = (0..n as u32)
            .map(|r| {
                let mut b = RegionBlock::new(vec![r], 1);
                b.push(r as i64, &[r as f64], (r as f64) * 2.0);
                b
            })
            .collect();
        MemorySource::new(blocks)
    }

    fn par(threads: usize) -> Parallelism {
        Parallelism::fixed(threads).with_min_chunk(1)
    }

    /// The accumulator of a strict scan with nothing filtered: what a
    /// test of the merge itself wants.
    fn scan_all<A, I, F>(
        source: &dyn TrainingSource,
        par: Parallelism,
        init: I,
        fold: F,
    ) -> Result<A>
    where
        A: MergeableAccumulator,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, usize, &RegionBlock) -> Result<()> + Sync,
    {
        let scanned = scan_regions(source, par, ScanPolicy::Strict, |_| true, init, fold)?;
        assert!(scanned.skipped.is_empty(), "Strict never skips");
        Ok(scanned.acc)
    }

    /// The indices a scan visits when it may skip `max_skipped`
    /// unreadable regions, in visiting order.
    fn visited(
        source: &dyn TrainingSource,
        threads: usize,
        max_skipped: usize,
    ) -> Result<Scanned<Concat<usize>>> {
        let policy = ScanPolicy::SkipUnreadable { max_skipped };
        scan_regions(source, par(threads), policy, |_| true, Concat::default, |a, i, _| {
            a.0.push(i);
            Ok(())
        })
    }

    #[test]
    fn concat_preserves_scan_order_at_any_thread_count() {
        let src = source(23);
        let seq = scan_all(&src, par(1), Concat::default, |acc, idx, b| {
            acc.0.push((idx, b.region[0]));
            Ok(())
        })
        .unwrap();
        for threads in [2, 3, 4, 7, 23, 64] {
            let got = scan_all(&src, par(threads), Concat::default, |acc, idx, b| {
                acc.0.push((idx, b.region[0]));
                Ok(())
            })
            .unwrap();
            assert_eq!(got, seq, "threads={threads}");
        }
    }

    #[test]
    fn best_region_ties_break_to_lowest_index() {
        let src = source(10);
        // Every region reports the same error: index 0 must win at any
        // thread count (sequential strict-< semantics).
        for threads in [1, 2, 4, 7] {
            let best = scan_all(&src, par(threads), BestRegion::default, |acc, idx, _| {
                acc.observe(idx, 1.0);
                Ok(())
            })
            .unwrap();
            assert_eq!(best.0, Some((0, 1.0)), "threads={threads}");
        }
    }

    #[test]
    fn filter_skips_reads() {
        let src = source(10);
        let kept = scan_regions(
            &src,
            par(4),
            ScanPolicy::Strict,
            |idx| idx % 2 == 0,
            Concat::default,
            |acc, idx, _| {
                acc.0.push(idx);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(kept.acc.0, vec![0, 2, 4, 6, 8]);
        // Odd regions were never read.
        assert_eq!(src.snapshot().regions_read(), 5);
    }

    #[test]
    fn errors_surface_in_scan_order() {
        let src = source(12);
        let fail_at = |bad: usize| {
            scan_all(&src, par(4), Concat::<usize>::default, move |acc, idx, _| {
                if idx >= bad {
                    return Err(crate::error::BellwetherError::NotFound(format!(
                        "region {idx}"
                    )));
                }
                acc.0.push(idx);
                Ok(())
            })
        };
        let err = fail_at(5).unwrap_err();
        // The earliest failing index is reported even though later
        // chunks also failed.
        assert!(err.to_string().contains("region 5"), "got {err}");
    }

    #[test]
    fn worker_panics_are_isolated_at_any_thread_count() {
        let src = source(16);
        for threads in [1, 2, 4] {
            let err = scan_all(
                &src,
                par(threads),
                Concat::<usize>::default,
                |_, idx, _| {
                    if idx == 9 {
                        panic!("fold exploded on region {idx}");
                    }
                    Ok(())
                },
            )
            .expect_err("panic must surface as an error");
            match err {
                BellwetherError::WorkerPanic { worker, message } => {
                    assert!(message.contains("fold exploded on region 9"), "{message}");
                    // Region 9 lives in the panicking worker's chunk.
                    let chunk = 16usize.div_ceil(threads.max(1));
                    if threads > 1 {
                        assert_eq!(worker, 9 / chunk);
                    } else {
                        assert_eq!(worker, 0);
                    }
                }
                other => panic!("expected WorkerPanic, got {other}"),
            }
        }
    }

    #[test]
    fn strict_policy_names_the_lowest_failing_region() {
        // Regions 5 and 11 are permanently unreadable.
        let base = source(16);
        let corrupt = [5usize, 11];
        let faulty = FailOn::new(base, &corrupt);
        for threads in [1, 2, 4] {
            let err = scan_all(&faulty, par(threads), Concat::<usize>::default, |a, i, _| {
                a.0.push(i);
                Ok(())
            })
            .expect_err("strict scan must fail");
            match err {
                BellwetherError::RegionRead { index, .. } => {
                    assert_eq!(index, 5, "threads={threads}: lowest failing index")
                }
                other => panic!("expected RegionRead, got {other}"),
            }
        }
    }

    #[test]
    fn skip_policy_accounts_for_every_dropped_region() {
        let base = source(20);
        let corrupt = [3usize, 8, 15];
        let faulty = FailOn::new(base, &corrupt);
        let seq = visited(&faulty, 1, 5).unwrap();
        assert_eq!(seq.skipped, vec![3, 8, 15]);
        assert_eq!(seq.acc.0.len(), 17);
        assert!(!seq.acc.0.contains(&8));
        for threads in [2, 4, 7] {
            let got = visited(&faulty, threads, 5).unwrap();
            assert_eq!(got, seq, "threads={threads}");
        }
    }

    #[test]
    fn skip_budget_overflow_aborts() {
        let base = source(10);
        let corrupt = [1usize, 4, 7];
        let faulty = FailOn::new(base, &corrupt);
        for threads in [1, 2, 4] {
            let err = visited(&faulty, threads, 2)
                .expect_err("three failures exceed a budget of two");
            match err {
                BellwetherError::TooManyUnreadable {
                    skipped,
                    max_skipped,
                } => {
                    assert!(skipped > 2, "threads={threads}");
                    assert_eq!(max_skipped, 2);
                }
                other => panic!("expected TooManyUnreadable, got {other}"),
            }
        }
    }

    #[test]
    fn fold_errors_are_never_skipped() {
        let src = source(8);
        let err = scan_regions(
            &src,
            par(2),
            ScanPolicy::SkipUnreadable { max_skipped: 100 },
            |_| true,
            Concat::<usize>::default,
            |_, idx, _| {
                if idx == 3 {
                    return Err(crate::error::BellwetherError::NotFound("model".into()));
                }
                Ok(())
            },
        )
        .expect_err("fold errors abort regardless of policy");
        assert!(matches!(err, BellwetherError::NotFound(_)), "{err}");
    }

    /// Test-only source failing reads of chosen indices with a
    /// transient-looking error.
    struct FailOn {
        inner: Box<dyn TrainingSource>,
        bad: Vec<usize>,
    }

    impl FailOn {
        fn new(inner: impl TrainingSource + 'static, bad: &[usize]) -> Self {
            FailOn {
                inner: Box::new(inner),
                bad: bad.to_vec(),
            }
        }
    }

    impl TrainingSource for FailOn {
        fn num_regions(&self) -> usize {
            self.inner.num_regions()
        }

        fn feature_arity(&self) -> usize {
            self.inner.feature_arity()
        }

        fn region_coords(&self, idx: usize) -> &[u32] {
            self.inner.region_coords(idx)
        }

        fn read_region(&self, idx: usize) -> std::io::Result<std::sync::Arc<RegionBlock>> {
            if self.bad.contains(&idx) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unreadable region {idx}"),
                ));
            }
            self.inner.read_region(idx)
        }

        fn snapshot(&self) -> bellwether_obs::MetricsSnapshot {
            self.inner.snapshot()
        }

        fn record_corrupt_block(&self) {
            self.inner.record_corrupt_block();
        }

        fn shard_starts(&self) -> Option<Vec<usize>> {
            self.inner.shard_starts()
        }
    }

    /// Build the regions of `source(n)` split into `shards` contiguous
    /// [`MemorySource`]s behind one [`ShardedSource`].
    fn sharded_source(n: usize, shards: usize) -> bellwether_storage::ShardedSource {
        let blocks: Vec<RegionBlock> = (0..n as u32)
            .map(|r| {
                let mut b = RegionBlock::new(vec![r], 1);
                b.push(r as i64, &[r as f64], (r as f64) * 2.0);
                b
            })
            .collect();
        let mut parts: Vec<Box<dyn TrainingSource>> = Vec::new();
        let base = n / shards;
        let rem = n % shards;
        let mut it = blocks.into_iter();
        for s in 0..shards {
            let take = base + usize::from(s < rem);
            parts.push(Box::new(MemorySource::new(
                (&mut it).take(take).collect(),
            )));
        }
        bellwether_storage::ShardedSource::from_sources(parts).unwrap()
    }

    #[test]
    fn sharded_scan_is_bit_identical_to_flat_at_any_shard_thread_combo() {
        let flat = source(23);
        let fold = |acc: &mut Concat<(usize, u32)>, idx: usize, b: &RegionBlock| {
            acc.0.push((idx, b.region[0]));
            Ok(())
        };
        let expect = scan_all(&flat, par(1), Concat::default, fold).unwrap();
        for shards in [1usize, 2, 3, 4, 7] {
            let src = sharded_source(23, shards);
            assert_eq!(src.num_regions(), 23);
            for threads in [1usize, 2, 4] {
                let got = scan_all(&src, par(threads), Concat::default, fold).unwrap();
                assert_eq!(got, expect, "shards={shards} threads={threads}");
                let best =
                    scan_all(&src, par(threads), BestRegion::default, |acc, idx, _| {
                        acc.observe(idx, 1.0);
                        Ok(())
                    })
                    .unwrap();
                assert_eq!(best.0, Some((0, 1.0)), "tie-break across shards");
            }
        }
    }

    #[test]
    fn skip_policy_accounts_identically_across_shards() {
        let corrupt = [3usize, 8, 15];
        let seq = visited(&FailOn::new(source(20), &corrupt), 1, 5).unwrap();
        for shards in [2usize, 4] {
            for threads in [1usize, 2, 4] {
                // The fault wrapper sits *outside* the sharded view, so
                // the same global indices fail.
                let faulty = FailOn::new(sharded_source(20, shards), &corrupt);
                let got = visited(&faulty, threads, 5).unwrap();
                assert_eq!(got, seq, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn malformed_shard_starts_falls_back_to_flat() {
        assert_eq!(shard_segments(None, 10), vec![(0, 10)]);
        assert_eq!(shard_segments(Some(vec![0, 4, 8]), 10), vec![(0, 4), (4, 8), (8, 10)]);
        // Zero-width shards drop out.
        assert_eq!(shard_segments(Some(vec![0, 0, 5, 5]), 5), vec![(0, 5)]);
        // Malformed: doesn't start at 0 / descending / past n / empty.
        assert_eq!(shard_segments(Some(vec![1, 5]), 10), vec![(0, 10)]);
        assert_eq!(shard_segments(Some(vec![0, 6, 4]), 10), vec![(0, 10)]);
        assert_eq!(shard_segments(Some(vec![0, 11]), 10), vec![(0, 10)]);
        assert_eq!(shard_segments(Some(vec![]), 10), vec![(0, 10)]);
        // Empty source still yields one (empty) segment.
        assert_eq!(shard_segments(Some(vec![0]), 0), vec![(0, 0)]);
    }

    #[test]
    fn sequential_fallback_engages_below_min_chunk() {
        // 10 regions at default min_chunk (16): one thread even at
        // fixed(8); results unchanged either way.
        let src = source(10);
        assert_eq!(Parallelism::fixed(8).threads_for(src.num_regions()), 1);
    }
}
