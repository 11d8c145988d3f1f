//! # bellwether-storage
//!
//! Region-partitioned storage for the *entire training data* — the
//! training sets of all feasible regions that every scan-based algorithm
//! in the paper (RF bellwether tree, single-scan/optimized bellwether
//! cube) iterates over.
//!
//! Two [`TrainingSource`] implementations share one trait and one IO
//! accounting scheme:
//!
//! * [`MemorySource`] — in-memory blocks, for the quality experiments;
//! * [`DiskSource`] — a positioned-read binary file with a trailing
//!   index, written by [`TrainingWriter`], for the efficiency
//!   experiments where every region request must hit disk.
//!
//! Each source's [`IoStats`] counters record region reads, bytes and
//! examples, so tests can assert the paper's scan-count lemmas (naive
//! tree ≈ `l·m` scans, RF tree = `l`, single-scan cube = 1) exactly.
//! Every count — a source's and each wrapper's — is read through
//! [`TrainingSource::snapshot`] (a `bellwether_obs` `MetricsSnapshot`),
//! and nothing else; opening or wrapping a source `with_registry` binds
//! its counters into a shared observability registry as well.
//!
//! [`CachedSource`] wraps any source with a byte-budgeted LRU cache of
//! decoded blocks, so the multi-scan algorithms stop re-decoding the
//! regions they revisit; cache hits bypass (and are not counted by) the
//! inner source.
//!
//! ## Fault tolerance
//!
//! The on-disk format checksums every block (CRC-32, format v2, the only
//! version read), so rot surfaces as a structured
//! [`CorruptBlock`](format::CorruptBlock) error instead of silently
//! decoding garbage. [`RetryingSource`] retries transient read failures
//! under a validated [`RetryPolicy`]; [`FaultySource`] injects
//! deterministic, seeded faults (via [`FaultPlan`]) so every recovery
//! path is testable without real hardware faults. The wrappers compose:
//! `CachedSource<RetryingSource<FaultySource<DiskSource>>>` behaves like
//! a flaky disk behind a retry layer behind a cache.
//!
//! ```
//! use bellwether_storage::{MemorySource, RegionBlock, TrainingSource};
//!
//! let mut block = RegionBlock::new(vec![0, 0], 2);
//! block.push(1, &[1.0, 2.0], 3.0);
//! let src = MemorySource::new(vec![block]);
//! let read = src.read_region(0).unwrap();
//! assert_eq!(read.n(), 1);
//! assert_eq!(src.snapshot().regions_read(), 1);
//! ```

#![warn(missing_docs)]
// One module holds the workspace's only `unsafe` (`crc32::clmul`, which
// opts back in); everywhere else in this crate it stays an error, and
// every block there must say why it is sound.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod atomic;
pub mod block;
pub mod cache;
pub mod codec;
pub mod crc32;
pub mod fault;
pub mod format;
pub mod metrics;
pub mod reader;
pub mod retry;
pub mod shard;
pub mod snapshot;
pub mod source;
pub mod writer;

pub use atomic::AtomicFile;
pub use block::RegionBlock;
pub use cache::CachedSource;
pub use fault::{FaultPlan, FaultySource};
pub use format::{is_corrupt, CorruptBlock};
pub use metrics::IoStats;
pub use reader::DiskSource;
pub use retry::{RetryPolicy, RetryPolicyBuilder, RetryingSource};
pub use shard::{
    even_shard_plan, overlay_file_name, shard_file_name, AppendCommit, LayoutView, MemberWriter,
    OverlayMeta, PipelinedAppend, ShardAppender, ShardManifest, ShardMeta, ShardedSource,
    ShardedWriter, MANIFEST_NAME,
};
pub use snapshot::{Section, SnapshotFile, SnapshotWriter, SNAPSHOT_VERSION};
pub use source::{MemorySource, TrainingSource};
pub use writer::TrainingWriter;
