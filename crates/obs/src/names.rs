//! Canonical metric names shared across the workspace.
//!
//! Counters and spans are addressed by string name; these constants keep
//! the storage readers, the CUBE kernel and the search/tree/cube
//! builders pointing at the same entries so a single [`crate::Registry`]
//! sees the whole pipeline.

/// Region reads performed by a training source.
pub const STORAGE_REGIONS_READ: &str = "storage/regions_read";
/// Bytes read by a training source.
pub const STORAGE_BYTES_READ: &str = "storage/bytes_read";
/// Training examples read by a training source.
pub const STORAGE_EXAMPLES_READ: &str = "storage/examples_read";
/// Region reads served from the decoded-block cache.
pub const STORAGE_CACHE_HITS: &str = "storage/cache_hits";
/// Region reads the decoded-block cache had to forward to its inner
/// source.
pub const STORAGE_CACHE_MISSES: &str = "storage/cache_misses";
/// Decoded blocks evicted by the cache's byte budget.
pub const STORAGE_CACHE_EVICTIONS: &str = "storage/cache_evictions";
/// Stale cached blocks a `CachedSource::replace_regions` call replaced
/// with the blocks an append wrote (the dirty regions that were cached).
pub const STORAGE_CACHE_INVALIDATIONS: &str = "storage/cache_invalidations";
/// Region reads retried after a transient failure.
pub const STORAGE_RETRIES: &str = "storage/retries";
/// Region blocks whose checksum (or structure) failed validation.
pub const STORAGE_CORRUPT_BLOCKS: &str = "storage/corrupt_blocks";
/// Faults injected by a `FaultySource` (transient errors, corruption,
/// latency).
pub const STORAGE_FAULTS_INJECTED: &str = "storage/faults_injected";

/// Span, one per append that wrote blocks, inside
/// `stream/append/publish`: writing the replacement blocks into the
/// overlay file (buffered; the commit makes them durable).
pub const STORAGE_APPEND_WRITE: &str = "storage/append_write";
/// Span, one per append that wrote blocks, inside
/// `stream/append/publish`: closing the overlay file and committing it
/// (flush, fsync, link under its final name, unlink of the temporary
/// name, directory fsync), which publishes the generation.
pub const STORAGE_APPEND_COMMIT: &str = "storage/append_commit";
/// Span, one per append, inside `stream/append/publish`: a sharded
/// source adopting the generation the append published.
pub const STORAGE_REFRESH: &str = "storage/refresh";

/// Region indices dropped by a `SkipUnreadable` scan policy.
pub const SCAN_REGIONS_SKIPPED: &str = "scan/regions_skipped";

/// Shard files opened through a sharded manifest.
pub const SHARD_SHARDS_OPENED: &str = "shard/shards_opened";
/// Sorted state runs the external CUBE pass spilled to temp files.
pub const SHARD_SPILLS: &str = "shard/spills";
/// Bytes written to external-CUBE spill files.
pub const SHARD_SPILL_BYTES: &str = "shard/spill_bytes";
/// Runs (spilled + resident) k-way-merged by the external CUBE pass.
pub const SHARD_RUNS_MERGED: &str = "shard/runs_merged";

/// Fact rows scanned by the CUBE pass (phase 1).
pub const CUBE_PASS_ROWS_SCANNED: &str = "cube_pass/rows_scanned";
/// Distinct base cells after phase-1 merging.
pub const CUBE_PASS_BASE_CELLS: &str = "cube_pass/base_cells";
/// Cell-state merge operations (phase 1b + phase 2).
pub const CUBE_PASS_CELL_MERGES: &str = "cube_pass/cell_merges";
/// Non-empty regions emitted by the rollup.
pub const CUBE_PASS_REGIONS_EMITTED: &str = "cube_pass/regions_emitted";

/// Span, one per pass: the rollup's own time. The rollup walks the base
/// cells in batches as the k-way merge hands them over, and this clock
/// runs only while a batch is walked, never while the merge makes the
/// next one: it and `cube_pass/external_merge` are self-times that add
/// up, neither nested in the other.
pub const CUBE_PASS_PHASE2_ROLLUP: &str = "cube_pass/phase2_rollup";
/// Span, one per rollup worker, inside `cube_pass/phase2_rollup`: merging
/// base cells into the running tables.
pub const CUBE_PASS_PHASE2_WALK: &str = "cube_pass/phase2_rollup/phase2_walk";
/// Span, one per rollup worker, inside `cube_pass/phase2_rollup`:
/// finishing tables into the per-item feature vectors of the regions
/// they stand for.
pub const CUBE_PASS_PHASE2_FINISH: &str = "cube_pass/phase2_rollup/phase2_finish";
/// Span, one per pass that merges runs: the k-way merge's own time,
/// summed over every segment the rollup pulls from it (read-back and
/// decode included, the rollup's batches not).
pub const CUBE_PASS_EXTERNAL_MERGE: &str = "cube_pass/external_merge";
/// Span, one per merge, inside `cube_pass/external_merge`: reading
/// spilled runs back and decoding their frames.
pub const CUBE_PASS_EXTERNAL_DECODE: &str = "cube_pass/external_decode";

/// Candidate regions examined by the basic search.
pub const SEARCH_REGIONS_EVALUATED: &str = "search/regions_evaluated";
/// Regions that passed all constraints and fit a model.
pub const SEARCH_REPORTS: &str = "search/reports";

/// Linear-model fits performed by the algebraic error engine.
pub const LINREG_FITS: &str = "linreg/fits";
/// Cross-validation folds whose held-out RMSE was evaluated.
pub const LINREG_CV_FOLDS: &str = "linreg/cv_folds_evaluated";
/// Fits that needed a ridge to rescue a degenerate Gram matrix.
pub const LINREG_RIDGE_RESCUES: &str = "linreg/ridge_rescues";
/// Region evaluations served entirely from warm scratch buffers
/// (no heap allocation).
pub const LINREG_SCRATCH_REUSES: &str = "linreg/scratch_reuses";
/// Region evaluations that had to grow a scratch buffer (allocation;
/// expected only during warm-up).
pub const LINREG_SCRATCH_GROWS: &str = "linreg/scratch_grows";

/// Nodes constructed by a bellwether tree builder.
pub const TREE_NODES: &str = "tree/nodes";
/// Block rows the RainForest level scans split among a level's nodes:
/// every row of every block read, once per level scan — `scans × Σ rows`,
/// a level being scanned if it is the root's or one of its nodes may
/// split.
pub const TREE_ROWS_ROUTED: &str = "tree/rows_routed";
/// Statistic slots one RainForest scan worker holds at the tree's widest
/// level (a node's total plus one bucket per child or threshold
/// interval of each attribute with a candidate), each
/// `1 + p + p(p+1)/2` floats: Lemma 1's in-memory `MinError` table.
/// Absent under cross-validation, which scores gathered rows.
pub const TREE_STAT_SLOTS: &str = "tree/stat_slots";
/// Slot additions of the RainForest level scans: per block row of a
/// node's item, one per attribute with a candidate — however many
/// candidates those attributes carry — and at the root one for the
/// node's total.
pub const TREE_SLOT_ADDS: &str = "tree/slot_adds";
/// Cells emitted by a bellwether cube builder.
pub const CUBE_CELLS: &str = "cube/cells_emitted";
/// CV folds that produced a usable predictor in `evaluate_method`.
pub const PREDICT_FOLDS: &str = "predict/folds";
/// Individual item predictions scored by `evaluate_method`.
pub const PREDICT_PREDICTIONS: &str = "predict/predictions";

/// HTTP requests handled by a prediction server (all endpoints).
pub const SERVE_REQUESTS: &str = "serve/requests";
/// Prediction batches (one `/predict` request = one batch).
pub const SERVE_BATCHES: &str = "serve/batches";
/// Individual predictions answered by `/predict` batches.
pub const SERVE_PREDICTIONS: &str = "serve/predictions";
/// Requests answered with an error status (4xx/5xx), plus connections
/// dropped mid-request.
pub const SERVE_ERRORS: &str = "serve/errors";
/// TCP connections accepted by a prediction server.
pub const SERVE_CONNECTIONS: &str = "serve/connections";
/// Gauge: p50 request latency in microseconds (set on `/metrics`).
pub const SERVE_LATENCY_P50_US: &str = "serve/latency_p50_us";
/// Gauge: p99 request latency in microseconds (set on `/metrics`).
pub const SERVE_LATENCY_P99_US: &str = "serve/latency_p99_us";
/// Gauge: connections queued for a worker right now.
pub const SERVE_QUEUE_DEPTH: &str = "serve/queue_depth";
/// Connections rejected with 503 because the worker queue was full.
pub const SERVE_REJECTED_BUSY: &str = "serve/rejected_busy";
/// Model snapshots hot-swapped into a live server via `POST /reload`.
pub const SERVE_RELOADS: &str = "serve/reloads";
/// Gauge: seconds since the server started (set on `/metrics`).
pub const SERVE_UPTIME_SECONDS: &str = "serve/uptime_seconds";

/// Fact-row append batches applied to a streaming engine.
pub const STREAM_APPENDS: &str = "stream/appends";
/// Candidate regions whose sufficient statistics changed under an
/// append (the dirty set).
pub const STREAM_REGIONS_DIRTIED: &str = "stream/regions_dirtied";
/// Dirty regions of the whole region space whose retained rollup state
/// took an append's cells as a suffix (the delta cube's fast path).
pub const STREAM_REGIONS_EXTENDED: &str = "stream/regions_extended";
/// Dirty regions the delta cube re-aggregated from every base cell they
/// cover (re-appended weeks, back-fills, time as a minor dimension). A
/// stream whose appends arrive in time order keeps this at zero.
pub const STREAM_REGIONS_REBUILT: &str = "stream/regions_rebuilt";
/// Dirty regions actually re-scored after an append (dirty minus the
/// over-budget candidates the search would never read).
pub const STREAM_REGIONS_RESCORED: &str = "stream/regions_rescored";
/// Bellwether drift events: appends after which the argmin region
/// flipped.
pub const STREAM_DRIFT_EVENTS: &str = "stream/drift_events";
/// Span, one per `StreamingBellwether::append` call: the whole append.
pub const STREAM_APPEND: &str = "stream/append";
/// Span inside `stream/append`: folding the rows into the delta cube.
pub const STREAM_APPEND_DELTA_CUBE: &str = "stream/append/delta_cube";
/// Span inside `stream/append`: assembling the dirty candidates'
/// training blocks.
pub const STREAM_APPEND_BLOCK_BUILD: &str = "stream/append/block_build";
/// Span inside `stream/append`: writing the blocks as a new generation,
/// adopting it and seeding the cache with them (the `storage/append_*`
/// and `storage/refresh` spans run inside it).
pub const STREAM_APPEND_PUBLISH: &str = "stream/append/publish";
/// Span inside `stream/append`: re-scoring the dirty candidates.
pub const STREAM_APPEND_RESCORE: &str = "stream/append/rescore";

/// Worker processes (or simulated workers) spawned by a coordinator,
/// including restarts.
pub const COORD_WORKERS_SPAWNED: &str = "coord/workers_spawned";
/// Workers respawned after a transport incident (crash, timeout,
/// corrupt frame).
pub const COORD_WORKER_RESTARTS: &str = "coord/worker_restarts";
/// Transport incidents classified as worker death (closed stream).
pub const COORD_WORKER_CRASHES: &str = "coord/worker_crashes";
/// Transport incidents classified as missed reply deadlines.
pub const COORD_WORKER_TIMEOUTS: &str = "coord/worker_timeouts";
/// Frames rejected by the coordinator's checksum/structure validation.
pub const COORD_CORRUPT_FRAMES: &str = "coord/corrupt_frames";
/// Request frames sent to workers.
pub const COORD_FRAMES_SENT: &str = "coord/frames_sent";
/// Response frames received and validated from workers.
pub const COORD_FRAMES_RECEIVED: &str = "coord/frames_received";
/// Region reads served through the coordinator.
pub const COORD_READS: &str = "coord/reads";
/// Shards declared dead after their restart budget was exhausted.
pub const COORD_SHARDS_DEAD: &str = "coord/shards_dead";
/// Heartbeat pings acknowledged by workers.
pub const COORD_HEARTBEATS: &str = "coord/heartbeats";
