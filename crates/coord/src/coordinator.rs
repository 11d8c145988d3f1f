//! The coordinator: one [`Transport`] per shard, presented to the scan
//! engine as a plain [`TrainingSource`].
//!
//! Determinism comes from a clean division of labour. The transport
//! layer is allowed to be messy — workers crash, hang, and corrupt
//! frames at times chosen by a seeded plan — but every region read
//! either eventually returns *the* canonical block bytes (checksummed
//! end to end: v2 block CRC inside a frame CRC) or fails with a
//! classified error after a bounded number of restarts. What the scan
//! engine then does with those blocks (`shard_starts()`-aligned
//! two-level merge in ascending shard order) is untouched, so a
//! coordinator-backed run is byte-identical to the in-process
//! `ShardedSource` path whenever every read succeeds, and degrades
//! through `ScanPolicy::SkipUnreadable` with exact per-region
//! accounting when a shard's restart budget is exhausted.

use crate::fault::WorkerFaultPlan;
use crate::frame::{decode_error_kind, Request, Response};
use crate::transport::{ProcessSpawner, SimSpawner, Transport, WorkerSpawner};
use bellwether_obs::{names, Counter, MetricsSnapshot, Registry};
use bellwether_storage::format::decode_block_v2;
use bellwether_storage::{
    IoStats, RegionBlock, RetryPolicy, ShardManifest, TrainingSource, MANIFEST_NAME,
};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Coordinator tuning: reply deadline + restart budget/backoff.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    deadline: Duration,
    restart_policy: RetryPolicy,
}

impl Default for CoordinatorConfig {
    /// 5 s reply deadline; default [`RetryPolicy`] restart budget
    /// (4 attempts, 1 ms base backoff doubling to 50 ms).
    fn default() -> Self {
        CoordinatorConfig {
            deadline: Duration::from_secs(5),
            restart_policy: RetryPolicy::default(),
        }
    }
}

impl CoordinatorConfig {
    /// Default config (5 s deadline, default restart policy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-reply deadline; a worker that misses it is treated as hung,
    /// killed, and restarted against the budget. Must be non-zero.
    pub fn deadline(mut self, d: Duration) -> io::Result<Self> {
        if d.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "coordinator deadline must be non-zero",
            ));
        }
        self.deadline = d;
        Ok(self)
    }

    /// Restart budget and backoff schedule for worker incidents.
    /// `max_attempts` bounds tries *per read* (spawn + exchange); the
    /// exponential backoff + deterministic jitter between restarts
    /// reuses the exact [`RetryPolicy`] math the storage layer uses for
    /// region-read retries.
    pub fn restart_policy(mut self, policy: RetryPolicy) -> Self {
        self.restart_policy = policy;
        self
    }
}

/// Coordinator-side counters, bound once to a registry.
struct CoordCounters {
    workers_spawned: Counter,
    worker_restarts: Counter,
    worker_crashes: Counter,
    worker_timeouts: Counter,
    corrupt_frames: Counter,
    frames_sent: Counter,
    frames_received: Counter,
    reads: Counter,
    shards_dead: Counter,
    heartbeats: Counter,
}

impl CoordCounters {
    fn in_registry(reg: &Registry) -> CoordCounters {
        CoordCounters {
            workers_spawned: reg.counter(names::COORD_WORKERS_SPAWNED),
            worker_restarts: reg.counter(names::COORD_WORKER_RESTARTS),
            worker_crashes: reg.counter(names::COORD_WORKER_CRASHES),
            worker_timeouts: reg.counter(names::COORD_WORKER_TIMEOUTS),
            corrupt_frames: reg.counter(names::COORD_CORRUPT_FRAMES),
            frames_sent: reg.counter(names::COORD_FRAMES_SENT),
            frames_received: reg.counter(names::COORD_FRAMES_RECEIVED),
            reads: reg.counter(names::COORD_READS),
            shards_dead: reg.counter(names::COORD_SHARDS_DEAD),
            heartbeats: reg.counter(names::COORD_HEARTBEATS),
        }
    }
}

/// One shard's worker slot: the live transport (if any), the spawn
/// count (= next incarnation), and whether the shard has been declared
/// dead after exhausting its restart budget.
struct WorkerSlot {
    transport: Option<Box<dyn Transport>>,
    spawns: u32,
    dead: bool,
}

/// Exit record for one worker after [`Coordinator::shutdown`].
#[derive(Debug, Clone)]
pub struct WorkerExit {
    /// Worker (= shard) index.
    pub worker: usize,
    /// Total spawns over the run (1 = never restarted).
    pub spawns: u32,
    /// Peak RSS the final incarnation reported in its `Bye`, if it
    /// exited gracefully.
    pub peak_rss_bytes: Option<u64>,
}

/// A multi-worker shard coordinator that implements [`TrainingSource`].
///
/// Region metadata (coordinates, counts) is collected once per worker
/// at handshake and verified against the manifest, so the scan engine's
/// metadata queries never touch a worker; only `read_region` crosses
/// the transport.
pub struct Coordinator {
    spawner: Box<dyn WorkerSpawner>,
    manifest: ShardManifest,
    starts: Vec<usize>,
    total: usize,
    coords_flat: Vec<u32>,
    arity: usize,
    index: HashMap<Vec<u32>, usize>,
    slots: Vec<Mutex<WorkerSlot>>,
    config: CoordinatorConfig,
    stats: IoStats,
    c: CoordCounters,
}

fn lock_slot(slot: &Mutex<WorkerSlot>) -> MutexGuard<'_, WorkerSlot> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

fn shard_files(dir: &Path, manifest: &ShardManifest) -> Vec<PathBuf> {
    manifest.shards.iter().map(|m| dir.join(&m.file)).collect()
}

impl Coordinator {
    /// Open the sharded dataset at `dir` and manage one OS process per
    /// shard, spawned from `bin` in `--worker` mode.
    pub fn spawn_processes(
        dir: &Path,
        bin: &Path,
        plan: WorkerFaultPlan,
        config: CoordinatorConfig,
    ) -> io::Result<Coordinator> {
        Self::spawn_processes_with_registry(dir, bin, plan, config, &Registry::new())
    }

    /// [`Self::spawn_processes`] with coordinator counters (and IO
    /// stats) bound into `reg`.
    pub fn spawn_processes_with_registry(
        dir: &Path,
        bin: &Path,
        plan: WorkerFaultPlan,
        config: CoordinatorConfig,
        reg: &Registry,
    ) -> io::Result<Coordinator> {
        let manifest = ShardManifest::read(&dir.join(MANIFEST_NAME))?;
        let files = shard_files(dir, &manifest);
        let spawner = ProcessSpawner::new(bin.to_path_buf(), files, plan);
        Self::connect(Box::new(spawner), manifest, config, reg)
    }

    /// Open the sharded dataset at `dir` with deterministic in-process
    /// simulated workers — the replayable fault-campaign mode.
    pub fn simulated(
        dir: &Path,
        plan: WorkerFaultPlan,
        config: CoordinatorConfig,
    ) -> io::Result<Coordinator> {
        Self::simulated_with_registry(dir, plan, config, &Registry::new())
    }

    /// [`Self::simulated`] with counters bound into `reg`.
    pub fn simulated_with_registry(
        dir: &Path,
        plan: WorkerFaultPlan,
        config: CoordinatorConfig,
        reg: &Registry,
    ) -> io::Result<Coordinator> {
        let manifest = ShardManifest::read(&dir.join(MANIFEST_NAME))?;
        let files = shard_files(dir, &manifest);
        let spawner = SimSpawner::new(files, plan);
        Self::connect(Box::new(spawner), manifest, config, reg)
    }

    /// Handshake every worker (with restarts against the budget) and
    /// assemble the global region index.
    pub fn connect(
        spawner: Box<dyn WorkerSpawner>,
        manifest: ShardManifest,
        config: CoordinatorConfig,
        reg: &Registry,
    ) -> io::Result<Coordinator> {
        if manifest.generation > 0 || !manifest.overlays.is_empty() {
            // Workers read base shard files directly and know nothing of
            // overlay redirects; serving an appended-over layout here
            // would silently resurrect the replaced blocks.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "coordinator does not serve appended-over layouts \
                     (manifest generation {}); run a compaction first",
                    manifest.generation
                ),
            ));
        }
        let c = CoordCounters::in_registry(reg);
        let stats = IoStats::in_registry(reg);
        let starts = manifest.shard_starts();
        let total = manifest.total_regions() as usize;

        let mut coords_flat = Vec::new();
        let mut arity = manifest.arity as usize;
        let mut slots = Vec::with_capacity(manifest.shards.len());

        for (w, meta) in manifest.shards.iter().enumerate() {
            let mut slot = WorkerSlot { transport: None, spawns: 0, dead: false };
            let info = Self::exchange_with_restarts(
                &*spawner,
                &mut slot,
                w,
                &config,
                &c,
                &Request::Hello,
            )
            .and_then(|resp| match resp {
                Response::ShardInfo(info) => Ok(info),
                other => Err(protocol_error(&other)),
            })?;
            if info.regions as u64 != meta.regions {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "worker {w} reports {} regions, manifest says {}",
                        info.regions, meta.regions
                    ),
                ));
            }
            if info.regions > 0 {
                if info.p != manifest.p || info.arity as usize != arity {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("worker {w} shard shape disagrees with manifest"),
                    ));
                }
                arity = info.arity as usize;
            }
            coords_flat.extend_from_slice(&info.coords);
            slots.push(Mutex::new(slot));
        }

        if coords_flat.len() != total * arity && total > 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "collected coordinates disagree with manifest region count",
            ));
        }

        let index = (0..total)
            .map(|i| (coords_flat[i * arity..(i + 1) * arity].to_vec(), i))
            .collect();

        Ok(Coordinator {
            spawner,
            manifest,
            starts,
            total,
            coords_flat,
            arity,
            index,
            slots,
            config,
            stats,
            c,
        })
    }

    /// The manifest this coordinator serves.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of workers (= shards).
    pub fn num_workers(&self) -> usize {
        self.slots.len()
    }

    /// Workers currently declared dead (restart budget exhausted).
    pub fn dead_workers(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&w| lock_slot(&self.slots[w]).dead)
            .collect()
    }

    /// Global region indices owned by worker `w` — the exact set a
    /// `SkipUnreadable` scan reports as skipped when this worker's
    /// budget is exhausted.
    pub fn regions_of_worker(&self, w: usize) -> std::ops::Range<usize> {
        let start = self.starts[w];
        let end = if w + 1 < self.starts.len() { self.starts[w + 1] } else { self.total };
        start..end
    }

    /// Spawn (or reuse) the slot's transport for its next incarnation.
    fn ensure_transport<'t>(
        spawner: &dyn WorkerSpawner,
        slot: &'t mut WorkerSlot,
        w: usize,
        c: &CoordCounters,
    ) -> io::Result<&'t mut Box<dyn Transport>> {
        if slot.transport.is_none() {
            let incarnation = slot.spawns;
            let t = spawner.spawn(w, incarnation)?;
            slot.spawns += 1;
            c.workers_spawned.inc();
            slot.transport = Some(t);
        }
        Ok(slot.transport.as_mut().expect("just ensured"))
    }

    /// One request/response exchange with restart-on-incident, the
    /// heart of the robustness layer. A transport incident (closed
    /// stream, missed deadline, corrupt frame) kills the incarnation,
    /// counts a restart, sleeps the policy's backoff (skipped under
    /// simulation), and retries until the budget is spent. A
    /// `ReadErr` response is *not* an incident: the worker is healthy
    /// and the error is returned to the caller as-is.
    fn exchange_with_restarts(
        spawner: &dyn WorkerSpawner,
        slot: &mut WorkerSlot,
        w: usize,
        config: &CoordinatorConfig,
        c: &CoordCounters,
        req: &Request,
    ) -> io::Result<Response> {
        let policy = &config.restart_policy;
        let mut attempt: u32 = 1;
        loop {
            let outcome = Self::ensure_transport(spawner, slot, w, c).and_then(|t| {
                c.frames_sent.inc();
                t.send(req)?;
                let resp = t.recv(config.deadline)?;
                c.frames_received.inc();
                Ok(resp)
            });
            match outcome {
                Ok(resp) => return Ok(resp),
                Err(err) => {
                    match err.kind() {
                        io::ErrorKind::TimedOut => c.worker_timeouts.inc(),
                        io::ErrorKind::InvalidData => c.corrupt_frames.inc(),
                        _ => c.worker_crashes.inc(),
                    }
                    if let Some(mut t) = slot.transport.take() {
                        t.terminate();
                    }
                    if attempt >= policy.max_attempts() {
                        slot.dead = true;
                        c.shards_dead.inc();
                        return Err(io::Error::other(format!(
                            "worker {w} restart budget exhausted after {attempt} attempts: {err}"
                        )));
                    }
                    let backoff = policy.backoff_for(w, attempt);
                    if !spawner.is_simulated() && !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    c.worker_restarts.inc();
                    attempt += 1;
                }
            }
        }
    }

    /// Ping every live worker once; returns the number that answered.
    /// Workers that miss the deadline are terminated and charged a
    /// restart on their next read, exactly like a read incident.
    pub fn heartbeat(&self) -> usize {
        let mut alive = 0;
        for (w, slot) in self.slots.iter().enumerate() {
            let mut slot = lock_slot(slot);
            if slot.dead {
                continue;
            }
            let Some(t) = slot.transport.as_mut() else { continue };
            let nonce = 0x4845_4152_5442_4541u64 ^ (w as u64);
            self.c.frames_sent.inc();
            let ok = t
                .send(&Request::Ping { nonce })
                .and_then(|()| t.recv(self.config.deadline))
                .map(|resp| matches!(resp, Response::Pong { nonce: n } if n == nonce))
                .unwrap_or(false);
            if ok {
                self.c.frames_received.inc();
                self.c.heartbeats.inc();
                alive += 1;
            } else {
                self.c.worker_timeouts.inc();
                if let Some(mut t) = slot.transport.take() {
                    t.terminate();
                }
            }
        }
        alive
    }

    /// Gracefully shut every worker down (`Shutdown` → `Bye`),
    /// collecting spawn counts and reported peak RSS.
    pub fn shutdown(self) -> Vec<WorkerExit> {
        let mut exits = Vec::with_capacity(self.slots.len());
        for (w, slot) in self.slots.into_iter().enumerate() {
            let mut slot = lock_slot(&slot);
            let mut peak = None;
            if let Some(t) = slot.transport.as_mut() {
                self.c.frames_sent.inc();
                if t.send(&Request::Shutdown).is_ok() {
                    if let Ok(Response::Bye { peak_rss_bytes }) = t.recv(self.config.deadline) {
                        self.c.frames_received.inc();
                        peak = Some(peak_rss_bytes);
                    }
                }
            }
            if let Some(mut t) = slot.transport.take() {
                t.terminate();
            }
            exits.push(WorkerExit { worker: w, spawns: slot.spawns, peak_rss_bytes: peak });
        }
        exits
    }

    /// Which worker owns global region `idx`, and its shard-local
    /// index.
    fn locate(&self, idx: usize) -> (usize, u32) {
        let s = self.starts.partition_point(|&start| start <= idx) - 1;
        (s, (idx - self.starts[s]) as u32)
    }
}

fn protocol_error(resp: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response kind: {resp:?}"),
    )
}

impl TrainingSource for Coordinator {
    fn num_regions(&self) -> usize {
        self.total
    }

    fn feature_arity(&self) -> usize {
        self.manifest.p as usize
    }

    fn region_coords(&self, idx: usize) -> &[u32] {
        &self.coords_flat[idx * self.arity..(idx + 1) * self.arity]
    }

    fn read_region(&self, idx: usize) -> io::Result<Arc<RegionBlock>> {
        if idx >= self.total {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("region {idx} out of range"),
            ));
        }
        let (w, local) = self.locate(idx);
        let mut slot = lock_slot(&self.slots[w]);
        if slot.dead {
            // Fail fast: once the budget is spent the shard stays dead
            // for the rest of the run, so a SkipUnreadable scan skips
            // exactly this worker's regions without re-paying restarts.
            return Err(io::Error::other(format!(
                "worker {w} is dead (restart budget exhausted)"
            )));
        }
        self.c.reads.inc();
        let resp = Self::exchange_with_restarts(
            &*self.spawner,
            &mut slot,
            w,
            &self.config,
            &self.c,
            &Request::Read { local },
        )?;
        match resp {
            Response::Block(bytes) => {
                let block = decode_block_v2(&bytes)?;
                self.stats
                    .record_region_read(bytes.len() as u64, block.n() as u64);
                Ok(Arc::new(block))
            }
            Response::ReadErr { code, message } => {
                let kind = decode_error_kind(code);
                if kind == io::ErrorKind::InvalidData {
                    self.stats.record_corrupt_block();
                }
                Err(io::Error::new(kind, format!("worker {w}: {message}")))
            }
            other => Err(protocol_error(&other)),
        }
    }

    fn record_corrupt_block(&self) {
        self.stats.record_corrupt_block();
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.stats.snapshot();
        for (name, counter) in [
            (names::COORD_WORKERS_SPAWNED, &self.c.workers_spawned),
            (names::COORD_WORKER_RESTARTS, &self.c.worker_restarts),
            (names::COORD_WORKER_CRASHES, &self.c.worker_crashes),
            (names::COORD_WORKER_TIMEOUTS, &self.c.worker_timeouts),
            (names::COORD_CORRUPT_FRAMES, &self.c.corrupt_frames),
            (names::COORD_FRAMES_SENT, &self.c.frames_sent),
            (names::COORD_FRAMES_RECEIVED, &self.c.frames_received),
            (names::COORD_READS, &self.c.reads),
            (names::COORD_SHARDS_DEAD, &self.c.shards_dead),
            (names::COORD_HEARTBEATS, &self.c.heartbeats),
        ] {
            snap.counters.push((name.to_string(), counter.get()));
        }
        snap
    }

    fn find_region(&self, coords: &[u32]) -> Option<usize> {
        self.index.get(coords).copied()
    }

    fn total_examples(&self) -> io::Result<u64> {
        Ok(self.manifest.total_examples())
    }

    fn shard_starts(&self) -> Option<Vec<usize>> {
        Some(self.starts.clone())
    }
}
