//! Sharded on-disk layout for out-of-core training data.
//!
//! A sharded dataset is a directory holding one v2 block file per shard
//! (written by [`crate::TrainingWriter`]) plus a small
//! CRC-32-checksummed manifest (`manifest.bwsm`). Shards partition the
//! global region order into **contiguous ranges**: shard `s` holds
//! regions `[starts[s], starts[s+1])` of the single-file scan order.
//! Concatenating the shards ascending therefore reproduces the exact
//! region sequence a single `.bwtd` file would serve — which is what
//! makes the two-level scan merge (per-shard accumulators merged in
//! ascending shard order) bit-identical to a flat scan.
//!
//! Every shard file is a complete, self-describing training-data file,
//! so the whole PR-4 fault stack applies *per shard*:
//! [`ShardedSource::open_layered`] lets callers wrap each shard's
//! [`DiskSource`] in any combination of
//! `RetryingSource`/`FaultySource`/`CachedSource` before the sharded
//! view is assembled.
//!
//! # Writes, appends and generations
//!
//! Every layout file is published under a name no live manifest uses,
//! by a step that never replaces a name ([`AtomicFile::create_new`]), and
//! is written on one [`MemberWriter`] thread. A write of a layout (cold,
//! or a rewrite: [`ShardedWriter`]) takes a fresh **write id**, one past
//! every id a layout file in the directory carries, names its shards by
//! it ([`shard_file_name`]), links them, fsyncs the directory once, and
//! commits by renaming the manifest, which names the id, into place: a
//! crash before the rename leaves the old layout, one after it the new.
//! Then it sweeps the layout files of every other write id.
//!
//! A layout is never rewritten in place. An append (new fact rows
//! changing some regions' training blocks) lands as an **overlay file**
//! — a complete `.bwtd` file of the replaced blocks in ascending
//! global-region order, each naming its region by its coordinates
//! ([`PipelinedAppend`], [`ShardAppender`]). Generation `g`'s overlay is
//! published under the live write id as [`overlay_file_name`]`(id, g)`,
//! and that publish is the append's commit; the manifest is never
//! touched. A layout's **generation** is the number of its overlay
//! files, generation 1, 2, …, present before the first missing one
//! ([`ShardManifest::published_generation`]). A reader keeps serving the
//! generation it adopted (its files stay untouched) until
//! [`ShardedSource::refresh`] adopts newer ones in place. The manifest
//! has one encoding (version 3: write id, example total, shard table);
//! any other version is rejected structurally.

use crate::atomic::{remove_each, AtomicFile};
use crate::block::RegionBlock;
use crate::codec::{bad, seal, verify, Cursor, PutLe};
use crate::metrics::IoStats;
use crate::reader::DiskSource;
use crate::source::TrainingSource;
use crate::writer::TrainingWriter;
use bellwether_obs::{names, MetricsSnapshot, NoopRecorder, Recorder, Registry};
use std::borrow::Borrow;
use std::ffi::OsStr;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// File name of the manifest inside a sharded dataset directory.
pub const MANIFEST_NAME: &str = "manifest.bwsm";

/// Magic bytes opening a manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"BWSM";

/// Manifest format version (carries the write id, the example total and
/// the shard table).
pub const MANIFEST_VERSION: u32 = 3;

/// One shard's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Shard file name, relative to the manifest's directory.
    pub file: String,
    /// Regions stored in this shard.
    pub regions: u64,
    /// Training examples stored in this shard.
    pub examples: u64,
    /// Size of the shard file in bytes (cheap integrity check at open).
    pub bytes: u64,
}

/// One overlay file a sharded view adopted: a complete `.bwtd` file of
/// replacement blocks written by one append, later overlays shadowing
/// earlier ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayMeta {
    /// Overlay file name, relative to the layout's directory.
    pub file: String,
    /// Size of the overlay file in bytes.
    pub bytes: u64,
    /// Ascending global region indices replaced by this overlay; the
    /// block for `regions[i]` is the overlay file's local region `i`.
    pub regions: Vec<u64>,
}

/// The checksummed description of a sharded dataset: shared feature and
/// region arity, the write that made it, and per-shard entries in
/// ascending global-region order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Feature arity shared by every shard.
    pub p: u32,
    /// Region-coordinate arity shared by every shard.
    pub arity: u32,
    /// The write that made the layout: its shard names carry it, and
    /// its overlays are found under it.
    pub write_id: u64,
    /// Total training examples in the shards.
    pub examples: u64,
    /// Shards, ascending: shard `s` holds the next `shards[s].regions`
    /// regions of the global scan order.
    pub shards: Vec<ShardMeta>,
}

impl ShardManifest {
    /// Total regions across all shards.
    pub fn total_regions(&self) -> u64 {
        self.shards.iter().map(|s| s.regions).sum()
    }

    /// Total training examples in the shards.
    pub fn total_examples(&self) -> u64 {
        self.examples
    }

    /// Global start index of each shard (ascending, first is 0).
    pub fn shard_starts(&self) -> Vec<usize> {
        let mut starts = Vec::with_capacity(self.shards.len());
        let mut acc = 0usize;
        for s in &self.shards {
            starts.push(acc);
            acc += s.regions as usize;
        }
        starts
    }

    /// Serialize: magic, version, arities, write id, example total,
    /// shard entries, CRC-32 trailer over everything preceding it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_slice(&MANIFEST_MAGIC);
        out.put_u32_le(MANIFEST_VERSION);
        out.put_u32_le(self.p);
        out.put_u32_le(self.arity);
        out.put_u64_le(self.write_id);
        out.put_u64_le(self.examples);
        out.put_u32_le(self.shards.len() as u32);
        for s in &self.shards {
            out.put_str(&s.file);
            out.put_u64_le(s.regions);
            out.put_u64_le(s.examples);
            out.put_u64_le(s.bytes);
        }
        seal(&mut out, 0);
        out
    }

    /// Decode and checksum-validate a manifest: a trailer that does not
    /// match is corruption ([`crate::is_corrupt`]), anything wrong with
    /// bytes that verify is structural `InvalidData`.
    pub fn decode(bytes: &[u8]) -> io::Result<ShardManifest> {
        let mut cur = Cursor::new(verify(bytes)?);
        if cur.take_span(4)? != MANIFEST_MAGIC {
            return Err(bad("not a sharded manifest (bad magic)"));
        }
        let version = cur.get_u32_le()?;
        if version != MANIFEST_VERSION {
            return Err(bad(&format!("unsupported manifest version {version}")));
        }
        let p = cur.get_u32_le()?;
        let arity = cur.get_u32_le()?;
        let write_id = cur.get_u64_le()?;
        let examples = cur.get_u64_le()?;
        // Shortest entry: name length + three u64s.
        let n = cur.get_u32_le()?;
        let n = cur.count(n.into(), 4 + 3 * 8)?;
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(ShardMeta {
                file: member_name(cur.get_string()?)?,
                regions: cur.get_u64_le()?,
                examples: cur.get_u64_le()?,
                bytes: cur.get_u64_le()?,
            });
        }
        // Every later sum over the shards (`total_regions`,
        // `shard_starts`) is this one, checked here, and so are the
        // shards' example counts: the CRC is no guard against values
        // that were written wrong.
        let (_, shard_examples) = shards
            .iter()
            .try_fold((0u64, 0u64), |(r, e), s| {
                Some((r.checked_add(s.regions)?, e.checked_add(s.examples)?))
            })
            .filter(|&(regions, _)| usize::try_from(regions).is_ok())
            .ok_or_else(|| bad("shard totals overflow"))?;
        if examples != shard_examples {
            return Err(bad(&format!(
                "manifest example total {examples} is not its shards' sum {shard_examples}"
            )));
        }
        cur.done()?;
        Ok(ShardManifest {
            p,
            arity,
            write_id,
            examples,
            shards,
        })
    }

    /// Publish atomically through an [`AtomicFile`].
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let mut f = AtomicFile::create(path)?;
        f.write_all(&self.encode())?;
        f.commit()
    }

    /// Read and validate the manifest at `path`.
    pub fn read(path: &Path) -> io::Result<ShardManifest> {
        ShardManifest::decode(&fs::read(path)?)
    }

    /// The generation published over this layout in `dir`: how many
    /// overlay files of its write id, generation 1, 2, …, are present
    /// before the first missing one. Reads no file.
    pub fn published_generation(&self, dir: &Path) -> io::Result<u64> {
        let mut g = 0;
        while dir
            .join(overlay_file_name(self.write_id, g + 1))
            .try_exists()?
        {
            g += 1;
        }
        Ok(g)
    }
}

/// A member file name read from a manifest, checked to be one bare file
/// name: every reader joins it onto the layout directory, so a `..`, a
/// separator or an absolute path would serve a file from elsewhere.
fn member_name(file: String) -> io::Result<String> {
    if Path::new(&file).file_name() == Some(OsStr::new(&file)) {
        Ok(file)
    } else {
        Err(bad(&format!(
            "manifest names {file:?}, not a file in its directory"
        )))
    }
}

/// File name of shard `s` of the layout write `write_id` made.
pub fn shard_file_name(write_id: u64, s: usize) -> String {
    format!("w{write_id:04}-shard-{s:04}.bwtd")
}

/// File name of the overlay of generation `g` over the layout write
/// `write_id` made.
pub fn overlay_file_name(write_id: u64, g: u64) -> String {
    format!("w{write_id:04}-overlay-{g:04}.bwtd")
}

/// The write id a layout file's name carries, published or temporary;
/// `None` for any other name.
fn write_id_of(name: &str) -> Option<u64> {
    let (id, member) = name.strip_prefix('w')?.split_once('-')?;
    let member = member.starts_with("shard-") || member.starts_with("overlay-");
    member.then(|| id.parse().ok()).flatten()
}

/// A write id no file in `dir` carries and none will: one past the
/// largest there.
fn fresh_write_id(dir: &Path) -> io::Result<u64> {
    let mut last = 0;
    for entry in fs::read_dir(dir)? {
        if let Some(id) = entry?.file_name().to_str().and_then(write_id_of) {
            last = last.max(id);
        }
    }
    last.checked_add(1)
        .ok_or_else(|| io::Error::other("the layout's write ids are exhausted"))
}

/// Split `total` regions into `shards` contiguous even ranges (earlier
/// shards take the remainder), the default partition plan.
pub fn even_shard_plan(total: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let base = total / shards;
    let rem = total % shards;
    (0..shards).map(|s| base + usize::from(s < rem)).collect()
}

/// Streams region blocks into per-shard [`TrainingWriter`]s according to
/// a fixed partition plan, then commits the layout by writing the
/// checksummed manifest. Only one shard's writer is open at a time and
/// blocks are encoded on the caller as they arrive — nothing is ever
/// materialised beyond the block being written.
///
/// A closed shard goes to the writer's [`MemberWriter`] thread, which
/// writes its index and links it (flush, fsync, link; the last shard's
/// commit also fsyncs the directory, once for all of them) while the
/// caller encodes the next shards' blocks; [`ShardedWriter::finish`]
/// waits for every shard, and a failed one is its error: no manifest is
/// written.
pub struct ShardedWriter {
    dir: PathBuf,
    p: u32,
    arity: u32,
    plan: Vec<usize>,
    write_id: u64,
    written_in_shard: usize,
    examples_in_shard: u64,
    current: Option<TrainingWriter>,
    /// Entries of the shards closed so far: the current shard is the
    /// next one.
    metas: Vec<ShardMeta>,
    /// Each closed shard's commit, by shard; its entry's `bytes` are
    /// filled in when it lands.
    commits: Vec<Committing>,
    writer: MemberWriter,
}

impl ShardedWriter {
    /// Create a sharded dataset under `dir` (created if absent). `plan`
    /// gives the number of regions per shard in ascending global order;
    /// [`even_shard_plan`] is the usual choice. Blocks must then arrive
    /// via [`ShardedWriter::write_region`] in global scan order.
    ///
    /// A layout already in `dir` stays what `dir` serves until
    /// [`ShardedWriter::finish`] commits the new one: a rewrite that
    /// never gets there leaves the old layout, and files the next
    /// write sweeps.
    pub fn create(dir: &Path, p: u32, arity: u32, plan: Vec<usize>) -> io::Result<Self> {
        if plan.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shard plan must name at least one shard",
            ));
        }
        fs::create_dir_all(dir)?;
        Ok(ShardedWriter {
            dir: dir.to_path_buf(),
            p,
            arity,
            plan,
            write_id: fresh_write_id(dir)?,
            written_in_shard: 0,
            examples_in_shard: 0,
            current: None,
            metas: Vec::new(),
            commits: Vec::new(),
            writer: MemberWriter::new(),
        })
    }

    fn create_shard(&self) -> io::Result<TrainingWriter> {
        let path = self
            .dir
            .join(shard_file_name(self.write_id, self.metas.len()));
        TrainingWriter::create_new(&path, self.p, self.arity)
    }

    /// Close the current shard file, record its manifest entry, and hand
    /// it to the writer thread.
    fn close_shard(&mut self) -> io::Result<()> {
        let file = match self.current.take() {
            Some(w) => w,
            // A zero-region shard still gets a (valid, empty) file so
            // the manifest never points at a missing path.
            None => self.create_shard()?,
        };
        self.metas.push(ShardMeta {
            file: shard_file_name(self.write_id, self.metas.len()),
            regions: self.written_in_shard as u64,
            examples: self.examples_in_shard,
            bytes: 0,
        });
        // The last shard's commit fsyncs the directory, and with it every
        // shard's link.
        let last = self.metas.len() == self.plan.len();
        self.commits.push(self.writer.hand(file, last)?.commit());
        self.written_in_shard = 0;
        self.examples_in_shard = 0;
        Ok(())
    }

    /// Append the next region of the global scan order; shard files
    /// advance automatically at the plan's boundaries.
    pub fn write_region(&mut self, block: &RegionBlock) -> io::Result<()> {
        // Skip over zero-region shards in the plan.
        while self.plan.get(self.metas.len()) == Some(&self.written_in_shard) {
            self.close_shard()?;
        }
        if self.metas.len() >= self.plan.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "more regions written than the shard plan holds",
            ));
        }
        if self.current.is_none() {
            self.current = Some(self.create_shard()?);
        }
        self.current
            .as_mut()
            .expect("writer opened above")
            .write_region(block)?;
        self.written_in_shard += 1;
        self.examples_in_shard += block.n() as u64;
        Ok(())
    }

    /// Finish every remaining shard, wait until every shard is linked and
    /// the directory fsynced, and commit the layout by renaming its
    /// manifest into place; then sweep the files of every other write.
    /// Fails if fewer regions arrived than the plan promised, or if any
    /// shard's commit failed.
    pub fn finish(mut self) -> io::Result<ShardManifest> {
        while let Some(&planned) = self.plan.get(self.metas.len()) {
            if self.written_in_shard != planned {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "shard {} received {} of {planned} planned regions",
                        self.metas.len(),
                        self.written_in_shard
                    ),
                ));
            }
            self.close_shard()?;
        }
        for (meta, commit) in self.metas.iter_mut().zip(std::mem::take(&mut self.commits)) {
            meta.bytes = join(commit).result?;
        }
        let manifest = ShardManifest {
            p: self.p,
            arity: self.arity,
            write_id: self.write_id,
            examples: self.metas.iter().map(|m| m.examples).sum(),
            shards: std::mem::take(&mut self.metas),
        };
        manifest.write_atomic(&self.dir.join(MANIFEST_NAME))?;
        // Committed: a file the sweep leaves is the next one's.
        let live = self.write_id;
        let _ = remove_each(&self.dir, |name| {
            write_id_of(name).is_some_and(|id| id != live)
        });
        Ok(manifest)
    }
}

/// The thread a layout's files are written and committed on: spawned
/// once, handed one file at a time — a cold write's closed shard, or an
/// append's overlay with its blocks as they are built — and joined on
/// drop, once it has committed what it was handed. When the thread
/// cannot be spawned, each file is written inline, on the caller: its
/// blocks as they are handed over, its commit when it is committed.
pub struct MemberWriter {
    /// The thread's queue of files and its handle; `None` inline.
    thread: Option<(mpsc::Sender<Handed>, JoinHandle<()>)>,
}

/// A file handed to the writer thread, with the queue its blocks arrive
/// on.
type Handed = (Task, mpsc::Receiver<Step>);

/// The writer with no thread, that [`ShardAppender`] writes through.
static INLINE: MemberWriter = MemberWriter { thread: None };

/// One file to write and commit: the file (created by the caller, so
/// that in tests it carries the caller's crash plan), whether its commit
/// fsyncs the directory, where its account goes, and the account so far.
struct Task {
    file: TrainingWriter,
    sync_dir: bool,
    reply: mpsc::SyncSender<Written>,
    written: Written,
}

/// What a file's task is sent on the writer thread.
enum Step {
    Block(Arc<RegionBlock>),
    /// No more blocks: close and commit the file.
    Commit,
}

/// The account of one file: its size once committed, or its first
/// error, and where the time went.
struct Written {
    result: io::Result<u64>,
    write: Duration,
    commit: Duration,
}

impl Written {
    fn new(result: io::Result<u64>) -> Written {
        Written {
            result,
            write: Duration::ZERO,
            commit: Duration::ZERO,
        }
    }
}

impl Task {
    /// Write one block, timed, unless an earlier one failed.
    fn write(&mut self, block: &RegionBlock) {
        if self.written.result.is_ok() {
            let started = Instant::now();
            self.written.result = self.file.write_region(block).map(|()| 0);
            self.written.write += started.elapsed();
        }
    }

    /// Close and commit the file unless a write failed, and send its
    /// account.
    fn commit(self) {
        let started = Instant::now();
        let Task {
            file,
            sync_dir,
            reply,
            mut written,
        } = self;
        written.result = written.result.and_then(|_| {
            let (mut file, bytes) = file.close()?;
            let done = if sync_dir {
                file.commit()
            } else {
                file.commit_unsynced()
            };
            done.map(|()| bytes)
        });
        written.commit = started.elapsed();
        let _ = reply.send(written);
    }

    /// On the writer thread: write the blocks as they arrive on `steps`,
    /// then commit. A file whose caller went before its commit is
    /// dropped unpublished.
    fn run(mut self, steps: mpsc::Receiver<Step>) {
        while let Ok(step) = steps.recv() {
            match step {
                Step::Block(block) => self.write(&block),
                Step::Commit => return self.commit(),
            }
        }
    }
}

impl Default for MemberWriter {
    fn default() -> Self {
        MemberWriter::new()
    }
}

impl MemberWriter {
    /// Spawn the writer thread, or fall back to writing inline when the
    /// spawn fails.
    pub fn new() -> MemberWriter {
        let (tasks, queue) = mpsc::channel::<Handed>();
        let spawned = thread::Builder::new()
            .name("member-writer".into())
            .spawn(move || queue.into_iter().for_each(|(task, steps)| task.run(steps)));
        MemberWriter {
            thread: spawned.ok().map(|handle| (tasks, handle)),
        }
    }

    /// Begin an append of the generation after the one `source` serves,
    /// its overlay written on this writer.
    pub fn append<'a>(&'a self, source: &'a ShardedSource) -> PipelinedAppend<'a> {
        PipelinedAppend::new(source, source.generation(), self)
    }

    /// Start `file` on its way: handed to the thread, or kept to be
    /// written inline.
    fn hand(&self, file: TrainingWriter, sync_dir: bool) -> io::Result<Member> {
        let (reply, outcome) = mpsc::sync_channel(1);
        let task = Task {
            file,
            sync_dir,
            reply,
            written: Written::new(Ok(0)),
        };
        let route = match &self.thread {
            Some((tasks, _)) => {
                // Unbounded: the caller keeps its own handle to each
                // block, so the queue holds pointers, not blocks.
                let (steps, queue) = mpsc::channel();
                tasks.send((task, queue)).map_err(|_| writer_stopped())?;
                Route::Thread(steps)
            }
            None => Route::Inline(Box::new(task)),
        };
        Ok(Member { route, outcome })
    }
}

impl Drop for MemberWriter {
    /// The thread finishes what it was handed, then exits.
    fn drop(&mut self) {
        if let Some((tasks, handle)) = self.thread.take() {
            drop(tasks);
            let _ = handle.join();
        }
    }
}

/// A file on its way through a [`MemberWriter`]: where its blocks go,
/// and where its account arrives.
struct Member {
    route: Route,
    outcome: Committing,
}

/// Where a file's blocks are written: on the writer thread, through its
/// block queue, or inline, on the caller, as they are handed over.
enum Route {
    Thread(mpsc::Sender<Step>),
    Inline(Box<Task>),
}

impl Member {
    /// Hand `block` over to be written into the file. A write that fails
    /// is the commit's error.
    fn write(&mut self, block: Arc<RegionBlock>) -> io::Result<()> {
        match &mut self.route {
            Route::Thread(steps) => steps.send(Step::Block(block)).map_err(|_| writer_stopped()),
            Route::Inline(task) => {
                task.write(&block);
                Ok(())
            }
        }
    }

    /// No more blocks: commit the file, on the thread while the caller
    /// goes on, or here.
    fn commit(self) -> Committing {
        match self.route {
            // A thread that is gone fails the join.
            Route::Thread(steps) => drop(steps.send(Step::Commit)),
            Route::Inline(task) => task.commit(),
        }
        self.outcome
    }
}

/// A file's commit, running on the writer thread or done inline: its
/// account arrives here.
type Committing = mpsc::Receiver<Written>;

/// Wait for a commit's account.
fn join(commit: Committing) -> Written {
    commit
        .recv()
        .unwrap_or_else(|_| Written::new(Err(writer_stopped())))
}

fn writer_stopped() -> io::Error {
    io::Error::other("the layout's writer thread stopped")
}

/// The one append path: one generation's overlay over a layout's base
/// shards, in flight on a [`MemberWriter`] ([`MemberWriter::append`];
/// [`ShardAppender`] holds one over base shards it opened). The caller
/// checks each block's order and coordinates and creates the overlay
/// file at the first block — an append that replaces nothing writes no
/// file — so the file carries the caller's crash plan in tests; the
/// writer writes the blocks as they arrive, then closes the file and
/// links it under the next generation's name by a step that never
/// replaces a name: that is the append's commit, and nothing else on
/// disk is written or touched. Dropped before
/// [`PipelinedAppend::commit`], it publishes nothing.
pub struct PipelinedAppend<'w, B: Borrow<ShardedSource> = &'w ShardedSource> {
    base: B,
    generation: u64,
    writer: &'w MemberWriter,
    file: Option<Member>,
    /// The region of the last block written.
    last: Option<usize>,
    /// Time the caller spent creating the file.
    write: Duration,
}

impl<'w, B: Borrow<ShardedSource>> PipelinedAppend<'w, B> {
    /// The append after `generation` over `base`, written on `writer`.
    fn new(base: B, generation: u64, writer: &'w MemberWriter) -> Self {
        PipelinedAppend {
            base,
            generation,
            writer,
            file: None,
            last: None,
            write: Duration::ZERO,
        }
    }

    /// Hand over the replacement block of global region `idx`, under
    /// [`ShardAppender::write_region`]'s rules. A write that fails on
    /// the writer thread is the error of [`AppendCommit::join`].
    pub fn write_region(&mut self, idx: usize, block: Arc<RegionBlock>) -> io::Result<()> {
        let base = self.base.borrow();
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        if idx >= base.num_regions() {
            return Err(invalid(format!("region {idx} outside the sharded layout")));
        }
        if self.last.is_some_and(|last| idx <= last) {
            return Err(invalid(
                "overlay regions must be written in ascending order".into(),
            ));
        }
        let coords = base.region_coords(idx);
        if block.region != coords {
            return Err(invalid(format!(
                "block of region {:?} written as region {idx}, which is {coords:?}",
                block.region
            )));
        }
        if self.file.is_none() {
            let started = Instant::now();
            let file = base.create_overlay(self.generation + 1)?;
            self.file = Some(self.writer.hand(file, true)?);
            self.write += started.elapsed();
        }
        self.file.as_mut().expect("created above").write(block)?;
        self.last = Some(idx);
        Ok(())
    }

    /// No more blocks: have the writer thread close and commit the
    /// overlay, and return at once; [`AppendCommit::join`] waits for it.
    /// Inline, the commit runs here.
    pub fn commit(self) -> AppendCommit {
        AppendCommit {
            generation: self.generation,
            write: self.write,
            commit: self.file.map(Member::commit),
        }
    }
}

/// Appends replacement blocks to an existing sharded layout as the next
/// generation's overlay file, written on the caller as they arrive and
/// committed when it finishes.
/// Blocks must arrive in ascending global-region order, each naming the
/// region it replaces by its coordinates. [`ShardAppender::finish`]
/// publishes the overlay, readers of the previous generation keep a
/// consistent snapshot, and [`ShardedSource::refresh`] adopts the new
/// one. Of two appends at one generation, the second to finish fails
/// with `AlreadyExists` and the first one's overlay stands.
pub struct ShardAppender {
    append: PipelinedAppend<'static, ShardedSource>,
}

impl ShardAppender {
    /// Open the layout at `dir` for the append after its published
    /// generation: its base shards (for the blocks' coordinates) and
    /// the overlay names present, not the overlays themselves.
    pub fn open(dir: &Path) -> io::Result<ShardAppender> {
        let base = ShardedSource::open_base(dir, |disk| Box::new(disk))?;
        let layout = base.manifest().expect("a layout opened from a directory");
        let generation = layout.manifest.published_generation(dir)?;
        Ok(ShardAppender {
            append: PipelinedAppend::new(base, generation, &INLINE),
        })
    }

    /// The generation this append supersedes.
    pub fn generation(&self) -> u64 {
        self.append.generation
    }

    /// Write the replacement block of global region `idx`. Indices must
    /// be strictly ascending and in range, and the block's coordinates
    /// those of region `idx`.
    pub fn write_region(&mut self, idx: usize, block: &RegionBlock) -> io::Result<()> {
        self.append.write_region(idx, Arc::new(block.clone()))
    }

    /// Close the overlay file and publish it as the next generation.
    /// Returns the generation the layout then has: one past
    /// [`ShardAppender::generation`], or that generation unchanged when
    /// no block was written (nothing is published then).
    pub fn finish(self) -> io::Result<u64> {
        self.append.commit().join(&NoopRecorder)
    }
}

/// An append's commit, running on the writer thread or done inline.
pub struct AppendCommit {
    generation: u64,
    write: Duration,
    /// `None` when no block was written.
    commit: Option<Committing>,
}

impl AppendCommit {
    /// Wait for the commit. Returns the generation the layout then has,
    /// as [`ShardAppender::finish`] does, or the append's first error.
    /// When a file was written, records the time spent writing blocks
    /// into it under `storage/append_write` and closing and committing
    /// it under `storage/append_commit` in `rec`, once each, wherever
    /// they ran.
    pub fn join(self, rec: &dyn Recorder) -> io::Result<u64> {
        let Some(commit) = self.commit else {
            return Ok(self.generation);
        };
        let written = join(commit);
        let nanos = |d: Duration| d.as_nanos().min(u64::MAX as u128) as u64;
        rec.record_span(
            names::STORAGE_APPEND_WRITE,
            nanos(self.write + written.write),
        );
        rec.record_span(names::STORAGE_APPEND_COMMIT, nanos(written.commit));
        written.result.map(|_| self.generation + 1)
    }
}

/// Open one base shard of a layout, holding it to the size and the
/// region count its manifest entry records.
fn open_member(dir: &Path, file: &str, bytes: u64, regions: u64) -> io::Result<DiskSource> {
    #[cfg(test)]
    tests::member_opened();
    let path = dir.join(file);
    let actual = fs::metadata(&path)?.len();
    if actual != bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{file} is {actual} bytes, manifest says {bytes}"),
        ));
    }
    let disk = DiskSource::open(&path)?;
    if disk.num_regions() as u64 != regions {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{file} holds {} regions, manifest says {regions}",
                disk.num_regions()
            ),
        ));
    }
    Ok(disk)
}

/// A [`TrainingSource`] over the shards of a manifest: global region
/// index `i` maps to `(shard s, local index i - starts[s])` by binary
/// search over the cumulative shard starts. Reads are counted in this
/// source's own [`IoStats`] (the per-shard inner sources keep their own
/// books, which [`TrainingSource::snapshot`] does not read), and
/// [`TrainingSource::shard_starts`] exposes the partition so the scan
/// engine can run its two-level shard-aligned merge.
pub struct ShardedSource {
    shards: Vec<Box<dyn TrainingSource>>,
    starts: Vec<usize>,
    total: usize,
    p: usize,
    stats: IoStats,
    view: RwLock<Option<View>>,
}

/// What a [`ShardedSource`] opened from a directory serves
/// ([`ShardedSource::manifest`]): its layout's manifest, the generation
/// it adopted, the overlays that make it, and the example total they
/// leave visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutView {
    /// The layout's manifest, as on disk.
    pub manifest: ShardManifest,
    /// Append generation adopted: the number of overlays.
    pub generation: u64,
    /// Total training examples visible, corrected for every replaced
    /// block.
    pub examples: u64,
    /// Overlay files in append order (ascending generation).
    pub overlays: Vec<OverlayMeta>,
}

/// The generation-specific part of a sharded source: the layout as
/// adopted, the overlay files, the per-region redirect lane they induce
/// (later overlays shadow earlier ones) and the per-region row-count
/// lane the visible example total is kept from. Only ever extended, in
/// place, by [`ShardedSource::refresh`].
struct View {
    dir: PathBuf,
    layout: LayoutView,
    overlays: Vec<DiskSource>,
    /// `(overlay, local index)` per global region index, `None` where the
    /// base shard serves it; empty while no overlay exists.
    redirect: Vec<Option<(u32, u32)>>,
    /// Examples of each global region's visible block.
    rows: Vec<u64>,
}

/// One generation's overlay file, opened and mapped onto the layout's
/// regions, ready to adopt.
struct Overlay {
    meta: OverlayMeta,
    disk: DiskSource,
    /// Examples of each of the overlay's blocks, by local index.
    rows: Vec<u64>,
}

impl View {
    /// Adopt the next generation's overlay: patch both lanes and the
    /// example total where its blocks replace others.
    fn adopt(&mut self, overlay: Overlay) {
        let o = self.overlays.len() as u32;
        if self.redirect.is_empty() {
            self.redirect = vec![None; self.rows.len()];
        }
        let replaced = overlay.meta.regions.iter().zip(&overlay.rows);
        for (local, (&global, &rows)) in replaced.enumerate() {
            let global = global as usize;
            self.redirect[global] = Some((o, local as u32));
            self.layout.examples = self.layout.examples - self.rows[global] + rows;
            self.rows[global] = rows;
        }
        self.layout.generation += 1;
        self.layout.overlays.push(overlay.meta);
        self.overlays.push(overlay.disk);
    }
}

impl ShardedSource {
    /// Open a sharded dataset directory: validate the manifest and open
    /// each shard as a plain [`DiskSource`].
    pub fn open(dir: &Path) -> io::Result<ShardedSource> {
        Self::open_layered(dir, |disk| Box::new(disk))
    }

    /// Like [`ShardedSource::open`], but read counters (and
    /// `shard/shards_opened`) are bound to `reg`.
    pub fn open_with_registry(dir: &Path, reg: &Registry) -> io::Result<ShardedSource> {
        let mut src = Self::open_layered(dir, |disk| Box::new(disk))?;
        src.stats = IoStats::in_registry(reg);
        reg.counter(names::SHARD_SHARDS_OPENED)
            .add(src.shards.len() as u64);
        Ok(src)
    }

    /// Open a sharded dataset wrapping every shard's [`DiskSource`]
    /// through `layer` — the hook that applies the
    /// `CachedSource`/`FaultySource`/`RetryingSource` stack *per shard*.
    /// The overlays published so far are adopted as
    /// [`ShardedSource::refresh`] adopts them.
    pub fn open_layered(
        dir: &Path,
        layer: impl FnMut(DiskSource) -> Box<dyn TrainingSource>,
    ) -> io::Result<ShardedSource> {
        let src = Self::open_base(dir, layer)?;
        src.refresh()?;
        Ok(src)
    }

    /// The layout at `dir` at generation 0: the manifest's shards, each
    /// held to its entry, and the row-count lane read off their indexes.
    fn open_base(
        dir: &Path,
        mut layer: impl FnMut(DiskSource) -> Box<dyn TrainingSource>,
    ) -> io::Result<ShardedSource> {
        let manifest = ShardManifest::read(&dir.join(MANIFEST_NAME))?;
        let mut shards: Vec<Box<dyn TrainingSource>> = Vec::with_capacity(manifest.shards.len());
        let mut rows = Vec::with_capacity(manifest.total_regions() as usize);
        for meta in &manifest.shards {
            let disk = open_member(dir, &meta.file, meta.bytes, meta.regions)?;
            let start = rows.len();
            for local in 0..disk.num_regions() {
                rows.push(block_examples(&disk, &meta.file, local)?);
            }
            let held: u64 = rows[start..].iter().sum();
            if held != meta.examples {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} holds {held} examples, manifest says {}",
                        meta.file, meta.examples
                    ),
                ));
            }
            shards.push(layer(disk));
        }
        let mut src = ShardedSource::from_sources(shards)?;
        src.view = RwLock::new(Some(View {
            dir: dir.to_path_buf(),
            layout: LayoutView {
                examples: manifest.examples,
                manifest,
                generation: 0,
                overlays: Vec::new(),
            },
            overlays: Vec::new(),
            redirect: Vec::new(),
            rows,
        }));
        Ok(src)
    }

    /// Assemble a sharded view over arbitrary per-shard sources (their
    /// region ranges concatenate in the given order). All shards must
    /// agree on feature arity.
    pub fn from_sources(shards: Vec<Box<dyn TrainingSource>>) -> io::Result<ShardedSource> {
        if shards.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a sharded source needs at least one shard",
            ));
        }
        let p = shards[0].feature_arity();
        let mut starts = Vec::with_capacity(shards.len());
        let mut total = 0usize;
        for s in &shards {
            if s.feature_arity() != p {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "shards disagree on feature arity",
                ));
            }
            starts.push(total);
            total += s.num_regions();
        }
        Ok(ShardedSource {
            shards,
            starts,
            total,
            p,
            stats: IoStats::default(),
            view: RwLock::new(None),
        })
    }

    fn view(&self) -> std::sync::RwLockReadGuard<'_, Option<View>> {
        self.view.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The layout this source currently serves, if it was opened from a
    /// directory: its manifest, the generation adopted, the visible
    /// example total and the overlays adopted so far.
    pub fn manifest(&self) -> Option<LayoutView> {
        self.view().as_ref().map(|v| v.layout.clone())
    }

    /// The append generation currently served (0 when opened from
    /// in-memory sources).
    pub fn generation(&self) -> u64 {
        self.view().as_ref().map_or(0, |v| v.layout.generation)
    }

    /// Adopt every generation published since the one served: probe
    /// `overlay_file_name(write_id, g + 1)` until one is missing, open each overlay
    /// found and map its blocks onto the layout's regions by their
    /// coordinates, then patch the redirect and row-count lanes in place
    /// under the view's lock. The base shard sources (and whatever
    /// cache/fault layers wrap them) stay untouched, and an overlay
    /// already adopted is never reopened. Returns the generation now
    /// served. No-op for in-memory sources and when no newer overlay
    /// exists; a refresh that fails adopts nothing.
    ///
    /// A live source follows appends, not rewrites: after
    /// [`ShardedWriter::create`] over its directory, open it afresh.
    pub fn refresh(&self) -> io::Result<u64> {
        let (dir, write_id, from) = match self.view().as_ref() {
            Some(v) => (
                v.dir.clone(),
                v.layout.manifest.write_id,
                v.layout.generation,
            ),
            None => return Ok(0),
        };
        let mut found = Vec::new();
        while let Some(overlay) =
            self.probe_overlay(&dir, write_id, from + 1 + found.len() as u64)?
        {
            found.push(overlay);
        }
        let mut view = self.view.write().unwrap_or_else(|e| e.into_inner());
        let view = view
            .as_mut()
            .expect("a source opened from a directory has a view");
        // A refresh beside this one may have adopted some of them already.
        let adopted = (view.layout.generation - from) as usize;
        for overlay in found.into_iter().skip(adopted) {
            view.adopt(overlay);
        }
        Ok(view.layout.generation)
    }

    /// Generation `g`'s overlay in `dir`, if published: opened, held to
    /// this layout's feature arity, and its blocks mapped to the regions
    /// whose coordinates they carry, which must ascend.
    fn probe_overlay(&self, dir: &Path, write_id: u64, g: u64) -> io::Result<Option<Overlay>> {
        let file = overlay_file_name(write_id, g);
        let path = dir.join(&file);
        let bytes = match fs::metadata(&path) {
            Ok(meta) => meta.len(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        #[cfg(test)]
        tests::member_opened();
        let disk = DiskSource::open(&path)?;
        let invalid =
            |what: String| io::Error::new(io::ErrorKind::InvalidData, format!("{file}: {what}"));
        if disk.feature_arity() != self.p {
            let p = disk.feature_arity();
            return Err(invalid(format!("feature arity {p}, layout has {}", self.p)));
        }
        let unordered = || invalid("blocks are not in ascending region order".into());
        let n = disk.num_regions();
        let (mut regions, mut rows) = (Vec::with_capacity(n), Vec::with_capacity(n));
        // Ascending blocks visit the shards in order, so each is looked
        // up from the shard of the block before it on.
        let mut shard = 0;
        for local in 0..n {
            let coords = disk.region_coords(local);
            let found = (shard..self.shards.len())
                .find_map(|s| Some((s, self.starts[s] + self.shards[s].find_region(coords)?)));
            let Some((s, global)) = found else {
                return Err(match self.find_region(coords) {
                    Some(_) => unordered(),
                    None => invalid(format!(
                        "block {local} is of region {coords:?}, not in the layout"
                    )),
                });
            };
            let global = global as u64;
            if regions.last().is_some_and(|&last| global <= last) {
                return Err(unordered());
            }
            shard = s;
            regions.push(global);
            rows.push(block_examples(&disk, &file, local)?);
        }
        Ok(Some(Overlay {
            meta: OverlayMeta {
                file,
                bytes,
                regions,
            },
            disk,
            rows,
        }))
    }

    /// Create the file generation `g`'s overlay is written into, under a
    /// temporary name of its own.
    fn create_overlay(&self, g: u64) -> io::Result<TrainingWriter> {
        let view = self.view();
        let Some(v) = view.as_ref() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "only a layout opened from a directory takes appends",
            ));
        };
        let (m, p) = (&v.layout.manifest, self.p as u32);
        TrainingWriter::create_new(&v.dir.join(overlay_file_name(m.write_id, g)), p, m.arity)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `s` source.
    pub fn shard(&self, s: usize) -> &dyn TrainingSource {
        self.shards[s].as_ref()
    }

    /// Map a global region index to `(shard, local index)`.
    pub fn locate(&self, idx: usize) -> (usize, usize) {
        debug_assert!(idx < self.total);
        let s = self.starts.partition_point(|&start| start <= idx) - 1;
        (s, idx - self.starts[s])
    }
}

/// Examples in `disk`'s region `local`, going by its index entry.
fn block_examples(disk: &DiskSource, file: &str, local: usize) -> io::Result<u64> {
    disk.region_examples(local).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{file}: region {local} is not a whole number of examples long"),
        )
    })
}

impl TrainingSource for ShardedSource {
    fn num_regions(&self) -> usize {
        self.total
    }

    fn feature_arity(&self) -> usize {
        self.p
    }

    fn region_coords(&self, idx: usize) -> &[u32] {
        let (s, local) = self.locate(idx);
        self.shards[s].region_coords(local)
    }

    fn read_region(&self, idx: usize) -> io::Result<Arc<RegionBlock>> {
        // Appended-over regions resolve through the overlay redirect
        // lane; everything else routes to its base shard.
        let view = self.view();
        let overlay = view.as_ref().and_then(|v| {
            let (o, local) = v.redirect.get(idx).copied().flatten()?;
            Some((&v.overlays[o as usize], local as usize))
        });
        let read = match overlay {
            Some((disk, local)) => disk.read_region(local),
            None => {
                drop(view);
                let (s, local) = self.locate(idx);
                self.shards[s].read_region(local)
            }
        };
        // A block whose bytes did not validate is `InvalidData`, the
        // errors a `DiskSource` counts as corrupt in its own books.
        let block = read.inspect_err(|e| {
            if e.kind() == io::ErrorKind::InvalidData {
                self.stats.record_corrupt_block();
            }
        })?;
        self.stats
            .record_region_read(block.encoded_len() as u64, block.n() as u64);
        Ok(block)
    }

    /// This source's own read counters only: every read it routes is
    /// counted here once, whichever shard or overlay served it. A
    /// shard's inner layers keep books of their own, read through
    /// [`ShardedSource::shard`]'s snapshot.
    fn snapshot(&self) -> MetricsSnapshot {
        self.stats.snapshot()
    }

    /// Counted here, where [`TrainingSource::snapshot`] reads it.
    fn record_corrupt_block(&self) {
        self.stats.record_corrupt_block();
    }

    fn find_region(&self, coords: &[u32]) -> Option<usize> {
        self.shards
            .iter()
            .zip(&self.starts)
            .find_map(|(shard, &start)| Some(start + shard.find_region(coords)?))
    }

    /// Off the row-count lane for a layout opened from a directory.
    fn total_examples(&self) -> io::Result<u64> {
        if let Some(v) = self.view().as_ref() {
            return Ok(v.layout.examples);
        }
        let mut total = 0;
        for i in 0..self.num_regions() {
            total += self.read_region(i)?.n() as u64;
        }
        Ok(total)
    }

    fn shard_starts(&self) -> Option<Vec<usize>> {
        Some(self.starts.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::crash;
    use crate::cache::CachedSource;
    use crate::format::{encode_block_v2, HEADER_LEN};
    use crate::source::MemorySource;
    use bellwether_obs::NoopRecorder;
    use std::cell::Cell;
    use std::collections::HashMap;

    thread_local! {
        /// Layout member files — shards and overlays — opened on this
        /// thread.
        static MEMBERS_OPENED: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn member_opened() {
        MEMBERS_OPENED.with(|c| c.set(c.get() + 1));
    }

    /// A [`MemberWriter`] as a failed spawn leaves it: it writes inline.
    fn inline_writer() -> MemberWriter {
        MemberWriter { thread: None }
    }

    /// The generation published in the layout at `dir`.
    fn published(dir: &Path) -> u64 {
        let manifest = ShardManifest::read(&dir.join(MANIFEST_NAME)).unwrap();
        manifest.published_generation(dir).unwrap()
    }

    fn members_opened() -> u64 {
        MEMBERS_OPENED.with(Cell::get)
    }

    /// `src` serves what a fresh open of `dir` serves, block for block
    /// and byte for byte.
    fn assert_serves_a_fresh_open(src: &ShardedSource, dir: &Path, ctx: &str) {
        let fresh = ShardedSource::open(dir).unwrap();
        assert_eq!(src.manifest(), fresh.manifest(), "{ctx}");
        for r in 0..fresh.num_regions() {
            let (got, want) = (src.read_region(r).unwrap(), fresh.read_region(r).unwrap());
            assert_eq!(got, want, "{ctx}: region {r}");
            let (mut a, mut b) = (Vec::new(), Vec::new());
            encode_block_v2(&got, &mut a);
            encode_block_v2(&want, &mut b);
            assert_eq!(a, b, "{ctx}: region {r} bytes");
        }
    }

    fn block(region: u32, rows: usize) -> RegionBlock {
        let mut b = RegionBlock::new(vec![region], 2);
        for i in 0..rows {
            b.push(i as i64, &[1.0, region as f64 + i as f64], i as f64);
        }
        b
    }

    /// A replacement block of `region`: its coordinates, other values
    /// (`salt` tells replacements apart).
    fn rewritten(region: usize, rows: usize, salt: u32) -> RegionBlock {
        let mut b = block(region as u32, rows);
        b.targets.iter_mut().for_each(|y| *y += f64::from(salt));
        b
    }

    /// Append one generation replacing `regions` (ascending), each with
    /// `rows(r)` rows; returns the generation `finish` reports.
    fn append(dir: &Path, regions: &[usize], rows: impl Fn(usize) -> usize, salt: u32) -> u64 {
        let mut app = ShardAppender::open(dir).unwrap();
        for &r in regions {
            app.write_region(r, &rewritten(r, rows(r), salt)).unwrap();
        }
        app.finish().unwrap()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bw_shard_test").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_sharded(dir: &Path, regions: usize, shards: usize) -> ShardManifest {
        let mut w = ShardedWriter::create(dir, 2, 1, even_shard_plan(regions, shards)).unwrap();
        for r in 0..regions {
            w.write_region(&block(r as u32, 1 + r % 3)).unwrap();
        }
        w.finish().unwrap()
    }

    fn base_manifest() -> ShardManifest {
        ShardManifest {
            p: 5,
            arity: 2,
            write_id: 1,
            examples: 170,
            shards: vec![
                ShardMeta {
                    file: "shard-0000.bwtd".into(),
                    regions: 10,
                    examples: 100,
                    bytes: 4096,
                },
                ShardMeta {
                    file: "shard-0001.bwtd".into(),
                    regions: 7,
                    examples: 70,
                    bytes: 2048,
                },
            ],
        }
    }

    /// A forged manifest: the trailer recomputed over edited bytes.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes.truncate(bytes.len() - 4);
        seal(&mut bytes, 0);
        bytes
    }

    /// The layout as it was written before shards committed on a writer
    /// thread: each shard finished and committed in turn under the name a
    /// fresh directory's first write gives it, its size read back from
    /// the file system, then the manifest. The byte oracle of
    /// [`ShardedWriter`].
    fn write_sharded_synchronously(
        dir: &Path,
        plan: &[usize],
        blocks: &[RegionBlock],
    ) -> ShardManifest {
        let mut blocks = blocks.iter();
        let mut shards = Vec::new();
        for (s, &regions) in plan.iter().enumerate() {
            let path = dir.join(shard_file_name(1, s));
            let mut w = TrainingWriter::create(&path, 2, 1).unwrap();
            let mut examples = 0;
            for b in blocks.by_ref().take(regions) {
                w.write_region(b).unwrap();
                examples += b.n() as u64;
            }
            w.finish().unwrap();
            shards.push(ShardMeta {
                file: shard_file_name(1, s),
                regions: regions as u64,
                examples,
                bytes: fs::metadata(&path).unwrap().len(),
            });
        }
        let manifest = ShardManifest {
            p: 2,
            arity: 1,
            write_id: 1,
            examples: shards.iter().map(|m| m.examples).sum(),
            shards,
        };
        manifest.write_atomic(&dir.join(MANIFEST_NAME)).unwrap();
        manifest
    }

    /// Every file of `dir` by name, with its bytes.
    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().into_string().unwrap(),
                    fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    /// A rewrite that stops short of `finish` leaves the disk as a crash
    /// after two shard commits would: the new shards 0–1 linked under
    /// names of their own, no new manifest. The old layout is still what
    /// the directory serves, block for block, never old and new blocks
    /// together; a rewrite that finishes serves only its own blocks.
    #[test]
    fn an_interrupted_rewrite_leaves_the_old_layout() {
        let dir = tmp_dir("rewrite");
        let old = |r: usize| block(r as u32, 1 + r % 3);
        // New targets, the same row counts: every file keeps its size.
        let new = |r: usize| {
            let mut b = old(r);
            b.targets.iter_mut().for_each(|y| *y += 100.0);
            b
        };
        let write = |blocks: &dyn Fn(usize) -> RegionBlock, regions: usize| {
            let mut w = ShardedWriter::create(&dir, 2, 1, even_shard_plan(6, 3)).unwrap();
            for r in 0..regions {
                w.write_region(&blocks(r)).unwrap();
            }
            if regions == 6 {
                w.finish().unwrap();
            }
        };
        write(&old, 6);
        write(&new, 5);
        let src = ShardedSource::open(&dir).unwrap();
        for r in 0..6 {
            assert_eq!(*src.read_region(r).unwrap(), old(r), "region {r}");
        }
        write(&new, 6);
        let src = ShardedSource::open(&dir).unwrap();
        for r in 0..6 {
            assert_eq!(*src.read_region(r).unwrap(), new(r), "region {r}");
        }
    }

    #[test]
    fn layouts_and_overlays_match_the_synchronous_oracle_byte_for_byte() {
        for (case, plan) in [vec![4, 4, 3], vec![3, 0, 5, 1, 0], vec![0], vec![9]]
            .into_iter()
            .enumerate()
        {
            let total = plan.iter().sum::<usize>();
            let blocks: Vec<RegionBlock> =
                (0..total).map(|r| block(r as u32, 1 + r * 7 % 5)).collect();
            let (threaded, oracle) = (
                tmp_dir(&format!("ident-{case}")),
                tmp_dir(&format!("oracle-{case}")),
            );
            let mut w = ShardedWriter::create(&threaded, 2, 1, plan.clone()).unwrap();
            for b in &blocks {
                w.write_region(b).unwrap();
            }
            let manifest = w.finish().unwrap();
            assert_eq!(
                manifest,
                write_sharded_synchronously(&oracle, &plan, &blocks)
            );
            assert_eq!(dir_bytes(&threaded), dir_bytes(&oracle), "plan {plan:?}");
            for meta in &manifest.shards {
                assert_eq!(
                    meta.bytes,
                    fs::metadata(threaded.join(&meta.file)).unwrap().len()
                );
            }

            // One append over each: the overlay's size is the writer's
            // count, and both layouts stay byte-identical.
            if total > 0 {
                for dir in [&threaded, &oracle] {
                    let mut regions = vec![total / 2, total - 1];
                    regions.dedup();
                    assert_eq!(append(dir, &regions, |r| 6 - r % 4, 900), 1);
                    let appended = ShardedSource::open(dir).unwrap().manifest().unwrap();
                    let overlay = &appended.overlays[0];
                    assert_eq!(
                        overlay.bytes,
                        fs::metadata(dir.join(&overlay.file)).unwrap().len()
                    );
                }
                assert_eq!(
                    dir_bytes(&threaded),
                    dir_bytes(&oracle),
                    "plan {plan:?} appended"
                );
            }
            fs::remove_dir_all(&threaded).ok();
            fs::remove_dir_all(&oracle).ok();
        }
    }

    #[test]
    fn a_failed_shard_commit_fails_the_writer_and_no_manifest_is_written() {
        let dir = tmp_dir("commit-fails");
        let mut w = ShardedWriter::create(&dir, 2, 1, vec![2, 2, 2]).unwrap();
        // A non-empty directory where shard 0 goes: its link fails.
        let taken = dir.join(shard_file_name(w.write_id, 0));
        fs::create_dir_all(&taken).unwrap();
        fs::write(taken.join("keep"), b"x").unwrap();
        let writes: Vec<io::Result<()>> = (0..6).map(|r| w.write_region(&block(r, 40))).collect();
        // Shard 0 closes in the third write, so no earlier one can know.
        assert!(writes[..3].iter().all(Result::is_ok));
        // Once a write has failed, every later one does too.
        if let Some(first) = writes.iter().position(Result::is_err) {
            assert!(writes[first..].iter().all(Result::is_err));
        }
        assert!(w.finish().is_err(), "finish published over a failed commit");
        assert!(!dir.join(MANIFEST_NAME).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropping_an_unfinished_writer_joins_its_commit() {
        for round in 0..4 {
            let dir = tmp_dir(&format!("drop-{round}"));
            let mut w = ShardedWriter::create(&dir, 2, 1, vec![3, 3]).unwrap();
            for r in 0..4 {
                w.write_region(&block(r, 2000)).unwrap();
            }
            drop(w);
            // Shard 0 has landed and nothing is still writing into the
            // directory: it removes whole, and stays removed.
            assert!(dir.join(shard_file_name(1, 0)).exists());
            fs::remove_dir_all(&dir).unwrap();
            assert!(!dir.exists());
        }
    }

    #[test]
    fn manifest_roundtrip_and_checksum() {
        let m = base_manifest();
        let bytes = m.encode();
        assert_eq!(ShardManifest::decode(&bytes).unwrap(), m);
        assert_eq!(m.total_regions(), 17);
        assert_eq!(m.total_examples(), 170);
        assert_eq!(m.shard_starts(), vec![0, 10]);
        // Any single-byte corruption is detected.
        for i in [0, 4, 12, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(ShardManifest::decode(&bad).is_err(), "byte {i}");
        }
    }

    /// `manifest`'s bytes as version 2 wrote them: the generation after
    /// the arities, and an overlay table, each overlay's name, size and
    /// regions, after the shards.
    fn encode_v2(m: &ShardManifest, generation: u64, overlays: &[OverlayMeta]) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_slice(&MANIFEST_MAGIC);
        out.put_u32_le(2);
        out.put_u32_le(m.p);
        out.put_u32_le(m.arity);
        out.put_u64_le(generation);
        out.put_u64_le(m.examples);
        out.put_u32_le(m.shards.len() as u32);
        for s in &m.shards {
            out.put_str(&s.file);
            out.put_u64_le(s.regions);
            out.put_u64_le(s.examples);
            out.put_u64_le(s.bytes);
        }
        out.put_u32_le(overlays.len() as u32);
        for o in overlays {
            out.put_str(&o.file);
            out.put_u64_le(o.bytes);
            out.put_u64_vec(&o.regions);
        }
        seal(&mut out, 0);
        out
    }

    /// A manifest of version 2 — of a layout at generation 0, of a later
    /// generation, or listing overlays — is refused as an unsupported
    /// version: structure (its bytes verify), never a panic. So are
    /// version 1 and unknown future versions, and a version 3 manifest
    /// whose example total is not its shards' sum.
    #[test]
    fn a_manifest_of_an_appended_layout_is_refused() {
        let overlay = OverlayMeta {
            file: "overlay-0001.bwtd".into(),
            bytes: 512,
            regions: vec![2, 9, 11],
        };
        let m = base_manifest();
        let mut corrected = base_manifest();
        corrected.examples = 190;
        let mut other = base_manifest().encode();
        other[4] = 1;
        let mut future = base_manifest().encode();
        future[4] = 9;
        for (case, bytes, says) in [
            (
                "v2",
                encode_v2(&m, 0, &[]),
                "unsupported manifest version 2",
            ),
            (
                "v2 listed",
                encode_v2(&m, 1, &[overlay]),
                "unsupported manifest version 2",
            ),
            (
                "v2 generation 3",
                encode_v2(&m, 3, &[]),
                "unsupported manifest version 2",
            ),
            ("v1", reseal(other), "unsupported manifest version 1"),
            ("v9", reseal(future), "unsupported manifest version 9"),
            ("corrected total", corrected.encode(), "190"),
        ] {
            let err = ShardManifest::decode(&bytes).expect_err(case);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
            assert!(
                !crate::is_corrupt(&err),
                "{case}: verified bytes are not corrupt"
            );
            assert!(err.to_string().contains(says), "{case}: {err}");
        }
    }

    /// An overlay file is adopted only if each of its blocks names a
    /// region of the layout, in ascending order, at the layout's
    /// feature arity: otherwise the open (and a refresh) fails whole.
    #[test]
    fn overlay_region_lists_must_be_ascending_and_in_range() {
        let dir = tmp_dir("overlay_lists");
        let overlay = overlay_file_name(write_sharded(&dir, 6, 2).write_id, 1);
        for (case, blocks) in [
            ("descending", vec![block(3, 1), block(1, 1)]),
            ("repeated", vec![block(2, 1), block(2, 2)]),
            ("out of range", vec![block(2, 1), block(17, 1)]),
            ("feature arity", vec![RegionBlock::new(vec![2], 3)]),
        ] {
            let p = blocks[0].p;
            let mut w = TrainingWriter::create(&dir.join(&overlay), p, 1).unwrap();
            for b in &blocks {
                w.write_region(b).unwrap();
            }
            w.finish().unwrap();
            let err = ShardedSource::open(&dir).err().expect(case);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
            assert!(err.to_string().contains(&overlay), "{case}: {err}");
        }
        fs::remove_file(dir.join(&overlay)).unwrap();
        let src = ShardedSource::open(&dir).unwrap();
        assert_eq!(src.generation(), 0);
        assert_eq!(src.refresh().unwrap(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    /// The checksum is no guard against a count that was *written*
    /// wrong: recompute it over oversized shard counts (the last field
    /// of a manifest with no shards). Each must be refused against the
    /// bytes left, before it sizes a vector (an unchecked
    /// `with_capacity` aborts the process inside the allocator).
    #[test]
    fn oversized_counts_under_a_valid_checksum_are_rejected() {
        let mut m = base_manifest();
        m.shards.clear();
        m.examples = 0;
        let clean = m.encode();
        assert_eq!(clean.len(), 40, "no shards");
        assert_eq!(ShardManifest::decode(&clean).unwrap(), m);
        for count in [1u32, 1 << 20, u32::MAX] {
            let mut bytes = clean.clone();
            bytes[32..36].copy_from_slice(&count.to_le_bytes());
            let err = ShardManifest::decode(&reseal(bytes)).expect_err("shard count");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{count}: {err}");
        }
    }

    /// Nor against values that sum past a `u64`: two forged region
    /// counts, then two forged shard example counts, are refused in
    /// `decode`, where every later sum over the shards is taken once.
    #[test]
    fn overflowing_shard_totals_under_a_valid_checksum_are_rejected() {
        let clean = base_manifest().encode();
        // 36 header bytes, then per shard a 4 + 15 byte name and
        // regions | examples | bytes.
        let shard = |s: usize| 36 + s * (19 + 24) + 19;
        assert_eq!(
            clean[shard(1)..][..8],
            7u64.to_le_bytes(),
            "shard 1's region count"
        );
        for (field, what) in [(0, "regions"), (8, "examples")] {
            let mut bytes = clean.clone();
            bytes[shard(0) + field..][..8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
            bytes[shard(1) + field..][..8].copy_from_slice(&2u64.to_le_bytes());
            let err = ShardManifest::decode(&reseal(bytes)).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(
                !crate::is_corrupt(&err),
                "{what}: verified bytes are not corrupt"
            );
        }
        // Nor against a shard example count that sums right but is not
        // what the shard's index holds: the open stops, before any
        // total is kept from it.
        let dir = tmp_dir("forged_total");
        let mut m = write_sharded(&dir, 4, 2);
        m.shards[0].examples += 1;
        m.shards[1].examples -= 1;
        m.write_atomic(&dir.join(MANIFEST_NAME)).unwrap();
        let err = ShardedSource::open(&dir)
            .err()
            .expect("a forged shard total");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&m.shards[0].file), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn even_plan_covers_total() {
        assert_eq!(even_shard_plan(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(even_shard_plan(3, 4), vec![1, 1, 1, 0]);
        assert_eq!(even_shard_plan(0, 2), vec![0, 0]);
        assert_eq!(even_shard_plan(5, 1), vec![5]);
    }

    #[test]
    fn sharded_write_read_matches_flat() {
        let dir = tmp_dir("rw");
        let regions = 11;
        let manifest = write_sharded(&dir, regions, 3);
        assert_eq!(manifest.total_regions(), 11);
        assert_eq!(manifest.shards.len(), 3);

        let src = ShardedSource::open(&dir).unwrap();
        assert_eq!(src.num_regions(), regions);
        assert_eq!(src.num_shards(), 3);
        assert_eq!(src.shard_starts(), Some(vec![0, 4, 8]));
        for r in 0..regions {
            let b = src.read_region(r).unwrap();
            assert_eq!(*b, block(r as u32, 1 + r % 3), "region {r}");
            assert_eq!(src.region_coords(r), &[r as u32]);
        }
        assert_eq!(src.snapshot().regions_read(), regions as u64);
        // Manifest-backed total_examples reads nothing further.
        let before = src.snapshot().regions_read();
        assert_eq!(
            src.total_examples().unwrap(),
            (0..regions).map(|r| 1 + r as u64 % 3).sum::<u64>()
        );
        assert_eq!(src.snapshot().regions_read(), before);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_tampered_manifest_and_resized_shard() {
        let dir = tmp_dir("tamper");
        write_sharded(&dir, 6, 2);
        // Corrupt the manifest.
        let mpath = dir.join(MANIFEST_NAME);
        let mut bytes = fs::read(&mpath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&mpath, &bytes).unwrap();
        assert!(ShardedSource::open(&dir).is_err());

        // Restore, then truncate a shard file.
        let m = write_sharded(&dir, 6, 2);
        let shard0 = dir.join(&m.shards[0].file);
        let data = fs::read(&shard0).unwrap();
        fs::write(&shard0, &data[..data.len() - 1]).unwrap();
        let err = ShardedSource::open(&dir)
            .err()
            .expect("resized shard rejected");
        assert!(err.to_string().contains("bytes"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_enforces_the_plan() {
        let dir = tmp_dir("plan");
        let mut w = ShardedWriter::create(&dir, 2, 1, vec![1, 1]).unwrap();
        w.write_region(&block(0, 1)).unwrap();
        w.write_region(&block(1, 1)).unwrap();
        assert!(w.write_region(&block(2, 1)).is_err(), "plan exhausted");

        let mut w = ShardedWriter::create(&dir, 2, 1, vec![2, 1]).unwrap();
        w.write_region(&block(0, 1)).unwrap();
        assert!(w.finish().is_err(), "short write rejected");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_region_shards_get_valid_empty_files() {
        let dir = tmp_dir("zero");
        let mut w = ShardedWriter::create(&dir, 2, 1, vec![0, 2, 0]).unwrap();
        w.write_region(&block(0, 1)).unwrap();
        w.write_region(&block(1, 1)).unwrap();
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.shards.len(), 3);
        assert_eq!(manifest.shards[0].regions, 0);
        assert_eq!(manifest.shards[2].regions, 0);
        let src = ShardedSource::open(&dir).unwrap();
        assert_eq!(src.num_regions(), 2);
        assert_eq!(src.read_region(1).unwrap().region, vec![1]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn layered_open_wraps_each_shard() {
        let dir = tmp_dir("layered");
        write_sharded(&dir, 8, 4);
        let src =
            ShardedSource::open_layered(&dir, |disk| Box::new(CachedSource::new(disk, 1 << 20)))
                .unwrap();
        assert_eq!(src.num_shards(), 4);
        for r in 0..8 {
            src.read_region(r).unwrap();
            src.read_region(r).unwrap();
        }
        // The sharded view counts every routed read; the per-shard
        // caches served half of them without touching disk.
        assert_eq!(src.snapshot().regions_read(), 16);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_sources_concatenates_memory_shards() {
        let a = MemorySource::new(vec![block(0, 1), block(1, 1)]);
        let b = MemorySource::new(vec![block(2, 1)]);
        let src = ShardedSource::from_sources(vec![Box::new(a), Box::new(b)]).unwrap();
        assert_eq!(src.num_regions(), 3);
        assert_eq!(src.locate(0), (0, 0));
        assert_eq!(src.locate(1), (0, 1));
        assert_eq!(src.locate(2), (1, 0));
        assert_eq!(src.find_region(&[2]), Some(2));
        assert_eq!(src.region_coords(2), &[2]);
    }

    #[test]
    fn append_replaces_blocks_under_a_new_generation() {
        let dir = tmp_dir("append");
        write_sharded(&dir, 6, 2);

        let before = fs::read(dir.join(MANIFEST_NAME)).unwrap();
        let mut app = ShardAppender::open(&dir).unwrap();
        assert_eq!(app.generation(), 0);
        app.write_region(1, &rewritten(1, 4, 100)).unwrap();
        app.write_region(4, &rewritten(4, 5, 200)).unwrap();
        assert_eq!(app.finish().unwrap(), 1);
        // The overlay file is the commit: the manifest is not rewritten.
        assert_eq!(fs::read(dir.join(MANIFEST_NAME)).unwrap(), before);
        assert_eq!(published(&dir), 1);

        // A fresh open resolves replaced regions through the overlay and
        // leaves clean regions untouched.
        let src = ShardedSource::open(&dir).unwrap();
        let manifest = src.manifest().unwrap();
        assert_eq!(manifest.generation, 1);
        assert_eq!(manifest.overlays.len(), 1);
        assert_eq!(manifest.overlays[0].regions, vec![1, 4]);
        // Old blocks had 1 + r % 3 rows: region 1 had 2, region 4 had 2.
        let old_total: u64 = (0..6).map(|r| 1 + r as u64 % 3).sum();
        assert_eq!(manifest.examples, old_total - 2 - 2 + 4 + 5);
        assert_eq!(src.generation(), 1);
        assert_eq!(*src.read_region(1).unwrap(), rewritten(1, 4, 100));
        assert_eq!(*src.read_region(4).unwrap(), rewritten(4, 5, 200));
        assert_eq!(*src.read_region(0).unwrap(), block(0, 1));
        assert_eq!(src.total_examples().unwrap(), manifest.examples);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refresh_adopts_new_generations_in_place() {
        let dir = tmp_dir("refresh");
        write_sharded(&dir, 6, 3);
        let src = ShardedSource::open(&dir).unwrap();
        assert_eq!(*src.read_region(2).unwrap(), block(2, 3));
        assert_eq!(src.refresh().unwrap(), 0, "unchanged manifest is a no-op");

        append(&dir, &[2], |_| 1, 42);

        // The open source still serves its consistent old snapshot...
        assert_eq!(*src.read_region(2).unwrap(), block(2, 3));
        // ...until it refreshes.
        assert_eq!(src.refresh().unwrap(), 1);
        assert_eq!(*src.read_region(2).unwrap(), rewritten(2, 1, 42));

        // Chained appends, over the source itself: the latest overlay
        // shadows earlier ones.
        let writer = inline_writer();
        let mut app = writer.append(&src);
        app.write_region(2, Arc::new(rewritten(2, 2, 43))).unwrap();
        app.write_region(5, Arc::new(rewritten(5, 2, 44))).unwrap();
        assert_eq!(app.commit().join(&NoopRecorder).unwrap(), 2);
        assert_eq!(src.refresh().unwrap(), 2);
        assert_eq!(*src.read_region(2).unwrap(), rewritten(2, 2, 43));
        assert_eq!(*src.read_region(5).unwrap(), rewritten(5, 2, 44));
        assert_eq!(*src.read_region(0).unwrap(), block(0, 1));
        // Two appends that came in while the source looked away are
        // adopted by one refresh.
        append(&dir, &[0, 1], |_| 3, 45);
        append(&dir, &[1], |_| 1, 46);
        assert_eq!(src.refresh().unwrap(), 4);
        assert_serves_a_fresh_open(&src, &dir, "two at once");
        fs::remove_dir_all(&dir).ok();
    }

    /// A refresh opens the one overlay its generation added and nothing
    /// the source already holds: exactly one member per append that
    /// wrote blocks, none after one that replaced nothing (which
    /// publishes nothing), however many generations came before.
    #[test]
    fn refresh_opens_only_the_overlay_each_append_adds() {
        let dir = tmp_dir("refresh_incremental");
        write_sharded(&dir, 12, 3);
        let src = ShardedSource::open(&dir).unwrap();
        let mut generation = 0;
        for k in 1..=20u32 {
            // Every fifth append replaces nothing; region 5 is dirtied by
            // every other one.
            let regions: Vec<usize> = if k % 5 == 0 {
                Vec::new()
            } else {
                let mut r = vec![(k as usize * 7) % 12, 5 * (k as usize % 2)];
                r.sort_unstable();
                r.dedup();
                r
            };
            generation += u64::from(!regions.is_empty());
            assert_eq!(append(&dir, &regions, |r| 1 + r % 4, 100 * k), generation);
            let before = members_opened();
            assert_eq!(src.refresh().unwrap(), generation);
            let opened = members_opened() - before;
            assert_eq!(
                opened,
                u64::from(!regions.is_empty()),
                "append {k}: {regions:?}"
            );
            let before = members_opened();
            assert_eq!(src.refresh().unwrap(), generation, "nothing published");
            assert_eq!(
                members_opened(),
                before,
                "append {k}: a no-op refresh opened a file"
            );
            if [1, 5, 20].contains(&k) {
                assert_serves_a_fresh_open(&src, &dir, &format!("after {k} appends"));
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A rotten block in a shard or an overlay is counted in the sharded
    /// source's own books — the ones its snapshot and its registry read.
    #[test]
    fn a_corrupt_shard_or_overlay_block_is_counted_where_the_snapshot_reads() {
        let dir = tmp_dir("corrupt_books");
        let m = write_sharded(&dir, 4, 2);
        append(&dir, &[3], |_| 2, 30);
        // The first block of shard 0 (region 0) and of the overlay
        // (region 3) each get one byte flipped.
        for file in [
            shard_file_name(m.write_id, 0),
            overlay_file_name(m.write_id, 1),
        ] {
            let path = dir.join(file);
            let mut bytes = fs::read(&path).unwrap();
            bytes[HEADER_LEN + 12] ^= 0x20;
            fs::write(&path, &bytes).unwrap();
        }
        let reg = Registry::shared();
        let src = ShardedSource::open_with_registry(&dir, &reg).unwrap();
        for (region, corrupt) in [(0, 1), (1, 1), (3, 2)] {
            let read = src.read_region(region);
            assert_eq!(read.is_err(), region != 1, "region {region}");
            if let Err(err) = read {
                assert!(crate::is_corrupt(&err), "{err}");
            }
            assert_eq!(src.snapshot().corrupt_blocks(), corrupt, "region {region}");
            assert_eq!(reg.snapshot().corrupt_blocks(), corrupt, "region {region}");
        }
        assert_eq!(
            src.snapshot().regions_read(),
            1,
            "only the healthy read counted"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appender_enforces_order_range_and_empty_appends() {
        let dir = tmp_dir("append_guard");
        write_sharded(&dir, 4, 2);
        let mut app = ShardAppender::open(&dir).unwrap();
        app.write_region(2, &block(2, 1)).unwrap();
        assert!(app.write_region(2, &block(2, 1)).is_err(), "not ascending");
        assert!(app.write_region(1, &block(1, 1)).is_err(), "not ascending");
        assert!(app.write_region(4, &block(4, 1)).is_err(), "out of range");
        let err = app
            .write_region(3, &block(9, 1))
            .expect_err("another region's block");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        drop(app);
        assert_eq!(published(&dir), 0, "a dropped append publishes nothing");

        // An append that replaced nothing publishes no file, leaves no
        // temporary one, and reports the generation unchanged.
        let before = dir_bytes(&dir);
        let app = ShardAppender::open(&dir).unwrap();
        assert_eq!(app.finish().unwrap(), 0);
        assert_eq!(dir_bytes(&dir), before);
        assert_eq!(ShardedSource::open(&dir).unwrap().generation(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    /// One writer per generation: of two appends at the same generation,
    /// the first to finish publishes it and the second fails with
    /// `AlreadyExists`, whatever it wrote and whenever; readers see the
    /// first one's blocks and no temporary file stays.
    #[test]
    fn a_second_appender_at_one_generation_fails_and_the_first_overlay_stands() {
        let dir = tmp_dir("one_writer");
        let overlay = dir.join(overlay_file_name(write_sharded(&dir, 6, 2).write_id, 1));
        let src = ShardedSource::open(&dir).unwrap();
        let writer = MemberWriter::new();
        let (mut first, mut second) = (ShardAppender::open(&dir).unwrap(), writer.append(&src));
        assert_eq!(first.generation(), 0);
        first.write_region(1, &rewritten(1, 2, 10)).unwrap();
        second
            .write_region(1, Arc::new(rewritten(1, 5, 20)))
            .unwrap();
        second
            .write_region(4, Arc::new(rewritten(4, 5, 20)))
            .unwrap();
        first.write_region(3, &rewritten(3, 2, 10)).unwrap();
        assert_eq!(first.finish().unwrap(), 1);
        let published = fs::read(&overlay).unwrap();
        let err = second
            .commit()
            .join(&NoopRecorder)
            .expect_err("a published generation replaced");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists, "{err}");
        assert_eq!(fs::read(&overlay).unwrap(), published);
        let names: Vec<String> = dir_bytes(&dir).into_iter().map(|(name, _)| name).collect();
        assert!(names.iter().all(|n| !n.ends_with(".tmp")), "{names:?}");
        assert_eq!(src.refresh().unwrap(), 1);
        assert_eq!(*src.read_region(1).unwrap(), rewritten(1, 2, 10));
        assert_eq!(*src.read_region(4).unwrap(), block(4, 2));
        assert_serves_a_fresh_open(&src, &dir, "first writer's generation");
        fs::remove_dir_all(&dir).ok();
    }

    /// A rewrite over an appended layout sweeps its overlays: opened
    /// again, the layout is the rewrite's alone at generation 0, even
    /// though its blocks have the shapes (so the shard files the sizes)
    /// of the old ones and the old overlays would still map onto it.
    #[test]
    fn a_rewrite_sweeps_the_overlays_of_the_layout_it_replaces() {
        let dir = tmp_dir("rewrite_sweep");
        write_sharded(&dir, 8, 2);
        for (g, regions) in [[1usize, 5], [2, 5], [0, 7]].iter().enumerate() {
            append(&dir, regions, |r| 1 + r % 3, g as u32 + 1);
        }
        // A leftover temporary file of an append that never finished.
        let mut stale = ShardAppender::open(&dir).unwrap();
        stale.write_region(3, &rewritten(3, 1, 9)).unwrap();
        std::mem::forget(stale);
        assert_eq!(published(&dir), 3);

        let mut w = ShardedWriter::create(&dir, 2, 1, even_shard_plan(8, 2)).unwrap();
        assert_eq!(w.write_id, 2);
        for r in 0..8 {
            w.write_region(&rewritten(r, 1 + r % 3, 500)).unwrap();
        }
        w.finish().unwrap();
        let names: Vec<String> = dir_bytes(&dir).into_iter().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            [
                MANIFEST_NAME,
                "w0002-shard-0000.bwtd",
                "w0002-shard-0001.bwtd"
            ]
        );
        let src = ShardedSource::open(&dir).unwrap();
        assert_eq!(src.generation(), 0);
        for r in 0..8 {
            assert_eq!(
                *src.read_region(r).unwrap(),
                rewritten(r, 1 + r % 3, 500),
                "region {r}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A crash after the manifest's rename and before the sweep leaves
    /// the old write's overlays on disk: the new layout opens at
    /// generation 0 and adopts none of them, and an append publishes
    /// generation 1 under the new write id.
    #[test]
    fn a_crash_before_the_sweep_leaves_the_new_layout_at_generation_0() {
        let dir = tmp_dir("before_sweep");
        let rewrite = || {
            let mut w = ShardedWriter::create(&dir, 2, 1, even_shard_plan(6, 2))?;
            for r in 0..6 {
                w.write_region(&rewritten(r, 1 + r % 3, 500))?;
            }
            w.finish().map(|m| m.write_id)
        };
        let mut k = 0;
        let (old_overlay, id) = loop {
            fs::remove_dir_all(&dir).ok();
            let old = write_sharded(&dir, 6, 2).write_id;
            append(&dir, &[1, 4], |_| 2, 1);
            append(&dir, &[4], |_| 1, 2);
            let (_, crashed) = crash::at(k, rewrite);
            assert!(
                crashed,
                "the rewrite ran whole before a crash left the sweep undone"
            );
            let old_overlay = dir.join(overlay_file_name(old, 2));
            let id = ShardManifest::read(&dir.join(MANIFEST_NAME))
                .unwrap()
                .write_id;
            if id != old && old_overlay.exists() {
                break (old_overlay, id);
            }
            k += 1;
        };
        let src = ShardedSource::open(&dir).unwrap();
        assert_eq!(src.generation(), 0);
        for r in 0..6 {
            assert_eq!(
                *src.read_region(r).unwrap(),
                rewritten(r, 1 + r % 3, 500),
                "region {r}"
            );
        }
        assert_eq!(append(&dir, &[2], |_| 4, 3), 1);
        assert!(dir.join(overlay_file_name(id, 1)).exists());
        assert!(old_overlay.exists(), "the next write's sweep takes it");
        assert_eq!(src.refresh().unwrap(), 1);
        assert_eq!(*src.read_region(2).unwrap(), rewritten(2, 4, 3));
        fs::remove_dir_all(&dir).ok();
    }

    /// The sweep after a write's commit takes the layout files of every
    /// other write id, published or temporary, and only those: a
    /// snapshot, any other file and a name of the older layout
    /// format stay. A write id is never reused, even when a crashed
    /// writer left files under it.
    #[test]
    fn the_sweep_takes_only_layout_files_of_other_writes() {
        let dir = tmp_dir("sweep_scope");
        write_sharded(&dir, 6, 2);
        append(&dir, &[3], |_| 2, 1);
        for keep in [
            "model.bwsn",
            "notes.txt",
            "shard-0000.bwtd",
            "wide-shard-0000.bwtd",
        ] {
            fs::write(dir.join(keep), keep).unwrap();
        }
        // A writer that stops once shard 0 is linked: write 2's files.
        let mut crashed = ShardedWriter::create(&dir, 2, 1, vec![3, 3]).unwrap();
        for r in 0..4 {
            crashed.write_region(&block(r, 1)).unwrap();
        }
        drop(crashed);
        assert!(dir.join(shard_file_name(2, 0)).exists());
        let m = write_sharded(&dir, 6, 2);
        assert_eq!(m.write_id, 3, "write 2's leftovers keep its id taken");
        let names: Vec<String> = dir_bytes(&dir).into_iter().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            [
                MANIFEST_NAME,
                "model.bwsn",
                "notes.txt",
                "shard-0000.bwtd",
                "w0003-shard-0000.bwtd",
                "w0003-shard-0001.bwtd",
                "wide-shard-0000.bwtd",
            ]
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// What a layout directory serves: generation, example total and
    /// every block's bytes, or why it serves nothing.
    type Served = Result<(u64, u64, Vec<Vec<u8>>), io::ErrorKind>;

    fn served(dir: &Path) -> Served {
        let src = ShardedSource::open(dir).map_err(|e| e.kind())?;
        let blocks = (0..src.num_regions())
            .map(|r| {
                let mut bytes = Vec::new();
                encode_block_v2(&src.read_region(r).unwrap(), &mut bytes);
                bytes
            })
            .collect();
        Ok((src.generation(), src.total_examples().unwrap(), blocks))
    }

    /// Run `op` over the state `setup` makes, once per crash point — its
    /// first file-system step failing, then its second, and so on until
    /// it runs whole — and hold what each crash leaves to exactly the old
    /// state or the new one. After each crash that did not reach the new
    /// state the operation runs again, unhindered, and must reach it: no
    /// leftover of a crash is adopted or stands in the way. Returns the
    /// number of crash points.
    fn crash_everywhere(
        dir: &Path,
        setup: &dyn Fn(),
        op: &dyn Fn() -> io::Result<()>,
        read: &dyn Fn() -> Served,
    ) -> u64 {
        setup();
        let old = read();
        op().unwrap();
        let new = read();
        assert_ne!(old, new, "the operation changes what is served");
        let mut k = 0;
        loop {
            fs::remove_dir_all(dir).ok();
            fs::create_dir_all(dir).unwrap();
            setup();
            let (done, crashed) = crash::at(k, op);
            let now = read();
            assert!(now == old || now == new, "crash at step {k}: {now:?}");
            if !crashed {
                done.unwrap();
                assert_eq!(now, new, "ran whole at step {k}");
                return k;
            }
            if now != new {
                op().unwrap_or_else(|e| panic!("after a crash at step {k}: {e}"));
                assert_eq!(read(), new, "redone after a crash at step {k}");
            }
            k += 1;
        }
    }

    /// Every crash point of a cold write, a rewrite over an appended
    /// layout, an append and a snapshot save leaves what was there
    /// before or what the operation makes, and the operation redone from
    /// there completes. A rewrite leaves the old layout until its
    /// manifest's rename, because its shards are linked under names of
    /// their own write id, which no live manifest uses, and its sweep
    /// comes after.
    #[test]
    fn every_crash_point_leaves_the_old_state_or_the_new_one() {
        let dir = tmp_dir("crash");
        let write = |salt: u32| {
            let mut w = ShardedWriter::create(&dir, 2, 1, vec![3, 0, 2])?;
            for r in 0..5 {
                w.write_region(&rewritten(r, 1 + r % 3, salt))?;
            }
            w.finish().map(drop)
        };
        let appended = || {
            write(0).unwrap();
            append(&dir, &[1, 4], |_| 3, 1);
            append(&dir, &[4], |_| 1, 2);
        };
        let layout = || served(&dir);
        let cold = crash_everywhere(&dir, &|| {}, &|| write(7), &layout);
        let rewrite = crash_everywhere(&dir, &appended, &|| write(7), &layout);
        let append_op = || {
            let mut app = ShardAppender::open(&dir)?;
            app.write_region(0, &rewritten(0, 4, 3))?;
            app.write_region(4, &rewritten(4, 2, 3))?;
            app.finish().map(drop)
        };
        let appends = crash_everywhere(&dir, &appended, &append_op, &layout);
        // The pipelined append, on a writer thread and inline: the caller
        // creates the file, so the thread's writes, fsync, link, unlink
        // and directory fsync are steps of the caller's plan, the same
        // steps the appender takes. One writer serves every crash point.
        for writer in [MemberWriter::new(), inline_writer()] {
            let pipelined_op = || {
                let src = ShardedSource::open(&dir)?;
                let mut app = writer.append(&src);
                app.write_region(0, Arc::new(rewritten(0, 4, 3)))?;
                app.write_region(4, Arc::new(rewritten(4, 2, 3)))?;
                app.commit().join(&NoopRecorder).map(drop)
            };
            let pipelined = crash_everywhere(&dir, &appended, &pipelined_op, &layout);
            assert_eq!(pipelined, appends, "inline: {}", writer.thread.is_none());
        }
        let path = dir.join("model.bwsn");
        let save = |payload: &[u8]| {
            let mut w = crate::snapshot::SnapshotWriter::create(&path)?;
            w.write_section(1, payload)?;
            w.finish()
        };
        let snapshot = || match fs::read(&path) {
            Ok(bytes) => Ok((0, 0, vec![bytes])),
            Err(e) => Err(e.kind()),
        };
        let old = || save(b"old").unwrap();
        let saves = crash_everywhere(&dir, &old, &|| save(b"new"), &snapshot);
        // Not vacuous: each operation was cut at each kind of step.
        assert!(cold >= 3 * 5 + 2, "cold write: {cold} steps");
        assert!(
            rewrite > cold,
            "rewrite: {rewrite} steps, the sweep among them"
        );
        assert!(appends >= 6, "append: {appends} steps");
        assert!(saves >= 5, "snapshot save: {saves} steps");
        fs::remove_dir_all(&dir).ok();
    }

    /// A pipelined append writes the overlay [`ShardAppender`] writes,
    /// byte for byte, on the writer thread and in the inline fallback a
    /// failed spawn leaves, and records each storage span once.
    #[test]
    fn the_inline_fallback_writes_the_overlay_the_writer_thread_does() {
        let regions = [1, 4, 5, 7];
        let rows = |r: usize| 2 + r;
        let layout = |name: &str| {
            let dir = tmp_dir(name);
            write_sharded(&dir, 8, 3);
            dir
        };
        let oracle = layout("pipelined_oracle");
        assert_eq!(append(&oracle, &regions, rows, 5), 1);
        let want = dir_bytes(&oracle);
        for (writer, inline) in [(MemberWriter::new(), false), (inline_writer(), true)] {
            assert_eq!(writer.thread.is_none(), inline);
            let dir = layout(&format!("pipelined_{inline}"));
            let src = ShardedSource::open(&dir).unwrap();
            let mut app = writer.append(&src);
            for &r in &regions {
                app.write_region(r, Arc::new(rewritten(r, rows(r), 5)))
                    .unwrap();
            }
            let reg = Registry::shared();
            assert_eq!(
                app.commit().join(reg.as_ref()).unwrap(),
                1,
                "inline: {inline}"
            );
            assert_eq!(dir_bytes(&dir), want, "inline: {inline}");
            let snap = reg.snapshot();
            for path in [names::STORAGE_APPEND_WRITE, names::STORAGE_APPEND_COMMIT] {
                assert_eq!(snap.span(path).map(|s| s.calls), Some(1), "{path}");
            }
            assert_eq!(src.refresh().unwrap(), 1);
            assert_serves_a_fresh_open(&src, &dir, &format!("inline: {inline}"));
            fs::remove_dir_all(&dir).ok();
        }
        fs::remove_dir_all(&oracle).ok();
    }

    /// A pipelined append refuses a block out of order or of another
    /// region on the caller, as the appender does; dropped before its
    /// commit it publishes nothing, and the writer thread goes on to the
    /// next append. An append with no block publishes nothing either.
    #[test]
    fn a_pipelined_append_publishes_only_what_it_commits() {
        let dir = tmp_dir("pipelined_drop");
        write_sharded(&dir, 6, 2);
        let src = ShardedSource::open(&dir).unwrap();
        let writer = MemberWriter::new();
        {
            let mut app = writer.append(&src);
            app.write_region(3, Arc::new(rewritten(3, 2, 1))).unwrap();
            let kind = |e: io::Error| e.kind();
            let early = app.write_region(2, Arc::new(rewritten(2, 2, 1)));
            assert_eq!(early.map_err(kind), Err(io::ErrorKind::InvalidInput));
            let misplaced = app.write_region(4, Arc::new(rewritten(5, 2, 1)));
            assert_eq!(misplaced.map_err(kind), Err(io::ErrorKind::InvalidInput));
        }
        let empty = writer.append(&src).commit();
        assert_eq!(empty.join(&NoopRecorder).unwrap(), 0);
        let mut app = writer.append(&src);
        app.write_region(5, Arc::new(rewritten(5, 1, 2))).unwrap();
        assert_eq!(app.commit().join(&NoopRecorder).unwrap(), 1);
        drop(writer);
        // The dropped append's temporary file is the sweep's to remove;
        // no overlay but the committed one was published.
        assert_eq!(published(&dir), 1);
        assert_eq!(src.refresh().unwrap(), 1);
        assert_eq!(src.manifest().unwrap().overlays[0].regions, [5]);
        fs::remove_dir_all(&dir).ok();
    }

    /// What an append replaced, counted from the holder files' indexes
    /// in the view `layout` describes (the newest overlay listing the
    /// region, else its base shard), without reading a block: one oracle
    /// of the row-count lane.
    fn replaced_examples(dir: &Path, layout: &LayoutView, regions: &[u64]) -> io::Result<u64> {
        let manifest = &layout.manifest;
        let starts = manifest.shard_starts();
        let mut holders: HashMap<&str, DiskSource> = HashMap::new();
        let mut examples = 0u64;
        for &r in regions {
            let overlay = layout.overlays.iter().rev().find_map(|o| {
                let local = o.regions.binary_search(&r).ok()?;
                Some((o.file.as_str(), local))
            });
            let (file, local) = overlay.unwrap_or_else(|| {
                let s = starts.partition_point(|&start| start as u64 <= r) - 1;
                (manifest.shards[s].file.as_str(), r as usize - starts[s])
            });
            if !holders.contains_key(file) {
                holders.insert(file, DiskSource::open(&dir.join(file))?);
            }
            examples += block_examples(&holders[file], file, local)?;
        }
        Ok(examples)
    }

    /// The visible example total is kept from the row-count lane: over
    /// 40 appends (one replacing nothing, one touching both shards and
    /// three overlays) it moves as the index-counting oracle says, and
    /// equals the rows of every block a fresh open serves, read whole.
    #[test]
    fn the_row_count_lane_keeps_the_total_the_oracles_count() {
        use bellwether_prop::Rng;
        let dir = tmp_dir("row_lane");
        write_sharded(&dir, 12, 2);
        let src = ShardedSource::open(&dir).unwrap();
        // Hand-picked opening: three overlays, an append that replaces
        // nothing, then one whose regions sit in both base shards (0;
        // 6, 11) and in each of the three overlays (1; 7; 2, 8).
        let mut schedule: Vec<Vec<usize>> = vec![
            vec![1],
            vec![7],
            vec![2, 8],
            vec![],
            vec![0, 1, 2, 6, 7, 8, 11],
        ];
        let mut rng = Rng::new(0xA99E);
        while schedule.len() < 40 {
            schedule.push((0..12).filter(|_| rng.flip(0.3)).collect());
        }
        for (g, regions) in schedule.iter().enumerate() {
            let rows: Vec<usize> = regions.iter().map(|_| rng.usize_in(0, 6)).collect();
            let before = src.manifest().unwrap();
            let wide: Vec<u64> = regions.iter().map(|&r| r as u64).collect();
            let old = replaced_examples(&dir, &before, &wide).unwrap();
            let mut app = ShardAppender::open(&dir).unwrap();
            for (&r, &n) in regions.iter().zip(&rows) {
                app.write_region(r, &rewritten(r, n, g as u32)).unwrap();
            }
            app.finish().unwrap();
            src.refresh().unwrap();
            let new = rows.iter().sum::<usize>() as u64;
            assert_eq!(
                src.total_examples().unwrap(),
                before.examples - old + new,
                "append {g}"
            );
            let fresh = ShardedSource::open(&dir).unwrap();
            let read: u64 = (0..12)
                .map(|r| fresh.read_region(r).unwrap().n() as u64)
                .sum();
            assert_eq!(fresh.total_examples().unwrap(), read, "append {g}");
            assert_eq!(fresh.manifest(), src.manifest(), "append {g}");
        }
        assert_eq!(
            src.generation(),
            39,
            "one of the 40 appends replaced nothing"
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// A holder whose index entry is not a block's length stops the open
    /// (and with it an appender's) instead of keeping a wrong total, in
    /// a base shard and in an overlay alike.
    #[test]
    fn appender_refuses_an_index_length_that_is_no_whole_block() {
        let dir = tmp_dir("count_bad_len");
        let id = write_sharded(&dir, 4, 1).write_id;
        append(&dir, &[1, 2], |_| 2, 5);
        // Grow the `len` of the second index entry from the end by one
        // (its block is followed by another, so the entry still lies
        // inside the block area) in the overlay, then in the shard.
        for file in [overlay_file_name(id, 1), shard_file_name(id, 0)] {
            let path = dir.join(&file);
            let clean = fs::read(&path).unwrap();
            let mut bytes = clean.clone();
            let entry = bytes.len() - crate::format::FOOTER_LEN - 2 * (16 + 4);
            bytes[entry + 8] += 1;
            fs::write(&path, &bytes).unwrap();
            let err = ShardedSource::open(&dir).err().expect("odd length counted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{file}: {err}");
            assert!(err.to_string().contains(&file), "{err}");
            if file.contains("-shard-") {
                let err = ShardAppender::open(&dir)
                    .err()
                    .expect("appender over an odd length");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            }
            fs::write(&path, &clean).unwrap();
        }
        assert_eq!(ShardedSource::open(&dir).unwrap().generation(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registry_bound_source_reports_shard_counters() {
        let dir = tmp_dir("registry");
        write_sharded(&dir, 6, 3);
        let reg = Registry::shared();
        let src = ShardedSource::open_with_registry(&dir, &reg).unwrap();
        for r in 0..6 {
            src.read_region(r).unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.regions_read(), 6);
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        assert_eq!(get(names::SHARD_SHARDS_OPENED), 3);
        fs::remove_dir_all(&dir).ok();
    }
}
