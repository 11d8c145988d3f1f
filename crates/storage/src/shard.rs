//! Sharded on-disk layout for out-of-core training data.
//!
//! A sharded dataset is a directory holding one v2 block file
//! (`shard-NNNN.bwtd`, written by [`crate::TrainingWriter`]) per shard
//! plus a small CRC-32-checksummed manifest (`manifest.bwsm`). Shards
//! partition the global region order into **contiguous ranges**: shard
//! `s` holds regions `[starts[s], starts[s+1])` of the single-file scan
//! order. Concatenating the shards ascending therefore reproduces the
//! exact region sequence a single `.bwtd` file would serve — which is
//! what makes the two-level scan merge (per-shard accumulators merged in
//! ascending shard order) bit-identical to a flat scan.
//!
//! Every shard file is a complete, self-describing training-data file,
//! so the whole PR-4 fault stack applies *per shard*:
//! [`ShardedSource::open_layered`] lets callers wrap each shard's
//! [`DiskSource`] in any combination of
//! `RetryingSource`/`FaultySource`/`CachedSource` before the sharded
//! view is assembled.
//!
//! # Appends and generations
//!
//! A sharded layout is never rewritten in place. An append (new fact
//! rows changing some regions' training blocks) lands as an **overlay
//! file** — one more complete `.bwtd` file holding only the replaced
//! blocks in ascending global-region order, each block naming its region
//! by its coordinates ([`ShardAppender`]). Generation `g`'s overlay is
//! published under its final name `overlay-{g}.bwtd` by a step that never
//! replaces a name, and that publish is the append's commit: the
//! manifest is written once, by [`ShardedWriter`], and an append never
//! touches it. A layout's **generation** is the number of overlay files
//! `overlay-0001.bwtd`, `overlay-0002.bwtd`, … present before the first
//! missing one ([`published_generation`]). Readers that adopted an older
//! generation keep serving that consistent snapshot (its files still
//! exist, untouched); [`ShardedSource::refresh`] adopts newer ones in
//! place. A manifest is written in one layout (format version 2:
//! generation, example total and overlay table always present, the
//! generation 0 and the table empty); any other version, and a manifest
//! that lists overlays, is rejected structurally.

use crate::atomic::{remove_all_durably, remove_durably, AtomicFile};
use crate::block::RegionBlock;
use crate::codec::{bad, seal, verify, Cursor, PutLe};
use crate::metrics::IoStats;
use crate::reader::DiskSource;
use crate::source::TrainingSource;
use crate::writer::TrainingWriter;
use bellwether_obs::{names, span, MetricsSnapshot, NoopRecorder, Recorder, Registry};
use std::ffi::OsStr;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::{self, JoinHandle};

/// File name of the manifest inside a sharded dataset directory.
pub const MANIFEST_NAME: &str = "manifest.bwsm";

/// Magic bytes opening a manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"BWSM";

/// Manifest format version (carries the generation, the example total
/// and the overlay table).
pub const MANIFEST_VERSION: u32 = 2;

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
    /// Overlay file name, relative to the manifest's directory.
    pub file: String,
    /// Size of the overlay file in bytes.
    pub bytes: u64,
    /// Ascending global region indices replaced by this overlay; the
    /// block for `regions[i]` is the overlay file's local region `i`.
    pub regions: Vec<u64>,
}

/// The checksummed description of a sharded dataset: shared feature and
/// region arity plus per-shard entries in ascending global-region order.
/// On disk its generation is 0 and its overlay table empty; the
/// manifest a [`ShardedSource`] serves ([`ShardedSource::manifest`])
/// carries the generation it adopted and the overlays that make it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Feature arity shared by every shard.
    pub p: u32,
    /// Region-coordinate arity shared by every shard.
    pub arity: u32,
    /// Append generation: 0 on disk, the number of overlays adopted in a
    /// view.
    pub generation: u64,
    /// Total training examples visible: on disk the shards' sum, in a
    /// view corrected for every replaced block.
    pub examples: u64,
    /// Shards, ascending: shard `s` holds the next `shards[s].regions`
    /// regions of the global scan order.
    pub shards: Vec<ShardMeta>,
    /// Overlay files in append order (ascending generation); empty on
    /// disk.
    pub overlays: Vec<OverlayMeta>,
}

impl ShardManifest {
    /// Total regions across all shards.
    pub fn total_regions(&self) -> u64 {
        self.shards.iter().map(|s| s.regions).sum()
    }

    /// Total training examples visible (in a view, tracks block
    /// replacements across appends).
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

    /// Serialize: magic, version, arities, generation, example total,
    /// shard entries, overlay entries, CRC-32 trailer over everything
    /// preceding it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_slice(&MANIFEST_MAGIC);
        out.put_u32_le(MANIFEST_VERSION);
        out.put_u32_le(self.p);
        out.put_u32_le(self.arity);
        out.put_u64_le(self.generation);
        out.put_u64_le(self.examples);
        out.put_u32_le(self.shards.len() as u32);
        for s in &self.shards {
            out.put_str(&s.file);
            out.put_u64_le(s.regions);
            out.put_u64_le(s.examples);
            out.put_u64_le(s.bytes);
        }
        out.put_u32_le(self.overlays.len() as u32);
        for o in &self.overlays {
            out.put_str(&o.file);
            out.put_u64_le(o.bytes);
            out.put_u64_vec(&o.regions);
        }
        seal(&mut out, 0);
        out
    }

    /// Decode and checksum-validate a manifest: a trailer that does not
    /// match is corruption ([`crate::is_corrupt`]), anything wrong with
    /// bytes that verify is structural `InvalidData`. So is a manifest
    /// of a generation other than 0 or with overlays listed: appends
    /// publish overlay files by name and never rewrite the manifest, so
    /// such a manifest comes from an appender that did, and a layout
    /// has one way its overlays are found.
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
        let generation = cur.get_u64_le()?;
        let examples = cur.get_u64_le()?;
        // Shortest entries: name length + three u64s for a shard, name
        // length + bytes + region count for an overlay.
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
        let overlays = cur.get_u32_le()?;
        if overlays > 0 {
            let first = member_name(cur.get_string()?)?;
            return Err(bad(&format!(
                "manifest lists {overlays} overlay(s), first {first}: \
                 overlays are found by file name, never listed"
            )));
        }
        if generation != 0 {
            return Err(bad(&format!("manifest of generation {generation}, not 0")));
        }
        if examples != shard_examples {
            return Err(bad(&format!(
                "manifest example total {examples} is not its shards' sum {shard_examples}"
            )));
        }
        cur.done()?;
        Ok(ShardManifest {
            p,
            arity,
            generation,
            examples,
            shards,
            overlays: Vec::new(),
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

/// Canonical shard file name for shard `s`.
pub fn shard_file_name(s: usize) -> String {
    format!("shard-{s:04}.bwtd")
}

/// Canonical overlay file name for the append creating generation `g`.
pub fn overlay_file_name(g: u64) -> String {
    format!("overlay-{g:04}.bwtd")
}

/// An overlay file or the temporary file of one: what a rewrite sweeps.
fn is_overlay_member(name: &str) -> bool {
    name.starts_with("overlay-") && (name.ends_with(".bwtd") || name.ends_with(".tmp"))
}

/// The generation published in the layout at `dir`: how many overlay
/// files `overlay-0001.bwtd`, `overlay-0002.bwtd`, … are present before
/// the first missing one. Reads no file.
pub fn published_generation(dir: &Path) -> io::Result<u64> {
    let mut g = 0;
    while dir.join(overlay_file_name(g + 1)).try_exists()? {
        g += 1;
    }
    Ok(g)
}

/// Split `total` regions into `shards` contiguous even ranges (earlier
/// shards take the remainder), the default partition plan.
pub fn even_shard_plan(total: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let base = total / shards;
    let rem = total % shards;
    (0..shards)
        .map(|s| base + usize::from(s < rem))
        .collect()
}

/// Streams region blocks into per-shard [`TrainingWriter`]s according to
/// a fixed partition plan, then writes the checksummed manifest. Only
/// one shard's writer is open at a time and blocks are encoded as they
/// arrive — nothing is ever materialised beyond the block being written.
///
/// A closed shard commits (flush, fsync, rename) on a thread of its own
/// while the caller encodes the next shard's blocks, one commit in
/// flight at a time: closing the next shard joins it first, and so do
/// [`ShardedWriter::finish`], before the manifest is written, and `Drop`.
/// A failed commit is the error of the next [`ShardedWriter::write_region`]
/// or of `finish`, and after one no manifest is ever written.
pub struct ShardedWriter {
    dir: PathBuf,
    p: u32,
    arity: u32,
    plan: Vec<usize>,
    shard: usize,
    written_in_shard: usize,
    examples_in_shard: u64,
    current: Option<TrainingWriter>,
    metas: Vec<ShardMeta>,
    commit: Option<JoinHandle<io::Result<()>>>,
    commit_failed: bool,
}

impl ShardedWriter {
    /// Create a sharded dataset under `dir` (created if absent). `plan`
    /// gives the number of regions per shard in ascending global order;
    /// [`even_shard_plan`] is the usual choice. Blocks must then arrive
    /// via [`ShardedWriter::write_region`] in global scan order.
    ///
    /// A layout already in `dir` stops being one here: its manifest is
    /// removed durably before any new shard is renamed over an old one,
    /// so a rewrite that never reaches [`ShardedWriter::finish`] leaves no
    /// layout to open, never a mix of old and new shards. Then every
    /// overlay file and overlay temporary file goes too, durably, so the
    /// new layout starts at generation 0 and adopts none of the old
    /// one's overlays.
    pub fn create(dir: &Path, p: u32, arity: u32, plan: Vec<usize>) -> io::Result<Self> {
        if plan.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shard plan must name at least one shard",
            ));
        }
        fs::create_dir_all(dir)?;
        remove_durably(&dir.join(MANIFEST_NAME))?;
        remove_all_durably(dir, is_overlay_member)?;
        Ok(ShardedWriter {
            dir: dir.to_path_buf(),
            p,
            arity,
            plan,
            shard: 0,
            written_in_shard: 0,
            examples_in_shard: 0,
            current: None,
            metas: Vec::new(),
            commit: None,
            commit_failed: false,
        })
    }

    fn shard_path(&self, s: usize) -> PathBuf {
        self.dir.join(shard_file_name(s))
    }

    /// Wait for the commit in flight, if any, and return its error. A
    /// failure sticks: every later call fails too.
    fn join_commit(&mut self) -> io::Result<()> {
        let done = match self.commit.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("shard commit thread panicked"))),
            None if self.commit_failed => Err(io::Error::other(
                "an earlier shard commit failed; the layout has no manifest",
            )),
            None => Ok(()),
        };
        self.commit_failed |= done.is_err();
        done
    }

    /// Close the current shard file, record its manifest entry, and start
    /// its commit once the previous shard's has landed.
    fn close_shard(&mut self) -> io::Result<()> {
        let writer = match self.current.take() {
            Some(w) => w,
            // A zero-region shard still gets a (valid, empty) file so
            // the manifest never points at a missing path.
            None => TrainingWriter::create(&self.shard_path(self.shard), self.p, self.arity)?,
        };
        let (file, bytes) = writer.close()?;
        self.metas.push(ShardMeta {
            file: shard_file_name(self.shard),
            regions: self.written_in_shard as u64,
            examples: self.examples_in_shard,
            bytes,
        });
        self.join_commit()?;
        // The file comes over a channel so that a failed spawn leaves it
        // here, to commit inline.
        let (tx, rx) = mpsc::sync_channel::<AtomicFile>(1);
        let spawned = thread::Builder::new()
            .name("shard-commit".into())
            .spawn(move || rx.recv().map_or(Ok(()), AtomicFile::commit));
        match spawned {
            Ok(handle) => {
                self.commit = Some(handle);
                if let Err(mpsc::SendError(file)) = tx.send(file) {
                    self.join_commit()?;
                    file.commit()?;
                }
            }
            Err(_) => file.commit()?,
        }
        self.shard += 1;
        self.written_in_shard = 0;
        self.examples_in_shard = 0;
        Ok(())
    }

    /// Append the next region of the global scan order; shard files
    /// advance automatically at the plan's boundaries.
    pub fn write_region(&mut self, block: &RegionBlock) -> io::Result<()> {
        if self.commit_failed || self.commit.as_ref().is_some_and(JoinHandle::is_finished) {
            self.join_commit()?;
        }
        // Skip over zero-region shards in the plan.
        while self.shard < self.plan.len() && self.written_in_shard == self.plan[self.shard] {
            self.close_shard()?;
        }
        if self.shard >= self.plan.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "more regions written than the shard plan holds",
            ));
        }
        if self.current.is_none() {
            self.current = Some(TrainingWriter::create(
                &self.shard_path(self.shard),
                self.p,
                self.arity,
            )?);
        }
        self.current
            .as_mut()
            .expect("writer opened above")
            .write_region(block)?;
        self.written_in_shard += 1;
        self.examples_in_shard += block.n() as u64;
        Ok(())
    }

    /// Regions written so far (across all shards).
    pub fn regions_written(&self) -> usize {
        self.metas.iter().map(|m| m.regions as usize).sum::<usize>() + self.written_in_shard
    }

    /// Finish every remaining shard, wait until every shard is durable,
    /// and write the manifest atomically. Fails if fewer regions arrived
    /// than the plan promised, or if any shard's commit failed.
    pub fn finish(mut self) -> io::Result<ShardManifest> {
        while self.shard < self.plan.len() {
            if self.written_in_shard != self.plan[self.shard] {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "shard {} received {} of {} planned regions",
                        self.shard, self.written_in_shard, self.plan[self.shard]
                    ),
                ));
            }
            self.close_shard()?;
        }
        self.join_commit()?;
        let manifest = ShardManifest {
            p: self.p,
            arity: self.arity,
            generation: 0,
            examples: self.metas.iter().map(|m| m.examples).sum(),
            shards: std::mem::take(&mut self.metas),
            overlays: Vec::new(),
        };
        manifest.write_atomic(&self.dir.join(MANIFEST_NAME))?;
        Ok(manifest)
    }
}

impl Drop for ShardedWriter {
    /// No commit outlives the writer; its error is dropped with it.
    fn drop(&mut self) {
        let _ = self.join_commit();
    }
}

/// Appends replacement blocks to an existing sharded layout as the next
/// generation's overlay file. Blocks must arrive in ascending
/// global-region order, each naming the region it replaces by its
/// coordinates. [`ShardAppender::finish`] publishes the file under its
/// final name `overlay-{g}.bwtd` by a step that never replaces a name:
/// that is the commit, and nothing else on disk is written or touched,
/// so readers of the previous generation keep a consistent snapshot
/// and [`ShardedSource::refresh`] adopts the new one. Of two appenders
/// opened at one generation, the second to finish fails with
/// `AlreadyExists` and the first one's overlay stands.
pub struct ShardAppender<'a> {
    dir: PathBuf,
    base: Base<'a>,
    arity: u32,
    generation: u64,
    /// Created by the first block: an append that replaces nothing
    /// writes no file.
    writer: Option<TrainingWriter>,
    /// The region of the last block written.
    last: Option<usize>,
}

/// The layout an appender checks its blocks against: the source it was
/// taken from, or the base shards [`ShardAppender::open`] opened.
enum Base<'a> {
    Held(&'a ShardedSource),
    Opened(Box<ShardedSource>),
}

impl std::ops::Deref for Base<'_> {
    type Target = ShardedSource;

    fn deref(&self) -> &ShardedSource {
        match self {
            Base::Held(src) => src,
            Base::Opened(src) => src,
        }
    }
}

impl ShardAppender<'static> {
    /// Open the layout at `dir` for the append after its published
    /// generation: its base shards (for the blocks' coordinates) and
    /// the overlay names present, not the overlays themselves.
    pub fn open(dir: &Path) -> io::Result<ShardAppender<'static>> {
        let base = ShardedSource::open_base(dir, |disk| Box::new(disk))?;
        let generation = published_generation(dir)?;
        ShardAppender::over(Base::Opened(Box::new(base)), generation)
    }
}

impl<'a> ShardAppender<'a> {
    fn over(base: Base<'a>, generation: u64) -> io::Result<ShardAppender<'a>> {
        let arity = base.view().as_ref().map(|v| v.manifest.arity);
        let (Some(dir), Some(arity)) = (base.dir.clone(), arity) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "only a layout opened from a directory takes appends",
            ));
        };
        Ok(ShardAppender {
            dir,
            base,
            arity,
            generation,
            writer: None,
            last: None,
        })
    }

    /// The generation this append supersedes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Write the replacement block of global region `idx`. Indices must
    /// be strictly ascending and in range, and the block's coordinates
    /// those of region `idx`.
    pub fn write_region(&mut self, idx: usize, block: &RegionBlock) -> io::Result<()> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        if idx >= self.base.num_regions() {
            return Err(invalid(format!("region {idx} outside the sharded layout")));
        }
        if self.last.is_some_and(|last| idx <= last) {
            return Err(invalid("overlay regions must be written in ascending order".into()));
        }
        let coords = self.base.region_coords(idx);
        if block.region != coords {
            return Err(invalid(format!(
                "block of region {:?} written as region {idx}, which is {coords:?}",
                block.region
            )));
        }
        let writer = match &mut self.writer {
            Some(writer) => writer,
            None => self.writer.insert(TrainingWriter::create_new(
                &self.dir.join(overlay_file_name(self.generation + 1)),
                self.base.feature_arity() as u32,
                self.arity,
            )?),
        };
        writer.write_region(block)?;
        self.last = Some(idx);
        Ok(())
    }

    /// Close the overlay file and publish it as the next generation.
    /// Returns the generation the layout then has: one past
    /// [`ShardAppender::generation`], or that generation unchanged when
    /// no block was written (nothing is published then).
    pub fn finish(self) -> io::Result<u64> {
        self.finish_recorded(&NoopRecorder)
    }

    /// [`ShardAppender::finish`], timing the close and the commit
    /// (flush, fsync, link, unlink of the temporary name, directory
    /// fsync) in `rec` under `storage/append_commit`.
    pub fn finish_recorded(self, rec: &dyn Recorder) -> io::Result<u64> {
        let Some(writer) = self.writer else {
            return Ok(self.generation);
        };
        let _commit = span!(rec, "{}", names::STORAGE_APPEND_COMMIT);
        writer.close()?.0.commit()?;
        Ok(self.generation + 1)
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
    dir: Option<PathBuf>,
    view: RwLock<Option<ManifestView>>,
}

/// The generation-specific part of a sharded view: the manifest as
/// adopted, the overlay files, the per-region redirect lane they induce
/// (later overlays shadow earlier ones) and the per-region row-count
/// lane the visible example total is kept from. Only ever extended, in
/// place, by [`ShardedSource::refresh`].
struct ManifestView {
    manifest: ShardManifest,
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

impl ManifestView {
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
            self.manifest.examples = self.manifest.examples - self.rows[global] + rows;
            self.rows[global] = rows;
        }
        self.manifest.generation += 1;
        self.manifest.overlays.push(overlay.meta);
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
                    format!("{} holds {held} examples, manifest says {}", meta.file, meta.examples),
                ));
            }
            shards.push(layer(disk));
        }
        let mut src = ShardedSource::from_sources(shards)?;
        src.dir = Some(dir.to_path_buf());
        src.view = RwLock::new(Some(ManifestView {
            manifest,
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
            dir: None,
            view: RwLock::new(None),
        })
    }

    fn view(&self) -> std::sync::RwLockReadGuard<'_, Option<ManifestView>> {
        self.view.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The manifest this source currently serves, if it was opened from
    /// a directory: the generation adopted, the visible example total
    /// and the overlays adopted so far.
    pub fn manifest(&self) -> Option<ShardManifest> {
        self.view().as_ref().map(|v| v.manifest.clone())
    }

    /// The append generation currently served (0 when opened from
    /// in-memory sources).
    pub fn generation(&self) -> u64 {
        self.view().as_ref().map_or(0, |v| v.manifest.generation)
    }

    /// Adopt every generation published since the one served: probe
    /// `overlay_file_name(g + 1)` until one is missing, open each overlay
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
        let Some(dir) = &self.dir else {
            return Ok(self.generation());
        };
        let from = self.generation();
        let mut found = Vec::new();
        while let Some(overlay) = self.probe_overlay(dir, from + 1 + found.len() as u64)? {
            found.push(overlay);
        }
        let mut view = self.view.write().unwrap_or_else(|e| e.into_inner());
        let view = view.as_mut().expect("a source opened from a directory has a view");
        // A refresh beside this one may have adopted some of them already.
        let adopted = (view.manifest.generation - from) as usize;
        for overlay in found.into_iter().skip(adopted) {
            view.adopt(overlay);
        }
        Ok(view.manifest.generation)
    }

    /// Generation `g`'s overlay in `dir`, if published: opened, held to
    /// this layout's feature arity, and its blocks mapped to the regions
    /// whose coordinates they carry, which must ascend.
    fn probe_overlay(&self, dir: &Path, g: u64) -> io::Result<Option<Overlay>> {
        let file = overlay_file_name(g);
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
            meta: OverlayMeta { file, bytes, regions },
            disk,
            rows,
        }))
    }

    /// An appender for the generation after the one this source serves,
    /// checking each block's coordinates against this layout. Refresh
    /// first to append after what others published since: an appender
    /// behind the directory fails its publish with `AlreadyExists`.
    pub fn appender(&self) -> io::Result<ShardAppender<'_>> {
        ShardAppender::over(Base::Held(self), self.generation())
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
            return Ok(v.manifest.total_examples());
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
        let mut w =
            ShardedWriter::create(dir, 2, 1, even_shard_plan(regions, shards)).unwrap();
        for r in 0..regions {
            w.write_region(&block(r as u32, 1 + r % 3)).unwrap();
        }
        w.finish().unwrap()
    }

    fn base_manifest() -> ShardManifest {
        ShardManifest {
            p: 5,
            arity: 2,
            generation: 0,
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
            overlays: Vec::new(),
        }
    }

    /// A forged manifest: the trailer recomputed over edited bytes.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes.truncate(bytes.len() - 4);
        seal(&mut bytes, 0);
        bytes
    }

    /// The layout as it was written before shards committed on a thread
    /// of their own: each shard finished and committed in turn, its size
    /// read back from the file system, then the manifest. The byte oracle
    /// of [`ShardedWriter`].
    fn write_sharded_synchronously(
        dir: &Path,
        plan: &[usize],
        blocks: &[RegionBlock],
    ) -> ShardManifest {
        let mut blocks = blocks.iter();
        let mut shards = Vec::new();
        for (s, &regions) in plan.iter().enumerate() {
            let path = dir.join(shard_file_name(s));
            let mut w = TrainingWriter::create(&path, 2, 1).unwrap();
            let mut examples = 0;
            for b in blocks.by_ref().take(regions) {
                w.write_region(b).unwrap();
                examples += b.n() as u64;
            }
            w.finish().unwrap();
            shards.push(ShardMeta {
                file: shard_file_name(s),
                regions: regions as u64,
                examples,
                bytes: fs::metadata(&path).unwrap().len(),
            });
        }
        let manifest = ShardManifest {
            p: 2,
            arity: 1,
            generation: 0,
            examples: shards.iter().map(|m| m.examples).sum(),
            shards,
            overlays: Vec::new(),
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

    /// A rewrite in place that stops short of `finish` leaves the disk as
    /// a crash after two shard commits would: the new shards 0–1 over the
    /// old ones, old shard 2, no new manifest. That is no layout (a
    /// structured error), never old and new blocks served together; a
    /// rewrite that finishes serves only its own blocks.
    #[test]
    fn an_interrupted_rewrite_leaves_no_layout_never_a_mix() {
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
        let err = ShardedSource::open(&dir).err().expect("a half-rewritten layout opened");
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
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
        // A non-empty directory where shard 0 goes: its rename fails.
        fs::create_dir_all(dir.join(shard_file_name(0))).unwrap();
        fs::write(dir.join(shard_file_name(0)).join("keep"), b"x").unwrap();
        let mut w = ShardedWriter::create(&dir, 2, 1, vec![2, 2, 2]).unwrap();
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
            assert!(dir.join(shard_file_name(0)).exists());
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

    /// Appends never rewrite the manifest, so a manifest of a later
    /// generation, one listing overlays or one whose example total is
    /// not its shards' sum was written some other way: each is refused
    /// as structure (it verifies), as are other versions.
    #[test]
    fn a_manifest_of_an_appended_layout_is_refused() {
        let overlay = OverlayMeta {
            file: "overlay-0001.bwtd".into(),
            bytes: 512,
            regions: vec![2, 9, 11],
        };
        let mut listed = base_manifest();
        listed.generation = 1;
        listed.overlays = vec![overlay.clone()];
        let mut unlisted = base_manifest();
        unlisted.generation = 3;
        let mut gen0_listed = base_manifest();
        gen0_listed.overlays = vec![overlay];
        let mut corrected = base_manifest();
        corrected.examples = 190;
        for (case, m, says) in [
            ("listed", listed, "overlay"),
            ("generation 3", unlisted, "generation 3"),
            ("listed at generation 0", gen0_listed, "overlay-0001.bwtd"),
            ("corrected total", corrected, "190"),
        ] {
            let err = ShardManifest::decode(&m.encode()).expect_err(case);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
            assert!(!crate::is_corrupt(&err), "{case}: verified bytes are not corrupt");
            assert!(err.to_string().contains(says), "{case}: {err}");
        }
        // Version 1 and unknown future versions are rejected with a
        // version error.
        for version in [1, 9] {
            let mut other = base_manifest().encode();
            other[4] = version;
            let err = ShardManifest::decode(&reseal(other)).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("unsupported manifest version"), "{msg}");
        }
    }

    /// An overlay file is adopted only if each of its blocks names a
    /// region of the layout, in ascending order, at the layout's
    /// feature arity: otherwise the open (and a refresh) fails whole.
    #[test]
    fn overlay_region_lists_must_be_ascending_and_in_range() {
        let dir = tmp_dir("overlay_lists");
        write_sharded(&dir, 6, 2);
        for (case, blocks) in [
            ("descending", vec![block(3, 1), block(1, 1)]),
            ("repeated", vec![block(2, 1), block(2, 2)]),
            ("out of range", vec![block(2, 1), block(17, 1)]),
            ("feature arity", vec![RegionBlock::new(vec![2], 3)]),
        ] {
            let p = blocks[0].p;
            let mut w = TrainingWriter::create(&dir.join(overlay_file_name(1)), p, 1).unwrap();
            for b in &blocks {
                w.write_region(b).unwrap();
            }
            w.finish().unwrap();
            let err = ShardedSource::open(&dir).err().expect(case);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
            assert!(err.to_string().contains("overlay-0001.bwtd"), "{case}: {err}");
        }
        fs::remove_file(dir.join(overlay_file_name(1))).unwrap();
        let src = ShardedSource::open(&dir).unwrap();
        assert_eq!(src.generation(), 0);
        assert_eq!(src.refresh().unwrap(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    /// The checksum is no guard against a count that was *written*
    /// wrong: recompute it over an oversized shard count (followed only
    /// by an empty overlay table) and an overlay table count (the last
    /// field of its manifest). Both must be refused against the bytes
    /// left, before they size a vector (an unchecked `with_capacity`
    /// aborts the process inside the allocator).
    #[test]
    fn oversized_counts_under_a_valid_checksum_are_rejected() {
        let mut m = base_manifest();
        m.shards.clear();
        m.examples = 0;
        let mut bytes = m.encode();
        assert_eq!(bytes.len(), 44, "generation 0, no shards, no overlays");
        bytes[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ShardManifest::decode(&reseal(bytes)).expect_err("shard count");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        let m = base_manifest();
        let clean = m.encode();
        assert_eq!(ShardManifest::decode(&clean).unwrap(), m);
        for count in [1u32, 1 << 20, u32::MAX] {
            let mut bytes = clean.clone();
            let at = bytes.len() - 8;
            bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
            let err = ShardManifest::decode(&reseal(bytes)).expect_err("overlay count");
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
        assert_eq!(clean[shard(1)..][..8], 7u64.to_le_bytes(), "shard 1's region count");
        for (field, what) in [(0, "regions"), (8, "examples")] {
            let mut bytes = clean.clone();
            bytes[shard(0) + field..][..8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
            bytes[shard(1) + field..][..8].copy_from_slice(&2u64.to_le_bytes());
            let err = ShardManifest::decode(&reseal(bytes)).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(!crate::is_corrupt(&err), "{what}: verified bytes are not corrupt");
        }
        // Nor against a shard example count that sums right but is not
        // what the shard's index holds: the open stops, before any
        // total is kept from it.
        let dir = tmp_dir("forged_total");
        let mut m = write_sharded(&dir, 4, 2);
        m.shards[0].examples += 1;
        m.shards[1].examples -= 1;
        m.write_atomic(&dir.join(MANIFEST_NAME)).unwrap();
        let err = ShardedSource::open(&dir).err().expect("a forged shard total");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&shard_file_name(0)), "{err}");
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
        write_sharded(&dir, 6, 2);
        let shard0 = dir.join(shard_file_name(0));
        let data = fs::read(&shard0).unwrap();
        fs::write(&shard0, &data[..data.len() - 1]).unwrap();
        let err = ShardedSource::open(&dir).err().expect("resized shard rejected");
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
        let src = ShardedSource::open_layered(&dir, |disk| {
            Box::new(CachedSource::new(disk, 1 << 20))
        })
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
        assert_eq!(published_generation(&dir).unwrap(), 1);

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

        // Chained appends, through the source's own appender: the latest
        // overlay shadows earlier ones.
        let mut app = src.appender().unwrap();
        assert_eq!(app.generation(), 1);
        app.write_region(2, &rewritten(2, 2, 43)).unwrap();
        app.write_region(5, &rewritten(5, 2, 44)).unwrap();
        assert_eq!(app.finish().unwrap(), 2);
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
            assert_eq!(opened, u64::from(!regions.is_empty()), "append {k}: {regions:?}");
            let before = members_opened();
            assert_eq!(src.refresh().unwrap(), generation, "nothing published");
            assert_eq!(members_opened(), before, "append {k}: a no-op refresh opened a file");
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
        write_sharded(&dir, 4, 2);
        append(&dir, &[3], |_| 2, 30);
        // The first block of shard 0 (region 0) and of the overlay
        // (region 3) each get one byte flipped.
        for file in [shard_file_name(0), overlay_file_name(1)] {
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
        assert_eq!(src.snapshot().regions_read(), 1, "only the healthy read counted");
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
        let err = app.write_region(3, &block(9, 1)).expect_err("another region's block");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        drop(app);
        assert_eq!(published_generation(&dir).unwrap(), 0, "a dropped append publishes nothing");

        // An append that replaced nothing publishes no file, leaves no
        // temporary one, and reports the generation unchanged.
        let before = dir_bytes(&dir);
        let app = ShardAppender::open(&dir).unwrap();
        assert_eq!(app.finish().unwrap(), 0);
        assert_eq!(dir_bytes(&dir), before);
        assert_eq!(ShardedSource::open(&dir).unwrap().generation(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    /// One writer per generation: of two appenders opened at the same
    /// generation, the first to finish publishes it and the second
    /// fails with `AlreadyExists`, whatever it wrote and whenever;
    /// readers see the first one's blocks and no temporary file stays.
    #[test]
    fn a_second_appender_at_one_generation_fails_and_the_first_overlay_stands() {
        let dir = tmp_dir("one_writer");
        write_sharded(&dir, 6, 2);
        let src = ShardedSource::open(&dir).unwrap();
        let (mut first, mut second) = (ShardAppender::open(&dir).unwrap(), src.appender().unwrap());
        assert_eq!((first.generation(), second.generation()), (0, 0));
        first.write_region(1, &rewritten(1, 2, 10)).unwrap();
        second.write_region(1, &rewritten(1, 5, 20)).unwrap();
        second.write_region(4, &rewritten(4, 5, 20)).unwrap();
        first.write_region(3, &rewritten(3, 2, 10)).unwrap();
        assert_eq!(first.finish().unwrap(), 1);
        let published = fs::read(dir.join(overlay_file_name(1))).unwrap();
        let err = second.finish().expect_err("a published generation replaced");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists, "{err}");
        assert_eq!(fs::read(dir.join(overlay_file_name(1))).unwrap(), published);
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
        assert_eq!(published_generation(&dir).unwrap(), 3);

        let mut w = ShardedWriter::create(&dir, 2, 1, even_shard_plan(8, 2)).unwrap();
        for r in 0..8 {
            w.write_region(&rewritten(r, 1 + r % 3, 500)).unwrap();
        }
        w.finish().unwrap();
        let names: Vec<String> = dir_bytes(&dir).into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, [MANIFEST_NAME, "shard-0000.bwtd", "shard-0001.bwtd"]);
        let src = ShardedSource::open(&dir).unwrap();
        assert_eq!(src.generation(), 0);
        for r in 0..8 {
            assert_eq!(*src.read_region(r).unwrap(), rewritten(r, 1 + r % 3, 500), "region {r}");
        }
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
    /// it runs whole — and hold what each crash leaves to `allowed`
    /// (the old state, the new one, and for a rewrite no layout). After
    /// each crash that did not reach the new state the operation runs
    /// again, unhindered, and must reach it: no leftover of a crash is
    /// adopted or stands in the way. Returns the number of crash points.
    fn crash_everywhere(
        dir: &Path,
        setup: &dyn Fn(),
        op: &dyn Fn() -> io::Result<()>,
        read: &dyn Fn() -> Served,
        none_allowed: bool,
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
            let none = now == Err(io::ErrorKind::NotFound) && none_allowed;
            assert!(now == old || now == new || none, "crash at step {k}: {now:?}");
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
    /// there completes. A rewrite may also leave no layout: it removes
    /// the old manifest before its first shard rename, and shard names
    /// are reused, so the old state cannot outlive that step. Old-or-new
    /// for a rewrite needs shard names no live manifest uses.
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
        let cold = crash_everywhere(&dir, &|| {}, &|| write(7), &layout, false);
        let rewrite = crash_everywhere(&dir, &appended, &|| write(7), &layout, true);
        let append_op = || {
            let mut app = ShardAppender::open(&dir)?;
            app.write_region(0, &rewritten(0, 4, 3))?;
            app.write_region(4, &rewritten(4, 2, 3))?;
            app.finish().map(drop)
        };
        let appends = crash_everywhere(&dir, &appended, &append_op, &layout, false);
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
        let saves = crash_everywhere(&dir, &old, &|| save(b"new"), &snapshot, false);
        // Not vacuous: each operation was cut at each kind of step.
        assert!(cold >= 3 * 5 + 2, "cold write: {cold} steps");
        assert!(rewrite > cold, "rewrite: {rewrite} steps, the sweep among them");
        assert!(appends >= 6, "append: {appends} steps");
        assert!(saves >= 5, "snapshot save: {saves} steps");
        fs::remove_dir_all(&dir).ok();
    }

    /// What an append replaced, counted from the holder files' indexes
    /// in the view `manifest` describes (the newest overlay listing the
    /// region, else its base shard), without reading a block: one oracle
    /// of the row-count lane.
    fn replaced_examples(dir: &Path, manifest: &ShardManifest, regions: &[u64]) -> io::Result<u64> {
        let starts = manifest.shard_starts();
        let mut holders: HashMap<&str, DiskSource> = HashMap::new();
        let mut examples = 0u64;
        for &r in regions {
            let overlay = manifest.overlays.iter().rev().find_map(|o| {
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
            let mut app = src.appender().unwrap();
            for (&r, &n) in regions.iter().zip(&rows) {
                app.write_region(r, &rewritten(r, n, g as u32)).unwrap();
            }
            app.finish().unwrap();
            src.refresh().unwrap();
            let new = rows.iter().sum::<usize>() as u64;
            assert_eq!(src.total_examples().unwrap(), before.examples - old + new, "append {g}");
            let fresh = ShardedSource::open(&dir).unwrap();
            let read: u64 = (0..12).map(|r| fresh.read_region(r).unwrap().n() as u64).sum();
            assert_eq!(fresh.total_examples().unwrap(), read, "append {g}");
            assert_eq!(fresh.manifest(), src.manifest(), "append {g}");
        }
        assert_eq!(src.generation(), 39, "one of the 40 appends replaced nothing");
        fs::remove_dir_all(&dir).ok();
    }

    /// A holder whose index entry is not a block's length stops the open
    /// (and with it an appender's) instead of keeping a wrong total, in
    /// a base shard and in an overlay alike.
    #[test]
    fn appender_refuses_an_index_length_that_is_no_whole_block() {
        let dir = tmp_dir("count_bad_len");
        write_sharded(&dir, 4, 1);
        append(&dir, &[1, 2], |_| 2, 5);
        // Grow the `len` of the second index entry from the end by one
        // (its block is followed by another, so the entry still lies
        // inside the block area) in the overlay, then in the shard.
        for file in [overlay_file_name(1), shard_file_name(0)] {
            let path = dir.join(&file);
            let clean = fs::read(&path).unwrap();
            let mut bytes = clean.clone();
            let entry = bytes.len() - crate::format::FOOTER_LEN - 2 * (16 + 4);
            bytes[entry + 8] += 1;
            fs::write(&path, &bytes).unwrap();
            let err = ShardedSource::open(&dir).err().expect("odd length counted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{file}: {err}");
            assert!(err.to_string().contains(&file), "{err}");
            if file.starts_with("shard") {
                let err = ShardAppender::open(&dir).err().expect("appender over an odd length");
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
