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
//! blocks in ascending global-region order — plus an atomically
//! swapped manifest whose **generation** is bumped and whose overlay
//! list says which global region index now resolves to which overlay
//! entry ([`ShardAppender`]). Readers that opened the old manifest keep
//! serving a consistent pre-append snapshot (their files still exist,
//! untouched); [`ShardedSource::refresh`] adopts the new generation in
//! place. Every manifest, generation 0 included, is written in one
//! layout (format version 2: generation, example total and overlay table
//! always present); any other version is rejected structurally
//! ("unsupported manifest version").

use crate::atomic::{remove_durably, AtomicFile};
use crate::block::RegionBlock;
use crate::codec::{bad, seal, verify, Cursor, PutLe};
use crate::metrics::IoStats;
use crate::reader::DiskSource;
use crate::source::TrainingSource;
use crate::writer::TrainingWriter;
use bellwether_obs::{names, span, MetricsSnapshot, NoopRecorder, Recorder, Registry};
use std::collections::hash_map::{Entry, HashMap};
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

/// One overlay file's entry in the manifest: a complete `.bwtd` file of
/// replacement blocks written by one append, later overlays shadowing
/// earlier ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayMeta {
    /// Overlay file name, relative to the manifest's directory.
    pub file: String,
    /// Size of the overlay file in bytes (integrity check at open).
    pub bytes: u64,
    /// Ascending global region indices replaced by this overlay; the
    /// block for `regions[i]` is the overlay file's local region `i`.
    pub regions: Vec<u64>,
}

/// The checksummed description of a sharded dataset: shared feature and
/// region arity plus per-shard entries in ascending global-region order,
/// and — once appended over — the generation counter and overlay table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Feature arity shared by every shard.
    pub p: u32,
    /// Region-coordinate arity shared by every shard.
    pub arity: u32,
    /// Append generation: 0 for a freshly written layout, bumped once
    /// per [`ShardAppender::finish`].
    pub generation: u64,
    /// Total training examples across the dataset as currently visible
    /// (shard totals corrected for replaced blocks).
    pub examples: u64,
    /// Shards, ascending: shard `s` holds the next `shards[s].regions`
    /// regions of the global scan order.
    pub shards: Vec<ShardMeta>,
    /// Overlay files in append order (ascending generation).
    pub overlays: Vec<OverlayMeta>,
}

impl ShardManifest {
    /// Total regions across all shards.
    pub fn total_regions(&self) -> u64 {
        self.shards.iter().map(|s| s.regions).sum()
    }

    /// Total training examples currently visible (tracks block
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
        let (total, _) = shards
            .iter()
            .try_fold((0u64, 0u64), |(r, e), s| {
                Some((r.checked_add(s.regions)?, e.checked_add(s.examples)?))
            })
            .filter(|&(regions, _)| usize::try_from(regions).is_ok())
            .ok_or_else(|| bad("shard totals overflow"))?;
        let n = cur.get_u32_le()?;
        let n = cur.count(n.into(), 4 + 2 * 8)?;
        let mut overlays = Vec::with_capacity(n);
        for _ in 0..n {
            let file = member_name(cur.get_string()?)?;
            let bytes = cur.get_u64_le()?;
            let regions = cur.get_u64_vec()?;
            let ascending = regions.windows(2).all(|w| w[0] < w[1]);
            if !ascending || regions.last().is_some_and(|&r| r >= total) {
                return Err(bad(&format!("overlay {file} region list invalid")));
            }
            overlays.push(OverlayMeta {
                file,
                bytes,
                regions,
            });
        }
        cur.done()?;
        Ok(ShardManifest {
            p,
            arity,
            generation,
            examples,
            shards,
            overlays,
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
    /// layout to open, never a mix of old and new shards.
    pub fn create(dir: &Path, p: u32, arity: u32, plan: Vec<usize>) -> io::Result<Self> {
        if plan.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shard plan must name at least one shard",
            ));
        }
        fs::create_dir_all(dir)?;
        remove_durably(&dir.join(MANIFEST_NAME))?;
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

/// Appends replacement blocks to an existing sharded layout as one
/// overlay file plus an atomically bumped manifest generation. Blocks
/// must arrive in ascending global-region order; nothing already on
/// disk is touched, so readers of the previous generation keep a
/// consistent snapshot and [`ShardedSource::refresh`] adopts the new
/// one.
pub struct ShardAppender {
    dir: PathBuf,
    manifest: ShardManifest,
    writer: Option<TrainingWriter>,
    file: String,
    regions: Vec<u64>,
    examples_written: u64,
}

impl ShardAppender {
    /// Open `dir`'s manifest and start the overlay file for the next
    /// generation.
    pub fn open(dir: &Path) -> io::Result<ShardAppender> {
        let manifest = ShardManifest::read(&dir.join(MANIFEST_NAME))?;
        let file = overlay_file_name(manifest.generation + 1);
        let writer = TrainingWriter::create(&dir.join(&file), manifest.p, manifest.arity)?;
        Ok(ShardAppender {
            dir: dir.to_path_buf(),
            manifest,
            writer: Some(writer),
            file,
            regions: Vec::new(),
            examples_written: 0,
        })
    }

    /// The generation this append supersedes.
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// Write the replacement block of global region `idx`. Indices must
    /// be strictly ascending and in range.
    pub fn write_region(&mut self, idx: usize, block: &RegionBlock) -> io::Result<()> {
        let idx = idx as u64;
        if idx >= self.manifest.total_regions() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("region {idx} outside the sharded layout"),
            ));
        }
        if self.regions.last().is_some_and(|&last| idx <= last) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "overlay regions must be written in ascending order",
            ));
        }
        self.writer
            .as_mut()
            .expect("writer lives until finish")
            .write_region(block)?;
        self.regions.push(idx);
        self.examples_written += block.n() as u64;
        Ok(())
    }

    /// Finish the overlay file, correct the visible example total, and
    /// atomically publish the next-generation manifest. An append that
    /// replaced nothing still bumps the generation (the overlay file is
    /// discarded). Returns the published manifest.
    pub fn finish(self) -> io::Result<ShardManifest> {
        self.finish_recorded(&NoopRecorder)
    }

    /// [`ShardAppender::finish`], timed in `rec`: closing and committing
    /// the overlay file (flush, fsync, rename) under
    /// `storage/append_commit`, counting the replaced examples and
    /// publishing the manifest under `storage/append_manifest`.
    pub fn finish_recorded(self, rec: &dyn Recorder) -> io::Result<ShardManifest> {
        self.finish_counting(replaced_examples, rec)
    }

    /// [`ShardAppender::finish_recorded`] over either way of counting
    /// the examples the replaced blocks held (tests pass the reading
    /// oracle).
    fn finish_counting(
        mut self,
        old_examples: fn(&Path, &ShardManifest, &[u64]) -> io::Result<u64>,
        rec: &dyn Recorder,
    ) -> io::Result<ShardManifest> {
        let commit = span!(rec, "{}", names::STORAGE_APPEND_COMMIT);
        let writer = self.writer.take().expect("writer lives until finish");
        let (file, bytes) = writer.close()?;
        file.commit()?;
        drop(commit);
        let _manifest = span!(rec, "{}", names::STORAGE_APPEND_MANIFEST);
        let path = self.dir.join(&self.file);
        let mut manifest = self.manifest;
        if self.regions.is_empty() {
            fs::remove_file(&path)?;
        } else {
            // The example total changes by (new − old) per replaced
            // block; old counts come from the pre-append view the
            // manifest in hand describes.
            let old_examples = old_examples(&self.dir, &manifest, &self.regions)?;
            manifest.examples = manifest
                .examples
                .checked_sub(old_examples)
                .and_then(|kept| kept.checked_add(self.examples_written))
                .ok_or_else(|| bad("manifest example total does not cover the blocks it replaces"))?;
            manifest.overlays.push(OverlayMeta {
                file: self.file.clone(),
                bytes,
                regions: std::mem::take(&mut self.regions),
            });
        }
        manifest.generation += 1;
        manifest.write_atomic(&self.dir.join(MANIFEST_NAME))?;
        Ok(manifest)
    }
}

/// Examples held by the blocks an append is about to replace, without
/// reading one of them: each region resolves to the file that holds it
/// in the view `manifest` describes (the newest overlay listing it, else
/// its base shard), and that file's index gives the block's length,
/// which fixes its row count. Only holder files are opened, each once,
/// and only header, footer and index are read.
fn replaced_examples(dir: &Path, manifest: &ShardManifest, regions: &[u64]) -> io::Result<u64> {
    let starts = manifest.shard_starts();
    let mut holders: HashMap<&str, DiskSource> = HashMap::new();
    let mut examples = 0u64;
    for &r in regions {
        let overlay = manifest.overlays.iter().rev().find_map(|o| {
            let local = o.regions.binary_search(&r).ok()?;
            Some((o.file.as_str(), o.bytes, o.regions.len() as u64, local))
        });
        let (file, bytes, held, local) = overlay.unwrap_or_else(|| {
            let s = starts.partition_point(|&start| start as u64 <= r) - 1;
            let shard = &manifest.shards[s];
            (shard.file.as_str(), shard.bytes, shard.regions, r as usize - starts[s])
        });
        let holder = match holders.entry(file) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(open_member(dir, file, bytes, held)?),
        };
        examples += holder.region_examples(local).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{file}: region {local} is not a whole number of examples long"),
            )
        })?;
    }
    Ok(examples)
}

/// Open one member file of a layout — a shard or an overlay — holding
/// it to the size and the region count its manifest entry records.
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

/// The generation-specific part of a sharded view: the manifest plus
/// the opened overlay files and the per-region redirect lane they
/// induce (later overlays shadow earlier ones). Swapped wholesale by
/// [`ShardedSource::refresh`]; a view built over the one it replaces
/// shares that view's overlay files.
struct ManifestView {
    manifest: ShardManifest,
    overlays: Vec<Arc<DiskSource>>,
    /// `(overlay, local index)` per global region index, `None` where the
    /// base shard serves it; empty while no overlay exists.
    redirect: Vec<Option<(u32, u32)>>,
}

impl ManifestView {
    /// The view of `manifest`. Over `previous`, the view it replaces, the
    /// work is what the manifest adds: when its overlay list extends the
    /// adopted one, those members and their redirects carry over and only
    /// the new entries are opened and patched in. A list that does not
    /// extend it (an entry changed or gone) opens every member afresh.
    fn build(
        dir: &Path,
        manifest: ShardManifest,
        previous: Option<&ManifestView>,
    ) -> io::Result<ManifestView> {
        let (mut overlays, mut redirect) = match previous {
            Some(prev) if manifest.overlays.starts_with(&prev.manifest.overlays) => {
                (prev.overlays.clone(), prev.redirect.clone())
            }
            _ => (Vec::new(), Vec::new()),
        };
        for (o, meta) in manifest.overlays.iter().enumerate().skip(overlays.len()) {
            let disk = open_member(dir, &meta.file, meta.bytes, meta.regions.len() as u64)?;
            if redirect.is_empty() {
                redirect = vec![None; manifest.total_regions() as usize];
            }
            for (local, &global) in meta.regions.iter().enumerate() {
                redirect[global as usize] = Some((o as u32, local as u32));
            }
            overlays.push(Arc::new(disk));
        }
        Ok(ManifestView {
            manifest,
            overlays,
            redirect,
        })
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
    pub fn open_layered(
        dir: &Path,
        mut layer: impl FnMut(DiskSource) -> Box<dyn TrainingSource>,
    ) -> io::Result<ShardedSource> {
        let manifest = ShardManifest::read(&dir.join(MANIFEST_NAME))?;
        let mut shards: Vec<Box<dyn TrainingSource>> = Vec::with_capacity(manifest.shards.len());
        for meta in &manifest.shards {
            shards.push(layer(open_member(dir, &meta.file, meta.bytes, meta.regions)?));
        }
        let view = ManifestView::build(dir, manifest, None)?;
        let mut src = ShardedSource::from_sources(shards)?;
        src.dir = Some(dir.to_path_buf());
        src.view = RwLock::new(Some(view));
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
    /// a directory (refreshes replace it).
    pub fn manifest(&self) -> Option<ShardManifest> {
        self.view().as_ref().map(|v| v.manifest.clone())
    }

    /// The append generation currently served (0 when opened from
    /// in-memory sources).
    pub fn generation(&self) -> u64 {
        self.view().as_ref().map_or(0, |v| v.manifest.generation)
    }

    /// Re-read the manifest and adopt any newer generation in place:
    /// overlay files the served view already holds are kept, newly
    /// appended ones are opened and patched into a copy of the redirect
    /// lane, and the view is swapped atomically, while the base shard
    /// sources (and whatever cache/fault layers wrap them) stay
    /// untouched. Returns the generation now served. No-op for in-memory
    /// sources and for an unchanged manifest.
    ///
    /// Neither base shards nor adopted overlays are ever reopened, so a
    /// member file rewritten in place under a live source is not seen.
    pub fn refresh(&self) -> io::Result<u64> {
        let Some(dir) = &self.dir else {
            return Ok(self.generation());
        };
        let manifest = ShardManifest::read(&dir.join(MANIFEST_NAME))?;
        if manifest.generation == self.generation() {
            return Ok(manifest.generation);
        }
        if manifest.total_regions() as usize != self.total {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "refreshed manifest changed the region count",
            ));
        }
        let view = ManifestView::build(dir, manifest, self.view().as_ref())?;
        let generation = view.manifest.generation;
        *self.view.write().unwrap_or_else(|e| e.into_inner()) = Some(view);
        Ok(generation)
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
    use crate::cache::CachedSource;
    use crate::format::{encode_block_v2, HEADER_LEN};
    use crate::source::MemorySource;
    use std::cell::Cell;

    thread_local! {
        /// Layout member files [`open_member`] opened on this thread.
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
                    let mut app = ShardAppender::open(dir).unwrap();
                    app.write_region(total / 2, &block(900, 6)).unwrap();
                    app.write_region(total - 1, &block(901, 2)).unwrap();
                    let appended = app.finish().unwrap();
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

    #[test]
    fn appended_manifests_roundtrip_as_version_2() {
        let mut m = base_manifest();
        m.generation = 3;
        m.examples = 190;
        m.overlays = vec![
            OverlayMeta {
                file: "overlay-0001.bwtd".into(),
                bytes: 512,
                regions: vec![2, 9, 11],
            },
            OverlayMeta {
                file: "overlay-0003.bwtd".into(),
                bytes: 256,
                regions: vec![9],
            },
        ];
        let bytes = m.encode();
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            MANIFEST_VERSION
        );
        assert_eq!(ShardManifest::decode(&bytes).unwrap(), m);
        for i in [5, 13, 21, bytes.len() - 9, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x11;
            assert!(ShardManifest::decode(&bad).is_err(), "byte {i}");
        }
        // Version 1 and unknown future versions are rejected with a
        // version error.
        for version in [1, 9] {
            let mut other = m.encode();
            other[4] = version;
            let err = ShardManifest::decode(&reseal(other)).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("unsupported manifest version"), "{msg}");
        }
    }

    #[test]
    fn overlay_region_lists_must_be_ascending_and_in_range() {
        let mut m = base_manifest();
        m.generation = 1;
        m.overlays = vec![OverlayMeta {
            file: "overlay-0001.bwtd".into(),
            bytes: 64,
            regions: vec![5, 5],
        }];
        assert!(ShardManifest::decode(&m.encode()).is_err(), "duplicate index");
        m.overlays[0].regions = vec![3, 17];
        assert!(ShardManifest::decode(&m.encode()).is_err(), "out of range");
    }

    /// The checksum is no guard against a count that was *written*
    /// wrong: recompute it over an oversized shard count (followed only
    /// by an empty overlay table) and an oversized overlay region count
    /// (the last field of its manifest). Both must be refused against
    /// the bytes left, before they size a vector (an unchecked
    /// `with_capacity` aborts the process inside the allocator).
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

        let mut m = base_manifest();
        m.generation = 1;
        m.overlays = vec![OverlayMeta {
            file: "overlay-0001.bwtd".into(),
            bytes: 64,
            regions: Vec::new(),
        }];
        let clean = m.encode();
        assert_eq!(ShardManifest::decode(&clean).unwrap(), m);
        for count in [1u64, 1 << 40, u64::MAX] {
            let mut bytes = clean.clone();
            let at = bytes.len() - 12;
            bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
            let err = ShardManifest::decode(&reseal(bytes)).expect_err("region count");
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
        // An appender handed a total smaller than what it replaces stops
        // instead of wrapping.
        let dir = tmp_dir("forged_total");
        write_sharded(&dir, 4, 1);
        let mut app = ShardAppender::open(&dir).unwrap();
        app.manifest.examples = 1;
        app.write_region(2, &block(9, 1)).unwrap();
        let err = app.finish().expect_err("1 - 3 + 1 examples");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
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

        let mut app = ShardAppender::open(&dir).unwrap();
        assert_eq!(app.generation(), 0);
        app.write_region(1, &block(100, 4)).unwrap();
        app.write_region(4, &block(200, 5)).unwrap();
        let manifest = app.finish().unwrap();
        assert_eq!(manifest.generation, 1);
        assert_eq!(manifest.overlays.len(), 1);
        assert_eq!(manifest.overlays[0].regions, vec![1, 4]);
        // Old blocks had 1 + r % 3 rows: region 1 had 2, region 4 had 2.
        let old_total: u64 = (0..6).map(|r| 1 + r as u64 % 3).sum();
        assert_eq!(manifest.examples, old_total - 2 - 2 + 4 + 5);

        // A fresh open resolves replaced regions through the overlay and
        // leaves clean regions untouched.
        let src = ShardedSource::open(&dir).unwrap();
        assert_eq!(src.generation(), 1);
        assert_eq!(*src.read_region(1).unwrap(), block(100, 4));
        assert_eq!(*src.read_region(4).unwrap(), block(200, 5));
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

        let mut app = ShardAppender::open(&dir).unwrap();
        app.write_region(2, &block(42, 1)).unwrap();
        app.finish().unwrap();

        // The open source still serves its consistent old snapshot...
        assert_eq!(*src.read_region(2).unwrap(), block(2, 3));
        // ...until it refreshes.
        assert_eq!(src.refresh().unwrap(), 1);
        assert_eq!(*src.read_region(2).unwrap(), block(42, 1));

        // Chained appends: the latest overlay shadows earlier ones.
        let mut app = ShardAppender::open(&dir).unwrap();
        app.write_region(2, &block(43, 2)).unwrap();
        app.write_region(5, &block(44, 2)).unwrap();
        app.finish().unwrap();
        assert_eq!(src.refresh().unwrap(), 2);
        assert_eq!(*src.read_region(2).unwrap(), block(43, 2));
        assert_eq!(*src.read_region(5).unwrap(), block(44, 2));
        assert_eq!(*src.read_region(0).unwrap(), block(0, 1));
        fs::remove_dir_all(&dir).ok();
    }

    /// A refresh opens the one overlay its generation added and nothing
    /// the source already holds: exactly one member per append that
    /// wrote blocks, none after one that replaced nothing, however many
    /// generations came before.
    #[test]
    fn refresh_opens_only_the_overlay_each_append_adds() {
        let dir = tmp_dir("refresh_incremental");
        write_sharded(&dir, 12, 3);
        let src = ShardedSource::open(&dir).unwrap();
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
            let mut app = ShardAppender::open(&dir).unwrap();
            for &r in &regions {
                app.write_region(r, &block(100 * k + r as u32, 1 + r % 4)).unwrap();
            }
            app.finish().unwrap();
            let before = members_opened();
            assert_eq!(src.refresh().unwrap(), k as u64);
            let opened = members_opened() - before;
            assert_eq!(opened, u64::from(!regions.is_empty()), "append {k}: {regions:?}");
            let before = members_opened();
            assert_eq!(src.refresh().unwrap(), k as u64, "unchanged manifest");
            assert_eq!(members_opened(), before, "append {k}: a no-op refresh opened a file");
            if [1, 5, 20].contains(&k) {
                assert_serves_a_fresh_open(&src, &dir, &format!("after {k} appends"));
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A manifest whose earlier overlay entry changed — its bytes or its
    /// regions — does not extend the adopted one: the refresh opens every
    /// member it lists, as a fresh open would.
    #[test]
    fn a_manifest_that_does_not_extend_the_adopted_one_reopens_every_member() {
        for (case, regions, rows) in [("bytes", vec![1u64], 3), ("regions", vec![1, 4], 1)] {
            let dir = tmp_dir(&format!("refresh_doctored_{case}"));
            write_sharded(&dir, 8, 2);
            for (g, r) in [(1u32, 1usize), (2, 2), (3, 6)] {
                let mut app = ShardAppender::open(&dir).unwrap();
                app.write_region(r, &block(100 * g, 2)).unwrap();
                app.finish().unwrap();
            }
            let src = ShardedSource::open(&dir).unwrap();

            // Generation 1's overlay rewritten under its own name, and a
            // manifest that lists it so.
            let mut manifest = ShardManifest::read(&dir.join(MANIFEST_NAME)).unwrap();
            let first = &mut manifest.overlays[0];
            let mut w = TrainingWriter::create(&dir.join(&first.file), 2, 1).unwrap();
            for &r in &regions {
                w.write_region(&block(500 + r as u32, rows)).unwrap();
            }
            let (file, bytes) = w.close().unwrap();
            file.commit().unwrap();
            assert_ne!((bytes, &regions), (first.bytes, &first.regions), "{case}");
            (first.bytes, first.regions) = (bytes, regions);
            manifest.generation += 1;
            manifest.write_atomic(&dir.join(MANIFEST_NAME)).unwrap();

            let before = members_opened();
            assert_eq!(src.refresh().unwrap(), 4);
            assert_eq!(members_opened() - before, 3, "{case}: every overlay reopened");
            assert_serves_a_fresh_open(&src, &dir, case);
            fs::remove_dir_all(&dir).ok();
        }
    }

    /// A rotten block in a shard or an overlay is counted in the sharded
    /// source's own books — the ones its snapshot and its registry read.
    #[test]
    fn a_corrupt_shard_or_overlay_block_is_counted_where_the_snapshot_reads() {
        let dir = tmp_dir("corrupt_books");
        write_sharded(&dir, 4, 2);
        let mut app = ShardAppender::open(&dir).unwrap();
        app.write_region(3, &block(30, 2)).unwrap();
        app.finish().unwrap();
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
        app.write_region(2, &block(9, 1)).unwrap();
        assert!(app.write_region(2, &block(9, 1)).is_err(), "not ascending");
        assert!(app.write_region(1, &block(9, 1)).is_err(), "not ascending");
        assert!(app.write_region(4, &block(9, 1)).is_err(), "out of range");
        drop(app);

        // An append that replaced nothing still bumps the generation and
        // leaves no orphan overlay file behind.
        let app = ShardAppender::open(&dir).unwrap();
        let overlay = dir.join(overlay_file_name(1));
        let manifest = app.finish().unwrap();
        assert_eq!(manifest.generation, 1);
        assert!(manifest.overlays.is_empty());
        assert!(!overlay.exists());
        assert!(ShardedSource::open(&dir).is_ok());
        fs::remove_dir_all(&dir).ok();
    }

    /// What [`replaced_examples`] replaced, kept as its oracle: open the
    /// whole pre-append layout and read every replaced block for its
    /// row count.
    fn replaced_examples_by_reading(
        dir: &Path,
        _manifest: &ShardManifest,
        regions: &[u64],
    ) -> io::Result<u64> {
        let old_view = ShardedSource::open(dir)?;
        let mut old_examples = 0u64;
        for &r in regions {
            old_examples += old_view.read_region(r as usize)?.n() as u64;
        }
        Ok(old_examples)
    }

    #[test]
    fn index_counted_appends_publish_the_manifests_the_reading_oracle_does() {
        use bellwether_prop::Rng;
        let (by_index, by_reading) = (tmp_dir("count_index"), tmp_dir("count_read"));
        for dir in [&by_index, &by_reading] {
            write_sharded(dir, 12, 2);
        }
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
            let mut published = Vec::new();
            for (dir, count) in [
                (&by_index, replaced_examples as fn(&Path, &ShardManifest, &[u64]) -> _),
                (&by_reading, replaced_examples_by_reading),
            ] {
                let mut app = ShardAppender::open(dir).unwrap();
                for (&r, &n) in regions.iter().zip(&rows) {
                    app.write_region(r, &block(100 * g as u32 + r as u32, n)).unwrap();
                }
                let manifest = app.finish_counting(count, &NoopRecorder).unwrap();
                assert_eq!(manifest.generation, g as u64 + 1);
                published.push(fs::read(dir.join(MANIFEST_NAME)).unwrap());
            }
            assert_eq!(published[0], published[1], "generation {}", g + 1);
        }
        // And the total both carried forward is the layout's.
        let src = ShardedSource::open(&by_index).unwrap();
        let read: u64 = (0..12).map(|r| src.read_region(r).unwrap().n() as u64).sum();
        assert_eq!(src.total_examples().unwrap(), read);
        for dir in [by_index, by_reading] {
            fs::remove_dir_all(&dir).ok();
        }
    }

    /// A holder whose index entry is not a block's length stops the
    /// append instead of publishing a wrong total.
    #[test]
    fn appender_refuses_an_index_length_that_is_no_whole_block() {
        let dir = tmp_dir("count_bad_len");
        let manifest = write_sharded(&dir, 4, 1);
        // Grow region 2's `len` by one (its block is followed by region
        // 3's, so the entry still lies inside the block area).
        let shard = dir.join(shard_file_name(0));
        let mut bytes = fs::read(&shard).unwrap();
        let entry = bytes.len() - crate::format::FOOTER_LEN - 2 * (16 + 4);
        bytes[entry + 8] += 1;
        fs::write(&shard, &bytes).unwrap();
        let err = replaced_examples(&dir, &manifest, &[2]).expect_err("odd length counted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(replaced_examples(&dir, &manifest, &[1]).unwrap(), 2);
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
