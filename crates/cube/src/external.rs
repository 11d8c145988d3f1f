//! The CUBE driver, and the run/spill machinery that lets it work on
//! fact tables whose phase-1 state does not fit in RAM.
//!
//! # Run discipline
//!
//! Every pass is the same pipeline ([`cube_pass_runs`]). Fact rows are
//! folded in fixed [`ROW_CHUNK`] chunks; chunks are grouped into **runs**
//! of a fixed number of chunks (the last run may be short) and each
//! completed run becomes a key-sorted state run: its chunk tables merged
//! by `MergeRuns`, the k-way merge that also merges the runs at the end.
//! The byte budget then decides only *where* completed runs live: when
//! the resident runs exceed the budget, the oldest ones are
//! serialized to temp files (a `shard/spills` counter per run,
//! `shard/spill_bytes` for volume) until the budget holds again.
//! Finally all runs — spilled and resident alike, in formation order —
//! are k-way merged by key into a stream of sorted segments that
//! `rollup_walk` pulls and drops as it walks them. The two entries differ
//! only in the two numbers they fix: [`cube_pass_external`] takes
//! [`RUN_CHUNKS`] chunks per run and the caller's budget; the resident
//! [`crate::cube_pass()`] takes one run of all chunks and no budget, so
//! nothing spills and the single run's own shards are the stream. Both
//! fail the same way, with a [`CubeError`].
//!
//! # Determinism
//!
//! Run boundaries are a function of the input and the entry point's
//! fixed run length, never of the budget or thread count. The budget picks
//! between two bit-exact representations of the same run — the
//! in-memory [`StateTable`]s or their serialized form, which round-trips
//! every accumulator exactly (`f64` bits, integer counts, the
//! key-sorted distinct pair lists, bitset words) — so the k-way merge consumes
//! identical per-run state sequences either way. Per output key the
//! merge folds contributions in ascending run order (copy the first,
//! merge the rest); inside a run phase 1b folded them in ascending chunk
//! order with the same merge, and distinct lanes restore their keep-last
//! dedup invariant per closed segment. Hence the acceptance property:
//! **a spill-forced pass (tiny budget) and an unlimited-budget pass are
//! bit-identical**, at any thread count.
//!
//! The budget bounds the *aggregation state* (completed runs). Three
//! allocations are intentionally outside it: the transient chunk tables
//! of the run being folded (at most `RUN_CHUNKS × ROW_CHUNK` rows of
//! state — the floor any streaming pass pays); the merge's window — a
//! frame per run, the open segment and the rollup's batch, never the
//! merged table; and the rollup's own state, one running table per
//! trailing-coordinate combination × items when an interval leads the
//! space (per region otherwise), beside the finished columns that are
//! the result.
//!
//! # What a spill costs
//!
//! Five spans decompose the pass: `cube_pass/phase1_merge` (run close),
//! `cube_pass/external_spill` (encode + write), `cube_pass/external_merge`
//! (the k-way merge, with `cube_pass/external_decode` — read-back and
//! frame decode — inside it) and `cube_pass/phase2_rollup`, the last two
//! interleaved self-times that add up. The merge hands on whole frames,
//! takes ranges, and goes key by key only through keys two runs share
//! (`MergeRuns`). The frame reader (`FrameReader`) treats a run
//! as untrusted bytes and checks every record's CRC-32 trailer first.

use crate::cube_pass::{
    fold_chunks, intern_keys, rollup_walk, strictly_ascending, words, CubeError, CubeInput,
    CubeResult, IdLane, KeySpace, RollupPlan, StateCol, StateTable, BITSET_KEYS_MAX, ROW_CHUNK,
    SEGMENT_CELLS,
};
use crate::parallel::Parallelism;
use crate::region::RegionSpace;
use bellwether_obs::{names, span, Recorder};
use bellwether_storage::codec::{seal, Cursor, PutLe};
use bellwether_storage::crc32::{crc32_finish, crc32_update, CRC_INIT};
use bellwether_storage::CorruptBlock;
use bellwether_table::ops::AggFunc;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Chunks per run. Fixed — never derived from the budget or thread
/// count — so every budget produces the same run structure and the
/// spill-vs-resident choice cannot change a single output bit.
pub const RUN_CHUNKS: usize = 64;

/// Cells per serialized spill frame.
const FRAME_CELLS: usize = 4096;

/// Pass with no byte budget: nothing ever spills.
pub const UNLIMITED_BUDGET: usize = usize::MAX;

fn invalid<T>(msg: String) -> io::Result<T> {
    Err(io::Error::new(io::ErrorKind::InvalidData, msg))
}

// ---------------------------------------------------------------------
// Spill-file format (temp scratch, process-private):
//   header:  u32 n_cols, then per column u8 kind tag + u8 func tag, then
//            per bitset column u32 words, u32 n_keys, n_keys × f64 values
//   frames:  u32 cell count (0 terminates), count × u64 keys, then per
//            column its lanes for those cells (a bitset: words per cell)
// The header, every frame and the terminator each end in the CRC-32 of
// their own bytes (`codec::seal`). All integers and floats
// little-endian; `f64` via `to_bits`, so the round trip is bit-exact.
// ---------------------------------------------------------------------

fn func_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::Sum => 0,
        AggFunc::Min => 1,
        AggFunc::Max => 2,
        AggFunc::Avg => 3,
        AggFunc::Count => 4,
        AggFunc::CountDistinct => 5,
    }
}

fn func_from(tag: u8) -> io::Result<AggFunc> {
    Ok(match tag {
        0 => AggFunc::Sum,
        1 => AggFunc::Min,
        2 => AggFunc::Max,
        3 => AggFunc::Avg,
        4 => AggFunc::Count,
        5 => AggFunc::CountDistinct,
        other => return invalid(format!("bad func tag {other} in spill run")),
    })
}

fn col_tags(c: &StateCol) -> (u8, u8) {
    match c {
        StateCol::Sum { .. } => (0, 0),
        StateCol::Count(_) => (1, 0),
        StateCol::Avg { .. } => (2, 0),
        StateCol::Min { .. } => (3, 0),
        StateCol::Max { .. } => (4, 0),
        StateCol::Distinct { func, .. } => (5, func_tag(*func)),
        StateCol::Bits { func, .. } => (6, func_tag(*func)),
    }
}

/// Append one column's lanes for cells `lo..hi` to the frame buffer.
fn encode_lanes(col: &StateCol, lo: usize, hi: usize, out: &mut Vec<u8>) {
    match col {
        StateCol::Sum { totals, seen }
        | StateCol::Min { vals: totals, seen }
        | StateCol::Max { vals: totals, seen } => {
            for &v in &totals[lo..hi] {
                out.put_f64_le(v);
            }
            out.extend(seen[lo..hi].iter().map(|&b| b as u8));
        }
        StateCol::Count(c) => {
            for &v in &c[lo..hi] {
                out.put_u64_le(v);
            }
        }
        StateCol::Avg { totals, counts } => {
            for &v in &totals[lo..hi] {
                out.put_f64_le(v);
            }
            for &v in &counts[lo..hi] {
                out.put_u64_le(v);
            }
        }
        StateCol::Distinct { pairs, .. } => {
            for list in &pairs[lo..hi] {
                out.put_u32_le(list.len() as u32);
                for &(k, v) in list {
                    out.put_i64_le(k);
                    out.put_f64_le(v);
                }
            }
        }
        StateCol::Bits { vals, bits, .. } => {
            let w = words(vals);
            bits[lo * w..hi * w].iter().for_each(|&word| out.put_u64_le(word));
        }
    }
}

/// Serialize a run (tables with ascending disjoint key ranges) to
/// `path`; returns bytes written.
fn write_run(path: &PathBuf, shards: &[StateTable]) -> io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    let mut bytes = 0u64;
    let mut buf = Vec::new();

    let mut put_sealed = |buf: &mut Vec<u8>| -> io::Result<()> {
        seal(buf, 0);
        w.write_all(buf)?;
        bytes += buf.len() as u64;
        buf.clear();
        Ok(())
    };

    let cols = shards.first().map(|t| t.cols.as_slice()).unwrap_or(&[]);
    buf.put_u32_le(cols.len() as u32);
    for c in cols {
        let (kind, func) = col_tags(c);
        buf.push(kind);
        buf.push(func);
    }
    for c in cols {
        if let StateCol::Bits { vals, .. } = c {
            buf.put_u32_le(words(vals) as u32);
            buf.put_u32_le(vals.len() as u32);
            vals.iter().for_each(|&v| buf.put_f64_le(v));
        }
    }
    put_sealed(&mut buf)?;

    for table in shards {
        let mut lo = 0;
        while lo < table.len() {
            let hi = (lo + FRAME_CELLS).min(table.len());
            buf.put_u32_le((hi - lo) as u32);
            for &k in &table.keys[lo..hi] {
                buf.put_u64_le(k);
            }
            for col in &table.cols {
                encode_lanes(col, lo, hi, &mut buf);
            }
            put_sealed(&mut buf)?;
            lo = hi;
        }
    }
    buf.put_u32_le(0);
    put_sealed(&mut buf)?;
    w.flush()?;
    Ok(bytes)
}

/// Reads a run back. The bytes are only as trustworthy as the temp
/// directory: every length is checked against what the format allows
/// and what the file still holds *before* anything is allocated for it,
/// the key order the merge relies on is checked as it is decoded, and a
/// record is handed on only once its CRC-32 trailer matches. It streams
/// a file, so it has no slice for a [`Cursor`] to borrow: it keeps the
/// `left` accounting and the checksum itself and parses through one.
struct FrameReader {
    r: BufReader<File>,
    schema: Vec<(u8, u8)>,
    /// Per column, a bitset column's values by key id.
    domains: Vec<Option<Arc<[f64]>>>,
    /// Bytes of the file not read yet.
    left: u64,
    /// CRC register over the sealed record being read.
    crc: u32,
    /// The last cell key decoded: keys ascend strictly across the run.
    last_key: Option<u64>,
    /// Time spent in [`FrameReader::next_frame`] (`None` = not timed).
    decode_nanos: Option<u64>,
}

impl FrameReader {
    fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.r.read_exact(&mut b)?;
        self.left = self.left.saturating_sub(4);
        self.crc = crc32_update(self.crc, &b);
        Ok(u32::from_le_bytes(b))
    }

    /// Read the trailer that ends a sealed record and check it against
    /// everything read since the previous one.
    fn check_seal(&mut self) -> io::Result<()> {
        let actual = crc32_finish(self.crc);
        let expected = self.u32()?;
        self.crc = CRC_INIT;
        (expected == actual).then_some(()).ok_or_else(|| CorruptBlock { expected, actual }.into())
    }

    /// The next `count × width` bytes; fails before allocating when the
    /// file does not hold that many.
    fn bytes(&mut self, count: usize, width: usize) -> io::Result<Vec<u8>> {
        let n = count.checked_mul(width).filter(|&n| n as u64 <= self.left).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("spill run ends inside {count} x {width} bytes"),
            )
        })?;
        self.left -= n as u64;
        let mut v = vec![0u8; n];
        self.r.read_exact(&mut v)?;
        self.crc = crc32_update(self.crc, &v);
        Ok(v)
    }

    fn u64s(&mut self, n: usize) -> io::Result<Vec<u64>> {
        Cursor::new(&self.bytes(n, 8)?).get_u64_lane(n)
    }

    fn f64s(&mut self, n: usize) -> io::Result<Vec<f64>> {
        Cursor::new(&self.bytes(n, 8)?).get_f64_lane(n)
    }

    fn bools(&mut self, n: usize) -> io::Result<Vec<bool>> {
        let raw = self.bytes(n, 1)?;
        if raw.iter().any(|&b| b > 1) {
            return invalid("a seen flag that is neither 0 nor 1 in spill run".to_string());
        }
        Ok(raw.into_iter().map(|b| b != 0).collect())
    }

    fn open(path: &PathBuf, timed: bool) -> io::Result<FrameReader> {
        let file = File::open(path)?;
        let mut fr = FrameReader {
            left: file.metadata()?.len(),
            r: BufReader::new(file),
            schema: Vec::new(),
            domains: Vec::new(),
            crc: CRC_INIT,
            last_key: None,
            decode_nanos: timed.then_some(0),
        };
        let n_cols = fr.u32()? as usize;
        let raw = fr.bytes(n_cols, 2)?;
        fr.schema = raw.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        for i in 0..n_cols {
            let domain = if fr.schema[i].0 == 6 { Some(fr.domain()?) } else { None };
            fr.domains.push(domain);
        }
        fr.check_seal()?;
        Ok(fr)
    }

    /// A bitset column's word count and values, from the header.
    fn domain(&mut self) -> io::Result<Arc<[f64]>> {
        let (w, n_keys) = (self.u32()? as usize, self.u32()? as usize);
        if !(1..=BITSET_KEYS_MAX).contains(&n_keys) || w != n_keys.div_ceil(64) {
            return invalid(format!("a bitset of {w} words over {n_keys} keys in spill run"));
        }
        Ok(self.f64s(n_keys)?.into())
    }

    /// Read the next frame as a small [`StateTable`]; `None` at the
    /// terminator.
    fn next_frame(&mut self) -> io::Result<Option<StateTable>> {
        let Some(nanos) = self.decode_nanos else {
            return self.decode_frame();
        };
        let started = Instant::now();
        let frame = self.decode_frame();
        self.decode_nanos = Some(nanos + started.elapsed().as_nanos() as u64);
        frame
    }

    fn decode_frame(&mut self) -> io::Result<Option<StateTable>> {
        let n = self.u32()? as usize;
        if n == 0 {
            self.check_seal()?;
            return Ok(None);
        }
        if n > FRAME_CELLS {
            return invalid(format!("frame of {n} cells in spill run (at most {FRAME_CELLS})"));
        }
        let keys = self.u64s(n)?;
        let ascending = keys.windows(2).all(|w| w[0] < w[1])
            && self.last_key.is_none_or(|last| last < keys[0]);
        if !ascending {
            return invalid("cell keys not strictly ascending in spill run".to_string());
        }
        self.last_key = keys.last().copied();
        let mut cols = Vec::with_capacity(self.schema.len());
        for i in 0..self.schema.len() {
            let (kind, func) = self.schema[i];
            let col = match kind {
                0 | 3 | 4 => {
                    let vals = self.f64s(n)?;
                    let seen = self.bools(n)?;
                    match kind {
                        0 => StateCol::Sum { totals: vals, seen },
                        3 => StateCol::Min { vals, seen },
                        _ => StateCol::Max { vals, seen },
                    }
                }
                1 => StateCol::Count(self.u64s(n)?),
                2 => StateCol::Avg {
                    totals: self.f64s(n)?,
                    counts: self.u64s(n)?,
                },
                5 => {
                    let func = func_from(func)?;
                    let mut pairs = Vec::with_capacity(n);
                    for _ in 0..n {
                        let len = self.u32()? as usize;
                        let raw = self.bytes(len, 16)?;
                        let mut cur = Cursor::new(&raw);
                        let list = (0..len)
                            .map(|_| Ok((cur.get_i64_le()?, cur.get_f64_le()?)))
                            .collect::<io::Result<Vec<(i64, f64)>>>()?;
                        // The merge walks a source list as a sorted
                        // set; a run on disk is the one source that is
                        // bytes rather than a dedup's output.
                        if !strictly_ascending(&list) {
                            return invalid(
                                "distinct keys not strictly ascending in spill run".to_string(),
                            );
                        }
                        pairs.push(list);
                    }
                    StateCol::Distinct { func, pairs }
                }
                6 => {
                    let vals = self.domains[i].clone().expect("read with the header");
                    let w = words(&vals);
                    let bits = self.u64s(n * w)?;
                    // Bits past the domain in each slot's last word.
                    let spare = w * 64 - vals.len();
                    if spare > 0 && bits.chunks_exact(w).any(|slot| slot[w - 1] >> (64 - spare) != 0) {
                        return invalid("a distinct key id past its domain in spill run".to_string());
                    }
                    StateCol::Bits { func: func_from(func)?, vals, bits }
                }
                other => return invalid(format!("bad column tag {other} in spill run")),
            };
            cols.push(col);
        }
        self.check_seal()?;
        Ok(Some(StateTable { keys, cols }))
    }
}

// ---------------------------------------------------------------------
// Runs and cursors
// ---------------------------------------------------------------------

/// One completed run: merged, key-sorted state, either in memory or in
/// a spill file.
enum Run {
    Resident { shards: Vec<StateTable>, bytes: usize },
    Spilled { path: PathBuf },
}

/// Approximate resident size of one table (budget accounting).
fn table_bytes(t: &StateTable) -> usize {
    let n = t.len();
    let mut b = n * 8;
    for col in &t.cols {
        b += match col {
            StateCol::Sum { .. } | StateCol::Min { .. } | StateCol::Max { .. } => n * 9,
            StateCol::Count(_) => n * 8,
            StateCol::Avg { .. } => n * 16,
            StateCol::Distinct { pairs, .. } => {
                n * 24 + pairs.iter().map(|p| p.capacity() * 16).sum::<usize>()
            }
            StateCol::Bits { bits, .. } => bits.len() * 8,
        }
    }
    b
}

/// Temp directory for this pass's spill files; removed on drop.
struct SpillDir {
    dir: Option<PathBuf>,
    seq: usize,
}

impl SpillDir {
    fn new() -> SpillDir {
        SpillDir { dir: None, seq: 0 }
    }

    fn next_path(&mut self) -> io::Result<PathBuf> {
        if self.dir.is_none() {
            static PASS_SEQ: AtomicU64 = AtomicU64::new(0);
            let d = std::env::temp_dir().join(format!(
                "bw_spill_{}_{}",
                std::process::id(),
                PASS_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&d)?;
            self.dir = Some(d);
        }
        let path = self
            .dir
            .as_ref()
            .expect("created above")
            .join(format!("run-{:04}.bwrun", self.seq));
        self.seq += 1;
        Ok(path)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

/// Streaming view of one run's cells in ascending key order, uniform
/// over resident and spilled runs. The merge takes cells off the current
/// frame and merges what it took, one `merge_from` per column, when it
/// flushes.
struct RunCursor {
    source: CursorSource,
    frame: Option<StateTable>,
    /// The next cell of `frame` to take.
    pos: usize,
    /// The last `dsts.len()` cells before `pos` are taken but not merged
    /// yet: the `i`-th goes to segment slot `dsts[i]`, which held its key
    /// already iff `was[i]`.
    dsts: Vec<u32>,
    was: Vec<bool>,
}

enum CursorSource {
    Resident(std::vec::IntoIter<StateTable>),
    Spilled(FrameReader),
}

impl RunCursor {
    fn open(run: Run, timed: bool) -> io::Result<RunCursor> {
        let source = match run {
            Run::Resident { shards, .. } => CursorSource::Resident(shards.into_iter()),
            Run::Spilled { path } => CursorSource::Spilled(FrameReader::open(&path, timed)?),
        };
        let mut cur = RunCursor {
            source,
            frame: None,
            pos: 0,
            dsts: Vec::new(),
            was: Vec::new(),
        };
        cur.load_frame()?;
        Ok(cur)
    }

    /// Pull frames until one is non-empty or the run is exhausted.
    fn load_frame(&mut self) -> io::Result<()> {
        debug_assert!(self.dsts.is_empty(), "a frame left with cells taken but not merged");
        self.pos = 0;
        loop {
            let next = match &mut self.source {
                CursorSource::Resident(it) => it.next(),
                CursorSource::Spilled(r) => r.next_frame()?,
            };
            match next {
                Some(t) if t.len() == 0 => continue,
                other => {
                    self.frame = other;
                    return Ok(());
                }
            }
        }
    }

    fn peek(&self) -> Option<u64> {
        self.frame.as_ref().map(|t| t.keys[self.pos])
    }

    /// Take the next `cells` cells for segment slots from `slot` on, which
    /// held their keys already iff `was`; true when that uses up the frame.
    fn take(&mut self, cells: usize, slot: usize, was: bool) -> bool {
        self.dsts.extend(slot as u32..(slot + cells) as u32);
        self.was.resize(self.was.len() + cells, was);
        self.pos += cells;
        self.frame.as_ref().is_some_and(|t| self.pos == t.len())
    }

    /// Merge the cells taken since the last flush into `cols`, then pull
    /// the next frame if this one is used up.
    fn flush(&mut self, cols: &mut [StateCol]) -> io::Result<()> {
        let Some(frame) = &self.frame else {
            return Ok(());
        };
        let taken = self.pos - self.dsts.len()..self.pos;
        for (dst, src) in cols.iter_mut().zip(&frame.cols) {
            dst.merge_from(src, taken.clone(), &self.dsts, &self.was);
        }
        self.dsts.clear();
        self.was.clear();
        if self.pos == frame.len() {
            self.load_frame()?;
        }
        Ok(())
    }
}

/// The one merge of key-sorted state, over a run's chunk tables (phase
/// 1b, [`MergeRuns::of_chunks`]) and over the runs: a stream of segments
/// in ascending key order. Per key the first run holding it copies and
/// later runs merge, ascending by run. Each step takes the lowest run's
/// cells below every other head, or one key from every run holding it. A
/// frame below every other head, met with the open segment empty, is
/// handed on whole: chained chunk tables and week-slice runs pass through
/// uncopied. The rollup pulls one segment at a time.
pub(crate) struct MergeRuns {
    cursors: Vec<RunCursor>,
    /// `(head key, run)` of the lowest run with cells left: the one the
    /// next step takes from, kept off the heap.
    lowest: Option<(u64, usize)>,
    /// `(head key, run)` of every other run with cells left.
    heads: BinaryHeap<Reverse<(u64, usize)>>,
    /// The open segment, shaped by the first frame it takes from.
    cur: StateTable,
    /// Merges into an occupied slot so far.
    pub(crate) merges: u64,
}

impl MergeRuns {
    fn open(runs: Vec<Run>, timed: bool) -> io::Result<MergeRuns> {
        let cursors = runs.into_iter().map(|run| RunCursor::open(run, timed));
        let cursors: Vec<RunCursor> = cursors.collect::<io::Result<_>>()?;
        let heads = cursors.iter().enumerate().filter_map(|(i, c)| Some(Reverse((c.peek()?, i))));
        let mut heads: BinaryHeap<_> = heads.collect();
        Ok(MergeRuns {
            lowest: heads.pop().map(|Reverse(h)| h),
            heads,
            cursors,
            cur: StateTable::default(),
            merges: 0,
        })
    }

    /// Merge every run's taken cells into the open segment in run order, so
    /// each slot sees its operands in run order; used-up frames are replaced.
    fn flush(&mut self) -> io::Result<()> {
        let len = self.cur.len();
        self.cur.cols.iter_mut().for_each(|col| col.resize_default(len));
        self.cursors.iter_mut().try_for_each(|c| c.flush(&mut self.cur.cols))
    }

    /// Put `run`, the lowest, back at its head, after a flush if the last
    /// take `used_up` its frame, as one push-pop: it stays off the heap
    /// while below the heap's top, else it replaces the top, which becomes
    /// the lowest. `(key, run)` is a strict total order, so the steps are
    /// those of a pop and a push, at one sift a step.
    fn requeue(&mut self, run: usize, used_up: bool) -> io::Result<()> {
        if used_up {
            self.flush()?;
        }
        self.lowest = match self.cursors[run].peek() {
            None => self.heads.pop().map(|Reverse(h)| h),
            Some(key) => match self.heads.peek_mut() {
                Some(mut top) if top.0 < (key, run) => {
                    Some(std::mem::replace(&mut *top, Reverse((key, run))).0)
                }
                _ => Some((key, run)),
            },
        };
        Ok(())
    }

    /// Phase 1b: one run's chunk tables, in chunk order, each a one-frame
    /// resident run.
    pub(crate) fn of_chunks(tables: Vec<StateTable>) -> io::Result<MergeRuns> {
        #[cfg(test)]
        if let Some((shards, merges)) = crate::testutil::phase1b_oracle(&tables) {
            let run = Run::Resident { shards, bytes: 0 };
            return Ok(MergeRuns { merges, ..MergeRuns::open(vec![run], false)? });
        }
        let runs = tables.into_iter().map(|t| Run::Resident { shards: vec![t], bytes: 0 });
        MergeRuns::open(runs.collect(), false)
    }

    fn next_segment(&mut self) -> io::Result<Option<StateTable>> {
        // The lowest run holding the smallest head key, and the smallest
        // head among the other runs (cell keys stay far below u64::MAX).
        while let Some((key, f)) = self.lowest {
            let rest = self.heads.peek().map_or(u64::MAX, |Reverse((k, _))| *k);
            let start = self.cur.len();
            let head = &self.cursors[f];
            let frame = head.frame.as_ref().expect("a run on the heap has a frame");
            let whole = start == 0 && head.pos == 0 && frame.keys[frame.len() - 1] < rest;
            #[cfg(test)]
            let whole = whole && !crate::cube_pass::tests::phase1_oracle();
            if whole {
                let head = &mut self.cursors[f];
                let frame = head.frame.take();
                head.load_frame()?;
                self.requeue(f, false)?;
                return Ok(frame);
            }
            if self.cur.cols.is_empty() {
                self.cur.cols = frame.cols.iter().map(|c| c.new_like(0)).collect();
            }
            if rest == key {
                // Every run holding the key, ascending: the first copies.
                self.cur.keys.push(key);
                let mut run = f;
                loop {
                    let used_up = self.cursors[run].take(1, start, run != f);
                    self.merges += (run != f) as u64;
                    self.requeue(run, used_up)?;
                    match self.lowest {
                        Some((k, next)) if k == key => run = next,
                        _ => break,
                    }
                }
            } else {
                // A scan, not a search: interleaved tables give up a cell
                // or two a step, and every cell taken is copied anyway.
                let below = frame.keys[head.pos..].iter().take_while(|&&k| k < rest);
                let cells = below.take(SEGMENT_CELLS - start).count();
                self.cur.keys.extend_from_slice(&frame.keys[head.pos..head.pos + cells]);
                let used_up = self.cursors[f].take(cells, start, false);
                self.requeue(f, used_up)?;
            }
            if self.cur.len() >= SEGMENT_CELLS {
                self.flush()?;
                break;
            }
        }
        #[cfg(test)]
        crate::cube_pass::tests::copied(self.cur.len());
        // A closed segment restores its distinct lanes' dedup invariant.
        self.cur.cols.iter_mut().for_each(StateCol::dedup_distinct);
        Ok((self.cur.len() > 0).then(|| std::mem::take(&mut self.cur)))
    }
}

impl Iterator for MergeRuns {
    type Item = io::Result<StateTable>;

    fn next(&mut self) -> Option<io::Result<StateTable>> {
        self.next_segment().transpose()
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// Run the CUBE pass over one or more fact inputs under a byte budget
/// for resident aggregation state, spilling completed runs to temp
/// files when the budget is exceeded. `budget_bytes == usize::MAX`
/// ([`UNLIMITED_BUDGET`]) never spills.
///
/// For a fixed input partition the result is bit-identical at any
/// budget × thread combination (see the module docs for the argument).
/// Different partitions of the same rows may differ in float grouping —
/// compare like with like.
///
/// Inputs must share one measure schema (names, kinds, functions, in
/// order); malformed input is [`CubeError::InvalidInput`]. A space ×
/// item domain the dense `u64` key cannot encode is
/// [`CubeError::KeySpaceTooLarge`]: the pass never turns resident.
/// Failed spill I/O is [`CubeError::Io`], and so is a damaged spill run
/// (`InvalidData`, `UnexpectedEof`, or `is_corrupt`).
pub fn cube_pass_external(
    space: &RegionSpace,
    inputs: &[CubeInput],
    par: Parallelism,
    budget_bytes: usize,
    rec: &dyn Recorder,
) -> Result<CubeResult, CubeError> {
    cube_pass_runs(space, inputs, par, budget_bytes, RUN_CHUNKS, rec)
}

/// The one CUBE driver: validate the inputs, build the key space, fold
/// fixed [`ROW_CHUNK`] chunks, close a run every `run_chunks` chunks,
/// spill the oldest resident runs past `budget_bytes`, merge the runs
/// and roll up. [`cube_pass_external`] enters with [`RUN_CHUNKS`];
/// the resident [`crate::cube_pass()`] enters with one run of all chunks
/// and no budget; tests shrink the run length to exercise
/// multi-run merges on small inputs. Results are comparable only across
/// passes with the *same* run length.
pub(crate) fn cube_pass_runs(
    space: &RegionSpace,
    inputs: &[CubeInput],
    par: Parallelism,
    budget_bytes: usize,
    run_chunks: usize,
    rec: &dyn Recorder,
) -> Result<CubeResult, CubeError> {
    assert!(run_chunks > 0, "run_chunks must be positive");
    let arity = space.arity();
    let Some(first) = inputs.first() else {
        return Ok(CubeResult {
            measure_names: Vec::new(),
            regions: HashMap::new(),
        });
    };
    let mut total_rows = 0usize;
    for (idx, input) in inputs.iter().enumerate() {
        input
            .check_shape(arity)
            .and_then(|()| first.check_schema(input))
            .and_then(|()| input.check_coords(space))
            .map_err(|e| CubeError::InvalidInput(format!("input {idx}: {e}")))?;
        total_rows += input.item_ids.len();
    }
    let measure_names: Vec<String> = first.measures.iter().map(|m| m.name().to_string()).collect();
    if total_rows == 0 {
        return Ok(CubeResult {
            measure_names,
            regions: HashMap::new(),
        });
    }

    // Item domain over all inputs, deduplicated incrementally so the
    // working set stays `O(#distinct items)`, not `O(rows)`.
    let mut uniq: Vec<i64> = Vec::new();
    for input in inputs {
        uniq.extend_from_slice(&input.item_ids);
        uniq.sort_unstable();
        uniq.dedup();
    }
    let ks = KeySpace::build(space, &uniq).ok_or(CubeError::KeySpaceTooLarge)?;
    drop(uniq);
    let threads = par.threads_for(total_rows.div_ceil(ROW_CHUNK));
    // Distinct-FK measures whose keys fit bitset lanes, numbered over
    // every input.
    let interned: Vec<_> = (0..first.measures.len()).map(|m| intern_keys(inputs, m)).collect();

    // Phase 1: fold chunks into fixed-size runs, spilling the oldest
    // resident runs whenever the budget is exceeded.
    let mut spill_dir = SpillDir::new();
    let mut runs: Vec<Run> = Vec::new();
    let mut resident_bytes = 0usize;
    let mut run_merges = 0u64;
    let mut pending: Vec<StateTable> = Vec::new();
    let mut close_run = |pending: &mut Vec<StateTable>| -> io::Result<()> {
        let phase1_merge = span!(rec, "cube_pass/phase1_merge");
        let mut merge = MergeRuns::of_chunks(std::mem::take(pending))?;
        let shards = (&mut merge).collect::<io::Result<Vec<_>>>()?;
        run_merges += merge.merges;
        drop(phase1_merge);
        let bytes = shards.iter().map(table_bytes).sum::<usize>();
        runs.push(Run::Resident { shards, bytes });
        resident_bytes += bytes;
        if resident_bytes > budget_bytes {
            let _t = span!(rec, "cube_pass/external_spill");
            for run in runs.iter_mut() {
                if resident_bytes <= budget_bytes {
                    break;
                }
                if let Run::Resident { shards, bytes } = run {
                    let path = spill_dir.next_path()?;
                    let written = write_run(&path, shards)?;
                    rec.add(names::SHARD_SPILLS, 1);
                    rec.add(names::SHARD_SPILL_BYTES, written);
                    resident_bytes -= *bytes;
                    *run = Run::Spilled { path };
                }
            }
        }
        Ok(())
    };
    for (idx, input) in inputs.iter().enumerate() {
        let key_of = ks.key_fn(input);
        let lanes: Vec<Option<IdLane>> = interned
            .iter()
            .map(|i| i.as_ref().map(|(vals, ids)| IdLane { vals, ids: &ids[idx] }))
            .collect();
        let n_chunks = input.item_ids.len().div_ceil(ROW_CHUNK);
        let mut c = 0;
        while c < n_chunks {
            let take = (run_chunks - pending.len()).min(n_chunks - c);
            let mut tables = {
                let _t = span!(rec, "cube_pass/phase1_scan");
                fold_chunks(input, &lanes, arity, c..c + take, threads, &key_of)
            };
            pending.append(&mut tables);
            c += take;
            if pending.len() == run_chunks {
                close_run(&mut pending)?;
            }
        }
    }
    if !pending.is_empty() {
        close_run(&mut pending)?;
    }

    // Phase 2 rolls up a single resident run's own shards, or the k-way
    // merge of every run, each segment dropped once walked. The merge's
    // own time is the stretch less the rollup's.
    let plan = RollupPlan::new(space, &ks);
    let mut base_cells = 0u64;
    let count = |s: &io::Result<StateTable>| base_cells += s.as_ref().map_or(0, |s| s.len() as u64);
    let (rolled, final_merges) = match runs.pop() {
        Some(Run::Resident { shards, .. }) if runs.is_empty() => {
            let segments = shards.into_iter().map(Ok).inspect(count);
            (rollup_walk(&plan, &ks, segments, threads, None, rec)?, 0)
        }
        last => {
            runs.extend(last);
            rec.add(names::SHARD_RUNS_MERGED, runs.len() as u64);
            let started = Instant::now();
            let mut merge = MergeRuns::open(runs, rec.enabled())?;
            let rolled = rollup_walk(&plan, &ks, (&mut merge).inspect(count), threads, None, rec)?;
            if rec.enabled() {
                let decode = merge.cursors.iter().filter_map(|c| match &c.source {
                    CursorSource::Spilled(reader) => reader.decode_nanos,
                    CursorSource::Resident(_) => None,
                });
                let merge_nanos = started.elapsed().as_nanos() as u64 - rolled.nanos;
                rec.record_span(names::CUBE_PASS_EXTERNAL_MERGE, merge_nanos);
                rec.record_span(names::CUBE_PASS_EXTERNAL_DECODE, decode.sum());
            }
            (rolled, merge.merges)
        }
    };
    if rec.enabled() {
        rec.record_span(names::CUBE_PASS_PHASE2_ROLLUP, rolled.nanos);
    }

    rec.add(names::CUBE_PASS_ROWS_SCANNED, total_rows as u64);
    rec.add(names::CUBE_PASS_BASE_CELLS, base_cells);
    rec.add(
        names::CUBE_PASS_CELL_MERGES,
        run_merges + final_merges + rolled.merges,
    );
    rec.add(names::CUBE_PASS_REGIONS_EMITTED, rolled.finished.len() as u64);
    Ok(CubeResult {
        measure_names,
        regions: rolled.finished.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube_pass::tests::{cells_copied, fold_chunk_by_map, with_phase1_oracle};
    use crate::cube_pass::{
        aggregate_filtered, chunk_range, cube_pass, fold_chunk, Measure, SMALL_PAIRS_MAX,
    };
    use crate::delta::StreamingCube;
    use crate::dimension::Dimension;
    use crate::testutil::{
        assert_bit_identical, cube_pass_reference, gen_distinct_input, gen_functional_input,
        gen_input, measures_of_every_kind, merge_chunks, slice_rows, space,
    };
    use bellwether_obs::{NoopRecorder, Registry};
    use bellwether_prop::Rng;
    use bellwether_storage::is_corrupt;
    use bellwether_table::{Bitmap, ColumnData};

    fn items() -> Vec<i64> {
        (0..7).map(|i| i * 3).collect()
    }

    /// `rows` seeded fact rows over seven item ids.
    fn input(rows: usize, seed: u64) -> CubeInput {
        gen_input(seed, rows, &items())
    }

    /// [`input`] whose Sum distinct-FK measure takes bitset lanes.
    fn functional_input(rows: usize, seed: u64) -> CubeInput {
        gen_functional_input(seed, rows, &items())
    }

    fn par(threads: usize) -> Parallelism {
        Parallelism::fixed(threads).with_min_chunk(1)
    }

    /// The merged state of `rows` seeded rows — one run's worth, every
    /// state kind, with a bitset lane when `bitsets` — as `shards`
    /// key-range shards.
    fn merged_run(rows: usize, seed: u64, shards: usize, bitsets: bool) -> Vec<StateTable> {
        let sp = space();
        let inp = if bitsets {
            functional_input(rows, seed)
        } else {
            input(rows, seed)
        };
        let interned: Vec<_> = (0..inp.measures.len())
            .map(|m| intern_keys(std::slice::from_ref(&inp), m).filter(|_| bitsets))
            .collect();
        assert_eq!(interned.iter().flatten().count(), bitsets as usize);
        let lanes: Vec<Option<IdLane>> = interned
            .iter()
            .map(|i| i.as_ref().map(|(vals, ids)| IdLane { vals, ids: &ids[0] }))
            .collect();
        let ks = KeySpace::build(&sp, &items()).unwrap();
        let key_of = ks.key_fn(&inp);
        let tables: Vec<StateTable> = (0..rows.div_ceil(ROW_CHUNK))
            .map(|c| fold_chunk(&inp, &lanes, 2, chunk_range(c, rows), &key_of))
            .collect();
        merge_chunks(&tables, ks.cell_space * ks.n_items, shards).0
    }

    #[test]
    fn single_run_matches_in_memory_kernel_exactly() {
        let sp = space();
        for inp in [input(3000, 42), functional_input(3000, 42)] {
            let expect = cube_pass(&sp, &inp, par(1), &NoopRecorder).unwrap();
            for threads in [1, 2, 4] {
                let got = cube_pass_external(
                    &sp,
                    std::slice::from_ref(&inp),
                    par(threads),
                    UNLIMITED_BUDGET,
                    &NoopRecorder,
                )
                .unwrap();
                assert_bit_identical(&got, &expect, &format!("threads={threads}"));
            }
        }
    }

    #[test]
    fn forced_spill_is_bit_identical_to_unlimited() {
        let sp = space();
        // Three inputs of 9000 rows at run_chunks=2: the 9 chunks form
        // 5 runs, so budget 0 spills several runs and the final pass is
        // a genuine multi-run k-way merge on both sides.
        for gen in [input, functional_input] {
            let inputs: Vec<CubeInput> = (0..3).map(|i| gen(9000, 7 + i)).collect();
            let reg = Registry::shared();
            let unlimited =
                cube_pass_runs(&sp, &inputs, par(2), UNLIMITED_BUDGET, 2, &NoopRecorder).unwrap();
            let spilled = cube_pass_runs(&sp, &inputs, par(4), 0, 2, reg.as_ref()).unwrap();
            assert_bit_identical(&spilled, &unlimited, "spilled vs unlimited");
            let snap = reg.snapshot();
            let get = |name: &str| snap.counter(name).unwrap_or(0);
            assert!(get(names::SHARD_SPILLS) > 0, "budget 0 must spill");
            assert!(get(names::SHARD_SPILL_BYTES) > 0);
            assert!(get(names::SHARD_RUNS_MERGED) > 0);
            assert_eq!(get(names::CUBE_PASS_ROWS_SCANNED), 27000);
        }
    }

    #[test]
    fn multi_input_partition_is_stable_across_threads_and_budgets() {
        let sp = space();
        for gen in [input, functional_input] {
            let inputs: Vec<CubeInput> = (0..2).map(|i| gen(5000, 100 + i)).collect();
            let base =
                cube_pass_runs(&sp, &inputs, par(1), UNLIMITED_BUDGET, 3, &NoopRecorder).unwrap();
            for threads in [2, 4] {
                for budget in [0usize, 1 << 20, UNLIMITED_BUDGET] {
                    let got = cube_pass_runs(&sp, &inputs, par(threads), budget, 3, &NoopRecorder)
                        .unwrap();
                    let what = format!("threads={threads} budget={budget}");
                    assert_bit_identical(&got, &base, &what);
                }
            }
        }
    }

    /// Every value and key lane's validity in `inp`, by measure index.
    fn validities(inp: &mut CubeInput) -> impl Iterator<Item = (usize, &mut Option<Bitmap>)> {
        inp.measures.iter_mut().enumerate().map(|(m, measure)| match measure {
            Measure::Numeric { values, .. } => (m, &mut values.validity),
            Measure::DistinctKeyed { keys, .. } => (m, &mut keys.validity),
        })
    }

    #[test]
    fn null_lanes_across_chunk_and_run_edges_match_the_reference() {
        let sp = space();
        let run_rows = RUN_CHUNKS * ROW_CHUNK;
        let rows = run_rows + ROW_CHUNK + 77;
        // NULL stretches straddling the first chunk edge and the first
        // run edge, over the generator's own scattered NULLs; the Min
        // lane (1) and the CountDistinct keys (6) are NULL in every row.
        let straddles = |r: usize| [ROW_CHUNK, run_rows].iter().any(|e| (e - 70..e + 70).contains(&r));
        let mut nulled = functional_input(rows, 5);
        // Whole numbers: the reference folds a cell's rows in one
        // sequence, the kernel chunk by chunk, so only exact sums agree.
        for m in &mut nulled.measures {
            if let Measure::Numeric { values, .. } = m {
                values.values.iter_mut().for_each(|v| *v = v.round());
            }
        }
        for (m, validity) in validities(&mut nulled) {
            let mut valid = validity.take().unwrap_or_else(|| Bitmap::ones(rows));
            let cleared = (0..rows).filter(|&r| m == 1 || m == 6 || straddles(r));
            cleared.for_each(|r| valid.set(r, false));
            *validity = Some(valid);
        }
        // The same rows with no NULL, with no bitmap and under an
        // all-ones one; the Sum distinct lane (5) still joins one value
        // per key, so it keeps its bitset lanes.
        let mut dense = nulled.clone();
        validities(&mut dense).for_each(|(_, validity)| *validity = None);
        let Measure::DistinctKeyed { keys, values, .. } = &mut dense.measures[5] else {
            unreachable!("measures_of_every_kind puts `d` sixth")
        };
        for (v, &k) in values.iter_mut().zip(&keys.values) {
            *v = k as f64 / 3.0 - 4.0;
        }
        let mut ones = dense.clone();
        validities(&mut ones).for_each(|(_, validity)| *validity = Some(Bitmap::ones(rows)));
        let cases = [("NULLs", nulled), ("no bitmap", dense), ("all-ones bitmaps", ones)];
        for (what, inp) in &cases {
            let one = std::slice::from_ref(inp);
            assert!(intern_keys(one, 5).is_some(), "{what}: bitset lane");
            let reference = cube_pass_reference(&sp, inp);
            let resident = cube_pass(&sp, inp, par(2), &NoopRecorder).unwrap();
            assert_bit_identical(&resident, &reference, &format!("{what}: resident"));
            let external = cube_pass_external(&sp, one, par(2), 0, &NoopRecorder).unwrap();
            assert_bit_identical(&external, &reference, &format!("{what}: spilled runs"));
        }
    }

    #[test]
    fn integer_sums_match_the_reference_kernel() {
        // Exactly-representable arithmetic: external, in-memory and
        // reference kernels must all agree regardless of grouping.
        let sp = space();
        let mut inp = input(4000, 9);
        for m in &mut inp.measures {
            if let Measure::Numeric { values, .. } = m {
                for v in &mut values.values {
                    *v = v.round();
                }
            }
            // T.A is functional per key (the join contract); the
            // reference kernel's hash-order merge relies on it.
            if let Measure::DistinctKeyed { keys, values, .. } = m {
                for (row, v) in values.iter_mut().enumerate() {
                    *v = keys.get(row).map_or(0.0, |k| (k * 3) as f64);
                }
            }
        }
        let reference = cube_pass_reference(&sp, &inp);
        let external =
            cube_pass_external(&sp, std::slice::from_ref(&inp), par(2), 0, &NoopRecorder)
                .unwrap();
        assert_bit_identical(&external, &reference, "external vs reference");
    }

    #[test]
    fn a_key_space_past_u64_is_key_space_too_large() {
        // 2^32 - 1 time points three times over: no dense key. Rows sit
        // at the last two points of each, so a cell is in at most eight
        // regions, and the reference kernel, which needs no dense key,
        // computes them all: the input is well formed, only too wide.
        let max_t = u32::MAX;
        let wide = RegionSpace::new(vec![
            crate::dimension::Dimension::Interval { name: "T".into(), max_t };
            3
        ]);
        assert!(KeySpace::build(&wide, &[1]).is_none());
        let slice = |seed: u64| {
            let mut inp = input(200, seed);
            inp.coords = (0..200u32).flat_map(|r| [0, 1, 2].map(|d| max_t - 1 - (r >> d & 1))).collect();
            inp
        };
        let slices = [slice(1), slice(2)];
        assert_eq!(cube_pass_reference(&wide, &slices[0]).regions.len(), 8);
        fn too_large<T>(got: Result<T, CubeError>) -> bool {
            matches!(got, Err(CubeError::KeySpaceTooLarge))
        }
        for budget in [0, UNLIMITED_BUDGET] {
            let got = cube_pass_external(&wide, &slices, par(2), budget, &NoopRecorder);
            assert!(too_large(got), "external, budget {budget}");
        }
        assert!(too_large(cube_pass(&wide, &slices[0], par(2), &NoopRecorder)), "resident");
        assert!(too_large(StreamingCube::new(&wide, &slices[0], &items(), par(2))), "stream");
    }

    #[test]
    fn empty_inputs_yield_empty_results() {
        let sp = space();
        let got = cube_pass_external(&sp, &[], par(1), 0, &NoopRecorder).unwrap();
        assert!(got.regions.is_empty());
        assert!(got.measure_names.is_empty());
        let empty = CubeInput {
            item_ids: vec![],
            coords: vec![],
            measures: vec![Measure::Numeric {
                name: "s".into(),
                func: AggFunc::Sum,
                values: ColumnData::default(),
            }],
        };
        let got = cube_pass_external(&sp, &[empty], par(1), 0, &NoopRecorder).unwrap();
        assert!(got.regions.is_empty());
        assert_eq!(got.measure_names, vec!["s".to_string()]);
    }

    #[test]
    fn run_roundtrip_is_bit_exact() {
        // Serialize + reload one run and compare every lane.
        for bitsets in [false, true] {
            roundtrip(merged_run(2000, 77, 2, bitsets));
        }
    }

    /// Take `cells` cells off `cursor`'s frame into fresh slots and
    /// flush them, as the merge does: their state, spelled.
    fn step(cursor: &mut RunCursor, cells: usize) -> io::Result<String> {
        let frame = cursor.frame.as_ref().expect("a frame to take from");
        let mut cols: Vec<StateCol> = frame.cols.iter().map(|c| c.new_like(cells)).collect();
        cursor.take(cells, 0, false);
        cursor.flush(&mut cols)?;
        Ok(format!("{cols:?}"))
    }

    fn roundtrip(shards: Vec<StateTable>) {
        let dir = std::env::temp_dir().join(format!("bw_run_rt_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.bwrun");
        write_run(&path, &shards).unwrap();

        let mut from_disk =
            RunCursor::open(Run::Spilled { path: path.clone() }, false).unwrap();
        let mut from_mem = RunCursor::open(Run::Resident { shards, bytes: 0 }, false).unwrap();
        let tags = |c: &RunCursor| c.frame.as_ref().map(|t| t.cols.iter().map(col_tags).collect::<Vec<_>>());
        let mut cells = 0usize;
        loop {
            match (from_mem.peek(), from_disk.peek()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a, b, "key order diverged at cell {cells}");
                    assert_eq!(tags(&from_mem), tags(&from_disk), "column kinds diverged");
                    assert_eq!(
                        step(&mut from_mem, 1).unwrap(),
                        step(&mut from_disk, 1).unwrap(),
                        "cell {cells} state diverged"
                    );
                    cells += 1;
                }
                other => panic!("cursor lengths diverged at {cells}: {other:?}"),
            }
        }
        assert!(cells > 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_lists_that_outgrow_the_sorted_regime_across_runs_spill_exactly() {
        let sp = space();
        let items = [4i64, 8, 15, 16];
        let weeks: Vec<u32> = (0..6).collect();
        // Four slices of 8,192 rows are four runs at two chunks a run.
        // Each draws its keys from its own window of 20, sharing 5 with
        // the run before, values free: a base cell's list is a sorted
        // set of at most 20 keys inside a run and a log of ~65 after
        // the k-way merge, and which run wrote a shared key last shows.
        let slices: Vec<CubeInput> = (0..4)
            .map(|r| gen_distinct_input(30 + r as u64, 8192, &items, &weeks, 15 * r..15 * r + 20, false))
            .collect();
        let unlimited =
            cube_pass_runs(&sp, &slices, par(1), UNLIMITED_BUDGET, 2, &NoopRecorder).unwrap();
        let widest = unlimited
            .regions
            .values()
            .flat_map(|items| items.iter())
            .filter_map(|(_, v)| v.get(4))
            .fold(0.0, f64::max);
        assert_eq!(widest, 65.0, "distinct keys of the widest slot");
        for threads in [1usize, 2, 4] {
            let reg = Registry::shared();
            let spilled = cube_pass_runs(&sp, &slices, par(threads), 0, 2, reg.as_ref()).unwrap();
            assert_bit_identical(&spilled, &unlimited, &format!("threads={threads}"));
            assert_eq!(reg.snapshot().counter(names::SHARD_SPILLS), Some(4));
        }
    }

    #[test]
    fn a_spilled_distinct_list_out_of_key_order_is_invalid_data() {
        // One cell whose distinct lane holds keys 3 and 9.
        let table = StateTable {
            keys: vec![7],
            cols: vec![StateCol::Distinct {
                func: AggFunc::Sum,
                pairs: vec![vec![(3, 1.5), (9, 2.5)]],
            }],
        };
        let dir = std::env::temp_dir().join(format!("bw_run_doctored_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.bwrun");
        write_run(&path, std::slice::from_ref(&table)).unwrap();
        let good = fs::read(&path).unwrap();
        // header (4 + 2) and its checksum (4), cell count (4), cell key
        // (8), list length (4), then the two 16-byte pairs, the frame's
        // checksum and the sealed terminator.
        let pairs_at = 26;
        assert_eq!(good.len(), pairs_at + 32 + 4 + 8);
        assert!(RunCursor::open(Run::Spilled { path: path.clone() }, false).is_ok());

        let mut swapped = good.clone();
        swapped[pairs_at..pairs_at + 16].copy_from_slice(&good[pairs_at + 16..pairs_at + 32]);
        swapped[pairs_at + 16..pairs_at + 32].copy_from_slice(&good[pairs_at..pairs_at + 16]);
        let mut repeated = good.clone();
        repeated[pairs_at + 16..pairs_at + 24].copy_from_slice(&good[pairs_at..pairs_at + 8]);
        for (what, bytes) in [("descending keys", swapped), ("a repeated key", repeated)] {
            fs::write(&path, bytes).unwrap();
            let err = RunCursor::open(Run::Spilled { path: path.clone() }, false)
                .err()
                .unwrap_or_else(|| panic!("{what} decoded"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains("strictly ascending"), "{what}: {err}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_spilled_bitset_past_its_domain_or_width_is_invalid_data() {
        // One cell whose bitset lane over 70 keys (two words) holds ids 0
        // and 69.
        let table = StateTable {
            keys: vec![7],
            cols: vec![StateCol::Bits {
                func: AggFunc::Sum,
                vals: (0..70).map(f64::from).collect(),
                bits: vec![1, 1 << 5],
            }],
        };
        let dir = std::env::temp_dir().join(format!("bw_run_bitset_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.bwrun");
        write_run(&path, std::slice::from_ref(&table)).unwrap();
        let good = fs::read(&path).unwrap();
        // n_cols (4), tags (2), words (4), n_keys (4), 70 values, the
        // header's checksum (4), cell count (4), cell key (8), two words.
        let (words_at, n_keys_at, bits_at) = (6, 10, 14 + 560 + 16);
        assert_eq!(good.len(), bits_at + 16 + 4 + 8);
        assert!(RunCursor::open(Run::Spilled { path: path.clone() }, false).is_ok());
        let with_u32 = |at: usize, v: u32| {
            let mut bytes = good.clone();
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
            bytes
        };
        let mut past = good.clone();
        past[bits_at + 15] |= 0x80; // id 127 of a 70-key domain
        let mut at_end = good.clone();
        at_end[bits_at + 8] |= 1 << 6; // id 70
        for (what, bytes, says) in [
            ("id 127", past, "past its domain"),
            ("id 70", at_end, "past its domain"),
            ("three words over 70 keys", with_u32(words_at, 3), "words"),
            ("one word over 70 keys", with_u32(words_at, 1), "words"),
            ("no keys", with_u32(n_keys_at, 0), "words"),
            ("257 keys", with_u32(n_keys_at, 257), "words"),
        ] {
            fs::write(&path, bytes).unwrap();
            let err = RunCursor::open(Run::Spilled { path: path.clone() }, false)
                .err()
                .unwrap_or_else(|| panic!("{what} decoded"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains(says), "{what}: {err}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// `rows` rows over [`space`]'s cells whose distinct-FK measures, one
    /// per function the form takes, join each of `domain` keys to one
    /// value: `-0.0`, NaN payloads, infinities and thirds among them. Every
    /// key occurs, extremes of `i64` included; one row in eight has a NULL
    /// key. Cut into `slices` inputs.
    fn functional_facts(
        rng: &mut Rng,
        domain: usize,
        rows: usize,
        slices: usize,
    ) -> Vec<CubeInput> {
        let keys: Vec<i64> = (0..domain as i64)
            .map(|i| match i {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => (i - domain as i64 / 2) * 7919,
            })
            .collect();
        let special = [
            -0.0,
            0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_beef),
            f64::INFINITY,
        ];
        let value: Vec<f64> = keys
            .iter()
            .map(|_| match rng.below(4) {
                0 => *rng.choice(&special),
                _ => rng.i64_in(-300, 300) as f64 / 3.0,
            })
            .collect();
        let fks: Vec<Option<usize>> = (0..rows)
            .map(|r| match r {
                r if r < domain => Some(r),
                _ => (!rng.flip(0.125)).then(|| rng.below(domain)),
            })
            .collect();
        let weeks: Vec<u32> = (0..6).collect();
        let mut input = gen_distinct_input(rng.next_u64(), rows, &items(), &weeks, 0..1, true);
        for m in &mut input.measures {
            if let Measure::DistinctKeyed {
                keys: ks, values, ..
            } = m
            {
                *ks = fks.iter().map(|k| k.map(|k| keys[k])).collect();
                *values = fks.iter().map(|k| k.map_or(0.5, |k| value[k])).collect();
            }
        }
        (0..slices)
            .map(|s| slice_rows(&input, s * rows / slices..(s + 1) * rows / slices))
            .collect()
    }

    #[test]
    fn bitset_lanes_match_the_pair_lists_bit_for_bit() {
        let sp = space();
        bellwether_prop::check("bitset lanes = pair lists", 2, |rng| {
            for domain in [1usize, 63, 64, 65, 200, 256, 257] {
                let rows = domain.max(*rng.choice(&[700, ROW_CHUNK + 1, 9000]));
                let slices = rng.usize_in(1, 4);
                let inputs = functional_facts(rng, domain, rows, slices);
                let bitsets = (0..5)
                    .filter(|&m| intern_keys(&inputs, m).is_some())
                    .count();
                assert_eq!(
                    bitsets,
                    if domain <= BITSET_KEYS_MAX { 5 } else { 0 },
                    "{domain} keys"
                );
                let pairs = crate::cube_pass::tests::with_pair_lists(|| {
                    cube_pass_runs(&sp, &inputs, par(1), UNLIMITED_BUDGET, 2, &NoopRecorder)
                        .unwrap()
                });
                for threads in [1usize, 2, 4] {
                    for budget in [0, UNLIMITED_BUDGET] {
                        let got =
                            cube_pass_runs(&sp, &inputs, par(threads), budget, 2, &NoopRecorder)
                                .unwrap();
                        let what = format!(
                            "{domain} keys, {rows} rows, threads={threads}, budget={budget}"
                        );
                        assert_bit_identical(&got, &pairs, &what);
                    }
                }
            }
        });
    }

    /// Every merged cell as `(key, state)`, the state spelled out per
    /// column.
    fn cells_of(segments: &[StateTable]) -> Vec<(u64, String)> {
        let mut cells = Vec::new();
        for t in segments {
            for (i, &key) in t.keys.iter().enumerate() {
                let state: Vec<String> = t
                    .cols
                    .iter()
                    .map(|col| {
                        let mut probe = col.new_like(1);
                        probe.merge_from(col, i..i + 1, &[0], &[false]);
                        format!("{probe:?}")
                    })
                    .collect();
                cells.push((key, state.join(" ")));
            }
        }
        cells
    }

    fn is_structured(err: &io::Error) -> bool {
        matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof)
    }

    #[test]
    fn every_truncation_and_every_flipped_bit_of_a_spill_run_is_an_error() {
        // Two frames of 8 cells of every state kind: every field there
        // is, small enough to damage at every bit; once with a bitset
        // lane and its header domain.
        for bitsets in [false, true] {
            damage(merged_run(16, 5, 2, bitsets));
        }
    }

    fn damage(spilled: Vec<StateTable>) {
        assert!(spilled.len() == 2 && spilled.iter().all(|t| t.len() > 0));
        let dir = std::env::temp_dir().join(format!("bw_run_damage_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.bwrun");
        let read_back = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            MergeRuns::open(vec![Run::Spilled { path: path.clone() }], false)?
                .collect::<io::Result<Vec<_>>>()
        };
        write_run(&path, &spilled).unwrap();
        let good = fs::read(&path).unwrap();
        assert_eq!(cells_of(&read_back(&good).unwrap()), cells_of(&spilled));

        let corrupt = std::cell::Cell::new(0u32);
        bellwether_prop::sweep(&good, |bytes, _| {
            let err = read_back(bytes).expect_err("damaged bytes read back");
            assert!(is_structured(&err), "{err}");
            corrupt.set(corrupt.get() + is_corrupt(&err) as u32);
        });
        // A flip in a lane or a trailer leaves the run well formed: only
        // the checksum catches it.
        assert!(corrupt.get() > 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lengths_a_spill_run_cannot_hold_fail_before_allocating() {
        let table = StateTable {
            keys: vec![7, 9],
            cols: vec![StateCol::Distinct {
                func: AggFunc::Sum,
                pairs: vec![vec![(3, 1.5)], vec![]],
            }],
        };
        let dir = std::env::temp_dir().join(format!("bw_run_lengths_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.bwrun");
        write_run(&path, std::slice::from_ref(&table)).unwrap();
        let good = fs::read(&path).unwrap();
        // header (4 + 2) and its checksum (4), cell count (4), two keys
        // (16), first list's length (4).
        let (n_cols_at, count_at, keys_at, len_at) = (0, 10, 14, 30);
        let with_u32 = |at: usize, v: u32| {
            let mut bytes = good.clone();
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
            bytes
        };
        let mut swapped = good.clone();
        swapped[keys_at..keys_at + 8].copy_from_slice(&good[keys_at + 8..keys_at + 16]);
        swapped[keys_at + 8..keys_at + 16].copy_from_slice(&good[keys_at..keys_at + 8]);
        // A second frame starting below where the first ended.
        let mut two_frames = good[..good.len() - 8].to_vec();
        two_frames.extend_from_slice(&good[count_at..]);
        for (what, bytes, kind) in [
            ("4 billion columns", with_u32(n_cols_at, u32::MAX), io::ErrorKind::UnexpectedEof),
            ("a frame of 4 billion cells", with_u32(count_at, u32::MAX), io::ErrorKind::InvalidData),
            ("a frame one cell too long", with_u32(count_at, FRAME_CELLS as u32 + 1), io::ErrorKind::InvalidData),
            ("a list of 4 billion pairs", with_u32(len_at, u32::MAX), io::ErrorKind::UnexpectedEof),
            ("a list longer than the file", with_u32(len_at, 3), io::ErrorKind::UnexpectedEof),
            ("descending cell keys", swapped, io::ErrorKind::InvalidData),
            ("a frame that starts over", two_frames, io::ErrorKind::InvalidData),
        ] {
            fs::write(&path, bytes).unwrap();
            let mut cursor = RunCursor::open(Run::Spilled { path: path.clone() }, false);
            // The first frame decodes on open; the second when the merge
            // flushes the first one's cells.
            if let Ok(c) = &mut cursor {
                if let Err(e) = step(c, 2) {
                    cursor = Err(e);
                }
            }
            let err = cursor.err().unwrap_or_else(|| panic!("{what} decoded"));
            assert_eq!(err.kind(), kind, "{what}: {err}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A space of one interval dimension, `max_t` 4.
    fn t4() -> RegionSpace {
        RegionSpace::new(vec![Dimension::Interval {
            name: "T".into(),
            max_t: 4,
        }])
    }

    /// Every class of malformed input over [`t4`], as the inputs that
    /// carry it (the last one carries the defect), whether that last
    /// input is malformed on its own, and whether the defect needs the
    /// region space to show. Every item is 1.
    fn malformed_inputs() -> Vec<(&'static str, Vec<CubeInput>, bool, bool)> {
        let row = |name: &str, coord: u32| CubeInput {
            item_ids: vec![1],
            coords: vec![coord],
            measures: vec![Measure::Numeric {
                name: name.into(),
                func: AggFunc::Sum,
                values: [Some(1.0)].into_iter().collect(),
            }],
        };
        let with_measure = |measure: Measure| CubeInput {
            measures: vec![measure],
            ..row("s", 0)
        };
        let numeric = |func, values| Measure::Numeric {
            name: "s".into(),
            func,
            values,
        };
        // One row of value 1.0 (of key 3) under `validity`.
        let valued = |validity| ColumnData { values: vec![1.0], validity };
        let keyed = |validity| {
            with_measure(Measure::DistinctKeyed {
                name: "s".into(),
                func: AggFunc::Sum,
                keys: ColumnData { values: vec![3], validity },
                values: vec![1.0],
            })
        };
        let mut coords_short = row("s", 0);
        coords_short.coords.clear();
        vec![
            ("a coordinate past max_t", vec![row("s", 0), row("s", 9)], true, true),
            ("a coordinate row one entry short", vec![coords_short], true, false),
            (
                "a measure column one entry short",
                vec![with_measure(numeric(AggFunc::Sum, ColumnData::default()))],
                true,
                false,
            ),
            ("another measure schema", vec![row("s", 0), row("t", 0)], false, false),
            (
                "COUNT DISTINCT over fact rows",
                vec![with_measure(numeric(AggFunc::CountDistinct, valued(None)))],
                true,
                false,
            ),
            (
                "COUNT over distinct keys",
                vec![with_measure(Measure::DistinctKeyed {
                    name: "s".into(),
                    func: AggFunc::Count,
                    keys: [Some(3)].into_iter().collect(),
                    values: vec![1.0],
                })],
                true,
                false,
            ),
            // A validity bitmap whose length is not its lane's lets a
            // kernel read past it: on a base, then on an appended input.
            (
                "a value validity bitmap one bit short",
                vec![with_measure(numeric(AggFunc::Sum, valued(Some(Bitmap::zeros(0)))))],
                true,
                false,
            ),
            (
                "an appended value validity bitmap one bit long",
                vec![
                    row("s", 0),
                    with_measure(numeric(AggFunc::Sum, valued(Some(Bitmap::ones(2))))),
                ],
                true,
                false,
            ),
            (
                "an appended key validity bitmap one bit short",
                vec![keyed(None), keyed(Some(Bitmap::zeros(0)))],
                true,
                false,
            ),
        ]
    }

    /// Whether `got` is [`CubeError::InvalidInput`].
    fn invalid<T>(got: Result<T, CubeError>) -> bool {
        matches!(got, Err(CubeError::InvalidInput(_)))
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        let t4 = t4();
        for (what, inputs, alone, spatial) in malformed_inputs() {
            for budget in [0, UNLIMITED_BUDGET] {
                let got = cube_pass_external(&t4, &inputs, par(1), budget, &NoopRecorder);
                assert!(invalid(got), "external, budget {budget}: {what}");
            }
            // The stream takes the first input as its base and appends
            // the rest: the defect shows on the input that carries it.
            let (base, deltas) = inputs.split_first().unwrap();
            let stream = StreamingCube::new(&t4, base, &[1], par(1)).and_then(|mut stream| {
                deltas.iter().try_for_each(|delta| stream.append(delta).map(drop))
            });
            assert!(invalid(stream), "stream: {what}");
            // The single-input entries meet every defect one input
            // carries; `aggregate_filtered` takes no space, so a
            // coordinate is never out of range for it.
            let bad = inputs.last().unwrap();
            if alone {
                assert!(invalid(cube_pass(&t4, bad, par(1), &NoopRecorder)), "resident: {what}");
            }
            if alone && !spatial {
                assert!(invalid(aggregate_filtered(bad, 1, |_| true)), "filtered: {what}");
            }
        }
    }

    /// `tables` as one table, spelled out: what a run's cells are,
    /// however they are cut.
    fn spelled(tables: &[StateTable]) -> String {
        let Some(first) = tables.iter().find(|t| t.len() > 0) else {
            return String::new();
        };
        let mut all = StateTable {
            keys: Vec::new(),
            cols: first.cols.iter().map(|c| c.new_like(0)).collect(),
        };
        for t in tables {
            let start = all.len() as u32;
            let dsts: Vec<u32> = (start..start + t.len() as u32).collect();
            all.keys.extend_from_slice(&t.keys);
            for (dst, src) in all.cols.iter_mut().zip(&t.cols) {
                dst.resize_default(all.keys.len());
                dst.merge_from(src, 0..t.len(), &dsts, &vec![false; t.len()]);
            }
        }
        format!("{all:?}")
    }

    /// Fact rows over [`space`]'s cells with every state kind, and the
    /// order they arrive in.
    fn phase1_facts(rng: &mut Rng) -> (CubeInput, String) {
        // 600 items make 10,800 cells, one row each at most; 4 items
        // make 72, each met by many rows, whose distinct lists outgrow
        // the sorted regime inside one chunk.
        let unique = rng.flip(0.5);
        let rows = if unique {
            *rng.choice(&[1usize, 700, ROW_CHUNK, ROW_CHUNK + 1, 9000])
        } else {
            *rng.choice(&[700, ROW_CHUNK + 1, 9000])
        };
        let items: Vec<i64> = if unique {
            (0..600).map(|i| 3 * i - 7).collect()
        } else {
            vec![-5, 2, 9, 40]
        };
        let mut cells: Vec<(u32, u32, i64)> = Vec::new();
        for week in 0..6 {
            for leaf in [2, 3, 5] {
                cells.extend(items.iter().map(|&item| (week, leaf, item)));
            }
        }
        let mut drawn: Vec<(u32, u32, i64)> = if unique {
            rng.shuffle(&mut cells);
            cells.truncate(rows);
            cells
        } else {
            (0..rows).map(|_| *rng.choice(&cells)).collect()
        };
        // Keys order as (week, leaf, item): time is the major stride.
        let order = *rng.choice(&["ascending", "descending", "shuffled", "ascending per chunk"]);
        match order {
            "ascending" => drawn.sort(),
            "descending" => drawn.sort_by(|a, b| b.cmp(a)),
            "ascending per chunk" => drawn.chunks_mut(ROW_CHUNK).for_each(|c| c.sort()),
            _ => {}
        }
        let n = drawn.len();
        // Thirds: no sum of them is exact, so a changed order shows.
        let mut float = |p_null: f64| -> Vec<Option<f64>> {
            (0..n)
                .map(|_| (!rng.flip(p_null)).then(|| rng.i64_in(-300, 300) as f64 / 3.0))
                .collect()
        };
        let (sums, extrema, avgs, values) = (float(0.1), float(0.2), float(0.0), float(0.0));
        let fks = (0..n)
            .map(|_| (!rng.flip(0.2)).then(|| rng.i64_in(0, 80)))
            .collect();
        let input = CubeInput {
            item_ids: drawn.iter().map(|c| c.2).collect(),
            coords: drawn.iter().flat_map(|c| [c.0, c.1]).collect(),
            measures: measures_of_every_kind(
                sums,
                extrema,
                avgs,
                fks,
                values.into_iter().flatten().collect(),
            ),
        };
        let what = format!(
            "{n} {} rows, {order}",
            if unique { "unique" } else { "repeated" }
        );
        (input, what)
    }

    /// One run of chunks through phase 1: its cells and merges.
    fn phase1_run<K>(
        input: &CubeInput,
        run: std::ops::Range<usize>,
        threads: usize,
        key_of: &K,
    ) -> (String, u64)
    where
        K: Fn(usize, &[u32]) -> Option<u64> + Sync,
    {
        let tables = fold_chunks(input, &[], 2, run, threads, key_of);
        let mut merge = MergeRuns::of_chunks(tables).unwrap();
        let segments: Vec<StateTable> = (&mut merge).map(Result::unwrap).collect();
        (spelled(&segments), merge.merges)
    }

    /// [`phase1_run`]'s oracle: the map fold, and the copying merge.
    fn phase1_run_oracle<K>(
        input: &CubeInput,
        run: std::ops::Range<usize>,
        key_space: u64,
        key_of: &K,
    ) -> (String, u64)
    where
        K: Fn(usize, &[u32]) -> Option<u64>,
    {
        let n = input.item_ids.len();
        let tables: Vec<StateTable> = run
            .map(|c| fold_chunk_by_map(input, &[], 2, chunk_range(c, n), key_of))
            .collect();
        let (shards, merges) = merge_chunks(&tables, key_space, 1);
        (spelled(&shards), merges)
    }

    #[test]
    fn phase1_matches_its_oracle_whatever_order_the_rows_come_in() {
        let sp = space();
        let widest = std::cell::Cell::new(0);
        bellwether_prop::check("phase 1 = map fold + copying merges", 10, |rng| {
            let (input, what) = phase1_facts(rng);
            let ks = KeySpace::build(&sp, &input.item_ids).unwrap();
            let key_space = ks.cell_space * ks.n_items;
            let key_of = ks.key_fn(&input);
            let first = fold_chunk_by_map(
                &input,
                &[],
                2,
                chunk_range(0, input.item_ids.len()),
                &key_of,
            );
            if let Some(StateCol::Distinct { pairs, .. }) = first.cols.last() {
                widest.set(pairs.iter().map(Vec::len).fold(widest.get(), usize::max));
            }
            // The delta pass's dirty-cell filter: rows outside a set of
            // cells get no slot.
            let some_cells = |row: usize, coords: &[u32]| {
                key_of(row, coords).filter(|k| k / ks.n_items % 3 != 1)
            };
            let chunks = input.item_ids.len().div_ceil(ROW_CHUNK);
            for run_chunks in [1usize, 3, 64, usize::MAX] {
                let mut c = 0;
                while c < chunks {
                    let run = c..c.saturating_add(run_chunks).min(chunks);
                    let all = phase1_run_oracle(&input, run.clone(), key_space, &key_of);
                    let filtered = phase1_run_oracle(&input, run.clone(), key_space, &some_cells);
                    for threads in [1usize, 2, 4] {
                        let at = format!("{what}, run {run:?}, threads={threads}");
                        assert_eq!(
                            phase1_run(&input, run.clone(), threads, &key_of),
                            all,
                            "{at}"
                        );
                        let got = phase1_run(&input, run.clone(), threads, &some_cells);
                        assert_eq!(got, filtered, "{at}, filtered");
                    }
                    c = run.end;
                }

                let inputs = std::slice::from_ref(&input);
                let counts = |reg: &Registry| {
                    let snap = reg.snapshot();
                    (snap.base_cells(), snap.cell_merges())
                };
                let reg = Registry::shared();
                let oracle = with_phase1_oracle(|| {
                    cube_pass_runs(
                        &sp,
                        inputs,
                        par(1),
                        UNLIMITED_BUDGET,
                        run_chunks,
                        reg.as_ref(),
                    )
                    .unwrap()
                });
                let want = counts(&reg);
                for threads in [1usize, 2, 4] {
                    for budget in [0, UNLIMITED_BUDGET] {
                        let at = format!(
                            "{what}, run_chunks={run_chunks}, threads={threads}, budget={budget}"
                        );
                        let reg = Registry::shared();
                        let got = cube_pass_runs(
                            &sp,
                            inputs,
                            par(threads),
                            budget,
                            run_chunks,
                            reg.as_ref(),
                        )
                        .unwrap();
                        assert_bit_identical(&got, &oracle, &at);
                        assert_eq!(counts(&reg), want, "{at}");
                    }
                }
            }
        });
        assert!(widest.get() > SMALL_PAIRS_MAX, "no chunk's distinct list left the sorted regime");
    }

    #[test]
    fn merge_runs_over_interleaved_chunk_tables_matches_the_copying_merge() {
        // Phase 1b's one merge against the dense and hashed key-range
        // merges it replaced. Rows come in drawn order, so every chunk
        // table spans the key space and the tables interleave; few items
        // share nearly every cell across chunks, many leave some cells to
        // one chunk. NULL stretches span chunks and straddle their edges.
        let sp = space();
        bellwether_prop::check("phase 1b = the copying merge", 12, |rng| {
            let n_items = *rng.choice(&[3i64, 40, 600]);
            let items: Vec<i64> = (0..n_items).map(|i| 5 * i - 11).collect();
            let rows = rng.usize_in(ROW_CHUNK + 1, 5 * ROW_CHUNK);
            let mut input = gen_functional_input(rng.next_u64(), rows, &items);
            for (_, validity) in validities(&mut input) {
                let mut valid = validity.take().unwrap_or_else(|| Bitmap::ones(rows));
                for _ in 0..rng.below(4) {
                    let start = rng.below(rows);
                    let len = *rng.choice(&[1, 70, ROW_CHUNK, 2 * ROW_CHUNK]);
                    (start..(start + len).min(rows)).for_each(|r| valid.set(r, false));
                }
                *validity = Some(valid);
            }
            let one = std::slice::from_ref(&input);
            let interned: Vec<_> = (0..input.measures.len()).map(|m| intern_keys(one, m)).collect();
            assert!(interned[5].is_some() && interned[6].is_none(), "a bitset and a pair-list lane");
            let lanes: Vec<Option<IdLane>> = interned
                .iter()
                .map(|i| i.as_ref().map(|(vals, ids)| IdLane { vals, ids: &ids[0] }))
                .collect();
            let ks = KeySpace::build(&sp, &input.item_ids).unwrap();
            let key_space = ks.cell_space * ks.n_items;
            let key_of = ks.key_fn(&input);
            for threads in 1..=4 {
                let tables = fold_chunks(&input, &lanes, 2, 0..rows.div_ceil(ROW_CHUNK), threads, &key_of);
                let overlap = tables.windows(2).any(|w| w[1].keys[0] <= w[0].keys[w[0].len() - 1]);
                assert!(overlap, "{rows} rows over {n_items} items: the chunk tables chain");
                // Past 2^20 keys the oracle takes its hashed path.
                let oracles = [key_space, 1 << 21].map(|space| merge_chunks(&tables, space, threads));
                let mut merge = MergeRuns::of_chunks(tables).unwrap();
                let got: Vec<StateTable> = (&mut merge).map(Result::unwrap).collect();
                for (want, merges) in &oracles {
                    let at = format!("{rows} rows over {n_items} items, threads={threads}");
                    assert_eq!(spelled(&got), spelled(want), "{at}");
                    assert_eq!(merge.merges, *merges, "{at}: cell merges");
                }
            }
        });
    }

    #[test]
    fn key_ascending_week_slices_copy_no_cell_in_phase_1() {
        // A stream's week slices: every (week, leaf, item) once, in key
        // order, two weeks a slice of 3,000 rows.
        let sp = space();
        let mut cells: Vec<(u32, u32, i64)> = Vec::new();
        for week in 0..6 {
            for leaf in [2, 3, 5] {
                cells.extend((0..500).map(|item| (week, leaf, item)));
            }
        }
        let n = cells.len();
        let input = CubeInput {
            item_ids: cells.iter().map(|c| c.2).collect(),
            coords: cells.iter().flat_map(|c| [c.0, c.1]).collect(),
            measures: measures_of_every_kind(
                (0..n).map(|r| Some(r as f64 / 3.0)).collect(),
                (0..n)
                    .map(|r| (r % 5 != 0).then(|| (r % 97) as f64 / 7.0))
                    .collect(),
                (0..n).map(|r| Some((r % 13) as f64 / 3.0)).collect(),
                (0..n)
                    .map(|r| (r % 4 != 0).then_some((r % 40) as i64))
                    .collect(),
                (0..n).map(|r| r as f64 / 9.0).collect(),
            ),
        };
        let slices: Vec<CubeInput> = (0..3)
            .map(|s| slice_rows(&input, s * n / 3..(s + 1) * n / 3))
            .collect();
        for run_chunks in [1usize, 2, RUN_CHUNKS] {
            let before = cells_copied();
            let oracle = with_phase1_oracle(|| {
                cube_pass_runs(
                    &sp,
                    &slices,
                    par(1),
                    UNLIMITED_BUDGET,
                    run_chunks,
                    &NoopRecorder,
                )
                .unwrap()
            });
            assert!(
                cells_copied() > before,
                "run_chunks={run_chunks}: the oracle copies"
            );
            for (threads, budget) in [(1, 0), (2, UNLIMITED_BUDGET), (4, 0), (1, UNLIMITED_BUDGET)]
            {
                let at = format!("run_chunks={run_chunks}, threads={threads}, budget={budget}");
                let before = cells_copied();
                let got = cube_pass_runs(
                    &sp,
                    &slices,
                    par(threads),
                    budget,
                    run_chunks,
                    &NoopRecorder,
                )
                .unwrap();
                assert_eq!(cells_copied(), before, "{at}: cells copied");
                assert_bit_identical(&got, &oracle, &at);
            }
        }
    }
}
