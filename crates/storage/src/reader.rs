//! On-disk training source: index-loaded random and sequential reads.
//!
//! Every `read_region` performs a positioned read from the file — no
//! caching layer — so the efficiency experiments of Figure 11(a), where
//! "each time [an algorithm] needs the training data from a region, it
//! always reads the data from disk", are honest: the naive algorithms'
//! `l·m` region requests translate into `l·m` actual file reads.

use crate::block::RegionBlock;
use crate::format::{
    decode_block_v2, decode_footer, decode_header, decode_index, empty_block_len,
    examples_in_encoded_len, Header, IndexEntry, MisplacedBlock, FOOTER_LEN, HEADER_LEN,
};
use crate::metrics::IoStats;
use crate::source::TrainingSource;
use bellwether_obs::{span, MetricsSnapshot, Registry};
use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Reader over a file produced by [`crate::writer::TrainingWriter`].
pub struct DiskSource {
    file: File,
    header: Header,
    index: Vec<IndexEntry>,
    /// Built by the first [`TrainingSource::find_region`]: most opens
    /// (every overlay, a standalone appender's shards) never look a
    /// region up by its coordinates.
    by_coords: OnceLock<HashMap<Vec<u32>, usize>>,
    stats: IoStats,
    registry: Option<Arc<Registry>>,
}

impl DiskSource {
    /// Open and validate `path`, loading the region index. The index
    /// and footer carry no checksum of their own, so everything a read
    /// will later trust is checked here, once: the index lies between
    /// the header and the footer and holds the regions the footer
    /// counts ([`decode_index`]), and every entry is a span of the block
    /// area long enough to hold a block. A file that fails any of it is
    /// `InvalidData` — no read ever sizes a buffer from a length that
    /// was not checked against the file's.
    pub fn open(path: &Path) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg);
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < (HEADER_LEN + FOOTER_LEN) as u64 {
            return Err(bad("file too small"));
        }

        let mut header_buf = vec![0u8; HEADER_LEN];
        file.read_exact_at(&mut header_buf, 0)?;
        let header = decode_header(&header_buf)?;

        let footer_at = file_len - FOOTER_LEN as u64;
        let mut footer_buf = vec![0u8; FOOTER_LEN];
        file.read_exact_at(&mut footer_buf, footer_at)?;
        let (index_offset, count) = decode_footer(&footer_buf)?;

        let index_len = footer_at
            .checked_sub(index_offset)
            .filter(|_| index_offset >= HEADER_LEN as u64)
            .and_then(|len| usize::try_from(len).ok())
            .ok_or_else(|| bad("index offset outside the file"))?;
        let mut index_buf = vec![0u8; index_len];
        file.read_exact_at(&mut index_buf, index_offset)?;
        let index = decode_index(&index_buf, count, header.arity)?;
        let shortest = empty_block_len(header.arity as usize) as u64;
        for e in &index {
            let is_block = e.offset >= HEADER_LEN as u64
                && e.len >= shortest
                && e.offset.checked_add(e.len).is_some_and(|end| end <= index_offset);
            if !is_block {
                return Err(bad("index entry is not a block inside the file"));
            }
        }

        Ok(DiskSource {
            file,
            header,
            index,
            by_coords: OnceLock::new(),
            stats: IoStats::default(),
            registry: None,
        })
    }

    /// Like [`DiskSource::open`], but IO counters are bound to the
    /// canonical `storage/*` entries of `reg` and each region read is
    /// timed under the `storage/read_region` span. Disk reads are
    /// IO-dominated, so the per-read span is an acceptable cost here
    /// (the in-memory source records counters only).
    pub fn open_with_registry(path: &Path, reg: &Arc<Registry>) -> io::Result<Self> {
        let mut src = DiskSource::open(path)?;
        src.stats = IoStats::in_registry(reg);
        src.registry = Some(Arc::clone(reg));
        Ok(src)
    }

    /// Size of the stored data region in bytes (excluding index/footer).
    pub fn data_bytes(&self) -> u64 {
        self.index.iter().map(|e| e.len).sum()
    }

    /// Examples in region `idx` going by its index entry alone: the
    /// block's encoded length fixes its row count, so no block bytes
    /// are read. `None` when the length is not that of a whole number
    /// of examples.
    pub(crate) fn region_examples(&self, idx: usize) -> Option<u64> {
        let (arity, p) = (self.header.arity as usize, self.header.p as usize);
        examples_in_encoded_len(arity, p, self.index[idx].len)
    }
}

impl TrainingSource for DiskSource {
    fn num_regions(&self) -> usize {
        self.index.len()
    }

    fn feature_arity(&self) -> usize {
        self.header.p as usize
    }

    fn region_coords(&self, idx: usize) -> &[u32] {
        &self.index[idx].coords
    }

    fn read_region(&self, idx: usize) -> io::Result<Arc<RegionBlock>> {
        let _timer = self
            .registry
            .as_ref()
            .map(|reg| span!(reg.as_ref(), "storage/read_region"));
        let entry = &self.index[idx];
        let mut buf = vec![0u8; entry.len as usize];
        self.file.read_exact_at(&mut buf, entry.offset)?;
        let block = decode_block_v2(&buf)
            .and_then(|block| {
                // The index carries no checksum: an entry redirected onto
                // another block of exactly its length verifies and
                // decodes, so the block must say it is the region asked
                // for.
                if block.region != entry.coords {
                    let misplaced = MisplacedBlock {
                        entry: entry.coords.clone(),
                        block: block.region,
                    };
                    return Err(io::Error::new(io::ErrorKind::InvalidData, misplaced));
                }
                Ok(block)
            })
            .inspect_err(|_| {
                // Bytes were read but did not validate (checksum
                // mismatch, structural garbage or another region's
                // block): account for it so operators can see rot even
                // when callers retry or skip.
                self.stats.record_corrupt_block();
            })?;
        self.stats
            .record_region_read(entry.len, block.n() as u64);
        Ok(Arc::new(block))
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.stats.snapshot()
    }

    fn record_corrupt_block(&self) {
        self.stats.record_corrupt_block();
    }

    fn find_region(&self, coords: &[u32]) -> Option<usize> {
        let by_coords = self.by_coords.get_or_init(|| {
            self.index
                .iter()
                .enumerate()
                .map(|(i, e)| (e.coords.clone(), i))
                .collect()
        });
        by_coords.get(coords).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TrainingWriter;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bw_reader_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_blocks() -> Vec<RegionBlock> {
        (0..5u32)
            .map(|r| {
                let mut b = RegionBlock::new(vec![r, r + 10], 3);
                for i in 0..(r as i64 + 1) {
                    b.push(i, &[r as f64, i as f64, 0.5], (r as i64 + i) as f64);
                }
                b
            })
            .collect()
    }

    #[test]
    fn write_then_read_round_trip() {
        let path = tmpfile("rt.bwtd");
        let blocks = sample_blocks();
        let mut w = TrainingWriter::create(&path, 3, 2).unwrap();
        for b in &blocks {
            w.write_region(b).unwrap();
        }
        w.finish().unwrap();

        let src = DiskSource::open(&path).unwrap();
        assert_eq!(src.num_regions(), 5);
        assert_eq!(src.feature_arity(), 3);
        for (i, expect) in blocks.iter().enumerate() {
            assert_eq!(src.region_coords(i), expect.region.as_slice());
            let got = src.read_region(i).unwrap();
            assert_eq!(got.as_ref(), expect);
        }
        assert_eq!(src.snapshot().regions_read(), 5);
        assert_eq!(src.total_examples().unwrap(), 1 + 2 + 3 + 4 + 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn registry_bound_disk_source_counts_and_times_reads() {
        let path = tmpfile("reg.bwtd");
        let blocks = sample_blocks();
        let mut w = TrainingWriter::create(&path, 3, 2).unwrap();
        for b in &blocks {
            w.write_region(b).unwrap();
        }
        w.finish().unwrap();

        let reg = Registry::shared();
        let src = DiskSource::open_with_registry(&path, &reg).unwrap();
        for i in 0..src.num_regions() {
            src.read_region(i).unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.regions_read(), 5);
        assert_eq!(snap.examples_read(), 15);
        let span = snap.span("storage/read_region").expect("read span recorded");
        assert_eq!(span.calls, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn random_access_out_of_order() {
        let path = tmpfile("rand.bwtd");
        let blocks = sample_blocks();
        let mut w = TrainingWriter::create(&path, 3, 2).unwrap();
        for b in &blocks {
            w.write_region(b).unwrap();
        }
        w.finish().unwrap();
        let src = DiskSource::open(&path).unwrap();
        assert_eq!(*src.read_region(3).unwrap(), blocks[3]);
        assert_eq!(*src.read_region(0).unwrap(), blocks[0]);
        assert_eq!(src.find_region(&[2, 12]), Some(2));
        assert_eq!(src.find_region(&[9, 9]), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_rejected() {
        let path = tmpfile("corrupt.bwtd");
        std::fs::write(&path, b"this is not a training file at all....").unwrap();
        assert!(DiskSource::open(&path).is_err());
        std::fs::write(&path, b"x").unwrap();
        assert!(DiskSource::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// The footer and index carry no checksum, so `open` is the only
    /// thing between a rotted length and a read that trusts it: flip
    /// every bit and cut at every offset of both (a flipped bit 46 of an
    /// entry's `len` used to abort the process inside `vec!`). What
    /// opens serves every region as the original block or an error, and
    /// never names a span past the end of the file.
    #[test]
    fn damaged_index_or_footer_never_panics_or_overreads() {
        let path = tmpfile("index_rot.bwtd");
        let blocks = sample_blocks();
        let mut w = TrainingWriter::create(&path, 3, 2).unwrap();
        for b in &blocks {
            w.write_region(b).unwrap();
        }
        w.finish().unwrap();
        let clean = std::fs::read(&path).unwrap();
        let index_at = clean.len() - FOOTER_LEN - blocks.len() * (16 + 4 * 2);

        let damaged = tmpfile("index_rot_damaged.bwtd");
        let (mut opened, mut refused) = (0, 0);
        let mut probe = |bytes: &[u8]| {
            std::fs::write(&damaged, bytes).unwrap();
            let Ok(src) = DiskSource::open(&damaged) else {
                refused += 1;
                return;
            };
            opened += 1;
            for (i, e) in src.index.iter().enumerate() {
                assert!(e.offset + e.len <= bytes.len() as u64, "entry {i} overreads");
                if let Ok(got) = src.read_region(i) {
                    assert_eq!(*got, blocks[i], "region {i} read as another block");
                }
            }
        };
        let (blocks_area, index_and_footer) = clean.split_at(index_at);
        bellwether_prop::sweep(index_and_footer, |tail, _| probe(&[blocks_area, tail].concat()));
        // Both outcomes occur: a flipped coordinate still opens, a
        // flipped magic or length does not.
        assert!(opened > 0 && refused > 0, "{opened} opened, {refused} refused");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&damaged).ok();
    }

    /// Nothing at `open` can tell that two index entries of equal length
    /// have traded offsets, and each then names bytes that verify. The
    /// block's own coordinates give the redirect away: both reads are
    /// structured corruption, not the other region's rows.
    #[test]
    fn entry_redirected_onto_an_equal_length_block_is_corruption() {
        let path = tmpfile("redirect.bwtd");
        let blocks: Vec<RegionBlock> = (0..3u32)
            .map(|r| {
                let mut b = RegionBlock::new(vec![r, r + 10], 3);
                b.push(7, &[r as f64, 1.0, 0.5], r as f64);
                b
            })
            .collect();
        let mut w = TrainingWriter::create(&path, 3, 2).unwrap();
        for b in &blocks {
            w.write_region(b).unwrap();
        }
        w.finish().unwrap();

        // An entry is offset u64 | len u64 | coords: swap the offsets of
        // entries 0 and 2.
        let mut bytes = std::fs::read(&path).unwrap();
        let entry_len = 16 + 4 * 2;
        let first = bytes.len() - FOOTER_LEN - blocks.len() * entry_len;
        let last = first + 2 * entry_len;
        for k in 0..8 {
            bytes.swap(first + k, last + k);
        }
        std::fs::write(&path, &bytes).unwrap();

        let src = DiskSource::open(&path).unwrap();
        for i in [0, 2] {
            let err = src.read_region(i).expect_err("another region's rows served");
            assert!(crate::format::is_corrupt(&err), "region {i}: {err}");
        }
        assert_eq!(*src.read_region(1).unwrap(), blocks[1]);
        assert_eq!(src.snapshot().corrupt_blocks(), 2);
        assert_eq!(src.snapshot().regions_read(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// A version-1 file as the last v1 writer left it, pinned as bytes:
    /// header, three raw blocks — the middle one empty — index, footer.
    /// No reader accepts the format any more.
    const GOLDEN_V1_FILE: &str = concat!(
        "42575444", "01000000", "02000000", "01000000", // BWTD, v1, p = 2, arity 1
        "01000000", "04000000", "0200000000000000", "02000000", // region [4], n = 2, p = 2
        "0a00000000000000", "fdffffffffffffff", // ids 10, -3
        "000000000000f83f", "00000000000000c0", // row 0: 1.5, -2.0
        "000000000000d03f", "0000000000001040", // row 1: 0.25, 4.0
        "0000000000001c40", "000000000000f0bf", // targets 7, -1
        "01000000", "06000000", "0000000000000000", "02000000", // region [6], empty
        "01000000", "09000000", "0100000000000000", "02000000", // region [9], n = 1
        "0b00000000000000", "0000000000000000", "9c7500883ce4377e", // id 11: 0.0, 1e300
        "9a9999999999b93f", // target 0.1
        "1000000000000000", "5400000000000000", "04000000", // index: offset 16, len 84
        "6400000000000000", "1400000000000000", "06000000", // offset 100, len 20
        "7800000000000000", "3400000000000000", "09000000", // offset 120, len 52
        "ac00000000000000", "0300000000000000", "42575444", // index at 172, 3 regions, BWTD
    );

    #[test]
    fn refuses_v1_files_without_checksums() {
        let path = tmpfile("v1.bwtd");
        let golden: Vec<u8> = (0..GOLDEN_V1_FILE.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN_V1_FILE[i..i + 2], 16).unwrap())
            .collect();
        std::fs::write(&path, golden).unwrap();
        let err = DiskSource::open(&path).err().expect("a v1 file opened");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported version"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_byte_on_disk_surfaces_as_corrupt_block() {
        let path = tmpfile("rot.bwtd");
        let blocks = sample_blocks();
        let mut w = TrainingWriter::create(&path, 3, 2).unwrap();
        for b in &blocks {
            w.write_region(b).unwrap();
        }
        w.finish().unwrap();

        // Rot one byte in the middle of region 2's block.
        let src = DiskSource::open(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let entry = src.index[2].clone();
        bytes[(entry.offset + entry.len / 2) as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let src = DiskSource::open(&path).unwrap();
        let err = src.read_region(2).expect_err("corruption undetected");
        assert!(crate::format::is_corrupt(&err), "{err}");
        // Healthy regions still read fine; the corrupt counter ticked.
        assert_eq!(*src.read_region(0).unwrap(), blocks[0]);
        assert_eq!(src.snapshot().corrupt_blocks(), 1);
        assert_eq!(src.snapshot().regions_read(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_with_zero_regions() {
        let path = tmpfile("empty.bwtd");
        let w = TrainingWriter::create(&path, 4, 1).unwrap();
        w.finish().unwrap();
        let src = DiskSource::open(&path).unwrap();
        assert_eq!(src.num_regions(), 0);
        assert_eq!(src.data_bytes(), 0);
        std::fs::remove_file(&path).ok();
    }
}
