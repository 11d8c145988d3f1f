//! Streaming writer for the on-disk entire-training-data file.
//!
//! Durability: blocks stream into an [`AtomicFile`];
//! [`TrainingWriter::finish`] writes the index + footer and commits it,
//! so a crash at any earlier point leaves the target path untouched —
//! never a half-valid file.

use crate::atomic::AtomicFile;
use crate::block::RegionBlock;
use crate::format::{
    encode_block_v2, encode_header, encode_index, Header, IndexEntry, HEADER_LEN, VERSION,
};
use std::io::{self, Write};
use std::path::Path;

/// Writes region blocks sequentially and finishes with the index+footer.
pub struct TrainingWriter {
    out: AtomicFile,
    entries: Vec<IndexEntry>,
    offset: u64,
    p: u32,
    arity: u32,
    buf: Vec<u8>,
}

impl TrainingWriter {
    /// Create a writer targeting `path` for an entire-training-data file
    /// with feature arity `p` and `arity` region coordinates, in the
    /// current (checksummed v2) format. Nothing is visible at `path`
    /// until [`TrainingWriter::finish`]; dropping the writer without
    /// finishing leaves `path` untouched.
    pub fn create(path: &Path, p: u32, arity: u32) -> io::Result<Self> {
        Self::over(AtomicFile::create(path)?, p, arity)
    }

    /// [`TrainingWriter::create`] for a file that is published only if
    /// nothing is at `path` by then ([`AtomicFile::create_new`]).
    pub(crate) fn create_new(path: &Path, p: u32, arity: u32) -> io::Result<Self> {
        Self::over(AtomicFile::create_new(path)?, p, arity)
    }

    fn over(mut out: AtomicFile, p: u32, arity: u32) -> io::Result<Self> {
        let mut buf = Vec::with_capacity(HEADER_LEN);
        encode_header(&Header { version: VERSION, p, arity }, &mut buf);
        out.write_all(&buf)?;
        Ok(TrainingWriter {
            out,
            entries: Vec::new(),
            offset: HEADER_LEN as u64,
            p,
            arity,
            buf: Vec::new(),
        })
    }

    /// Append one region's training set. Blocks must be written in the
    /// region order scans should observe.
    pub fn write_region(&mut self, block: &RegionBlock) -> io::Result<()> {
        if block.p != self.p {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "feature arity mismatch",
            ));
        }
        if block.region.len() as u32 != self.arity {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "region arity mismatch",
            ));
        }
        self.buf.clear();
        encode_block_v2(block, &mut self.buf);
        self.out.write_all(&self.buf)?;
        self.entries.push(IndexEntry {
            offset: self.offset,
            len: self.buf.len() as u64,
            coords: block.region.clone(),
        });
        self.offset += self.buf.len() as u64;
        Ok(())
    }

    /// Number of regions written so far.
    pub fn regions_written(&self) -> usize {
        self.entries.len()
    }

    /// Write the index and footer and commit the file: only then can a
    /// reader observe it — and then always in full.
    pub fn finish(self) -> io::Result<()> {
        self.close()?.0.commit()
    }

    /// Write the index and footer, and hand back the file, not yet
    /// committed, with its length in bytes: whoever holds it decides
    /// when [`AtomicFile::commit`] runs.
    pub(crate) fn close(mut self) -> io::Result<(AtomicFile, u64)> {
        self.buf.clear();
        encode_index(&self.entries, self.arity, self.offset, &mut self.buf);
        self.out.write_all(&self.buf)?;
        Ok((self.out, self.offset + self.buf.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TrainingSource;

    #[test]
    fn rejects_mismatched_blocks() {
        let dir = std::env::temp_dir().join("bw_writer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.bwtd");
        let mut w = TrainingWriter::create(&path, 2, 2).unwrap();
        let wrong_p = RegionBlock::new(vec![0, 0], 3);
        assert!(w.write_region(&wrong_p).is_err());
        let wrong_arity = RegionBlock::new(vec![0], 2);
        assert!(w.write_region(&wrong_arity).is_err());
        let ok = RegionBlock::new(vec![0, 0], 2);
        assert!(w.write_region(&ok).is_ok());
        assert_eq!(w.regions_written(), 1);
        w.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_write_leaves_target_untouched() {
        let dir = std::env::temp_dir().join("bw_writer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.bwtd");
        std::fs::write(&path, b"previous complete file").unwrap();

        // Simulated crash: writer dropped mid-stream without finish().
        {
            let mut w = TrainingWriter::create(&path, 2, 1).unwrap();
            let mut b = RegionBlock::new(vec![0], 2);
            b.push(1, &[1.0, 2.0], 3.0);
            w.write_region(&b).unwrap();
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"previous complete file",
            "target must not be clobbered before finish()"
        );
        assert!(dir.join("atomic.bwtd.tmp").exists(), "data streamed to temp file");

        // A finished write replaces the target atomically and removes
        // the temp file.
        let mut w = TrainingWriter::create(&path, 2, 1).unwrap();
        let mut b = RegionBlock::new(vec![0], 2);
        b.push(1, &[1.0, 2.0], 3.0);
        w.write_region(&b).unwrap();
        w.finish().unwrap();
        assert!(!dir.join("atomic.bwtd.tmp").exists());
        let src = crate::reader::DiskSource::open(&path).unwrap();
        assert_eq!(src.num_regions(), 1);
        std::fs::remove_file(&path).ok();
    }
}
