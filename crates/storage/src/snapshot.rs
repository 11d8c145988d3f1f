//! Versioned, checksummed *snapshot container*: the byte-level carrier
//! for trained-model snapshots (and any future small artifact that must
//! survive disk rot).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────┐
//! │ header: magic "BWSN" | version u32 | section_count u32   │
//! │ section 0 … section N-1, each:                           │
//! │   kind u32 | len u64 | payload len bytes | crc32 u32     │
//! │ footer: magic "BWSN"                                     │
//! └──────────────────────────────────────────────────────────┘
//! ```
//!
//! Each section's CRC-32 covers `kind | len | payload`, so a flipped bit
//! anywhere in a section — including its framing — surfaces as a
//! structured [`CorruptBlock`](crate::format::CorruptBlock) error (the
//! same classifier the training-data format uses; see
//! [`crate::format::is_corrupt`]). The version in the header is the
//! contract that v1 snapshots stay readable forever: readers accept
//! every version they know and reject unknown future versions instead of
//! misparsing them.
//!
//! [`SnapshotWriter::finish`] publishes the assembled file through an
//! [`AtomicFile`], so a crash never leaves a half-valid snapshot at the
//! target path.
//!
//! Every decode path is *total*: truncated, oversized or garbage input
//! returns `io::Error`, never panics, whatever the byte length.

use crate::atomic::AtomicFile;
use crate::codec::{bad, seal, verify, Cursor, PutLe, CHECKSUM_LEN};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"BWSN";
/// First snapshot container version.
pub const SNAPSHOT_VERSION_V1: u32 = 1;
/// Current (default-written) snapshot container version.
pub const SNAPSHOT_VERSION: u32 = SNAPSHOT_VERSION_V1;
/// Header byte length: magic + version + section count.
pub const SNAPSHOT_HEADER_LEN: usize = 4 + 4 + 4;
/// Per-section framing overhead: kind u32 + len u64 + crc32 u32.
pub const SECTION_OVERHEAD: usize = 4 + 8 + CHECKSUM_LEN;

/// One decoded section: a caller-defined kind tag plus its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Caller-defined kind tag (e.g. "item table", "tree").
    pub kind: u32,
    /// Raw payload bytes, CRC-validated.
    pub payload: Vec<u8>,
}

/// Accumulates checksummed sections; [`finish`] writes them through a
/// temp file and makes the snapshot visible atomically.
///
/// The header carries the section count, so the whole file is assembled
/// before anything touches the target path — snapshots hold models, not
/// training data, and fit comfortably in memory.
///
/// [`finish`]: SnapshotWriter::finish
pub struct SnapshotWriter {
    body: Vec<u8>,
    final_path: PathBuf,
    sections: u32,
}

impl SnapshotWriter {
    /// Create a writer targeting `path` in the current container
    /// version. Nothing is written until [`SnapshotWriter::finish`];
    /// dropping the writer without finishing leaves `path` untouched.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(SnapshotWriter {
            body: Vec::new(),
            final_path: path.to_path_buf(),
            sections: 0,
        })
    }

    /// Append one section. Sections are read back in write order.
    pub fn write_section(&mut self, kind: u32, payload: &[u8]) -> io::Result<()> {
        let frame_start = self.body.len();
        self.body.put_u32_le(kind);
        self.body.put_u64_le(payload.len() as u64);
        self.body.put_slice(payload);
        seal(&mut self.body, frame_start);
        self.sections += 1;
        Ok(())
    }

    /// Number of sections written so far.
    pub fn sections_written(&self) -> u32 {
        self.sections
    }

    /// Write header + sections + footer and commit the file: only then
    /// can a reader observe the snapshot — and then always in full.
    pub fn finish(self) -> io::Result<()> {
        let mut out = AtomicFile::create(&self.final_path)?;
        out.write_all(SNAPSHOT_MAGIC)?;
        out.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        out.write_all(&self.sections.to_le_bytes())?;
        out.write_all(&self.body)?;
        out.write_all(SNAPSHOT_MAGIC)?;
        out.commit()
    }
}

/// A fully read and CRC-validated snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFile {
    /// Container version the file was written with.
    pub version: u32,
    /// Sections in write order.
    pub sections: Vec<Section>,
}

impl SnapshotFile {
    /// Read and validate a snapshot from `path`: header magic/version,
    /// every section CRC, and the footer magic. A checksum mismatch
    /// returns a [`CorruptBlock`](crate::format::CorruptBlock)-carrying
    /// error (see [`crate::format::is_corrupt`]); structural damage
    /// returns a plain `InvalidData` error. Never panics.
    pub fn read(path: &Path) -> io::Result<SnapshotFile> {
        Self::decode(&std::fs::read(path)?)
    }

    /// Decode a snapshot from bytes already in memory (the disk-free
    /// half of [`SnapshotFile::read`], used directly by tests).
    pub fn decode(bytes: &[u8]) -> io::Result<SnapshotFile> {
        let mut cur = Cursor::new(bytes);
        if cur.take_span(4)? != SNAPSHOT_MAGIC {
            return Err(bad("bad snapshot magic"));
        }
        let version = cur.get_u32_le()?;
        if version != SNAPSHOT_VERSION_V1 {
            return Err(bad("unsupported snapshot version"));
        }
        let count = cur.get_u32_le()?;
        let mut sections = Vec::new();
        for _ in 0..count {
            // Frame: kind u32 | len u64 | payload | crc32. The length is
            // read ahead of the checksum covering it, to find the trailer.
            let mut ahead = cur.clone();
            ahead.get_u32_le()?;
            let frame_len = usize::try_from(ahead.get_u64_le()?)
                .ok()
                .and_then(|len| len.checked_add(SECTION_OVERHEAD))
                .ok_or_else(|| bad("oversized section"))?;
            let mut frame = Cursor::new(verify(cur.take_span(frame_len)?)?);
            let kind = frame.get_u32_le()?;
            frame.get_u64_le()?;
            let payload = frame.take_span(frame.remaining())?.to_vec();
            sections.push(Section { kind, payload });
        }
        if cur.take_span(cur.remaining())? != SNAPSHOT_MAGIC {
            return Err(bad("bad snapshot footer"));
        }
        Ok(SnapshotFile { version, sections })
    }

    /// The first section of the given kind, if present.
    pub fn section(&self, kind: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|s| s.kind == kind)
            .map(|s| s.payload.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32::crc32;
    use crate::format::is_corrupt;
    use bellwether_prop::{sweep, Damage};
    use std::fs;

    fn tmp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join("bw_snapshot_test");
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_sample(path: &Path) {
        let mut w = SnapshotWriter::create(path).unwrap();
        w.write_section(1, b"first payload").unwrap();
        w.write_section(7, &[]).unwrap();
        w.write_section(2, &[0xAB; 300]).unwrap();
        assert_eq!(w.sections_written(), 3);
        w.finish().unwrap();
    }

    /// The container pinned byte for byte: one 72-byte section whose
    /// trailer is zlib's CRC-32 of `kind | len | payload`, whichever
    /// kernel computes it here.
    #[test]
    fn golden_section_frame_bytes_are_pinned() {
        let path = tmp_dir().join("golden.bwsn");
        let payload: Vec<u8> = (0..72u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.write_section(0x2a, &payload).unwrap();
        w.finish().unwrap();

        let mut golden = b"BWSN\x01\0\0\0\x01\0\0\0".to_vec();
        golden.extend_from_slice(b"\x2a\0\0\0\x48\0\0\0\0\0\0\0");
        golden.extend_from_slice(&payload);
        golden.extend_from_slice(&0xe774_aed5u32.to_le_bytes());
        golden.extend_from_slice(b"BWSN");
        assert_eq!(fs::read(&path).unwrap(), golden);
        let back = SnapshotFile::decode(&golden).unwrap();
        assert_eq!(back.sections, vec![Section { kind: 0x2a, payload }]);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trip_preserves_sections_in_order() {
        let path = tmp_dir().join("roundtrip.bwsn");
        write_sample(&path);
        let snap = SnapshotFile::read(&path).unwrap();
        assert_eq!(snap.version, SNAPSHOT_VERSION_V1);
        assert_eq!(snap.sections.len(), 3);
        assert_eq!(snap.sections[0].kind, 1);
        assert_eq!(snap.sections[0].payload, b"first payload");
        assert_eq!(snap.sections[1], Section { kind: 7, payload: vec![] });
        assert_eq!(snap.section(2).unwrap().len(), 300);
        assert!(snap.section(99).is_none());
        fs::remove_file(&path).ok();
    }

    /// A CRC-32 of a whole snapshot file is **not** a content check.
    /// Every section frame `M` is followed by `crc32(M)`, and a CRC run
    /// over `M ‖ crc32(M)` leaves a register that depends on `|M|` and
    /// the register it started from — never on what `M` says (the CRC
    /// is affine in its input: the frame's own contribution is the
    /// constant residue). By induction over the frames the whole-file
    /// CRC sees the header, the section *lengths* and the footer, and
    /// nothing of any payload or kind tag. Compare snapshot bytes, or a
    /// digest that is not a CRC, when two snapshots must hold the same
    /// model.
    #[test]
    fn whole_file_crc32_is_blind_to_section_contents() {
        let file_bytes = |name: &str, sections: &[(u32, Vec<u8>)]| {
            let path = tmp_dir().join(name);
            let mut w = SnapshotWriter::create(&path).unwrap();
            for (kind, payload) in sections {
                w.write_section(*kind, payload).unwrap();
            }
            w.finish().unwrap();
            let bytes = fs::read(&path).unwrap();
            fs::remove_file(&path).ok();
            bytes
        };
        // Deterministic noise, no two payloads alike.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut noise = |len: usize| -> Vec<u8> {
            let mut byte = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            };
            (0..len).map(|_| byte()).collect()
        };
        let lens = [13usize, 0, 300, 4097];
        let a: Vec<(u32, Vec<u8>)> = lens.iter().map(|&l| (1, noise(l))).collect();
        let b: Vec<(u32, Vec<u8>)> = lens.iter().map(|&l| (9, noise(l))).collect();
        let (bytes_a, bytes_b) = (file_bytes("blind_a.bwsn", &a), file_bytes("blind_b.bwsn", &b));
        assert_eq!(bytes_a.len(), bytes_b.len());
        assert_ne!(bytes_a, bytes_b);
        assert_eq!(crc32(&bytes_a), crc32(&bytes_b), "equal lengths, equal whole-file CRC");
        // What it does see is a length.
        let mut c = a.clone();
        c[2].1.push(0);
        assert_ne!(crc32(&file_bytes("blind_c.bwsn", &c)), crc32(&bytes_a));
    }

    #[test]
    fn every_truncation_errors_instead_of_panicking() {
        let path = tmp_dir().join("trunc.bwsn");
        write_sample(&path);
        let bytes = fs::read(&path).unwrap();
        sweep(&bytes, |bytes, damage| {
            assert!(SnapshotFile::decode(bytes).is_err(), "{damage:?} decoded");
        });
        assert!(SnapshotFile::decode(&bytes).is_ok());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn single_bit_flip_in_a_section_is_corrupt_never_panics() {
        let path = tmp_dir().join("bitflip.bwsn");
        write_sample(&path);
        let bytes = fs::read(&path).unwrap();
        let sections = SNAPSHOT_HEADER_LEN..bytes.len() - 4;
        sweep(&bytes, |bad_bytes, damage| {
            let err = SnapshotFile::decode(bad_bytes).expect_err("corruption must not decode cleanly");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{damage:?}: {err}");
            // Flips inside section frames are CorruptBlock (or, when a
            // flipped length byte moves the frame's end out of bounds
            // before any CRC check, still a clean error); flips in the
            // header or the footer are structural.
            if let Damage::Flipped { byte, .. } = damage {
                assert!(sections.contains(&byte) || !is_corrupt(&err), "{damage:?}: {err}");
            }
        });
        fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_bit_flip_is_classified_corrupt() {
        let path = tmp_dir().join("payload_flip.bwsn");
        write_sample(&path);
        let bytes = fs::read(&path).unwrap();
        // Flip inside the first section's payload proper (after the
        // header and the 12-byte section frame).
        let pos = SNAPSHOT_HEADER_LEN + 12 + 3;
        let mut bad_bytes = bytes.clone();
        bad_bytes[pos] ^= 0x41;
        let err = SnapshotFile::decode(&bad_bytes).unwrap_err();
        assert!(is_corrupt(&err), "{err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_version_rejected() {
        let path = tmp_dir().join("future.bwsn");
        write_sample(&path);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = SnapshotFile::decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!is_corrupt(&err));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_write_leaves_target_untouched() {
        let path = tmp_dir().join("atomic.bwsn");
        fs::write(&path, b"previous complete snapshot").unwrap();
        {
            let mut w = SnapshotWriter::create(&path).unwrap();
            w.write_section(1, b"half done").unwrap();
            // Dropped without finish(): simulated crash.
        }
        assert_eq!(fs::read(&path).unwrap(), b"previous complete snapshot");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.write_section(1, b"complete").unwrap();
        w.finish().unwrap();
        let snap = SnapshotFile::read(&path).unwrap();
        assert_eq!(snap.section(1).unwrap(), b"complete");
        assert!(!tmp_dir().join("atomic.bwsn.tmp").exists());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let path = tmp_dir().join("empty.bwsn");
        let w = SnapshotWriter::create(&path).unwrap();
        w.finish().unwrap();
        let snap = SnapshotFile::read(&path).unwrap();
        assert!(snap.sections.is_empty());
        fs::remove_file(&path).ok();
    }
}
