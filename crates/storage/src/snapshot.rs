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
//! Durability follows the [`crate::writer::TrainingWriter`] discipline:
//! [`SnapshotWriter::finish`] writes the assembled file to a temporary
//! path, fsyncs, and atomically renames it into place, so a crash never
//! leaves a half-valid snapshot at the target path.
//!
//! Every decode path is *total*: truncated, oversized or garbage input
//! returns `io::Error`, never panics, whatever the byte length.

use crate::crc32::crc32;
use crate::format::CorruptBlock;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
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
pub const SECTION_OVERHEAD: usize = 4 + 8 + 4;

/// One decoded section: a caller-defined kind tag plus its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Caller-defined kind tag (e.g. "item table", "tree").
    pub kind: u32,
    /// Raw payload bytes, CRC-validated.
    pub payload: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn tmp_path_for(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
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
        self.body.extend_from_slice(&kind.to_le_bytes());
        self.body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.body.extend_from_slice(payload);
        let sum = crc32(&self.body[frame_start..]);
        self.body.extend_from_slice(&sum.to_le_bytes());
        self.sections += 1;
        Ok(())
    }

    /// Number of sections written so far.
    pub fn sections_written(&self) -> u32 {
        self.sections
    }

    /// Write header + sections + footer to `path + ".tmp"`, fsync, and
    /// atomically rename over the target path. Only after the rename
    /// returns can a reader observe the snapshot — and then always in
    /// full.
    pub fn finish(self) -> io::Result<()> {
        let tmp_path = tmp_path_for(&self.final_path);
        {
            let mut out = BufWriter::new(File::create(&tmp_path)?);
            out.write_all(SNAPSHOT_MAGIC)?;
            out.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
            out.write_all(&self.sections.to_le_bytes())?;
            out.write_all(&self.body)?;
            out.write_all(SNAPSHOT_MAGIC)?;
            out.flush()?;
            out.get_ref().sync_all()?;
        }
        fs::rename(&tmp_path, &self.final_path)?;
        // Make the rename itself durable where possible; directory
        // handles cannot be fsynced on every platform, so best-effort.
        if let Some(parent) = self.final_path.parent() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
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
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Self::decode(&bytes)
    }

    /// Decode a snapshot from bytes already in memory (the disk-free
    /// half of [`SnapshotFile::read`], used directly by tests).
    pub fn decode(bytes: &[u8]) -> io::Result<SnapshotFile> {
        if bytes.len() < SNAPSHOT_HEADER_LEN + 4 {
            return Err(bad("truncated snapshot"));
        }
        if &bytes[..4] != SNAPSHOT_MAGIC {
            return Err(bad("bad snapshot magic"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION_V1 {
            return Err(bad("unsupported snapshot version"));
        }
        let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let mut at = SNAPSHOT_HEADER_LEN;
        let mut sections = Vec::new();
        for _ in 0..count {
            // Frame: kind u32 | len u64 | payload | crc32.
            if bytes.len() - at < SECTION_OVERHEAD {
                return Err(bad("truncated section header"));
            }
            let kind = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
            let len64 = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
            let len = usize::try_from(len64).map_err(|_| bad("oversized section"))?;
            let body_end = len
                .checked_add(at + 12)
                .ok_or_else(|| bad("oversized section"))?;
            let end = body_end.checked_add(4).ok_or_else(|| bad("oversized section"))?;
            if bytes.len() < end {
                return Err(bad("truncated section payload"));
            }
            let expected =
                u32::from_le_bytes(bytes[body_end..end].try_into().expect("4 bytes"));
            let actual = crc32(&bytes[at..body_end]);
            if actual != expected {
                return Err(CorruptBlock { expected, actual }.into());
            }
            sections.push(Section {
                kind,
                payload: bytes[at + 12..body_end].to_vec(),
            });
            at = end;
        }
        if bytes.len() - at != 4 || &bytes[at..at + 4] != SNAPSHOT_MAGIC {
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
    use crate::format::is_corrupt;

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
        for len in 0..bytes.len() {
            assert!(
                SnapshotFile::decode(&bytes[..len]).is_err(),
                "truncation at {len} decoded"
            );
        }
        assert!(SnapshotFile::decode(&bytes).is_ok());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn single_bit_flip_in_a_section_is_corrupt_never_panics() {
        let path = tmp_dir().join("bitflip.bwsn");
        write_sample(&path);
        let bytes = fs::read(&path).unwrap();
        for pos in 0..bytes.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut bad_bytes = bytes.clone();
                bad_bytes[pos] ^= bit;
                let err = SnapshotFile::decode(&bad_bytes)
                    .expect_err("corruption must not decode cleanly");
                // Flips inside section frames are CorruptBlock; flips in
                // the header/footer magic or version are structural.
                let in_sections = (SNAPSHOT_HEADER_LEN..bytes.len() - 4).contains(&pos);
                if in_sections {
                    // A flipped length byte can push the cursor out of
                    // bounds before any CRC check — still a clean error.
                    assert!(
                        is_corrupt(&err) || err.kind() == io::ErrorKind::InvalidData,
                        "pos {pos}: {err}"
                    );
                }
            }
        }
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
        assert!(!tmp_path_for(&path).exists());
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
