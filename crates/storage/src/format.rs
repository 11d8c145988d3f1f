//! Binary on-disk format for the entire training data.
//!
//! Layout:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────┐
//! │ header: magic "BWTD" | version u32 | p u32 | arity u32   │
//! │ region block 0 … region block R-1 (see encode_block)     │
//! │ index: R × (offset u64, len u64, coords arity×u32)       │
//! │ footer: index_offset u64 | region_count u64 | magic      │
//! └──────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers little-endian. The index lives at the end so the writer
//! can stream blocks without knowing their sizes in advance; the reader
//! loads the index once and then reads regions randomly or sequentially.
//!
//! # Version
//!
//! Version 2 is the only one written or read: every block carries a
//! trailing CRC-32 of its payload ([`crate::codec::seal`]), so a rotted
//! or torn block surfaces as a structured [`CorruptBlock`] error instead
//! of silently decoding garbage (or worse, plausible-looking wrong
//! numbers). The same sealed block encoding is what a coord frame and a
//! model snapshot's blocks section carry. Version 1 (raw blocks, no
//! checksum) is refused as an unsupported version.
//!
//! # Fault model
//!
//! Every decode path in this module is *total*: truncated, oversized or
//! garbage input returns `io::Error`, never panics, whatever the byte
//! length. The never-panics property is enforced by a test that decodes
//! every truncation of a valid file.

use crate::block::RegionBlock;
pub use crate::codec::CHECKSUM_LEN;
use crate::codec::{bad, seal, verify, Cursor, PutLe};
use std::fmt;
use std::io;

/// File magic.
pub const MAGIC: &[u8; 4] = b"BWTD";
/// Format version: every block carries a trailing CRC-32.
pub const VERSION: u32 = 2;
/// A region block failed its CRC-32 validation: the bytes on disk are
/// not the bytes that were written. Carried as the inner error of an
/// `io::Error` with kind `InvalidData`; use [`is_corrupt`] to classify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptBlock {
    /// Checksum stored in the block trailer.
    pub expected: u32,
    /// Checksum computed over the payload actually read.
    pub actual: u32,
}

impl fmt::Display for CorruptBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corrupt block: stored checksum {:#010x}, computed {:#010x}",
            self.expected, self.actual
        )
    }
}

impl std::error::Error for CorruptBlock {}

impl From<CorruptBlock> for io::Error {
    fn from(c: CorruptBlock) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, c)
    }
}

/// A block that verified and decoded but is not the one its index entry
/// names: the `.bwtd` index carries no checksum, so an entry whose
/// offset rotted onto another block of the same length still reads.
/// Carried like [`CorruptBlock`], as the inner error of an `InvalidData`
/// `io::Error`, and classified by [`is_corrupt`].
#[derive(Debug)]
pub(crate) struct MisplacedBlock {
    /// Region coordinates of the index entry.
    pub(crate) entry: Vec<u32>,
    /// Region coordinates the decoded block carries.
    pub(crate) block: Vec<u32>,
}

impl fmt::Display for MisplacedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corrupt index: the entry of region {:?} points at the block of region {:?}",
            self.entry, self.block
        )
    }
}

impl std::error::Error for MisplacedBlock {}

/// True when `err` says the stored bytes are wrong — a [`CorruptBlock`]
/// checksum mismatch, or a verified block that is not the region its
/// index entry names — as opposed to truncation or structural garbage.
/// Corruption is permanent (re-reading the same bytes reproduces it),
/// so retry layers must not spend attempts on it.
pub fn is_corrupt(err: &io::Error) -> bool {
    err.get_ref()
        .is_some_and(|e| e.is::<CorruptBlock>() || e.is::<MisplacedBlock>())
}

/// Fixed-size file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Format version the file's blocks are encoded with.
    pub version: u32,
    /// Feature arity shared by all blocks.
    pub p: u32,
    /// Number of region coordinates per block.
    pub arity: u32,
}

/// One index entry: where a region block lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Byte offset of the block.
    pub offset: u64,
    /// Encoded length in bytes (including the checksum trailer).
    pub len: u64,
    /// Region coordinates (so the index alone answers "which regions").
    pub coords: Vec<u32>,
}

/// Encode the header.
pub fn encode_header(h: &Header, out: &mut Vec<u8>) {
    out.put_slice(MAGIC);
    out.put_u32_le(h.version);
    out.put_u32_le(h.p);
    out.put_u32_le(h.arity);
}

/// Header byte length.
pub const HEADER_LEN: usize = 4 + 4 + 4 + 4;

/// Decode and validate the header. Accepts [`VERSION`] only.
pub fn decode_header(buf: &[u8]) -> io::Result<Header> {
    let mut buf = Cursor::new(buf);
    if buf.take_span(4)? != MAGIC {
        return Err(bad("bad magic"));
    }
    let version = buf.get_u32_le()?;
    if version != VERSION {
        return Err(bad("unsupported version"));
    }
    Ok(Header {
        version,
        p: buf.get_u32_le()?,
        arity: buf.get_u32_le()?,
    })
}

/// The payload of a block: everything the checksum covers.
fn encode_block(block: &RegionBlock, out: &mut Vec<u8>) {
    let (n, p) = (block.n(), block.p as usize);
    out.reserve(encoded_payload_len(block.region.len(), n, p));
    out.put_u32_le(block.region.len() as u32);
    for &c in &block.region {
        out.put_u32_le(c);
    }
    out.put_u64_le(n as u64);
    out.put_u32_le(block.p);
    // Ids, row-major features and targets fill one span sized up front,
    // a lane at a time: the disk layout is row-major, so each feature
    // lane is a strided pass over the rows (the transpose happens here,
    // not on disk). A block with `p = 0` has no lanes to stride over.
    let start = out.len();
    out.resize(start + n * (p + 2) * 8, 0);
    let (ids, rest) = out[start..].split_at_mut(n * 8);
    let (rows, targets) = rest.split_at_mut(n * p * 8);
    for (dst, id) in ids.chunks_exact_mut(8).zip(&block.item_ids) {
        dst.copy_from_slice(&id.to_le_bytes());
    }
    for (j, col) in block.cols().iter().enumerate() {
        for (row, v) in rows.chunks_exact_mut(p * 8).zip(col) {
            row[j * 8..j * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
    }
    for (dst, t) in targets.chunks_exact_mut(8).zip(&block.targets) {
        dst.copy_from_slice(&t.to_le_bytes());
    }
}

/// Encode one region block with a trailing CRC-32 over the payload.
pub fn encode_block_v2(block: &RegionBlock, out: &mut Vec<u8>) {
    let start = out.len();
    encode_block(block, out);
    seal(out, start);
}

/// Structural parse of a verified block payload: the row-major payload
/// decodes straight into the block's SoA lanes.
fn parse_block(cur: &mut Cursor<'_>) -> io::Result<RegionBlock> {
    let arity = cur.get_u32_le()? as usize;
    if cur.remaining() < arity.saturating_mul(4).saturating_add(12) {
        return Err(bad("truncated block header"));
    }
    let region = cur.get_u32_lane(arity)?;
    let n = cur.get_u64_le()? as usize;
    let p = cur.get_u32_le()?;
    // Guard the size computation itself: a garbage n or p must not
    // overflow usize before the remaining-length check can reject it.
    let need = n
        .checked_mul(16)
        .and_then(|b| n.checked_mul(p as usize).map(|f| (b, f)))
        .and_then(|(b, f)| f.checked_mul(8).and_then(|fb| fb.checked_add(b)));
    match need {
        Some(need) if cur.remaining() >= need => {}
        _ => return Err(bad("truncated block payload")),
    }
    let item_ids = cur.get_i64_lane(n)?;
    // Each lane is one strided pass over the rows, collected at its
    // exact size (`p > 0` whenever a lane is collected). An empty block
    // gets no lanes at all — `p` is untrusted here and must not size an
    // allocation on its own.
    let stride = p as usize * 8;
    let rows = cur.take_span(n * stride)?;
    let cols: Vec<Vec<f64>> = if n == 0 {
        Vec::new()
    } else {
        (0..p as usize)
            .map(|j| {
                rows.chunks_exact(stride)
                    .map(|row| {
                        f64::from_le_bytes(row[j * 8..j * 8 + 8].try_into().expect("8 bytes"))
                    })
                    .collect()
            })
            .collect()
    };
    let targets = cur.get_f64_lane(n)?;
    Ok(RegionBlock::from_columns(region, p, item_ids, cols, targets))
}

/// Decode one region block: [`verify`], then decode. A mismatch is a
/// [`CorruptBlock`] error (see [`is_corrupt`]) whatever the structure
/// looks like — corrupt bytes routinely garble the structure too, and
/// the checksum verdict is the more actionable one. Only verified
/// bytes are parsed.
pub fn decode_block_v2(buf: &[u8]) -> io::Result<RegionBlock> {
    if buf.len() < CHECKSUM_LEN {
        return Err(bad("truncated block checksum"));
    }
    parse_block(&mut Cursor::new(verify(buf)?))
}

/// Byte length of a block payload, before its checksum trailer. This is the
/// single owner of the block size arithmetic: `RegionBlock::encoded_len`
/// delegates here, so the encoder and the accounting can't drift.
pub fn encoded_payload_len(region_arity: usize, n: usize, p: usize) -> usize {
    // arity u32 + coords + n u64 + p u32, then ids + features + targets
    4 + region_arity * 4 + 8 + 4 + n * 8 + n * p * 8 + n * 8
}

/// Encoded length of a block holding no examples, checksum included —
/// the shortest span an index entry can name.
pub fn empty_block_len(region_arity: usize) -> usize {
    encoded_payload_len(region_arity, 0, 0) + CHECKSUM_LEN
}

/// The inverse of [`encoded_payload_len`] through the checksum trailer:
/// how many examples a block of `len` encoded bytes holds, or `None`
/// unless some whole number of them encodes to exactly `len` — so an
/// index entry's length answers "how many rows" without the block's
/// bytes.
pub fn examples_in_encoded_len(region_arity: usize, p: usize, len: u64) -> Option<u64> {
    let per_example = encoded_payload_len(0, 1, p) - encoded_payload_len(0, 0, p);
    let rows = len.checked_sub(empty_block_len(region_arity) as u64)?;
    (rows % per_example as u64 == 0).then_some(rows / per_example as u64)
}

/// Encode the index + footer.
pub fn encode_index(entries: &[IndexEntry], arity: u32, index_offset: u64, out: &mut Vec<u8>) {
    for e in entries {
        out.put_u64_le(e.offset);
        out.put_u64_le(e.len);
        debug_assert_eq!(e.coords.len() as u32, arity);
        for &c in &e.coords {
            out.put_u32_le(c);
        }
    }
    out.put_u64_le(index_offset);
    out.put_u64_le(entries.len() as u64);
    out.put_slice(MAGIC);
}

/// Footer byte length.
pub const FOOTER_LEN: usize = 8 + 8 + 4;

/// Decode the footer: `(index_offset, region_count)`.
pub fn decode_footer(buf: &[u8]) -> io::Result<(u64, u64)> {
    let mut buf = Cursor::new(buf);
    let index_offset = buf.get_u64_le()?;
    let count = buf.get_u64_le()?;
    if buf.take_span(4)? != MAGIC {
        return Err(bad("bad footer magic"));
    }
    Ok((index_offset, count))
}

/// Decode `count` index entries of the given arity.
pub fn decode_index(buf: &[u8], count: u64, arity: u32) -> io::Result<Vec<IndexEntry>> {
    let mut buf = Cursor::new(buf);
    let count = buf.count(count, 16 + arity as usize * 4)?;
    (0..count)
        .map(|_| {
            Ok(IndexEntry {
                offset: buf.get_u64_le()?,
                len: buf.get_u64_le()?,
                coords: buf.get_u32_lane(arity as usize)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_prop::{sweep, Damage};

    fn block() -> RegionBlock {
        let mut b = RegionBlock::new(vec![3, 1], 2);
        b.push(10, &[1.5, -2.0], 7.0);
        b.push(11, &[0.0, 4.0], -1.0);
        b
    }

    #[test]
    fn header_round_trip() {
        let h = Header {
            version: VERSION,
            p: 5,
            arity: 2,
        };
        let mut buf = Vec::new();
        encode_header(&h, &mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(decode_header(&buf).unwrap(), h);
    }

    #[test]
    fn header_rejects_garbage() {
        assert!(decode_header(b"nope").is_err());
        let mut buf = Vec::new();
        let h = Header {
            version: VERSION,
            p: 1,
            arity: 1,
        };
        encode_header(&h, &mut buf);
        buf[0] = b'X';
        assert!(decode_header(&buf).is_err());
        // Version 1 and unknown future versions are rejected, not
        // misparsed.
        for version in [1, 99] {
            let mut other = Vec::new();
            let h = Header {
                version,
                p: 1,
                arity: 1,
            };
            encode_header(&h, &mut other);
            assert!(decode_header(&other).is_err(), "version {version}");
        }
    }

    #[test]
    fn block_round_trip_v2() {
        let b = block();
        let mut buf = Vec::new();
        encode_block_v2(&b, &mut buf);
        assert_eq!(buf.len(), b.encoded_len() + CHECKSUM_LEN);
        let back = decode_block_v2(&buf).unwrap();
        assert_eq!(back, b);
    }

    /// The v2 disk format, pinned byte for byte by a block written out
    /// by hand (the trailer is zlib's CRC-32 of the 120 bytes before
    /// it): whatever kernel computes the checksum, and however decode is
    /// arranged, these are the bytes a three-row block is.
    const GOLDEN_V2_BLOCK: &str = concat!(
        "02000000", "03000000", "01000000", // arity 2, region [3, 1]
        "0300000000000000", "02000000", // n = 3, p = 2
        "0a00000000000000", "0b00000000000000", "f4ffffffffffffff", // ids 10, 11, -12
        "000000000000f83f", "00000000000000c0", // row 0: 1.5, -2.0
        "0000000000000000", "0000000000001040", // row 1: 0.0, 4.0
        "000000000000d03f", "9c7500883ce4377e", // row 2: 0.25, 1e300
        "0000000000001c40", "000000000000f0bf", "9a9999999999b93f", // targets 7, -1, 0.1
        "3d29b66b", // CRC-32 0x6bb6293d, little-endian
    );

    #[test]
    fn golden_v2_block_bytes_are_pinned() {
        let mut b = RegionBlock::new(vec![3, 1], 2);
        b.push(10, &[1.5, -2.0], 7.0);
        b.push(11, &[0.0, 4.0], -1.0);
        b.push(-12, &[0.25, 1e300], 0.1);
        let mut buf = Vec::new();
        encode_block_v2(&b, &mut buf);
        let hex: String = buf.iter().map(|byte| format!("{byte:02x}")).collect();
        assert_eq!(hex, GOLDEN_V2_BLOCK);
        assert_eq!(decode_block_v2(&buf).unwrap(), b);
        // The oracle kernel reads the same trailer off the same payload.
        let (payload, trailer) = buf.split_at(buf.len() - CHECKSUM_LEN);
        assert_eq!(payload.len(), 120, "long enough to take the folding kernel");
        assert_eq!(crate::crc32::crc32_bytewise(payload).to_le_bytes(), trailer);
    }

    #[test]
    fn truncated_block_rejected() {
        let b = block();
        let mut buf = Vec::new();
        encode_block_v2(&b, &mut buf);
        assert!(decode_block_v2(&buf[..buf.len() - 1]).is_err());
        assert!(decode_block_v2(&buf[..3]).is_err());
    }

    #[test]
    fn every_truncation_errors_instead_of_panicking() {
        let b = block();
        let mut buf = Vec::new();
        encode_block_v2(&b, &mut buf);
        sweep(&buf, |bytes, damage| {
            if let Damage::Truncated { .. } = damage {
                assert!(decode_block_v2(bytes).is_err(), "{damage:?} decoded");
            }
        });
        assert!(decode_block_v2(&buf).is_ok());
        // Headers, footers and indexes are total over truncations too.
        let mut hdr = Vec::new();
        encode_header(
            &Header {
                version: VERSION,
                p: 3,
                arity: 2,
            },
            &mut hdr,
        );
        sweep(&hdr, |bytes, damage| {
            let r = decode_header(bytes);
            if let Damage::Truncated { .. } = damage {
                assert!(r.is_err(), "{damage:?} decoded");
            }
        });
        let entries = vec![IndexEntry {
            offset: 16,
            len: 10,
            coords: vec![1, 2],
        }];
        let mut idx = Vec::new();
        encode_index(&entries, 2, 7, &mut idx);
        sweep(&idx, |bytes, _| {
            let _ = decode_footer(bytes);
            let _ = decode_index(bytes, 1, 2);
        });
    }

    #[test]
    fn garbage_counts_do_not_overflow() {
        // A sealed "block" claiming usize::MAX examples must be rejected
        // by the length check, not crash the size arithmetic.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_le_bytes()); // arity 0
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n = huge
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // p = huge
        seal(&mut buf, 0);
        let err = decode_block_v2(&buf).expect_err("huge counts decoded");
        assert!(!is_corrupt(&err), "the checksum holds: {err}");
    }

    #[test]
    fn checksum_catches_single_byte_corruption() {
        let b = block();
        let mut buf = Vec::new();
        encode_block_v2(&b, &mut buf);
        sweep(&buf, |bytes, damage| {
            let err = decode_block_v2(bytes).expect_err("corruption undetected");
            // Payload corruption and trailer corruption alike surface as
            // CorruptBlock (the stored and computed sums disagree either
            // way); so does any cut that leaves room for a trailer.
            let trailerless = matches!(damage, Damage::Truncated { len } if len < CHECKSUM_LEN);
            assert_eq!(is_corrupt(&err), !trailerless, "{damage:?}: {err}");
        });
    }

    /// Verify-then-decode gives the verdicts the fused pass gave: the
    /// checksum covers the whole payload, trailing slack included, and
    /// bytes that verify are then judged on their structure alone.
    #[test]
    fn verified_payloads_get_structural_verdicts_and_slack_is_covered() {
        let sealed = |mut payload: Vec<u8>| {
            seal(&mut payload, 0);
            payload
        };
        let b = block();
        let mut payload = Vec::new();
        encode_block(&b, &mut payload);

        let cut = sealed(payload[..payload.len() - 3].to_vec());
        let err = decode_block_v2(&cut).expect_err("three bytes short");
        assert!(!is_corrupt(&err), "a verified payload is not corrupt: {err}");

        payload.extend_from_slice(&[0xAA; 70]);
        let mut slack = sealed(payload);
        assert_eq!(decode_block_v2(&slack).unwrap(), b);
        let last_slack_byte = slack.len() - CHECKSUM_LEN - 1;
        slack[last_slack_byte] ^= 0x01;
        assert!(is_corrupt(&decode_block_v2(&slack).expect_err("slack flipped")));
    }

    #[test]
    fn corrupt_block_classifier_ignores_other_errors() {
        assert!(!is_corrupt(&bad("truncated block")));
        assert!(!is_corrupt(&io::Error::new(
            io::ErrorKind::Interrupted,
            "transient"
        )));
        let err: io::Error = CorruptBlock {
            expected: 1,
            actual: 2,
        }
        .into();
        assert!(is_corrupt(&err));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn index_round_trip() {
        let entries = vec![
            IndexEntry {
                offset: 16,
                len: 100,
                coords: vec![0, 5],
            },
            IndexEntry {
                offset: 116,
                len: 64,
                coords: vec![1, 2],
            },
        ];
        let mut buf = Vec::new();
        encode_index(&entries, 2, 999, &mut buf);
        let footer_start = buf.len() - FOOTER_LEN;
        let (index_offset, count) = decode_footer(&buf[footer_start..]).unwrap();
        assert_eq!((index_offset, count), (999, 2));
        let back = decode_index(&buf[..footer_start], count, 2).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn empty_block_round_trip() {
        let b = RegionBlock::new(vec![7], 3);
        let mut buf = Vec::new();
        encode_block_v2(&b, &mut buf);
        assert_eq!(buf.len(), empty_block_len(1));
        assert_eq!(decode_block_v2(&buf).unwrap(), b);
    }

    /// `RegionBlock::encoded_len` is derived from
    /// [`encoded_payload_len`]; this pins the derivation to the actual
    /// encoder output for blocks of every arity/size combination.
    #[test]
    fn encoded_len_agrees_with_encoder_for_every_shape() {
        for arity in 0..4usize {
            for p in 0..4u32 {
                for n in 0..5usize {
                    let mut b = RegionBlock::new((0..arity as u32).collect(), p);
                    for i in 0..n {
                        let x: Vec<f64> = (0..p).map(|j| (i * 10 + j as usize) as f64).collect();
                        b.push(i as i64, &x, i as f64);
                    }
                    let mut payload = Vec::new();
                    encode_block(&b, &mut payload);
                    assert_eq!(payload.len(), b.encoded_len(), "arity {arity} p {p} n {n}");
                    assert_eq!(
                        payload.len(),
                        encoded_payload_len(arity, n, p as usize),
                        "arity {arity} p {p} n {n}"
                    );
                    let mut sealed = Vec::new();
                    encode_block_v2(&b, &mut sealed);
                    assert_eq!(sealed.len(), b.encoded_len() + CHECKSUM_LEN);
                    // And back: the length alone gives the row count,
                    // and no other length near it gives any.
                    let len = sealed.len() as u64;
                    let rows = |len| examples_in_encoded_len(arity, p as usize, len);
                    assert_eq!(rows(len), Some(n as u64), "arity {arity} p {p} n {n}");
                    assert_eq!(rows(len + 1), None);
                    assert_eq!(rows(len - 1), None);
                }
            }
        }
    }

    /// The per-value encoder the lane-at-a-time one replaced: one
    /// checked `put` per value, each row gathered across the lanes.
    /// Kept as its byte-for-byte oracle.
    fn encode_block_by_values(block: &RegionBlock, out: &mut Vec<u8>) {
        out.put_u32_le(block.region.len() as u32);
        for &c in &block.region {
            out.put_u32_le(c);
        }
        out.put_u64_le(block.n() as u64);
        out.put_u32_le(block.p);
        for &id in &block.item_ids {
            out.put_i64_le(id);
        }
        let cols = block.cols();
        for i in 0..block.n() {
            for col in cols {
                out.put_f64_le(col[i]);
            }
        }
        for &t in &block.targets {
            out.put_f64_le(t);
        }
    }

    /// The per-value decoder the lane-at-a-time one replaced: every row
    /// pushed value by value into the lanes. Kept as its oracle; takes a
    /// verified payload, as [`parse_block`] does.
    fn parse_block_by_values(cur: &mut Cursor<'_>) -> io::Result<RegionBlock> {
        let arity = cur.get_u32_le()? as usize;
        if cur.remaining() < arity.saturating_mul(4).saturating_add(12) {
            return Err(bad("truncated block header"));
        }
        let region = cur.get_u32_lane(arity)?;
        let n = cur.get_u64_le()? as usize;
        let p = cur.get_u32_le()?;
        let need = n
            .checked_mul(16)
            .and_then(|b| n.checked_mul(p as usize).map(|f| (b, f)))
            .and_then(|(b, f)| f.checked_mul(8).and_then(|fb| fb.checked_add(b)));
        match need {
            Some(need) if cur.remaining() >= need => {}
            _ => return Err(bad("truncated block payload")),
        }
        let item_ids = cur.get_i64_lane(n)?;
        let feat_bytes = cur.take_span(n * p as usize * 8)?;
        let mut cols: Vec<Vec<f64>> = if n == 0 {
            Vec::new()
        } else {
            (0..p).map(|_| Vec::with_capacity(n)).collect()
        };
        let mut values = feat_bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunks")));
        for _ in 0..n {
            for col in cols.iter_mut() {
                col.push(values.next().expect("span length checked"));
            }
        }
        let targets = cur.get_f64_lane(n)?;
        Ok(RegionBlock::from_columns(
            region, p, item_ids, cols, targets,
        ))
    }

    /// A value from the corners of `f64`: any bit pattern, a NaN with a
    /// random payload and sign, −0.0, a subnormal, or an ordinary one.
    fn awkward_f64(rng: &mut bellwether_prop::Rng) -> f64 {
        let sign = (rng.next_u64() & 1) << 63;
        let mantissa = rng.next_u64() & 0x000f_ffff_ffff_ffff;
        match rng.below(5) {
            0 => f64::from_bits(rng.next_u64()),
            1 => f64::from_bits(sign | 0x7ff0_0000_0000_0000 | mantissa | 1),
            2 => -0.0,
            3 => f64::from_bits(sign | mantissa),
            _ => rng.f64_in(-1e6, 1e6),
        }
    }

    /// Every lane of a block as bits: NaNs compare by payload.
    #[allow(clippy::type_complexity)]
    fn lane_bits(b: &RegionBlock) -> (&[u32], u32, &[i64], Vec<Vec<u64>>, Vec<u64>) {
        let bits = |lane: &[f64]| lane.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let cols = b.cols().iter().map(|c| bits(c)).collect();
        (&b.region, b.p, &b.item_ids, cols, bits(&b.targets))
    }

    #[test]
    fn lane_codec_matches_the_per_value_oracle_bit_for_bit() {
        use bellwether_prop::check;
        check("format/lane_codec_vs_per_value", 3, |rng| {
            for p in 0..=8u32 {
                for n in [0usize, 1, 2, 7, 64, 301] {
                    let region = (0..rng.usize_in(0, 3))
                        .map(|_| rng.next_u64() as u32)
                        .collect();
                    let mut b = RegionBlock::new(region, p);
                    for _ in 0..n {
                        let x: Vec<f64> = (0..p).map(|_| awkward_f64(rng)).collect();
                        let y = awkward_f64(rng);
                        b.push(rng.next_u64() as i64, &x, y);
                    }
                    // Both encoders append after whatever the buffer holds.
                    let prefix = vec![0xA5; rng.usize_in(0, 3)];
                    let (mut lanes, mut values) = (prefix.clone(), prefix.clone());
                    encode_block_v2(&b, &mut lanes);
                    encode_block_by_values(&b, &mut values);
                    seal(&mut values, prefix.len());
                    assert_eq!(lanes, values, "p {p} n {n}: encoded bytes differ");

                    let sealed = &lanes[prefix.len()..];
                    let decoded = decode_block_v2(sealed).unwrap();
                    let payload = verify(sealed).unwrap();
                    let oracle = parse_block_by_values(&mut Cursor::new(payload)).unwrap();
                    assert_eq!(
                        lane_bits(&decoded),
                        lane_bits(&b),
                        "p {p} n {n}: round trip"
                    );
                    assert_eq!(lane_bits(&oracle), lane_bits(&b), "p {p} n {n}: oracle");
                }
            }
        });
    }

    /// The original row-major (AoS) decoder, kept verbatim as the
    /// oracle for the SoA decode paths.
    #[allow(clippy::type_complexity)]
    /// `(region coords, item ids, row-major features, targets, p)` as
    /// decoded by the original row-major (AoS) reader.
    type AosBlock = (Vec<u32>, Vec<i64>, Vec<f64>, Vec<f64>, u32);

    fn decode_block_aos(buf: &[u8]) -> io::Result<AosBlock> {
        let mut cur = Cursor::new(buf);
        let arity = cur.get_u32_le()? as usize;
        if cur.remaining() < arity.saturating_mul(4).saturating_add(12) {
            return Err(bad("truncated block header"));
        }
        let region = (0..arity)
            .map(|_| cur.get_u32_le())
            .collect::<io::Result<Vec<u32>>>()?;
        let n = cur.get_u64_le()? as usize;
        let p = cur.get_u32_le()?;
        let need = n
            .checked_mul(16)
            .and_then(|b| n.checked_mul(p as usize).map(|f| (b, f)))
            .and_then(|(b, f)| f.checked_mul(8).and_then(|fb| fb.checked_add(b)));
        match need {
            Some(need) if cur.remaining() >= need => {}
            _ => return Err(bad("truncated block payload")),
        }
        let item_ids = (0..n)
            .map(|_| cur.get_i64_le())
            .collect::<io::Result<Vec<i64>>>()?;
        let features = (0..n * p as usize)
            .map(|_| cur.get_f64_le())
            .collect::<io::Result<Vec<f64>>>()?;
        let targets = (0..n)
            .map(|_| cur.get_f64_le())
            .collect::<io::Result<Vec<f64>>>()?;
        Ok((region, item_ids, features, targets, p))
    }

    fn decode_block_aos_v2(buf: &[u8]) -> io::Result<AosBlock> {
        decode_block_aos(verify(buf)?)
    }

    #[test]
    fn soa_decode_matches_aos_reference() {
        use bellwether_prop::{check, Rng};
        check("format/soa_decode_vs_aos", 300, |rng: &mut Rng| {
            let arity = rng.usize_in(0, 3);
            let p = rng.usize_in(0, 5);
            let n = rng.usize_in(0, 30);
            let mut b = RegionBlock::new(
                (0..arity).map(|_| rng.u32_in(0, 100)).collect(),
                p as u32,
            );
            for _ in 0..n {
                let x: Vec<f64> = (0..p).map(|_| rng.f64_in(-100.0, 100.0)).collect();
                b.push(rng.i64_in(-1000, 1000), &x, rng.f64_in(-10.0, 10.0));
            }
            let mut buf = Vec::new();
            encode_block_v2(&b, &mut buf);
            // Clean decode agrees field-for-field with the AoS oracle.
            let soa = decode_block_v2(&buf).unwrap();
            let aos = decode_block_aos_v2(&buf).unwrap();
            assert_eq!(soa.region, aos.0);
            assert_eq!(soa.item_ids, aos.1);
            assert_eq!(soa.targets, aos.3);
            assert_eq!(soa.p, aos.4);
            for i in 0..n {
                assert_eq!(soa.row(i), &aos.2[i * p..(i + 1) * p], "row {i}");
            }
            assert_eq!(soa, b);
            // Every truncation errors on both decoders.
            let cut = rng.usize_in(0, buf.len() - 1);
            assert!(decode_block_v2(&buf[..cut]).is_err(), "cut {cut} decoded");
            assert!(decode_block_aos_v2(&buf[..cut]).is_err(), "oracle {cut}");
            // Single-byte corruption is CorruptBlock on both decoders.
            let pos = rng.usize_in(0, buf.len() - 1);
            let mut bad_buf = buf.clone();
            bad_buf[pos] ^= 0x41;
            let err = decode_block_v2(&bad_buf).expect_err("corruption undetected");
            assert!(is_corrupt(&err), "pos {pos}: {err}");
            let aos_err = decode_block_aos_v2(&bad_buf).expect_err("oracle undetected");
            assert!(is_corrupt(&aos_err));
        });
    }
}
