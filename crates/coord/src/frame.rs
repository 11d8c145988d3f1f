//! The coordinator ↔ worker wire protocol: length-prefixed,
//! CRC-32-framed messages over a byte stream (worker stdin/stdout for
//! real processes, an in-memory queue for the simulated transport).
//!
//! A frame is
//!
//! ```text
//! | len: u32 LE | kind: u8 | payload: len bytes | crc: u32 LE |
//! ```
//!
//! where `crc` seals `kind ‖ payload` (the same
//! [`bellwether_storage::codec`] pair as the v2 block format). Every
//! decode path is *total*: truncation, oversize and checksum mismatch
//! all surface as classified `io::Error`s, never a panic — a flipped bit
//! anywhere in a frame body is caught by the checksum before any field
//! is interpreted. The verdict on a mismatch is this crate's own: a bad
//! frame is a *transport* fault (plain `InvalidData`, the worker is
//! restarted), never the `is_corrupt` of stored bytes gone wrong.
//!
//! Blocks travel as their v2 on-disk encoding
//! ([`bellwether_storage::format::encode_block_v2`]), so the bytes the
//! coordinator decodes are exactly the bytes a local `DiskSource` would
//! have decoded — the foundation of the bit-identity guarantee.

use bellwether_storage::codec::{seal, verify, Cursor, PutLe, CHECKSUM_LEN};
use bellwether_storage::crc32::{crc32_finish, crc32_update, CRC_INIT};
use std::io::{self, Read, Write};

/// Hard ceiling on a frame payload; anything larger is rejected as
/// structurally invalid before allocation.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Request: handshake; the worker answers with [`Response::ShardInfo`].
pub const REQ_HELLO: u8 = 0x01;
/// Request: read one region by shard-local index.
pub const REQ_READ: u8 = 0x02;
/// Request: liveness probe; the worker echoes the nonce.
pub const REQ_PING: u8 = 0x03;
/// Request: graceful shutdown; the worker answers [`Response::Bye`].
pub const REQ_SHUTDOWN: u8 = 0x04;
/// Response to [`REQ_HELLO`].
pub const RESP_SHARD_INFO: u8 = 0x81;
/// Response to [`REQ_READ`]: a v2-encoded region block.
pub const RESP_BLOCK: u8 = 0x82;
/// Response to [`REQ_PING`].
pub const RESP_PONG: u8 = 0x83;
/// Response to [`REQ_SHUTDOWN`]; carries the worker's peak RSS.
pub const RESP_BYE: u8 = 0x84;
/// Response to [`REQ_READ`] whose shard-local read failed; carries the
/// classified error.
pub const RESP_READ_ERR: u8 = 0x85;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Encode one frame to bytes.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 1 + payload.len() + CHECKSUM_LEN);
    out.put_u32_le(payload.len() as u32);
    out.put_u8(kind);
    out.put_slice(payload);
    seal(&mut out, 4);
    out
}

/// Write one frame to a stream (no flush; callers batch then flush):
/// [`encode_frame`]'s bytes without assembling them, so a block is not
/// copied once more on its way out.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let crc = crc32_finish(crc32_update(crc32_update(CRC_INIT, &[kind]), payload));
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&[kind])?;
    w.write_all(payload)?;
    w.write_all(&crc.to_le_bytes())
}

/// Read and checksum-validate one frame from a stream, handing back its
/// `kind ‖ payload` in the buffer they were read and checked in (a block
/// is not copied once more on its way in either). Truncation maps to
/// `UnexpectedEof` (a dead peer), a bad checksum or oversize length to
/// `InvalidData` (a corrupt frame).
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut word = [0u8; 4];
    r.read_exact(&mut word)?;
    let len = u32::from_le_bytes(word) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(invalid(format!("frame payload of {len} bytes exceeds cap")));
    }
    let mut body = vec![0u8; 1 + len + CHECKSUM_LEN];
    r.read_exact(&mut body)?;
    verify(&body).map_err(|_| invalid("corrupt frame (checksum mismatch)"))?;
    body.truncate(1 + len);
    Ok(body)
}

/// Decode one full frame from a byte buffer (the simulated transport's
/// channel); identical validation to [`read_frame`].
pub fn decode_frame(buf: &[u8]) -> io::Result<(u8, Vec<u8>)> {
    let mut cursor = buf;
    let body = read_frame(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(invalid("trailing bytes after frame"));
    }
    Ok((body[0], body[1..].to_vec()))
}

/// Flip one deterministically chosen bit of an encoded frame, past the
/// length prefix so the stream stays frame-synchronized — the receiver
/// sees a clean length, then a checksum mismatch. Used by the fault
/// plan's corrupt-frame injection.
pub fn corrupt_frame(buf: &mut [u8], h: u64) {
    debug_assert!(buf.len() > 4, "a frame has at least kind + crc after the length");
    let bits = (buf.len() - 4) * 8;
    let bit = (h % bits as u64) as usize;
    buf[4 + bit / 8] ^= 1 << (bit % 8);
}

/// A coordinator → worker message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake: ask for the shard's metadata (doubles as the liveness
    /// probe after every spawn and restart).
    Hello,
    /// Read the region at this shard-local index.
    Read {
        /// Shard-local region index.
        local: u32,
    },
    /// Heartbeat probe; the worker must echo `nonce`.
    Ping {
        /// Echo token.
        nonce: u64,
    },
    /// Ask the worker to report its peak RSS and exit cleanly.
    Shutdown,
}

impl Request {
    /// Frame kind + payload for this request.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Request::Hello => (REQ_HELLO, Vec::new()),
            Request::Read { local } => (REQ_READ, local.to_le_bytes().to_vec()),
            Request::Ping { nonce } => (REQ_PING, nonce.to_le_bytes().to_vec()),
            Request::Shutdown => (REQ_SHUTDOWN, Vec::new()),
        }
    }

    /// Decode a request from a validated frame; unknown kinds and
    /// malformed payloads are classified errors.
    pub fn decode(kind: u8, payload: &[u8]) -> io::Result<Request> {
        let mut cur = Cursor::new(payload);
        let req = match kind {
            REQ_HELLO => Request::Hello,
            REQ_READ => Request::Read { local: cur.get_u32_le()? },
            REQ_PING => Request::Ping { nonce: cur.get_u64_le()? },
            REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(invalid(format!("unknown request kind {other:#04x}"))),
        };
        cur.done()?;
        Ok(req)
    }
}

/// Shard metadata returned by the handshake: enough for the coordinator
/// to serve every [`bellwether_storage::TrainingSource`] metadata query
/// without touching the worker again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// Regions stored in this shard.
    pub regions: u32,
    /// Feature arity.
    pub p: u32,
    /// Region-coordinate arity.
    pub arity: u32,
    /// Flattened coordinates, `regions × arity`, ascending local order.
    pub coords: Vec<u32>,
}

/// A worker → coordinator message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake answer.
    ShardInfo(ShardInfo),
    /// A successfully read region, as its v2 block encoding.
    Block(Vec<u8>),
    /// Heartbeat echo.
    Pong {
        /// The echoed token.
        nonce: u64,
    },
    /// Graceful-shutdown acknowledgement.
    Bye {
        /// The worker's peak resident set in bytes (0 if unknown).
        peak_rss_bytes: u64,
    },
    /// A shard-local read failed; the classified error travels back so
    /// the coordinator can distinguish data faults (corrupt block on
    /// the worker's disk) from transport faults (dead/hung worker).
    ReadErr {
        /// Encoded [`io::ErrorKind`]; see [`encode_error_kind`].
        code: u8,
        /// Human-readable error message.
        message: String,
    },
}

impl Response {
    /// Frame kind + payload for this response.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Response::ShardInfo(info) => {
                let mut p = Vec::with_capacity(12 + info.coords.len() * 4);
                p.put_u32_le(info.regions);
                p.put_u32_le(info.p);
                p.put_u32_le(info.arity);
                info.coords.iter().for_each(|&c| p.put_u32_le(c));
                (RESP_SHARD_INFO, p)
            }
            Response::Block(bytes) => (RESP_BLOCK, bytes.clone()),
            Response::Pong { nonce } => (RESP_PONG, nonce.to_le_bytes().to_vec()),
            Response::Bye { peak_rss_bytes } => (RESP_BYE, peak_rss_bytes.to_le_bytes().to_vec()),
            Response::ReadErr { code, message } => {
                let mut p = Vec::with_capacity(1 + message.len());
                p.push(*code);
                p.extend_from_slice(message.as_bytes());
                (RESP_READ_ERR, p)
            }
        }
    }

    /// Decode a response from a validated frame.
    pub fn decode(kind: u8, payload: &[u8]) -> io::Result<Response> {
        match kind {
            RESP_SHARD_INFO => {
                let mut cur = Cursor::new(payload);
                let regions = cur.get_u32_le()?;
                let p = cur.get_u32_le()?;
                let arity = cur.get_u32_le()?;
                let want = (regions as usize)
                    .checked_mul(arity as usize)
                    .ok_or_else(|| invalid("shard info coordinate count overflows"))?;
                let coords = cur.get_u32_lane(want)?;
                cur.done()?;
                Ok(Response::ShardInfo(ShardInfo { regions, p, arity, coords }))
            }
            RESP_BLOCK => Ok(Response::Block(payload.to_vec())),
            RESP_PONG => {
                let mut cur = Cursor::new(payload);
                let nonce = cur.get_u64_le()?;
                cur.done()?;
                Ok(Response::Pong { nonce })
            }
            RESP_BYE => {
                let mut cur = Cursor::new(payload);
                let peak_rss_bytes = cur.get_u64_le()?;
                cur.done()?;
                Ok(Response::Bye { peak_rss_bytes })
            }
            RESP_READ_ERR => {
                if payload.is_empty() {
                    return Err(invalid("read-error payload missing code"));
                }
                let message = std::str::from_utf8(&payload[1..])
                    .map_err(|_| invalid("read-error message not utf-8"))?
                    .to_string();
                Ok(Response::ReadErr { code: payload[0], message })
            }
            other => Err(invalid(format!("unknown response kind {other:#04x}"))),
        }
    }
}

/// The [`io::ErrorKind`]s that have a wire code.
const ERROR_KINDS: [(u8, io::ErrorKind); 7] = [
    (1, io::ErrorKind::InvalidData),
    (2, io::ErrorKind::NotFound),
    (3, io::ErrorKind::Interrupted),
    (4, io::ErrorKind::TimedOut),
    (5, io::ErrorKind::WouldBlock),
    (6, io::ErrorKind::UnexpectedEof),
    (7, io::ErrorKind::PermissionDenied),
];

/// Encode an [`io::ErrorKind`] for the wire; kinds without a code map
/// to 0 (`Other`).
pub fn encode_error_kind(kind: io::ErrorKind) -> u8 {
    ERROR_KINDS.iter().find(|&&(_, k)| k == kind).map_or(0, |&(code, _)| code)
}

/// Inverse of [`encode_error_kind`].
pub fn decode_error_kind(code: u8) -> io::ErrorKind {
    ERROR_KINDS.iter().find(|&&(c, _)| c == code).map_or(io::ErrorKind::Other, |&(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_prop::{sweep, Damage};

    #[test]
    fn frames_roundtrip() {
        for (kind, payload) in [
            (REQ_HELLO, vec![]),
            (REQ_READ, vec![1, 2, 3, 4]),
            (RESP_BLOCK, (0..=255u8).collect::<Vec<_>>()),
        ] {
            let buf = encode_frame(kind, &payload);
            assert_eq!(decode_frame(&buf).unwrap(), (kind, payload.clone()));
            // Streaming reader sees the same frame.
            let streamed = read_frame(&mut &buf[..]).unwrap();
            assert_eq!((streamed[0], &streamed[1..]), (kind, &payload[..]));
        }
    }

    /// The wire format pinned byte for byte: the trailer is zlib's
    /// CRC-32 of `kind ‖ payload`, whichever kernel computes it here
    /// (one byte through the table kernel, then 80 through the fold).
    #[test]
    fn golden_frame_bytes_are_pinned() {
        let payload: Vec<u8> = (0..80u32).map(|i| (i * 11 + 5) as u8).collect();
        let mut golden = vec![0x50, 0, 0, 0, RESP_BLOCK];
        golden.extend_from_slice(&payload);
        golden.extend_from_slice(&0x0997_7965u32.to_le_bytes());
        assert_eq!(encode_frame(RESP_BLOCK, &payload), golden);
        let mut streamed = Vec::new();
        write_frame(&mut streamed, RESP_BLOCK, &payload).unwrap();
        assert_eq!(streamed, golden);
        assert_eq!(decode_frame(&golden).unwrap(), (RESP_BLOCK, payload));
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let buf = encode_frame(REQ_READ, &7u32.to_le_bytes());
        // Flips past the length prefix break the checksum; flips inside
        // the prefix change the framing and are caught as truncation or
        // oversize or trailing bytes. Either way: an error, no panic.
        sweep(&buf, |bad, damage| {
            let err = decode_frame(bad).expect_err("damage must be rejected");
            assert!(!bellwether_storage::is_corrupt(&err), "{damage:?}: a transport fault, not rot");
        });
    }

    #[test]
    fn every_truncation_is_rejected() {
        let buf = encode_frame(RESP_PONG, &42u64.to_le_bytes());
        sweep(&buf, |bad, damage| {
            let err = decode_frame(bad).expect_err("damage must be rejected");
            // A cut stream is a dead peer; a whole frame that is wrong
            // is a corrupt one.
            let dead_peer = err.kind() == io::ErrorKind::UnexpectedEof;
            assert!(dead_peer || err.kind() == io::ErrorKind::InvalidData, "{damage:?}: {err}");
            assert!(dead_peer || !matches!(damage, Damage::Truncated { .. }), "{damage:?}: {err}");
        });
    }

    #[test]
    fn oversize_length_is_rejected_before_allocation() {
        let mut buf = encode_frame(REQ_HELLO, &[]);
        buf[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let err = decode_frame(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds cap"), "{err}");
    }

    #[test]
    fn corrupt_frame_helper_breaks_the_checksum_not_the_framing() {
        let clean = encode_frame(RESP_BLOCK, b"block bytes here");
        for h in 0..64u64 {
            let mut bad = clean.clone();
            corrupt_frame(&mut bad, h);
            assert_eq!(bad[..4], clean[..4], "length prefix untouched");
            let err = decode_frame(&bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "h={h}");
        }
    }

    #[test]
    fn messages_roundtrip() {
        let reqs = [
            Request::Hello,
            Request::Read { local: 9 },
            Request::Ping { nonce: 0xDEAD_BEEF },
            Request::Shutdown,
        ];
        // Under a frame checksum that verified, a damaged payload is an
        // error or a message that says exactly those bytes — never a
        // panic, never a read past them.
        for req in reqs {
            let (kind, payload) = req.encode();
            assert_eq!(Request::decode(kind, &payload).unwrap(), req);
            sweep(&payload, |bad, _| {
                if let Ok(back) = Request::decode(kind, bad) {
                    assert_eq!(back.encode(), (kind, bad.to_vec()));
                }
            });
        }
        let resps = [
            Response::ShardInfo(ShardInfo {
                regions: 2,
                p: 3,
                arity: 2,
                coords: vec![1, 2, 3, 4],
            }),
            Response::Block(vec![1, 2, 3]),
            Response::Pong { nonce: 7 },
            Response::Bye { peak_rss_bytes: 1 << 20 },
            Response::ReadErr { code: 1, message: "corrupt".into() },
        ];
        for resp in resps {
            let (kind, payload) = resp.encode();
            assert_eq!(Response::decode(kind, &payload).unwrap(), resp);
            sweep(&payload, |bad, _| {
                if let Ok(back) = Response::decode(kind, bad) {
                    assert_eq!(back.encode(), (kind, bad.to_vec()));
                }
            });
        }
    }

    #[test]
    fn malformed_messages_are_classified_never_panic() {
        assert!(Request::decode(0x7f, &[]).is_err(), "unknown request kind");
        assert!(Request::decode(REQ_READ, &[1, 2]).is_err(), "short read payload");
        assert!(Request::decode(REQ_HELLO, &[9]).is_err(), "trailing bytes");
        assert!(Response::decode(0x10, &[]).is_err(), "unknown response kind");
        assert!(Response::decode(RESP_READ_ERR, &[]).is_err(), "missing code");
        assert!(
            Response::decode(RESP_READ_ERR, &[0, 0xff, 0xfe]).is_err(),
            "non-utf8 message"
        );
        // Coordinate count that would overflow is rejected structurally.
        let mut p = Vec::new();
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        p.extend_from_slice(&2u32.to_le_bytes());
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(RESP_SHARD_INFO, &p).is_err());
    }

    #[test]
    fn error_kinds_roundtrip_through_codes() {
        for kind in [
            io::ErrorKind::InvalidData,
            io::ErrorKind::NotFound,
            io::ErrorKind::Interrupted,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::PermissionDenied,
        ] {
            assert_eq!(decode_error_kind(encode_error_kind(kind)), kind);
        }
        assert_eq!(decode_error_kind(encode_error_kind(io::ErrorKind::Other)), io::ErrorKind::Other);
        assert_eq!(decode_error_kind(200), io::ErrorKind::Other);
    }
}
