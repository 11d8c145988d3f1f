//! The byte layer under every on-disk and on-wire format of the
//! workspace, written once: a checked little-endian reader
//! ([`Cursor`]), the matching writer ([`PutLe`]) and the
//! "payload ‖ CRC-32" pair ([`seal`] / [`verify`]).
//!
//! **Totality.** Every read is checked against the bytes left and
//! returns `InvalidData` past the end — no input of any length panics —
//! and a count read from the input is refused ([`Cursor::count`]) unless
//! the bytes left could hold that many elements, so nothing is
//! allocated for a length its payload could not fill, whatever checksum
//! the payload passed.
//!
//! **The verdict.** [`verify`] only says whether the trailer matches.
//! What a mismatch *means* is the caller's: blocks, `.bwsn` sections
//! and the shard manifest turn the [`CorruptBlock`] into the
//! [`is_corrupt`](crate::format::is_corrupt) `io::Error` (stored bytes
//! are wrong: permanent, never retried); the coordinator calls a bad
//! frame a *transport* fault and restarts the worker.

use crate::crc32::crc32;
use crate::format::CorruptBlock;
use std::io;

/// Trailing checksum length of a sealed payload.
pub const CHECKSUM_LEN: usize = 4;

/// Structural damage: `InvalidData`, and not [`CorruptBlock`].
pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Checked little-endian cursor over a byte slice (cloning one is how
/// a decoder looks ahead).
#[derive(Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
}

macro_rules! get_le {
    ($($ty:ident: $get:ident, $lane:ident, $vec:ident;)*) => {$(
        #[doc = concat!("The next `", stringify!($ty), "`, bit-exact.")]
        #[inline]
        pub fn $get(&mut self) -> io::Result<$ty> {
            Ok($ty::from_le_bytes(self.take()?))
        }

        #[doc = concat!("The next `n` `", stringify!($ty), "`s, unprefixed; fails before")]
        /// allocating when the bytes left do not hold them.
        #[inline]
        pub fn $lane(&mut self, n: usize) -> io::Result<Vec<$ty>> {
            const W: usize = std::mem::size_of::<$ty>();
            let bytes = n.checked_mul(W).ok_or_else(|| bad("lane length overflows"))?;
            Ok(self
                .take_span(bytes)?
                .chunks_exact(W)
                .map(|c| $ty::from_le_bytes(c.try_into().expect("chunks of W bytes")))
                .collect())
        }

        #[doc = concat!("A `u64` count ([`Cursor::get_count`]), then that many `", stringify!($ty), "`s.")]
        pub fn $vec(&mut self) -> io::Result<Vec<$ty>> {
            let n = self.get_count(std::mem::size_of::<$ty>())?;
            self.$lane(n)
        }
    )*};
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf }
    }

    /// Bytes not read yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails unless every byte has been read.
    pub fn done(&self) -> io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(bad("trailing bytes"))
        }
    }

    /// An element count read as `n`, each element at least
    /// `min_item_bytes` long: refused unless the bytes left can hold
    /// that many, so a count never sizes an allocation its payload
    /// could not fill — whatever checksum the payload passed.
    #[inline]
    pub fn count(&self, n: u64, min_item_bytes: usize) -> io::Result<usize> {
        let fits = self.buf.len() / min_item_bytes;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= fits)
            .ok_or_else(|| bad("count exceeds its payload"))
    }

    /// A `u64` count prefix, checked by [`Cursor::count`].
    #[inline]
    pub fn get_count(&mut self, min_item_bytes: usize) -> io::Result<usize> {
        let n = self.get_u64_le()?;
        self.count(n, min_item_bytes)
    }

    #[inline]
    fn take<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let (head, tail) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or_else(|| bad("unexpected end of input"))?;
        self.buf = tail;
        Ok(*head)
    }

    /// Borrow the next `len` bytes without copying.
    #[inline]
    pub fn take_span(&mut self, len: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() < len {
            return Err(bad("unexpected end of input"));
        }
        let (head, tail) = self.buf.split_at(len);
        self.buf = tail;
        Ok(head)
    }

    get_le! {
        u32: get_u32_le, get_u32_lane, get_u32_vec;
        u64: get_u64_le, get_u64_lane, get_u64_vec;
        i64: get_i64_le, get_i64_lane, get_i64_vec;
        f64: get_f64_le, get_f64_lane, get_f64_vec;
    }

    /// The next byte.
    #[inline]
    pub fn get_u8(&mut self) -> io::Result<u8> {
        Ok(self.take::<1>()?[0])
    }

    /// A `u64` that must fit a `usize` (an index or a size).
    #[inline]
    pub fn get_usize(&mut self) -> io::Result<usize> {
        usize::try_from(self.get_u64_le()?).map_err(|_| bad("oversized value"))
    }

    /// A `u64` count, then that many [`Cursor::get_usize`] values.
    pub fn get_usize_vec(&mut self) -> io::Result<Vec<usize>> {
        let n = self.get_count(8)?;
        (0..n).map(|_| self.get_usize()).collect()
    }

    /// An option tag (0 none, 1 some) and, under a 1, what `get` reads.
    pub fn get_option<T, E: From<io::Error>>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            _ => Err(bad("bad option tag").into()),
        }
    }

    /// A `u32` length followed by that many bytes of UTF-8.
    pub fn get_string(&mut self) -> io::Result<String> {
        let len = self.get_u32_le()? as usize;
        let text = std::str::from_utf8(self.take_span(len)?).map_err(|_| bad("invalid utf-8"))?;
        Ok(text.to_string())
    }
}

macro_rules! put_le {
    ($($ty:ident: $put:ident, $vec:ident;)*) => {$(
        #[doc = concat!("Append a `", stringify!($ty), "`, bit-exact.")]
        #[inline]
        fn $put(&mut self, v: $ty) {
            self.put_slice(&v.to_le_bytes());
        }

        #[doc = concat!("Append a `u64` count and that many `", stringify!($ty), "`s.")]
        fn $vec(&mut self, v: &[$ty]) {
            self.put_u64_le(v.len() as u64);
            v.iter().for_each(|&x| self.$put(x));
        }
    )*};
}

/// Little-endian append helpers, the writing half of [`Cursor`].
pub trait PutLe {
    /// Append raw bytes.
    fn put_slice(&mut self, s: &[u8]);

    put_le! {
        u32: put_u32_le, put_u32_vec;
        u64: put_u64_le, put_u64_vec;
        i64: put_i64_le, put_i64_vec;
        f64: put_f64_le, put_f64_vec;
    }

    /// Append one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a `u64` count and the values as `u64`s.
    fn put_usize_vec(&mut self, v: &[usize]) {
        self.put_u64_le(v.len() as u64);
        v.iter().for_each(|&x| self.put_u64_le(x as u64));
    }

    /// Append an option tag (0 none, 1 some) and, under a 1, what `put`
    /// writes.
    fn put_option<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.put_u8(v.is_some() as u8);
        if let Some(v) = v {
            put(self, v);
        }
    }

    /// Append a `u32` length and the string's bytes.
    fn put_str(&mut self, s: &str) {
        self.put_u32_le(s.len() as u32);
        self.put_slice(s.as_bytes());
    }
}

impl PutLe for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

/// Append the CRC-32 of `out[start..]` to `out`: everything from `start`
/// on becomes one sealed payload.
#[inline]
pub fn seal(out: &mut Vec<u8>, start: usize) {
    let sum = crc32(&out[start..]);
    out.put_u32_le(sum);
}

/// Split a sealed buffer into its payload and check the trailer over it
/// (everything before the trailer, any slack included) in one call;
/// only a payload that verifies is handed back for parsing. A buffer
/// too short to carry a trailer fails like any other truncation: the
/// stored checksum reads as 0 against what the bytes there sum to.
#[inline]
pub fn verify(sealed: &[u8]) -> Result<&[u8], CorruptBlock> {
    let Some((payload, trailer)) = sealed.split_last_chunk::<CHECKSUM_LEN>() else {
        return Err(CorruptBlock {
            expected: 0,
            actual: crc32(sealed),
        });
    };
    let (expected, actual) = (u32::from_le_bytes(*trailer), crc32(payload));
    if actual == expected {
        Ok(payload)
    } else {
        Err(CorruptBlock { expected, actual })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_prop::{sweep, Damage};

    #[test]
    fn every_form_round_trips_and_every_short_read_errors() {
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut buf = Vec::new();
        buf.put_option(Some(7), |buf, v| buf.put_u8(v));
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_i64_le(-12);
        buf.put_str("région");
        buf.put_u32_vec(&[1, 2, 3]);
        buf.put_i64_vec(&[-1, i64::MIN]);
        buf.put_f64_vec(&[nan, -0.0]);
        buf.put_usize_vec(&[9, 0]);
        let read = |buf: &[u8]| -> io::Result<()> {
            let mut c = Cursor::new(buf);
            assert_eq!(c.get_option(Cursor::get_u8)?, Some(7));
            assert_eq!((c.get_u32_le()?, c.get_i64_le()?), (0xDEAD_BEEF, -12));
            assert_eq!(c.get_string()?, "région");
            assert_eq!(c.get_u32_vec()?, [1, 2, 3]);
            assert_eq!(c.get_i64_vec()?, [-1, i64::MIN]);
            let bits: Vec<u64> = c.get_f64_vec()?.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, [nan.to_bits(), (-0.0f64).to_bits()]);
            assert_eq!(c.get_usize_vec()?, [9, 0]);
            c.done()
        };
        read(&buf).unwrap();
        sweep(&buf, |bytes, damage| {
            if let Damage::Truncated { .. } = damage {
                assert!(read(bytes).is_err(), "{damage:?} read");
            }
        });
        buf.push(0);
        assert!(read(&buf).is_err(), "trailing byte");
        // A count is held to the bytes left *before* anything is sized
        // from it, and a lane length cannot overflow its byte count.
        let mut forged = Vec::new();
        forged.put_u64_le(u64::MAX);
        forged.put_slice(&[0; 16]);
        assert!(Cursor::new(&forged).get_f64_vec().is_err());
        assert!(Cursor::new(&forged).get_usize_vec().is_err());
        assert!(Cursor::new(&forged).get_u64_lane(usize::MAX / 4).is_err());
        assert!(Cursor::new(&forged[..16]).count(3, 8).is_err());
        assert_eq!(Cursor::new(&forged[..16]).count(2, 8).unwrap(), 2);
    }

    #[test]
    fn sealed_payloads_verify_and_any_damage_does_not() {
        let mut buf = b"outside".to_vec();
        let start = buf.len();
        buf.put_slice(b"the sealed part");
        seal(&mut buf, start);
        assert_eq!(verify(&buf[start..]).unwrap(), b"the sealed part");
        sweep(&buf[start..], |bytes, damage| {
            assert!(verify(bytes).is_err(), "{damage:?} verified");
        });
    }
}
