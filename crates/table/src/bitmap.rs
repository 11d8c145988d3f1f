//! Compact validity bitmaps: the NULL masks inside columns and the
//! CUBE's output lanes.

/// A fixed-length bitmap backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap of length `len`.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones bitmap of length `len`.
    pub fn ones(len: usize) -> Self {
        let mut bm = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Write bit `i`. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if v {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Append a bit, growing the bitmap.
    pub fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        let last = self.len - 1;
        self.set(last, v);
    }

    /// Append every bit of `other`, a word at a time: each of its words
    /// lands shifted by this bitmap's offset into its last word.
    pub fn append(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &w in &other.words {
                *self.words.last_mut().expect("a partial word exists") |= w << shift;
                self.words.push(w >> (64 - shift));
            }
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(64));
    }

    /// Drop the first `n` bits, shifting the rest down a word at a time.
    /// Panics if `n` exceeds the length.
    pub fn drain_front(&mut self, n: usize) {
        assert!(n <= self.len, "bitmap drain {n} out of range {}", self.len);
        self.words.drain(..n / 64);
        let shift = n % 64;
        if shift != 0 {
            for i in 0..self.words.len() {
                let carry = self
                    .words
                    .get(i + 1)
                    .map_or(0, |&next| next << (64 - shift));
                self.words[i] = (self.words[i] >> shift) | carry;
            }
        }
        self.len -= n;
        self.words.truncate(self.len.div_ceil(64));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clear bits past `len` in the last word so `count_ones` stays exact.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(70);
        assert_eq!(z.count_ones(), 0);
        let o = Bitmap::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.get(69));
    }

    #[test]
    fn set_get_push() {
        let mut bm = Bitmap::zeros(3);
        bm.set(1, true);
        assert!(!bm.get(0) && bm.get(1) && !bm.get(2));
        bm.push(true);
        assert_eq!(bm.len(), 4);
        assert!(bm.get(3));
    }

    /// A bitmap of `len` bits, bit `i` set when `i * 7 + seed` is not a
    /// multiple of 3: irregular across word edges.
    fn pattern(len: usize, seed: usize) -> Bitmap {
        let mut bm = Bitmap::zeros(0);
        (0..len).for_each(|i| bm.push(!(i * 7 + seed).is_multiple_of(3)));
        bm
    }

    fn bits(bm: &Bitmap) -> Vec<bool> {
        (0..bm.len()).map(|i| bm.get(i)).collect()
    }

    #[test]
    fn append_matches_pushing_bit_by_bit_at_every_offset() {
        for at in 0..=130 {
            for len in [0, 1, 63, 64, 65, 130] {
                let other = pattern(len, at + 1);
                let mut got = pattern(at, 0);
                got.append(&other);
                let mut oracle = pattern(at, 0);
                bits(&other).into_iter().for_each(|b| oracle.push(b));
                assert_eq!(got, oracle, "append {len} bits at offset {at}");
                assert_eq!(got.count_ones(), oracle.count_ones());
            }
        }
    }

    #[test]
    fn drain_front_matches_the_bit_by_bit_tail_at_every_offset() {
        for n in 0..=130 {
            for len in [n, n + 1, n + 63, n + 64, 200] {
                let mut got = pattern(len, n);
                let mut oracle = Bitmap::zeros(0);
                bits(&got)[n..].iter().for_each(|&b| oracle.push(b));
                got.drain_front(n);
                assert_eq!(got, oracle, "drain {n} of {len} bits");
                assert_eq!(got.count_ones(), oracle.count_ones());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::zeros(4).get(4);
    }
}
