//! CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant), implemented
//! here so the offline build environment needs no `crc32fast`
//! dependency.
//!
//! Used by the v2 on-disk format to checksum every region block: CRC-32
//! detects all single-bit and two-bit errors, any odd number of bit
//! errors, and any burst shorter than 32 bits — which covers the
//! realistic "a byte rotted on disk" failure mode exactly.
//!
//! One entry point, [`crc32_update`] ([`crc32`] is the one-shot form),
//! over three kernels that compute the same function:
//!
//! * a **carry-less-multiply fold** (`clmul`, private): on `x86_64`
//!   CPUs that report `pclmulqdq`, inputs of 64 bytes or more are folded
//!   64 bytes a step in four independent 128-bit accumulators — no step
//!   waits for the previous register, which is what capped the table
//!   kernel. [`kernel`] says whether this machine takes it.
//! * [`crc32_table`] — *slice-by-8*: eight 256-entry compile-time
//!   tables fold 8 input bytes per iteration. Every other architecture,
//!   every CPU without the instruction and every input under 64 bytes
//!   takes it, and it finishes what the fold leaves (its last 128 bits
//!   and the tail under 16 bytes).
//! * [`crc32_bytewise`] — one table lookup per byte, kept as the
//!   reference oracle the other two are tested against.
//!
//! The dispatch looks at the CPU and the input length and nothing else;
//! the digest, and so every byte on disk and on the wire, is the same
//! whichever kernel ran.

/// Raw CRC register initial value (all ones, per the IEEE spec).
pub const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Eight 256-entry tables for the reflected IEEE polynomial
/// `0xEDB88320`. `TABLES[0]` is the classic bytewise table;
/// `TABLES[k][b]` is the CRC contribution of byte `b` seen `k` bytes
/// before the current fold point, so eight lookups advance the
/// register by eight input bytes at once.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Advance a raw CRC register over `data` with the slice-by-8 table
/// kernel, whatever the CPU: the path [`crc32_update`] takes on every
/// architecture but `x86_64`, on CPUs without `pclmulqdq` and for
/// inputs under 64 bytes, and the one that finishes a folded input.
pub fn crc32_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    bytewise_update(crc, chunks.remainder())
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ"; the constants are zlib's for
/// the reflected IEEE polynomial). The only `unsafe` in the workspace
/// lives here, behind the safe `fold`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi32_si128, _mm_set_epi64x,
        _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input folded: one 64-byte step seeds the accumulators.
    const MIN_LEN: usize = 64;

    /// `x^(512+32) mod P` and `x^(512-32) mod P`, bit-reflected: carry
    /// an accumulator across the 64 bytes the other three cover.
    const K1: i64 = 0x01_5444_2bd4;
    const K2: i64 = 0x01_c6e4_1596;
    /// `x^(128+32) mod P` and `x^(128-32) mod P`, bit-reflected: carry
    /// an accumulator across the next 16 bytes.
    const K3: i64 = 0x01_7519_97d0;
    const K4: i64 = 0x00_ccaa_009e;

    /// True when `fold` takes inputs of `MIN_LEN` bytes or more on this
    /// CPU.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    /// Fold `data` down to 128 bits, or `None` when the input is under
    /// 64 bytes or the CPU lacks `pclmulqdq`. With `(acc, tail)`
    /// returned, the register after `data` from `crc` is the register
    /// after `acc` then `tail` from **zero**: CRC is linear, so `crc` is
    /// absorbed by XOR into the first four bytes, and `tail` (under 16
    /// bytes) is what the 16-byte steps left over.
    pub(super) fn fold(crc: u32, data: &[u8]) -> Option<([u8; 16], &[u8])> {
        if data.len() < MIN_LEN || !available() {
            return None;
        }
        // SAFETY: `available()` just reported `pclmulqdq` at run time,
        // the one target feature `fold_detected` is compiled with beyond
        // the `x86_64` baseline.
        Some(unsafe { fold_detected(crc, data) })
    }

    /// One 16-byte lane as a vector. Safe code: `lane` comes out of
    /// `chunks_exact(16)`, and the two halves are little-endian words.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(lane: &[u8]) -> __m128i {
        let (lo, hi) = lane.split_at(8);
        _mm_set_epi64x(
            i64::from_le_bytes(hi.try_into().expect("16-byte lane")),
            i64::from_le_bytes(lo.try_into().expect("16-byte lane")),
        )
    }

    /// `acc · x^distance mod P`, XORed onto `next`: the low half of
    /// `acc` times the constant that carries it `distance + 32` bits,
    /// the high half times the one for `distance - 32`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_onto(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    #[target_feature(enable = "pclmulqdq")]
    fn fold_detected(crc: u32, data: &[u8]) -> ([u8; 16], &[u8]) {
        let mut steps = data.chunks_exact(MIN_LEN);
        let first = steps.next().expect("fold checked the length");
        let mut x = [_mm_cvtsi32_si128(0); 4];
        for (x, lane) in x.iter_mut().zip(first.chunks_exact(16)) {
            *x = load(lane);
        }
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for step in &mut steps {
            for (x, lane) in x.iter_mut().zip(step.chunks_exact(16)) {
                *x = fold_onto(*x, k1k2, load(lane));
            }
        }
        // Four accumulators to one, then whole 16-byte lanes of what
        // the 64-byte steps left.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_onto(x[0], k3k4, x[1]);
        acc = fold_onto(acc, k3k4, x[2]);
        acc = fold_onto(acc, k3k4, x[3]);
        let mut lanes = steps.remainder().chunks_exact(16);
        for lane in &mut lanes {
            acc = fold_onto(acc, k3k4, load(lane));
        }
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&_mm_cvtsi128_si64(acc).to_le_bytes());
        out[8..].copy_from_slice(&_mm_cvtsi128_si64(_mm_srli_si128::<8>(acc)).to_le_bytes());
        (out, lanes.remainder())
    }
}

/// Which kernel [`crc32_update`] runs inputs of 64 bytes or more
/// through on this machine: `"clmul"` or `"table"`. Benchmarks and the
/// observability example print it, so a run on a CPU that took the slow
/// path says so.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if clmul::available() {
        return "clmul";
    }
    "table"
}

/// Advance a raw CRC register (pre-init, pre-xor — start from
/// [`CRC_INIT`]) over `data`, returning the new register value. Feed
/// sections in order and finish with [`crc32_finish`] to get the same
/// digest as [`crc32`] over their concatenation.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some((folded, tail)) = clmul::fold(crc, data) {
        // The last 128 bits go through the table kernel as a 16-byte
        // message from a zero register: no Barrett reduction to carry.
        return crc32_table(crc32_table(0, &folded), tail);
    }
    crc32_table(crc, data)
}

/// Final xor turning a raw register into the published CRC-32 digest.
#[inline]
pub fn crc32_finish(crc: u32) -> u32 {
    crc ^ 0xFFFF_FFFF
}

/// CRC-32 of `data` (IEEE polynomial, `0xFFFFFFFF` init and final xor —
/// byte-compatible with zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC_INIT, data))
}

/// Reference bytewise CRC-32 (the original implementation). Identical
/// output to [`crc32`], one table lookup per byte. Kept as the oracle
/// for the other two kernels and for the kernel microbenchmarks.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    crc32_finish(bytewise_update(CRC_INIT, data))
}

fn bytewise_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_prop::{check, Rng};

    fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// The three kernels advance `crc` over `data` identically;
    /// returns the register.
    fn agreed_update(crc: u32, data: &[u8]) -> u32 {
        let oracle = bytewise_update(crc, data);
        assert_eq!(crc32_table(crc, data), oracle, "table, len {}", data.len());
        assert_eq!(crc32_update(crc, data), oracle, "dispatched, len {}", data.len());
        oracle
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // The oracle agrees on the same vectors.
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
        // zlib's digests of inputs long enough to fold: four whole
        // 64-byte steps; 15 steps, two 16-byte lanes and an 8-byte tail.
        let ramp: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32(&ramp), 0x2905_8C73);
        assert_eq!(crc32(&[b'a'; 1000]), 0x9A38_DA03);
    }

    #[test]
    fn single_bit_flips_always_change_the_crc() {
        let data = b"bellwether region block payload".to_vec();
        let clean = crc32(&data);
        bellwether_prop::sweep(&data, |damaged, damage| {
            assert_ne!(crc32(damaged), clean, "{damage:?}");
        });
    }

    /// The table kernel on its own — the whole of `crc32_update` on
    /// every architecture but `x86_64`.
    #[test]
    fn slice_by_8_matches_bytewise_on_random_inputs() {
        // Lengths straddle the 8-byte fold boundary (0..=40 covers every
        // remainder class several times), and a random start offset
        // exercises unaligned slices.
        check("crc32/slice_by_8_equivalence", 500, |rng: &mut Rng| {
            let len = rng.usize_in(0, 40) + [0, 64, 1024][rng.usize_in(0, 2)];
            let offset = rng.usize_in(0, 7);
            let bytes = random_bytes(rng, offset + len);
            let slice = &bytes[offset..];
            assert_eq!(
                crc32_finish(crc32_table(CRC_INIT, slice)),
                crc32_bytewise(slice)
            );
        });
    }

    /// Every length across the 64-byte dispatch threshold, five 64-byte
    /// steps and every lane/tail remainder, at every alignment, from
    /// the initial, the zero and an arbitrary register.
    #[test]
    fn kernels_agree_at_every_length_offset_and_register() {
        let mut rng = Rng::new(0xC10C);
        let bytes = random_bytes(&mut rng, 320 + 16);
        for crc in [CRC_INIT, 0, rng.next_u64() as u32] {
            for offset in 0..16 {
                for len in 0..=320 {
                    agreed_update(crc, &bytes[offset..offset + len]);
                }
            }
        }
    }

    #[test]
    fn kernels_agree_on_random_lengths_to_a_mebibyte() {
        check("crc32/kernels_agree_to_1mib", 24, |rng: &mut Rng| {
            let len = rng.usize_in(0, (1 << 20) + 1);
            let offset = rng.usize_in(0, 16);
            let bytes = random_bytes(rng, offset + len);
            agreed_update(rng.next_u64() as u32, &bytes[offset..]);
        });
    }

    #[test]
    fn incremental_update_matches_one_shot_at_any_split() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = crc32(&data);
        assert_eq!(whole, 0x0FF1_6903, "zlib's digest");
        for split in 0..=data.len() {
            let crc = crc32_update(CRC_INIT, &data[..split]);
            let crc = crc32_update(crc, &data[split..]);
            assert_eq!(crc32_finish(crc), whole, "split {split}");
        }
    }

    /// One to five `crc32_update` calls over pieces on both sides of the
    /// fold threshold carry the register exactly like one call.
    #[test]
    fn any_split_into_one_to_five_updates_matches_one_shot() {
        check("crc32/multi_piece_update", 300, |rng: &mut Rng| {
            let pieces = rng.usize_in(1, 6);
            let lens: Vec<usize> = (0..pieces)
                .map(|_| match rng.below(3) {
                    0 => rng.usize_in(0, 64),
                    1 => rng.usize_in(64, 400),
                    _ => rng.usize_in(400, 5000),
                })
                .collect();
            let bytes = random_bytes(rng, lens.iter().sum());
            let start = rng.next_u64() as u32;
            let mut crc = start;
            let mut at = 0;
            for len in lens {
                crc = agreed_update(crc, &bytes[at..at + len]);
                at += len;
            }
            assert_eq!(crc, bytewise_update(start, &bytes));
        });
    }

    #[test]
    fn kernel_names_one_of_the_two_paths() {
        assert!(matches!(kernel(), "clmul" | "table"));
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(kernel(), "table");
    }
}
