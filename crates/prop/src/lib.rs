//! # bellwether-prop
//!
//! A tiny, dependency-free randomized property-testing harness. The
//! build environment has no network access to crates.io, so `proptest`
//! cannot be vendored; this crate supplies the subset the workspace
//! actually needs: a deterministic RNG, value generators, a case
//! runner that reports the failing case seed for reproduction, and
//! [`sweep`], the hostile-bytes loop every decoder test runs.
//!
//! ```
//! use bellwether_prop::{check, Rng};
//!
//! check("addition commutes", 64, |rng| {
//!     let a = rng.i64_in(-100, 100);
//!     let b = rng.i64_in(-100, 100);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// SplitMix64 — tiny deterministic RNG, one u64 of state. The same
/// construction the workspace already uses for cross-validation fold
/// shuffling; duplicated here so dev-only code never links into the
/// library crates.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    /// Uniform i64 in `[lo, hi)`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform u32 in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % (hi - lo) as u64) as u32
    }

    /// Bernoulli with probability `p`.
    pub fn flip(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform choice from a non-empty slice.
    pub fn choice<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// A vector of `len ∈ [min_len, max_len)` elements drawn by `gen`.
    pub fn vec_of<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut gen: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| gen(self)).collect()
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

/// One way [`sweep`] damages a valid encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// Cut to its first `len` bytes.
    Truncated {
        /// Bytes kept.
        len: usize,
    },
    /// One bit inverted.
    Flipped {
        /// Offset of the damaged byte.
        byte: usize,
        /// Which of its bits, `0..8`.
        bit: u8,
    },
}

/// Hostile bytes for a decoder: hand `probe` every truncation of
/// `valid` (every length short of the whole) and every single-bit flip
/// of it, each with the [`Damage`] done. `probe` decodes and asserts
/// its own verdict; a panic inside it — the decoder's or an
/// assertion's — is re-raised naming the damage that caused it.
pub fn sweep(valid: &[u8], mut probe: impl FnMut(&[u8], Damage)) {
    let mut run = |bytes: &[u8], damage: Damage| {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe(bytes, damage)));
        if let Err(payload) = outcome {
            panic!("{damage:?}: {}", panic_message(payload.as_ref()));
        }
    };
    for len in 0..valid.len() {
        run(&valid[..len], Damage::Truncated { len });
    }
    let mut bytes = valid.to_vec();
    for byte in 0..valid.len() {
        for bit in 0..8 {
            bytes[byte] ^= 1 << bit;
            run(&bytes, Damage::Flipped { byte, bit });
            bytes[byte] ^= 1 << bit;
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// Run `cases` random test cases of `body`, each with a per-case seeded
/// [`Rng`]. On panic, re-raises with the property name and case seed so
/// the failure reproduces with `Rng::new(seed)`.
pub fn check(name: &str, cases: u64, body: impl Fn(&mut Rng)) {
    // Derive per-case seeds from the property name so distinct
    // properties explore distinct streams.
    let name_hash = name
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        });
    for case in 0..cases {
        let seed = name_hash ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = Rng::new(seed);
            body(&mut rng);
        }));
        if let Err(payload) = result {
            let msg = panic_message(payload.as_ref());
            panic!("property {name:?} failed on case {case} (seed {seed:#x}): {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respected() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.f64()));
            let x = r.f64_in(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
            assert!(r.below(7) < 7);
            let y = r.i64_in(-10, 10);
            assert!((-10..10).contains(&y));
            let z = r.u32_in(2, 9);
            assert!((2..9).contains(&z));
        }
    }

    #[test]
    fn check_runs_all_cases() {
        let counter = std::sync::atomic::AtomicU64::new(0);
        check("counting", 10, |_| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 10);
    }

    #[test]
    #[should_panic(expected = "property \"always fails\" failed on case 0")]
    fn check_reports_failing_seed() {
        check("always fails", 5, |_| panic!("boom"));
    }

    #[test]
    fn sweep_yields_every_truncation_and_every_single_bit_flip_once() {
        let valid = [0x0fu8, 0xf0, 0xaa];
        let mut seen = Vec::new();
        sweep(&valid, |bytes, damage| {
            match damage {
                Damage::Truncated { len } => assert_eq!(bytes, &valid[..len]),
                Damage::Flipped { byte, bit } => {
                    let mut expect = valid;
                    expect[byte] ^= 1 << bit;
                    assert_eq!(bytes, expect);
                }
            }
            seen.push(damage);
        });
        assert_eq!(seen.len(), 3 + 3 * 8);
        seen.dedup();
        assert_eq!(seen.len(), 3 + 3 * 8, "no damage repeated");
    }

    #[test]
    #[should_panic(expected = "Flipped { byte: 1, bit: 0 }: decoder blew up")]
    fn sweep_names_the_damage_that_panicked() {
        sweep(&[0, 0], |bytes, _| assert!(bytes.get(1) != Some(&1), "decoder blew up"));
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = Rng::new(3);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
