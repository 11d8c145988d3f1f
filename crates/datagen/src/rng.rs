//! Seeded random helpers shared by all generators.
//!
//! Everything is driven by an explicit-seeded stream of the workspace's
//! one SplitMix64 (the one that shuffles CV folds), so each experiment
//! in EXPERIMENTS.md regenerates byte-identical datasets. (The build
//! environment has no crates.io access, so `rand` cannot be a
//! dependency.)

use bellwether_core::seeded::SplitMix64;

/// Deterministic random source with the distributions the generators
/// need (uniform, normal via Box–Muller, log-normal).
pub struct Gen {
    rng: SplitMix64,
    spare_normal: Option<f64>,
}

impl Gen {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: SplitMix64::new(seed),
            spare_normal: None,
        }
    }

    /// Uniform f64 in `[0, 1)` with 53 random mantissa bits.
    fn unit(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty uniform range");
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`; panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.next_below(n)
    }

    /// Bernoulli with probability `p`.
    pub fn flip(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller (cached pair).
    pub fn std_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let u1: f64 = self.unit().max(f64::MIN_POSITIVE);
        let u2: f64 = self.unit();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.std_normal()
    }

    /// Log-normal: `exp(N(mu, sigma))`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        self.rng.shuffle(xs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Gen::new(5);
        let mut b = Gen::new(5);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
            assert_eq!(a.std_normal(), b.std_normal());
        }
    }

    /// Every generated dataset is a function of this stream: a uniform, a
    /// bounded draw, a Box–Muller pair and a shuffle from one seed, pinned
    /// as literals, so a change to the stream fails here before it moves a
    /// dataset or a figure.
    #[test]
    fn stream_is_pinned() {
        let mut g = Gen::new(0xB311);
        assert_eq!(g.uniform(0.0, 1.0).to_bits(), 0x3fb6_3b8d_ab93_14b0);
        assert_eq!(g.below(1000), 605);
        assert_eq!(g.std_normal().to_bits(), 0x3ff2_2689_a229_df97);
        assert_eq!(g.std_normal().to_bits(), 0xbff4_9049_c86e_af7b);
        let mut xs: Vec<u32> = (0..8).collect();
        g.shuffle(&mut xs);
        assert_eq!(xs, [3, 4, 6, 5, 7, 0, 1, 2]);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut g = Gen::new(11);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| g.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut g = Gen::new(2);
        for _ in 0..1000 {
            let x = g.uniform(-1.0, 2.0);
            assert!((-1.0..2.0).contains(&x));
            assert!(g.below(7) < 7);
        }
    }

    #[test]
    fn log_normal_is_positive() {
        let mut g = Gen::new(3);
        for _ in 0..100 {
            assert!(g.log_normal(0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut g = Gen::new(4);
        let mut xs: Vec<u32> = (0..50).collect();
        g.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
