//! A minimal wall-clock micro-benchmark harness.
//!
//! The workspace builds offline, so the benches use this small local
//! runner instead of Criterion: warm up, take a fixed number of timed
//! samples, report min and median. Benches register with
//! `harness = false` in the manifest and drive a [`Harness`] from
//! `main`.

use std::hint::black_box;
use std::time::Instant;

/// Timing summary for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name, e.g. `cube_pass_retail_150x8x10/threads=1`.
    pub name: String,
    /// Per-sample wall-clock seconds.
    pub samples: Vec<f64>,
}

impl BenchResult {
    /// Fastest sample — the least-noise estimate on a busy machine.
    pub fn min_secs(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median sample.
    pub fn median_secs(&self) -> f64 {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        match s.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => s[n / 2],
            n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        }
    }
}

/// The benchmark runner: collects [`BenchResult`]s and prints a line
/// per benchmark as it goes.
pub struct Harness {
    /// Timed samples per benchmark.
    pub sample_size: usize,
    /// Warm-up iterations before sampling.
    pub warmup_iters: usize,
    /// Completed results, in registration order.
    pub results: Vec<BenchResult>,
}

impl Harness {
    /// 10 samples after 2 warm-up iterations.
    pub fn new() -> Self {
        Harness {
            sample_size: 10,
            warmup_iters: 2,
            results: Vec::new(),
        }
    }

    /// Time `f`: warm up, then record `sample_size` samples. The return
    /// value is routed through [`black_box`] so the work is not
    /// optimised away.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &BenchResult {
        for _ in 0..self.warmup_iters {
            black_box(f());
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(f());
            samples.push(start.elapsed().as_secs_f64());
        }
        let result = BenchResult {
            name: name.to_string(),
            samples,
        };
        println!(
            "{:<56} min {:>10.6}s  median {:>10.6}s  ({} samples)",
            result.name,
            result.min_secs(),
            result.median_secs(),
            result.samples.len()
        );
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// Look up a completed result by exact name.
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_samples_and_summaries() {
        let mut h = Harness {
            sample_size: 4,
            warmup_iters: 1,
            results: Vec::new(),
        };
        h.bench("noop", || 1 + 1);
        let r = h.result("noop").unwrap();
        assert_eq!(r.samples.len(), 4);
        assert!(r.min_secs() <= r.median_secs());
        assert!(r.median_secs().is_finite());
    }
}
