//! A minimal wall-clock micro-benchmark harness.
//!
//! The workspace builds offline, so the benches use this small local
//! runner instead of Criterion: warm up, take a fixed number of timed
//! samples, report min/median/mean, and optionally dump everything as
//! JSON under `results/`. Benches register with `harness = false` in
//! the manifest and drive a [`Harness`] from `main`.

use bellwether_obs::json;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timing summary for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name, e.g. `cube_pass_retail_150x8x10/threads=2`.
    pub name: String,
    /// Per-sample wall-clock seconds (each sample may batch several
    /// iterations; values are per-iteration).
    pub samples: Vec<f64>,
    /// Peak resident set across the timed samples, when the platform
    /// exposes it (see [`crate::rss`]). The high-water mark is reset
    /// after warm-up, so this is per-benchmark, not per-process.
    pub peak_rss_bytes: Option<u64>,
    /// Median of the same cell at the parent of the commit that added
    /// or reworked it, measured on this harness and machine: the
    /// baseline a committed-results ratchet divides by. Set through
    /// [`Harness::record_parent_median`].
    pub parent_median_secs: Option<f64>,
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

    /// Mean sample.
    pub fn mean_secs(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
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
    /// Facts about the machine the numbers depend on (which kernel a
    /// run-time dispatch picked, say), written as the JSON's
    /// `environment` object. Set through [`Harness::record_environment`].
    pub environment: Vec<(String, String)>,
}

impl Harness {
    /// Default configuration: 10 samples, 2 warm-up iterations.
    /// `BW_BENCH_SAMPLES` overrides the sample count; `BW_QUICK=1`
    /// drops to 3 samples for smoke runs.
    pub fn new() -> Self {
        let mut sample_size = 10;
        if crate::quick_mode() {
            sample_size = 3;
        }
        if let Ok(v) = std::env::var("BW_BENCH_SAMPLES") {
            if let Ok(n) = v.parse::<usize>() {
                sample_size = n.max(1);
            }
        }
        Harness {
            sample_size,
            warmup_iters: 2,
            results: Vec::new(),
            environment: Vec::new(),
        }
    }

    /// Time `f`: warm up, then record `sample_size` samples. The return
    /// value is routed through [`black_box`] so the work is not
    /// optimised away.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &BenchResult {
        for _ in 0..self.warmup_iters {
            black_box(f());
        }
        // Reset the RSS high-water mark after warm-up so the reported
        // peak covers only the timed samples of *this* benchmark.
        bellwether_obs::reset_peak_rss();
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(f());
            samples.push(start.elapsed().as_secs_f64());
        }
        let result = BenchResult {
            name: name.to_string(),
            samples,
            peak_rss_bytes: bellwether_obs::peak_rss_bytes(),
            parent_median_secs: None,
        };
        let rss = match result.peak_rss_bytes {
            Some(b) => format!("{:>7.1} MiB", b as f64 / (1024.0 * 1024.0)),
            None => "     n/a".to_string(),
        };
        println!(
            "{:<44} min {:>10.6}s  median {:>10.6}s  mean {:>10.6}s  peak-rss {rss}  ({} samples)",
            result.name,
            result.min_secs(),
            result.median_secs(),
            result.mean_secs(),
            result.samples.len()
        );
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// Serialize all results as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        if !self.environment.is_empty() {
            let facts: Vec<String> = self
                .environment
                .iter()
                .map(|(k, v)| format!("\"{}\": \"{}\"", json::escape(k), json::escape(v)))
                .collect();
            out.push_str(&format!("  \"environment\": {{{}}},\n", facts.join(", ")));
        }
        out.push_str("  \"benchmarks\": [");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"name\": \"{}\",\n",
                json::escape(&r.name)
            ));
            out.push_str(&format!(
                "      \"min_secs\": {},\n",
                json::number(r.min_secs())
            ));
            out.push_str(&format!(
                "      \"median_secs\": {},\n",
                json::number(r.median_secs())
            ));
            out.push_str(&format!(
                "      \"mean_secs\": {},\n",
                json::number(r.mean_secs())
            ));
            out.push_str(&format!(
                "      \"peak_rss_bytes\": {},\n",
                r.peak_rss_bytes
                    .map_or_else(|| "null".to_string(), |b| b.to_string())
            ));
            if let Some(parent) = r.parent_median_secs {
                out.push_str(&format!(
                    "      \"parent_median_secs\": {},\n",
                    json::number(parent)
                ));
            }
            let samples: Vec<String> = r.samples.iter().map(|s| json::number(*s)).collect();
            out.push_str(&format!(
                "      \"samples\": [{}]\n",
                samples.join(", ")
            ));
            out.push_str("    }");
        }
        out.push_str("\n  ]\n}");
        out
    }

    /// Write [`Harness::to_json`] to `path`, creating parent dirs.
    pub fn emit_json(&self, path: &Path) {
        write_json(path, &self.to_json());
    }

    /// Record beside the completed result `name` what the same cell
    /// took at the parent commit (see [`BenchResult::parent_median_secs`]).
    pub fn record_parent_median(&mut self, name: &str, secs: f64) {
        let result = self.results.iter_mut().find(|r| r.name == name);
        result.expect("a completed benchmark").parent_median_secs = Some(secs);
    }

    /// Record one fact about the machine for the JSON's `environment`
    /// object.
    pub fn record_environment(&mut self, key: &str, value: &str) {
        self.environment.push((key.to_string(), value.to_string()));
    }

    /// Look up a completed result by exact name.
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }
}

/// Write a [`bellwether_obs::MetricsSnapshot`] as JSON under `results/`
/// next to the timing output, creating parent dirs. Benches run the
/// workload once more with a live [`bellwether_obs::Registry`] and dump
/// the counters/spans here so a run leaves both a timing and a work
/// profile behind.
pub fn emit_metrics_json(snap: &bellwether_obs::MetricsSnapshot, path: &Path) {
    write_json(path, &snap.to_json());
}

fn write_json(path: &Path, body: &str) {
    if let Some(dir) = path.parent() {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {dir:?}: {e}");
            return;
        }
    }
    match fs::write(path, body) {
        Ok(()) => println!("(wrote {})", path.display()),
        Err(e) => eprintln!("warning: cannot write {path:?}: {e}"),
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
            environment: Vec::new(),
        };
        h.bench("noop", || 1 + 1);
        let r = h.result("noop").unwrap();
        assert_eq!(r.samples.len(), 4);
        assert!(r.min_secs() <= r.median_secs());
        assert!(r.median_secs().is_finite());
    }

    #[test]
    fn json_contains_all_benchmarks() {
        let mut h = Harness {
            sample_size: 2,
            warmup_iters: 0,
            results: Vec::new(),
            environment: Vec::new(),
        };
        h.bench("a", || ());
        h.bench("b", || ());
        let j = h.to_json();
        assert!(j.contains("\"name\": \"a\""));
        assert!(j.contains("\"name\": \"b\""));
        assert!(j.contains("\"median_secs\""));
        assert!(!j.contains("parent_median_secs"));
        assert!(!j.contains("environment"));
        h.record_parent_median("b", 0.25);
        h.record_environment("crc32_kernel", "table");
        let j = h.to_json();
        assert!(j.contains("\"parent_median_secs\": 0.25"));
        assert!(j.contains("\"environment\": {\"crc32_kernel\": \"table\"},"));
    }
}
