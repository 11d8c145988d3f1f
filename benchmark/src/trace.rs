//! The traced pass: spans recorded from the benchmark's own files, around
//! calls into each layer's public functions.
//!
//! Spans stay in memory and are written to
//! `benchmark/out/trace-<workload>.json` when the run ends. A layer's
//! self time is its span minus the part its children cover. With the
//! tracer off (`--trace 0`, and always during warm-up) `span` is one
//! branch and no clock read.

use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span that wraps one timed iteration of a workload.
pub const ITERATION: &str = "iteration";

/// One recorded span. `iteration` is `None` for probes that run outside
/// the timed iterations (thread-1 reruns, shadow replays).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: Option<u32>,
}

pub struct Tracer {
    /// Whether `span` records. Workloads switch it on after warm-up.
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iteration: Option<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; nested calls become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Like [`Tracer::span`], and also returns the wall seconds of `f`
    /// whether or not the tracer is on.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let started = Instant::now();
        let out = self.span(name, f);
        (out, started.elapsed().as_secs_f64())
    }

    /// One timed iteration: an [`ITERATION`] span numbered `i`, whose
    /// descendants carry the same number. Returns the wall seconds.
    pub fn iteration<R>(&mut self, i: u32, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        self.iteration = Some(i);
        let out = self.timed(ITERATION, f);
        self.iteration = None;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans named `name`, summed within each traced
    /// iteration; one entry per iteration (zero where the layer did not
    /// run). Nested spans of the same name would count twice; the
    /// workloads never nest a name inside itself.
    pub fn seconds_per_iteration(&self, name: &str) -> Vec<f64> {
        let n = self
            .spans
            .iter()
            .filter(|s| s.name == ITERATION)
            .filter_map(|s| s.iteration)
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut sums = vec![0.0; n];
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(i) = s.iteration {
                sums[i as usize] += (s.end_ns - s.start_ns) as f64 / 1e9;
            }
        }
        sums
    }

    /// Seconds of each span named `name` that a probe recorded outside
    /// the timed iterations (the reruns at another thread count or
    /// budget), in the order they ran.
    pub fn seconds_outside_iterations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.iteration.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Self time of span `idx`: its duration minus what its direct
    /// children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        self_time_ns((s.start_ns, s.end_ns), &children)
    }

    /// Share of the traced iterations' time that no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        let (mut own, mut total) = (0u64, 0u64);
        for (idx, s) in self.spans.iter().enumerate() {
            if s.name == ITERATION {
                own += self.self_ns(idx);
                total += s.end_ns - s.start_ns;
            }
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// Mean cost of recording one span, from a calibration loop on a
    /// scratch tracer. The traced pass differs from the untraced one by
    /// exactly its spans (and the registries handed to the program), so
    /// `spans × this` is the harness's own overhead.
    pub fn span_cost_ns() -> f64 {
        const N: usize = 20_000;
        let mut t = Tracer::new();
        t.on = true;
        let started = Instant::now();
        for _ in 0..N {
            t.span("calibrate", |_| std::hint::black_box(()));
        }
        started.elapsed().as_nanos() as f64 / N as f64
    }

    /// `{name, start_ns, end_ns, parent, workload, iteration}` per span.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{workload}\",\"iteration\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.iteration.map(u64::from)),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's duration minus the union of its children's intervals, each
/// clipped to the span. Children may overlap one another (parallel
/// parts); the overlap is subtracted once.
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(lo, hi), e.clamp(lo, hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut reach = lo;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_with_nested_and_overlapping_children() {
        // No children: all of it.
        assert_eq!(self_time_ns((100, 200), &[]), 100);
        // Two disjoint children.
        assert_eq!(self_time_ns((100, 200), &[(110, 130), (150, 160)]), 70);
        // Overlapping children: [110,150) ∪ [140,180) = 70 covered once.
        assert_eq!(self_time_ns((100, 200), &[(110, 150), (140, 180)]), 30);
        // One child inside another adds nothing.
        assert_eq!(self_time_ns((100, 200), &[(110, 190), (120, 130)]), 20);
        // Children sticking out are clipped; unsorted input is fine.
        assert_eq!(self_time_ns((100, 200), &[(180, 250), (50, 120)]), 60);
        // Fully covered.
        assert_eq!(self_time_ns((100, 200), &[(100, 200)]), 0);
    }

    #[test]
    fn nested_spans_record_parents_and_iterations() {
        let mut t = Tracer::new();
        t.span("ignored-while-off", |_| ());
        assert!(t.spans().is_empty());
        t.on = true;
        t.iteration(0, |t| {
            t.span("a", |t| t.span("b", |_| ()));
            t.span("a", |_| ());
        });
        t.span("probe", |_| ());
        let names: Vec<_> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, [ITERATION, "a", "b", "a", "probe"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[2].iteration, Some(0));
        assert_eq!(t.spans()[4].parent, None);
        assert_eq!(t.spans()[4].iteration, None);
        // Grandchildren are not subtracted from the grandparent twice.
        let root = &t.spans()[0];
        let direct: u64 = [1, 3]
            .iter()
            .map(|&i| t.spans()[i].end_ns - t.spans()[i].start_ns)
            .sum();
        assert_eq!(t.self_ns(0), root.end_ns - root.start_ns - direct);
        assert_eq!(t.seconds_per_iteration("a").len(), 1);
        assert!(t.unattributed_share() <= 1.0);

        // The trace file holds every span with the fields the README names.
        let doc = bellwether_serve::json::parse(&t.to_json("w")).expect("trace file parses");
        let spans = doc
            .get("spans")
            .and_then(|s| s.as_arr())
            .expect("spans array");
        assert_eq!(spans.len(), 5);
        let b = &spans[2];
        assert_eq!(b.get("name").and_then(|v| v.as_str()), Some("b"));
        assert_eq!(b.get("parent").and_then(|v| v.as_i64()), Some(1));
        assert_eq!(b.get("iteration").and_then(|v| v.as_i64()), Some(0));
        assert_eq!(b.get("workload").and_then(|v| v.as_str()), Some("w"));
        assert!(
            b.get("end_ns").and_then(|v| v.as_i64()) >= b.get("start_ns").and_then(|v| v.as_i64())
        );
        assert_eq!(
            spans[4].get("parent"),
            Some(&bellwether_serve::json::Value::Null)
        );
    }
}
