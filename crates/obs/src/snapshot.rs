//! Point-in-time metric snapshots: named accessors, JSON export and a
//! rendered span tree.

use crate::{json, names};

/// Aggregate timing for one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Hierarchical path (`/`-separated), e.g. `cube_pass/phase1_scan`.
    pub path: String,
    /// Number of completed occurrences.
    pub calls: u64,
    /// Total wall-clock time across all occurrences, in nanoseconds.
    pub total_nanos: u64,
}

impl SpanStat {
    /// Total wall-clock time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_nanos as f64 / 1e9
    }
}

/// A point-in-time copy of a [`crate::Registry`]: every counter, gauge
/// and span aggregate in first-registration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Span aggregates by path (in first-completion order).
    pub spans: Vec<SpanStat>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a span aggregate by exact path.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    fn counter_or_zero(&self, name: &str) -> u64 {
        self.counter(name).unwrap_or(0)
    }

    /// Region reads performed by training sources
    /// ([`names::STORAGE_REGIONS_READ`]).
    pub fn regions_read(&self) -> u64 {
        self.counter_or_zero(names::STORAGE_REGIONS_READ)
    }

    /// Bytes read by training sources ([`names::STORAGE_BYTES_READ`]).
    pub fn bytes_read(&self) -> u64 {
        self.counter_or_zero(names::STORAGE_BYTES_READ)
    }

    /// Training examples read ([`names::STORAGE_EXAMPLES_READ`]).
    pub fn examples_read(&self) -> u64 {
        self.counter_or_zero(names::STORAGE_EXAMPLES_READ)
    }

    /// Region reads served from the decoded-block cache
    /// ([`names::STORAGE_CACHE_HITS`]).
    pub fn cache_hits(&self) -> u64 {
        self.counter_or_zero(names::STORAGE_CACHE_HITS)
    }

    /// Region reads the cache forwarded to its inner source
    /// ([`names::STORAGE_CACHE_MISSES`]).
    pub fn cache_misses(&self) -> u64 {
        self.counter_or_zero(names::STORAGE_CACHE_MISSES)
    }

    /// Decoded blocks evicted under the cache's byte budget
    /// ([`names::STORAGE_CACHE_EVICTIONS`]).
    pub fn cache_evictions(&self) -> u64 {
        self.counter_or_zero(names::STORAGE_CACHE_EVICTIONS)
    }

    /// Region reads retried after a transient failure
    /// ([`names::STORAGE_RETRIES`]).
    pub fn retries(&self) -> u64 {
        self.counter_or_zero(names::STORAGE_RETRIES)
    }

    /// Region blocks that failed checksum or structural validation
    /// ([`names::STORAGE_CORRUPT_BLOCKS`]).
    pub fn corrupt_blocks(&self) -> u64 {
        self.counter_or_zero(names::STORAGE_CORRUPT_BLOCKS)
    }

    /// Faults injected by a `FaultySource`
    /// ([`names::STORAGE_FAULTS_INJECTED`]).
    pub fn faults_injected(&self) -> u64 {
        self.counter_or_zero(names::STORAGE_FAULTS_INJECTED)
    }

    /// Region indices dropped by a `SkipUnreadable` scan policy
    /// ([`names::SCAN_REGIONS_SKIPPED`]).
    pub fn regions_skipped(&self) -> u64 {
        self.counter_or_zero(names::SCAN_REGIONS_SKIPPED)
    }

    /// Fraction of cache lookups served from memory
    /// (`hits / (hits + misses)`; `0.0` before any lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits();
        let total = hits + self.cache_misses();
        if total == 0 {
            return 0.0;
        }
        hits as f64 / total as f64
    }

    /// Linear-model fits performed by the algebraic error engine
    /// ([`names::LINREG_FITS`]).
    pub fn fits(&self) -> u64 {
        self.counter_or_zero(names::LINREG_FITS)
    }

    /// Cross-validation folds whose held-out RMSE was evaluated
    /// ([`names::LINREG_CV_FOLDS`]).
    pub fn cv_folds_evaluated(&self) -> u64 {
        self.counter_or_zero(names::LINREG_CV_FOLDS)
    }

    /// Fits that needed a ridge to rescue a degenerate Gram matrix
    /// ([`names::LINREG_RIDGE_RESCUES`]).
    pub fn ridge_rescues(&self) -> u64 {
        self.counter_or_zero(names::LINREG_RIDGE_RESCUES)
    }

    /// Fact rows scanned by the CUBE pass
    /// ([`names::CUBE_PASS_ROWS_SCANNED`]).
    pub fn rows_scanned(&self) -> u64 {
        self.counter_or_zero(names::CUBE_PASS_ROWS_SCANNED)
    }

    /// Distinct base cells after phase-1 merging
    /// ([`names::CUBE_PASS_BASE_CELLS`]).
    pub fn base_cells(&self) -> u64 {
        self.counter_or_zero(names::CUBE_PASS_BASE_CELLS)
    }

    /// Cell-state merge operations ([`names::CUBE_PASS_CELL_MERGES`]).
    pub fn cell_merges(&self) -> u64 {
        self.counter_or_zero(names::CUBE_PASS_CELL_MERGES)
    }

    /// Non-empty regions emitted by the rollup
    /// ([`names::CUBE_PASS_REGIONS_EMITTED`]).
    pub fn regions_emitted(&self) -> u64 {
        self.counter_or_zero(names::CUBE_PASS_REGIONS_EMITTED)
    }

    /// Number of full-dataset scan equivalents the recorded region reads
    /// amount to, given the dataset has `num_regions` regions. The unit
    /// Lemma 1 and Lemma 2 bound.
    pub fn scan_equivalents(&self, num_regions: usize) -> f64 {
        if num_regions == 0 {
            return 0.0;
        }
        self.regions_read() as f64 / num_regions as f64
    }

    /// Serialize to pretty-printed JSON in the bench-report style:
    /// `{"counters": [{"name", "value"}...], "gauges": [...],
    /// "spans": [{"path", "calls", "total_secs"}...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"value\": {}}}",
                json::escape(name),
                value
            ));
        }
        out.push_str(if self.counters.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"gauges\": [");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"value\": {}}}",
                json::escape(name),
                json::number(*value)
            ));
        }
        out.push_str(if self.gauges.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": \"{}\", \"calls\": {}, \"total_secs\": {}}}",
                json::escape(&s.path),
                s.calls,
                json::number(s.total_secs())
            ));
        }
        out.push_str(if self.spans.is_empty() { "]\n}" } else { "\n  ]\n}" });
        out
    }

    /// Render the spans as an indented tree (two spaces per `/` depth),
    /// synthesizing un-timed parent rows so `tree/rainforest/level0`
    /// nests under `tree/rainforest` even if only the leaf was timed.
    ///
    /// ```text
    /// cube_pass                          2 calls   0.012s
    ///   phase1_scan                      2 calls   0.007s
    /// ```
    pub fn render_span_tree(&self) -> String {
        // Ordered list of rows: (full path, Some(stat) if timed).
        let mut rows: Vec<(String, Option<&SpanStat>)> = Vec::new();
        for s in &self.spans {
            // Ensure every ancestor prefix has a row before the leaf.
            let mut prefix = String::new();
            for seg in s.path.split('/') {
                if !prefix.is_empty() {
                    prefix.push('/');
                }
                prefix.push_str(seg);
                if !rows.iter().any(|(p, _)| p == &prefix) {
                    rows.push((prefix.clone(), None));
                }
            }
            let slot = rows
                .iter_mut()
                .find(|(p, _)| p == &s.path)
                .expect("prefix loop inserted the full path");
            slot.1 = Some(s);
        }
        // Children must directly follow their parent; group by sorting
        // each row under its parent chain while keeping first-seen order
        // among siblings (rows were inserted parent-before-child above,
        // so a stable pass that pulls children behind parents suffices).
        let mut ordered: Vec<(String, Option<&SpanStat>)> = Vec::new();
        fn emit<'s>(
            parent: &str,
            rows: &[(String, Option<&'s SpanStat>)],
            ordered: &mut Vec<(String, Option<&'s SpanStat>)>,
        ) {
            for (path, stat) in rows {
                let is_child = match path.rsplit_once('/') {
                    Some((pre, _)) => pre == parent,
                    None => parent.is_empty(),
                };
                if is_child {
                    ordered.push((path.clone(), *stat));
                    emit(path, rows, ordered);
                }
            }
        }
        emit("", &rows, &mut ordered);

        let mut out = String::new();
        for (path, stat) in &ordered {
            let depth = path.matches('/').count();
            let label = path.rsplit('/').next().unwrap_or(path);
            let indent = "  ".repeat(depth);
            let name_col = format!("{indent}{label}");
            match stat {
                Some(s) => out.push_str(&format!(
                    "{:<40} {:>6} calls {:>10.4}s\n",
                    name_col,
                    s.calls,
                    s.total_secs()
                )),
                None => out.push_str(&format!("{name_col}\n")),
            }
        }
        out
    }
}

impl From<&crate::Registry> for MetricsSnapshot {
    fn from(reg: &crate::Registry) -> MetricsSnapshot {
        reg.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, Registry};

    #[test]
    fn named_accessors_default_to_zero() {
        let snap = MetricsSnapshot::default();
        assert_eq!(snap.regions_read(), 0);
        assert_eq!(snap.rows_scanned(), 0);
        assert_eq!(snap.scan_equivalents(10), 0.0);
        assert_eq!(snap.scan_equivalents(0), 0.0);
    }

    #[test]
    fn named_accessors_read_canonical_names() {
        let reg = Registry::new();
        reg.add(names::STORAGE_REGIONS_READ, 12);
        reg.add(names::CUBE_PASS_ROWS_SCANNED, 4096);
        let snap = reg.snapshot();
        assert_eq!(snap.regions_read(), 12);
        assert_eq!(snap.rows_scanned(), 4096);
        assert_eq!(snap.scan_equivalents(4), 3.0);
    }

    #[test]
    fn linreg_engine_accessors() {
        let reg = Registry::new();
        reg.add(names::LINREG_FITS, 55);
        reg.add(names::LINREG_CV_FOLDS, 50);
        reg.add(names::LINREG_RIDGE_RESCUES, 2);
        let snap = reg.snapshot();
        assert_eq!(snap.fits(), 55);
        assert_eq!(snap.cv_folds_evaluated(), 50);
        assert_eq!(snap.ridge_rescues(), 2);
        assert_eq!(MetricsSnapshot::default().fits(), 0);
    }

    #[test]
    fn json_shape_is_well_formed() {
        let reg = Registry::new();
        reg.add("a/b", 7);
        reg.set_gauge("speed", 1.25);
        reg.record_span("a", 1_500_000_000);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("{\"name\": \"a/b\", \"value\": 7}"));
        assert!(json.contains("{\"name\": \"speed\", \"value\": 1.25}"));
        assert!(json.contains("\"path\": \"a\""));
        assert!(json.contains("\"calls\": 1"));
        assert!(json.contains("\"total_secs\": 1.5"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_snapshot_json_is_well_formed() {
        let json = MetricsSnapshot::default().to_json();
        assert!(json.contains("\"counters\": []"));
        assert!(json.contains("\"gauges\": []"));
        assert!(json.contains("\"spans\": []"));
    }

    #[test]
    fn json_escapes_and_non_finite_gauges() {
        let reg = Registry::new();
        reg.add("quo\"te", 1);
        reg.set_gauge("bad", f64::NAN);
        let json = reg.snapshot().to_json();
        assert!(json.contains("quo\\\"te"));
        assert!(json.contains("{\"name\": \"bad\", \"value\": null}"));
    }

    #[test]
    fn span_tree_nests_and_synthesizes_parents() {
        let reg = Registry::new();
        reg.record_span("tree/rainforest/level0", 5_000_000);
        reg.record_span("tree/rainforest/level1", 3_000_000);
        reg.record_span("cube_pass", 10_000_000);
        let tree = reg.snapshot().render_span_tree();
        let lines: Vec<&str> = tree.lines().collect();
        // Synthesized parents come first, children indented beneath.
        assert_eq!(lines[0], "tree");
        assert!(lines[1].starts_with("  rainforest"));
        assert!(lines[2].starts_with("    level0"));
        assert!(lines[3].starts_with("    level1"));
        assert!(lines[4].starts_with("cube_pass"));
        assert!(lines[2].contains("1 calls"));
    }
}
