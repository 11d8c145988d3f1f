//! One run of one workload: its arguments, its scratch directory, the
//! operations it attempted, and the metrics it measured.

use crate::spec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Everything under here is recreated per run and ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the timed part measures, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// `--quick`: every input ~10x smaller, for smoke runs.
    pub quick: bool,
    /// This run's scratch directory (layouts, snapshots, spill files).
    pub dir: PathBuf,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Facts about the run that are not metrics: input sizes, sample
    /// counts, check digests. Values are JSON fragments.
    info: Vec<(String, String)>,
}

impl Run {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, trace: bool, quick: bool) -> Run {
        let dir = out_dir().join(format!("run-{workload}-{}", std::process::id()));
        Run {
            workload,
            seed,
            seconds,
            trace,
            quick,
            dir,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    /// The input size to use: `full`, or `quick` under `--quick`.
    pub fn sized(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Count one operation (an iteration, an append, an HTTP request or
    /// an output check); `what` names it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Count operations that were tallied elsewhere (client threads).
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// Record a metric. The name must be one `BENCHMARK.json` lists.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::unit_of(name).is_some(),
            "metric {name} is not in the spec"
        );
        let ok = value.is_finite();
        self.op(ok, || format!("metric {name} is not finite"));
        self.metrics.insert(name, if ok { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn info_num(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info
            .push((key.to_string(), format!("\"{}\"", escape(value))));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every measured metric, one `name value unit` line each, then the
    /// failures if any.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let unit = spec::unit_of(name).unwrap_or("");
            let _ = writeln!(out, "{:<16} {name:<32} {value:>16.6} {unit}", self.workload);
        }
        let _ = writeln!(
            out,
            "{:<16} attempted {} failed {} ({})",
            self.workload,
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        for f in &self.failures {
            let _ = writeln!(out, "{:<16} FAILED: {f}", self.workload);
        }
        out
    }

    /// The `INFO` line the suite merges into its result file: run
    /// arguments, input sizes, sample counts, and every metric measured
    /// (a traced run measures the end-to-end ones as well).
    pub fn info_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{}",
            self.workload, self.seed, self.seconds, self.trace, self.quick
        );
        for (k, v) in &self.info {
            let _ = write!(out, ",\"{}\":{v}", escape(k));
        }
        out.push_str(",\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            let _ = write!(out, "{}\"{}\"", if i > 0 { "," } else { "" }, escape(f));
        }
        out.push_str("],\"measured\":");
        out.push_str(&metrics_json(self.metrics.iter().map(|(n, v)| (*n, *v))));
        out.push('}');
        out
    }

    /// The contract's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`: every end-to-end metric untraced, every per-layer
    /// metric traced (zero for a layer this workload never enters).
    pub fn result_json(&self) -> String {
        let names: Vec<&'static str> = if self.trace {
            spec::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            spec::END_TO_END.iter().map(|m| m.name).collect()
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(names.into_iter().map(|n| (n, self.get(n))))
        )
    }
}

fn metrics_json(metrics: impl Iterator<Item = (&'static str, f64)>) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in metrics.enumerate() {
        let unit = spec::unit_of(name).unwrap_or("");
        let _ = write!(
            out,
            "{}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
            if i > 0 { "," } else { "" }
        );
    }
    out.push('}');
    out
}

pub fn escape(s: &str) -> String {
    let mut out = String::new();
    bellwether_serve::json::escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_serve::json;

    #[test]
    fn result_line_round_trips_through_a_strict_parser() {
        for trace in [false, true] {
            let mut run = Run::new("train_facts", 7, 1.0, trace, true);
            run.set("op_quiet_ms", 1.25);
            run.set("cube.pass_s", 0.5);
            run.op(true, || unreachable!());
            run.info_str("note", "quote \" and \\ backslash");
            run.info_num("rows", 12);
            let v = json::parse(&run.result_json()).expect("result line parses");
            let json::Value::Obj(top) = &v else {
                panic!("not an object")
            };
            let keys: Vec<_> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&json::Value::Bool(true)));
            assert_eq!(v.get("attempted").and_then(json::Value::as_i64), Some(3));
            let json::Value::Obj(metrics) = v.get("metrics").unwrap() else {
                panic!()
            };
            let want: Vec<_> = if trace {
                spec::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                spec::END_TO_END.iter().map(|m| m.name).collect()
            };
            let mut want_sorted = want.clone();
            want_sorted.sort_unstable();
            assert_eq!(
                metrics.keys().map(String::as_str).collect::<Vec<_>>(),
                want_sorted
            );
            let probe = if trace { "cube.pass_s" } else { "op_quiet_ms" };
            let m = &metrics[probe];
            assert_eq!(
                m.get("unit").and_then(json::Value::as_str),
                spec::unit_of(probe)
            );
            assert!(matches!(m.get("value"), Some(json::Value::Num(_))));

            let info = json::parse(&run.info_json()).expect("info line parses");
            assert_eq!(
                info.get("note").and_then(json::Value::as_str),
                Some("quote \" and \\ backslash")
            );
            assert_eq!(info.get("rows").and_then(json::Value::as_i64), Some(12));
        }
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut run = Run::new("train_scan", 1, 1.0, false, true);
        run.op(true, || unreachable!());
        assert!(run.correct());
        run.op(false, || "snapshot differs".into());
        run.set("op_quiet_ms", f64::NAN);
        assert!(!run.correct());
        let v = json::parse(&run.result_json()).unwrap();
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(false)));
        assert_eq!(v.get("failed").and_then(json::Value::as_i64), Some(2));
        assert!(run.human().contains("FAILED: snapshot differs"));
    }
}
