//! `benchmark compare A.json B.json`: per workload × end-to-end metric,
//! both medians, the relative change, the bound, and a verdict. Reads
//! only files the `suite` command wrote.

use crate::jsonio::{self, Value};
use crate::spec::{self, Better};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell "unchanged" from "worse".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Judged {
    pub median_a: f64,
    pub median_b: f64,
    /// Relative change of the median in the worse direction: positive
    /// means B is worse.
    pub worse_by: f64,
    /// The wider of the two sides' quartile distance over its median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judge the runs of one metric on one workload.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Judged {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let change = if median_a != 0.0 {
        (median_b - median_a) / median_a.abs()
    } else {
        0.0
    };
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = stats::quartile_spread(a).max(stats::quartile_spread(b));
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let b_beats_every_a = !a.is_empty()
        && !b.is_empty()
        && match better {
            Better::Lower => max(b) < min(a),
            Better::Higher => min(b) > max(a),
        };
    let verdict = if spread > bound {
        if b_beats_every_a {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Judged {
        median_a,
        median_b,
        worse_by,
        spread,
        verdict,
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = jsonio::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("workloads").is_none() {
        return Err(format!("{path}: not a suite result (no \"workloads\")"));
    }
    Ok(doc)
}

/// Compare two suite results. Returns the report and whether any
/// verdict is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<14} {:<13} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "spread", "bound"
    );
    for w in spec::WORKLOADS {
        let side = |doc: &'_ Value| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            let _ = writeln!(out, "{:<14} missing from one side", w.name);
            any_worse = true;
            continue;
        };
        for m in spec::END_TO_END {
            let values = |w: &Value| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|e| e.get("values"))
                    .map(jsonio::nums)
                    .unwrap_or_default()
            };
            let j = judge(&values(&wa), &values(&wb), m.better, m.bound);
            any_worse |= j.verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<14} {:<13} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                j.median_a,
                j.median_b,
                100.0 * j.worse_by,
                100.0 * j.spread,
                100.0 * m.bound,
                j.verdict.as_str()
            );
        }
        // Operations failed over attempted: the bound is an absolute 0.
        let share = |w: &Value| w.get("failed_share").and_then(jsonio::num).unwrap_or(1.0);
        let failed = share(&wb) > 0.0;
        any_worse |= failed;
        let _ = writeln!(
            out,
            "{:<14} {:<13} {:>14} {:>14} {:>8} {:>7} {:>5}%  {}",
            w.name,
            "failed_share",
            share(&wa),
            share(&wb),
            "",
            "",
            0,
            if failed { "worse" } else { "ok" }
        );
        // Counts repeat exactly on one commit; list the ones that moved.
        let layers = |w: &Value| w.get("per_layer").cloned().unwrap_or(Value::Null);
        let (la, lb) = (layers(&wa), layers(&wb));
        for (name, entry) in jsonio::entries(&la) {
            let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
            let value = |e: Option<&Value>| e.and_then(|e| e.get("value")).and_then(jsonio::num);
            let (va, vb) = (value(Some(entry)), value(lb.get(name)));
            if matches!(unit, "count" | "bytes") && va != vb {
                let _ = writeln!(out, "{:<14} count {name} differs: {va:?} vs {vb:?}", w.name);
            }
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_synthetic_runs() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same numbers: ok.
        assert_eq!(judge(&a, &a, Better::Lower, 0.1).verdict, Verdict::Ok);
        // 5% slower under a 10% bound: ok; 20% slower: worse.
        let b5: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        let b20: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&a, &b5, Better::Lower, 0.1).verdict, Verdict::Ok);
        let j = judge(&a, &b20, Better::Lower, 0.1);
        assert_eq!(j.verdict, Verdict::Worse);
        assert!((j.worse_by - 0.2).abs() < 1e-9);
        // Faster is never worse; for higher-is-better the sign flips.
        assert_eq!(judge(&b20, &a, Better::Lower, 0.1).verdict, Verdict::Ok);
        assert_eq!(judge(&a, &b20, Better::Higher, 0.1).verdict, Verdict::Ok);
        assert_eq!(judge(&b20, &a, Better::Higher, 0.1).verdict, Verdict::Worse);
        // Spread wider than the bound: unresolved, whatever the medians.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, 0.1).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &b20, Better::Lower, 0.1).verdict,
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        let fast = [10.0, 30.0, 50.0, 20.0, 40.0];
        assert_eq!(
            judge(&noisy, &fast, Better::Lower, 0.1).verdict,
            Verdict::Ok
        );
        // A single run per side has no spread and is judged on medians.
        assert_eq!(
            judge(&[100.0], &[125.0], Better::Lower, 0.1).verdict,
            Verdict::Worse
        );
    }

    fn suite_file(name: &str, op_ms: &[f64], failed_share: f64, fits: u64) -> String {
        let values = |xs: &[f64]| xs.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        let mut workloads = Vec::new();
        for w in spec::WORKLOADS {
            let e2e: Vec<String> = spec::END_TO_END
                .iter()
                .map(|m| {
                    let xs = if m.name == "op_quiet_ms" {
                        op_ms
                    } else {
                        &[5.0, 5.0, 5.0][..]
                    };
                    format!(
                        "\"{}\":{{\"unit\":\"{}\",\"values\":[{}]}}",
                        m.name,
                        m.unit,
                        values(xs)
                    )
                })
                .collect();
            workloads.push(format!(
                "\"{}\":{{\"failed_share\":{failed_share},\"end_to_end\":{{{}}},\"per_layer\":{{\"linreg.fits\":{{\"value\":{fits},\"unit\":\"count\"}},\"scan.basic_s\":{{\"value\":0.5,\"unit\":\"s\"}}}}}}",
                w.name,
                e2e.join(",")
            ));
        }
        std::fs::create_dir_all(crate::run::out_dir()).unwrap();
        let path = crate::run::out_dir().join(format!("compare-test-{name}.json"));
        std::fs::write(
            &path,
            format!("{{\"workloads\":{{{}}}}}", workloads.join(",")),
        )
        .unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn compare_reads_suite_files_and_flags_regressions() {
        let a = suite_file("a", &[100.0, 101.0, 99.0], 0.0, 10);
        let same = suite_file("same", &[100.5, 100.0, 99.0], 0.0, 10);
        let slow = suite_file("slow", &[130.0, 131.0, 129.0], 0.0, 11);
        let broken = suite_file("broken", &[100.0, 101.0, 99.0], 0.25, 10);

        let (report, worse) = compare(&a, &same).unwrap();
        assert!(!worse, "{report}");
        assert!(!report.contains("differs"), "{report}");
        let (report, worse) = compare(&a, &slow).unwrap();
        assert!(worse && report.contains("worse"), "{report}");
        assert!(report.contains("count linreg.fits differs"), "{report}");
        assert!(!report.contains("scan.basic_s differs"), "{report}");
        let (report, worse) = compare(&a, &broken).unwrap();
        assert!(worse && report.contains("failed_share"), "{report}");
        assert!(compare(&a, "/nonexistent.json").is_err());
        for p in [a, same, slow, broken] {
            std::fs::remove_file(p).ok();
        }
    }
}
