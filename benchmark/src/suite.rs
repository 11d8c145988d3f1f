//! `benchmark suite`: every workload, each run in a fresh child process
//! of this binary (so `peak_rss_mib` is per workload), untraced first,
//! then traced; prints every metric by name with its unit, checks
//! outputs, and writes one JSON result.

use crate::jsonio::{self, Value};
use crate::run::{escape, out_dir};
use crate::spec;
use crate::stats;
use crate::workloads::{CURVE_THREADS, THREADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Untraced runs per workload; run `i` uses `seed + i`.
    pub repeat: u32,
    pub out: Option<PathBuf>,
}

/// What one child run printed: its `INFO` object and its result line.
struct ChildRun {
    info: Value,
    result: Value,
}

fn run_child(workload: &str, seed: u64, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines
        .pop()
        .ok_or_else(|| format!("{workload}: printed nothing"))?;
    let info = lines
        .pop()
        .and_then(|l| l.strip_prefix("INFO "))
        .ok_or_else(|| format!("{workload}: no INFO line"))?;
    for line in lines {
        println!("{line}");
    }
    Ok(ChildRun {
        info: jsonio::parse(info).map_err(|e| format!("{workload} INFO: {e}"))?,
        result: jsonio::parse(result).map_err(|e| format!("{workload} result: {e}"))?,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn metric_value(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?
        .get(name)?
        .get("value")
        .and_then(jsonio::num)
}

/// Run the suite; returns whether every run was correct.
pub fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = String::from("{\"environment\":{");
    let _ = write!(
        out,
        "\"nproc\":{nproc},\"threads\":{THREADS},\"curve_threads\":{CURVE_THREADS},\"seed\":{},\"seconds\":{},\"quick\":{},\"repeat\":{},\"rustc\":\"{}\",\"git_commit\":\"{}\"}},\"workloads\":{{",
        args.seed,
        args.seconds,
        args.quick,
        args.repeat,
        escape(&command_line("rustc", &["-V"])),
        escape(&command_line("git", &["rev-parse", "HEAD"])),
    );
    let mut all_correct = true;
    for (wi, w) in spec::WORKLOADS.iter().enumerate() {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0i64, 0i64);
        let mut first_info = None;
        let mut tally = |run: &ChildRun| {
            attempted += run
                .result
                .get("attempted")
                .and_then(Value::as_i64)
                .unwrap_or(0);
            failed += run
                .result
                .get("failed")
                .and_then(Value::as_i64)
                .unwrap_or(0);
            run.result.get("correct") == Some(&Value::Bool(true))
        };
        for r in 0..args.repeat {
            let run = run_child(w.name, args.seed + u64::from(r), args, false)?;
            all_correct &= tally(&run);
            for m in spec::END_TO_END {
                let v = metric_value(&run.result, m.name)
                    .ok_or_else(|| format!("{}: no {} in the result line", w.name, m.name))?;
                values.entry(m.name).or_default().push(v);
            }
            first_info.get_or_insert(run.info);
        }
        let traced = run_child(w.name, args.seed, args, true)?;
        all_correct &= tally(&traced);

        let _ = write!(
            out,
            "{}\"{}\":{{\"why\":\"{}\",\"attempted\":{attempted},\"failed\":{failed},\"failed_share\":{},\"end_to_end\":{{",
            if wi > 0 { "," } else { "" },
            w.name,
            escape(w.why),
            failed as f64 / attempted.max(1) as f64
        );
        for (i, m) in spec::END_TO_END.iter().enumerate() {
            let xs = &values[m.name];
            let each: Vec<String> = xs.iter().map(f64::to_string).collect();
            let _ = write!(
                out,
                "{}\"{}\":{{\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{},\"median\":{},\"spread\":{},\"values\":[{}]}}",
                if i > 0 { "," } else { "" },
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound,
                stats::median(xs),
                stats::quartile_spread(xs),
                each.join(",")
            );
            println!(
                "{:<16} {:<32} {:>16.6} {:<6} median of {} run(s), spread {:.1}%",
                w.name,
                m.name,
                stats::median(xs),
                m.unit,
                xs.len(),
                100.0 * stats::quartile_spread(xs)
            );
        }
        out.push_str("},\"per_layer\":");
        jsonio::write(
            &mut out,
            traced.result.get("metrics").unwrap_or(&Value::Null),
        );
        // The traced run measures the operation too: the difference is
        // what tracing (spans plus the program's registries) costs.
        let traced_op = traced
            .info
            .get("measured")
            .and_then(|m| m.get("op_quiet_ms"))
            .and_then(|m| m.get("value"))
            .and_then(jsonio::num)
            .unwrap_or(0.0);
        let untraced_op = stats::median(&values["op_quiet_ms"]);
        let delta = 100.0 * (traced_op - untraced_op) / untraced_op;
        println!(
            "{:<16} traced vs untraced op_quiet_ms: {delta:+.1}%",
            w.name
        );
        let _ = write!(
            out,
            ",\"traced_vs_untraced_op_pct\":{delta},\"untraced_run\":"
        );
        jsonio::write(&mut out, first_info.as_ref().unwrap_or(&Value::Null));
        out.push_str(",\"traced_run\":");
        jsonio::write(&mut out, &traced.info);
        out.push('}');
    }
    out.push_str("}}\n");
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
