//! The `bellwether` binary end to end: a search over a small CSV, and a
//! structured error, never a panic, for an out-of-range option.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// 20 items × 6 weeks × 3 states, in which `wi` tracks each item's
/// demand exactly and the other states echo it with noise.
fn orders_csv() -> PathBuf {
    let mut csv = String::from("item,week,state,profit,quantity\n");
    for item in 1..=20i64 {
        let demand = 10.0 + 3.0 * item as f64;
        for week in 1..=6i64 {
            for (si, state) in ["wi", "md", "ca"].into_iter().enumerate() {
                let si = si as i64;
                let noise = ((item * 13 + week * 7 + si * 29) % 10) as f64 - 4.5;
                let wobble = if si == 0 { 1.0 } else { 1.0 + 0.4 * noise / 4.5 };
                let profit = demand * wobble * (0.2 + 0.1 * week as f64);
                let quantity = (item * week + si) % 7 + 1;
                csv.push_str(&format!("{item},{week},{state},{profit},{quantity}\n"));
            }
        }
    }
    static WRITTEN: AtomicUsize = AtomicUsize::new(0);
    let n = WRITTEN.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("bw_cli_{}_{n}.csv", std::process::id()));
    std::fs::write(&path, csv).unwrap();
    path
}

/// `bellwether search` over [`orders_csv`] with `extra` options after
/// the required ones (a repeated option overrides the earlier value).
fn search(extra: &[&str]) -> Output {
    let csv = orders_csv();
    let mut args = vec![
        "search", "--fact", csv.to_str().unwrap(), "--item-col", "item", "--time-col", "week",
        "--time-max", "6", "--location-col", "state", "--locations", "wi,md,ca",
        "--target-col", "profit", "--feature-cols", "profit,quantity", "--budget", "4",
    ];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_bellwether")).args(&args).output().unwrap();
    std::fs::remove_file(csv).ok();
    out
}

#[test]
fn a_search_prints_the_bellwether() {
    let out = search(&["--training-set-error"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    let best = "\nbellwether: [1-2, wi] (cost 2.00, rmse 13.2135, 20 items)\n";
    assert!(stdout.contains(best), "stdout: {stdout}");
}

#[test]
fn an_out_of_range_option_is_an_invalid_configuration() {
    for bad in [["--min-coverage", "1.5"], ["--budget", "0"], ["--min-examples", "0"]] {
        let out = search(&bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {stderr}");
        assert!(stderr.contains("error: invalid configuration"), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
    }
}
