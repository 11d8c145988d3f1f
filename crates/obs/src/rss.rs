//! Peak-RSS sampling.
//!
//! Wall time alone cannot show that an out-of-core pass actually held
//! its memory budget, so the bench harness reports the process's peak
//! resident set alongside every timing and every fleet worker reports
//! its own on shutdown. On Linux the kernel tracks the
//! high-water mark (`VmHWM` in `/proc/self/status`) and lets a process
//! reset it (writing `5` to `/proc/self/clear_refs`), which gives
//! per-benchmark peaks rather than one all-time max. Both operations
//! are best-effort: on other platforms (or locked-down kernels) they
//! return `None`/no-op and the JSON reports `null`.

use std::fs;

/// The process's peak resident set size in bytes since start (or since
/// the last [`reset_peak_rss`]), if the platform exposes it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Reset the kernel's peak-RSS high-water mark to the current RSS, so
/// the next [`peak_rss_bytes`] reflects only allocations made after
/// this call. Best-effort: returns whether the reset took.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", b"5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_a_plausible_value() {
        // Either unsupported (None) or a sane positive figure: more
        // than a page, less than a terabyte.
        if let Some(b) = peak_rss_bytes() {
            assert!(b > 4096, "peak rss {b} too small");
            assert!(b < 1 << 40, "peak rss {b} implausibly large");
        }
    }

    #[test]
    fn reset_then_allocate_raises_the_peak() {
        if !reset_peak_rss() {
            return; // platform doesn't support it; nothing to assert
        }
        let before = peak_rss_bytes();
        let buf = vec![1u8; 64 << 20];
        std::hint::black_box(&buf);
        let after = peak_rss_bytes();
        drop(buf);
        if let (Some(b), Some(a)) = (before, after) {
            assert!(a >= b, "peak rss went backwards: {b} -> {a}");
        }
    }
}
