//! Peak resident set of this process, from the kernel's high-water mark.

/// `VmHWM` of `/proc/<pid>/status` in MiB; `0.0` where the platform does
/// not expose it.
pub fn peak_mib_of(pid: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn peak_mib() -> f64 {
    peak_mib_of("self")
}

/// Reset the high-water mark to the current resident set, so the peak
/// read after an operation leaves out what set-up allocated and freed.
/// `false` where the kernel refuses: the peak then includes set-up.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", b"5").is_ok()
}
