//! Host-side measurements: process CPU time and peak resident memory
//! from `/proc`, and the medians the benchmark reports.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux ABI on every architecture it reports in).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by the whole process (all
/// threads, including ones already joined).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // `rest` starts at field 3, so field n sits at index n - 3.
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// resident size, so a later [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS via /proc/self/clear_refs: {e}"))
}

/// Wall and CPU seconds of one timed phase.
#[derive(Clone, Copy, Debug)]
pub struct PhaseTime {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f`, timing it by wall clock and by process CPU time.
pub fn timed<R>(f: impl FnOnce() -> R) -> Result<(R, PhaseTime), String> {
    let cpu0 = cpu_seconds()?;
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds()? - cpu0;
    Ok((r, PhaseTime { wall_s, cpu_s }))
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_probes_read() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
        reset_peak_rss().unwrap();
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
