//! The environment stamp and `/proc` readings: core count, kernel,
//! filesystem type, process CPU time, peak RSS and thread count.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux architecture this runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The running kernel release.
#[must_use]
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Filesystem type of the mount holding `path` (the longest mount point
/// that prefixes its canonical form, from `/proc/self/mountinfo`).
#[must_use]
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // Fields: id parent dev root mountpoint opts [optional...] - fstype src opts
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// The stamp printed with every result.
#[must_use]
pub fn stamp(data_dir: &Path) -> String {
    format!(
        "{{\"nproc\":{},\"kernel\":\"{}\",\"data_fs\":\"{}\"}}",
        nproc(),
        kernel(),
        fs_type(data_dir)
    )
}

/// utime + stime of a process (all its threads, live or exited), in
/// microseconds. `pid` is a number or `self`.
#[must_use]
pub fn cpu_us(pid: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 11 and
    // 12 after the state field that follows ')'.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SEC * 1e6
}

fn status_field(pid: &str, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (VmHWM) of a process, in MB.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> f64 {
    status_field(pid, "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Live threads of this process.
#[must_use]
pub fn threads() -> usize {
    status_field("self", "Threads:").map_or(0, |n| n as usize)
}
