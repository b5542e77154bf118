//! Process and per-thread CPU time and peak memory, read from `/proc`
//! from outside the program's threads.

use std::collections::BTreeMap;
use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// fixed at 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// Thread groups the CPU time is attributed to, by thread name.
pub const GROUPS: &[&str] = &[
    "foreground",
    "logger",
    "flush",
    "compact",
    "watchdog",
    "net_worker",
    "net_client",
    "other",
];

/// Names the benchmark's own driver threads; their name prefix puts
/// them in the `foreground` group.
pub const DRIVER_THREAD_PREFIX: &str = "bench-driver-";

/// The group a thread belongs to, from its `comm` (at most 15 bytes,
/// so `clsm-client-reader-0` reads `clsm-client-rea`).
pub fn group_of(comm: &str) -> &'static str {
    if comm.starts_with(DRIVER_THREAD_PREFIX) {
        "foreground"
    } else if comm.starts_with("clsm-logger") {
        "logger"
    } else if comm.starts_with("clsm-flush") {
        "flush"
    } else if comm.starts_with("clsm-compact") {
        "compact"
    } else if comm.starts_with("clsm-watchdog") {
        "watchdog"
    } else if comm.starts_with("clsm-net-worker") {
        "net_worker"
    } else if comm.starts_with("clsm-client-rea") {
        "net_client"
    } else {
        "other"
    }
}

/// User+system seconds from a `stat` line (fields 14 and 15; the
/// command name in field 2 may hold spaces, so split after its `)`).
fn stat_cpu_secs(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// CPU seconds of the whole process and of each live thread.
#[derive(Debug, Clone, Default)]
pub struct CpuSample {
    /// Whole process, including threads that already exited.
    pub process_secs: f64,
    /// Live threads: tid -> (comm, seconds).
    pub threads: BTreeMap<u64, (String, f64)>,
}

/// Reads `/proc/self/stat` and `/proc/self/task/*/{comm,stat}`.
pub fn sample() -> std::io::Result<CpuSample> {
    let bad = || std::io::Error::other("unparsable /proc stat line");
    let process_secs = stat_cpu_secs(&fs::read_to_string("/proc/self/stat")?).ok_or_else(bad)?;
    let mut threads = BTreeMap::new();
    for entry in fs::read_dir("/proc/self/task")? {
        let entry = entry?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread may exit between listing and reading: skip it.
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(entry.path().join("comm")),
            fs::read_to_string(entry.path().join("stat")),
        ) else {
            continue;
        };
        let secs = stat_cpu_secs(&stat).ok_or_else(bad)?;
        threads.insert(tid, (comm.trim_end().to_string(), secs));
    }
    Ok(CpuSample {
        process_secs,
        threads,
    })
}

/// CPU spent between two samples, per group, plus the process total
/// and the residual the groups do not cover (threads that exited in
/// between).
#[derive(Debug, Clone, Default)]
pub struct CpuDelta {
    /// Whole-process CPU seconds.
    pub total_secs: f64,
    /// Seconds per group in [`GROUPS`].
    pub groups: BTreeMap<&'static str, f64>,
}

impl CpuDelta {
    /// Process CPU not covered by any live thread's delta.
    pub fn residual_secs(&self) -> f64 {
        self.total_secs - self.groups.values().sum::<f64>()
    }
}

/// Attributes the CPU spent between `before` and `after` to groups. A
/// thread that started in between counts from zero.
pub fn delta(before: &CpuSample, after: &CpuSample) -> CpuDelta {
    let mut groups: BTreeMap<&'static str, f64> = GROUPS.iter().map(|g| (*g, 0.0)).collect();
    for (tid, (comm, secs)) in &after.threads {
        let base = before.threads.get(tid).map_or(0.0, |(_, s)| *s);
        *groups.entry(group_of(comm)).or_default() += secs - base;
    }
    CpuDelta {
        total_secs: after.process_secs - before.process_secs,
        groups,
    }
}

/// Peak resident set size of the process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))?;
    Ok(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_comm() {
        let line = "123 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        assert_eq!(stat_cpu_secs(line), Some(3.0));
    }

    #[test]
    fn groups_by_truncated_comm() {
        assert_eq!(group_of("clsm-client-rea"), "net_client");
        assert_eq!(group_of("clsm-net-worker"), "net_worker");
        assert_eq!(group_of("clsm-compact-0"), "compact");
        assert_eq!(group_of("bench-driver-1"), "foreground");
        assert_eq!(group_of("clsm-net-accept"), "other");
    }

    #[test]
    fn sample_sees_this_process() {
        let s = sample().unwrap();
        assert!(s.process_secs >= 0.0);
        assert!(!s.threads.is_empty());
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
