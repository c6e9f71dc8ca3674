//! What the bench reads about its own process from `/proc`: CPU time of
//! the whole process and of each named thread, peak resident memory, and
//! the filesystem a path lives on. Every layer's CPU is attributed by
//! thread name, so nothing inside the program needs instrumenting.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// fixed at 100 in the Linux ABI).
const NS_PER_TICK: u64 = 10_000_000;

/// `(utime + stime)` of a `/proc/.../stat` line, in nanoseconds. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
fn stat_cpu_ns(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 3 (state) is fields[0]; utime and stime are fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * NS_PER_TICK)
}

/// CPU time of the whole process, threads that already exited included.
pub fn process_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_ns(&s))
        .unwrap_or(0)
}

/// CPU time of every live thread, keyed by thread id, with its name.
/// `schedstat` gives nanoseconds where the kernel keeps it; `stat` ticks
/// are the fallback.
pub fn thread_cpu() -> HashMap<u32, (String, u64)> {
    let mut out = HashMap::new();
    let Ok(entries) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let dir = entry.path();
        let Ok(name) = fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        let from_schedstat = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .filter(|ns| *ns > 0);
        let cpu = from_schedstat.or_else(|| {
            fs::read_to_string(dir.join("stat"))
                .ok()
                .and_then(|s| stat_cpu_ns(&s))
        });
        if let Some(cpu) = cpu {
            out.insert(tid, (name.trim().to_string(), cpu));
        }
    }
    out
}

/// Per-thread CPU over an interval, built from snapshots. A thread that
/// exits mid-interval keeps the CPU of the last snapshot that saw it, so
/// the bench snapshots right before it stops a replica.
#[derive(Default)]
pub struct ThreadLedger {
    start: HashMap<u32, u64>,
    last: HashMap<u32, (String, u64)>,
}

impl ThreadLedger {
    /// Opens the interval at the current per-thread CPU.
    pub fn begin() -> ThreadLedger {
        let now = thread_cpu();
        ThreadLedger {
            start: now.iter().map(|(tid, (_, ns))| (*tid, *ns)).collect(),
            last: now,
        }
    }

    /// Records the current per-thread CPU.
    pub fn sample(&mut self) {
        for (tid, entry) in thread_cpu() {
            self.last.insert(tid, entry);
        }
    }

    /// CPU spent in the interval by threads whose name satisfies `pick`.
    pub fn cpu_ns(&self, pick: impl Fn(&str) -> bool) -> u64 {
        self.last
            .iter()
            .filter(|(_, (name, _))| pick(name))
            .map(|(tid, (_, ns))| ns.saturating_sub(self.start.get(tid).copied().unwrap_or(0)))
            .sum()
    }
}

/// Live threads whose name satisfies `pick`.
pub fn thread_count(pick: impl Fn(&str) -> bool) -> usize {
    thread_cpu().values().filter(|(name, _)| pick(name)).count()
}

/// Peak resident set size (`VmHWM`) of the process, in kB.
pub fn peak_rss_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// The filesystem type of the mount holding `path` (longest matching
/// mount point in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let Ok(info) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let line = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 300 45 0 0";
        assert_eq!(stat_cpu_ns(line), Some(345 * NS_PER_TICK));
    }
}
