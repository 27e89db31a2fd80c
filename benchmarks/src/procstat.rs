//! Process-level measurements read from `/proc` (Linux): CPU time burned
//! by every thread, context switches, thread count, peak resident set.
//! CPU time is the benchmark's `real` clock — it does not advance while a
//! thread sleeps a modeled duration.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Fixed at
/// 100 on every Linux architecture the container can be (USER_HZ).
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds consumed by the whole process so far (all threads, exited
/// ones included).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes { user_s: self.user_s - earlier.user_s, sys_s: self.sys_s - earlier.sys_s }
    }
}

/// Read the process's user and system CPU time.
pub fn cpu_times() -> CpuTimes {
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after ") ".
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit_once(") ").map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    let (user, sys) = (ticks(), ticks());
    CpuTimes { user_s: user / TICKS_PER_SEC, sys_s: sys / TICKS_PER_SEC }
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Voluntary + involuntary context switches summed over the threads
/// alive right now (a thread that has exited takes its count with it, so
/// take both samples of a delta while the same threads live).
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

/// Threads alive right now.
pub fn thread_count() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "Threads:"))
        .unwrap_or(0)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The CPU model string, for the environment record.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_not_with_sleep() {
        let a = cpu_times();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let b = cpu_times();
        assert!(b.since(&a).total_s() >= 0.03, "busy loop must register CPU time");
        assert!(thread_count() >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert!(context_switches() > 0);
        assert!(status_field("Threads:\t7\n", "Threads:") == Some(7));
    }
}
