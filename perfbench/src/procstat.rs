//! Process CPU time, host CPU steal and peak memory, read from `/proc`.

use std::fs;

/// Kernel clock ticks per second of the `/proc` CPU counters (`USER_HZ`,
/// 100 on every Linux architecture this runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU time of this process, summed over all its threads
/// (including threads that already exited), in milliseconds.
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields after it are
    // space-separated, starting with field 3 (state).
    let rest = &stat[stat.rfind(')').expect("/proc/self/stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 * 1e3 / TICKS_PER_SEC
}

/// Host-wide CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    busy: u64,
    steal: u64,
    total: u64,
}

impl HostCpu {
    pub fn read() -> Self {
        let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let line = stat.lines().next().expect("/proc/stat has a cpu line");
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().expect("numeric /proc/stat field"))
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user and nice.
        let field = |i: usize| v.get(i).copied().unwrap_or(0);
        let busy = field(0) + field(1) + field(2) + field(5) + field(6);
        let steal = field(7);
        let total = busy + field(3) + field(4) + steal;
        Self { busy, steal, total }
    }

    /// Share of host CPU time stolen by the hypervisor between `self`
    /// and the later reading `end`, in percent.
    pub fn steal_pct(&self, end: &HostCpu) -> f64 {
        let total = end.total.saturating_sub(self.total).max(1);
        100.0 * end.steal.saturating_sub(self.steal) as f64 / total as f64
    }

    /// Share of host CPU time spent busy between `self` and `end`, as a
    /// fraction of 1.
    pub fn utilisation(&self, end: &HostCpu) -> f64 {
        let total = end.total.saturating_sub(self.total).max(1);
        end.busy.saturating_sub(self.busy) as f64 / total as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}
