//! What a result says about the machine it ran on.

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Machine-wide CPU time counters (`/proc/stat`), for the share of time a
/// virtual machine's hypervisor gave to other guests ("steal"). A run
/// with a high share measured a slower machine, not slower code.
#[derive(Clone, Copy, Debug)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// The current counters; `None` where `/proc/stat` is unavailable.
    pub fn now() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal ...
        Some(CpuTimes { steal: *fields.get(7)?, total: fields.iter().take(8).sum() })
    }

    /// Share of all CPU time since `self` that was stolen (0 if unknown).
    pub fn steal_share_since(self) -> f64 {
        match CpuTimes::now() {
            Some(now) if now.total > self.total => {
                (now.steal - self.steal) as f64 / (now.total - self.total) as f64
            }
            _ => 0.0,
        }
    }
}
