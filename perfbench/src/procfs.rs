//! Process counters read from Linux `/proc`: CPU time, resident memory
//! and bytes written, for the benchmark process and its server children.

/// Kernel clock ticks per second (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_SEC: u64 = 100;

fn read(pid: u32, file: &str) -> Option<String> {
    std::fs::read_to_string(format!("/proc/{pid}/{file}")).ok()
}

/// User + system CPU time of `pid` (all its threads), in microseconds.
fn cpu_micros(pid: u32) -> Option<u64> {
    let stat = read(pid, "stat")?;
    // The command name is parenthesised and may hold spaces: count the
    // fields after its closing parenthesis (field 3, `state`, is first).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1_000_000 / TICKS_PER_SEC)
}

/// Resident set size of `pid`, in kB.
fn rss_kb(pid: u32) -> Option<u64> {
    let status = read(pid, "status")?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Bytes `pid` passed to `write`-family system calls.
fn wchar(pid: u32) -> Option<u64> {
    let io = read(pid, "io")?;
    let line = io.lines().find(|l| l.starts_with("wchar:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Time the hypervisor ran other guests while this machine's CPUs had
/// work, in ticks, over all CPUs (`steal` in `/proc/stat`).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The benchmark process plus `children`.
pub struct Group {
    pids: Vec<u32>,
}

impl Group {
    pub fn new(children: &[u32]) -> Group {
        let mut pids = vec![std::process::id()];
        pids.extend_from_slice(children);
        Group { pids }
    }

    fn sum(&self, f: fn(u32) -> Option<u64>) -> u64 {
        self.pids.iter().filter_map(|&p| f(p)).sum()
    }

    /// CPU time of the group, in microseconds (10 ms resolution).
    pub fn cpu_micros(&self) -> u64 {
        self.sum(cpu_micros)
    }

    /// Resident memory of the group, in MB.
    pub fn rss_mb(&self) -> f64 {
        self.sum(rss_kb) as f64 / 1024.0
    }

    /// Bytes the group handed to `write` calls.
    pub fn wchar(&self) -> u64 {
        self.sum(wchar)
    }
}
