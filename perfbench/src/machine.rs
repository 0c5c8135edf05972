//! What the process costs and what it runs on: peak resident memory,
//! CPU time, and the stamp printed with every result.

/// Linux reports `/proc/*/stat` CPU times in USER_HZ ticks, which is 100
/// on every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set size of this process so far (VmHWM), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

fn stat_cpu_secs(path: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 12 and 13
    // after the name.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// CPU seconds (user + system) used by every thread of this process so
/// far, exited threads included.
pub fn process_cpu_secs() -> f64 {
    stat_cpu_secs("/proc/self/stat").unwrap_or(0.0)
}

/// CPU seconds used by the calling thread so far.
pub fn thread_cpu_secs() -> f64 {
    stat_cpu_secs("/proc/thread-self/stat").unwrap_or(0.0)
}

/// Worker threads the timed runs use: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The checkout's git revision, read from `.git` in the working
/// directory without running git; `"none"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and build stamp, as one JSON object.
pub fn stamp_json() -> String {
    format!(
        "{{\"nproc\": {}, \"profile\": \"{}\", \"git_rev\": \"{}\", \"rustc\": \"{}\"}}",
        nproc(),
        env!("PERFBENCH_PROFILE"),
        git_rev(),
        env!("PERFBENCH_RUSTC"),
    )
}
