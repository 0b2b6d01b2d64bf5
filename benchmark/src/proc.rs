//! What the operating system says about this process and this machine.

use std::fs;
use std::process::Command;

fn first_field_ns(path: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU time of the calling thread, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    first_field_ns("/proc/thread-self/schedstat").unwrap_or(0)
}

/// CPU time of every live thread of this process, nanoseconds (the
/// scheduler's own accounting: far finer than the 10 ms ticks of
/// `/proc/self/stat`). A thread that exits takes its time with it; over
/// a measured window every thread that does real work stays alive.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|entry| {
            let path = entry.ok()?.path().join("schedstat");
            first_field_ns(path.to_str()?)
        })
        .sum()
}

fn status_field(name: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Current resident set, MiB.
pub fn rss_mb() -> f64 {
    status_field("VmRSS:").unwrap_or(0) as f64 / 1024.0
}

pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// `(stolen, total)` CPU ticks of the whole machine since boot: time the
/// hypervisor ran somebody else while this guest had work to do. The
/// share stolen during a window says how far its timings can be trusted;
/// on the box the benchmark was defined on it sits below 2 % for an hour
/// and then at 35 % for seven minutes, during which every latency
/// doubles.
pub fn steal_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Share of the machine's CPU time stolen between two [`steal_ticks`].
pub fn steal_frac(from: (u64, u64), to: (u64, u64)) -> f64 {
    to.0.saturating_sub(from.0) as f64 / to.1.saturating_sub(from.1).max(1) as f64
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (out.status.success() && !line.is_empty()).then(|| line.to_string())
}

/// The commit checked out in the repository this package sits in, read
/// from `.git` directly so that nothing outside the checkout is touched.
/// An exported tree has no `.git` and reports none.
fn git_head() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => match fs::read_to_string(git.join(name)) {
            Ok(hash) => hash.trim().to_string(),
            Err(_) => fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|hash| hash.trim().to_string()))?,
        },
    };
    Some(hash.chars().take(12).collect())
}

/// Where a result was measured: enough to refuse comparing numbers from
/// two different boxes or toolchains without noticing.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_commit: String,
}

impl Machine {
    pub fn read() -> Machine {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split(':').nth(1)?.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            kernel,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_commit: git_head().unwrap_or_else(|| "none".into()),
        }
    }
}
