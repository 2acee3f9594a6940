//! What the numbers were measured on: a host fingerprint for the output
//! header, the process's peak memory, and a fixed scalar loop whose time
//! shows whether the host was disturbed around a workload.

use std::process::Command;
use std::time::Instant;

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One line describing the host, the build and the code under test.
pub fn fingerprint() -> String {
    format!(
        "nproc={} cpu=\"{}\" isa={} git={} rustc=\"{}\" loadavg=\"{}\"",
        nproc(),
        proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
        ios_backend::simd::active_isa(),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        first_line_of("rustc", &["--version"]),
        std::fs::read_to_string("/proc/loadavg")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
    )
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds a fixed dependent chain of integer operations takes: the
/// same work every call, so a larger number means the host (not the code
/// under test) was slower.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..150_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}
