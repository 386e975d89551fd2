//! Host facts recorded beside the results, and host hygiene checks.

use std::hint::black_box;
use std::time::Instant;

use swque_trace::Json;

/// Returns the `SWQUE_*` environment variables that are set. The
/// simulator's own harness reads some of them silently (`SWQUE_INSTS`,
/// `SWQUE_WARMUP` and `SWQUE_THREADS` in `swque-bench`, `SWQUE_NO_SKIP` in
/// `Core::new`), which would change the measured work without a trace in
/// the results, so the benchmark refuses to run while any is set.
pub fn swque_knobs_set() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SWQUE_"))
        .collect();
    set.sort();
    set
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host-speed probe: seconds for a fixed integer loop in the benchmark's
/// own code (no simulator call). Run beside every measurement, it shows
/// when a set of runs hit a slow host period: the guest cannot see the
/// host contention that slows it.
pub fn speed_probe_s() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for i in 0..black_box(20_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Host facts: parallelism, toolchain and source commit.
pub fn facts() -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    Json::obj([
        ("nproc", Json::from(nproc)),
        (
            "rustc",
            Json::from(rustc_version().unwrap_or_else(|| "unknown".into())),
        ),
        (
            "commit",
            Json::from(git_commit().unwrap_or_else(|| "unknown".into())),
        ),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
    ])
}

fn rustc_version() -> Option<String> {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let out = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git (a checkout without `.git` has no commit to name).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}
