//! Host facts and process resource usage.
//!
//! CPU time comes from `getrusage(RUSAGE_SELF)` and the load average from
//! `getloadavg`, both libc calls. Peak RSS is the kernel's `VmHWM` for
//! this process: `ru_maxrss` would also count the parent's resident set
//! at the `fork` before `exec` (cargo's, under `cargo run`).

use std::path::Path;

#[cfg(not(target_os = "linux"))]
compile_error!("perf reads Linux process accounting (getrusage, /proc/self/status)");

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn getloadavg(loadavg: *mut f64, nelem: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

/// User plus system CPU seconds of every thread of this process so far.
pub fn cpu_s() -> f64 {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        _rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&ru.ru_utime) + secs(&ru.ru_stime)
}

/// One-minute load average, if the host reports one.
pub fn loadavg() -> Option<f64> {
    let mut loads = [0.0f64; 1];
    // SAFETY: `loads` has room for the one sample requested.
    let n = unsafe { getloadavg(loads.as_mut_ptr(), 1) };
    (n == 1).then_some(loads[0])
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` under `root` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work_and_reports_resident_memory() {
        let before = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_s() > before);
        let rss = peak_rss_mib().expect("Linux reports VmHWM");
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mib().expect("VmHWM") >= rss + 32.0);
    }
}
