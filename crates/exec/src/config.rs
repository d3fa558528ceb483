//! Worker-thread count resolution: CLI override > `STCA_THREADS` > cores.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Hard cap on the worker count; tasks in this workspace are coarse
/// (whole experiments, whole forests), so more threads than this only add
/// scheduling noise.
const MAX_THREADS: usize = 256;

/// Process-wide override installed by [`set_threads`]; 0 = unset.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached handle: [`threads`] runs once per `par_map`, so it must not pay
/// a registry name lookup every call.
fn threads_gauge() -> &'static Arc<stca_obs::Gauge> {
    static GAUGE: OnceLock<Arc<stca_obs::Gauge>> = OnceLock::new();
    GAUGE.get_or_init(|| stca_obs::gauge("exec.threads"))
}

/// Parsed `STCA_THREADS`, read once.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("STCA_THREADS").ok()?;
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Some(n.min(MAX_THREADS)),
            _ => {
                stca_obs::warn!("ignoring invalid STCA_THREADS={raw:?} (want a positive integer)");
                None
            }
        }
    })
}

fn default_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS)
    })
}

/// Install a process-wide worker-count override (the `--threads` flag).
/// May be called repeatedly; the latest value wins. Values are clamped to
/// `1..=256`.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
    threads_gauge().set(threads() as f64);
}

/// The effective worker count: [`set_threads`] override, else
/// `STCA_THREADS`, else [`std::thread::available_parallelism`]. Also keeps
/// the `exec.threads` gauge current so `--metrics-out` reports record the
/// parallelism a run actually used.
pub fn threads() -> usize {
    let n = match OVERRIDE.load(Ordering::Relaxed) {
        0 => env_threads().unwrap_or_else(default_threads),
        n => n,
    };
    threads_gauge().set(n as f64);
    n
}

/// Parse a `--threads` value: a positive integer, else the usage message
/// every binary prints for it.
pub fn parse_threads(value: &str) -> Result<usize, String> {
    value
        .parse()
        .ok()
        .filter(|&n: &usize| n >= 1)
        .ok_or_else(|| format!("bad --threads {value:?}: expected a positive integer"))
}

/// Scan an argv-style list for `--threads N` (or `--threads=N`). A value
/// that is not a positive integer is an error, not a silent fallback.
fn threads_from_args<S: AsRef<str>>(args: &[S]) -> Result<Option<usize>, String> {
    let mut iter = args.iter().map(|s| s.as_ref());
    while let Some(arg) = iter.next() {
        let value = if arg == "--threads" {
            iter.next()
        } else {
            arg.strip_prefix("--threads=")
        };
        if let Some(v) = value {
            return parse_threads(v).map(Some);
        }
    }
    Ok(None)
}

/// Binary entry-point hook: honor `--threads N` from the process arguments
/// (falling back to `STCA_THREADS` / core count) and record the effective
/// count in the `exec.threads` gauge. Errs with the usage message on a bad
/// `--threads` value.
pub fn init_from_env_and_args() -> Result<(), String> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(n) = threads_from_args(&args)? {
        set_threads(n);
    }
    stca_obs::debug!("exec: {} worker threads", threads());
    Ok(())
}

/// Serializes tests that touch the process-global [`OVERRIDE`].
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_threads_flag() {
        assert_eq!(threads_from_args(&["--scale", "quick"]), Ok(None));
        assert_eq!(threads_from_args(&["--threads", "4"]), Ok(Some(4)));
        assert_eq!(threads_from_args(&["--threads=12"]), Ok(Some(12)));
        assert_eq!(threads_from_args(&["--threads"]), Ok(None));
        for bad in ["zero", "0", "-3"] {
            let err = threads_from_args(&["--threads", bad]).unwrap_err();
            assert_eq!(
                err,
                format!("bad --threads {bad:?}: expected a positive integer")
            );
        }
    }

    #[test]
    fn override_wins_and_clamps() {
        let _guard = test_lock();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert_eq!(threads(), 1, "clamped up");
        set_threads(100_000);
        assert_eq!(threads(), 256, "clamped down");
        // leave a sane value for other tests in this process
        set_threads(2);
    }
}
