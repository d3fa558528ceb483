//! Error-dump hooks: process-wide callbacks fired when a retried
//! operation gives up for good.
//!
//! Higher layers often hold diagnostic state that is worth persisting at
//! the moment a failure becomes terminal — a flight recorder of recent
//! request traces, a metrics snapshot, a partial checkpoint. This crate
//! cannot know about any of them (it sits near the bottom of the
//! dependency graph), so it exposes a registry instead: callers register
//! a closure, and [`with_retry`](crate::with_retry) fires every
//! registered hook with the terminal error right before returning
//! [`StcaError::RetriesExhausted`]. The CLI, for example, registers a
//! closure that dumps the active trace flight recorder to disk.
//!
//! Hooks are diagnostics, not control flow: they cannot veto or rewrite
//! the error, they run on the failing thread, and a hook that panics
//! is caught and counted (`fault.error_dump_hook_panics_total`) rather
//! than taking the pipeline down with it.

use crate::error::StcaError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

type Hook = Box<dyn Fn(&StcaError) + Send + Sync>;

fn registry() -> &'static Mutex<Vec<(u64, Hook)>> {
    static REGISTRY: OnceLock<Mutex<Vec<(u64, Hook)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Unregisters its hook when dropped, so a scope-local hook (say, one
/// dump file per CLI invocation) cannot outlive the state it captures.
#[must_use = "dropping the guard immediately unregisters the hook"]
pub struct HookGuard {
    id: u64,
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        let mut hooks = registry().lock().unwrap_or_else(PoisonError::into_inner);
        hooks.retain(|(id, _)| *id != self.id);
    }
}

/// Register `hook` to run whenever a retried operation exhausts its
/// budget. Returns a guard that unregisters it on drop.
pub fn register_error_dump_hook(hook: impl Fn(&StcaError) + Send + Sync + 'static) -> HookGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let mut hooks = registry().lock().unwrap_or_else(PoisonError::into_inner);
    hooks.push((id, Box::new(hook)));
    HookGuard { id }
}

/// Fire every registered hook with `err`. Called by
/// [`with_retry`](crate::with_retry) on the give-up path; other terminal
/// failure sites may call it too.
pub fn fire_error_dump_hooks(err: &StcaError) {
    let hooks = registry().lock().unwrap_or_else(PoisonError::into_inner);
    if hooks.is_empty() {
        return;
    }
    stca_obs::counter("fault.error_dump_hooks_fired_total").add(hooks.len() as u64);
    for (_, hook) in hooks.iter() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook(err)));
        if caught.is_err() {
            stca_obs::counter("fault.error_dump_hook_panics_total").inc();
            stca_obs::error!("an error-dump hook panicked; continuing");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::{with_retry, RetryPolicy};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    // The registry is process-global and other tests exhaust retries in
    // parallel, so every hook fires on their errors too. Each test crashes
    // with its own run key and counts only exhaustions of that key.

    fn crash(run_key: u64) -> StcaError {
        StcaError::InjectedCrash {
            run_key,
            attempt: 0,
        }
    }

    fn is_own_exhaustion(err: &StcaError, key: u64) -> bool {
        matches!(
            err,
            StcaError::RetriesExhausted { last, .. }
                if matches!(**last, StcaError::InjectedCrash { run_key, .. } if run_key == key)
        )
    }

    /// Register a hook counting exhaustions of `key`; returns the count
    /// and the guard.
    fn count_exhaustions(key: u64) -> (Arc<AtomicUsize>, HookGuard) {
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let guard = register_error_dump_hook(move |err| {
            if is_own_exhaustion(err, key) {
                seen2.fetch_add(1, Ordering::SeqCst);
            }
        });
        (seen, guard)
    }

    #[test]
    fn hooks_fire_on_retry_exhaustion_with_the_terminal_error() {
        const KEY: u64 = 0x400C_0001;
        let (seen, _guard) = count_exhaustions(KEY);
        let out = with_retry::<()>(&RetryPolicy::none(), 3, |_| Err(crash(KEY)));
        assert!(matches!(out, Err(StcaError::RetriesExhausted { .. })));
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn hooks_do_not_fire_on_recovery_or_non_transient_errors() {
        const KEY: u64 = 0x400C_0002;
        let (seen, _guard) = count_exhaustions(KEY);
        let ok = with_retry(&RetryPolicy::with_max_retries(2), 3, |attempt| {
            if attempt == 0 {
                Err(crash(KEY))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(ok.unwrap(), 1);
        let bail = with_retry::<()>(&RetryPolicy::default(), 3, |_| {
            Err(StcaError::invalid_input("bad spec"))
        });
        assert!(matches!(bail, Err(StcaError::InvalidInput { .. })));
        assert_eq!(seen.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn dropping_the_guard_unregisters() {
        const KEY: u64 = 0x400C_0003;
        let (seen, guard) = count_exhaustions(KEY);
        drop(guard);
        let _ = with_retry::<()>(&RetryPolicy::none(), 3, |_| Err(crash(KEY)));
        assert_eq!(seen.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_panicking_hook_is_contained() {
        const KEY: u64 = 0x400C_0004;
        let _bad = register_error_dump_hook(|_| panic!("boom"));
        let (seen, _good) = count_exhaustions(KEY);
        let out = with_retry::<()>(&RetryPolicy::none(), 3, |_| Err(crash(KEY)));
        assert!(matches!(out, Err(StcaError::RetriesExhausted { .. })));
        // later hooks still ran despite the earlier panic
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }
}
