//! The order-preserving map entry points and panic isolation.
//!
//! A `par_map` is one batch on the scheduler in `helpers.rs`: every result
//! lands at its input index, so output order is input order, no matter
//! which worker ran what when.

use crate::helpers::{pool_metrics, with_n_helpers, IN_POOL};
use std::cell::Cell;

/// Best-effort human-readable message out of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Map `f` over `0..n` on the worker pool; `out[i] = f(i)`, always.
///
/// The caller is one of the `min(threads(), n)` workers, so no more than
/// [`threads`](crate::threads) threads are runnable. Falls back to a plain
/// serial loop when the effective thread count is 1, when there is at most
/// one task, or when already running on a pool worker — the result is
/// identical in every case, only the wall time changes. A panic in `f`
/// reaches the caller with its own payload.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = crate::threads().min(n);
    if workers <= 1 || IN_POOL.with(Cell::get) {
        pool_metrics().tasks.add(n as u64);
        return (0..n).map(f).collect();
    }
    with_n_helpers(
        workers - 1,
        |&i: &usize| f(i),
        |helpers| helpers.map((0..n).collect()).1,
    )
}

/// Map `f` over a slice on the worker pool; `out[i] = f(i, &items[i])`,
/// always — input order in, input order out. The index parameter is how
/// callers key per-task seed streams (`stream.rng(i as u64)`), keeping
/// results identical at any thread count.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_range(items.len(), |i| f(i, &items[i]))
}

/// [`par_map_indexed`] with panic isolation: a panicking task yields
/// `Err(panic message)` for its own slot instead of tearing down the whole
/// map, and ticks `exec.task_panics_total`. Fault-tolerant pipelines use
/// this so one poisoned experiment fails one item, not the run.
pub fn par_map_indexed_caught<T, R, F>(items: &[T], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_range(items.len(), |i| run_caught(|| f(i, &items[i])))
}

/// Run one closure with panic isolation on the current thread: a panic in
/// `f` becomes `Err(panic message)` and ticks `exec.task_panics_total`.
/// The serving loop's stage watchdog uses this to turn a panicking pipeline
/// stage into a typed failure it can retry or shed instead of unwinding the
/// whole control loop.
pub fn run_caught<R, F>(f: F) -> Result<R, String>
where
    F: FnOnce() -> R,
{
    // AssertUnwindSafe: any invariant `f` breaks dies with the Err — the
    // value is never observed half-built.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => {
            pool_metrics().task_panics.inc();
            Err(panic_message(payload))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stca_util::SeedStream;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let _guard = crate::config::test_lock();
        crate::set_threads(8);
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map_indexed(&items, |i, &v| {
            assert_eq!(i, v);
            v * 3
        });
        assert_eq!(out, (0..1000).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let _guard = crate::config::test_lock();
        crate::set_threads(4);
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_indexed(&empty, |_, &v| v).is_empty());
        assert_eq!(par_map_range(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn identical_results_at_any_thread_count() {
        let _guard = crate::config::test_lock();
        let run = |threads: usize| -> Vec<u64> {
            crate::set_threads(threads);
            let stream = SeedStream::new(42);
            par_map_range(64, |i| {
                let mut rng = stream.rng(i as u64);
                (0..100)
                    .map(|_| rng.next_u64())
                    .fold(0u64, u64::wrapping_add)
            })
        };
        let serial = run(1);
        for threads in [2, 5, 8] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn nested_calls_run_inline() {
        let _guard = crate::config::test_lock();
        crate::set_threads(4);
        let out = par_map_range(8, |i| {
            // inner call must not deadlock or explode the thread count
            let inner = par_map_range(8, move |j| i * 8 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn worker_panic_propagates() {
        let _guard = crate::config::test_lock();
        for threads in [2, 8] {
            crate::set_threads(threads);
            let result = std::panic::catch_unwind(|| {
                par_map_range(16, |i| {
                    if i == 11 {
                        panic!("task 11 failed");
                    }
                    i
                })
            });
            let msg = panic_message(result.expect_err("the panic reaches the caller"));
            assert!(msg.contains("task 11 failed"), "threads={threads}: {msg}");
        }
    }

    #[test]
    fn never_more_runnable_workers_than_threads() {
        let _guard = crate::config::test_lock();
        for threads in [2, 3] {
            crate::set_threads(threads);
            // the bound holds under every interleaving; the pause in each
            // task only makes the workers overlap
            let (active, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            par_map_range(64, |i| {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
                active.fetch_sub(1, Ordering::SeqCst);
                i
            });
            let peak = peak.into_inner();
            assert!(peak <= threads, "threads={threads}: {peak} ran at once");
        }
    }

    #[test]
    fn caught_variant_isolates_panics() {
        let _guard = crate::config::test_lock();
        for threads in [1, 4] {
            crate::set_threads(threads);
            let before = stca_obs::counter("exec.task_panics_total").get();
            let items: Vec<usize> = (0..16).collect();
            let out = par_map_indexed_caught(&items, |i, _| {
                if i % 5 == 3 {
                    panic!("task {i} poisoned");
                }
                i * 2
            });
            assert_eq!(out.len(), 16);
            for (i, r) in out.iter().enumerate() {
                if i % 5 == 3 {
                    let msg = r.as_ref().expect_err("should have panicked");
                    assert!(msg.contains("poisoned"), "{msg}");
                } else {
                    assert_eq!(*r.as_ref().expect("ok"), i * 2);
                }
            }
            let after = stca_obs::counter("exec.task_panics_total").get();
            assert!(after >= before + 3, "threads={threads}");
        }
    }

    #[test]
    fn run_caught_isolates_a_single_closure() {
        assert_eq!(run_caught(|| 41 + 1), Ok(42));
        let before = stca_obs::counter("exec.task_panics_total").get();
        let err = run_caught(|| -> u32 { panic!("stage wedged") }).expect_err("panicked");
        assert!(err.contains("wedged"), "{err}");
        assert!(stca_obs::counter("exec.task_panics_total").get() > before);
    }

    #[test]
    fn counts_tasks() {
        let _guard = crate::config::test_lock();
        crate::set_threads(2);
        let before = stca_obs::counter("exec.tasks_total").get();
        par_map_range(10, |i| i);
        let after = stca_obs::counter("exec.tasks_total").get();
        assert!(after >= before + 10);
    }
}
