//! The scoped worker pool and its order-preserving map primitive.
//!
//! Scheduling is a shared-injector design: tasks live in the input slice,
//! workers claim adaptive chunks off an atomic cursor (large chunks while
//! the queue is long, single tasks near the end — the same tail behaviour
//! work-stealing deques converge to), and every result is written to the
//! slot of its input index. Output order is therefore input order, no
//! matter which worker ran what when.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Per-pool metric handles, resolved once.
pub(crate) struct PoolMetrics {
    pub(crate) par_maps: Arc<stca_obs::Counter>,
    pub(crate) tasks: Arc<stca_obs::Counter>,
    task_panics: Arc<stca_obs::Counter>,
    queue_depth: Arc<stca_obs::Gauge>,
    pub(crate) wall_seconds: Arc<stca_obs::Histogram>,
}

pub(crate) fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        par_maps: stca_obs::counter("exec.par_maps_total"),
        tasks: stca_obs::counter("exec.tasks_total"),
        task_panics: stca_obs::counter("exec.task_panics_total"),
        queue_depth: stca_obs::gauge("exec.queue_depth"),
        wall_seconds: stca_obs::histogram("exec.pool.wall_seconds"),
    })
}

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

thread_local! {
    /// Set while this thread is a pool worker, or a helper or the caller
    /// inside [`crate::with_helpers`]: nested parallel calls run inline so
    /// fan-out never multiplies across layers (a cascade level fitting
    /// forests in parallel must not also fan out per tree).
    pub(crate) static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Map `f` over `0..n` on the worker pool; `out[i] = f(i)`, always.
///
/// Falls back to a plain serial loop when the effective thread count is 1,
/// when there is at most one task, or when already running on a pool
/// worker — the result is identical in every case, only the wall time
/// changes. Panics in `f` propagate to the caller.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let metrics = pool_metrics();
    metrics.tasks.add(n as u64);
    let workers = crate::threads().min(n);
    if workers <= 1 || IN_POOL.with(|p| p.get()) {
        return (0..n).map(f).collect();
    }
    metrics.par_maps.inc();
    let timer = stca_obs::StageTimer::with_histogram(metrics.wall_seconds.clone());
    // Mutex<Option<R>> rather than OnceLock<R>: the slot type must be Sync
    // with only R: Send, and each slot is locked exactly once, uncontended.
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let f = &f;
            let slots = &slots;
            let cursor = &cursor;
            scope.spawn(move || {
                IN_POOL.with(|p| p.set(true));
                loop {
                    // Adaptive chunk: a quarter-share of what looks left,
                    // decaying to single tasks so stragglers stay balanced.
                    let remaining = n.saturating_sub(cursor.load(Ordering::Relaxed));
                    let chunk = (remaining / (workers * 4)).clamp(1, 64);
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    pool_metrics().queue_depth.set(n.saturating_sub(end) as f64);
                    for (i, slot) in slots.iter().enumerate().take(end).skip(start) {
                        let r = f(i);
                        *slot.lock().expect("slot lock") = Some(r);
                    }
                }
            });
        }
    });
    timer.stop();
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("scope join guarantees every slot is filled")
        })
        .collect()
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

/// [`par_map_range`] with panic isolation: a panicking task yields
/// `Err(panic message)` for its own slot instead of tearing down the whole
/// map, and ticks `exec.task_panics_total`. Fault-tolerant pipelines use
/// this so one poisoned experiment fails one item, not the run.
pub fn par_map_range_caught<R, F>(n: usize, f: F) -> Vec<Result<R, String>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_range(n, |i| {
        // AssertUnwindSafe: `f` is &-called and any broken invariants die
        // with the Err slot — the value is never observed half-built.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
            Ok(r) => Ok(r),
            Err(payload) => {
                pool_metrics().task_panics.inc();
                Err(panic_message(payload))
            }
        }
    })
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
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => {
            pool_metrics().task_panics.inc();
            Err(panic_message(payload))
        }
    }
}

/// [`par_map_indexed`] with panic isolation; see [`par_map_range_caught`].
pub fn par_map_indexed_caught<T, R, F>(items: &[T], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_range_caught(items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stca_util::SeedStream;

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
        crate::set_threads(4);
        let result = std::panic::catch_unwind(|| {
            par_map_range(16, |i| {
                if i == 11 {
                    panic!("task 11 failed");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn caught_variant_isolates_panics() {
        let _guard = crate::config::test_lock();
        for threads in [1, 4] {
            crate::set_threads(threads);
            let before = stca_obs::counter("exec.task_panics_total").get();
            let out = par_map_range_caught(16, |i| {
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
