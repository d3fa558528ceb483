//! The one scheduler: a caller and its helper threads share batches.
//!
//! A caller spawns its helpers in one scope and works beside them as the
//! last worker, so there are never more runnable threads than
//! [`threads`](crate::threads). It has two entry points:
//!
//! * [`par_map_range`](crate::par_map_range) spawns `min(threads(), n) − 1`
//!   helpers for one call and maps `0..n` as one batch.
//! * [`with_helpers`] spawns `threads() − 1` helpers once, for a caller's
//!   whole loop, so a loop that maps one small batch after another pays no
//!   spawn per batch.
//!
//! [`Helpers::map`] publishes a batch. The caller and every idle helper
//! claim blocks of items off one cursor, and each block's results come
//! back as one unit, assembled in input order. The caller waits only for
//! blocks a helper has already claimed: it spins briefly, then yields,
//! then parks. Between batches the helpers park.
//!
//! At one thread, or when called from a pool worker, there are no helpers
//! and everything runs inline on the caller. The caller and the helpers
//! count as pool workers while the helpers live, so a nested `par_map` in
//! any of their work runs inline.
//!
//! A panic in a helper's block is caught there and re-raised, with its own
//! payload, on the caller at the end of that [`Helpers::map`]; helpers
//! stop taking work after one, so the run never hangs.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Scheduler metric handles, resolved once.
pub(crate) struct PoolMetrics {
    par_maps: Arc<stca_obs::Counter>,
    pub(crate) tasks: Arc<stca_obs::Counter>,
    pub(crate) task_panics: Arc<stca_obs::Counter>,
    wall_seconds: Arc<stca_obs::Histogram>,
}

pub(crate) fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        par_maps: stca_obs::counter("exec.par_maps_total"),
        tasks: stca_obs::counter("exec.tasks_total"),
        task_panics: stca_obs::counter("exec.task_panics_total"),
        wall_seconds: stca_obs::histogram("exec.pool.wall_seconds"),
    })
}

thread_local! {
    /// Set while this thread is a helper, or a caller whose helpers live:
    /// nested parallel calls run inline so fan-out never multiplies across
    /// layers (a cascade level fitting forests in parallel must not also
    /// fan out per tree).
    pub(crate) static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Largest block of batch items one claim takes.
const MAX_CLAIM: usize = 64;

/// Busy-wait rounds, then yields, before the caller parks on a claimed
/// block.
const SPINS: usize = 1 << 10;
const YIELDS: usize = 8;

type Payload = Box<dyn Any + Send>;

/// One published batch: its items, the claim cursor, and the finished
/// blocks as `(first index, results)`.
struct Batch<T, R> {
    items: Vec<T>,
    /// Claim cursor. `Relaxed`: it publishes no data, the items are
    /// immutable while the batch is shared.
    next: AtomicUsize,
    /// Items whose results are in `blocks`. Its `Release` add after a
    /// block is pushed pairs with the caller's `Acquire` load, which only
    /// decides whether to keep spinning; the caller reads the blocks after
    /// every helper has released the batch under the state lock.
    done: AtomicUsize,
    workers: usize,
    blocks: Mutex<Vec<(usize, Vec<R>)>>,
}

impl<T, R> Batch<T, R> {
    fn unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.items.len()
    }

    /// Claim and run blocks until none is left. A block is a quarter-share
    /// of what looks left per worker, at most [`MAX_CLAIM`], so the tail
    /// decays to single items and nobody waits long on a straggler.
    fn work(&self, map: &(dyn Fn(&T) -> R + Sync)) {
        let n = self.items.len();
        loop {
            let remaining = n.saturating_sub(self.next.load(Ordering::Relaxed));
            let len = (remaining / (self.workers * 4)).clamp(1, MAX_CLAIM);
            let start = self.next.fetch_add(len, Ordering::Relaxed);
            if start >= n {
                return;
            }
            let end = (start + len).min(n);
            let out: Vec<R> = self.items[start..end].iter().map(map).collect();
            lock(&self.blocks).push((start, out));
            self.done.fetch_add(end - start, Ordering::Release);
        }
    }

    /// The items back, and every result in input order.
    fn into_parts(self) -> (Vec<T>, Vec<R>) {
        let mut blocks = self
            .blocks
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        blocks.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(self.items.len());
        for (_, block) in blocks {
            out.extend(block);
        }
        assert_eq!(out.len(), self.items.len(), "every block handed back");
        (self.items, out)
    }
}

struct State<T, R> {
    /// The batch being mapped, while it is open to helpers.
    batch: Option<Arc<Batch<T, R>>>,
    /// Helpers holding a clone of `batch`.
    holders: usize,
    /// The first panic a helper caught, until the caller re-raises it.
    panic: Option<Payload>,
    stop: bool,
}

struct Shared<T, R> {
    state: Mutex<State<T, R>>,
    /// Helpers park here while there is nothing to do.
    work: Condvar,
    /// The caller parks here while helpers finish claimed work; a helper
    /// signals it after every block run.
    idle: Condvar,
}

/// Lock, recovering the guard after a panic elsewhere: every update under
/// these locks is one assignment or push, so the data is valid at every
/// step, and `StopOnDrop` must not panic while the caller unwinds.
fn lock<S>(m: &Mutex<S>) -> MutexGuard<'_, S> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv`, recovering the guard as [`lock`] does. Callers re-check
/// what they wait for: a wake-up may be spurious or meant for another.
fn wait<'g, S>(cv: &Condvar, guard: MutexGuard<'g, S>) -> MutexGuard<'g, S> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

impl<T, R> Shared<T, R> {
    fn state(&self) -> MutexGuard<'_, State<T, R>> {
        lock(&self.state)
    }
}

/// Marks the current thread a pool worker and restores the flag on drop;
/// the one place `IN_POOL` is set.
struct InPool(bool);

impl InPool {
    fn enter() -> Self {
        InPool(IN_POOL.with(|p| p.replace(true)))
    }
}

impl Drop for InPool {
    fn drop(&mut self) {
        IN_POOL.with(|p| p.set(self.0));
    }
}

/// Tells the helpers to exit once the caller's body returns or unwinds.
struct StopOnDrop<'s, T, R>(&'s Shared<T, R>);

impl<T, R> Drop for StopOnDrop<'_, T, R> {
    fn drop(&mut self) {
        self.0.state().stop = true;
        self.0.work.notify_all();
    }
}

/// One helper thread: claim blocks of the open batch, else park.
fn help<T, R>(shared: &Shared<T, R>, map: &(dyn Fn(&T) -> R + Sync)) {
    let _in_pool = InPool::enter();
    let mut st = shared.state();
    loop {
        if st.stop || st.panic.is_some() {
            return;
        }
        if let Some(batch) = st.batch.as_ref().filter(|b| b.unclaimed()).cloned() {
            st.holders += 1;
            drop(st);
            let result = catch_unwind(AssertUnwindSafe(|| batch.work(map)));
            // release the batch before the caller can see `holders` fall
            drop(batch);
            st = shared.state();
            st.holders -= 1;
            if let Err(payload) = result {
                st.panic.get_or_insert(payload);
            }
            shared.idle.notify_one();
        } else {
            st = wait(&shared.work, st);
        }
    }
}

/// The caller's handle on its helper threads; see the module docs.
pub struct Helpers<'s, T, R> {
    shared: &'s Shared<T, R>,
    map: &'s (dyn Fn(&T) -> R + Sync),
    /// Helper threads beside the caller: 0 when called from a pool worker.
    count: usize,
}

impl<T, R> Helpers<'_, T, R> {
    /// Map the helpers' function over `items`, shared with every idle
    /// helper; `out[i] = map(&items[i])`, always. The items come back
    /// with the results. One call is one `exec.par_maps_total` region when
    /// there are helpers, and its items count in `exec.tasks_total`.
    pub fn map(&mut self, items: Vec<T>) -> (Vec<T>, Vec<R>) {
        let metrics = pool_metrics();
        let n = items.len();
        metrics.tasks.add(n as u64);
        if self.count == 0 || n <= 1 {
            let out = items.iter().map(self.map).collect();
            return (items, out);
        }
        metrics.par_maps.inc();
        let timer = stca_obs::StageTimer::with_histogram(metrics.wall_seconds.clone());
        let batch = Arc::new(Batch {
            items,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            workers: self.count + 1,
            blocks: Mutex::new(Vec::new()),
        });
        self.shared.state().batch = Some(Arc::clone(&batch));
        self.shared.work.notify_all();
        batch.work(self.map);
        // every block is claimed; wait out the ones helpers hold
        for round in 0..SPINS + YIELDS {
            if batch.done.load(Ordering::Acquire) == n {
                break;
            }
            if round < SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let mut st = self.shared.state();
        st.batch = None;
        while st.holders > 0 {
            st = wait(&self.shared.idle, st);
        }
        if let Some(payload) = st.panic.take() {
            drop(st);
            resume_unwind(payload);
        }
        drop(st);
        let batch = Arc::into_inner(batch).expect("no helper holds a finished batch");
        timer.stop();
        batch.into_parts()
    }
}

/// Run `body` with `threads() − 1` helper threads that live until it
/// returns; see the module docs. `map` is the function [`Helpers::map`]
/// applies to batch items. It must be pure for results to be independent
/// of the thread count: scheduling decides only when and where an item
/// runs.
pub fn with_helpers<T, R, Out>(
    map: impl Fn(&T) -> R + Sync,
    body: impl FnOnce(&mut Helpers<'_, T, R>) -> Out,
) -> Out
where
    T: Send + Sync,
    R: Send,
{
    let count = if IN_POOL.with(Cell::get) {
        0
    } else {
        crate::threads() - 1
    };
    with_n_helpers(count, map, body)
}

/// [`with_helpers`] with `count` helper threads, the one place that
/// spawns them.
pub(crate) fn with_n_helpers<T, R, Out>(
    count: usize,
    map: impl Fn(&T) -> R + Sync,
    body: impl FnOnce(&mut Helpers<'_, T, R>) -> Out,
) -> Out
where
    T: Send + Sync,
    R: Send,
{
    let shared = Shared {
        state: Mutex::new(State {
            batch: None,
            holders: 0,
            panic: None,
            stop: false,
        }),
        work: Condvar::new(),
        idle: Condvar::new(),
    };
    let map = &map;
    std::thread::scope(|scope| {
        for _ in 0..count {
            scope.spawn(|| help(&shared, map));
        }
        let _stop = StopOnDrop(&shared);
        let _in_pool = InPool::enter();
        body(&mut Helpers {
            shared: &shared,
            map,
            count,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Run `f` on its own thread and fail, instead of stalling, if it has
    /// not finished within a generous bound.
    fn watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(Ok(r)) => r,
            Ok(Err(payload)) => resume_unwind(payload),
            Err(_) => panic!("helpers hung"),
        }
    }

    /// Skewed per-item cost: every seventh value spins much longer.
    fn skewed(v: &u64) -> u64 {
        let rounds = if v.is_multiple_of(7) { 20_000 } else { 50 };
        (0..rounds).fold(*v, |acc, k| acc.rotate_left(5) ^ k)
    }

    #[test]
    fn batch_results_come_back_in_input_order() {
        let _guard = crate::config::test_lock();
        let items: Vec<u64> = (0..1_000).map(|v| v * 31 + 7).collect();
        let expect: Vec<u64> = items.iter().map(skewed).collect();
        for threads in [1, 2, 5, 8] {
            crate::set_threads(threads);
            let got = with_helpers(skewed, |h| {
                assert_eq!(h.count, threads - 1);
                // several batches, one of them not a multiple of a claim
                [1_000, 333, 1, 0].map(|len| {
                    let (back, out) = h.map(items[..len].to_vec());
                    assert_eq!(back, items[..len]);
                    out
                })
            });
            for out in got {
                assert_eq!(out, expect[..out.len()], "threads={threads}");
            }
        }
    }

    #[test]
    fn nested_par_map_runs_inline_in_helper_work() {
        let _guard = crate::config::test_lock();
        crate::set_threads(4);
        let here = std::thread::current().id();
        with_helpers(
            |&i: &usize| {
                let ids = crate::par_map_range(8, |_| std::thread::current().id());
                assert!(ids.iter().all(|&id| id == ids[0]), "nested map fanned out");
                i
            },
            |h| {
                let (_, out) = h.map((0..300).collect());
                assert_eq!(out, (0..300).collect::<Vec<_>>());
                // the caller's own nested maps run inline too
                let ids = crate::par_map_range(8, |_| std::thread::current().id());
                assert!(ids.iter().all(|&id| id == here));
            },
        );
        // and the flag is the caller's own again afterwards
        assert!(!IN_POOL.with(|p| p.get()));
    }

    #[test]
    fn panics_reach_the_caller() {
        let _guard = crate::config::test_lock();
        for threads in [1, 2, 8] {
            crate::set_threads(threads);
            // a panicking batch item, which with helpers may run on one
            let err = watchdog(move || {
                catch_unwind(|| {
                    with_helpers(
                        |&i: &usize| {
                            if i == 517 {
                                panic!("item 517 failed");
                            }
                            i
                        },
                        |h| {
                            for _ in 0..4 {
                                h.map((0..1_000).collect());
                            }
                        },
                    )
                })
            });
            let payload = err.expect_err("a block panic is lost");
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("item 517"), "threads={threads}: {msg}");
        }
    }

    #[test]
    fn one_thread_runs_everything_on_the_caller() {
        let _guard = crate::config::test_lock();
        crate::set_threads(1);
        let here = std::thread::current().id();
        let ids = with_helpers(
            |_: &u8| std::thread::current().id(),
            |h| {
                assert_eq!(h.count, 0);
                h.map(vec![0u8; 257]).1
            },
        );
        assert_eq!(ids.len(), 257);
        assert!(ids.iter().all(|&id| id == here));
    }

    #[test]
    fn counts_items_as_tasks() {
        let _guard = crate::config::test_lock();
        crate::set_threads(2);
        let tasks = stca_obs::counter("exec.tasks_total");
        let regions = stca_obs::counter("exec.par_maps_total");
        let (tasks_before, regions_before) = (tasks.get(), regions.get());
        with_helpers(
            |&v: &u8| v,
            |h| {
                h.map(vec![0u8; 100]);
            },
        );
        assert!(tasks.get() >= tasks_before + 100);
        assert!(regions.get() > regions_before, "one region per shared map");
    }
}
