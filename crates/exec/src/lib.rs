//! # stca-exec
//!
//! Deterministic parallel execution for the STCA pipeline — `std` only.
//!
//! Every compute-heavy stage of the reproduction is embarrassingly parallel:
//! profiling experiments (Stage 1), per-tree / per-level / per-window forest
//! training (Stage 2), and the timeout-grid policy search; the serving
//! fleet's per-request compute runs between the chunks of its serial
//! replay. This crate is the single place that schedules threads for all
//! of them. It has one scheduler: a caller spawns helper threads in one
//! scope, publishes a batch, and claims adaptive blocks of it off one
//! cursor beside them; results come back **in input order**, so they are
//! independent of scheduling. The caller is the last worker, so there are
//! never more runnable threads than [`threads`]. It has two entry points:
//!
//! * [`par_map_indexed`] / [`par_map_range`] — run a function over every
//!   index of a slice (or range) as one batch, with `min(threads(), n) − 1`
//!   helpers spawned for the call.
//! * [`with_helpers`] — for a loop that maps many small batches, such as
//!   the serving fleet's chunked replay: `threads() − 1` helpers live for
//!   the whole loop instead of being spawned per batch. The caller and
//!   idle helpers share each batch ([`Helpers::map`]).
//!
//! Determinism is a contract shared with callers: tasks must not share
//! mutable state, and any randomness must come from a tagged stream
//! ([`stca_util::SeedStream`] / [`Rng64::derive_stream`]) keyed by the task
//! index — never from a generator threaded mutably across tasks. Under that
//! discipline the same seed produces bit-identical results at *any* thread
//! count, which `tests/determinism.rs` at the workspace root enforces.
//!
//! The worker count resolves, in order: a process-wide [`set_threads`]
//! override (the `--threads` CLI flag), the `STCA_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. Nested calls run
//! inline on the already-parallel worker — fan-out never multiplies.
//!
//! Instrumented with stca-obs: `exec.threads` gauge, `exec.tasks_total`,
//! `exec.par_maps_total` and `exec.task_panics_total` counters, and an
//! `exec.pool.wall_seconds` histogram per parallel region.
//!
//! [`Rng64::derive_stream`]: stca_util::Rng64::derive_stream

mod config;
mod helpers;
mod pool;

pub use config::{init_from_env_and_args, parse_threads, set_threads, threads};
pub use helpers::{with_helpers, Helpers};
pub use pool::{par_map_indexed, par_map_indexed_caught, par_map_range, run_caught};
