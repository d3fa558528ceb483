//! # stca-exec
//!
//! Deterministic parallel execution for the STCA pipeline — `std` only.
//!
//! Every compute-heavy stage of the reproduction is embarrassingly parallel:
//! profiling experiments (Stage 1), per-tree / per-level / per-window forest
//! training (Stage 2), queueing replications (Stage 3), and the timeout-grid
//! policy search. This crate is the single place that schedules threads for
//! all of them, built around one primitive:
//!
//! * [`par_map_indexed`] / [`par_map_range`] — run a function over every
//!   index of a slice (or range) on a scoped worker pool and return the
//!   results **in input order**. Workers claim adaptive chunks from a shared
//!   injector, so load balances like a work-stealing pool, but the output
//!   is position-keyed and therefore independent of scheduling.
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
//! Instrumented with stca-obs: `exec.threads` gauge, `exec.tasks_total` and
//! `exec.par_maps_total` counters, `exec.queue_depth` gauge, and an
//! `exec.pool.wall_seconds` histogram per parallel region.
//!
//! [`Rng64::derive_stream`]: stca_util::Rng64::derive_stream

mod config;
mod pool;

pub use config::{init_from_env_and_args, parse_threads, set_threads, threads};
pub use pool::{
    par_map_indexed, par_map_indexed_caught, par_map_range, par_map_range_caught, run_caught,
};
