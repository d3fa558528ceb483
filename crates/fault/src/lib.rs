//! # stca-fault
//!
//! Deterministic fault injection and the tolerance machinery that survives
//! it — `std` only.
//!
//! The paper's Stage-1 profiling runs for hours against real hardware:
//! counter sampling drops samples, returns garbage after phase changes, and
//! individual experiment runs crash or time out. This crate makes that
//! hostile world *reproducible* so the rest of the pipeline can be hardened
//! against it and tested under it:
//!
//! * [`plan::FaultPlan`] — a seeded description of what goes wrong and how
//!   often (run crashes, injected timeouts/latency, sample dropout, counter
//!   corruption, stuck sensors, measurement noise, predictor failures,
//!   stage stalls, and the serving fleet's shard and model-lifecycle
//!   faults). Each setting is one row of the `faults!` table, which
//!   generates the struct, its presets and its `key=value` surface; every
//!   Bernoulli fault draw goes through one roll. Every decision is drawn
//!   from a tagged [`stca_util::SeedStream`] keyed by `(plan seed, run key,
//!   attempt, sample)` or `(plan seed, shard, epoch)`, never from shared
//!   mutable state, so the same plan produces bit-identical faults at any
//!   `--threads` value.
//! * [`error::StcaError`] — the typed error hierarchy that replaces
//!   `unwrap`/`panic!` on the profiler → dataset → training → policy-search
//!   path, with usage-vs-runtime exit codes for the CLI.
//! * [`retry`] — bounded retry with exponential backoff on a *virtual*
//!   clock (no wall-clock sleeping, so retried pipelines stay deterministic
//!   and fast) and seeded jitter.
//! * [`sanitize`] — non-finite checks for feature values, the counter
//!   plausibility bound and the rejected-row counter.
//! * [`checkpoint`] — a JSON checkpoint store so long runs (policy-grid
//!   exploration, dataset builds) resume from the last completed cell after
//!   a kill, bit-identically.
//!
//! Everything is observable through `stca-obs` under the `fault.*` metric
//! namespace.

pub mod checkpoint;
pub mod error;
pub mod plan;
pub mod retry;
pub mod sanitize;

pub use checkpoint::Checkpoint;
pub use error::StcaError;
pub use plan::{FaultInjector, FaultPlan, SampleFault};
pub use retry::{with_retry, RetryPolicy};
