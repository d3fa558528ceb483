//! # stca-serve — resilient online serving/control loop
//!
//! The offline pipeline (profiler → deep forest → policy explorer) answers
//! "what timeout should this station run?" once, from a batch. This crate
//! answers it *continuously*: a deterministic, virtual-clock serving loop
//! that admits EA-prediction + STAP-decision requests from a replayed
//! arrival stream and keeps making sane decisions while the predictor
//! fails, stages stall, and the queue overflows.
//!
//! Robustness pieces, each its own module:
//!
//! - [`fleet`] — the one serving loop, [`serve_fleet`]: N shards behind a
//!   deterministic router, with failover, coordinated graceful drain, and
//!   exact fleet accounting ([`FleetReport::balanced`]). One shard is the
//!   plain loop (see the module docs for its rules).
//! - [`server`] — the loop's configuration ([`ServeConfig`],
//!   [`OverloadPolicy`]), per-shard accounting ([`Accounting`]), and
//!   [`serve`], the one-shard entry.
//! - [`router`] — rendezvous and least-loaded shard selection.
//! - [`breaker`] — a generic circuit breaker (closed / open / half-open
//!   with seeded probe lotteries) wrapping the primary predictor; trips to
//!   the degraded fallback chain and recovers deterministically.
//! - [`hysteresis`] — the policy controller: a new timeout is applied only
//!   after `k` consecutive agreeing decisions.
//! - [`watchdog`] — virtual-time stage watchdog failing stuck stages into
//!   the retry path.
//! - [`model`] — the [`EaModel`] boundary (implemented by `stca-core`'s
//!   `Predictor`) and the closed-form decide stage.
//! - [`adapt`] — the drift-aware model lifecycle: Page-Hinkley drift
//!   detection over EA residuals, warm-start candidate retrains, shadow
//!   scoring, guarded promotion behind the breaker, and automatic
//!   rollback through a bounded version history.
//! - [`request`] — the seeded, chunkable arrival stream.
//!
//! Everything is deterministic at any thread count: parallel work is pure
//! per-request compute shared with `stca_exec::with_helpers` threads, all
//! stateful decisions replay serially in arrival order, and fault
//! injection is keyed by request sequence number. The soak bench asserts bit-identical
//! decision logs at `--threads 1` vs `8` under the heavy fault plan.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod adapt;
pub mod breaker;
mod decision_log;
pub mod fleet;
pub mod hysteresis;
pub mod model;
pub mod request;
pub mod router;
pub mod server;
mod shard;
pub mod watchdog;

pub use adapt::{AdaptConfig, AdaptStats};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Verdict};
pub use fleet::{
    serve_fleet, write_decision_log, write_health, FleetConfig, FleetReport, ShardStats,
};
pub use hysteresis::Hysteresis;
pub use model::{decide, AnalyticEa, EaModel, StationModel, TIMEOUT_GRID};
pub use request::{Request, SyntheticStream};
pub use router::{rendezvous_score, route, Candidate, RouterKind};
pub use server::{serve, Accounting, OverloadPolicy, ServeConfig, ServeReport};
pub use watchdog::{StageRun, WATCHDOG_BUDGET_S};
