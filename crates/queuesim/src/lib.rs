//! # stca-queuesim
//!
//! The paper's Stage-3 first-principles model (§3.3): a discrete-event
//! G/G/k queueing simulator whose service rate switches when a query's time
//! in system crosses the short-term allocation timeout.
//!
//! Short-term allocation breaks the Markov assumption closed-form queueing
//! models rely on — the boost couples queueing delay to service rate (a
//! query delayed in the queue is boosted earlier in its service, or even
//! starts boosted). The simulator models that coupling directly:
//!
//! * queries arrive per a general inter-arrival distribution,
//! * each carries a service *demand* (seconds of work at the default rate),
//! * `k` servers process FIFO,
//! * when `now - arrival >= timeout` the remaining work is processed at
//!   `boost_rate`x speed (Eq. 4's trigger), and the boost is revoked at
//!   departure,
//! * per-query response time, queueing delay, and boost bookkeeping are
//!   recorded; instantaneous queueing delay is exposed as the dynamic
//!   condition feedback §3.3 describes.
//!
//! The boost rate is where effective cache allocation (Eq. 3) enters:
//! `boost_rate = EA x (l_a' / l_a)` — an EA of 1 means the workload converts
//! the whole allocation increase into speedup; contention drives EA (and the
//! realized boost) down.

#![warn(clippy::unwrap_used)]

pub mod analytic;
pub mod metrics;
pub mod simulator;

pub use metrics::SimResult;
pub use simulator::{BudgetedRun, QueueSim, RunBudget, StationConfig};
