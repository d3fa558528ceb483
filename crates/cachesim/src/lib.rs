//! # stca-cachesim
//!
//! A multi-level set-associative cache simulator implementing the Figure-1
//! data path of the paper: address split into tag/set/offset, way lookup, and
//! CAT-style *write-enable* logic where a workload's fill victims are
//! restricted to the ways its class of service allows, while **hits are
//! allowed in any way** (matching Intel CAT semantics — a resident line hits
//! even if it sits outside the current mask).
//!
//! The simulator substitutes for the paper's Xeon testbed (see DESIGN.md):
//! collocated workloads drive real memory-access streams through private
//! L1d/L1i/L2 caches and a shared, way-partitioned LLC, producing
//!
//! * per-workload **hardware counters** (the 29 cache-usage counters the
//!   paper samples, [`counters::Counter`]),
//! * non-linear **ways → miss-rate** curves that emerge from replacement and
//!   occupancy dynamics rather than from a fitted formula, and
//! * **contention**: a boosted workload filling shared ways evicts its
//!   neighbour's lines, which is precisely the recurring-slowdown effect the
//!   paper's models must capture.
//!
//! Geometry can be scaled down (same way count, fewer sets) so experiments
//! run quickly; miss-rate-vs-ways behaviour depends on footprint relative to
//! way capacity, which scaling preserves when workload footprints are scaled
//! alongside (the workload crate does this).

#![warn(clippy::unwrap_used)]

pub mod address;
pub mod cache;
pub mod config;
pub mod counters;
pub mod hierarchy;
pub mod replacement;

pub use address::{AccessKind, Address};
pub use cache::{AccessOutcome, CacheLevel};
pub use config::{CacheGeometry, HierarchyConfig, Latencies};
pub use counters::{Counter, CounterSet, COUNTER_COUNT};
pub use hierarchy::{Hierarchy, LevelHit, MaskMode};

/// Identifier of a workload driving accesses.
pub type WorkloadId = u32;
