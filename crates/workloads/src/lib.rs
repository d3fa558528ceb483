//! # stca-workloads
//!
//! Synthetic models of the paper's Table-1 benchmarks. Each benchmark is a
//! [`spec::WorkloadSpec`]: a memory [`pattern::AccessPattern`] whose cache
//! character matches the table (data reuse, footprint, miss profile), a
//! service-time scale, and per-query demand variation. Queries drive *real*
//! address streams through `stca-cachesim`, so cache sensitivity and
//! contention are emergent, not scripted.
//!
//! | Benchmark | Table-1 character | Model |
//! |---|---|---|
//! | Jacobi | memory-intensive, moderate misses | stencil sweeps over a large grid |
//! | KNN | high reuse, low misses | Zipf-skewed reuse of a cache-resident set |
//! | Kmeans | high reuse, low misses | hot centroids + point scan |
//! | Spkmeans | higher misses from task execution | Kmeans with task-switch jumps, larger footprint |
//! | Spstream | I/O intensive, high misses | one-pass streaming |
//! | BFS | limited reuse, moderate misses | uniform pointer chase |
//! | Social | moderate reuse, moderate misses | 36 microservice regions, Zipf across regions |
//! | Redis | low reuse, high misses | weak-Zipf lookups over a large keyspace |
//!
//! The crate also provides the runtime-condition grid of Table 2
//! (inter-arrival 25–95% of service rate, timeouts 0–600% of service time,
//! counter sampling 0.2–1 Hz).

#![warn(clippy::unwrap_used)]

pub mod conditions;
pub mod pattern;
pub mod spec;

pub use conditions::RuntimeCondition;
pub use pattern::{AccessGenerator, AccessPattern};
pub use spec::{BenchmarkId, BenchmarkParseError, WorkloadSpec};
