//! # stca-profiler
//!
//! The paper's Stage-1 profiling system and the "test environment" it runs
//! in (§3.1, §4). This crate is the **ground truth** of the reproduction:
//! collocated benchmark models execute real address streams through the
//! shared `stca-cachesim` hierarchy under CAT masks, with the proxy-service
//! timeout machinery switching classes of service exactly as the paper's
//! implementation does. Everything the modeling layers see — counter traces,
//! response times, effective cache allocation — is *measured* from these
//! runs, never scripted.
//!
//! Components:
//!
//! * [`executor`] — the collocated test environment: open-loop arrivals,
//!   2-server stations per workload, quantum-interleaved execution over the
//!   shared cache, timeout-triggered COS switches, per-query response
//!   times;
//! * [`proxy`] — the proxy service that monitors outstanding queries and
//!   flips allocation settings (switch on timeout, revert on completion of
//!   the triggering query);
//! * [`ea`] — effective cache allocation (Eq. 3);
//! * [`sampler`] — counter-trace sampling at Table-2 rates, zero-padding,
//!   and the grouped/shuffled counter orderings of Figure 7c;
//! * [`profile`] — Eq.-2 profile vectors and train/test dataset assembly;
//! * [`stratified`] — the stratified condition-sampling procedure of §4
//!   (seed experiments → cluster by EA → refine near centroids).
//!
//! The profiler is the first stage of the fault-tolerant path (`stca-fault`).
//! [`executor::profile_each`] is the one profiling loop: it runs each
//! condition through [`executor::run_experiment_checked`] under a
//! [`stca_fault::FaultPlan`] with retry, rejects damaged rows
//! ([`ProfileRow::validate`]) and checkpoints finished conditions.
//! [`sampler::sanitize_trace`] repairs or rejects damaged traces, and
//! [`stratified::stratified_sample`] skips failed conditions instead of
//! aborting the sweep.

#![warn(clippy::unwrap_used)]

pub mod ea;
pub mod executor;
pub mod profile;
pub mod proxy;
pub mod sampler;
pub mod storage;
pub mod stratified;

pub use ea::effective_allocation;
pub use executor::{
    profile_each, run_experiment_checked, ExperimentOutcome, ExperimentSpec, TestEnvironment,
    WorkloadOutcome,
};
pub use profile::{ProfileRow, ProfileSet};
pub use proxy::ProxyService;
pub use sampler::{apply_faults, sanitize_trace, TraceSanitizeReport};
pub use stratified::{stratified_sample, EvaluatedCondition};
