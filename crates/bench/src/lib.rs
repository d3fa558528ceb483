//! # stca-bench
//!
//! The experiment harness: the paper's tables and figures ([`figures`],
//! run by the `figures` binary; see DESIGN.md for the experiment index)
//! plus shared machinery — parallel profile-dataset construction,
//! model-comparison scoring, policy evaluation backed by the real test
//! environment, and plain-text table output, plus the scenario-driven
//! serving soak ([`soak`]).
//!
//! `figures [--only NAME] [--scale quick|standard|full]` (default
//! `standard`) runs one figure or all of them, so the whole suite can be
//! smoke-tested in seconds or run at paper scale.

pub mod dataset;
pub mod evalfig;
pub mod figures;
pub mod policyeval;
pub mod soak;
pub mod table;

pub use dataset::{build_pair_dataset, Dataset, LabeledRow, Scale};
