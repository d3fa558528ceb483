//! # stca-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (see DESIGN.md for the experiment index) plus shared
//! machinery — parallel profile-dataset construction, model-comparison
//! scoring, policy evaluation backed by the real test environment, and
//! plain-text table output, plus the scenario-driven serving soak
//! ([`soak`]).
//!
//! Every figure/table binary accepts `--scale quick|standard|full`
//! (default `standard`) so the whole suite can be smoke-tested in seconds
//! or run at paper scale.

pub mod dataset;
pub mod evalfig;
pub mod policyeval;
pub mod soak;
pub mod table;

pub use dataset::{build_pair_dataset, build_pair_dataset_checked, Dataset, LabeledRow, Scale};

/// Parse the common `--scale` argument from a binary's argv.
pub fn scale_from_args() -> Scale {
    let args = stca_util::Args::from_env().unwrap_or_default();
    match args.get("scale") {
        Some("quick") => Scale::Quick,
        Some("full") => Scale::Full,
        _ => Scale::Standard,
    }
}
