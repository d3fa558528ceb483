//! # stca-util
//!
//! Shared foundations for the short-term cache allocation (STCA) reproduction:
//! deterministic random number generation, probability distributions used by
//! workload and arrival models, online statistics and percentile estimation,
//! a small row-major matrix type shared by the learning crates, and a compact
//! k-means implementation used by stratified profiling and concept clustering.
//!
//! Everything in this crate is deterministic given a seed: experiments in the
//! paper reproduction must be replayable bit-for-bit so that figure harnesses
//! and tests agree across runs.

pub mod args;
pub mod bound;
pub mod dist;
pub mod kmeans;
pub mod matrix;
pub mod rng;
pub mod sort;
pub mod stats;

pub use args::{ArgError, Args, SpecError, SpecErrorKind, SpecLocation};
pub use bound::Bound;
pub use dist::Distribution;
pub use matrix::Matrix;
pub use rng::{Rng64, SeedStream};
pub use sort::{argsort_f64, stable_partition_in_place};
pub use stats::{OnlineStats, Percentiles};

/// Simulated time, in seconds. All simulators in the workspace use seconds as
/// the base unit; workload specs express service times in seconds too.
pub type Seconds = f64;

/// Absolute percent error between a prediction and an observation, in
/// percent (e.g. `11.0` means 11%). Matches the accuracy metric used
/// throughout the paper's evaluation (Figures 6 and 7).
///
/// Observations of exactly zero would divide by zero; the profiling layer
/// never produces zero response times, but we guard with a small floor so
/// the metric stays finite on degenerate inputs.
pub fn absolute_percent_error(predicted: f64, observed: f64) -> f64 {
    let denom = observed.abs().max(1e-12);
    ((predicted - observed).abs() / denom) * 100.0
}

/// Median absolute percent error over paired predictions/observations.
pub fn median_ape(predicted: &[f64], observed: &[f64]) -> f64 {
    assert_eq!(predicted.len(), observed.len(), "paired slices required");
    let mut apes: Vec<f64> = predicted
        .iter()
        .zip(observed)
        .map(|(&p, &o)| absolute_percent_error(p, o))
        .collect();
    stats::quantile_in_place(&mut apes, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ape_basics() {
        assert!((absolute_percent_error(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert!((absolute_percent_error(90.0, 100.0) - 10.0).abs() < 1e-9);
        assert_eq!(absolute_percent_error(5.0, 5.0), 0.0);
    }

    #[test]
    fn ape_zero_observed_is_finite() {
        assert!(absolute_percent_error(1.0, 0.0).is_finite());
    }

    #[test]
    fn median_ape_odd() {
        let pred = [10.0, 20.0, 30.0];
        let obs = [10.0, 10.0, 10.0]; // APEs: 0, 100, 200
        assert!((median_ape(&pred, &obs) - 100.0).abs() < 1e-9);
    }
}
