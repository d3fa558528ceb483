//! Evaluation utilities: error metrics.
//!
//! The paper reports accuracy as absolute percent error (median and p95).

use stca_util::absolute_percent_error;

/// Absolute-percent-error summary of a prediction set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApeSummary {
    /// Median APE (percent).
    pub median: f64,
    /// 95th-percentile APE (percent).
    pub p95: f64,
    /// Mean APE (percent).
    pub mean: f64,
}

/// Summarize APEs of paired predictions/observations.
pub fn ape_summary(predicted: &[f64], observed: &[f64]) -> ApeSummary {
    assert_eq!(predicted.len(), observed.len());
    assert!(!predicted.is_empty());
    let mut apes: Vec<f64> = predicted
        .iter()
        .zip(observed)
        .map(|(&p, &o)| absolute_percent_error(p, o))
        .collect();
    let mean = apes.iter().sum::<f64>() / apes.len() as f64;
    let median = stca_util::stats::quantile_in_place(&mut apes, 0.5);
    // apes is now sorted
    let p95 = stca_util::stats::quantile_in_place(&mut apes, 0.95);
    ApeSummary { median, p95, mean }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ape_summary_values() {
        let s = ape_summary(&[110.0, 120.0, 90.0], &[100.0, 100.0, 100.0]);
        assert!((s.median - 10.0).abs() < 1e-9);
        assert!((s.mean - 40.0 / 3.0).abs() < 1e-9);
        assert!(s.p95 <= 20.0 && s.p95 >= s.median);
    }
}
