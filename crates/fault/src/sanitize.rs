//! Checks for feature values headed into model training.
//!
//! Counter-trace sanitization (stuck rows, implausible u64 counters) lives
//! next to the trace types in `stca-profiler`; this module holds the
//! crate-neutral f64 layer (non-finite detection) plus the
//! plausibility bound both layers share, and the `fault.rows_rejected_total`
//! metric used everywhere a training row is refused.

use std::sync::{Arc, OnceLock};

/// Upper bound on a believable raw counter value per sampling window.
///
/// A 0.2–1 Hz window on the simulated machine moves well under 2⁴⁰ events;
/// injected corruption writes values above `4 ×` this bound so detection
/// has margin on both sides.
pub const COUNTER_PLAUSIBLE_MAX: u64 = 1 << 48;

fn rows_rejected() -> &'static Arc<stca_obs::Counter> {
    static C: OnceLock<Arc<stca_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| stca_obs::counter("fault.rows_rejected_total"))
}

/// True when every value is finite (no NaN, no ±Inf).
pub fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// Record that a training/dataset row was rejected, with the reason logged
/// at warn level. Counted on `fault.rows_rejected_total`.
pub fn reject_row(context: &str, reason: &str) {
    rows_rejected().inc();
    stca_obs::warn!("rejecting row ({context}): {reason}");
}

/// How many rows have been rejected so far (for tests and reports).
pub fn rows_rejected_total() -> u64 {
    rows_rejected().get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_finite_flags_nan_and_infinities() {
        assert!(all_finite(&[1.0, 0.0, -2.5, 0.0, 0.0]));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!all_finite(&[1.0, bad, -2.5]), "{bad}");
        }
    }

    #[test]
    fn reject_row_counts() {
        let before = rows_rejected_total();
        reject_row("test", "ea is NaN");
        assert_eq!(rows_rejected_total(), before + 1);
    }
}
