//! Bounded retry with exponential backoff on a virtual clock.
//!
//! Real profiling harnesses sleep between retries; a deterministic
//! reproduction must not, or wall time (and any time-derived state) would
//! vary run to run. Backoff here is *accounted* instead of slept: each
//! retry's delay — base × multiplierᵃᵗᵗᵉᵐᵖᵗ, widened by seeded jitter — is
//! accumulated on a virtual clock and recorded to the
//! `fault.backoff_virtual_seconds` histogram, so the schedule is observable
//! and reproducible while the loop itself runs at full speed.

use crate::error::StcaError;
use stca_util::SeedStream;
use std::sync::{Arc, OnceLock};

// Decorrelates the jitter stream from every other consumer of a run seed.
const JITTER_SALT: u64 = 0xBACC_0FF5;

struct RetryMetrics {
    retries: Arc<stca_obs::Counter>,
    recovered: Arc<stca_obs::Counter>,
    giveups: Arc<stca_obs::Counter>,
    backoff_s: Arc<stca_obs::Histogram>,
}

fn retry_metrics() -> &'static RetryMetrics {
    static METRICS: OnceLock<RetryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| RetryMetrics {
        retries: stca_obs::counter("fault.retries_total"),
        recovered: stca_obs::counter("fault.retries_recovered_total"),
        giveups: stca_obs::counter("fault.retry_giveups_total"),
        backoff_s: stca_obs::histogram("fault.backoff_virtual_seconds"),
    })
}

/// Retry schedule: how many retries, and how the backoff grows.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Backoff before the first retry, virtual seconds.
    pub base_backoff_s: f64,
    /// Growth factor per retry.
    pub multiplier: f64,
    /// Uniform jitter as a fraction of the delay (0.1 = ±10%).
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_s: 0.5,
            multiplier: 2.0,
            jitter_frac: 0.1,
        }
    }
}

impl RetryPolicy {
    /// Default schedule with a different retry budget.
    pub fn with_max_retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..Default::default()
        }
    }

    /// The policy that never retries: one attempt, errors surface as-is.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..Default::default()
        }
    }
}

/// Run `op` under the retry policy. `op` receives the 0-based attempt
/// number (so callers can re-key fault injection per attempt).
///
/// Transient errors (see [`StcaError::is_transient`]) are retried up to
/// `policy.max_retries` times with seeded-jitter exponential backoff on the
/// virtual clock; the final failure is wrapped in
/// [`StcaError::RetriesExhausted`]. Non-transient errors return
/// immediately.
pub fn with_retry<T>(
    policy: &RetryPolicy,
    seed: u64,
    mut op: impl FnMut(u32) -> Result<T, StcaError>,
) -> Result<T, StcaError> {
    let jitter = SeedStream::new(seed ^ JITTER_SALT);
    let mut virtual_clock_s = 0.0_f64;
    let mut attempt = 0u32;
    loop {
        match op(attempt) {
            Ok(v) => {
                if attempt > 0 {
                    retry_metrics().recovered.inc();
                    stca_obs::debug!(
                        "run {seed:#x} recovered on attempt {attempt} \
                         ({virtual_clock_s:.2}s virtual backoff)"
                    );
                }
                return Ok(v);
            }
            Err(e) if !e.is_transient() => return Err(e),
            Err(e) if attempt >= policy.max_retries => {
                retry_metrics().giveups.inc();
                return Err(StcaError::RetriesExhausted {
                    attempts: attempt + 1,
                    last: Box::new(e),
                });
            }
            Err(e) => {
                let base = policy.base_backoff_s * policy.multiplier.powi(attempt as i32);
                let u = jitter.rng(attempt as u64).next_f64();
                let delay = base * (1.0 + policy.jitter_frac * (2.0 * u - 1.0));
                virtual_clock_s += delay;
                retry_metrics().retries.inc();
                retry_metrics().backoff_s.record(delay);
                stca_obs::debug!(
                    "run {seed:#x} attempt {attempt} failed ({e}); retrying after \
                     {delay:.2}s virtual backoff"
                );
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(attempt: u32) -> StcaError {
        StcaError::InjectedCrash {
            run_key: 7,
            attempt,
        }
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let policy = RetryPolicy::with_max_retries(3);
        let out = with_retry(&policy, 1, |attempt| {
            if attempt < 2 {
                Err(crash(attempt))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 2);
    }

    #[test]
    fn exhaustion_wraps_last_error() {
        let policy = RetryPolicy::with_max_retries(2);
        let out = with_retry::<()>(&policy, 1, |attempt| Err(crash(attempt)));
        match out {
            Err(StcaError::RetriesExhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, StcaError::InjectedCrash { attempt: 2, .. }));
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn non_transient_errors_bail_immediately() {
        let mut calls = 0;
        let out = with_retry::<()>(&RetryPolicy::default(), 1, |_| {
            calls += 1;
            Err(StcaError::invalid_input("bad spec"))
        });
        assert!(matches!(out, Err(StcaError::InvalidInput { .. })));
        assert_eq!(calls, 1);
    }

    #[test]
    fn zero_retry_policy_runs_once() {
        let mut calls = 0;
        let out = with_retry::<()>(&RetryPolicy::none(), 1, |a| {
            calls += 1;
            Err(crash(a))
        });
        assert_eq!(calls, 1);
        assert!(matches!(
            out,
            Err(StcaError::RetriesExhausted { attempts: 1, .. })
        ));
    }

    #[test]
    fn attempt_numbers_are_sequential() {
        let mut seen = Vec::new();
        let _ = with_retry::<()>(&RetryPolicy::with_max_retries(3), 9, |a| {
            seen.push(a);
            Err(crash(a))
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
