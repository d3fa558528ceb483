//! Short-term allocation policies — the paper's `(a, a', t)` triple.
//!
//! A STAP holds a *default* allocation setting `a`, a *boosted* setting `a'`
//! granting access to additional (shared) ways, and a timeout `t` expressed
//! relative to the workload's expected service time (Eq. 4):
//!
//! ```text
//! response_time / expected_service_time > T   =>   switch a -> a'
//! ```
//!
//! `T = 0` means every query immediately uses the shared ways; the paper's
//! Table 2 upper bound `T = 6` (600%) effectively disables short-term
//! allocation. The boost is revoked when the triggering query completes.

use crate::allocation::AllocationSetting;
use stca_util::Seconds;

/// A short-term allocation policy for one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShortTermPolicy {
    /// Default allocation setting (`a` in the paper).
    pub default: AllocationSetting,
    /// Boosted setting granted on timeout (`a'`).
    pub boosted: AllocationSetting,
    /// Timeout as a multiple of expected service time (`t`, Eq. 4).
    pub timeout_ratio: f64,
}

/// Timeout ratio above which short-term allocation is considered disabled
/// (Table 2's 600% bound).
pub const NEVER_BOOST_RATIO: f64 = 6.0;

impl ShortTermPolicy {
    /// Policy that boosts a query once its time in system exceeds
    /// `timeout_ratio x` the expected service time.
    pub fn new(default: AllocationSetting, boosted: AllocationSetting, timeout_ratio: f64) -> Self {
        assert!(timeout_ratio >= 0.0, "timeout ratio must be non-negative");
        assert!(
            default.length > 0 && boosted.length > 0,
            "settings must be non-empty"
        );
        ShortTermPolicy {
            default,
            boosted,
            timeout_ratio,
        }
    }

    /// Static policy: never boost (the `(a, a, 0)` denominator case of
    /// Eq. 3, with the timeout pushed past the disable bound).
    pub fn static_only(default: AllocationSetting) -> Self {
        ShortTermPolicy {
            default,
            boosted: default,
            timeout_ratio: NEVER_BOOST_RATIO,
        }
    }

    /// Whether this policy can ever trigger a boost.
    pub fn boost_enabled(&self) -> bool {
        self.timeout_ratio < NEVER_BOOST_RATIO && self.boosted != self.default
    }

    /// Absolute timeout for a workload whose expected service time is
    /// `expected_service` seconds.
    fn absolute_timeout(&self, expected_service: Seconds) -> Seconds {
        self.timeout_ratio * expected_service
    }

    /// Evaluate Eq. 4: should a query that has been in the system for
    /// `time_in_system` (queueing + service so far) be boosted?
    pub fn should_boost(&self, time_in_system: Seconds, expected_service: Seconds) -> bool {
        self.boost_enabled() && time_in_system >= self.absolute_timeout(expected_service)
    }

    /// Gross allocation increase `l_a' / l_a` (Eq. 3 denominator).
    pub fn allocation_ratio(&self) -> f64 {
        self.default.allocation_ratio(&self.boosted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(t: f64) -> ShortTermPolicy {
        ShortTermPolicy::new(
            AllocationSetting::new(0, 2),
            AllocationSetting::new(0, 4),
            t,
        )
    }

    #[test]
    fn zero_timeout_always_boosts() {
        let p = policy(0.0);
        assert!(p.should_boost(0.0, 10.0));
        assert!(p.should_boost(1e-9, 10.0));
    }

    #[test]
    fn timeout_threshold_is_relative_to_service_time() {
        let p = policy(1.5);
        // service time 100s -> boost at 150s (the paper's worked example)
        assert!(!p.should_boost(149.0, 100.0));
        assert!(p.should_boost(150.0, 100.0));
        // service time 2s -> boost at 3s
        assert!(!p.should_boost(2.9, 2.0));
        assert!(p.should_boost(3.0, 2.0));
    }

    #[test]
    fn static_policy_never_boosts() {
        let p = ShortTermPolicy::static_only(AllocationSetting::new(0, 2));
        assert!(!p.boost_enabled());
        assert!(!p.should_boost(1e12, 1.0));
        assert!((p.allocation_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_at_disable_bound_never_boosts() {
        let p = policy(NEVER_BOOST_RATIO);
        assert!(!p.boost_enabled());
    }

    #[test]
    fn allocation_ratio_of_a_doubling_boost() {
        let p = policy(1.0);
        assert!((p.allocation_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn absolute_timeout_scales_with_service_time() {
        let p = policy(1.5);
        assert!((p.absolute_timeout(100.0) - 150.0).abs() < 1e-12);
        assert!((p.absolute_timeout(0.001) - 0.0015).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn negative_timeout_rejected() {
        policy(-0.1);
    }
}
