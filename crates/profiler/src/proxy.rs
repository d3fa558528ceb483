//! The proxy service (§4 Implementation).
//!
//! Each collocated service sits behind a proxy that queues incoming queries,
//! monitors the response time of every outstanding query, and drives the
//! class-of-service switch: when a query's time in system crosses the STAP
//! timeout, the whole service switches to the short-term allocation setting
//! (*"if multiple queries were outstanding for the same online service, all
//! had access to short-term cache"*), and when the triggering query
//! completes the service reverts to its default class — unless another
//! still-outstanding query has also crossed its timeout.

use stca_cat::{AllocationSetting, ShortTermPolicy};
use stca_util::Seconds;
use std::collections::HashSet;

/// Boost bookkeeping for one service.
#[derive(Debug, Clone)]
pub struct ProxyService {
    policy: ShortTermPolicy,
    expected_service: Seconds,
    /// Outstanding queries that have crossed the timeout.
    triggered: HashSet<u64>,
    /// Total COS switches performed (each direction counts one).
    switches: u64,
    /// Whether the boosted setting is currently installed.
    boosted_installed: bool,
}

impl ProxyService {
    /// Create a proxy enforcing `policy` for a service whose expected
    /// service time is `expected_service`.
    pub fn new(policy: ShortTermPolicy, expected_service: Seconds) -> Self {
        assert!(expected_service > 0.0);
        ProxyService {
            policy,
            expected_service,
            triggered: HashSet::new(),
            switches: 0,
            boosted_installed: false,
        }
    }

    /// The policy being enforced.
    pub fn policy(&self) -> &ShortTermPolicy {
        &self.policy
    }

    /// Check one outstanding query against Eq. 4. Returns `true` if this
    /// call newly triggered the query (idempotent afterwards).
    pub fn check(&mut self, query_id: u64, arrival: Seconds, now: Seconds) -> bool {
        if self.triggered.contains(&query_id) {
            return false;
        }
        if self
            .policy
            .should_boost(now - arrival, self.expected_service)
        {
            self.triggered.insert(query_id);
            true
        } else {
            false
        }
    }

    /// Notify query completion (reply received by the proxy). Reverts the
    /// service class when no triggered query remains outstanding.
    pub fn complete(&mut self, query_id: u64) {
        self.triggered.remove(&query_id);
    }

    /// Whether the service should currently run with the boosted setting.
    pub fn boost_active(&self) -> bool {
        !self.triggered.is_empty()
    }

    /// The allocation setting that should be installed right now, updating
    /// the switch count when it changes. Call once per scheduling step.
    pub fn current_setting(&mut self) -> AllocationSetting {
        let want_boost = self.boost_active();
        if want_boost != self.boosted_installed {
            self.boosted_installed = want_boost;
            self.switches += 1;
        }
        if want_boost {
            self.policy.boosted
        } else {
            self.policy.default
        }
    }

    /// COS switches performed so far (MSR-write analogue; the paper keeps
    /// this low by boosting all outstanding queries at once).
    pub fn switch_count(&self) -> u64 {
        self.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proxy(timeout_ratio: f64) -> ProxyService {
        let policy = ShortTermPolicy::new(
            AllocationSetting::new(0, 2),
            AllocationSetting::new(0, 4),
            timeout_ratio,
        );
        ProxyService::new(policy, 1.0)
    }

    #[test]
    fn triggers_at_timeout() {
        let mut p = proxy(1.5);
        assert!(!p.check(1, 0.0, 1.0));
        assert!(!p.boost_active());
        assert!(p.check(1, 0.0, 1.5));
        assert!(p.boost_active());
        // idempotent
        assert!(!p.check(1, 0.0, 2.0));
    }

    #[test]
    fn reverts_when_trigger_completes() {
        let mut p = proxy(1.0);
        p.check(1, 0.0, 1.0);
        assert_eq!(p.current_setting(), AllocationSetting::new(0, 4));
        p.complete(1);
        assert!(!p.boost_active());
        assert_eq!(p.current_setting(), AllocationSetting::new(0, 2));
        assert_eq!(p.switch_count(), 2, "one switch each direction");
    }

    #[test]
    fn stays_boosted_while_another_trigger_outstanding() {
        let mut p = proxy(1.0);
        p.check(1, 0.0, 1.0);
        p.check(2, 0.5, 2.0);
        p.complete(1);
        assert!(p.boost_active(), "query 2 still past its timeout");
        p.complete(2);
        assert!(!p.boost_active());
    }

    #[test]
    fn switch_count_ignores_steady_state() {
        let mut p = proxy(1.0);
        for _ in 0..10 {
            p.current_setting();
        }
        assert_eq!(p.switch_count(), 0);
        p.check(1, 0.0, 5.0);
        for _ in 0..10 {
            p.current_setting();
        }
        assert_eq!(p.switch_count(), 1);
    }

    #[test]
    fn static_policy_never_triggers() {
        let policy = ShortTermPolicy::static_only(AllocationSetting::new(0, 2));
        let mut p = ProxyService::new(policy, 1.0);
        assert!(!p.check(1, 0.0, 1e9));
        assert!(!p.boost_active());
    }
}
