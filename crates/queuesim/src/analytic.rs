//! Closed-form M/M/k results (Erlang C) — the first-principles anchor the
//! discrete-event simulator is validated against.
//!
//! Short-term allocation breaks the Markov assumptions these formulas need
//! (§3.3), which is *why* the paper simulates. But with boosting disabled
//! and exponential service, the simulator must reduce to M/M/k exactly;
//! the tests here (k = 1, 2 and 4, each within a fixed relative error) and
//! the simulator's replicated oracle (k = 2 and 4, with a tolerance set by
//! the replication count) pin that reduction down so simulator regressions
//! surface as analytic mismatches rather than silent bias in every
//! experiment.

use stca_util::Seconds;

/// Erlang C: probability an arriving job waits in an M/M/k queue with
/// offered load `a = lambda/mu` and `k` servers. Requires `a < k`
/// (stability).
pub fn erlang_c(servers: usize, offered_load: f64) -> f64 {
    assert!(servers >= 1);
    assert!(
        offered_load >= 0.0 && offered_load < servers as f64,
        "offered load {offered_load} must be below server count {servers}"
    );
    if offered_load == 0.0 {
        return 0.0;
    }
    let k = servers as f64;
    let a = offered_load;
    // sum_{n=0}^{k-1} a^n / n!  computed iteratively to avoid factorials
    let mut term = 1.0; // a^0 / 0!
    let mut sum = 0.0;
    for n in 0..servers {
        sum += term;
        term *= a / (n as f64 + 1.0);
    }
    // term now holds a^k / k!
    let last = term * k / (k - a);
    last / (sum + last)
}

/// Mean waiting time in queue for M/M/k with arrival rate `lambda` and
/// mean service time `s`.
fn mmk_mean_wait(servers: usize, lambda: f64, mean_service: Seconds) -> Seconds {
    let a = lambda * mean_service;
    let k = servers as f64;
    erlang_c(servers, a) * mean_service / (k - a)
}

/// Mean response time (wait + service) for M/M/k.
pub fn mmk_mean_response(servers: usize, lambda: f64, mean_service: Seconds) -> Seconds {
    mmk_mean_wait(servers, lambda, mean_service) + mean_service
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{QueueSim, StationConfig};
    use stca_util::Distribution;

    #[test]
    fn erlang_c_known_values() {
        // M/M/1: C = rho
        assert!((erlang_c(1, 0.5) - 0.5).abs() < 1e-12);
        assert!((erlang_c(1, 0.9) - 0.9).abs() < 1e-12);
        // M/M/2 at a=1 (rho=0.5): C = 1/3
        assert!((erlang_c(2, 1.0) - 1.0 / 3.0).abs() < 1e-12);
        // zero load never waits
        assert_eq!(erlang_c(4, 0.0), 0.0);
    }

    #[test]
    fn erlang_c_monotone_in_load() {
        let mut prev = 0.0;
        for i in 1..9 {
            let c = erlang_c(2, i as f64 * 0.2);
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    #[should_panic(expected = "must be below")]
    fn erlang_c_rejects_unstable_load() {
        erlang_c(2, 2.0);
    }

    fn sim_mean_response(servers: usize, lambda: f64, mean_service: f64, seed: u64) -> f64 {
        let cfg = StationConfig {
            inter_arrival: Distribution::Exponential { mean: 1.0 / lambda },
            service: Distribution::Exponential { mean: mean_service },
            expected_service: mean_service,
            timeout_ratio: 6.0,
            boost_rate: 1.0,
            servers,
            measured_queries: 30_000,
            warmup_queries: 3_000,
        };
        QueueSim::new(cfg, seed).run().mean_response()
    }

    #[test]
    fn simulator_reduces_to_mm1() {
        let analytic = mmk_mean_response(1, 1.0, 0.6); // rho = 0.6
        let simulated = sim_mean_response(1, 1.0, 0.6, 42);
        assert!(
            (simulated - analytic).abs() / analytic < 0.05,
            "M/M/1: sim {simulated} vs Erlang {analytic}"
        );
    }

    #[test]
    fn simulator_reduces_to_mm2() {
        // the paper's configuration: 2 servers per workload
        let lambda = 2.0 * 0.8; // rho = 0.8
        let analytic = mmk_mean_response(2, lambda, 1.0);
        let simulated = sim_mean_response(2, lambda, 1.0, 43);
        assert!(
            (simulated - analytic).abs() / analytic < 0.05,
            "M/M/2: sim {simulated} vs Erlang {analytic}"
        );
    }

    #[test]
    fn simulator_reduces_to_mm4_high_load() {
        let lambda = 4.0 * 0.9;
        let analytic = mmk_mean_response(4, lambda, 0.5);
        let simulated = sim_mean_response(4, lambda, 0.5, 44);
        assert!(
            (simulated - analytic).abs() / analytic < 0.08,
            "M/M/4: sim {simulated} vs Erlang {analytic}"
        );
    }
}
