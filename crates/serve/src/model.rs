//! The EA-model boundary and the STAP decide stage.
//!
//! The serving loop is generic over [`EaModel`] so the crate stays below
//! `stca-core` in the dependency graph: core implements the trait for its
//! `Predictor` (deep forest primary, scalar-forest → analytic degraded
//! chain) and hands it to the loop; tests and the standalone CLI path use
//! [`AnalyticEa`], the same closed-form tier the PR 3 fallback bottoms out
//! in.
//!
//! The decide stage is the paper's policy search shrunk to serving cost:
//! score every timeout in [`TIMEOUT_GRID`] with the closed-form M/M/k
//! response model plus a contention penalty that grows as the timeout
//! shortens (earlier boosts steal more neighbour cache), and pick the
//! cheapest. It is a pure function of `(station, EA)`, which is what lets
//! the loop parallelise prediction and keep decisions bit-identical.

use stca_fault::StcaError;

/// Candidate STAP timeout ratios. The offline policy explorer
/// (`stca_core::explorer`) and the `[explore] grid` default sweep this
/// same grid.
pub const TIMEOUT_GRID: [f64; 5] = [0.25, 0.75, 1.5, 3.0, 6.0];

/// A predictor the serving loop can call.
///
/// Implementations must be pure per feature row: the loop calls
/// `predict_primary` from parallel workers and replays decisions serially,
/// so any internal randomness must be keyed off the row, not shared state.
pub trait EaModel: Sync {
    /// The primary (expensive, most accurate) prediction. May fail — the
    /// breaker counts failures and the loop falls back to the degraded
    /// chain.
    fn predict_primary(&self, features: &[f64]) -> Result<f64, StcaError>;

    /// Degraded prediction that must always return a finite EA, plus the
    /// fallback tier used (1 = scalar model, 2 = analytic).
    fn predict_degraded(&self, features: &[f64]) -> (f64, u8);
}

/// The analytic EA tier as its own model: `EA = (1 / ratio).clamp(0.01, 2)`
/// with `ratio = features[ratio_index]`. Never fails, so it only trips the
/// breaker under injected predictor faults — which is exactly what the
/// fault-plan soak wants to exercise.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticEa {
    /// Index of the allocation ratio in the feature row.
    pub ratio_index: usize,
}

impl AnalyticEa {
    fn ea(&self, features: &[f64]) -> f64 {
        let ratio = features.get(self.ratio_index).copied().unwrap_or(1.0);
        let ratio = if ratio.is_finite() && ratio > 0.0 {
            ratio
        } else {
            1.0
        };
        (1.0 / ratio).clamp(0.01, 2.0)
    }
}

impl EaModel for AnalyticEa {
    fn predict_primary(&self, features: &[f64]) -> Result<f64, StcaError> {
        Ok(self.ea(features))
    }

    fn predict_degraded(&self, features: &[f64]) -> (f64, u8) {
        (self.ea(features), 2)
    }
}

/// The backend station the STAP decision is being made for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationModel {
    /// Servers at the station.
    pub servers: usize,
    /// Offered utilization (`rho`, strictly below 1).
    pub utilization: f64,
    /// Mean service time at the default allocation, seconds.
    pub service_s: f64,
    /// Allocation increase available to boosts (`l_a' / l_a`, >= 1).
    pub alloc_boost: f64,
    /// Weight of the contention penalty for early boosting.
    pub contention: f64,
}

impl Default for StationModel {
    fn default() -> Self {
        StationModel {
            servers: 2,
            utilization: 0.7,
            service_s: 1.0,
            alloc_boost: 2.0,
            contention: 0.6,
        }
    }
}

impl StationModel {
    /// Arrival rate implied by the utilization.
    pub fn lambda(&self) -> f64 {
        self.utilization * self.servers as f64 / self.service_s
    }
}

/// Pick the [`TIMEOUT_GRID`] index minimising modeled response plus
/// contention cost for a workload with effective allocation `ea`.
pub fn decide(station: &StationModel, ea: f64) -> usize {
    let ea = if ea.is_finite() { ea.max(0.0) } else { 0.0 };
    let lambda = station.lambda();
    let gain = (ea * (station.alloc_boost - 1.0)).max(0.0);
    let mut best = 0;
    let mut best_cost = f64::INFINITY;
    for (i, &t) in TIMEOUT_GRID.iter().enumerate() {
        // earlier boosts (small t) convert more of the gain into speedup…
        let early = (-t / 2.0).exp();
        let speedup = 1.0 + gain * early;
        let svc = station.service_s / speedup;
        let resp = stca_queuesim::analytic::mmk_mean_response(station.servers, lambda, svc);
        // …but also cost the neighbour more shared cache
        let cost = resp + station.contention * station.service_s * gain * early;
        if cost < best_cost {
            best_cost = cost;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_ea_matches_fallback_formula() {
        let m = AnalyticEa::default();
        assert_eq!(m.predict_degraded(&[0.5]).0, 2.0);
        assert_eq!(m.predict_degraded(&[1.0]).0, 1.0);
        assert_eq!(m.predict_degraded(&[f64::NAN]).0, 1.0, "NaN ratio → 1.0");
        assert_eq!(m.predict_degraded(&[]).0, 1.0, "missing ratio → 1.0");
        assert_eq!(m.predict_degraded(&[0.5]).1, 2, "analytic tier");
    }

    #[test]
    fn decide_is_deterministic_and_in_range() {
        let st = StationModel::default();
        for ea10 in 0..=20 {
            let ea = ea10 as f64 / 10.0;
            let a = decide(&st, ea);
            assert_eq!(a, decide(&st, ea));
            assert!(a < TIMEOUT_GRID.len());
        }
        assert!(decide(&st, f64::NAN) < TIMEOUT_GRID.len());
    }

    #[test]
    fn high_ea_prefers_earlier_boost_than_zero_ea() {
        // with no contention, gain is free: high EA wants the earliest boost
        let st = StationModel {
            contention: 0.0,
            ..StationModel::default()
        };
        assert_eq!(decide(&st, 2.0), 0);
        // zero EA gains nothing; all timeouts tie at the base response and
        // the argmin stays at the first index — but heavy contention with
        // some EA must push the choice later than the no-contention case
        let heavy = StationModel {
            contention: 5.0,
            ..StationModel::default()
        };
        assert!(decide(&heavy, 2.0) > decide(&st, 2.0));
    }
}
