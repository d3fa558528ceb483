//! The injected-fault counters count faults that took effect.
//!
//! The serving replay rolls a stage stall only when that stage attempt
//! runs (a retry's stall only after the first attempt got stuck), and the
//! predictor fault only for a primary answer the breaker admitted. So a
//! request shed at admission, or one that never reached its decide stage,
//! adds nothing to `fault.injected_stalls_total` or
//! `fault.injected_predict_failures_total`.
//!
//! One test function owns those process-global counters, so no parallel
//! test in this binary can move them mid-check.

use stca_fault::FaultPlan;
use stca_serve::{serve_fleet, AnalyticEa, FleetConfig, FleetReport, ServeConfig, SyntheticStream};

fn run(shards: u32, plan: &FaultPlan) -> FleetReport {
    let cfg = FleetConfig {
        base: ServeConfig {
            queue_capacity: 16,
            ..ServeConfig::default()
        },
        shards,
        epoch_s: 1.0,
        ..FleetConfig::default()
    };
    let stream = SyntheticStream {
        seed: 2022,
        rate: 300.0,
        deadline_s: 0.5,
        n_features: 4,
    };
    serve_fleet(&cfg, &AnalyticEa::default(), plan, &stream, 8_000).expect("fleet runs")
}

#[test]
fn injected_fault_counters_count_only_applied_faults() {
    let stalls = stca_obs::counter("fault.injected_stalls_total");
    let predict = stca_obs::counter("fault.injected_predict_failures_total");
    let plan = FaultPlan::heavy();
    // the heavy plan's stalls are 2-12x its 0.2 s latency scale, so each
    // one overshoots the 0.25 s watchdog budget and trips the watchdog
    assert!(plan.latency_mean_s * 2.0 > stca_serve::WATCHDOG_BUDGET_S);
    for shards in [1, 4] {
        let (stalls_before, predict_before) = (stalls.get(), predict.get());
        let r = run(shards, &plan);
        let stalled = stalls.get() - stalls_before;
        let faulted = predict.get() - predict_before;
        let trips: u64 = r.shards.iter().map(|s| s.watchdog_trips).sum();
        assert!(trips > 0, "{shards} shards: the heavy plan stalls nothing");
        assert_eq!(stalled, trips, "{shards} shards: stalls counted vs trips");
        // the analytic primary never fails, so every admitted call that
        // fell to the degraded chain was an injected fault
        let admitted_failures: u64 = r
            .shards
            .iter()
            .map(|s| s.degraded - s.breaker_rejects)
            .sum();
        assert!(faulted > 0, "{shards} shards: no predictor fault landed");
        assert_eq!(
            faulted, admitted_failures,
            "{shards} shards: predictor faults counted vs admitted failures"
        );
    }
}
