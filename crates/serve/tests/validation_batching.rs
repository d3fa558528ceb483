//! Policy-validation sims run in batches on the worker pool, off the
//! serial replay. The batching must be invisible: every shard's
//! validation counters, the decision hash and the final value of the
//! `serve.policy_validation_mean_response_s` gauge are the same at 1 and
//! 4 threads, and every policy apply, including those made while the
//! fleet drains, is validated exactly once. The final gauge value is also
//! pinned to the one the sims produced when they ran inline at apply
//! time, which fails if results are credited out of queue order.
//!
//! This is its own test binary with one test, so no other test writes the
//! process-global gauge while it runs.

use stca_fault::FaultPlan;
use stca_serve::{serve_fleet, AnalyticEa, FleetConfig, FleetReport, ServeConfig, SyntheticStream};

const GAUGE: &str = "serve.policy_validation_mean_response_s";

/// The gauge's final value for this run with inline validation sims.
const INLINE_FINAL_GAUGE_BITS: u64 = 0x3fed_c0c4_4222_3b99;

fn run_at(threads: usize) -> (FleetReport, f64) {
    stca_exec::set_threads(threads);
    // a sentinel no sim can produce: a run that never sets the gauge
    // cannot pass by inheriting the previous run's value
    stca_obs::gauge(GAUGE).set(-1.0);
    let cfg = FleetConfig {
        base: ServeConfig {
            queue_capacity: 16,
            hysteresis_k: 2,
            sim_budget_events: 1500,
            // small chunks: many chunk boundaries, so batches flush mid-run
            chunk: 256,
            ..ServeConfig::default()
        },
        shards: 4,
        epoch_s: 1.0,
        ..FleetConfig::default()
    };
    let stream = SyntheticStream {
        seed: 2022,
        rate: 400.0,
        deadline_s: 0.5,
        n_features: 4,
    };
    let report = serve_fleet(
        &cfg,
        &AnalyticEa::default(),
        &FaultPlan::none(),
        &stream,
        // 11 600 leaves 34 sims for the post-drain batch, so a batch
        // credited out of order changes the gauge's final value
        11_600,
    )
    .expect("fleet runs");
    (report, stca_obs::gauge(GAUGE).get())
}

#[test]
fn batched_validation_matches_across_thread_counts() {
    let (one, gauge_one) = run_at(1);
    let (four, gauge_four) = run_at(4);
    let applies: u64 = one.shards.iter().map(|s| s.policy_applies).sum();
    assert!(
        applies > 2 * 64,
        "only {applies} policy applies: too few to fill more than one batch"
    );
    for (a, b) in one.shards.iter().zip(&four.shards) {
        assert_eq!(
            a.policy_validations, a.policy_applies,
            "shard {}: every apply, drain included, is validated once",
            a.id
        );
        assert!(a.sim_budget_exhausted > 0, "shard {}: budget 1500", a.id);
        assert_eq!(a.policy_applies, b.policy_applies, "shard {}", a.id);
        assert_eq!(a.policy_validations, b.policy_validations, "shard {}", a.id);
        assert_eq!(
            a.sim_budget_exhausted, b.sim_budget_exhausted,
            "shard {}",
            a.id
        );
    }
    assert_eq!(one.decision_hash, four.decision_hash);
    assert_eq!(
        gauge_one.to_bits(),
        INLINE_FINAL_GAUGE_BITS,
        "final gauge {gauge_one} differs from the inline sims' {}",
        f64::from_bits(INLINE_FINAL_GAUGE_BITS)
    );
    assert_eq!(
        gauge_one.to_bits(),
        gauge_four.to_bits(),
        "final gauge {gauge_one} at 1 thread vs {gauge_four} at 4"
    );
}
