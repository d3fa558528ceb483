//! Policy-validation sims run on the fleet's helper threads, beside the
//! serial replay, and every chunk's per-request compute is shared with
//! those helpers. Neither may show: every shard's stats (validation
//! counters included), the decision hash and the final value of the
//! `serve.policy_validation_mean_response_s` gauge are the same at 1, 2,
//! 3 and 8 threads (0, 1, 2 and 7 helpers), and every policy apply,
//! including those made while the fleet drains, is validated exactly
//! once. The final gauge value is also pinned to the one the sims
//! produced when they ran inline at apply time, which fails if results
//! are credited out of queue order.
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
            // small chunks, not a multiple of a 64-request claim: many
            // chunk boundaries hand sims over mid-run, and every chunk
            // ends in a short claim
            chunk: 250,
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
        // the last chunk is short (100 requests), and the drain applies
        // policies whose sims are only handed over after it
        11_600,
    )
    .expect("fleet runs");
    (report, stca_obs::gauge(GAUGE).get())
}

#[test]
fn validation_and_shared_compute_match_across_thread_counts() {
    let (one, gauge_one) = run_at(1);
    let applies: u64 = one.shards.iter().map(|s| s.policy_applies).sum();
    assert!(applies > 2 * 64, "only {applies} policy applies");
    for a in &one.shards {
        assert_eq!(
            a.policy_validations, a.policy_applies,
            "shard {}: every apply, drain included, is validated once",
            a.id
        );
        assert!(a.sim_budget_exhausted > 0, "shard {}: budget 1500", a.id);
    }
    assert_eq!(
        gauge_one.to_bits(),
        INLINE_FINAL_GAUGE_BITS,
        "final gauge {gauge_one} differs from the inline sims' {}",
        f64::from_bits(INLINE_FINAL_GAUGE_BITS)
    );
    for threads in [2, 3, 8] {
        let (other, gauge) = run_at(threads);
        for (a, b) in one.shards.iter().zip(&other.shards) {
            assert_eq!(a.policy_applies, b.policy_applies, "shard {}", a.id);
            assert_eq!(a.policy_validations, b.policy_validations, "shard {}", a.id);
            assert_eq!(
                a.sim_budget_exhausted, b.sim_budget_exhausted,
                "shard {}",
                a.id
            );
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "shard {} at {threads} threads",
                a.id
            );
        }
        assert_eq!(one.decision_hash, other.decision_hash, "{threads} threads");
        assert_eq!(
            gauge.to_bits(),
            INLINE_FINAL_GAUGE_BITS,
            "final gauge {gauge} at {threads} threads differs from the inline sims' {}",
            f64::from_bits(INLINE_FINAL_GAUGE_BITS)
        );
    }
}
