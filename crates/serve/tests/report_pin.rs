//! The serving report's two outputs are pinned byte for byte: the health
//! JSON of [`FleetReport::to_json_value`] and the `serve.*` counters and
//! gauges a run flushes. Each per-shard counter is declared once, as a
//! `ShardStats` field plus one report-table row that names its JSON key
//! and its metric; dropping any row changes one of the two pins. The
//! files under `report_pin/` were written by the hand-listed JSON pairs and
//! metric tuples the tables replaced, so the tables reproduce them byte
//! for byte.
//!
//! Two runs under the heavy fault plan with the model lifecycle on: one
//! traced shard (`serve.*` names, trace stats in the JSON) and eight shards
//! (`serve.shardN.*` names plus the `serve.fleet.*` rollup). Histograms are
//! left out: some of them time wall-clock work.
//!
//! This is its own test binary with one test, because the metrics
//! registry is process-global and is cleared before each run.

use stca_fault::FaultPlan;
use stca_obs::metrics::Metric;
use stca_serve::{
    serve_fleet, AdaptConfig, AnalyticEa, BreakerConfig, FleetConfig, OverloadPolicy, ServeConfig,
    SyntheticStream,
};

/// The serving template both runs share: the model lifecycle on, tuned so
/// the heavy plan's drift bursts retrain, promote and roll back.
fn base() -> ServeConfig {
    ServeConfig {
        queue_capacity: 32,
        sim_budget_events: 1500,
        adapt: AdaptConfig {
            enabled: true,
            epoch_s: 2.0,
            window: 128,
            min_samples: 32,
            drift_threshold: 1.5,
            shadow_requests: 32,
            agree_tol: 0.25,
            promote_agreement: 0.5,
            guard_requests: 64,
            guard_band: 1.5,
            history: 4,
            ..AdaptConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// One traced shard that blocks on overload, drains on a short grace and
/// trips its breaker after two failures.
fn one_shard() -> FleetConfig {
    FleetConfig {
        base: ServeConfig {
            overload: OverloadPolicy::Block,
            drain_grace_s: 0.02,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_s: 0.5,
                probe_fraction: 0.5,
                success_to_close: 2,
                seed: 11,
            },
            trace: Some(stca_trace::TraceConfig::default()),
            ..base()
        },
        shards: 1,
        ..FleetConfig::default()
    }
}

fn eight_shards() -> FleetConfig {
    FleetConfig {
        base: base(),
        shards: 8,
        epoch_s: 1.0,
        ..FleetConfig::default()
    }
}

/// The run's report JSON and its `serve.*` counters and gauges, one
/// `name value` line each in name order.
fn run(cfg: &FleetConfig, rate: f64) -> (String, String) {
    stca_obs::registry().clear();
    let stream = SyntheticStream {
        seed: 2022,
        rate,
        deadline_s: 0.25,
        n_features: 6,
    };
    let report = serve_fleet(
        cfg,
        &AnalyticEa::default(),
        &FaultPlan::heavy(),
        &stream,
        12_000,
    )
    .expect("fleet runs");
    let mut metrics = String::new();
    for (name, metric) in stca_obs::registry().snapshot_prefixed("serve.") {
        match metric {
            Metric::Counter(c) => metrics += &format!("{name} {}\n", c.get()),
            Metric::Gauge(g) => metrics += &format!("{name} {:?}\n", g.get()),
            Metric::Histogram(_) => {}
        }
    }
    (report.to_json_value().to_string(), metrics)
}

#[test]
fn report_json_and_flushed_metrics_match_the_pins() {
    for (name, cfg, rate, want_json, want_metrics) in [
        (
            "one_shard",
            one_shard(),
            400.0,
            include_str!("report_pin/one_shard.json"),
            include_str!("report_pin/one_shard.metrics"),
        ),
        (
            "eight_shards",
            eight_shards(),
            1_200.0,
            include_str!("report_pin/eight_shards.json"),
            include_str!("report_pin/eight_shards.metrics"),
        ),
    ] {
        let (json, metrics) = run(&cfg, rate);
        assert_eq!(json, want_json, "{name}: report JSON moved");
        assert_eq!(metrics, want_metrics, "{name}: flushed metrics moved");
    }
}
