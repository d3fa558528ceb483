//! The one-shard contract: `serve()` is the serving driver with one
//! shard, and a lone shard ignores shard-scoped faults. They model losing
//! one shard among peers, so at one shard they never roll.
//!
//! One test function owns the global `fault.injected_shard_*` counters,
//! so no parallel test in this binary can move them mid-check.

use stca_fault::FaultPlan;
use stca_serve::{
    serve, serve_fleet, AnalyticEa, FleetConfig, FleetReport, ServeConfig, SyntheticStream,
};
use stca_trace::TraceConfig;

const REQUESTS: u64 = 4_000;

fn stream() -> SyntheticStream {
    SyntheticStream {
        seed: 11,
        rate: 300.0,
        deadline_s: 0.5,
        n_features: 4,
    }
}

fn one_shard() -> FleetConfig {
    FleetConfig {
        base: ServeConfig {
            queue_capacity: 16,
            keep_decision_log: true,
            trace: Some(TraceConfig {
                sample_every: 1,
                ..TraceConfig::default()
            }),
            ..ServeConfig::default()
        },
        shards: 1,
        epoch_s: 1.0,
        ..FleetConfig::default()
    }
}

fn run(cfg: &FleetConfig, plan: &FaultPlan) -> FleetReport {
    serve_fleet(cfg, &AnalyticEa::default(), plan, &stream(), REQUESTS).expect("serves")
}

fn shard_fault_counters() -> [u64; 3] {
    ["crashes", "stalls", "flaps"]
        .map(|k| stca_obs::counter(&format!("fault.injected_shard_{k}_total")).get())
}

#[test]
fn one_shard_ignores_shard_faults_and_matches_serve() {
    let plan =
        FaultPlan::parse("shard_crash=1.0,shard_stall=1.0,shard_flap=1.0").expect("valid plan");
    let cfg = one_shard();

    let before = shard_fault_counters();
    let faulted = run(&cfg, &plan);
    assert_eq!(
        shard_fault_counters(),
        before,
        "a lone shard must not roll shard faults"
    );
    let clean = run(&cfg, &FaultPlan::none());
    assert_eq!(faulted.decision_hash, clean.decision_hash);
    assert_eq!(faulted.decision_log, clean.decision_log);
    assert!(faulted.balanced(), "{faulted:?}");
    assert_eq!((faulted.rerouted, faulted.router_shed), (0, 0));
    assert!(
        faulted.decision_log.iter().all(|l| !l.contains(" shard=")),
        "one-shard log lines carry no shard suffix"
    );
    let dump = faulted.trace_dump.as_ref().expect("tracing on");
    assert!(
        dump.traces
            .iter()
            .flat_map(|t| &t.spans)
            .all(|s| s.args.iter().all(|(k, _)| *k != "shard")),
        "one-shard traces carry no shard admission attribute"
    );

    // serve() is that run projected onto shard 0
    let single = serve(
        &cfg.base,
        &AnalyticEa::default(),
        &plan,
        &stream(),
        REQUESTS,
    )
    .expect("serves");
    assert_eq!(single.decision_hash, faulted.decision_hash);
    assert_eq!(single.accounting, faulted.shards[0].accounting);
    assert_eq!(
        single.p99_response_s.to_bits(),
        faulted.p99_response_s.to_bits()
    );

    // the same plan at three shards does fire: the gate is the shard
    // count, not the plan
    let three = run(
        &FleetConfig {
            shards: 3,
            ..one_shard()
        },
        &plan,
    );
    assert!(three.balanced(), "{three:?}");
    assert_eq!(three.router_shed, three.offered, "every shard is crashed");
    assert!(three.decision_log.iter().any(|l| l.contains(" shard=")));
    assert_ne!(shard_fault_counters(), before);
}
