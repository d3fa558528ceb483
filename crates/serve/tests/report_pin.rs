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
//! Traced runs also pin their trace bytes and decision hash (see
//! `trace_pin`): the one-shard run above, one shard under each shedding
//! overload policy, and a four-shard fleet with the model lifecycle on
//! whose crashes reroute requests and leave every shard down in some
//! epochs, so both router-shed paths run. Each of these runs asserts that
//! the paths it pins were taken, so no pin can pass on an empty trace.
//!
//! The metrics registry is process-global and is cleared before each run,
//! so the tests of this binary take turns on one lock.

use stca_fault::FaultPlan;
use stca_obs::metrics::Metric;
use stca_serve::{
    serve_fleet, AdaptConfig, AnalyticEa, BreakerConfig, FleetConfig, FleetReport, OverloadPolicy,
    ServeConfig, SyntheticStream,
};
use stca_trace::{Stage, TraceConfig, TraceDump};
use std::sync::Mutex;

/// Held by each test for its whole length: see the module docs.
static REGISTRY: Mutex<()> = Mutex::new(());

/// The serving template both runs share: the model lifecycle on, tuned so
/// the heavy plan's drift bursts retrain, promote and roll back.
fn base() -> ServeConfig {
    ServeConfig {
        queue_capacity: 32,
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

/// A run of `n` arrivals at `rate` under `plan`. Serving runs no queueing
/// simulation, so `queuesim.runs_total` does not move. The handle is
/// looked up before the run: the simulator registers the one it counts
/// on at its first run, which is then this handle, so the first run in
/// the process that simulated would fail here, whichever test makes it.
fn serve(cfg: &FleetConfig, plan: &FaultPlan, rate: f64, n: u64) -> FleetReport {
    let stream = SyntheticStream {
        seed: 2022,
        rate,
        deadline_s: 0.25,
        n_features: 6,
    };
    let sims = stca_obs::counter("queuesim.runs_total");
    let before = sims.get();
    let report = serve_fleet(cfg, &AnalyticEa::default(), plan, &stream, n).expect("fleet runs");
    assert_eq!(sims.get(), before, "serving ran a queueing simulation");
    report
}

/// The run's report JSON and its `serve.*` counters and gauges, one
/// `name value` line each in name order, plus the report itself.
fn run(cfg: &FleetConfig, rate: f64) -> (String, String, FleetReport) {
    stca_obs::registry().clear();
    let report = serve(cfg, &FaultPlan::heavy(), rate, 12_000);
    let mut metrics = String::new();
    for (name, metric) in stca_obs::registry().snapshot_prefixed("serve.") {
        match metric {
            Metric::Counter(c) => metrics += &format!("{name} {}\n", c.get()),
            Metric::Gauge(g) => metrics += &format!("{name} {:?}\n", g.get()),
            Metric::Histogram(_) => {}
        }
    }
    (report.to_json_value().to_string(), metrics, report)
}

/// A traced run's pin: the FNV-1a of its Chrome-trace JSON, the FNV-1a
/// of its retained traces' `Debug` text, then its decision hash. The JSON
/// writes each span's args as a sorted object, so only the second value
/// sees the order of a span's args.
fn trace_pin(report: &FleetReport) -> [u64; 3] {
    let dump = report.trace_dump.as_ref().expect("tracing on");
    let json = stca_trace::chrome::to_chrome_json(dump);
    let traces = format!("{:?}", dump.traces);
    [
        stca_util::fnv1a(json.as_bytes()),
        stca_util::fnv1a(traces.as_bytes()),
        report.decision_hash,
    ]
}

/// Spans of `stage` in the dump.
fn spans(dump: &TraceDump, stage: Stage) -> usize {
    dump.traces
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.stage == stage)
        .count()
}

#[test]
fn report_json_and_flushed_metrics_match_the_pins() {
    let _turn = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
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
        let (json, metrics, report) = run(&cfg, rate);
        assert_eq!(json, want_json, "{name}: report JSON moved");
        assert_eq!(metrics, want_metrics, "{name}: flushed metrics moved");
        if name == "one_shard" {
            let shard = &report.shards[0];
            assert!(shard.accounting.shed_failed > 0 && shard.accounting.drained > 0);
            assert_eq!(
                trace_pin(&report),
                ONE_SHARD_TRACE,
                "one_shard: trace moved"
            );
        }
    }
}

/// [`trace_pin`] of the traced one-shard run of the JSON pin.
const ONE_SHARD_TRACE: [u64; 3] = [
    0x3a87_37e3_2b09_0f44,
    0x6dcc_db51_ff24_e560,
    0x513a_2e87_e1dc_a542,
];

/// One traced shard under each shedding overload policy, on a short
/// queue so overload sheds are frequent.
#[test]
fn shedding_policy_traces_match_the_pins() {
    let _turn = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for (overload, want) in [
        (
            OverloadPolicy::ShedNewest,
            [
                0xcd75_b58e_01ec_d8d6,
                0x1cec_4c45_337f_a4b0,
                0x5200_c2eb_bb46_acb3,
            ],
        ),
        (
            OverloadPolicy::ShedOldest,
            [
                0x1104_385c_0cbd_8680,
                0xfc77_fbcd_6500_8019,
                0xecfc_9d1e_af10_848f,
            ],
        ),
    ] {
        let mut cfg = one_shard();
        cfg.base.overload = overload;
        cfg.base.queue_capacity = 4;
        let report = serve(&cfg, &FaultPlan::heavy(), 400.0, 3_000);
        let a = &report.shards[0].accounting;
        assert!(
            a.shed_overload > 0 && a.shed_deadline > 0 && a.completed > 0,
            "{overload:?}: {a:?}"
        );
        assert_eq!(trace_pin(&report), want, "{overload:?}: trace moved");
    }
}

/// A traced four-shard fleet with the model lifecycle on, under crashes
/// frequent enough that every shard is down together in some epochs.
#[test]
fn fleet_lifecycle_trace_matches_the_pin() {
    let _turn = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = FleetConfig {
        base: ServeConfig {
            keep_decision_log: true,
            trace: Some(TraceConfig {
                sample_every: 1,
                ring_capacity: 1 << 20,
                ..TraceConfig::default()
            }),
            ..base()
        },
        shards: 4,
        epoch_s: 0.5,
        ..FleetConfig::default()
    };
    let plan = FaultPlan::parse("heavy,shard_crash=0.6,drift_burst=0.8,promote_corrupt=0.6")
        .expect("plan");
    let report = serve(&cfg, &plan, 800.0, 12_000);
    assert!(report.balanced());
    let fresh_sheds = report
        .decision_log
        .iter()
        .filter(|l| l.contains("disp=router_shed hops=0"))
        .count();
    let flushed_sheds = report
        .decision_log
        .iter()
        .filter(|l| l.contains("disp=router_shed") && !l.contains("hops=0"))
        .count();
    let dump = report.trace_dump.as_ref().expect("tracing on");
    let counts = [
        report.rerouted as usize,
        fresh_sheds,
        flushed_sheds,
        spans(dump, Stage::Route),
        spans(dump, Stage::Retrain),
        spans(dump, Stage::Shadow),
        spans(dump, Stage::Promote),
        spans(dump, Stage::Rollback),
    ];
    assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    assert_eq!(
        trace_pin(&report),
        [
            0xe040_8b7d_b191_241c,
            0x9cff_9368_704b_bd44,
            0x7e7f_7666_569d_abd7
        ],
        "fleet trace moved"
    );
}
