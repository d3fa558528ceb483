//! Router and fleet determinism: routing decisions and the fleet
//! decision-log hash must be bit-identical at 1 vs 8 worker threads,
//! under healthy, heavy, and shard-crash-only fault plans.

use stca_fault::FaultPlan;
use stca_serve::{
    serve_fleet, AnalyticEa, FleetConfig, FleetReport, RouterKind, ServeConfig, SyntheticStream,
};

fn fleet_cfg(router: RouterKind) -> FleetConfig {
    FleetConfig {
        base: ServeConfig {
            queue_capacity: 16,
            keep_decision_log: true,
            ..ServeConfig::default()
        },
        shards: 4,
        router,
        reroute_max: 2,
        epoch_s: 1.0,
    }
}

fn run_at(cfg: &FleetConfig, plan: &FaultPlan, threads: usize) -> FleetReport {
    stca_exec::set_threads(threads);
    let stream = SyntheticStream {
        seed: 2022,
        rate: 300.0,
        deadline_s: 0.5,
        n_features: 4,
    };
    serve_fleet(cfg, &AnalyticEa::default(), plan, &stream, 8_000).expect("fleet runs")
}

/// Routing decisions live in the decision log (`shard=` suffixes on every
/// shard entry, `disp=reroute from= to=` router entries), so hash plus
/// log equality pins the full routing trace, not just outcomes.
fn assert_bit_identical(plan: &FaultPlan, router: RouterKind, label: &str) {
    let cfg = fleet_cfg(router);
    let one = run_at(&cfg, plan, 1);
    let eight = run_at(&cfg, plan, 8);
    assert_eq!(
        one.decision_hash, eight.decision_hash,
        "{label}: fleet decision hash differs across thread counts"
    );
    assert_eq!(
        one.decision_log, eight.decision_log,
        "{label}: routing/decision log differs across thread counts"
    );
    assert_eq!(one.rerouted, eight.rerouted, "{label}: reroute counts");
    assert_eq!(one.router_shed, eight.router_shed, "{label}: router sheds");
    for (a, b) in one.shards.iter().zip(&eight.shards) {
        assert_eq!(
            a.accounting, b.accounting,
            "{label}: shard {} accounting differs",
            a.id
        );
        assert_eq!(a.rerouted_out, b.rerouted_out, "{label}: shard {}", a.id);
        assert_eq!(a.crashes, b.crashes, "{label}: shard {}", a.id);
        assert_eq!(
            a.p99_response_s.to_bits(),
            b.p99_response_s.to_bits(),
            "{label}: shard {} p99",
            a.id
        );
    }
    assert_eq!(
        one.p99_response_s.to_bits(),
        eight.p99_response_s.to_bits(),
        "{label}: fleet p99"
    );
    assert!(one.balanced(), "{label}: fleet invariant");
    stca_exec::set_threads(1);
}

#[test]
fn healthy_fleet_is_thread_count_invariant() {
    assert_bit_identical(&FaultPlan::none(), RouterKind::Rendezvous, "healthy");
}

#[test]
fn heavy_plan_fleet_is_thread_count_invariant() {
    assert_bit_identical(&FaultPlan::heavy(), RouterKind::Rendezvous, "heavy");
}

#[test]
fn shard_crash_plan_fleet_is_thread_count_invariant() {
    let plan = FaultPlan::parse("shard_crash=0.4,seed=17").expect("plan");
    assert_bit_identical(&plan, RouterKind::Rendezvous, "shard-crash");
    // crashes must actually fire for this to be a failover test
    let r = run_at(&fleet_cfg(RouterKind::Rendezvous), &plan, 1);
    assert!(
        r.shards.iter().any(|s| s.crashes > 0),
        "40% shard-crash plan produced no crashes: {r:?}"
    );
    assert!(r.rerouted > 0, "crashes must flush and reroute queued work");
}

#[test]
fn least_loaded_router_is_thread_count_invariant() {
    assert_bit_identical(&FaultPlan::heavy(), RouterKind::LeastLoaded, "least-loaded");
}
