//! The serving soak: replay a scenario's serve stage under its own fault
//! plan and assert the serving plane's robustness contract.
//!
//! The spec supplies everything — fleet config, arrival stream, fault
//! plan and model (resolved once, via `pipeline::with_serve_model`) — and
//! every conditional check is chosen by the spec's contents, never by a
//! flag or the scenario's name. The runs: a healthy baseline (no faults,
//! lifecycle off); faulted at 1 and 8 threads; lifecycle-off runs with
//! and without the plan's lifecycle fault keys (when it sets any);
//! traced at 1 and 8 threads; and a logged, traced audit of at most
//! `AUDIT_CAP` requests. DESIGN.md §5f lists the assertions. Wall
//! overheads are recorded, not asserted, in the `soak.trace_overhead_frac`,
//! `soak.adapt.overhead_frac` and `soak.adapt.retrain_mean_s` gauges.

use stca_core::pipeline;
use stca_fault::{FaultPlan, StcaError};
use stca_scenario::{convert, PredictorKind, ScenarioSpec, Stage};
use stca_serve::{serve_fleet, EaModel, FleetConfig, FleetReport};
use std::path::Path;
use std::time::Instant;

/// The logged audit replays at most this many requests.
const AUDIT_CAP: u64 = 200_000;

fn check(ok: bool, what: impl AsRef<str>) -> Result<(), StcaError> {
    let what = what.as_ref();
    if ok {
        println!("  ok: {what}");
        Ok(())
    } else {
        Err(StcaError::invalid_input(format!("soak FAILED: {what}")))
    }
}

/// Soak the serve stage of `spec` and return the faulted run's decision
/// hash (the scenario's serve-stage hash). `artifacts` is where a
/// `trained` predictor's profile stage runs (`None`: `runs/<name>`, as
/// for `stca scenario run`). Fails with a usage error (exit 2) for a
/// spec without a serve stage, and with the first failed check otherwise.
pub fn run(spec: &ScenarioSpec, artifacts: Option<&Path>) -> Result<u64, StcaError> {
    if !spec.scenario.pipeline.contains(&Stage::Serve) {
        return Err(StcaError::usage(format!(
            "scenario {:?} has no serve stage to soak",
            spec.scenario.name
        )));
    }
    let profiles = match spec.serve.predictor {
        PredictorKind::Trained => {
            pipeline::run_scenario(spec, artifacts, Some(Stage::Profile))?;
            Some(pipeline::RunPaths::resolve(spec, artifacts).profiles)
        }
        PredictorKind::Analytic => None,
    };
    pipeline::with_serve_model(spec, profiles.as_deref(), |model| soak(spec, model))
}

/// The spec's fleet config with the recorder set to `trace` and the
/// lifecycle kept only when `lifecycle`.
fn fleet_config(
    spec: &ScenarioSpec,
    trace: bool,
    lifecycle: bool,
) -> Result<FleetConfig, StcaError> {
    let mut spec = spec.clone();
    spec.trace.enabled = trace;
    spec.adapt.enabled &= lifecycle;
    convert::fleet_config(&spec)
        .ok_or_else(|| StcaError::usage("[serve.fleet] shards must be >= 1"))
}

/// Two runs of the same config agree bit for bit.
fn same_run(a: &FleetReport, b: &FleetReport, what: &str) -> Result<(), StcaError> {
    check(
        a.decision_hash == b.decision_hash,
        format!("{what}: decision hash {:016x}", a.decision_hash),
    )?;
    check(
        format!("{:?}", a.shards) == format!("{:?}", b.shards),
        format!("{what}: per-shard stats"),
    )?;
    check(
        (a.rerouted, a.router_shed) == (b.rerouted, b.router_shed),
        format!("{what}: reroute and router-shed tallies"),
    )?;
    let bits = |r: &FleetReport| {
        [
            r.mean_response_s,
            r.p50_response_s,
            r.p99_response_s,
            r.virtual_end_s,
        ]
        .map(f64::to_bits)
    };
    check(
        bits(a) == bits(b),
        format!("{what}: mean, p50, p99 and virtual end"),
    )
}

/// `(count, sum)` over the retrain-latency histograms: `serve.adapt.*`
/// for one shard, `serve.shard<N>.adapt.*` for more.
fn retrain_totals(shards: u32) -> (u64, f64) {
    (0..shards).fold((0, 0.0), |(count, sum), id| {
        let shard = if shards == 1 {
            String::new()
        } else {
            format!("shard{id}.")
        };
        let h = stca_obs::histogram(&format!("serve.{shard}adapt.retrain_seconds"));
        (count + h.count(), sum + h.sum())
    })
}

/// Sum one lifecycle counter over every shard.
fn lifecycle_total(r: &FleetReport, field: impl Fn(&stca_serve::AdaptStats) -> u64) -> u64 {
    r.shards
        .iter()
        .filter_map(|s| s.adapt.as_ref())
        .map(field)
        .sum()
}

fn soak(spec: &ScenarioSpec, model: &dyn EaModel) -> Result<u64, StcaError> {
    let stream = convert::synthetic_stream(spec);
    let serve = |cfg: &FleetConfig, plan: &FaultPlan, n: u64, threads: usize, label: &str| {
        stca_exec::set_threads(threads);
        let t0 = Instant::now();
        let r = serve_fleet(cfg, model, plan, &stream, n)?;
        let wall_s = t0.elapsed().as_secs_f64();
        println!(
            "{label}: {n} reqs x {} shard(s) in {wall_s:.2}s wall / {:.0}s virtual | completed {} \
             rerouted {} router-shed {} | p99 {:.4}s | hash {:016x}",
            r.shards.len(),
            r.virtual_end_s,
            r.completed(),
            r.rerouted,
            r.router_shed,
            r.p99_response_s,
            r.decision_hash
        );
        check(r.balanced(), format!("{label}: accounting balances"))?;
        check(
            r.offered == n,
            format!("{label}: all {n} offered requests were accounted"),
        )?;
        Ok::<_, StcaError>((r, wall_s))
    };

    let n = spec.serve.requests;
    let plan = &spec.fault.plan;
    let untraced = fleet_config(spec, false, true)?;
    let lifecycle_off = fleet_config(spec, false, false)?;
    let traced = fleet_config(spec, true, true)?;
    let shards = untraced.shards;
    let fleet = shards > 1;

    // 1: healthy baseline
    let (baseline, baseline_wall) = serve(&lifecycle_off, &FaultPlan::none(), n, 1, "baseline")?;
    if fleet {
        check(
            baseline.shards.iter().all(|s| s.accounting.admitted > 0),
            "baseline: every shard admits work",
        )?;
    }

    // 2: faulted, 1 vs 8 threads; the retrain histograms are read
    // around the 1-thread run only
    let before = retrain_totals(shards);
    let (faulted, faulted_wall) = serve(&untraced, plan, n, 1, "faulted@1t")?;
    let after = retrain_totals(shards);
    let (retrain_count, retrain_s) = (after.0 - before.0, after.1 - before.1);
    let (faulted_8, _) = serve(&untraced, plan, n, 8, "faulted@8t")?;
    same_run(&faulted, &faulted_8, "faulted at 1 vs 8 threads")?;

    // a completed request starts within its deadline and pays at most
    // two watchdog budgets per stage
    let ceiling = spec.serve.deadline_s + 4.0 * stca_serve::WATCHDOG_BUDGET_S;
    let p99s: Vec<f64> = faulted.shards.iter().map(|s| s.p99_response_s).collect();
    check(
        [faulted.p99_response_s]
            .iter()
            .chain(&p99s)
            .all(|p| p.is_finite() && *p <= ceiling),
        format!(
            "p99 {:.4}s and per-shard {p99s:.4?} within the ceiling {ceiling:.4}s \
             (baseline {:.4}s)",
            faulted.p99_response_s, baseline.p99_response_s
        ),
    )?;

    if plan.predict_fail_prob > 0.0 {
        let opens: u64 = faulted.shards.iter().map(|s| s.breaker_opens).sum();
        let closes: u64 = faulted.shards.iter().map(|s| s.breaker_closes).sum();
        check(opens > 0, format!("breaker tripped ({opens} opens)"))?;
        check(closes > 0, format!("breaker recovered ({closes} closes)"))?;
    }

    if plan.shard_crash_prob > 0.0 && fleet {
        let crashed = faulted.crashed_shards();
        check(
            crashed.len() >= 2,
            format!("crashes hit >= 2 distinct shards ({crashed:?})"),
        )?;
        let recovered = faulted
            .shards
            .iter()
            .filter(|s| s.crashes > 0 && s.recoveries > 0)
            .count();
        check(
            recovered >= 2,
            format!("{recovered} crashed shards recovered"),
        )?;
        check(
            faulted.rerouted > 0,
            format!(
                "crashes rerouted flushed work ({} reroutes)",
                faulted.rerouted
            ),
        )?;
    }

    if spec.adapt.enabled {
        let drifts = lifecycle_total(&faulted, |a| a.drifts);
        let retrains = lifecycle_total(&faulted, |a| a.retrains);
        let promotions = lifecycle_total(&faulted, |a| a.promotions);
        let rollbacks = lifecycle_total(&faulted, |a| a.rollbacks);
        check(drifts >= 1, format!("drift fired ({drifts} drifts)"))?;
        check(retrains >= 1, format!("candidates retrained ({retrains})"))?;
        check(promotions >= 1, format!("promotions landed ({promotions})"))?;
        if plan.promote_corrupt_prob > 0.0 {
            check(
                rollbacks >= 1,
                format!("corrupt promotions rolled back ({rollbacks})"),
            )?;
        }
        check(
            retrain_count == retrains,
            format!(
                "retrain histograms saw each of the {retrains} retrains once ({retrain_count})"
            ),
        )?;
        let retrain_mean = retrain_s / retrain_count.max(1) as f64;
        let overhead = (faulted_wall - baseline_wall) / baseline_wall.max(1e-9);
        stca_obs::gauge("soak.adapt.retrain_mean_s").set(retrain_mean);
        stca_obs::gauge("soak.adapt.overhead_frac").set(overhead);
        println!(
            "  retrain wall mean {retrain_mean:.6}s; lifecycle overhead {:+.1}% \
             ({baseline_wall:.2}s -> {faulted_wall:.2}s wall)",
            overhead * 100.0
        );
    }

    // 3: lifecycle fault keys act only through the lifecycle
    let zeroed = FaultPlan {
        drift_burst_prob: 0.0,
        retrain_fail_prob: 0.0,
        retrain_slow_prob: 0.0,
        promote_corrupt_prob: 0.0,
        ..plan.clone()
    };
    if zeroed != *plan {
        let (inert, _) = serve(&lifecycle_off, plan, n, 1, "inert")?;
        let (reference, _) = serve(&lifecycle_off, &zeroed, n, 1, "inert-ref")?;
        check(
            inert.decision_hash == reference.decision_hash,
            "lifecycle fault keys are inert while the lifecycle is off",
        )?;
    }

    // 4: tracing observes and never perturbs
    let (traced_1, traced_wall) = serve(&traced, plan, n, 1, "traced@1t")?;
    let (traced_8, _) = serve(&traced, plan, n, 8, "traced@8t")?;
    check(
        traced_1.trace_dump == traced_8.trace_dump,
        "trace dumps are bit-identical at 1 vs 8 threads",
    )?;
    same_run(&faulted, &traced_1, "traced vs untraced")?;
    let overhead = (traced_wall - faulted_wall) / faulted_wall.max(1e-9);
    stca_obs::gauge("soak.trace_overhead_frac").set(overhead);
    println!(
        "  trace overhead {:+.1}% wall ({faulted_wall:.2}s -> {traced_wall:.2}s)",
        overhead * 100.0
    );

    // 5: logged audit
    let audit_n = n.min(AUDIT_CAP);
    let mut audit_cfg = traced;
    audit_cfg.base.keep_decision_log = true;
    let (audited, _) = serve(&audit_cfg, plan, audit_n, 8, "audit")?;
    audit(&audited, audit_n, fleet)?;

    Ok(faulted.decision_hash)
}

/// The logged audit: exactly one final disposition per request, however
/// many reroute hops it took.
fn audit(r: &FleetReport, n: u64, fleet: bool) -> Result<(), StcaError> {
    let mut finals = vec![0u32; n as usize];
    let (mut hops, mut unsuffixed, mut narration_only) = (0u64, 0u64, true);
    for line in &r.decision_log {
        let Some(rest) = line.strip_prefix("seq=") else {
            narration_only &= line.starts_with("event=");
            continue;
        };
        let seq: u64 = rest
            .split_whitespace()
            .next()
            .and_then(|tok| tok.parse().ok())
            .ok_or_else(|| StcaError::invalid_input(format!("unparseable log line {line:?}")))?;
        let slot = finals
            .get_mut(seq as usize)
            .ok_or_else(|| StcaError::invalid_input(format!("log names unknown seq {seq}")))?;
        if line.contains(" disp=reroute ") {
            hops += 1;
            continue;
        }
        if !line.contains(" disp=router_shed") && line.contains(" shard=") != fleet {
            unsuffixed += 1;
        }
        *slot += 1;
    }
    check(
        finals.iter().all(|&c| c == 1),
        format!(
            "audit: each of {n} requests has exactly one final line ({} lines)",
            r.decision_log.len()
        ),
    )?;
    check(
        hops == r.rerouted,
        format!(
            "audit: {hops} reroute hop lines match {} reroutes",
            r.rerouted
        ),
    )?;
    check(
        unsuffixed == 0,
        format!("audit: final lines carry ` shard=` exactly when shards > 1 ({unsuffixed} do not)"),
    )?;
    check(narration_only, "audit: seq-less lines are event= narration")?;
    let dump = r
        .trace_dump
        .as_ref()
        .ok_or_else(|| StcaError::invalid_input("audit run lost its trace dump"))?;
    let cc = stca_trace::report::cross_check(dump, r.decision_log.iter().map(String::as_str));
    check(
        cc.holds(),
        format!(
            "audit: an agreeing trace for every error-class decision ({} matched; {} missing, \
             {} disagreeing)",
            cc.error_matched,
            cc.missing.len(),
            cc.mismatched.len()
        ),
    )
}
