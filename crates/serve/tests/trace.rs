//! Tracing integration tests: sampling determinism across thread counts,
//! the flight-recorder retention invariant against the decision log, the
//! tracing-changes-nothing guarantee, and the lossless Chrome-trace round
//! trip of every span the fleet emits.

use stca_fault::FaultPlan;
use stca_serve::{
    serve, serve_fleet, AdaptConfig, AnalyticEa, FleetConfig, ServeConfig, ServeReport,
    SyntheticStream,
};
use stca_trace::{report::cross_check, SpanRecord, Stage, TraceConfig};

fn traced_cfg() -> ServeConfig {
    ServeConfig {
        servers: 2,
        queue_capacity: 8,
        keep_decision_log: true,
        trace: Some(TraceConfig {
            seed: 0x7ACE,
            sample_every: 8,
            ring_capacity: 128,
            error_capacity: 1 << 20,
        }),
        ..ServeConfig::default()
    }
}

fn stream() -> SyntheticStream {
    SyntheticStream {
        seed: 7,
        rate: 400.0,
        deadline_s: 0.5,
        n_features: 4,
    }
}

fn run(cfg: &ServeConfig, plan: &FaultPlan, n: u64) -> ServeReport {
    serve(cfg, &AnalyticEa::default(), plan, &stream(), n).expect("serve runs")
}

/// Bit-identical sampled trace ids and span orderings at `--threads 1`
/// vs `8`, under both the `none` and `heavy` fault plans. One test owns
/// the global thread-pool setting to avoid races with parallel tests.
#[test]
fn traces_are_bit_identical_across_thread_counts() {
    let cfg = traced_cfg();
    let saved = stca_exec::threads();
    for plan in [FaultPlan::none(), FaultPlan::heavy()] {
        stca_exec::set_threads(1);
        let single = run(&cfg, &plan, 4_000);
        stca_exec::set_threads(8);
        let eight = run(&cfg, &plan, 4_000);
        stca_exec::set_threads(saved);

        assert_eq!(single.decision_hash, eight.decision_hash);
        let d1 = single.trace_dump.expect("tracing on");
        let d8 = eight.trace_dump.expect("tracing on");
        assert_eq!(d1.stats, d8.stats, "retention counters must match");
        assert_eq!(d1.traces.len(), d8.traces.len(), "same retained trace set");
        for (a, b) in d1.traces.iter().zip(d8.traces.iter()) {
            assert_eq!(a.trace_id, b.trace_id);
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.sampled, b.sampled);
            assert_eq!(a.disposition, b.disposition);
            assert_eq!(
                a.spans.len(),
                b.spans.len(),
                "seq {} span count differs",
                a.seq
            );
            for (sa, sb) in a.spans.iter().zip(b.spans.iter()) {
                assert_eq!(sa.stage, sb.stage, "seq {}", a.seq);
                assert_eq!(sa.start_s.to_bits(), sb.start_s.to_bits(), "seq {}", a.seq);
                assert_eq!(sa.end_s.to_bits(), sb.end_s.to_bits(), "seq {}", a.seq);
            }
        }
        // the whole trace (args included) must agree, and so must the
        // rendered artifacts, byte for byte
        assert_eq!(d1.traces, d8.traces);
        assert_eq!(
            stca_trace::chrome::to_chrome_json(&d1),
            stca_trace::chrome::to_chrome_json(&d8)
        );
        assert_eq!(stca_trace::svg::to_svg(&d1), stca_trace::svg::to_svg(&d8));
    }
}

/// Tracing must not perturb the run: same decisions, same virtual time,
/// same accounting with the recorder on or off.
#[test]
fn tracing_does_not_change_decisions_or_virtual_time() {
    let traced = traced_cfg();
    let untraced = ServeConfig {
        trace: None,
        ..traced_cfg()
    };
    let plan = FaultPlan::heavy();
    let a = run(&traced, &plan, 4_000);
    let b = run(&untraced, &plan, 4_000);
    assert_eq!(a.decision_hash, b.decision_hash);
    assert_eq!(a.decision_log, b.decision_log);
    assert_eq!(a.accounting, b.accounting);
    assert_eq!(a.virtual_end_s.to_bits(), b.virtual_end_s.to_bits());
    assert_eq!(a.p50_response_s.to_bits(), b.p50_response_s.to_bits());
    assert!(b.trace_dump.is_none());
}

/// Retention invariant: every shed / deadline-exceeded / drained request
/// in the decision log has a retained trace that agrees with it.
#[test]
fn every_error_decision_has_a_retained_trace() {
    // overload-heavy settings so all shed paths fire
    let cfg = ServeConfig {
        queue_capacity: 4,
        ..traced_cfg()
    };
    let stream = SyntheticStream {
        rate: 1200.0,
        deadline_s: 0.08,
        ..self::stream()
    };
    let plan = FaultPlan::heavy();
    let report = serve(&cfg, &AnalyticEa::default(), &plan, &stream, 6_000).expect("serve runs");
    let dump = report.trace_dump.as_ref().expect("tracing on");
    assert!(report.accounting.shed() > 0, "{:?}", report.accounting);
    let cc = cross_check(dump, report.decision_log.iter().map(String::as_str));
    assert!(
        cc.holds(),
        "missing {:?} mismatched {:?}",
        &cc.missing[..cc.missing.len().min(5)],
        &cc.mismatched[..cc.mismatched.len().min(5)]
    );
    assert_eq!(cc.log_lines as u64, report.decision_log.len() as u64);
    assert!(cc.error_matched > 0);
    // watchdog retries and breaker transitions are retained even when
    // the request completed fine
    assert!(
        dump.traces
            .iter()
            .any(|t| t.watchdog_retry || t.breaker_transition),
        "heavy plan must retain flagged completions"
    );
}

/// A span's stage and its args sorted by key (export writes args as a
/// JSON object, so import sees them in key order).
fn stage_and_args(span: &SpanRecord) -> (Stage, Vec<(&'static str, stca_trace::AttrValue)>) {
    let mut args = span.args.clone();
    args.sort_by_key(|(k, _)| *k);
    (span.stage, args)
}

/// Export → import keeps every span's stage and args, lifecycle spans
/// included: an adapt-on fleet under drift-heavy's plan retrains,
/// shadow-scores, promotes and rolls back, and every request is traced.
#[test]
fn chrome_round_trip_keeps_every_span_and_arg() {
    let cfg = FleetConfig {
        base: ServeConfig {
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
            trace: Some(TraceConfig {
                seed: 0x7ACE,
                sample_every: 1,
                ring_capacity: 1 << 16,
                error_capacity: 1 << 16,
            }),
            ..ServeConfig::default()
        },
        shards: 4,
        ..FleetConfig::default()
    };
    let plan = FaultPlan::parse(
        "drift_burst=0.8,retrain_fail=0.15,retrain_slow=0.15,promote_corrupt=0.5,seed=2022",
    )
    .expect("plan");
    let stream = SyntheticStream {
        seed: 2022,
        rate: 1_200.0,
        deadline_s: 0.25,
        n_features: 6,
    };
    let report = serve_fleet(&cfg, &AnalyticEa::default(), &plan, &stream, 30_000).expect("fleet");
    let dump = report.trace_dump.expect("tracing on");
    for stage in [
        Stage::Retrain,
        Stage::Shadow,
        Stage::Promote,
        Stage::Rollback,
    ] {
        assert!(
            dump.traces
                .iter()
                .any(|t| t.spans.iter().any(|s| s.stage == stage)),
            "no {stage:?} span retained"
        );
    }

    let back = stca_trace::chrome::from_chrome_json(&stca_trace::chrome::to_chrome_json(&dump))
        .expect("own export parses");
    assert_eq!(back.traces.len(), dump.traces.len());
    let mut imported: std::collections::HashMap<u64, &stca_trace::Trace> =
        back.traces.iter().map(|t| (t.seq, t)).collect();
    for trace in &dump.traces {
        let got = imported.remove(&trace.seq).expect("trace survives import");
        // import re-sorts spans by start time: compare them as multisets
        let key = |(stage, args): &(Stage, _)| (*stage, format!("{args:?}"));
        let mut want: Vec<_> = trace.spans.iter().map(stage_and_args).collect();
        let mut have: Vec<_> = got.spans.iter().map(stage_and_args).collect();
        want.sort_by_key(key);
        have.sort_by_key(key);
        assert_eq!(have, want, "seq {} lost span args on import", trace.seq);
    }
}
