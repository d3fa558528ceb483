//! End-to-end fault tolerance: the full profile → train → explore pipeline
//! must survive an aggressive deterministic fault plan (≥10% experiment
//! crashes, ≥5% sample dropout, plus corruption, stuck sensors, and noise)
//! without panicking, while surfacing every injected fault through the
//! `fault.*` metrics.
//!
//! Bit-exact crash recovery (checkpoint resume) and the per-layer behavior
//! (retry exhaustion, sanitization, predictor fallbacks) are covered by the
//! crates' own unit tests; this file exercises the composed pipeline.

use stca_core::{ModelConfig, PolicyExplorer, Predictor};
use stca_fault::{FaultPlan, RetryPolicy, StcaError};
use stca_profiler::executor::{profile_each, run_experiment_checked, ExperimentSpec};
use stca_profiler::profile::ProfileSet;
use stca_profiler::sampler::CounterOrdering;
use stca_scenario::ScenarioSpec;
use stca_util::Rng64;
use stca_workloads::{BenchmarkId, RuntimeCondition};

/// Serialize thread-count-sensitive tests (shared with determinism.rs's
/// convention: `set_threads` is process-global).
fn exec_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn pipeline_survives_heavy_fault_plan() {
    let _guard = exec_lock();
    stca_exec::set_threads(2);
    let plan = FaultPlan::heavy();
    assert!(plan.crash_prob >= 0.10, "acceptance: ≥10% crashes");
    assert!(plan.dropout_prob >= 0.05, "acceptance: ≥5% dropout");
    let retry = RetryPolicy::with_max_retries(8);
    let pair = (BenchmarkId::Knn, BenchmarkId::Bfs);

    // deltas, not absolutes: other tests in this binary also touch the
    // process-global fault counters
    let crashes_before = stca_obs::counter("fault.injected_crashes_total").get();
    let drops_before = stca_obs::counter("fault.injected_sample_drops_total").get();
    let retries_before = stca_obs::counter("fault.retries_total").get();

    // Stage 1: profiling under the plan — skips unlucky conditions but
    // never panics and never returns a damaged row
    let mut rng = Rng64::new(0xFA117);
    let conditions: Vec<RuntimeCondition> = (0..8)
        .map(|_| RuntimeCondition::random_pair(pair.0, pair.1, &mut rng))
        .collect();
    let results = profile_each(
        &conditions,
        |i, c| ExperimentSpec::quick(c.clone(), 0xFA117 ^ ((i as u64) << 20)),
        CounterOrdering::Grouped,
        &plan,
        &retry,
        None,
    )
    .expect("no checkpoint");
    let mut profiles = ProfileSet::new();
    for row in results.into_iter().flatten().flatten() {
        assert!(row.ea.is_finite() && row.ea >= 0.0);
        assert!(row.trace.as_slice().iter().all(|v| v.is_finite()));
        profiles.push(row);
    }
    assert!(
        !profiles.is_empty(),
        "heavy plan is survivable with retries"
    );

    // Stage 2 + 3: training and policy search on the surviving rows
    let predictor = Predictor::train(&profiles, &ModelConfig::quick(1));
    let explorer = PolicyExplorer::new(&predictor, &profiles, pair.0, pair.1, 0.9);
    let result = explorer.explore();
    assert!(result.timeout_a > 0.0 && result.timeout_b > 0.0);
    assert!(result.predicted_a.is_finite() && result.predicted_b.is_finite());

    // the injected faults are visible in the metrics registry
    let crashes = stca_obs::counter("fault.injected_crashes_total").get() - crashes_before;
    let drops = stca_obs::counter("fault.injected_sample_drops_total").get() - drops_before;
    let retries = stca_obs::counter("fault.retries_total").get() - retries_before;
    eprintln!("pipeline fault deltas: crashes={crashes} drops={drops} retries={retries}");
    assert!(crashes > 0, "heavy plan must have injected crashes");
    assert!(drops > 0, "heavy plan must have dropped samples");
    assert!(retries > 0, "crashed attempts must have been retried");
}

#[test]
fn retry_exhaustion_surfaces_typed_error_end_to_end() {
    let _guard = exec_lock();
    let cond = RuntimeCondition::pair(BenchmarkId::Knn, 0.7, 1.0, BenchmarkId::Bfs, 0.7, 1.0);
    let spec = ExperimentSpec::quick(cond, 99);
    let mut plan = FaultPlan::none();
    plan.seed = 1;
    plan.crash_prob = 1.0;
    let giveups_before = stca_obs::counter("fault.retry_giveups_total").get();
    match run_experiment_checked(spec, &plan, &RetryPolicy::with_max_retries(1)) {
        Err(StcaError::RetriesExhausted { attempts, last }) => {
            assert_eq!(attempts, 2);
            assert!(matches!(*last, StcaError::InjectedCrash { .. }));
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert!(stca_obs::counter("fault.retry_giveups_total").get() > giveups_before);
}

#[test]
fn all_conditions_failing_is_an_error_not_a_panic() {
    let _guard = exec_lock();
    let mut spec = ScenarioSpec::default();
    spec.workloads.pair = (BenchmarkId::Knn, BenchmarkId::Bfs);
    spec.profile.conditions = 2;
    spec.fault.plan = FaultPlan::none();
    spec.fault.plan.seed = 2;
    spec.fault.plan.crash_prob = 1.0;
    spec.fault.max_retries = 0;
    let err = stca_core::pipeline::profile_conditions(&spec, None)
        .expect_err("every condition crashes on every attempt");
    assert!(matches!(err, StcaError::InvalidInput { .. }));
}
