//! Thread-count invariance: every parallel code path must produce
//! bit-identical results at any worker count. The contract (see
//! `crates/exec`) is that parallelism only changes *when* a task runs,
//! never *what* it computes: all randomness comes from per-task tagged
//! [`stca_util::SeedStream`] streams and results are assembled in input
//! order.
//!
//! Each test runs the same computation with the pool forced to 1 worker
//! and to 8 workers and compares outputs via `f64::to_bits` — exact
//! equality, not tolerance. Run with `STCA_THREADS=1` and `STCA_THREADS=8`
//! in CI for extra coverage; the explicit `set_threads` calls below win
//! over the environment, so the tests are self-contained either way.

use stca_bench::dataset::build_pair_dataset;
use stca_bench::Scale;
use stca_core::{ModelConfig, PolicyExplorer, Predictor};
use stca_deepforest::forest::{Forest, ForestConfig};
use stca_profiler::executor::{profile_each, ExperimentSpec, TestEnvironment};
use stca_profiler::profile::{ProfileRow, ProfileSet};
use stca_profiler::sampler::CounterOrdering;
use stca_util::{Matrix, Rng64, SeedStream};
use stca_workloads::{BenchmarkId, RuntimeCondition};

/// `set_threads` is process-global and the tests in this binary run on
/// parallel test threads, so thread-count flips are serialized.
fn exec_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` once with 1 worker and once with 8, returning both results.
fn at_1_and_8<R>(mut f: impl FnMut() -> R) -> (R, R) {
    stca_exec::set_threads(1);
    let serial = f();
    stca_exec::set_threads(8);
    let parallel = f();
    (serial, parallel)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn forest_fit_is_thread_count_invariant() {
    let _guard = exec_lock();
    let mut rng = Rng64::new(41);
    let mut x = Matrix::zeros(0, 0);
    let mut y = Vec::new();
    for _ in 0..150 {
        let a = rng.next_f64();
        let b = rng.next_f64();
        x.push_row(&[a, b, rng.next_f64()]);
        y.push(3.0 * a - b);
    }
    let probes: Vec<Vec<f64>> = (0..20)
        .map(|_| (0..3).map(|_| rng.next_f64()).collect())
        .collect();
    let (serial, parallel) = at_1_and_8(|| {
        let forest = Forest::fit(&x, &y, ForestConfig::random(24), &SeedStream::new(7));
        probes
            .iter()
            .map(|p| forest.predict(p))
            .collect::<Vec<f64>>()
    });
    assert_eq!(bits(&serial), bits(&parallel));
}

#[test]
fn dataset_build_is_thread_count_invariant() {
    let _guard = exec_lock();
    let pair = (BenchmarkId::Knn, BenchmarkId::Bfs);
    let (serial, parallel) =
        at_1_and_8(|| build_pair_dataset(pair, 4, Scale::Quick, CounterOrdering::Grouped, 13));
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.pair, b.pair);
        assert_eq!(a.row.ea.to_bits(), b.row.ea.to_bits());
        assert_eq!(
            a.row.mean_response_norm.to_bits(),
            b.row.mean_response_norm.to_bits()
        );
        assert_eq!(bits(&a.row.static_features), bits(&b.row.static_features));
    }
}

#[test]
fn fault_injected_dataset_build_is_thread_count_invariant() {
    let _guard = exec_lock();
    // fault decisions are keyed to (plan seed, run seed, attempt), never to
    // scheduling, so an injected plan must stay bit-identical across thread
    // counts too — including which conditions crash and retry
    let pair = (BenchmarkId::Knn, BenchmarkId::Bfs);
    let mut rng = Rng64::new(23);
    let conditions: Vec<RuntimeCondition> = (0..4)
        .map(|_| RuntimeCondition::random_pair(pair.0, pair.1, &mut rng))
        .collect();
    let (serial, parallel) = at_1_and_8(|| {
        profile_each(
            &conditions,
            |i, c| ExperimentSpec::quick(c.clone(), 23 ^ ((i as u64) << 20)),
            CounterOrdering::Grouped,
            &stca_fault::FaultPlan::heavy(),
            &stca_fault::RetryPolicy::with_max_retries(8),
            None,
        )
        .expect("no checkpoint")
    });
    assert!(serial.iter().any(|r| r.is_ok()), "heavy plan survivable");
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len());
                for (a, b) in a.iter().zip(b) {
                    assert_eq!(a.ea.to_bits(), b.ea.to_bits());
                    assert_eq!(bits(a.trace.as_slice()), bits(b.trace.as_slice()));
                    assert_eq!(bits(&a.static_features), bits(&b.static_features));
                }
            }
            (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "same failures"),
        }
    }
}

#[test]
fn policy_exploration_is_thread_count_invariant() {
    let _guard = exec_lock();
    // small profile fixture (serial: conditions drawn from one rng chain)
    let mut rng = Rng64::new(77);
    let mut profiles = ProfileSet::new();
    for i in 0..6 {
        let cond = RuntimeCondition::random_pair(BenchmarkId::Redis, BenchmarkId::Social, &mut rng);
        let out = TestEnvironment::new(ExperimentSpec::quick(cond.clone(), 500 + i)).run();
        for (j, w) in out.workloads.iter().enumerate() {
            profiles.push(ProfileRow::from_outcome(
                &cond,
                j,
                w,
                CounterOrdering::Grouped,
            ));
        }
    }
    let (serial, parallel) = at_1_and_8(|| {
        let predictor = Predictor::train(&profiles, &ModelConfig::quick(5));
        let explorer = PolicyExplorer::new(
            &predictor,
            &profiles,
            BenchmarkId::Redis,
            BenchmarkId::Social,
            0.9,
        );
        explorer.explore()
    });
    assert_eq!(serial.timeout_a.to_bits(), parallel.timeout_a.to_bits());
    assert_eq!(serial.timeout_b.to_bits(), parallel.timeout_b.to_bits());
    assert_eq!(serial.intersected, parallel.intersected);
    for (ra, rb) in serial.grid.iter().zip(&parallel.grid) {
        for ((a1, b1), (a2, b2)) in ra.iter().zip(rb) {
            assert_eq!(a1.to_bits(), a2.to_bits());
            assert_eq!(b1.to_bits(), b2.to_bits());
        }
    }
}

#[test]
fn serving_loop_is_thread_count_invariant() {
    let _guard = exec_lock();
    use stca_serve::{serve, AnalyticEa, ServeConfig, SyntheticStream};
    let cfg = ServeConfig {
        keep_decision_log: true,
        ..ServeConfig::default()
    };
    let stream = SyntheticStream {
        seed: 33,
        rate: 300.0,
        deadline_s: 0.5,
        n_features: 6,
    };
    // healthy and heavily faulted: the decision log, accounting, and
    // response distribution must be bit-identical at 1 vs 8 workers
    for plan in [
        stca_fault::FaultPlan::none(),
        stca_fault::FaultPlan::heavy(),
    ] {
        let (a, b) = at_1_and_8(|| {
            serve(&cfg, &AnalyticEa::default(), &plan, &stream, 30_000).expect("serves")
        });
        assert_eq!(a.decision_hash, b.decision_hash, "plan seed {}", plan.seed);
        assert_eq!(a.decision_log, b.decision_log);
        assert_eq!(a.accounting, b.accounting);
        assert_eq!(a.mean_response_s.to_bits(), b.mean_response_s.to_bits());
        assert_eq!(a.p99_response_s.to_bits(), b.p99_response_s.to_bits());
        assert_eq!(a.breaker_opens, b.breaker_opens);
        assert_eq!(a.policy_applies, b.policy_applies);
    }
}
