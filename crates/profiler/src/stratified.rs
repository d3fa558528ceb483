//! Stratified condition sampling (§4).
//!
//! Uniform random sampling over-samples some regions of the condition space.
//! The paper's procedure: randomly select *seed* settings, execute them,
//! cluster the results by effective cache allocation, and generate new
//! settings near each cluster's centroid setting — repeatedly refining the
//! centroids. The paper reports this cut profiling time by 67% at equal
//! accuracy.
//!
//! The sampler is generic over the (expensive) evaluation: callers pass a
//! closure running one profiling experiment and returning measured EA, so
//! tests can exercise the sampling logic against synthetic surfaces.

use stca_fault::StcaError;
use stca_util::kmeans::kmeans;
use stca_util::Rng64;
use stca_workloads::conditions::bounds;
use stca_workloads::{BenchmarkId, RuntimeCondition};

/// Record one evaluated condition in the global registry: which sampling
/// phase produced it and the measured EA, whose distribution
/// (`profiler.sampling.ea`) is the stratifier's clustering signal.
fn record_sample(phase_counter: &str, ea: f64) {
    stca_obs::counter("profiler.samples_total").inc();
    stca_obs::counter(phase_counter).inc();
    stca_obs::histogram("profiler.sampling.ea").record(ea);
}

/// Configuration for the stratified sampler.
#[derive(Debug, Clone, Copy)]
pub struct StratifiedConfig {
    /// Random seed experiments executed first.
    pub seeds: usize,
    /// Clusters formed over seed EAs.
    pub clusters: usize,
    /// Refinement settings generated near each centroid per round.
    pub per_cluster: usize,
    /// Refinement rounds.
    pub rounds: usize,
    /// Relative jitter applied to centroid settings when generating
    /// neighbours (fraction of each dimension's range).
    pub jitter: f64,
}

impl Default for StratifiedConfig {
    fn default() -> Self {
        StratifiedConfig {
            seeds: 12,
            clusters: 4,
            per_cluster: 3,
            rounds: 2,
            jitter: 0.12,
        }
    }
}

/// One evaluated condition, optionally carrying whatever extra data the
/// evaluator produced alongside the EA (e.g. dataset rows).
#[derive(Debug, Clone)]
pub struct EvaluatedCondition<T = ()> {
    /// The condition that was run.
    pub condition: RuntimeCondition,
    /// Measured effective allocation of the target workload.
    pub ea: f64,
    /// Evaluator payload (`()` when only the EA matters).
    pub payload: T,
}

fn jittered_near(c: &RuntimeCondition, jitter: f64, rng: &mut Rng64) -> RuntimeCondition {
    let mut out = c.clone();
    for w in &mut out.workloads {
        let du = (bounds::MAX_UTIL - bounds::MIN_UTIL) * jitter;
        let dt = (bounds::MAX_TIMEOUT - bounds::MIN_TIMEOUT) * jitter;
        w.utilization =
            (w.utilization + rng.next_range(-du, du)).clamp(bounds::MIN_UTIL, bounds::MAX_UTIL);
        w.timeout_ratio = (w.timeout_ratio + rng.next_range(-dt, dt))
            .clamp(bounds::MIN_TIMEOUT, bounds::MAX_TIMEOUT);
    }
    out
}

/// Run the stratified sampling procedure for a collocation pair. The
/// returned list holds every evaluated condition (seeds + refinements) in
/// draw order, which becomes the profiling dataset.
///
/// `evaluate(i, condition)` runs one condition and returns its measured EA
/// plus any payload (e.g. the profiled rows); `i` is the condition's global
/// draw index, so per-condition seeds stay stable. Conditions are drawn
/// serially from `rng` (each round clusters everything evaluated so far),
/// but each batch is evaluated in parallel, so the evaluator must be
/// `Fn + Sync` and must not share mutable state. Results are identical at
/// any thread count.
///
/// A condition whose evaluation fails or panics is skipped with a warning
/// and counted in `fault.conditions_failed_total`; clustering proceeds over
/// the survivors. Errors only when the procedure cannot continue: fewer
/// seeds than clusters, or every seed condition failed.
pub fn stratified_sample<T: Send>(
    pair: (BenchmarkId, BenchmarkId),
    config: StratifiedConfig,
    rng: &mut Rng64,
    evaluate: impl Fn(usize, &RuntimeCondition) -> Result<(f64, T), StcaError> + Sync,
) -> Result<Vec<EvaluatedCondition<T>>, StcaError> {
    if config.seeds < config.clusters {
        return Err(StcaError::invalid_input(format!(
            "need at least one seed per cluster: {} seeds, {} clusters",
            config.seeds, config.clusters
        )));
    }
    stca_obs::time_scope!("profiler.stratified.run_seconds");
    stca_obs::debug!(
        "stratified sampling {}({}): {} seeds, {} clusters x {} x {} rounds",
        pair.0,
        pair.1,
        config.seeds,
        config.clusters,
        config.per_cluster,
        config.rounds
    );
    let failed = stca_obs::counter("fault.conditions_failed_total");
    // `drawn` is the global draw index offset for the current batch, so the
    // evaluator sees a stable per-condition index regardless of how many
    // earlier conditions failed.
    let mut drawn = 0usize;
    let mut eval_batch = |conditions: Vec<RuntimeCondition>,
                          phase_counter: &str|
     -> Vec<EvaluatedCondition<T>> {
        let base = drawn;
        drawn += conditions.len();
        let results = stca_exec::par_map_indexed_caught(&conditions, |i, c| evaluate(base + i, c));
        conditions
            .into_iter()
            .zip(results)
            .enumerate()
            .filter_map(|(i, (condition, result))| {
                let flattened = match result {
                    Ok(inner) => inner.map_err(|e| e.to_string()),
                    Err(panic_msg) => Err(format!("panicked: {panic_msg}")),
                };
                match flattened {
                    Ok((ea, payload)) => {
                        record_sample(phase_counter, ea);
                        Some(EvaluatedCondition {
                            condition,
                            ea,
                            payload,
                        })
                    }
                    Err(reason) => {
                        failed.inc();
                        stca_obs::warn!(
                            "stratified: condition {} failed, skipping: {reason}",
                            base + i
                        );
                        None
                    }
                }
            })
            .collect()
    };

    let seeds: Vec<RuntimeCondition> = (0..config.seeds)
        .map(|_| RuntimeCondition::random_pair(pair.0, pair.1, rng))
        .collect();
    let mut evaluated = eval_batch(seeds, "profiler.stratified.seed_samples_total");
    if evaluated.is_empty() {
        return Err(StcaError::invalid_input(format!(
            "all {} seed conditions failed to evaluate",
            config.seeds
        )));
    }

    for _ in 0..config.rounds {
        // cluster by EA (1-D); survivors may number fewer than the
        // requested clusters
        let points: Vec<Vec<f64>> = evaluated.iter().map(|e| vec![e.ea]).collect();
        let k = config.clusters.min(points.len());
        let km = kmeans(&points, k, 50, rng);
        // per cluster: find the member closest to the centroid and generate
        // neighbours around its *condition* (settings near the centroid
        // setting, per §4). The whole round's neighbours are drawn first,
        // then evaluated as one parallel batch and appended after the
        // cluster loop so cluster assignments stay index-aligned.
        let mut staged: Vec<RuntimeCondition> = Vec::new();
        for c in 0..km.centroids.len() {
            let centroid_ea = km.centroids[c][0];
            let representative = evaluated
                .iter()
                .enumerate()
                .filter(|(i, _)| km.assignment[*i] == c)
                .min_by(|(_, a), (_, b)| {
                    (a.ea - centroid_ea)
                        .abs()
                        .partial_cmp(&(b.ea - centroid_ea).abs())
                        .expect("finite EA")
                })
                .map(|(_, e)| e.condition.clone());
            let Some(rep) = representative else { continue };
            for _ in 0..config.per_cluster {
                staged.push(jittered_near(&rep, config.jitter, rng));
            }
        }
        let refined = eval_batch(staged, "profiler.stratified.refine_samples_total");
        evaluated.extend(refined);
    }
    stca_obs::debug!(
        "stratified sampling done: {} of {} drawn conditions evaluated",
        evaluated.len(),
        drawn
    );
    Ok(evaluated)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic EA surface: EA depends sharply on the target's timeout
    /// (cliff at 1.0) and mildly on utilization.
    fn surface(c: &RuntimeCondition) -> f64 {
        let w = &c.workloads[0];
        let cliff = if w.timeout_ratio < 1.0 { 0.3 } else { 0.8 };
        cliff + 0.1 * w.utilization
    }

    /// The infallible evaluator: the surface, no payload.
    fn on_surface(_: usize, c: &RuntimeCondition) -> Result<(f64, ()), StcaError> {
        Ok((surface(c), ()))
    }

    fn crash(i: usize) -> StcaError {
        StcaError::InjectedCrash {
            run_key: i as u64,
            attempt: 0,
        }
    }

    #[test]
    fn produces_expected_count() {
        let mut rng = Rng64::new(1);
        let cfg = StratifiedConfig {
            seeds: 10,
            clusters: 3,
            per_cluster: 2,
            rounds: 2,
            jitter: 0.1,
        };
        let pair = (BenchmarkId::Redis, BenchmarkId::Social);
        let out = stratified_sample(pair, cfg, &mut rng, on_surface).expect("no failures");
        // 10 seeds + 2 rounds x 3 clusters x 2 = 22
        assert_eq!(out.len(), 22);
        assert!(out.iter().all(|e| e.condition.in_bounds()));
    }

    #[test]
    fn refinements_concentrate_near_cluster_representatives() {
        let mut rng = Rng64::new(2);
        let cfg = StratifiedConfig {
            seeds: 16,
            clusters: 2,
            per_cluster: 8,
            rounds: 1,
            jitter: 0.05,
        };
        let pair = (BenchmarkId::Knn, BenchmarkId::Bfs);
        let out = stratified_sample(pair, cfg, &mut rng, on_surface).expect("no failures");
        let refinements = &out[16..];
        // both sides of the EA cliff get refined (low-EA and high-EA regions)
        let low = refinements.iter().filter(|e| e.ea < 0.5).count();
        let high = refinements.iter().filter(|e| e.ea >= 0.5).count();
        assert!(
            low > 0 && high > 0,
            "both strata sampled: low={low} high={high}"
        );
    }

    #[test]
    fn evaluation_called_once_per_condition() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut rng = Rng64::new(4);
        let calls = AtomicUsize::new(0);
        let cfg = StratifiedConfig::default();
        let out = stratified_sample(
            (BenchmarkId::Jacobi, BenchmarkId::Spstream),
            cfg,
            &mut rng,
            |i, c| {
                calls.fetch_add(1, Ordering::Relaxed);
                on_surface(i, c)
            },
        )
        .expect("no failures");
        assert_eq!(calls.load(Ordering::Relaxed), out.len());
    }

    #[test]
    fn payload_rides_along_in_draw_order() {
        let mut rng = Rng64::new(5);
        let cfg = StratifiedConfig {
            seeds: 8,
            clusters: 2,
            per_cluster: 2,
            rounds: 1,
            jitter: 0.1,
        };
        let out = stratified_sample(
            (BenchmarkId::Knn, BenchmarkId::Bfs),
            cfg,
            &mut rng,
            |i, c| Ok((surface(c), (i, surface(c)))),
        )
        .expect("no failures");
        assert_eq!(out.len(), 8 + 2 * 2);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(
                e.payload,
                (i, e.ea),
                "payload matches its row, in draw order"
            );
        }
    }

    #[test]
    fn sampler_skips_failed_conditions() {
        let mut rng = Rng64::new(6);
        let cfg = StratifiedConfig {
            seeds: 10,
            clusters: 3,
            per_cluster: 2,
            rounds: 1,
            jitter: 0.1,
        };
        let out = stratified_sample(
            (BenchmarkId::Knn, BenchmarkId::Bfs),
            cfg,
            &mut rng,
            |i, c| {
                if i % 3 == 0 {
                    Err(crash(i))
                } else {
                    on_surface(i, c)
                }
            },
        )
        .expect("survivors remain");
        // 10 seeds + 3x2 refinements drawn = 16, every 3rd fails
        assert!(!out.is_empty());
        assert!(out.len() < 16, "failed conditions are dropped");
        assert!(out.iter().all(|e| e.ea.is_finite()));
    }

    #[test]
    fn sampler_isolates_panics() {
        let mut rng = Rng64::new(7);
        let cfg = StratifiedConfig {
            seeds: 6,
            clusters: 2,
            per_cluster: 1,
            rounds: 1,
            jitter: 0.1,
        };
        let out = stratified_sample(
            (BenchmarkId::Knn, BenchmarkId::Bfs),
            cfg,
            &mut rng,
            |i, c| {
                if i == 2 {
                    panic!("synthetic evaluator panic");
                }
                on_surface(i, c)
            },
        )
        .expect("panics are contained");
        assert!(!out.is_empty());
    }

    #[test]
    fn sampler_errors_when_everything_fails() {
        let mut rng = Rng64::new(8);
        let cfg = StratifiedConfig {
            seeds: 4,
            clusters: 2,
            per_cluster: 1,
            rounds: 1,
            jitter: 0.1,
        };
        let err = stratified_sample::<()>(
            (BenchmarkId::Knn, BenchmarkId::Bfs),
            cfg,
            &mut rng,
            |i, _| Err(crash(i)),
        )
        .expect_err("no survivors");
        assert!(matches!(err, StcaError::InvalidInput { .. }));
    }

    #[test]
    fn sampler_rejects_bad_config() {
        let mut rng = Rng64::new(9);
        let cfg = StratifiedConfig {
            seeds: 2,
            clusters: 5,
            per_cluster: 1,
            rounds: 1,
            jitter: 0.1,
        };
        assert!(matches!(
            stratified_sample(
                (BenchmarkId::Knn, BenchmarkId::Bfs),
                cfg,
                &mut rng,
                on_surface
            ),
            Err(StcaError::InvalidInput { .. })
        ));
    }
}
