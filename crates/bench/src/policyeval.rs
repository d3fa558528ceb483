//! Test-environment-backed policy evaluation for the Figure-8 experiments.
//!
//! Competing allocation strategies (`stca_baselines::policies`) need a way
//! to measure candidate policy vectors; this module provides it by running
//! the real collocated test environment, and also scores the final policy
//! of every strategy at the Figure-8 operating point (90% utilization).

use crate::dataset::Scale;
use stca_cat::ShortTermPolicy;
use stca_profiler::executor::{ExperimentSpec, TestEnvironment};
use stca_workloads::{BenchmarkId, RuntimeCondition, WorkloadSpec};

/// Run one experiment under explicit policies; returns normalized p95
/// response per workload (p95 / expected service).
fn normalized_p95(spec: ExperimentSpec, policies: &[ShortTermPolicy]) -> Vec<f64> {
    let out = TestEnvironment::new(spec).run_with_policies(Some(policies.to_vec()));
    out.workloads
        .iter()
        .map(|w| {
            let es = WorkloadSpec::for_benchmark(w.benchmark).mean_service_time;
            w.p95_response() / es
        })
        .collect()
}

/// Run a pair under explicit policies at a utilization; returns normalized
/// p95 response per workload (p95 / expected service).
fn run_pair_with_policies(
    pair: (BenchmarkId, BenchmarkId),
    utilization: f64,
    policies: &[ShortTermPolicy],
    scale: Scale,
    seed: u64,
) -> Vec<f64> {
    // condition timeouts are placeholders — the explicit policies govern
    let cond = RuntimeCondition::pair(pair.0, utilization, 6.0, pair.1, utilization, 6.0);
    normalized_p95(scale.experiment_spec(cond, seed), policies)
}

/// Low-variance scoring for final Figure-8 comparisons: a longer run,
/// repeated over `repeats` *paired* seeds (every strategy must be scored
/// with the same seed list so arrival realizations cancel out). Returns the
/// per-workload mean of normalized p95 across repeats.
pub fn score_policies_paired(
    pair: (BenchmarkId, BenchmarkId),
    utilization: f64,
    policies: &[ShortTermPolicy],
    scale: Scale,
    seeds: &[u64],
) -> Vec<f64> {
    assert!(!seeds.is_empty());
    let cond = RuntimeCondition::pair(pair.0, utilization, 6.0, pair.1, utilization, 6.0);
    // each repeat is an independent experiment keyed by its own seed
    let per_seed = stca_exec::par_map_indexed(seeds, |_, &seed| {
        let mut spec = scale.experiment_spec(cond.clone(), seed);
        // p95 needs more samples than profiling runs collect
        spec.measured_queries = spec.measured_queries.max(500);
        normalized_p95(spec, policies)
    });
    let mut acc = [0.0; 2];
    for scores in &per_seed {
        for (a, s) in acc.iter_mut().zip(scores) {
            *a += s;
        }
    }
    acc.iter().map(|a| a / seeds.len() as f64).collect()
}

/// Build a `PolicyEval` closure for the baseline strategies: candidates are
/// measured at `default_util` unless the strategy overrides it (dynaSprint
/// calibrates at low rate).
pub fn make_policy_eval(
    pair: (BenchmarkId, BenchmarkId),
    default_util: f64,
    scale: Scale,
    seed: u64,
) -> impl FnMut(&[ShortTermPolicy], Option<f64>) -> Vec<f64> {
    let mut call = 0u64;
    move |policies: &[ShortTermPolicy], util_override: Option<f64>| {
        call += 1;
        let util = util_override.unwrap_or(default_util);
        run_pair_with_policies(pair, util, policies, scale, seed ^ (call << 8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stca_baselines::policies::{no_sharing, policies_for, PolicyStrategy};
    use stca_cat::PairLayout;

    #[test]
    fn no_sharing_policies_run_and_score() {
        let pair = (BenchmarkId::Knn, BenchmarkId::Bfs);
        let layout = PairLayout::symmetric(2, 2);
        let scores = run_pair_with_policies(pair, 0.7, &no_sharing(&layout), Scale::Quick, 1);
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|&s| s > 0.0 && s.is_finite()));
    }

    #[test]
    fn static_best_strategy_runs_against_real_environment() {
        let pair = (BenchmarkId::Kmeans, BenchmarkId::Redis);
        let layout = PairLayout::symmetric(2, 2);
        let mut eval = make_policy_eval(pair, 0.7, Scale::Quick, 2);
        let ps = policies_for(PolicyStrategy::StaticBest, &layout, &mut eval);
        assert_eq!(ps.len(), 2);
        // chosen policies are static (no boost)
        assert!(!ps[0].boost_enabled());
    }
}
