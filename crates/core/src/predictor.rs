//! The Stage 1→2→3 response-time predictor.
//!
//! Training consumes Eq.-2 profile rows. Two deep forests are fitted: one
//! for **effective cache allocation** (the paper's key intermediate metric —
//! learnable from few profiles and stable across conditions) and one for
//! **base service time** under the condition's contention (normalized by
//! the workload's expected service time). Prediction assembles the Stage-3
//! queueing simulation from those two quantities:
//!
//! ```text
//! boost_rate  = EA x (l_a'/l_a)
//! service     = demand shape scaled to (predicted base service)
//! arrivals    = Poisson at the condition's utilization
//! response    = G/G/2 + STAP discrete-event simulation
//! ```
//!
//! As in the paper's evaluation, the *inputs* at prediction time are the
//! observable profile features of the target condition (runtime conditions
//! and sampled counters); its measured response times are never seen.
//!
//! ## Degraded modes
//!
//! Prediction inputs can be damaged (fault-injected traces, sensors stuck
//! at NaN). Rather than poisoning the policy search, [`Predictor::predict_ea`]
//! degrades through a fixed fallback chain, counting each tier in
//! `fault.predictor_fallbacks_total`:
//!
//! 1. **deep forest** — scalars and trace all finite (the normal path);
//! 2. **scalar tabular model** — trace damaged but scalars finite: a plain
//!    random forest trained on the scalar features alone at [`Predictor::train`] time;
//! 3. **analytic queue model** — even the scalars are damaged: EA falls back
//!    to `1/allocation_ratio` (a boost that buys nothing, the conservative
//!    Eq.-3 floor), and base service to the workload's expected service.

use stca_baselines::{TabularKind, TabularModel};
use stca_deepforest::{DeepForest, DeepForestConfig, Sample};
use stca_fault::sanitize::all_finite;
use stca_profiler::profile::{ProfileRow, ProfileSet, Target};
use stca_queuesim::{QueueSim, StationConfig};
use stca_util::{Matrix, Seconds};
use stca_workloads::{BenchmarkId, WorkloadSpec};

/// Predictor hyperparameters.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Deep-forest configuration for the EA model.
    pub ea_forest: DeepForestConfig,
    /// Deep-forest configuration for the base-service model (usually a
    /// lighter cascade; the target is smoother).
    pub service_forest: DeepForestConfig,
    /// Queries simulated per Stage-3 prediction.
    pub sim_queries: usize,
    /// Stage-3 simulation seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        // base service is predictable from scalars + raw trace: no MGS
        let service = DeepForestConfig {
            mgs: None,
            ..DeepForestConfig::default()
        };
        ModelConfig {
            ea_forest: DeepForestConfig::default(),
            service_forest: service,
            sim_queries: 3000,
            seed: 0x57A6E3,
        }
    }
}

impl ModelConfig {
    /// A mid-sized configuration for the figure harnesses: close to the
    /// paper's shape (multi-window MGS, multi-level cascade) at a tree
    /// count that trains in seconds on a few hundred profiles.
    pub fn standard(seed: u64) -> Self {
        use stca_deepforest::{CascadeConfig, MgsConfig};
        let cascade = CascadeConfig {
            levels: 3,
            forests_per_level: 4,
            trees_per_forest: 40,
            folds: 3,
            ..CascadeConfig::default()
        };
        let mgs = MgsConfig {
            window_sizes: vec![5, 10, 15],
            stride: 2,
            trees_per_window: 25,
            max_positions_per_sample: 40,
            ..MgsConfig::default()
        };
        ModelConfig {
            ea_forest: DeepForestConfig {
                mgs: Some(mgs),
                cascade,
                include_raw_trace: true,
                seed,
            },
            service_forest: DeepForestConfig {
                mgs: None,
                cascade,
                include_raw_trace: true,
                seed: seed ^ 0x5E41,
            },
            sim_queries: 2500,
            seed,
        }
    }

    /// The "simple ML" configuration of Figure 8e: no multi-grain scanning
    /// and a single cascade level — effectively a plain random forest over
    /// the flattened profile features, still feeding the Stage-3 queueing
    /// conversion.
    pub fn simple_ml(seed: u64) -> Self {
        use stca_deepforest::CascadeConfig;
        let cascade = CascadeConfig {
            levels: 1,
            forests_per_level: 2,
            trees_per_forest: 40,
            folds: 3,
            ..CascadeConfig::default()
        };
        ModelConfig {
            ea_forest: DeepForestConfig {
                mgs: None,
                cascade,
                include_raw_trace: true,
                seed,
            },
            service_forest: DeepForestConfig {
                mgs: None,
                cascade,
                include_raw_trace: true,
                seed: seed ^ 0x5E41,
            },
            sim_queries: 2500,
            seed,
        }
    }

    /// A fast configuration for tests and quick experiments.
    pub fn quick(seed: u64) -> Self {
        use stca_deepforest::{CascadeConfig, MgsConfig};
        let cascade = CascadeConfig {
            levels: 2,
            forests_per_level: 2,
            trees_per_forest: 12,
            folds: 3,
            ..CascadeConfig::default()
        };
        let mgs = MgsConfig {
            window_sizes: vec![5, 10],
            stride: 3,
            trees_per_window: 10,
            max_positions_per_sample: 24,
            ..MgsConfig::default()
        };
        ModelConfig {
            ea_forest: DeepForestConfig {
                mgs: Some(mgs),
                cascade,
                include_raw_trace: true,
                seed,
            },
            service_forest: DeepForestConfig {
                mgs: None,
                cascade,
                include_raw_trace: true,
                seed: seed ^ 0x5E41,
            },
            sim_queries: 1200,
            seed,
        }
    }
}

/// Response-time prediction for one condition.
#[derive(Debug, Clone)]
pub struct ResponsePrediction {
    /// Predicted effective cache allocation.
    pub ea: f64,
    /// Predicted base (unboosted) mean service time, seconds.
    pub base_service: Seconds,
    /// Predicted mean response time, seconds.
    pub mean_response: Seconds,
    /// Predicted median response time.
    pub median_response: Seconds,
    /// Predicted p95 response time.
    pub p95_response: Seconds,
    /// Boost rate handed to the Stage-3 simulator.
    pub boost_rate: f64,
}

/// The trained predictor.
pub struct Predictor {
    /// The EA deep forest (crate-visible so the serving tests can run the
    /// full per-request path as their reference).
    pub(crate) ea_model: DeepForest,
    service_model: DeepForest,
    /// Scalar-only fallback models for rows with damaged traces.
    ea_scalar: TabularModel,
    service_scalar: TabularModel,
    config: ModelConfig,
}

fn to_sample(row: &ProfileRow) -> Sample {
    Sample {
        scalars: row.scalar_features(),
        trace: row.trace.clone(),
    }
}

/// Analytic EA floor used when no model can run: a grant assumed to buy no
/// speedup at all yields `EA = 1/ratio` (Eq. 3 with unchanged service time).
fn analytic_ea(allocation_ratio: f64) -> f64 {
    if allocation_ratio.is_finite() && allocation_ratio >= 1.0 {
        (1.0 / allocation_ratio).clamp(0.01, 2.0)
    } else {
        0.5
    }
}

fn fallback(tier: &str) {
    stca_obs::counter("fault.predictor_fallbacks_total").inc();
    stca_obs::counter(&format!("fault.predictor_fallback_{tier}_total")).inc();
}

impl Predictor {
    /// Train on a profile set (Stage 2).
    pub fn train(profiles: &ProfileSet, config: &ModelConfig) -> Predictor {
        assert!(!profiles.is_empty(), "cannot train on an empty profile set");
        stca_obs::time_scope!("core.predictor.train_seconds");
        stca_obs::counter("core.predictor.trainings_total").inc();
        stca_obs::info!("training predictor on {} profile rows", profiles.len());
        let samples: Vec<Sample> = profiles.rows.iter().map(to_sample).collect();
        let ea: Vec<f64> = profiles.rows.iter().map(|r| Target::Ea.of(r)).collect();
        let service: Vec<f64> = profiles
            .rows
            .iter()
            .map(|r| Target::BaseService.of(r))
            .collect();
        // scalar-only design matrix for the degraded-trace fallback models
        let k = profiles.rows[0].scalar_features().len();
        let mut scalars = Matrix::zeros(profiles.len(), k);
        for (i, row) in profiles.rows.iter().enumerate() {
            scalars.row_mut(i).copy_from_slice(&row.scalar_features());
        }
        let tabular = TabularKind::RandomForest { trees: 30 };
        Predictor {
            ea_model: DeepForest::fit(&samples, &ea, &config.ea_forest),
            service_model: DeepForest::fit(&samples, &service, &config.service_forest),
            ea_scalar: TabularModel::fit(tabular, &scalars, &ea, config.seed ^ 0xFA11BACC),
            service_scalar: TabularModel::fit(
                tabular,
                &scalars,
                &service,
                config.seed ^ 0xFA11_5E41,
            ),
            config: config.clone(),
        }
    }

    /// Predict effective cache allocation for a profile row, degrading
    /// through the fallback chain (deep forest → scalar forest → analytic)
    /// when the row's features are damaged. Always returns a finite value
    /// in `[0.01, 2.0]`.
    pub fn predict_ea(&self, row: &ProfileRow) -> f64 {
        let scalars_ok = all_finite(&row.static_features);
        let trace_ok = all_finite(row.trace.as_slice());
        let raw = if scalars_ok && trace_ok {
            // borrow the row's parts directly: no Sample, no trace clone
            self.ea_model
                .predict_parts(&row.static_features, &row.trace)
        } else if scalars_ok {
            fallback("scalar");
            self.ea_scalar.predict(&row.static_features)
        } else {
            fallback("analytic");
            analytic_ea(row.allocation_ratio)
        };
        if raw.is_finite() {
            raw.clamp(0.01, 2.0)
        } else {
            fallback("analytic");
            analytic_ea(row.allocation_ratio)
        }
    }

    /// The degraded tail of the fallback chain, skipping the deep forest:
    /// the scalar tabular model when the static features are finite
    /// (tier 1), else the analytic EA floor at `allocation_ratio`
    /// (tier 2). Always finite in `[0.01, 2.0]`.
    pub fn predict_ea_degraded(&self, static_features: &[f64], allocation_ratio: f64) -> (f64, u8) {
        if all_finite(static_features) {
            let raw = self.ea_scalar.predict(static_features);
            if raw.is_finite() {
                return (raw.clamp(0.01, 2.0), 1);
            }
        }
        (analytic_ea(allocation_ratio), 2)
    }

    /// Predict normalized base service time for a profile row, with the
    /// same degradation chain as [`predict_ea`]; the analytic tier is the
    /// workload's expected service (norm 1.0).
    ///
    /// [`predict_ea`]: Predictor::predict_ea
    pub fn predict_base_service_norm(&self, row: &ProfileRow) -> f64 {
        let scalars_ok = all_finite(&row.static_features);
        let trace_ok = all_finite(row.trace.as_slice());
        let raw = if scalars_ok && trace_ok {
            self.service_model
                .predict_parts(&row.static_features, &row.trace)
        } else if scalars_ok {
            fallback("scalar");
            self.service_scalar.predict(&row.static_features)
        } else {
            fallback("analytic");
            1.0
        };
        if raw.is_finite() {
            raw.clamp(0.05, 20.0)
        } else {
            fallback("analytic");
            1.0
        }
    }

    /// Full Stage-3 prediction of the response-time distribution for the
    /// workload described by `row` (which benchmark it is tells the model
    /// the service-time scale and demand shape).
    pub fn predict_response(&self, row: &ProfileRow, benchmark: BenchmarkId) -> ResponsePrediction {
        stca_obs::time_scope!("core.predictor.predict_seconds");
        stca_obs::counter("core.predictor.predictions_total").inc();
        let spec = WorkloadSpec::for_benchmark(benchmark);
        let ea = self.predict_ea(row);
        let base_norm = self.predict_base_service_norm(row);
        let base_service = base_norm * spec.mean_service_time;
        // damaged condition features would hand the simulator NaN rates;
        // substitute neutral values (moderate load, never-boost timeout)
        let utilization = if row.static_features[0].is_finite() {
            row.static_features[0].clamp(0.05, 0.98)
        } else {
            stca_obs::counter("fault.predictor_invalid_conditions_total").inc();
            0.5
        };
        let timeout_ratio = if row.static_features[1].is_finite() {
            row.static_features[1].max(0.0)
        } else {
            stca_obs::counter("fault.predictor_invalid_conditions_total").inc();
            6.0
        };
        let ratio = if row.allocation_ratio.is_finite() {
            row.allocation_ratio.max(1.0)
        } else {
            2.0
        };
        let boost_rate = stca_profiler::ea::boost_rate_from_ea(ea, ratio);
        let servers = 2;
        let station = StationConfig {
            inter_arrival: stca_util::Distribution::Exponential {
                // open-loop rate is set by the *expected* service time, as
                // in the test environment
                mean: spec.mean_service_time / (utilization * servers as f64),
            },
            service: spec.demand.scaled(base_service),
            expected_service: spec.mean_service_time,
            timeout_ratio,
            boost_rate,
            servers,
            measured_queries: self.config.sim_queries,
            warmup_queries: self.config.sim_queries / 10,
        };
        let result = QueueSim::new(station, self.config.seed).run();
        ResponsePrediction {
            ea,
            base_service,
            mean_response: result.mean_response(),
            median_response: result.median_response(),
            p95_response: result.p95_response(),
            boost_rate,
        }
    }

    /// Access the trained EA deep forest (concept extraction, §5.2, and
    /// the serving adapter's bind-time specialisation).
    pub fn ea_model(&self) -> &DeepForest {
        &self.ea_model
    }

    /// Concept vector of a profile row under the EA model.
    pub fn concepts(&self, row: &ProfileRow) -> Vec<f64> {
        self.ea_model.concepts(&to_sample(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stca_profiler::executor::{ExperimentSpec, TestEnvironment};
    use stca_profiler::profile::ProfileRow;
    use stca_profiler::sampler::CounterOrdering;
    use stca_util::Rng64;
    use stca_workloads::RuntimeCondition;

    /// Build a small profile set from real quick experiments.
    fn small_profiles(n: usize, seed: u64) -> (ProfileSet, Vec<BenchmarkId>) {
        let mut rng = Rng64::new(seed);
        let mut set = ProfileSet::new();
        let mut benchmarks = Vec::new();
        for i in 0..n {
            let cond =
                RuntimeCondition::random_pair(BenchmarkId::Kmeans, BenchmarkId::Bfs, &mut rng);
            let out =
                TestEnvironment::new(ExperimentSpec::quick(cond.clone(), seed ^ i as u64)).run();
            for (j, w) in out.workloads.iter().enumerate() {
                set.push(ProfileRow::from_outcome(
                    &cond,
                    j,
                    w,
                    CounterOrdering::Grouped,
                ));
                benchmarks.push(w.benchmark);
            }
        }
        (set, benchmarks)
    }

    #[test]
    fn train_and_predict_end_to_end() {
        let (profiles, benchmarks) = small_profiles(6, 42);
        let predictor = Predictor::train(&profiles, &ModelConfig::quick(1));
        let row = &profiles.rows[0];
        let pred = predictor.predict_response(row, benchmarks[0]);
        assert!(pred.ea > 0.0 && pred.ea <= 2.0);
        assert!(pred.mean_response > 0.0);
        assert!(pred.p95_response >= pred.median_response);
        assert!(pred.base_service > 0.0);
    }

    #[test]
    fn predictions_track_targets_on_training_data() {
        let (profiles, _) = small_profiles(8, 7);
        let predictor = Predictor::train(&profiles, &ModelConfig::quick(2));
        // in-sample EA predictions should correlate with labels (loose:
        // deep forest is regularized via out-of-fold concepts)
        let mut err = 0.0;
        for row in &profiles.rows {
            err += (predictor.predict_ea(row) - row.ea).abs();
        }
        let mean_err = err / profiles.rows.len() as f64;
        assert!(mean_err < 0.3, "mean in-sample EA error {mean_err}");
    }

    #[test]
    fn fallback_chain_survives_damaged_rows() {
        let (profiles, benchmarks) = small_profiles(4, 11);
        let predictor = Predictor::train(&profiles, &ModelConfig::quick(4));

        // tier 2: all-NaN trace, finite scalars → scalar model
        let mut damaged = profiles.rows[0].clone();
        for v in damaged.trace.as_mut_slice() {
            *v = f64::NAN;
        }
        let ea = predictor.predict_ea(&damaged);
        assert!(
            ea.is_finite() && (0.01..=2.0).contains(&ea),
            "scalar tier EA {ea}"
        );
        let svc = predictor.predict_base_service_norm(&damaged);
        assert!(svc.is_finite() && svc > 0.0);

        // tier 3: scalars damaged too → analytic queue model
        let mut wrecked = damaged.clone();
        for v in &mut wrecked.static_features {
            *v = f64::NAN;
        }
        let ea = predictor.predict_ea(&wrecked);
        assert!(
            ea.is_finite() && (0.01..=2.0).contains(&ea),
            "analytic tier EA {ea}"
        );
        assert!(
            (ea - 1.0 / wrecked.allocation_ratio).abs() < 1e-12,
            "analytic tier is the EA floor"
        );

        // even a full response prediction stays finite on wrecked inputs
        let pred = predictor.predict_response(&wrecked, benchmarks[0]);
        assert!(pred.mean_response.is_finite() && pred.mean_response > 0.0);
        assert!(pred.p95_response.is_finite());
    }

    #[test]
    fn fallbacks_are_counted() {
        let (profiles, _) = small_profiles(3, 13);
        let predictor = Predictor::train(&profiles, &ModelConfig::quick(5));
        let before = stca_obs::counter("fault.predictor_fallbacks_total").get();
        let mut damaged = profiles.rows[0].clone();
        damaged.trace.as_mut_slice()[0] = f64::INFINITY;
        predictor.predict_ea(&damaged);
        let after = stca_obs::counter("fault.predictor_fallbacks_total").get();
        assert!(after > before);
    }

    #[test]
    fn concepts_are_extractable() {
        let (profiles, _) = small_profiles(4, 9);
        let predictor = Predictor::train(&profiles, &ModelConfig::quick(3));
        let c = predictor.concepts(&profiles.rows[0]);
        assert!(!c.is_empty());
        assert!(c.iter().all(|v| v.is_finite()));
    }
}
