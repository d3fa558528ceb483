//! Model-comparison machinery for the Figure-6/7 accuracy experiments.
//!
//! Every approach predicts each test row's **normalized mean response
//! time** (response / expected service) from the same observable features;
//! accuracy is absolute percent error against the measured value, exactly
//! the metric of Figure 6.

use crate::dataset::{Dataset, LabeledRow};
use stca_baselines::{Ridge, TabularKind, TabularModel};
use stca_core::pipeline::model_config;
use stca_core::Predictor;
use stca_deepforest::metrics::{ape_summary, ApeSummary};
use stca_neuralnet::net::{ConvNet, NetConfig, NnSample};
use stca_neuralnet::tune::{random_search, SearchSpace};
use stca_profiler::profile::Target;
use stca_queuesim::{QueueSim, StationConfig};
use stca_scenario::ModelKind;
use stca_util::{Matrix, SeedStream};
use stca_workloads::WorkloadSpec;

/// The Figure-6 lineup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// Linear regression on flattened profile features.
    LinearRegression,
    /// A single decision tree.
    DecisionTree,
    /// The tuned CNN mapping features directly to response time.
    Cnn,
    /// First-principles queueing simulation only (no learning: EA assumed
    /// ideal, base service assumed nominal).
    QueueModel,
    /// Queueing simulation + cascade concepts but no multi-grain scanning.
    QueueWithConcepts,
    /// The full approach: MGS + cascade EA model + queueing.
    Ours,
}

impl Approach {
    /// All approaches in Figure-6 order (simple to complex).
    pub const ALL: [Approach; 6] = [
        Approach::LinearRegression,
        Approach::DecisionTree,
        Approach::Cnn,
        Approach::QueueModel,
        Approach::QueueWithConcepts,
        Approach::Ours,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Approach::LinearRegression => "linear regression",
            Approach::DecisionTree => "decision tree",
            Approach::Cnn => "CNN (direct)",
            Approach::QueueModel => "queue model",
            Approach::QueueWithConcepts => "queue + concepts",
            Approach::Ours => "ours (MGS+cascade+queue)",
        }
    }

    /// Train fraction the paper gives each approach (ours is handicapped
    /// to 33%, competitors get 70%).
    pub fn train_fraction(&self) -> f64 {
        match self {
            Approach::Ours | Approach::QueueWithConcepts => 0.33,
            _ => 0.70,
        }
    }
}

fn design(ds: &Dataset) -> (Matrix, Vec<f64>) {
    ds.profile_set().design_matrix(Target::MeanResponse)
}

/// Z-score `v`. A feature with zero variance in the fitting data carries
/// no information, so it standardizes to 0: dividing by a floored std
/// would blow any test value that differs from the constant up by ~1e9.
pub fn z_score(v: f64, mean: f64, std: f64) -> f64 {
    if std > 0.0 {
        (v - mean) / std
    } else {
        0.0
    }
}

/// Feature standardization fitted on training data (gradient training
/// diverges on raw log-counter magnitudes; trees don't care, but the CNN
/// needs z-scored inputs, as any PyTorch pipeline would use).
struct NnScaler {
    scalar_mean: Vec<f64>,
    scalar_std: Vec<f64>,
    /// Per counter-row mean/std pooled over trace columns.
    trace_mean: Vec<f64>,
    trace_std: Vec<f64>,
}

impl NnScaler {
    fn fit(ds: &Dataset) -> NnScaler {
        let first = &ds.rows[0].row;
        let sdim = first.scalar_features().len();
        let trows = first.trace.rows();
        let mut s_stats = vec![stca_util::OnlineStats::new(); sdim];
        let mut t_stats = vec![stca_util::OnlineStats::new(); trows];
        for r in &ds.rows {
            for (st, v) in s_stats.iter_mut().zip(r.row.scalar_features()) {
                st.push(v);
            }
            for (row, st) in t_stats.iter_mut().enumerate() {
                for &v in r.row.trace.row(row) {
                    st.push(v);
                }
            }
        }
        NnScaler {
            scalar_mean: s_stats.iter().map(|s| s.mean()).collect(),
            scalar_std: s_stats.iter().map(|s| s.std_dev()).collect(),
            trace_mean: t_stats.iter().map(|s| s.mean()).collect(),
            trace_std: t_stats.iter().map(|s| s.std_dev()).collect(),
        }
    }

    fn apply(&self, ds: &Dataset) -> Vec<NnSample> {
        ds.rows
            .iter()
            .map(|r| {
                let scalars: Vec<f64> = r
                    .row
                    .scalar_features()
                    .iter()
                    .zip(&self.scalar_mean)
                    .zip(&self.scalar_std)
                    .map(|((&v, &m), &s)| z_score(v, m, s))
                    .collect();
                let mut trace = r.row.trace.clone();
                for row in 0..trace.rows() {
                    let (m, s) = (self.trace_mean[row], self.trace_std[row]);
                    for v in trace.row_mut(row) {
                        *v = z_score(*v, m, s);
                    }
                }
                NnSample { scalars, trace }
            })
            .collect()
    }
}

fn nn_targets(ds: &Dataset) -> Vec<f64> {
    ds.rows.iter().map(|r| r.row.mean_response_norm).collect()
}

/// Queue-model-only prediction: nominal service, ideal EA.
fn queue_only_prediction(row: &LabeledRow, sim_queries: usize, seed: u64) -> f64 {
    let spec = WorkloadSpec::for_benchmark(row.benchmark);
    let utilization = row.row.static_features[0];
    let timeout_ratio = row.row.static_features[1];
    let servers = 2;
    let station = StationConfig {
        inter_arrival: stca_util::Distribution::Exponential {
            mean: spec.mean_service_time / (utilization * servers as f64),
        },
        service: spec.demand.scaled(spec.mean_service_time),
        expected_service: spec.mean_service_time,
        timeout_ratio,
        boost_rate: row.row.allocation_ratio, // EA = 1 assumed
        servers,
        measured_queries: sim_queries,
        warmup_queries: sim_queries / 10,
    };
    QueueSim::new(station, seed).run().mean_response() / spec.mean_service_time
}

/// Score a trained predictor on labeled rows: predict each row's
/// normalized mean response time and take the APE against the measured one.
pub fn score_predictor<'a>(
    predictor: &Predictor,
    rows: impl IntoIterator<Item = &'a LabeledRow>,
) -> ApeSummary {
    let (predicted, observed): (Vec<f64>, Vec<f64>) = rows
        .into_iter()
        .map(|r| {
            let es = WorkloadSpec::for_benchmark(r.benchmark).mean_service_time;
            let predicted = predictor
                .predict_response(&r.row, r.benchmark)
                .mean_response
                / es;
            (predicted, r.row.mean_response_norm)
        })
        .unzip();
    ape_summary(&predicted, &observed)
}

/// Evaluate one approach: train on `train`, predict `test`, score APE on
/// normalized mean response time.
pub fn evaluate_approach(
    approach: Approach,
    train: &Dataset,
    test: &Dataset,
    sim_queries: usize,
    seed: u64,
) -> ApeSummary {
    assert!(!test.is_empty());
    let predicted: Vec<f64> = match approach {
        Approach::LinearRegression => {
            let (x, y) = design(train);
            let model = Ridge::fit(&x, &y, 1.0);
            test.rows
                .iter()
                .map(|r| model.predict(&r.row.flat_features()))
                .collect()
        }
        Approach::DecisionTree => {
            let (x, y) = design(train);
            let model = TabularModel::fit(TabularKind::DecisionTree, &x, &y, seed);
            test.rows
                .iter()
                .map(|r| model.predict(&r.row.flat_features()))
                .collect()
        }
        Approach::Cnn => {
            let scaler = NnScaler::fit(train);
            let s = scaler.apply(train);
            let y = nn_targets(train);
            // hold out a validation slice for the hyperparameter search
            let n_val = (s.len() / 4).max(1);
            let (val_s, tr_s) = s.split_at(n_val);
            let (val_y, tr_y) = y.split_at(n_val);
            let space = SearchSpace {
                epochs: (20, 60),
                ..Default::default()
            };
            let trials = random_search(
                (tr_s, tr_y),
                (val_s, val_y),
                &space,
                4,
                &SeedStream::new(seed),
            );
            let best = trials.first().expect("at least one trial");
            let net = ConvNet::fit(
                &s,
                &y,
                NetConfig {
                    seed,
                    ..best.config
                },
            );
            net.predict_all(&scaler.apply(test))
        }
        Approach::QueueModel => stca_exec::par_map_indexed(&test.rows, |i, r| {
            queue_only_prediction(r, sim_queries, seed ^ i as u64)
        }),
        Approach::QueueWithConcepts | Approach::Ours => {
            let mut config = model_config(ModelKind::Auto, train.len(), seed);
            config.sim_queries = sim_queries;
            if approach == Approach::QueueWithConcepts {
                config.ea_forest.mgs = None;
            }
            let predictor = Predictor::train(&train.profile_set(), &config);
            return score_predictor(&predictor, &test.rows);
        }
    };
    let observed: Vec<f64> = test.rows.iter().map(|r| r.row.mean_response_norm).collect();
    ape_summary(&predicted, &observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_pair_dataset, Scale};
    use stca_profiler::sampler::CounterOrdering;
    use stca_util::Rng64;
    use stca_workloads::BenchmarkId;

    #[test]
    fn zero_variance_features_standardize_to_zero() {
        assert_eq!(z_score(2.56, 0.0, 0.0), 0.0);
        assert_eq!(z_score(0.0, 0.0, 0.0), 0.0);
        assert_eq!(z_score(3.0, 1.0, 2.0), 1.0);
        // the CNN scaler: a trace row and a scalar that are constant in
        // training stay bounded on test rows that differ from the constant
        let d = build_pair_dataset(
            (BenchmarkId::Knn, BenchmarkId::Bfs),
            2,
            Scale::Quick,
            CounterOrdering::Grouped,
            3,
        );
        let mut train = d.clone();
        for r in &mut train.rows {
            r.row.static_features[0] = 0.5;
            r.row.trace.row_mut(0).fill(0.0);
        }
        let mut test = d;
        for r in &mut test.rows {
            r.row.static_features[0] = 0.9;
            r.row.trace.row_mut(0).fill(2.56);
        }
        let scaler = NnScaler::fit(&train);
        for s in scaler.apply(&test) {
            assert_eq!(s.scalars[0], 0.0);
            assert!(s.trace.row(0).iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn all_approaches_produce_finite_errors() {
        let d = build_pair_dataset(
            (BenchmarkId::Knn, BenchmarkId::Bfs),
            5,
            Scale::Quick,
            CounterOrdering::Grouped,
            3,
        );
        let mut rng = Rng64::new(4);
        let (train, test) = d.split(0.6, &mut rng);
        for a in [
            Approach::LinearRegression,
            Approach::DecisionTree,
            Approach::QueueModel,
        ] {
            let s = evaluate_approach(a, &train, &test, 200, 5);
            assert!(s.median.is_finite(), "{}: {:?}", a.name(), s);
            assert!(s.median >= 0.0);
        }
    }
}
