//! Parallel profile-dataset construction.
//!
//! A dataset is a list of labeled profile rows: for each sampled runtime
//! condition of a collocation pair, one row per workload, carrying the
//! Eq.-2 features and the measured ground truth (EA and response times).
//! Experiments are embarrassingly parallel and each condition carries its
//! own deterministic seed, so the profiler's one loop
//! (`stca_profiler::executor::profile_each`) runs them on the shared pool
//! and returns rows in condition order at any thread count.

use stca_fault::{FaultPlan, RetryPolicy};
use stca_profiler::executor::{profile_each, ExperimentSpec};
use stca_profiler::profile::{ProfileRow, ProfileSet};
use stca_profiler::sampler::CounterOrdering;
use stca_util::Rng64;
use stca_workloads::{BenchmarkId, RuntimeCondition};

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke test: tiny runs, few conditions.
    Quick,
    /// Default: minutes per figure.
    Standard,
    /// Paper scale: more conditions and longer runs.
    Full,
}

impl Scale {
    /// Conditions sampled per collocation pair.
    pub fn conditions_per_pair(&self) -> usize {
        match self {
            Scale::Quick => 6,
            Scale::Standard => 24,
            Scale::Full => 60,
        }
    }

    /// Shape of each experiment run.
    pub fn experiment_spec(&self, condition: RuntimeCondition, seed: u64) -> ExperimentSpec {
        match self {
            Scale::Quick => ExperimentSpec::quick(condition, seed),
            Scale::Standard => ExperimentSpec {
                measured_queries: 200,
                warmup_queries: 30,
                accesses_per_query: Some(1500),
                ..ExperimentSpec::standard(condition, seed)
            },
            Scale::Full => ExperimentSpec::standard(condition, seed),
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "quick" => Ok(Scale::Quick),
            "standard" => Ok(Scale::Standard),
            "full" => Ok(Scale::Full),
            _ => Err("expected quick, standard or full".into()),
        }
    }
}

/// One labeled observation.
#[derive(Debug, Clone)]
pub struct LabeledRow {
    /// The target workload's benchmark.
    pub benchmark: BenchmarkId,
    /// The collocation pair `(target, partner)`.
    pub pair: (BenchmarkId, BenchmarkId),
    /// Eq.-2 features + measured targets.
    pub row: ProfileRow,
}

/// A labeled dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// All rows.
    pub rows: Vec<LabeledRow>,
}

impl Dataset {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Profile set of all rows (feature/label view).
    pub fn profile_set(&self) -> ProfileSet {
        let mut set = ProfileSet::new();
        for r in &self.rows {
            set.push(r.row.clone());
        }
        set
    }

    /// Random index split (train, test).
    pub fn split(&self, train_fraction: f64, rng: &mut Rng64) -> (Dataset, Dataset) {
        let n = self.rows.len();
        let n_train = ((n as f64) * train_fraction).round() as usize;
        let mut idx: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut idx);
        let take = |ids: &[usize]| Dataset {
            rows: ids.iter().map(|&i| self.rows[i].clone()).collect(),
        };
        (take(&idx[..n_train]), take(&idx[n_train..]))
    }

    /// Merge another dataset into this one.
    pub fn extend(&mut self, other: Dataset) {
        self.rows.extend(other.rows);
    }

    /// Extrapolation split on the target workload's utilization: rows at or
    /// below `threshold` form the training pool, rows above it the test
    /// set. This is the paper's protocol — *"testing data was not used
    /// during training to ensure models accurately extrapolated to new,
    /// unseen conditions"* — in its sharpest form: test conditions sit in
    /// the high-arrival-rate regime where queueing delay grows non-linearly,
    /// which direct regressors cannot extrapolate but a queueing model can.
    pub fn split_by_utilization(&self, threshold: f64) -> (Dataset, Dataset) {
        let (low, high): (Vec<LabeledRow>, Vec<LabeledRow>) = self
            .rows
            .iter()
            .cloned()
            .partition(|r| r.row.static_features[0] <= threshold);
        (Dataset { rows: low }, Dataset { rows: high })
    }
}

/// Build a dataset for one collocation pair: `n_conditions` random Table-2
/// conditions, each run through the test environment with a deterministic
/// per-condition seed, in parallel.
pub fn build_pair_dataset(
    pair: (BenchmarkId, BenchmarkId),
    n_conditions: usize,
    scale: Scale,
    ordering: CounterOrdering,
    seed: u64,
) -> Dataset {
    // conditions drawn up-front so the sampling stream is deterministic
    let mut rng = Rng64::new(seed);
    let conditions: Vec<RuntimeCondition> = (0..n_conditions)
        .map(|_| RuntimeCondition::random_pair(pair.0, pair.1, &mut rng))
        .collect();
    run_conditions(&conditions, scale, ordering, seed)
}

/// Run an explicit list of conditions for a pair (used by the stratified
/// profiling harness, which chooses its own conditions).
pub fn run_conditions(
    conditions: &[RuntimeCondition],
    scale: Scale,
    ordering: CounterOrdering,
    seed: u64,
) -> Dataset {
    run_conditions_customized(conditions, scale, ordering, seed, |spec| spec)
}

/// Like [`run_conditions`] but with a hook to customize each experiment
/// spec (alternate cache platforms, layouts — Figure 7b).
///
/// Runs the profiler's one loop with no faults, the default retry policy
/// and no checkpoint; it never reads `STCA_FAULT_PLAN`. A figure needs
/// every row of every condition, so a failed condition or a rejected row
/// panics with its reason instead of being skipped.
pub fn run_conditions_customized(
    conditions: &[RuntimeCondition],
    scale: Scale,
    ordering: CounterOrdering,
    seed: u64,
    customize: impl Fn(ExperimentSpec) -> ExperimentSpec + Sync,
) -> Dataset {
    stca_obs::time_scope!("bench.dataset.build_seconds");
    let results = profile_each(
        conditions,
        |i, cond| customize(scale.experiment_spec(cond.clone(), seed ^ ((i as u64) << 20))),
        ordering,
        &FaultPlan::none(),
        &RetryPolicy::default(),
        None,
    )
    .expect("no checkpoint, no checkpoint error");
    stca_obs::counter("bench.dataset.conditions_total").add(conditions.len() as u64);
    let mut dataset = Dataset::default();
    for (i, (cond, result)) in conditions.iter().zip(results).enumerate() {
        let n = cond.workloads.len();
        let rows = match result {
            Ok(rows) if rows.len() == n => rows,
            Ok(_) => panic!("condition {i}: a damaged row was rejected"),
            Err(reason) => panic!("condition {i} failed: {reason}"),
        };
        dataset
            .rows
            .extend(rows.into_iter().enumerate().map(|(j, row)| {
                // partner = the next workload along the chain
                let benchmark = cond.workloads[j].benchmark;
                LabeledRow {
                    benchmark,
                    pair: (benchmark, cond.workloads[(j + 1) % n].benchmark),
                    row,
                }
            }));
    }
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_deterministic_parallel_dataset() {
        let pair = (BenchmarkId::Knn, BenchmarkId::Bfs);
        let a = build_pair_dataset(pair, 3, Scale::Quick, CounterOrdering::Grouped, 9);
        let b = build_pair_dataset(pair, 3, Scale::Quick, CounterOrdering::Grouped, 9);
        assert_eq!(a.len(), 6, "two rows per condition");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.row.ea, y.row.ea, "parallel build must be deterministic");
            assert_eq!(x.benchmark, y.benchmark);
        }
        // row pairing: target/partner alternate
        assert_eq!(a.rows[0].pair, (BenchmarkId::Knn, BenchmarkId::Bfs));
        assert_eq!(a.rows[1].pair, (BenchmarkId::Bfs, BenchmarkId::Knn));
        assert_eq!(a.rows[0].benchmark, BenchmarkId::Knn);
    }

    #[test]
    #[should_panic(expected = "condition 0 failed")]
    fn failed_condition_aborts_the_build() {
        let cond = RuntimeCondition::pair(BenchmarkId::Knn, 0.7, 1.0, BenchmarkId::Bfs, 0.7, 1.0);
        run_conditions_customized(&[cond], Scale::Quick, CounterOrdering::Grouped, 1, |spec| {
            ExperimentSpec {
                layout: stca_cat::layout::ExperimentLayout::pair_symmetric(64, 64),
                ..spec
            }
        });
    }

    #[test]
    fn split_and_filter() {
        let pair = (BenchmarkId::Knn, BenchmarkId::Redis);
        let d = build_pair_dataset(pair, 4, Scale::Quick, CounterOrdering::Grouped, 11);
        let mut rng = Rng64::new(1);
        let (train, test) = d.split(0.5, &mut rng);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(d.rows.iter().filter(|r| r.pair == pair).count(), 4);
    }
}
