//! Parallel profile-dataset construction.
//!
//! A dataset is a list of labeled profile rows: for each sampled runtime
//! condition of a collocation pair, one row per workload, carrying the
//! Eq.-2 features and the measured ground truth (EA and response times).
//! Experiments are embarrassingly parallel and each condition carries its
//! own deterministic seed, so `stca_exec::par_map_indexed` runs them on the
//! shared pool and returns rows in condition order at any thread count.

use stca_fault::{Checkpoint, FaultPlan, RetryPolicy, StcaError};
use stca_profiler::executor::{run_experiment_checked, ExperimentSpec, TestEnvironment};
use stca_profiler::profile::{ProfileRow, ProfileSet};
use stca_profiler::sampler::CounterOrdering;
use stca_profiler::storage;
use stca_util::Rng64;
use stca_workloads::{BenchmarkId, RuntimeCondition};
use std::path::Path;

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

    /// Rows whose target workload belongs to `pair` (ordered).
    pub fn for_pair(&self, pair: (BenchmarkId, BenchmarkId)) -> Dataset {
        Dataset {
            rows: self
                .rows
                .iter()
                .filter(|r| r.pair == pair)
                .cloned()
                .collect(),
        }
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

/// Validate a freshly built row before it enters a dataset: every feature,
/// target, and trace value must be finite and the EA non-negative.
/// Corrupted measurements (fault injection, stuck sensors) would otherwise
/// poison training; rejected rows tick `fault.rows_rejected_total`.
fn validate_row(row: &ProfileRow) -> Result<(), String> {
    if !row.ea.is_finite() || row.ea < 0.0 {
        return Err(format!("EA {} out of range", row.ea));
    }
    for (name, v) in [
        ("base_service_norm", row.base_service_norm),
        ("mean_response_norm", row.mean_response_norm),
        ("p95_response_norm", row.p95_response_norm),
        ("allocation_ratio", row.allocation_ratio),
    ] {
        if !v.is_finite() {
            return Err(format!("{name} is {v}"));
        }
    }
    if !row.static_features.iter().all(|v| v.is_finite()) {
        return Err("non-finite static feature".into());
    }
    if !row.trace.as_slice().iter().all(|v| v.is_finite()) {
        return Err("non-finite trace value".into());
    }
    Ok(())
}

/// Apply [`validate_row`] to each built row, dropping invalid ones.
fn keep_valid_rows(rows: Vec<LabeledRow>) -> Vec<LabeledRow> {
    rows.into_iter()
        .filter(|r| match validate_row(&r.row) {
            Ok(()) => true,
            Err(reason) => {
                stca_fault::sanitize::reject_row(
                    &format!("dataset row ({})", r.benchmark),
                    &reason,
                );
                false
            }
        })
        .collect()
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
pub fn run_conditions_customized(
    conditions: &[RuntimeCondition],
    scale: Scale,
    ordering: CounterOrdering,
    seed: u64,
    customize: impl Fn(stca_profiler::executor::ExperimentSpec) -> stca_profiler::executor::ExperimentSpec
        + Sync,
) -> Dataset {
    stca_obs::time_scope!("bench.dataset.build_seconds");
    let conditions_run = stca_obs::counter("bench.dataset.conditions_total");
    let per_condition = stca_exec::par_map_indexed(conditions, |i, cond| {
        stca_obs::debug!("condition {i}: running experiment");
        let spec = customize(scale.experiment_spec(cond.clone(), seed ^ ((i as u64) << 20)));
        let out = TestEnvironment::new(spec).run();
        let n = out.workloads.len();
        let rows: Vec<LabeledRow> = out
            .workloads
            .iter()
            .enumerate()
            .map(|(j, w)| LabeledRow {
                benchmark: w.benchmark,
                // partner = the next workload along the chain
                pair: (w.benchmark, out.workloads[(j + 1) % n].benchmark),
                row: ProfileRow::from_outcome(cond, j, w, ordering),
            })
            .collect();
        conditions_run.inc();
        rows
    });
    Dataset {
        rows: keep_valid_rows(per_condition.into_iter().flatten().collect()),
    }
}

/// Fault-tolerant [`build_pair_dataset`]: experiments run under `plan` with
/// retry, conditions that exhaust their retries are skipped (counted in
/// `fault.conditions_failed_total`), rows are validated before entering the
/// dataset, and — when `checkpoint` is given — each finished condition is
/// persisted so a killed build resumes bit-identically.
#[allow(clippy::too_many_arguments)]
pub fn build_pair_dataset_checked(
    pair: (BenchmarkId, BenchmarkId),
    n_conditions: usize,
    scale: Scale,
    ordering: CounterOrdering,
    seed: u64,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    checkpoint: Option<&Path>,
) -> Result<Dataset, StcaError> {
    stca_obs::time_scope!("bench.dataset.build_seconds");
    let mut rng = Rng64::new(seed);
    let conditions: Vec<RuntimeCondition> = (0..n_conditions)
        .map(|_| RuntimeCondition::random_pair(pair.0, pair.1, &mut rng))
        .collect();
    let meta = format!(
        "dataset/{}-{}/n{n_conditions}/seed{seed}/plan{:016x}",
        pair.0, pair.1, plan.seed
    );
    let mut ckpt = match checkpoint {
        Some(path) => Some(Checkpoint::load_or_new(path, &meta)?),
        None => None,
    };
    // decode resumed conditions up front: Some(rows) = finished (possibly
    // a recorded failure, which stays failed — same plan seed, same faults)
    let cached: Vec<Option<Vec<ProfileRow>>> = (0..n_conditions)
        .map(|i| {
            let ck = ckpt.as_ref()?;
            match ck.get(&format!("cond.{i}")) {
                Some(stca_obs::json::Value::Array(rows)) => rows
                    .iter()
                    .map(|v| storage::row_from_json(v).ok())
                    .collect(),
                Some(stca_obs::json::Value::String(s)) if s.starts_with("failed") => {
                    Some(Vec::new())
                }
                _ => None,
            }
        })
        .collect();
    let conditions_run = stca_obs::counter("bench.dataset.conditions_total");
    let results = stca_exec::par_map_indexed_caught(&conditions, |i, cond| {
        if let Some(rows) = &cached[i] {
            return Ok(rows.clone());
        }
        let spec = scale.experiment_spec(cond.clone(), seed ^ ((i as u64) << 20));
        run_experiment_checked(spec, plan, retry).map(|out| {
            conditions_run.inc();
            out.workloads
                .iter()
                .enumerate()
                .map(|(j, w)| ProfileRow::from_outcome(cond, j, w, ordering))
                .collect::<Vec<ProfileRow>>()
        })
    });
    let failed_counter = stca_obs::counter("fault.conditions_failed_total");
    let mut dataset = Dataset::default();
    for (i, (cond, result)) in conditions.iter().zip(results).enumerate() {
        let flattened = match result {
            Ok(inner) => inner.map_err(|e| e.to_string()),
            Err(panic_msg) => Err(format!("panicked: {panic_msg}")),
        };
        match flattened {
            Ok(rows) => {
                if let Some(ck) = ckpt.as_mut() {
                    if cached[i].is_none() {
                        ck.put(
                            format!("cond.{i}"),
                            stca_obs::json::Value::Array(
                                rows.iter().map(storage::row_to_json).collect(),
                            ),
                        );
                    }
                }
                let n = rows.len();
                let labeled: Vec<LabeledRow> = rows
                    .into_iter()
                    .enumerate()
                    .map(|(j, row)| {
                        let bench = cond.workloads[j].benchmark;
                        let partner = cond.workloads[(j + 1) % n.max(1)].benchmark;
                        LabeledRow {
                            benchmark: bench,
                            pair: (bench, partner),
                            row,
                        }
                    })
                    .collect();
                dataset.rows.extend(keep_valid_rows(labeled));
            }
            Err(reason) => {
                failed_counter.inc();
                stca_obs::warn!("dataset condition {i} failed, skipping: {reason}");
                if let Some(ck) = ckpt.as_mut() {
                    if cached[i].is_none() {
                        ck.put(
                            format!("cond.{i}"),
                            stca_obs::json::Value::String(format!("failed: {reason}")),
                        );
                    }
                }
            }
        }
    }
    if let Some(ck) = ckpt.as_mut() {
        ck.save()?;
    }
    if dataset.is_empty() {
        return Err(StcaError::invalid_input(format!(
            "all {n_conditions} dataset conditions failed under the fault plan"
        )));
    }
    Ok(dataset)
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
    fn invalid_rows_are_rejected() {
        let pair = (BenchmarkId::Knn, BenchmarkId::Bfs);
        let d = build_pair_dataset(pair, 1, Scale::Quick, CounterOrdering::Grouped, 3);
        let mut rows = d.rows.clone();
        rows[0].row.ea = f64::NAN;
        rows[1].row.trace.as_mut_slice()[0] = f64::INFINITY;
        let before = stca_fault::sanitize::rows_rejected_total();
        let kept = keep_valid_rows(rows);
        assert!(kept.is_empty(), "both damaged rows rejected");
        assert_eq!(stca_fault::sanitize::rows_rejected_total(), before + 2);
        // negative EA also rejected
        let mut rows = d.rows.clone();
        rows[0].row.ea = -0.5;
        assert_eq!(keep_valid_rows(rows).len(), 1);
    }

    #[test]
    fn checked_build_without_faults_matches_plain() {
        let pair = (BenchmarkId::Knn, BenchmarkId::Bfs);
        let plain = build_pair_dataset(pair, 2, Scale::Quick, CounterOrdering::Grouped, 5);
        let checked = build_pair_dataset_checked(
            pair,
            2,
            Scale::Quick,
            CounterOrdering::Grouped,
            5,
            &FaultPlan::none(),
            &RetryPolicy::default(),
            None,
        )
        .expect("no faults");
        assert_eq!(plain.len(), checked.len());
        for (a, b) in plain.rows.iter().zip(&checked.rows) {
            assert_eq!(a.row.ea.to_bits(), b.row.ea.to_bits());
            assert_eq!(a.pair, b.pair);
        }
    }

    #[test]
    fn checked_build_resumes_from_checkpoint_bit_identically() {
        let pair = (BenchmarkId::Knn, BenchmarkId::Bfs);
        let path =
            std::env::temp_dir().join(format!("stca-dataset-ckpt-{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        let build = |ckpt: Option<&std::path::Path>| {
            build_pair_dataset_checked(
                pair,
                3,
                Scale::Quick,
                CounterOrdering::Grouped,
                17,
                &FaultPlan::ci_default(),
                &RetryPolicy::default(),
                ckpt,
            )
            .expect("survivable plan")
        };
        let uninterrupted = build(None);
        let full = build(Some(&path));
        assert_eq!(uninterrupted.len(), full.len());

        // simulate a mid-run kill: keep only the first condition's entry
        let text = std::fs::read_to_string(&path).expect("checkpoint written");
        let mut doc = stca_obs::json::Value::parse(&text).expect("valid json");
        if let stca_obs::json::Value::Object(ref mut top) = doc {
            if let Some(stca_obs::json::Value::Object(entries)) = top.get_mut("entries") {
                entries.retain(|k, _| k == "cond.0");
                assert_eq!(entries.len(), 1);
            }
        }
        std::fs::write(&path, doc.to_string()).expect("write partial");
        let resumed = build(Some(&path));
        assert_eq!(uninterrupted.len(), resumed.len());
        for (a, b) in uninterrupted.rows.iter().zip(&resumed.rows) {
            assert_eq!(a.row.ea.to_bits(), b.row.ea.to_bits());
            assert_eq!(
                a.row
                    .trace
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                b.row
                    .trace
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn split_and_filter() {
        let pair = (BenchmarkId::Knn, BenchmarkId::Redis);
        let d = build_pair_dataset(pair, 4, Scale::Quick, CounterOrdering::Grouped, 11);
        let mut rng = Rng64::new(1);
        let (train, test) = d.split(0.5, &mut rng);
        assert_eq!(train.len() + test.len(), d.len());
        let knn_rows = d.for_pair((BenchmarkId::Knn, BenchmarkId::Redis));
        assert_eq!(knn_rows.len(), 4);
    }
}
