//! Eq.-2 profile vectors and dataset assembly.
//!
//! One profiling run of one workload yields one profile row:
//!
//! ```text
//! P = < static, dynamic, query_trace (29 x T), effective allocation >
//! ```
//!
//! *static* — the controlled runtime condition (utilizations, timeouts,
//! sampling period); *dynamic* — observed queueing behaviour that cannot be
//! set directly (normalized queue delays); *query_trace* — the sampled
//! counter matrix; the label is measured effective cache allocation. The
//! row also carries auxiliary targets (normalized base service time and
//! response times) used by the Stage-3 conversion and by the direct-ML
//! baselines of Figure 6.

use crate::executor::WorkloadOutcome;
use crate::sampler::{trace_to_matrix, CounterOrdering};
use stca_util::{Matrix, Percentiles, Rng64};
use stca_workloads::RuntimeCondition;

/// One profiling observation (one workload under one runtime condition).
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Static condition features (Eq. 2 `static` sub-vector).
    pub static_features: Vec<f64>,
    /// Dynamic condition features: mean and p95 queueing delay normalized
    /// by expected service time.
    pub dynamic_features: Vec<f64>,
    /// Sampled counter trace, kept unflattened so multi-grain scanning can
    /// window over it (29 rows x trace-length columns, log1p-scaled).
    pub trace: Matrix,
    /// Label: measured effective cache allocation (Eq. 3).
    pub ea: f64,
    /// Auxiliary target: mean default-allocation service time / expected.
    pub base_service_norm: f64,
    /// Auxiliary target: mean response time / expected service time.
    pub mean_response_norm: f64,
    /// Auxiliary target: p95 response time / expected service time.
    pub p95_response_norm: f64,
    /// Allocation ratio `l_a'/l_a` of the profiled policy.
    pub allocation_ratio: f64,
}

impl ProfileRow {
    /// Build a row from a finished experiment, for workload `index` of the
    /// condition.
    pub fn from_outcome(
        condition: &RuntimeCondition,
        index: usize,
        outcome: &WorkloadOutcome,
        ordering: CounterOrdering,
    ) -> ProfileRow {
        let es = outcome.expected_service;
        let mut qd = Percentiles::with_capacity(outcome.queue_delays.len());
        qd.extend_from(&outcome.queue_delays);
        let (mean_qd, p95_qd) = if qd.is_empty() {
            (0.0, 0.0)
        } else {
            (qd.mean(), qd.p95())
        };
        // the target workload's own condition leads the static vector so a
        // model trained across pairs sees a stable layout
        let wc = &condition.workloads[index];
        let other: Vec<f64> = condition
            .workloads
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != index)
            .flat_map(|(_, o)| [o.utilization, o.timeout_ratio])
            .collect();
        let mut static_features = vec![wc.utilization, wc.timeout_ratio];
        static_features.extend(other);
        static_features.push(condition.sample_period);
        ProfileRow {
            static_features,
            dynamic_features: vec![mean_qd / es, p95_qd / es],
            trace: trace_to_matrix(&outcome.trace, ordering),
            ea: outcome.effective_allocation,
            base_service_norm: outcome.base_service_estimate() / es,
            mean_response_norm: outcome.mean_response() / es,
            p95_response_norm: outcome.p95_response() / es,
            allocation_ratio: outcome.policy.allocation_ratio().max(1.0),
        }
    }

    /// Scalar model-input features. Only the *static* conditions are model
    /// inputs: the dynamic features (measured queueing delays) are Stage-3
    /// feedback/diagnostics — feeding a condition's own measured queue
    /// delay to a response-time model would leak most of the target, since
    /// response = queueing + service.
    pub fn scalar_features(&self) -> Vec<f64> {
        self.static_features.clone()
    }

    /// Fully flattened feature vector (scalars + row-major trace), the
    /// Eq.-2 "long 1xK vector".
    pub fn flat_features(&self) -> Vec<f64> {
        let mut f = self.scalar_features();
        f.extend_from_slice(self.trace.as_slice());
        f
    }

    /// Check a freshly measured row before it enters a dataset: every
    /// feature, target and trace value must be finite and the EA
    /// non-negative. Corrupted measurements (fault injection, stuck
    /// sensors) would otherwise poison training.
    pub fn validate(&self) -> Result<(), String> {
        if !self.ea.is_finite() || self.ea < 0.0 {
            return Err(format!("EA {} out of range", self.ea));
        }
        for (name, v) in [
            ("base_service_norm", self.base_service_norm),
            ("mean_response_norm", self.mean_response_norm),
            ("p95_response_norm", self.p95_response_norm),
            ("allocation_ratio", self.allocation_ratio),
        ] {
            if !v.is_finite() {
                return Err(format!("{name} is {v}"));
            }
        }
        if !self.static_features.iter().all(|v| v.is_finite()) {
            return Err("non-finite static feature".into());
        }
        if !self.trace.as_slice().iter().all(|v| v.is_finite()) {
            return Err("non-finite trace value".into());
        }
        Ok(())
    }
}

/// A set of profile rows with train/test utilities.
#[derive(Debug, Clone, Default)]
pub struct ProfileSet {
    /// The rows.
    pub rows: Vec<ProfileRow>,
}

impl ProfileSet {
    /// Empty set.
    pub fn new() -> Self {
        ProfileSet { rows: Vec::new() }
    }

    /// Add a row.
    pub fn push(&mut self, row: ProfileRow) {
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Flattened design matrix plus a chosen target.
    pub fn design_matrix(&self, target: Target) -> (Matrix, Vec<f64>) {
        assert!(!self.rows.is_empty());
        let mut x = Matrix::zeros(0, 0);
        let mut y = Vec::with_capacity(self.rows.len());
        for r in &self.rows {
            x.push_row(&r.flat_features());
            y.push(target.of(r));
        }
        (x, y)
    }

    /// Random split into (train, test) with `train_fraction` of rows in the
    /// training set. The paper trains on 33% and tests on 66% for its own
    /// model, 70/30 for competitors.
    pub fn split(&self, train_fraction: f64, rng: &mut Rng64) -> (ProfileSet, ProfileSet) {
        assert!((0.0..=1.0).contains(&train_fraction));
        let n = self.rows.len();
        let n_train = ((n as f64) * train_fraction).round() as usize;
        let mut idx: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut idx);
        let mut train = ProfileSet::new();
        let mut test = ProfileSet::new();
        for (i, &r) in idx.iter().enumerate() {
            if i < n_train {
                train.push(self.rows[r].clone());
            } else {
                test.push(self.rows[r].clone());
            }
        }
        (train, test)
    }
}

/// Which label a design matrix should carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Effective cache allocation (the paper's intermediate metric).
    Ea,
    /// Normalized base (unboosted) service time.
    BaseService,
    /// Normalized mean response time (direct-mapping baselines).
    MeanResponse,
    /// Normalized p95 response time.
    P95Response,
}

impl Target {
    /// Extract the target value from a row.
    pub fn of(&self, r: &ProfileRow) -> f64 {
        match self {
            Target::Ea => r.ea,
            Target::BaseService => r.base_service_norm,
            Target::MeanResponse => r.mean_response_norm,
            Target::P95Response => r.p95_response_norm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ExperimentSpec, TestEnvironment};
    use stca_workloads::BenchmarkId;

    fn tiny_outcome() -> (RuntimeCondition, crate::executor::ExperimentOutcome) {
        let cond = RuntimeCondition::pair(BenchmarkId::Knn, 0.6, 1.0, BenchmarkId::Bfs, 0.7, 2.0);
        let out = TestEnvironment::new(ExperimentSpec::quick(cond.clone(), 11)).run();
        (cond, out)
    }

    #[test]
    fn validate_rejects_damaged_rows() {
        let (cond, out) = tiny_outcome();
        let row = ProfileRow::from_outcome(&cond, 0, &out.workloads[0], CounterOrdering::Grouped);
        assert_eq!(row.validate(), Ok(()));
        let mut nan_ea = row.clone();
        nan_ea.ea = f64::NAN;
        let mut negative_ea = row.clone();
        negative_ea.ea = -0.5;
        let mut bad_trace = row.clone();
        bad_trace.trace.as_mut_slice()[0] = f64::INFINITY;
        let mut bad_target = row.clone();
        bad_target.p95_response_norm = f64::NAN;
        let mut bad_static = row;
        bad_static.static_features[1] = f64::NEG_INFINITY;
        for damaged in [nan_ea, negative_ea, bad_trace, bad_target, bad_static] {
            assert!(damaged.validate().is_err());
        }
    }

    #[test]
    fn row_layout_is_stable() {
        let (cond, out) = tiny_outcome();
        let r0 = ProfileRow::from_outcome(&cond, 0, &out.workloads[0], CounterOrdering::Grouped);
        let r1 = ProfileRow::from_outcome(&cond, 1, &out.workloads[1], CounterOrdering::Grouped);
        // target's own util/timeout first
        assert_eq!(&r0.static_features[..2], &[0.6, 1.0]);
        assert_eq!(&r1.static_features[..2], &[0.7, 2.0]);
        // collocated partner's next
        assert_eq!(&r0.static_features[2..4], &[0.7, 2.0]);
        assert_eq!(r0.dynamic_features.len(), 2);
        assert_eq!(r0.trace.rows(), 29);
        assert_eq!(r0.trace.cols(), 20);
        assert!(r0.ea > 0.0);
        assert!(r0.mean_response_norm > 0.0);
    }

    #[test]
    fn flat_features_length() {
        let (cond, out) = tiny_outcome();
        let r = ProfileRow::from_outcome(&cond, 0, &out.workloads[0], CounterOrdering::Grouped);
        assert_eq!(r.flat_features().len(), 5 + 29 * 20);
        // dynamic features exist as diagnostics but are not model inputs
        assert_eq!(r.dynamic_features.len(), 2);
        assert_eq!(r.scalar_features().len(), 5);
    }

    #[test]
    fn design_matrix_and_targets() {
        let (cond, out) = tiny_outcome();
        let mut set = ProfileSet::new();
        for (i, w) in out.workloads.iter().enumerate() {
            set.push(ProfileRow::from_outcome(
                &cond,
                i,
                w,
                CounterOrdering::Grouped,
            ));
        }
        let (x, y) = set.design_matrix(Target::Ea);
        assert_eq!(x.rows(), 2);
        assert_eq!(y.len(), 2);
        let (_, y2) = set.design_matrix(Target::MeanResponse);
        assert_ne!(y, y2);
    }

    #[test]
    fn split_partitions_rows() {
        let (cond, out) = tiny_outcome();
        let mut set = ProfileSet::new();
        for _ in 0..5 {
            for (i, w) in out.workloads.iter().enumerate() {
                set.push(ProfileRow::from_outcome(
                    &cond,
                    i,
                    w,
                    CounterOrdering::Grouped,
                ));
            }
        }
        let mut rng = Rng64::new(1);
        let (train, test) = set.split(0.33, &mut rng);
        assert_eq!(train.len() + test.len(), 10);
        assert_eq!(train.len(), 3);
    }
}
