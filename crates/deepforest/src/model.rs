//! The full deep-forest regressor: multi-grain scanning + cascade.
//!
//! Inputs are [`Sample`]s — scalar runtime-condition features plus the
//! 29 x T counter-trace matrix. The cascade consumes the Eq.-2 layout the
//! paper describes: the *original* features (scalars + flattened trace, the
//! "580 original features" for a 29 x 20 trace) concatenated with the MGS
//! representational features.

use crate::cascade::{Cascade, CascadeConfig};
use crate::mgs::{MgsConfig, MultiGrainScanner};
use crate::scratch::PredictScratch;
use stca_util::{Matrix, SeedStream};
use std::sync::{Arc, OnceLock};

/// Global model metrics, resolved once (predict runs in policy-search hot
/// loops).
struct ModelMetrics {
    fits: Arc<stca_obs::Counter>,
    predicts: Arc<stca_obs::Counter>,
    fit_seconds: Arc<stca_obs::Histogram>,
    predict_seconds: Arc<stca_obs::Histogram>,
}

fn model_metrics() -> &'static ModelMetrics {
    static METRICS: OnceLock<ModelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ModelMetrics {
        fits: stca_obs::counter("deepforest.train.fits_total"),
        predicts: stca_obs::counter("deepforest.predict.predicts_total"),
        fit_seconds: stca_obs::histogram("deepforest.train.fit_seconds"),
        predict_seconds: stca_obs::histogram("deepforest.predict.seconds"),
    })
}

/// One model input: scalar features + counter trace.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Runtime-condition scalars (static + dynamic features).
    pub scalars: Vec<f64>,
    /// Counter-trace matrix (may be `0 x 0` for purely tabular inputs).
    pub trace: Matrix,
}

impl Sample {
    /// Tabular-only sample.
    pub fn tabular(scalars: Vec<f64>) -> Self {
        Sample {
            scalars,
            trace: Matrix::zeros(0, 0),
        }
    }
}

/// Model hyperparameters.
#[derive(Debug, Clone)]
pub struct DeepForestConfig {
    /// MGS settings; `None` disables representational learning (an
    /// ablation the Figure-7c harness uses).
    pub mgs: Option<MgsConfig>,
    /// Cascade settings.
    pub cascade: CascadeConfig,
    /// Whether the flattened raw trace joins the cascade input (the
    /// "original features" of Figure 4).
    pub include_raw_trace: bool,
    /// Training seed.
    pub seed: u64,
}

impl Default for DeepForestConfig {
    fn default() -> Self {
        DeepForestConfig {
            mgs: Some(MgsConfig::default()),
            cascade: CascadeConfig::default(),
            include_raw_trace: true,
            seed: 0xD33F,
        }
    }
}

/// A fitted deep forest.
///
/// ```
/// use stca_deepforest::{DeepForest, DeepForestConfig, Sample};
/// // tabular-only usage: learn y = 2 x
/// let samples: Vec<Sample> =
///     (0..50).map(|i| Sample::tabular(vec![i as f64 / 50.0])).collect();
/// let y: Vec<f64> = samples.iter().map(|s| 2.0 * s.scalars[0]).collect();
/// let mut config = DeepForestConfig::default();
/// config.cascade.trees_per_forest = 10; // keep the doctest fast
/// let model = DeepForest::fit(&samples, &y, &config);
/// let pred = model.predict(&Sample::tabular(vec![0.5]));
/// assert!((pred - 1.0).abs() < 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct DeepForest {
    mgs: Option<MultiGrainScanner>,
    cascade: Cascade,
    include_raw_trace: bool,
}

impl DeepForest {
    /// Fit on samples and targets.
    pub fn fit(samples: &[Sample], y: &[f64], config: &DeepForestConfig) -> Self {
        assert_eq!(samples.len(), y.len());
        assert!(!samples.is_empty());
        let metrics = model_metrics();
        let _timer = stca_obs::StageTimer::with_histogram(metrics.fit_seconds.clone());
        let stream = SeedStream::new(config.seed);
        let has_trace = samples[0].trace.rows() > 0 && samples[0].trace.cols() > 0;
        let mgs = match (&config.mgs, has_trace) {
            (Some(mc), true) => {
                let traces: Vec<Matrix> = samples.iter().map(|s| s.trace.clone()).collect();
                Some(MultiGrainScanner::fit(
                    &traces,
                    y,
                    mc,
                    &stream.derive(0x365),
                ))
            }
            _ => None,
        };
        let mut x = Matrix::zeros(0, 0);
        for s in samples {
            x.push_row(&assemble_features(s, &mgs, config.include_raw_trace));
        }
        let cascade = Cascade::fit(&x, y, config.cascade, &stream.derive(0xCA5));
        metrics.fits.inc();
        DeepForest {
            mgs,
            cascade,
            include_raw_trace: config.include_raw_trace,
        }
    }

    /// Predict one sample. Convenience wrapper over
    /// [`DeepForest::predict_parts_with`] using a thread-local scratch, so
    /// repeated calls allocate nothing after the first.
    pub fn predict(&self, sample: &Sample) -> f64 {
        self.predict_parts(&sample.scalars, &sample.trace)
    }

    /// Predict one sample using caller-owned scratch buffers.
    pub fn predict_with(&self, sample: &Sample, scratch: &mut PredictScratch) -> f64 {
        self.predict_parts_with(&sample.scalars, &sample.trace, scratch)
    }

    /// Predict from borrowed feature parts without building a [`Sample`] —
    /// callers that already hold scalars and a trace (the predictor hot
    /// path) avoid cloning either.
    pub fn predict_parts(&self, scalars: &[f64], trace: &Matrix) -> f64 {
        with_scratch(|s| self.predict_parts_with(scalars, trace, s))
    }

    /// The allocation-free prediction path: assemble features into the
    /// scratch's buffer (scalars ++ raw trace ++ MGS features, the Eq.-2
    /// layout) and run the cascade over reused buffers. Bit-identical to
    /// [`DeepForest::predict`].
    pub fn predict_parts_with(
        &self,
        scalars: &[f64],
        trace: &Matrix,
        scratch: &mut PredictScratch,
    ) -> f64 {
        let metrics = model_metrics();
        metrics.predicts.inc();
        let _timer = stca_obs::StageTimer::with_histogram(metrics.predict_seconds.clone());
        let PredictScratch {
            features,
            window,
            cascade,
        } = scratch;
        features.clear();
        features.extend_from_slice(scalars);
        extend_trace_tail(&self.mgs, self.include_raw_trace, trace, features, window);
        self.cascade.predict_with(features, cascade)
    }

    /// This model with its trace fixed to `trace`: the cascade is bound
    /// (see [`Cascade::bind`]) to `trace`'s tail (raw trace ++ MGS
    /// features) after the first `scalars` input columns, and no trace
    /// stage is left. Predicting the result on `scalars` values and an
    /// empty trace runs no MGS transform and is bit-identical to
    /// predicting this model on those values and `trace`.
    pub fn bind_trace(&self, scalars: usize, trace: &Matrix) -> DeepForest {
        let mut tail = Vec::new();
        extend_trace_tail(
            &self.mgs,
            self.include_raw_trace,
            trace,
            &mut tail,
            &mut Vec::new(),
        );
        DeepForest {
            mgs: None,
            cascade: self.cascade.bind(scalars, &tail),
            include_raw_trace: false,
        }
    }

    /// Predict many samples.
    pub fn predict_all(&self, samples: &[Sample]) -> Vec<f64> {
        let mut scratch = PredictScratch::default();
        samples
            .iter()
            .map(|s| self.predict_with(s, &mut scratch))
            .collect()
    }

    /// The learned concept vector for a sample (cascade-level outputs) —
    /// used for the workload-clustering insight of §5.2.
    pub fn concepts(&self, sample: &Sample) -> Vec<f64> {
        let f = assemble_features(sample, &self.mgs, self.include_raw_trace);
        self.cascade.concept_vector(&f)
    }

    /// Whether MGS is active.
    pub fn uses_mgs(&self) -> bool {
        self.mgs.is_some()
    }
}

/// Run `f` on this thread's prediction scratch.
fn with_scratch<R>(f: impl FnOnce(&mut PredictScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<PredictScratch> =
            std::cell::RefCell::new(PredictScratch::default());
    }
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Append the trace tail (raw trace when included, then MGS features) to
/// `out`, reusing `window` for the MGS window gathers.
fn extend_trace_tail(
    mgs: &Option<MultiGrainScanner>,
    include_raw_trace: bool,
    trace: &Matrix,
    out: &mut Vec<f64>,
    window: &mut Vec<f64>,
) {
    if include_raw_trace {
        out.extend_from_slice(trace.as_slice());
    }
    if let Some(m) = mgs {
        m.transform_extend(trace, out, window);
    }
}

fn assemble_features(
    sample: &Sample,
    mgs: &Option<MultiGrainScanner>,
    include_raw_trace: bool,
) -> Vec<f64> {
    let mut f = sample.scalars.clone();
    extend_trace_tail(
        mgs,
        include_raw_trace,
        &sample.trace,
        &mut f,
        &mut Vec::new(),
    );
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mgs::MgsConfig;
    use stca_util::Rng64;

    /// Synthetic task mimicking the EA structure: the label depends on a
    /// scalar (timeout) *and* on where activity sits in the trace.
    fn make_data(n: usize, seed: u64) -> (Vec<Sample>, Vec<f64>) {
        let mut rng = Rng64::new(seed);
        let mut samples = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let timeout = rng.next_f64() * 3.0;
            let contended = rng.next_bool(0.5);
            let mut trace = Matrix::zeros(10, 8);
            for r in 0..10 {
                for c in 0..8 {
                    trace[(r, c)] = rng.next_f64() * 0.1;
                }
            }
            if contended {
                for r in 6..10 {
                    for c in 0..8 {
                        trace[(r, c)] += 0.8;
                    }
                }
            }
            let ea = if contended { 0.35 } else { 0.85 } - 0.05 * timeout;
            samples.push(Sample {
                scalars: vec![timeout, 0.5],
                trace,
            });
            y.push(ea);
        }
        (samples, y)
    }

    fn quick_config(seed: u64) -> DeepForestConfig {
        DeepForestConfig {
            mgs: Some(MgsConfig {
                window_sizes: vec![4],
                stride: 2,
                trees_per_window: 10,
                max_positions_per_sample: 16,
                ..MgsConfig::default()
            }),
            cascade: CascadeConfig {
                levels: 2,
                forests_per_level: 2,
                trees_per_forest: 12,
                folds: 3,
                ..CascadeConfig::default()
            },
            include_raw_trace: true,
            seed,
        }
    }

    #[test]
    fn fits_and_generalizes() {
        let (train_s, train_y) = make_data(120, 1);
        let (test_s, test_y) = make_data(40, 2);
        let model = DeepForest::fit(&train_s, &train_y, &quick_config(3));
        let pred = model.predict_all(&test_s);
        let mape = stca_util::median_ape(&pred, &test_y);
        assert!(mape < 25.0, "median APE {mape}%");
    }

    #[test]
    fn tabular_only_works() {
        let mut rng = Rng64::new(4);
        let samples: Vec<Sample> = (0..100)
            .map(|_| Sample::tabular(vec![rng.next_f64(), rng.next_f64()]))
            .collect();
        let y: Vec<f64> = samples.iter().map(|s| s.scalars[0] * 2.0).collect();
        let model = DeepForest::fit(&samples, &y, &quick_config(5));
        assert!(!model.uses_mgs());
        let p = model.predict(&Sample::tabular(vec![0.5, 0.5]));
        assert!((p - 1.0).abs() < 0.35, "prediction {p}");
    }

    #[test]
    fn mgs_disabled_by_config() {
        let (s, y) = make_data(40, 6);
        let mut cfg = quick_config(7);
        cfg.mgs = None;
        let model = DeepForest::fit(&s, &y, &cfg);
        assert!(!model.uses_mgs());
        // still predicts finite values
        assert!(model.predict(&s[0]).is_finite());
    }

    #[test]
    fn concepts_have_stable_length() {
        let (s, y) = make_data(50, 8);
        let model = DeepForest::fit(&s, &y, &quick_config(9));
        let c0 = model.concepts(&s[0]);
        let c1 = model.concepts(&s[1]);
        assert_eq!(c0.len(), c1.len());
        assert_eq!(c0.len(), 2 * 2, "levels x forests");
    }

    #[test]
    fn deterministic_given_seed() {
        let (s, y) = make_data(60, 10);
        let m1 = DeepForest::fit(&s, &y, &quick_config(11));
        let m2 = DeepForest::fit(&s, &y, &quick_config(11));
        assert_eq!(m1.predict(&s[5]), m2.predict(&s[5]));
    }

    #[test]
    fn scratch_paths_match_predict() {
        let (s, y) = make_data(50, 12);
        let model = DeepForest::fit(&s, &y, &quick_config(13));
        let mut scratch = PredictScratch::default();
        for sample in s.iter().take(10) {
            let plain = model.predict(sample);
            assert_eq!(
                plain.to_bits(),
                model.predict_with(sample, &mut scratch).to_bits()
            );
            assert_eq!(
                plain.to_bits(),
                model
                    .predict_parts_with(&sample.scalars, &sample.trace, &mut scratch)
                    .to_bits()
            );
            let bound = model.bind_trace(sample.scalars.len(), &sample.trace);
            assert!(!bound.uses_mgs());
            assert_eq!(
                plain.to_bits(),
                bound
                    .predict_parts(&sample.scalars, &Matrix::zeros(0, 0))
                    .to_bits()
            );
        }
    }

    #[test]
    fn binned_training_stays_accurate() {
        let (train_s, train_y) = make_data(120, 14);
        let (test_s, test_y) = make_data(40, 15);
        let mut cfg = quick_config(16);
        cfg.cascade.bins = Some(32);
        if let Some(m) = &mut cfg.mgs {
            m.bins = Some(32);
        }
        let model = DeepForest::fit(&train_s, &train_y, &cfg);
        let pred = model.predict_all(&test_s);
        let mape = stca_util::median_ape(&pred, &test_y);
        assert!(mape < 30.0, "median APE {mape}%");
    }
}
