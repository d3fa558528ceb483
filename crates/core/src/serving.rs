//! Serving-side adapter: the trained [`Predictor`] as an
//! [`stca_serve::EaModel`].
//!
//! The serving loop speaks flat feature rows (seeded synthetic streams,
//! `features[0]` = allocation ratio in `(0, 1]`); the predictor speaks
//! [`ProfileRow`]s (Eq.-2 scalars plus a counter trace). The adapter
//! bridges them with a *template row* taken from the training set: a
//! request keeps the template's trace and conditions but writes its own
//! features over the leading static slots, so the deep forest sees inputs
//! shaped exactly like its training data while the request still controls
//! the EA-relevant conditions.
//!
//! Only the static features change between requests, so the template's
//! trace is spent at bind time. [`ServingPredictor::new`] checks it for
//! finiteness once and binds the EA forest to it
//! ([`DeepForest::bind_trace`]): the trace tail (raw trace ++ multi-grain
//! scanning features) is computed once, and every cascade split on a tail
//! column is resolved against it, leaving a cascade whose input is the
//! static features alone. On the serve-trained model that keeps about 5%
//! of the forests' nodes. A request copies the template's static features
//! into a reused thread-local buffer, overwrites its slots, and walks the
//! bound cascade over them. Each comparison the bound walk makes is one
//! the full per-request path makes on the same float, and leaves add up
//! in the same order, so the result is bit-identical to it.
//!
//! The tier split mirrors the breaker contract:
//!
//! - [`EaModel::predict_primary`] → the bound forest with failures
//!   *surfaced* (non-finite features or output are errors the breaker
//!   counts and trips on);
//! - [`EaModel::predict_degraded`] → [`Predictor::predict_ea_degraded`],
//!   the scalar-model → analytic tail that always answers.

use crate::predictor::Predictor;
use stca_deepforest::DeepForest;
use stca_fault::sanitize::all_finite;
use stca_fault::StcaError;
use stca_profiler::profile::ProfileRow;
use stca_serve::EaModel;
use stca_util::Matrix;
use std::cell::RefCell;

/// A trained predictor bound to a template profile row, serving flat
/// feature vectors.
pub struct ServingPredictor {
    predictor: Predictor,
    /// The template's static features; requests overwrite a copy.
    static_features: Vec<f64>,
    /// The template's allocation ratio (`l_a' / l_a >= 1`), used when a
    /// request carries no usable ratio.
    template_ratio: f64,
    /// The EA forest bound to the template's trace: its input is the
    /// static features alone. `None` when the trace is not all finite, so
    /// the primary tier fails every call.
    ea: Option<DeepForest>,
}

impl ServingPredictor {
    /// Bind `predictor` to `template` (typically the first row of the
    /// training set — any row with the right feature shape works),
    /// checking the template trace's finiteness and binding the EA forest
    /// to it once.
    pub fn new(predictor: Predictor, template: ProfileRow) -> ServingPredictor {
        let ea = all_finite(template.trace.as_slice()).then(|| {
            predictor
                .ea_model()
                .bind_trace(template.static_features.len(), &template.trace)
        });
        ServingPredictor {
            predictor,
            static_features: template.static_features,
            template_ratio: template.allocation_ratio,
            ea,
        }
    }

    /// Run `f` on one request's static features: the template's with the
    /// request's features written over the leading slots, assembled in a
    /// reused thread-local buffer.
    fn with_static_features<R>(&self, features: &[f64], f: impl FnOnce(&[f64]) -> R) -> R {
        thread_local! {
            static STATIC: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
        }
        STATIC.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            buf.extend_from_slice(&self.static_features);
            let n = buf.len().min(features.len());
            buf[..n].copy_from_slice(&features[..n]);
            f(&buf)
        })
    }

    /// The request's allocation ratio: the serving ratio (`l_a / l_a'` in
    /// `(0, 1]`, `features[0]`) converted to the profiler's
    /// `l_a' / l_a >= 1` convention, or the template's when it is missing
    /// or unusable.
    fn allocation_ratio(&self, features: &[f64]) -> f64 {
        match features.first() {
            Some(&ratio) if ratio.is_finite() && ratio > 0.0 => (1.0 / ratio).max(1.0),
            _ => self.template_ratio,
        }
    }
}

impl EaModel for ServingPredictor {
    /// The bound EA forest with **no fallback**: damaged features or a
    /// non-finite forest output are errors, not a degraded answer, so the
    /// serving loop's circuit breaker can count them and trip.
    fn predict_primary(&self, features: &[f64]) -> Result<f64, StcaError> {
        self.with_static_features(features, |s| {
            let ea = match &self.ea {
                Some(ea) if all_finite(s) => ea,
                _ => {
                    return Err(StcaError::invalid_input(
                        "predict_primary: non-finite features",
                    ))
                }
            };
            // the bound forest has no trace stage: it reads `s` alone
            let raw = ea.predict_parts(s, &Matrix::zeros(0, 0));
            if raw.is_finite() {
                Ok(raw.clamp(0.01, 2.0))
            } else {
                Err(StcaError::invalid_input(
                    "predict_primary: non-finite forest output",
                ))
            }
        })
    }

    fn predict_degraded(&self, features: &[f64]) -> (f64, u8) {
        self.with_static_features(features, |s| {
            self.predictor
                .predict_ea_degraded(s, self.allocation_ratio(features))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::ModelConfig;
    use stca_profiler::executor::{ExperimentSpec, TestEnvironment};
    use stca_profiler::profile::ProfileSet;
    use stca_profiler::sampler::CounterOrdering;
    use stca_serve::{serve, ServeConfig, SyntheticStream};
    use stca_util::Rng64;
    use stca_workloads::{BenchmarkId, RuntimeCondition};

    fn fixture() -> (Predictor, ProfileRow) {
        let mut rng = Rng64::new(5);
        let mut set = ProfileSet::new();
        for i in 0..4 {
            let cond =
                RuntimeCondition::random_pair(BenchmarkId::Kmeans, BenchmarkId::Bfs, &mut rng);
            let out = TestEnvironment::new(ExperimentSpec::quick(cond.clone(), 5 ^ i)).run();
            for (j, w) in out.workloads.iter().enumerate() {
                set.push(ProfileRow::from_outcome(
                    &cond,
                    j,
                    w,
                    CounterOrdering::Grouped,
                ));
            }
        }
        let template = set.rows[0].clone();
        (Predictor::train(&set, &ModelConfig::quick(1)), template)
    }

    fn trained() -> ServingPredictor {
        let (predictor, template) = fixture();
        ServingPredictor::new(predictor, template)
    }

    /// The full profile row a request stands for: the template with the
    /// request's ratio and static slots written in.
    fn request_row(template: &ProfileRow, features: &[f64]) -> ProfileRow {
        let mut row = template.clone();
        if let Some(&ratio) = features.first() {
            if ratio.is_finite() && ratio > 0.0 {
                row.allocation_ratio = (1.0 / ratio).max(1.0);
            }
        }
        for (slot, &v) in row.static_features.iter_mut().zip(features) {
            *slot = v;
        }
        row
    }

    /// The primary tier recomputed from scratch: finiteness of the whole
    /// row, then the full deep forest with MGS rerun over the trace.
    fn reference_primary(predictor: &Predictor, row: &ProfileRow) -> Option<f64> {
        if !all_finite(&row.static_features) || !all_finite(row.trace.as_slice()) {
            return None;
        }
        let raw = predictor
            .ea_model
            .predict_parts(&row.static_features, &row.trace);
        raw.is_finite().then(|| raw.clamp(0.01, 2.0))
    }

    /// Seeded request vectors, shorter than, as long as and longer than
    /// the static slots, with NaN, ±Inf and non-positive ratios mixed in.
    fn request_features(n_static: usize) -> Vec<Vec<f64>> {
        let mut rng = Rng64::new(0x5E4E);
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.5];
        (0..96)
            .map(|i| {
                let len = i % (n_static + 3);
                (0..len)
                    .map(|_| {
                        if rng.next_bool(0.2) {
                            specials[rng.next_index(specials.len())]
                        } else {
                            rng.next_range(0.05, 2.0)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_matches_reference(m: &ServingPredictor, template: &ProfileRow) {
        for features in request_features(template.static_features.len()) {
            let row = request_row(template, &features);
            let primary = m.predict_primary(&features).ok().map(f64::to_bits);
            let expect = reference_primary(&m.predictor, &row).map(f64::to_bits);
            assert_eq!(primary, expect, "primary tier for {features:?}");
            let (ea, tier) = m.predict_degraded(&features);
            let (expect_ea, expect_tier) = m
                .predictor
                .predict_ea_degraded(&row.static_features, row.allocation_ratio);
            assert_eq!(
                (ea.to_bits(), tier),
                (expect_ea.to_bits(), expect_tier),
                "degraded tier for {features:?}"
            );
        }
    }

    #[test]
    fn bind_time_tail_is_bit_identical_to_the_per_request_path() {
        let (predictor, template) = fixture();
        let m = ServingPredictor::new(predictor, template.clone());
        assert_matches_reference(&m, &template);
    }

    #[test]
    fn a_non_finite_template_trace_fails_every_primary_call() {
        let (predictor, mut template) = fixture();
        template.trace.as_mut_slice()[3] = f64::NAN;
        let m = ServingPredictor::new(predictor, template.clone());
        for features in request_features(template.static_features.len()) {
            assert!(m.predict_primary(&features).is_err(), "{features:?}");
            let (ea, tier) = m.predict_degraded(&features);
            assert!((0.01..=2.0).contains(&ea) && (tier == 1 || tier == 2));
        }
        assert_matches_reference(&m, &template);
    }

    #[test]
    fn trained_model_serves_finite_predictions() {
        let m = trained();
        let ea = m.predict_primary(&[0.5, 0.7, 1.5]).expect("finite row");
        assert!((0.01..=2.0).contains(&ea));
        let (dea, tier) = m.predict_degraded(&[0.5, 0.7, 1.5]);
        assert!((0.01..=2.0).contains(&dea));
        assert!(tier == 1 || tier == 2);
    }

    #[test]
    fn nan_features_error_the_primary_but_not_the_degraded_tier() {
        let m = trained();
        assert!(m.predict_primary(&[f64::NAN, 0.5]).is_err());
        let (dea, _) = m.predict_degraded(&[f64::NAN, 0.5]);
        assert!(dea.is_finite());
    }

    #[test]
    fn serving_loop_runs_on_the_trained_predictor() {
        let m = trained();
        let stream = SyntheticStream {
            seed: 9,
            rate: 40.0,
            deadline_s: 2.0,
            n_features: 3,
        };
        let cfg = ServeConfig::default();
        let r = serve(&cfg, &m, &stca_fault::FaultPlan::none(), &stream, 300).expect("serves");
        assert!(r.accounting.balanced(), "{:?}", r.accounting);
        assert!(r.accounting.completed > 0);
    }
}
