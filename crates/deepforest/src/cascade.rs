//! Cascaded forest levels — the deep-learning half of deep forests.
//!
//! Each level is an ensemble of forests (half random, half completely
//! random, for diversity). A level's per-forest predictions are the
//! *concepts* §3.2 describes: they are appended to the feature vector and
//! passed to the next level, so later levels reason over both raw features
//! and earlier abstractions. Concept columns used during training are
//! generated **out-of-fold** (3-fold cross-fitting), the standard gcForest
//! device that keeps a level from simply memorizing its own training
//! predictions.

use crate::forest::{Forest, ForestConfig};
use stca_util::{Fnv1a, Matrix, SeedStream};
use std::sync::{Arc, OnceLock};

/// Global cascade metrics, resolved once (predict runs in hot loops).
struct CascadeMetrics {
    fits: Arc<stca_obs::Counter>,
    levels: Arc<stca_obs::Counter>,
    predicts: Arc<stca_obs::Counter>,
    level_fit_seconds: Arc<stca_obs::Histogram>,
    fit_seconds: Arc<stca_obs::Histogram>,
}

fn cascade_metrics() -> &'static CascadeMetrics {
    static METRICS: OnceLock<CascadeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CascadeMetrics {
        fits: stca_obs::counter("deepforest.cascade.fits_total"),
        levels: stca_obs::counter("deepforest.cascade.levels_fitted_total"),
        predicts: stca_obs::counter("deepforest.cascade.predicts_total"),
        level_fit_seconds: stca_obs::histogram("deepforest.cascade.level_fit_seconds"),
        fit_seconds: stca_obs::histogram("deepforest.cascade.fit_seconds"),
    })
}

/// Cascade hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct CascadeConfig {
    /// Number of cascade levels (the paper uses 4).
    pub levels: usize,
    /// Forests per level (the paper uses 4: 2 random + 2 completely
    /// random). Rounded up to an even number.
    pub forests_per_level: usize,
    /// Trees per forest (the paper's "estimators", 100).
    pub trees_per_forest: usize,
    /// Folds for out-of-fold concept generation.
    pub folds: usize,
    /// Opt-in histogram split finding for the random forests (see
    /// [`TreeConfig::bins`](crate::TreeConfig)); completely-random forests
    /// ignore it.
    pub bins: Option<usize>,
    /// Use the reference split finder (see
    /// [`TreeConfig::reference`](crate::TreeConfig)).
    pub reference: bool,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            levels: 3,
            forests_per_level: 4,
            trees_per_forest: 40,
            folds: 3,
            bins: None,
            reference: false,
        }
    }
}

impl CascadeConfig {
    /// The paper's setting: 4 levels x 4 forests x 100 estimators.
    pub fn paper() -> Self {
        CascadeConfig {
            levels: 4,
            forests_per_level: 4,
            trees_per_forest: 100,
            folds: 3,
            ..Default::default()
        }
    }
}

/// A fitted cascade.
#[derive(Debug, Clone)]
pub struct Cascade {
    levels: Vec<Vec<Forest>>,
    /// Columns of the input the first level reads; level `k` reads them
    /// followed by the concepts of levels `0..k`.
    inputs: usize,
    /// FNV-1a over the training window, hyperparameters, and a seed probe
    /// — see [`fit_fingerprint`]. Lets a warm start recognise a retrain on
    /// an unchanged window and reuse the previous model wholesale.
    fingerprint: u64,
}

/// FNV-1a fingerprint of one fit problem: every `x` and `y` bit, the
/// config knobs that shape the trees, and a probe draw from the seed
/// stream. Two calls share a fingerprint iff a cold [`Cascade::fit`] on
/// them would be bit-identical.
fn fit_fingerprint(x: &Matrix, y: &[f64], config: &CascadeConfig, stream: &SeedStream) -> u64 {
    let mut h = Fnv1a::new();
    h.word(x.rows() as u64);
    h.word(x.cols() as u64);
    for r in 0..x.rows() {
        for v in x.row(r) {
            h.word(v.to_bits());
        }
    }
    for v in y {
        h.word(v.to_bits());
    }
    h.word(config.levels as u64);
    h.word(config.forests_per_level as u64);
    h.word(config.trees_per_forest as u64);
    h.word(config.folds as u64);
    h.word(config.bins.map_or(u64::MAX, |b| b as u64));
    h.word(config.reference as u64);
    // probe the stream on a tag fit() never uses, so two streams that
    // would drive identical fits hash identically and others do not
    h.word(stream.rng(0xF17E_F1FE).next_u64());
    h.finish()
}

fn forest_config(slot: usize, config: &CascadeConfig) -> ForestConfig {
    let base = if slot.is_multiple_of(2) {
        ForestConfig::random(config.trees_per_forest)
    } else {
        ForestConfig::completely_random(config.trees_per_forest)
    };
    ForestConfig {
        bins: config.bins,
        reference: config.reference,
        ..base
    }
}

/// Reusable buffers for allocation-free cascade prediction
/// ([`Cascade::predict_with`]).
#[derive(Debug, Default, Clone)]
pub struct CascadeScratch {
    augmented: Vec<f64>,
    concepts: Vec<f64>,
}

/// One unit of per-level training work: either a fold forest's out-of-fold
/// concept predictions, or the full-data forest kept for inference.
enum LevelFit {
    Concepts(usize, Vec<(usize, f64)>),
    Full(usize, Forest),
    Skipped,
}

impl Cascade {
    /// Fit the cascade on a design matrix. Within a level, every fold
    /// forest and full-data forest trains in parallel; each draws from its
    /// own tagged stream, so the cascade is identical at any thread count.
    pub fn fit(x: &Matrix, y: &[f64], config: CascadeConfig, stream: &SeedStream) -> Self {
        assert_eq!(x.rows(), y.len());
        assert!(x.rows() >= 2, "cascade needs at least two samples");
        let metrics = cascade_metrics();
        let fit_timer = stca_obs::StageTimer::with_histogram(metrics.fit_seconds.clone());
        let n = x.rows();
        let forests_per_level = (config.forests_per_level.max(2) + 1) & !1; // even, >= 2
        let folds = config.folds.clamp(2, n);

        // fold assignment, fixed across levels
        let mut fold_of: Vec<usize> = (0..n).map(|i| i % folds).collect();
        stream.rng(0xF01D).shuffle(&mut fold_of);

        let mut augmented = x.clone();
        let mut levels: Vec<Vec<Forest>> = Vec::with_capacity(config.levels);
        for level in 0..config.levels {
            let level_timer =
                stca_obs::StageTimer::with_histogram(metrics.level_fit_seconds.clone());
            // per slot: `folds` out-of-fold forests plus the full-data one;
            // the last level's concepts feed no further level, so it fits
            // no out-of-fold forests (each forest draws its own tagged
            // stream, so the kept ones do not change)
            let last = level + 1 == config.levels;
            let oof_folds = if last { 0 } else { folds };
            let tasks_per_slot = oof_folds + 1;
            let fits = stca_exec::par_map_range(forests_per_level * tasks_per_slot, |k| {
                let slot = k / tasks_per_slot;
                let sub = k % tasks_per_slot;
                let fc = forest_config(slot, &config);
                if sub < oof_folds {
                    let fold = sub;
                    let train_idx: Vec<usize> = (0..n).filter(|&i| fold_of[i] != fold).collect();
                    let test_idx: Vec<usize> = (0..n).filter(|&i| fold_of[i] == fold).collect();
                    if train_idx.is_empty() || test_idx.is_empty() {
                        return LevelFit::Skipped;
                    }
                    let xs = augmented.select_rows(&train_idx);
                    let ys: Vec<f64> = train_idx.iter().map(|&i| y[i]).collect();
                    let fstream =
                        stream.derive((level as u64) << 24 | (slot as u64) << 8 | fold as u64);
                    let f = Forest::fit(&xs, &ys, fc, &fstream);
                    let preds = test_idx
                        .iter()
                        .map(|&i| (i, f.predict(augmented.row(i))))
                        .collect();
                    LevelFit::Concepts(slot, preds)
                } else {
                    // full-data forest kept for inference
                    let fstream = stream.derive(0xFFFF_0000 | (level as u64) << 8 | slot as u64);
                    LevelFit::Full(slot, Forest::fit(&augmented, y, fc, &fstream))
                }
            });
            let mut level_forests: Vec<Option<Forest>> =
                (0..forests_per_level).map(|_| None).collect();
            let mut concepts = Matrix::zeros(n, forests_per_level);
            for fit in fits {
                match fit {
                    LevelFit::Concepts(slot, preds) => {
                        for (i, p) in preds {
                            concepts[(i, slot)] = p;
                        }
                    }
                    LevelFit::Full(slot, forest) => level_forests[slot] = Some(forest),
                    LevelFit::Skipped => {}
                }
            }
            let level_forests: Vec<Forest> = level_forests
                .into_iter()
                .map(|f| f.expect("one full-data forest per slot"))
                .collect();
            let features = augmented.cols();
            if !last {
                augmented = augmented.hcat(&concepts);
            }
            levels.push(level_forests);
            metrics.levels.inc();
            let level_elapsed = level_timer.stop();
            stca_obs::debug!(
                "cascade level {level}: {forests_per_level} forests over {features} features in {level_elapsed:.3}s"
            );
        }
        metrics.fits.inc();
        let elapsed = fit_timer.stop();
        stca_obs::debug!(
            "cascade fit: {} levels on {n} samples in {elapsed:.3}s",
            levels.len()
        );
        Cascade {
            levels,
            inputs: x.cols(),
            fingerprint: fit_fingerprint(x, y, &config, stream),
        }
    }

    /// This cascade with its input columns `at..at + values.len()` fixed
    /// to `values`: the bound cascade's input leaves those columns out.
    /// Every split on a fixed column is resolved once against `values`,
    /// later columns (the level concepts too) shift down past the block,
    /// and tree order and leaf values are kept. Every comparison a bound
    /// walk makes is one the full walk makes on the same float, and leaves
    /// add up in the same order, so on an input whose fixed columns hold
    /// `values` the bound cascade's output is bit-identical to this one's.
    ///
    /// The bound cascade's fingerprint folds in the binding, so a warm
    /// start never mistakes it for the fit it came from.
    pub fn bind(&self, at: usize, values: &[f64]) -> Cascade {
        assert!(
            at + values.len() <= self.inputs,
            "bound columns {at}..{} lie past the {}-column input",
            at + values.len(),
            self.inputs
        );
        let mut fingerprint = Fnv1a::new();
        fingerprint.word(self.fingerprint);
        fingerprint.word(at as u64);
        for v in values {
            fingerprint.word(v.to_bits());
        }
        Cascade {
            levels: self
                .levels
                .iter()
                .map(|level| level.iter().map(|f| f.bind(at, values)).collect())
                .collect(),
            inputs: self.inputs - values.len(),
            fingerprint: fingerprint.finish(),
        }
    }

    /// Warm-start retrain: fit on `(x, y)` reusing `prev` when the training
    /// problem is unchanged. If the window, hyperparameters, and seed
    /// stream fingerprint-match the fit that produced `prev`, the previous
    /// model is cloned wholesale (a cold fit would reproduce it bit for
    /// bit, so skipping the work cannot change any downstream decision);
    /// otherwise this falls back to a cold [`Cascade::fit`] on the new
    /// window. Either way the result is bit-identical to a cold fit with
    /// the same inputs, at any thread count.
    pub fn fit_warm_start(
        x: &Matrix,
        y: &[f64],
        config: CascadeConfig,
        stream: &SeedStream,
        prev: &Cascade,
    ) -> Self {
        if fit_fingerprint(x, y, &config, stream) == prev.fingerprint {
            cascade_metrics().fits.inc();
            return prev.clone();
        }
        Cascade::fit(x, y, config, stream)
    }

    /// Predict one feature vector. Convenience wrapper over
    /// [`Cascade::predict_with`] using a thread-local scratch, so repeated
    /// calls allocate nothing after the first.
    pub fn predict(&self, features: &[f64]) -> f64 {
        thread_local! {
            // own scratch, NOT shared with callers' PredictScratch: predict
            // may run while a caller-level scratch borrow is live
            static SCRATCH: std::cell::RefCell<CascadeScratch> =
                std::cell::RefCell::new(CascadeScratch::default());
        }
        SCRATCH.with(|s| self.predict_with(features, &mut s.borrow_mut()))
    }

    /// Predict one feature vector using caller-owned scratch buffers — the
    /// allocation-free hot path. Same arithmetic (and bit-identical result)
    /// as [`Cascade::predict`]: concepts accumulate per level in slot order
    /// and the prediction is the mean of the last level's concepts.
    pub fn predict_with(&self, features: &[f64], scratch: &mut CascadeScratch) -> f64 {
        cascade_metrics().predicts.inc();
        let augmented = &mut scratch.augmented;
        let concepts = &mut scratch.concepts;
        augmented.clear();
        augmented.extend_from_slice(features);
        let mut last_mean = None;
        for level in &self.levels {
            concepts.clear();
            for f in level {
                concepts.push(f.predict(augmented));
            }
            last_mean = Some(concepts.iter().sum::<f64>() / concepts.len() as f64);
            augmented.extend_from_slice(concepts);
        }
        last_mean.expect("cascade has at least one level")
    }

    /// Per-level concept vectors for one input — the learned abstractions
    /// the paper clusters to gain system insight (§5.2).
    fn concept_trajectory(&self, features: &[f64]) -> Vec<Vec<f64>> {
        let mut augmented: Vec<f64> = features.to_vec();
        let mut out = Vec::with_capacity(self.levels.len());
        for level in &self.levels {
            let concepts: Vec<f64> = level.iter().map(|f| f.predict(&augmented)).collect();
            augmented.extend_from_slice(&concepts);
            out.push(concepts);
        }
        out
    }

    /// All concepts flattened (one vector per input).
    pub fn concept_vector(&self, features: &[f64]) -> Vec<f64> {
        self.concept_trajectory(features).concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stca_util::Rng64;

    /// XOR-ish target that defeats single shallow trees but not a cascade.
    fn xor_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = Rng64::new(seed);
        let mut x = Matrix::zeros(0, 0);
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rng.next_f64();
            let b = rng.next_f64();
            let noise: Vec<f64> = (0..4).map(|_| rng.next_f64()).collect();
            let mut row = vec![a, b];
            row.extend(noise);
            x.push_row(&row);
            y.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
        }
        (x, y)
    }

    fn small() -> CascadeConfig {
        CascadeConfig {
            levels: 2,
            forests_per_level: 4,
            trees_per_forest: 15,
            folds: 3,
            ..Default::default()
        }
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data(300, 1);
        let c = Cascade::fit(&x, &y, small(), &SeedStream::new(2));
        assert!(c.predict(&[0.9, 0.1, 0.5, 0.5, 0.5, 0.5]) > 0.6);
        assert!(c.predict(&[0.9, 0.9, 0.5, 0.5, 0.5, 0.5]) < 0.4);
        assert!(c.predict(&[0.1, 0.9, 0.5, 0.5, 0.5, 0.5]) > 0.6);
        assert!(c.predict(&[0.1, 0.1, 0.5, 0.5, 0.5, 0.5]) < 0.4);
    }

    #[test]
    fn concept_vector_shape() {
        let (x, y) = xor_data(60, 3);
        let c = Cascade::fit(&x, &y, small(), &SeedStream::new(4));
        let concepts = c.concept_vector(x.row(0));
        assert_eq!(concepts.len(), 2 * 4, "levels x forests concepts");
        let traj = c.concept_trajectory(x.row(0));
        assert_eq!(traj.len(), 2);
        assert_eq!(traj[0].len(), 4);
    }

    #[test]
    fn forests_per_level_rounds_to_even() {
        let (x, y) = xor_data(40, 5);
        let cfg = CascadeConfig {
            forests_per_level: 3,
            ..small()
        };
        let c = Cascade::fit(&x, &y, cfg, &SeedStream::new(6));
        assert_eq!(c.concept_trajectory(x.row(0))[0].len(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_data(80, 7);
        let c1 = Cascade::fit(&x, &y, small(), &SeedStream::new(8));
        let c2 = Cascade::fit(&x, &y, small(), &SeedStream::new(8));
        assert_eq!(c1.predict(x.row(3)), c2.predict(x.row(3)));
    }

    #[test]
    fn exact_cascade_is_bit_identical_to_reference() {
        let (x, y) = xor_data(90, 10);
        let fast = Cascade::fit(&x, &y, small(), &SeedStream::new(11));
        let reference = Cascade::fit(
            &x,
            &y,
            CascadeConfig {
                reference: true,
                ..small()
            },
            &SeedStream::new(11),
        );
        for r in 0..x.rows() {
            assert_eq!(
                fast.predict(x.row(r)).to_bits(),
                reference.predict(x.row(r)).to_bits()
            );
        }
    }

    #[test]
    fn predict_with_matches_predict() {
        let (x, y) = xor_data(80, 12);
        let c = Cascade::fit(&x, &y, small(), &SeedStream::new(13));
        let mut scratch = CascadeScratch::default();
        for r in 0..x.rows() {
            assert_eq!(
                c.predict(x.row(r)).to_bits(),
                c.predict_with(x.row(r), &mut scratch).to_bits()
            );
        }
    }

    /// Bit-level equality probe: same fingerprint and bit-identical
    /// predictions across a spread of rows.
    fn assert_same_model(a: &Cascade, b: &Cascade, x: &Matrix, what: &str) {
        assert_eq!(a.fingerprint, b.fingerprint, "{what}");
        for r in 0..x.rows() {
            assert_eq!(
                a.predict(x.row(r)).to_bits(),
                b.predict(x.row(r)).to_bits(),
                "{what}: row {r}"
            );
        }
    }

    #[test]
    fn warm_start_on_identical_window_is_bit_identical_to_cold_fit() {
        let (x, y) = xor_data(90, 21);
        let cold = Cascade::fit(&x, &y, small(), &SeedStream::new(22));
        // same window, same seed: warm start must equal the cold fit bit
        // for bit, whether the retrain runs on 1 worker or 8
        let saved = stca_exec::threads();
        for threads in [1usize, 8] {
            stca_exec::set_threads(threads);
            let warm = Cascade::fit_warm_start(&x, &y, small(), &SeedStream::new(22), &cold);
            assert_same_model(&cold, &warm, &x, &format!("warm start @ {threads} threads"));
        }
        stca_exec::set_threads(saved);
    }

    #[test]
    fn warm_start_on_changed_window_equals_cold_fit_on_that_window() {
        let (x0, y0) = xor_data(80, 23);
        let prev = Cascade::fit(&x0, &y0, small(), &SeedStream::new(24));
        // a different window must NOT reuse prev: the result is exactly a
        // cold fit on the new window
        let (x1, y1) = xor_data(100, 25);
        let warm = Cascade::fit_warm_start(&x1, &y1, small(), &SeedStream::new(24), &prev);
        let cold = Cascade::fit(&x1, &y1, small(), &SeedStream::new(24));
        assert_same_model(&cold, &warm, &x1, "changed-window warm start");
        assert_ne!(
            prev.fingerprint, warm.fingerprint,
            "changed window must change the fingerprint"
        );
        // same window under a different seed also falls back to a cold fit
        let reseeded = Cascade::fit_warm_start(&x0, &y0, small(), &SeedStream::new(26), &prev);
        let cold_reseeded = Cascade::fit(&x0, &y0, small(), &SeedStream::new(26));
        assert_same_model(&cold_reseeded, &reseeded, &x0, "reseeded warm start");
    }

    /// The cascade shapes the predictor configurations use: quick,
    /// standard and simple_ml (one level).
    fn served_shapes() -> [(&'static str, CascadeConfig); 3] {
        let shape = |levels, forests_per_level, trees_per_forest| CascadeConfig {
            levels,
            forests_per_level,
            trees_per_forest,
            folds: 3,
            ..Default::default()
        };
        [
            ("quick", shape(2, 2, 12)),
            ("standard", shape(3, 4, 40)),
            ("simple_ml", shape(1, 2, 40)),
        ]
    }

    /// Constants for one fixed block, each column's drawn in turn from the
    /// thresholds its splits test (the `<=` tie), from signed zeros,
    /// infinities and NaN, and from uniform draws.
    fn block_constants(c: &Cascade, at: usize, len: usize, rng: &mut Rng64) -> Vec<Vec<f64>> {
        let mut thresholds: Vec<Vec<f64>> = vec![Vec::new(); len];
        for forest in c.levels.iter().flatten() {
            for (f, t) in forest.nodes().splits() {
                if (at..at + len).contains(&f) {
                    thresholds[f - at].push(t);
                }
            }
        }
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut pick = |col: &[f64], k: usize| match k % 3 {
            0 if !col.is_empty() => col[rng.next_index(col.len())],
            1 => specials[rng.next_index(specials.len())],
            _ => rng.next_f64(),
        };
        (0..24)
            .map(|k| (0..len).map(|j| pick(&thresholds[j], k + j)).collect())
            .collect()
    }

    #[test]
    fn bound_cascade_is_bit_identical_to_the_full_walk() {
        const WIDTH: usize = 8;
        let mut rng = Rng64::new(0xB1D);
        let mut x = Matrix::zeros(0, 0);
        let mut y = Vec::new();
        for _ in 0..90 {
            let row: Vec<f64> = (0..WIDTH).map(|_| rng.next_f64()).collect();
            y.push(row[0] - 2.0 * row[3] + row[6] * row[7]);
            x.push_row(&row);
        }
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        for (name, config) in served_shapes() {
            let c = Cascade::fit(&x, &y, config, &SeedStream::new(0xB1D));
            // a block at the start, in the middle and at the end
            for (at, len) in [(0, 3), (3, 2), (5, 3)] {
                for values in block_constants(&c, at, len, &mut rng) {
                    let bound = c.bind(at, &values);
                    let free = WIDTH - len;
                    assert_eq!(bound.inputs, free);
                    for (level, (full, bound)) in c.levels.iter().zip(&bound.levels).enumerate() {
                        let width = free + level * full.len();
                        for (f, b) in full.iter().zip(bound) {
                            assert!(b.nodes().count() <= f.nodes().count(), "{name}");
                            for (col, _) in b.nodes().splits() {
                                assert!(col < width, "{name}: split on column {col} of {width}");
                            }
                        }
                    }
                    for r in 0..40 {
                        // free columns from the training rows, then fresh
                        // draws carrying NaN and infinities
                        let mut input: Vec<f64> = if r < 20 {
                            x.row(r).to_vec()
                        } else {
                            (0..WIDTH)
                                .map(|_| match rng.next_index(4) {
                                    0 => specials[rng.next_index(specials.len())],
                                    _ => rng.next_f64() * 1.4 - 0.2,
                                })
                                .collect()
                        };
                        input[at..at + len].copy_from_slice(&values);
                        let rest: Vec<f64> = [&input[..at], &input[at + len..]].concat();
                        assert_eq!(
                            c.predict(&input).to_bits(),
                            bound.predict(&rest).to_bits(),
                            "{name}: block {at}..{} = {values:?}, row {input:?}",
                            at + len
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_dataset_does_not_panic() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let y = vec![0.0, 0.5, 1.0];
        let c = Cascade::fit(&x, &y, small(), &SeedStream::new(9));
        let p = c.predict(&[1.0]);
        assert!((0.0..=1.0).contains(&p));
    }
}
