//! Multi-grain scanning: representational learning over the counter matrix.
//!
//! A square window slides over the 29 x T trace (Figure 4). Every window
//! position yields a small feature vector; a random forest trained on those
//! vectors (each labeled with its sample's effective allocation) acts as a
//! convolutional kernel, and the per-position *predictions* become the new
//! representational features handed to the cascade. Multiple window sizes
//! extract detail at different granularities — the paper uses four sizes and
//! shows in Figure 7c that shrinking windows 4x doubles error.

use crate::forest::{Forest, ForestConfig};
use stca_util::{Matrix, SeedStream};
use std::sync::{Arc, OnceLock};

/// Global MGS metrics, resolved once (transform runs per sample).
struct MgsMetrics {
    fits: Arc<stca_obs::Counter>,
    windows_fitted: Arc<stca_obs::Counter>,
    windows_skipped: Arc<stca_obs::Counter>,
    training_positions: Arc<stca_obs::Counter>,
    transforms: Arc<stca_obs::Counter>,
    window_fit_seconds: Arc<stca_obs::Histogram>,
    transform_seconds: Arc<stca_obs::Histogram>,
}

fn mgs_metrics() -> &'static MgsMetrics {
    static METRICS: OnceLock<MgsMetrics> = OnceLock::new();
    METRICS.get_or_init(|| MgsMetrics {
        fits: stca_obs::counter("deepforest.mgs.fits_total"),
        windows_fitted: stca_obs::counter("deepforest.mgs.windows_fitted_total"),
        windows_skipped: stca_obs::counter("deepforest.mgs.windows_skipped_total"),
        training_positions: stca_obs::counter("deepforest.mgs.training_positions_total"),
        transforms: stca_obs::counter("deepforest.mgs.transforms_total"),
        window_fit_seconds: stca_obs::histogram("deepforest.mgs.window_fit_seconds"),
        transform_seconds: stca_obs::histogram("deepforest.mgs.transform_seconds"),
    })
}

/// Multi-grain scanning hyperparameters.
#[derive(Debug, Clone)]
pub struct MgsConfig {
    /// Square window sizes (clamped to the trace dimensions).
    pub window_sizes: Vec<usize>,
    /// Slide stride (1 = paper-exact; larger = cheaper).
    pub stride: usize,
    /// Trees in each window's forest (the paper uses 50).
    pub trees_per_window: usize,
    /// Cap on training instances taken per sample per window (cost control;
    /// positions are subsampled deterministically when they exceed it).
    pub max_positions_per_sample: usize,
    /// Opt-in histogram split finding for the window forests (see
    /// [`TreeConfig::bins`](crate::TreeConfig)). Window design matrices are
    /// the widest in the pipeline (`wr * wc` features), so this is where
    /// binning pays off the most.
    pub bins: Option<usize>,
}

impl Default for MgsConfig {
    fn default() -> Self {
        MgsConfig {
            window_sizes: vec![5, 10, 15],
            stride: 2,
            trees_per_window: 30,
            max_positions_per_sample: 48,
            bins: None,
        }
    }
}

impl MgsConfig {
    /// The paper's exact setting: windows 5/10/15/35 (35 clamps to the
    /// matrix), 50 trees per window.
    pub fn paper() -> Self {
        MgsConfig {
            window_sizes: vec![5, 10, 15, 35],
            stride: 1,
            trees_per_window: 50,
            max_positions_per_sample: usize::MAX,
            bins: None,
        }
    }
}

/// Window positions for a trace of `rows x cols` and a window clamped to
/// `(wr, wc)`: top-left corners stepping by `stride`.
fn positions(rows: usize, cols: usize, wr: usize, wc: usize, stride: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut r = 0;
    while r + wr <= rows {
        let mut c = 0;
        while c + wc <= cols {
            out.push((r, c));
            c += stride;
        }
        r += stride;
    }
    out
}

/// How many positions [`positions`] yields, without materializing them.
fn position_count(rows: usize, cols: usize, wr: usize, wc: usize, stride: usize) -> usize {
    if wr > rows || wc > cols {
        return 0;
    }
    ((rows - wr) / stride + 1) * ((cols - wc) / stride + 1)
}

fn window_vector(trace: &Matrix, r0: usize, c0: usize, wr: usize, wc: usize, buf: &mut Vec<f64>) {
    buf.clear();
    for r in r0..r0 + wr {
        buf.extend_from_slice(&trace.row(r)[c0..c0 + wc]);
    }
}

/// A fitted multi-grain scanner.
#[derive(Debug, Clone)]
pub struct MultiGrainScanner {
    /// (clamped window rows, cols, forest) per configured window size.
    windows: Vec<(usize, usize, Forest)>,
    stride: usize,
    trace_rows: usize,
    trace_cols: usize,
}

impl MultiGrainScanner {
    /// Fit one forest per window size over all samples' traces. Window
    /// sizes train in parallel; each window's position subsampling and
    /// forest draw from their own tagged streams, so the fitted scanner is
    /// identical at any thread count.
    pub fn fit(traces: &[Matrix], y: &[f64], config: &MgsConfig, stream: &SeedStream) -> Self {
        assert_eq!(traces.len(), y.len());
        assert!(!traces.is_empty());
        let rows = traces[0].rows();
        let cols = traces[0].cols();
        assert!(
            traces.iter().all(|t| t.rows() == rows && t.cols() == cols),
            "ragged traces"
        );
        let metrics = mgs_metrics();
        let fitted = stca_exec::par_map_indexed(&config.window_sizes, |wi, &w| {
            let wr = w.min(rows);
            let wc = w.min(cols);
            let pos = positions(rows, cols, wr, wc, config.stride);
            if pos.is_empty() {
                metrics.windows_skipped.inc();
                stca_obs::debug!("mgs window {w}: no positions on a {rows}x{cols} trace, skipped");
                return None;
            }
            let window_timer =
                stca_obs::StageTimer::with_histogram(metrics.window_fit_seconds.clone());
            let mut x = Matrix::zeros(0, 0);
            let mut labels = Vec::new();
            let mut buf = Vec::with_capacity(wr * wc);
            let mut sub_rng = stream.rng(0x3C5 + wi as u64);
            for (ti, trace) in traces.iter().enumerate() {
                let chosen: Vec<(usize, usize)> = if pos.len() > config.max_positions_per_sample {
                    sub_rng
                        .sample_indices(pos.len(), config.max_positions_per_sample)
                        .into_iter()
                        .map(|i| pos[i])
                        .collect()
                } else {
                    pos.clone()
                };
                for (r0, c0) in chosen {
                    window_vector(trace, r0, c0, wr, wc, &mut buf);
                    x.push_row(&buf);
                    labels.push(y[ti]);
                }
            }
            let forest_stream = stream.derive(0xF0123 + wi as u64);
            let forest = Forest::fit(
                &x,
                &labels,
                ForestConfig {
                    max_depth: 24,
                    bins: config.bins,
                    ..ForestConfig::random(config.trees_per_window)
                },
                &forest_stream,
            );
            metrics.windows_fitted.inc();
            metrics.training_positions.add(x.rows() as u64);
            let elapsed = window_timer.stop();
            stca_obs::debug!(
                "mgs window {w} ({wr}x{wc}): forest over {} positions in {elapsed:.3}s",
                x.rows()
            );
            Some((wr, wc, forest))
        });
        let windows: Vec<(usize, usize, Forest)> = fitted.into_iter().flatten().collect();
        metrics.fits.inc();
        MultiGrainScanner {
            windows,
            stride: config.stride,
            trace_rows: rows,
            trace_cols: cols,
        }
    }

    /// Number of representational features produced per sample.
    fn feature_count(&self) -> usize {
        self.windows
            .iter()
            .map(|(wr, wc, _)| {
                position_count(self.trace_rows, self.trace_cols, *wr, *wc, self.stride)
            })
            .sum()
    }

    /// Transform one trace into representational features (per-position
    /// kernel predictions, window sizes concatenated).
    pub fn transform(&self, trace: &Matrix) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.feature_count());
        let mut buf = Vec::new();
        self.transform_extend(trace, &mut out, &mut buf);
        out
    }

    /// Append the representational features for one trace to `out`,
    /// reusing `window_buf` for window gathers — the allocation-free
    /// counterpart of [`MultiGrainScanner::transform`] (`out` is *not*
    /// cleared, so callers can assemble a full feature vector in place).
    /// Positions are enumerated arithmetically; nothing is allocated once
    /// the two buffers have grown to steady-state capacity.
    pub fn transform_extend(&self, trace: &Matrix, out: &mut Vec<f64>, window_buf: &mut Vec<f64>) {
        assert_eq!(
            trace.rows(),
            self.trace_rows,
            "trace shape must match training"
        );
        assert_eq!(trace.cols(), self.trace_cols);
        let metrics = mgs_metrics();
        metrics.transforms.inc();
        let _timer = stca_obs::StageTimer::with_histogram(metrics.transform_seconds.clone());
        for (wr, wc, forest) in &self.windows {
            let mut r0 = 0;
            while r0 + wr <= self.trace_rows {
                let mut c0 = 0;
                while c0 + wc <= self.trace_cols {
                    window_vector(trace, r0, c0, *wr, *wc, window_buf);
                    out.push(forest.predict(window_buf));
                    c0 += self.stride;
                }
                r0 += self.stride;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stca_util::Rng64;

    /// Synthetic traces: class-A traces carry a bright patch in the top-left
    /// corner, class-B ones in the bottom-right. EA differs by class.
    fn patch_traces(n: usize, seed: u64) -> (Vec<Matrix>, Vec<f64>) {
        let mut rng = Rng64::new(seed);
        let mut traces = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let mut t = Matrix::zeros(12, 10);
            for r in 0..12 {
                for c in 0..10 {
                    t[(r, c)] = rng.next_f64() * 0.2;
                }
            }
            let hot = i % 2 == 0;
            let (r0, c0) = if hot { (0, 0) } else { (8, 6) };
            for r in r0..r0 + 4 {
                for c in c0..c0 + 4 {
                    t[(r, c)] += 1.0;
                }
            }
            traces.push(t);
            y.push(if hot { 0.9 } else { 0.3 });
        }
        (traces, y)
    }

    fn small_config() -> MgsConfig {
        MgsConfig {
            window_sizes: vec![4, 8],
            stride: 2,
            trees_per_window: 15,
            max_positions_per_sample: 32,
            ..MgsConfig::default()
        }
    }

    #[test]
    fn positions_cover_grid() {
        let p = positions(12, 10, 4, 4, 2);
        // rows: 0,2,4,6,8 (5); cols: 0,2,4,6 (4) -> 20
        assert_eq!(p.len(), 20);
        assert!(p.contains(&(8, 6)));
        assert!(!p.contains(&(9, 0)));
    }

    #[test]
    fn transform_length_matches_feature_count() {
        let (traces, y) = patch_traces(30, 1);
        let mgs = MultiGrainScanner::fit(&traces, &y, &small_config(), &SeedStream::new(2));
        let f = mgs.transform(&traces[0]);
        assert_eq!(f.len(), mgs.feature_count());
        assert!(f.len() > 10);
    }

    #[test]
    fn kernel_features_separate_classes() {
        let (traces, y) = patch_traces(60, 3);
        let mgs = MultiGrainScanner::fit(&traces, &y, &small_config(), &SeedStream::new(4));
        // mean transformed feature should differ between classes
        let fa = mgs.transform(&traces[0]); // hot (y=0.9)
        let fb = mgs.transform(&traces[1]); // cold (y=0.3)
        let ma: f64 = fa.iter().sum::<f64>() / fa.len() as f64;
        let mb: f64 = fb.iter().sum::<f64>() / fb.len() as f64;
        assert!(
            (ma - mb).abs() > 0.05,
            "window kernels should respond to the patch location: {ma} vs {mb}"
        );
    }

    #[test]
    fn transform_extend_appends_and_matches_transform() {
        let (traces, y) = patch_traces(30, 9);
        let mgs = MultiGrainScanner::fit(&traces, &y, &small_config(), &SeedStream::new(10));
        let expected = mgs.transform(&traces[3]);
        let mut out = vec![7.0, 8.0]; // pre-existing content must survive
        let mut buf = Vec::new();
        mgs.transform_extend(&traces[3], &mut out, &mut buf);
        assert_eq!(&out[..2], &[7.0, 8.0]);
        assert_eq!(out.len(), 2 + expected.len());
        for (a, b) in out[2..].iter().zip(&expected) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn binned_mgs_still_separates_classes() {
        let (traces, y) = patch_traces(60, 11);
        let cfg = MgsConfig {
            bins: Some(32),
            ..small_config()
        };
        let mgs = MultiGrainScanner::fit(&traces, &y, &cfg, &SeedStream::new(12));
        let fa = mgs.transform(&traces[0]);
        let fb = mgs.transform(&traces[1]);
        let ma: f64 = fa.iter().sum::<f64>() / fa.len() as f64;
        let mb: f64 = fb.iter().sum::<f64>() / fb.len() as f64;
        assert!((ma - mb).abs() > 0.05, "{ma} vs {mb}");
    }

    #[test]
    fn oversized_windows_clamp() {
        let (traces, y) = patch_traces(10, 5);
        let cfg = MgsConfig {
            window_sizes: vec![35],
            ..small_config()
        };
        let mgs = MultiGrainScanner::fit(&traces, &y, &cfg, &SeedStream::new(6));
        let shapes: Vec<_> = mgs.windows.iter().map(|&(r, c, _)| (r, c)).collect();
        assert_eq!(shapes, vec![(12, 10)]);
        assert_eq!(mgs.feature_count(), 1, "single clamped full-matrix window");
    }

    #[test]
    #[should_panic(expected = "shape must match")]
    fn mismatched_trace_shape_panics() {
        let (traces, y) = patch_traces(10, 7);
        let mgs = MultiGrainScanner::fit(&traces, &y, &small_config(), &SeedStream::new(8));
        mgs.transform(&Matrix::zeros(5, 5));
    }
}
