//! Histogram-binned features for approximate split finding.
//!
//! The LightGBM-style device: quantize every feature into at most 256
//! quantile buckets **once per forest**, then find splits by scanning
//! cumulative bucket statistics instead of sorted sample values — O(n + B)
//! per feature per node with no per-node sorting and no per-node column
//! partitioning. The split is approximate (thresholds land on bucket
//! boundaries), which is why the mode is opt-in via
//! [`TreeConfig::bins`](crate::TreeConfig) and guarded by an
//! accuracy-tolerance test rather than the bit-identity golden test that
//! protects the exact engine.

use stca_util::Matrix;

/// Maximum number of buckets a feature may be quantized into; codes are
/// stored as `u8`.
pub const MAX_BINS: usize = 256;

/// A feature matrix quantized to `u8` bucket codes plus the real-valued
/// bucket boundaries, shared by every tree of a forest.
#[derive(Debug, Clone)]
pub struct BinnedMatrix {
    rows: usize,
    cols: usize,
    /// Row-major bucket codes, aligned with the source matrix.
    codes: Vec<u8>,
    /// Per feature: ascending candidate thresholds between buckets
    /// (`boundaries[f].len() + 1` buckets; empty = constant feature).
    boundaries: Vec<Vec<f64>>,
}

/// Bucket code of `v` for a boundary list: the number of boundaries
/// strictly below `v`. This makes `code(v) <= b` equivalent to
/// `v <= boundaries[b]`, so a tree trained on codes predicts correctly on
/// raw values with `threshold = boundaries[b]`.
#[inline]
fn code_of(boundaries: &[f64], v: f64) -> u8 {
    boundaries.partition_point(|&e| e < v) as u8
}

impl BinnedMatrix {
    /// Quantize `x` into at most `bins` quantile buckets per feature
    /// (`bins` is clamped to `[2, 256]`). Features with at most `bins`
    /// distinct values are binned **losslessly** (an edge between every
    /// consecutive pair); wider features get weighted-quantile edges over
    /// the distinct-value distribution, so ties can never swallow a value
    /// boundary the way raw positional cuts would. O(F·n log n), once per
    /// forest.
    pub fn new(x: &Matrix, bins: usize) -> Self {
        let bins = bins.clamp(2, MAX_BINS);
        let (rows, cols) = (x.rows(), x.cols());
        let mut codes = vec![0u8; rows * cols];
        let mut boundaries = Vec::with_capacity(cols);
        let mut sorted = Vec::with_capacity(rows);
        let mut distinct: Vec<(f64, usize)> = Vec::new();
        for f in 0..cols {
            x.col_into(f, &mut sorted);
            sorted.sort_by(f64::total_cmp);
            // run-length encode the sorted column (NaNs compare unequal to
            // themselves and sort to an end; the `hi > lo` guards below keep
            // them out of the edge list)
            distinct.clear();
            for &v in &sorted {
                match distinct.last_mut() {
                    Some((last, count)) if *last == v => *count += 1,
                    _ => distinct.push((v, 1)),
                }
            }
            let mut edges: Vec<f64> = Vec::new();
            if distinct.len() <= bins {
                for w in distinct.windows(2) {
                    let (lo, hi) = (w[0].0, w[1].0);
                    if hi > lo {
                        edges.push(0.5 * (lo + hi));
                    }
                }
            } else {
                // place an edge at a value boundary whenever cumulative
                // count crosses the next 1/bins quantile
                let mut acc = 0usize;
                let mut next = 1usize;
                for w in distinct.windows(2) {
                    acc += w[0].1;
                    if acc * bins >= next * rows {
                        let (lo, hi) = (w[0].0, w[1].0);
                        if hi > lo {
                            edges.push(0.5 * (lo + hi));
                        }
                        while acc * bins >= next * rows {
                            next += 1;
                        }
                    }
                }
            }
            debug_assert!(edges.len() < MAX_BINS, "codes must fit u8");
            for r in 0..rows {
                codes[r * cols + f] = code_of(&edges, x[(r, f)]);
            }
            boundaries.push(edges);
        }
        BinnedMatrix {
            rows,
            cols,
            codes,
            boundaries,
        }
    }

    /// Rows of the source matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Features of the source matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bucket code of sample `r`, feature `f`.
    #[inline]
    pub fn code(&self, r: usize, f: usize) -> u8 {
        self.codes[r * self.cols + f]
    }

    /// Candidate thresholds for feature `f` (ascending; empty when the
    /// feature is constant or near-constant).
    #[inline]
    pub fn thresholds(&self, f: usize) -> &[f64] {
        &self.boundaries[f]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_consistent_with_thresholds() {
        // the invariant the tree relies on: code(v) <= b  <=>  v <= edge[b]
        let x = Matrix::from_rows((0..64).map(|i| vec![i as f64]).collect::<Vec<_>>().as_ref());
        let b = BinnedMatrix::new(&x, 8);
        let edges = b.thresholds(0);
        assert!(!edges.is_empty() && edges.len() <= 7);
        for r in 0..64 {
            let v = x[(r, 0)];
            let c = b.code(r, 0) as usize;
            for (bi, &e) in edges.iter().enumerate() {
                assert_eq!(c <= bi, v <= e, "row {r} bucket {bi}");
            }
        }
    }

    #[test]
    fn constant_feature_has_no_thresholds() {
        let x = Matrix::from_rows(&[vec![5.0], vec![5.0], vec![5.0]]);
        let b = BinnedMatrix::new(&x, 16);
        assert!(b.thresholds(0).is_empty());
        assert!((0..3).all(|r| b.code(r, 0) == 0));
    }

    #[test]
    fn bins_clamped_and_bounded() {
        let x = Matrix::from_rows(
            (0..1000)
                .map(|i| vec![i as f64])
                .collect::<Vec<_>>()
                .as_ref(),
        );
        let b = BinnedMatrix::new(&x, 100_000);
        assert!(b.thresholds(0).len() < MAX_BINS);
        let max_code = (0..1000).map(|r| b.code(r, 0)).max().unwrap() as usize;
        assert_eq!(max_code, b.thresholds(0).len());
    }

    #[test]
    fn nan_values_code_to_zero_without_panic() {
        let x = Matrix::from_rows(&[vec![f64::NAN], vec![1.0], vec![2.0], vec![3.0]]);
        let b = BinnedMatrix::new(&x, 4);
        assert_eq!(b.code(0, 0), 0);
    }
}
