//! CART regression trees, in the two flavours deep forests mix.
//!
//! *Random-forest* trees examine a random √f subset of features at each node
//! and take the best variance-reducing split. *Completely-random* trees pick
//! one random feature and a random threshold between that feature's min and
//! max at the node, splitting until leaves are pure (or a sample floor is
//! hit) — the diversity source §4.1 describes.
//!
//! ## Split-finding engines
//!
//! Best-split trees choose among three engines:
//!
//! * **Presorted exact**: every feature column is sorted once per tree
//!   ([`SortedColumns`]) and the per-node
//!   views are maintained by stable in-place partitioning — the
//!   CART/XGBoost-exact device. Produces **bit-identical** trees to the
//!   reference engine (the ordering argument lives in [`crate::presort`]),
//!   while removing the per-node re-sort entirely. Selected automatically
//!   whenever its cost model wins (see `presort_pays_off`): always for
//!   [`SplitStrategy::BestOfAll`], and for [`SplitStrategy::BestOfSqrt`]
//!   when the matrix is narrow or deep enough that maintaining every
//!   column beats re-sorting the √f sampled ones.
//! * **Histogram** (opt-in via [`TreeConfig::bins`]): features are
//!   quantized to at most 256 quantile buckets
//!   ([`BinnedMatrix`]) and splits scan
//!   cumulative bucket statistics — approximate but O(n + bins) per feature
//!   per node, the LightGBM device for the large MGS window forests.
//! * **Reference** ([`TreeConfig::reference`]): the original implementation
//!   that re-collects and re-sorts `(feature, target)` pairs at every node.
//!   Kept as the golden baseline for bit-identity tests and for the
//!   before/after training pairs of `cargo bench -p stca-bench`.
//!
//! All engines share one sample-index array partitioned in place as the
//! tree grows; no per-node index vectors are allocated.

use crate::binned::BinnedMatrix;
use crate::presort::SortedColumns;
use stca_util::{stable_partition_in_place, Matrix, Rng64};

/// How a tree chooses its splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Try `ceil(sqrt(f))` random features, take the best SSE-reducing
    /// threshold among them.
    BestOfSqrt,
    /// Try every feature (classic CART; used by small baselines).
    BestOfAll,
    /// One random feature, one uniform-random threshold (completely-random
    /// trees).
    CompletelyRandom,
}

/// Tree growth limits and split-finding engine selection.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Split strategy.
    pub strategy: SplitStrategy,
    /// Minimum samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Maximum depth (u32::MAX = grow to purity).
    pub max_depth: u32,
    /// Opt-in histogram split finding: quantize every feature into at most
    /// this many quantile buckets (clamped to `[2, 256]`) and scan bucket
    /// statistics instead of sorted samples. Approximate — thresholds land
    /// on bucket boundaries — but much faster on wide feature matrices.
    /// `None` (the default) keeps the exact presorted engine. Ignored by
    /// completely-random trees, which never scan thresholds.
    pub bins: Option<usize>,
    /// Use the unoptimized reference split finder (per-node re-sorting, as
    /// the original implementation did). Exists so golden tests can assert
    /// the presorted engine is bit-identical and so training benchmarks can
    /// report before/after timings; takes precedence over [`bins`].
    ///
    /// [`bins`]: TreeConfig::bins
    pub reference: bool,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            strategy: SplitStrategy::BestOfSqrt,
            min_samples_leaf: 2,
            max_depth: 32,
            bins: None,
            reference: false,
        }
    }
}

/// Structure-of-arrays node storage, one array per field, indexed by node
/// id. A split at `i` sends `x` to `child[i][0]` when
/// `x[feature[i]] <= threshold[i]` and to `child[i][1]` otherwise, so NaN
/// goes right. A leaf's two children are the leaf itself: a walk that
/// steps past its leaf stays there, and no step tests for "is a leaf".
#[derive(Debug, Clone, Default)]
pub(crate) struct Nodes {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    child: Vec<[u32; 2]>,
    value: Vec<f64>,
}

impl Nodes {
    /// Append a leaf of value 0; returns its id.
    fn push_leaf(&mut self) -> u32 {
        let id = self.value.len() as u32;
        self.feature.push(0);
        self.threshold.push(0.0);
        self.child.push([id, id]);
        self.value.push(0.0);
        id
    }

    /// Turn node `id` into a split.
    fn set_split(&mut self, id: u32, feature: usize, threshold: f64, left: u32, right: u32) {
        let i = id as usize;
        self.feature[i] = feature as u32;
        self.threshold[i] = threshold;
        self.child[i] = [left, right];
    }

    /// Append every node of `other`, shifting its child ids past the
    /// nodes already here; returns that shift (`other`'s root, moved).
    pub(crate) fn append(&mut self, other: &Nodes) -> u32 {
        let offset = self.value.len() as u32;
        self.feature.extend_from_slice(&other.feature);
        self.threshold.extend_from_slice(&other.threshold);
        self.child
            .extend(other.child.iter().map(|&[l, r]| [l + offset, r + offset]));
        self.value.extend_from_slice(&other.value);
        offset
    }

    /// Append the tree rooted at `root` in `src` with its input columns
    /// `at..at + values.len()` fixed to `values`: a split on one of them
    /// is resolved by the comparison a walk would make, and a later column
    /// shifts down past the block. The kept nodes stay in pre-order (root
    /// first) with their thresholds and leaf values. Returns the new root
    /// and the bound tree's depth.
    pub(crate) fn append_bound(
        &mut self,
        src: &Nodes,
        root: u32,
        at: usize,
        values: &[f64],
    ) -> (u32, u32) {
        let fixed = at..at + values.len();
        let mut i = root as usize;
        let [left, right] = loop {
            let [l, r] = src.child[i];
            let f = src.feature[i] as usize;
            if l as usize == i || !fixed.contains(&f) {
                break [l, r];
            }
            i = if values[f - at] <= src.threshold[i] {
                l
            } else {
                r
            } as usize;
        };
        let id = self.push_leaf();
        if left as usize == i {
            self.value[id as usize] = src.value[i];
            return (id, 0);
        }
        let (left, left_depth) = self.append_bound(src, left, at, values);
        let (right, right_depth) = self.append_bound(src, right, at, values);
        let f = src.feature[i] as usize;
        let f = if f < at { f } else { f - values.len() };
        self.set_split(id, f, src.threshold[i], left, right);
        (id, 1 + left_depth.max(right_depth))
    }

    /// Walk every node id in `at` `steps` levels down, in lockstep: one
    /// step of each walk per round, so the walks' dependent loads overlap.
    #[inline(always)]
    pub(crate) fn walk(&self, at: &mut [u32], steps: u32, x: &[f64]) {
        // equal-length views let the compiler share one bounds check
        let n = self.value.len();
        let (feature, threshold, child) =
            (&self.feature[..n], &self.threshold[..n], &self.child[..n]);
        for _ in 0..steps {
            for a in at.iter_mut() {
                let i = *a as usize;
                let go_left = x[feature[i] as usize] <= threshold[i];
                *a = child[i][usize::from(!go_left)];
            }
        }
    }

    /// Number of nodes.
    #[cfg(test)]
    pub(crate) fn count(&self) -> usize {
        self.value.len()
    }

    /// Every split's column and threshold, in node order.
    #[cfg(test)]
    pub(crate) fn splits(&self) -> Vec<(usize, f64)> {
        (0..self.value.len())
            .filter(|&i| self.child[i][0] as usize != i)
            .map(|i| (self.feature[i] as usize, self.threshold[i]))
            .collect()
    }

    /// Value of node `i` (meaningful at leaves).
    #[inline(always)]
    pub(crate) fn value(&self, i: u32) -> f64 {
        self.value[i as usize]
    }
}

/// A fitted regression tree: its nodes (root first) and its depth, the
/// number of steps from the root to its deepest leaf.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Nodes,
    depth: u32,
}

/// The split-finding machinery a builder carries. Only best-split
/// strategies consult it; completely-random trees sample thresholds from
/// per-node min/max and need no column structure.
enum Engine<'a> {
    /// Per-node collect + sort (the seed implementation, golden baseline).
    Reference,
    /// Presorted columns, partitioned in place at each split (exact).
    Presorted(SortedColumns),
    /// Quantized bucket scan (approximate).
    Binned(&'a BinnedMatrix),
}

/// Which engine to dispatch to (copyable tag, so dispatch does not hold a
/// borrow of the engine across `&mut self` calls).
#[derive(Clone, Copy, PartialEq, Eq)]
enum EngineKind {
    Reference,
    Presorted,
    Binned,
}

/// Cost model: does maintaining presorted columns beat per-node re-sorting?
///
/// Presorting partitions **every** column at every split — O(F·n) per tree
/// level — while the reference engine sorts only the `k` features a node
/// actually tries — O(k·n·log n) per level. Presort therefore wins exactly
/// when `k·log2(n)` comfortably exceeds `F`: always for [`BestOfAll`]
/// (`k = F`), but for [`BestOfSqrt`] only on narrow or deep data (wide
/// matrices consult too few of the columns being maintained). Both engines
/// produce bit-identical trees, so this is purely a cost decision; the
/// constant is calibrated with the training pairs of
/// `cargo bench -p stca-bench`.
///
/// [`BestOfAll`]: SplitStrategy::BestOfAll
/// [`BestOfSqrt`]: SplitStrategy::BestOfSqrt
fn presort_pays_off(strategy: SplitStrategy, features: usize, n: usize) -> bool {
    match strategy {
        SplitStrategy::BestOfAll => true,
        SplitStrategy::CompletelyRandom => false,
        SplitStrategy::BestOfSqrt => {
            let k = (features as f64).sqrt().ceil() as u64;
            let log_n = (usize::BITS - n.max(2).leading_zeros()) as u64;
            k * log_n >= 3 * features as u64
        }
    }
}

/// Reusable per-bucket accumulators for the histogram engine.
struct HistScratch {
    count: Vec<u32>,
    sum: Vec<f64>,
    sumsq: Vec<f64>,
}

impl HistScratch {
    fn new(buckets: usize) -> Self {
        HistScratch {
            count: vec![0; buckets],
            sum: vec![0.0; buckets],
            sumsq: vec![0.0; buckets],
        }
    }
}

struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    config: TreeConfig,
    nodes: Nodes,
    /// Depth of the deepest leaf so far.
    depth: u32,
    rng: Rng64,
    /// The tree's sample rows (bootstrap order at the root). Every node
    /// owns a contiguous range; splits partition it stably in place.
    order: Vec<u32>,
    /// Spill buffer for the stable partition.
    scratch: Vec<u32>,
    engine: Engine<'a>,
    /// Per-row go-left marks (presorted engine only; indexed by row id).
    marks: Vec<u8>,
    /// Bucket accumulators (histogram engine only).
    hist: HistScratch,
}

impl<'a> Builder<'a> {
    fn leaf_value(&self, lo: usize, hi: usize) -> f64 {
        let sum: f64 = self.order[lo..hi].iter().map(|&i| self.y[i as usize]).sum();
        sum / (hi - lo) as f64
    }

    fn is_pure(&self, lo: usize, hi: usize) -> bool {
        let first = self.y[self.order[lo] as usize];
        self.order[lo..hi]
            .iter()
            .all(|&i| (self.y[i as usize] - first).abs() < 1e-12)
    }

    /// Best (threshold, sse) for one feature, reference engine: collect the
    /// node's `(feature, target)` pairs and sort them — O(n log n) per
    /// feature per node. Total order comparison: a stray NaN feature value
    /// (e.g. injected by a fault plan that bypasses sanitization) sorts
    /// deterministically to the end instead of panicking mid-training.
    fn best_threshold_reference(
        &mut self,
        feature: usize,
        lo: usize,
        hi: usize,
    ) -> Option<(f64, f64)> {
        let mut pairs: Vec<(f64, f64)> = self.order[lo..hi]
            .iter()
            .map(|&i| (self.x[(i as usize, feature)], self.y[i as usize]))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        if pairs[0].0 == pairs[pairs.len() - 1].0 {
            return None;
        }
        let n = pairs.len();
        let total_sum: f64 = pairs.iter().map(|p| p.1).sum();
        let total_sq: f64 = pairs.iter().map(|p| p.1 * p.1).sum();
        let min_leaf = self.config.min_samples_leaf;
        let mut best: Option<(f64, f64)> = None;
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for i in 0..n - 1 {
            left_sum += pairs[i].1;
            left_sq += pairs[i].1 * pairs[i].1;
            // can't split between equal feature values
            if pairs[i].0 == pairs[i + 1].0 {
                continue;
            }
            let nl = i + 1;
            let nr = n - nl;
            if nl < min_leaf || nr < min_leaf {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse = (left_sq - left_sum * left_sum / nl as f64)
                + (right_sq - right_sum * right_sum / nr as f64);
            let threshold = 0.5 * (pairs[i].0 + pairs[i + 1].0);
            match best {
                Some((_, b)) if b <= sse => {}
                _ => best = Some((threshold, sse)),
            }
        }
        best
    }

    /// Best (threshold, sse) for one feature, presorted engine: the node's
    /// column view is already sorted, so this is a single sequential scan —
    /// the same prefix-sum arithmetic as the reference engine over the same
    /// value sequence, hence bit-identical results.
    fn best_threshold_presorted(
        &mut self,
        feature: usize,
        lo: usize,
        hi: usize,
    ) -> Option<(f64, f64)> {
        let Engine::Presorted(columns) = &self.engine else {
            unreachable!("presorted dispatch without presorted engine");
        };
        let (ids, vals) = columns.col(feature, lo, hi);
        let n = ids.len();
        if vals[0] == vals[n - 1] {
            return None;
        }
        let total_sum: f64 = ids.iter().map(|&i| self.y[i as usize]).sum();
        let total_sq: f64 = ids
            .iter()
            .map(|&i| {
                let v = self.y[i as usize];
                v * v
            })
            .sum();
        let min_leaf = self.config.min_samples_leaf;
        let mut best: Option<(f64, f64)> = None;
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for i in 0..n - 1 {
            let yi = self.y[ids[i] as usize];
            left_sum += yi;
            left_sq += yi * yi;
            if vals[i] == vals[i + 1] {
                continue;
            }
            let nl = i + 1;
            let nr = n - nl;
            if nl < min_leaf || nr < min_leaf {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse = (left_sq - left_sum * left_sum / nl as f64)
                + (right_sq - right_sum * right_sum / nr as f64);
            let threshold = 0.5 * (vals[i] + vals[i + 1]);
            match best {
                Some((_, b)) if b <= sse => {}
                _ => best = Some((threshold, sse)),
            }
        }
        best
    }

    /// Best (threshold, sse) for one feature, histogram engine: accumulate
    /// per-bucket target statistics over the node's samples and scan bucket
    /// boundaries cumulatively. Thresholds are bucket edges, so the split
    /// is approximate; candidate count is bounded by `bins`.
    fn best_threshold_binned(
        &mut self,
        feature: usize,
        lo: usize,
        hi: usize,
    ) -> Option<(f64, f64)> {
        let Engine::Binned(binned) = &self.engine else {
            unreachable!("binned dispatch without binned engine");
        };
        let edges = binned.thresholds(feature);
        if edges.is_empty() {
            return None;
        }
        let buckets = edges.len() + 1;
        let hist = &mut self.hist;
        hist.count[..buckets].fill(0);
        hist.sum[..buckets].fill(0.0);
        hist.sumsq[..buckets].fill(0.0);
        for &i in &self.order[lo..hi] {
            let c = binned.code(i as usize, feature) as usize;
            let yi = self.y[i as usize];
            hist.count[c] += 1;
            hist.sum[c] += yi;
            hist.sumsq[c] += yi * yi;
        }
        let n = hi - lo;
        let total_sum: f64 = hist.sum[..buckets].iter().sum();
        let total_sq: f64 = hist.sumsq[..buckets].iter().sum();
        let min_leaf = self.config.min_samples_leaf.max(1);
        let mut best: Option<(f64, f64)> = None;
        let mut left_n = 0usize;
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for (b, &threshold) in edges.iter().enumerate() {
            left_n += hist.count[b] as usize;
            left_sum += hist.sum[b];
            left_sq += hist.sumsq[b];
            let right_n = n - left_n;
            if left_n < min_leaf || right_n < min_leaf {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse = (left_sq - left_sum * left_sum / left_n as f64)
                + (right_sq - right_sum * right_sum / right_n as f64);
            match best {
                Some((_, b)) if b <= sse => {}
                _ => best = Some((threshold, sse)),
            }
        }
        best
    }

    /// Best (feature, threshold) across the strategy's candidate features.
    fn best_split(&mut self, lo: usize, hi: usize) -> Option<(usize, f64)> {
        let f = self.x.cols();
        let sampled: Option<Vec<usize>> = if self.config.strategy == SplitStrategy::BestOfAll {
            None
        } else {
            let k = (f as f64).sqrt().ceil() as usize;
            Some(self.rng.sample_indices(f, k.clamp(1, f)))
        };
        let kind = match self.engine {
            Engine::Reference => EngineKind::Reference,
            Engine::Presorted(_) => EngineKind::Presorted,
            Engine::Binned(_) => EngineKind::Binned,
        };
        let tried = sampled.as_ref().map_or(f, |s| s.len());
        let mut best: Option<(usize, f64, f64)> = None;
        for t in 0..tried {
            let feat = sampled.as_ref().map_or(t, |s| s[t]);
            let cand = match kind {
                EngineKind::Reference => self.best_threshold_reference(feat, lo, hi),
                EngineKind::Presorted => self.best_threshold_presorted(feat, lo, hi),
                EngineKind::Binned => self.best_threshold_binned(feat, lo, hi),
            };
            if let Some((threshold, sse)) = cand {
                match best {
                    Some((_, _, b)) if b <= sse => {}
                    _ => best = Some((feat, threshold, sse)),
                }
            }
        }
        best.map(|(feat, t, _)| (feat, t))
    }

    fn completely_random_split(&mut self, lo: usize, hi: usize) -> Option<(usize, f64)> {
        let f = self.x.cols();
        // try a handful of random features before giving up on constants
        for _ in 0..8 {
            let feature = self.rng.next_index(f);
            let mut lo_v = f64::INFINITY;
            let mut hi_v = f64::NEG_INFINITY;
            for &i in &self.order[lo..hi] {
                let v = self.x[(i as usize, feature)];
                lo_v = lo_v.min(v);
                hi_v = hi_v.max(v);
            }
            if hi_v > lo_v {
                let t = self.rng.next_range(lo_v, hi_v);
                // guarantee a non-degenerate partition
                let (mut nl, mut nr) = (0, 0);
                for &i in &self.order[lo..hi] {
                    if self.x[(i as usize, feature)] <= t {
                        nl += 1;
                    } else {
                        nr += 1;
                    }
                }
                if nl > 0 && nr > 0 {
                    return Some((feature, t));
                }
            }
        }
        None
    }

    fn build(&mut self, lo: usize, hi: usize, depth: u32) -> u32 {
        let node_id = self.nodes.push_leaf(); // a leaf until it splits
        let n = hi - lo;
        if n < 2 * self.config.min_samples_leaf
            || depth >= self.config.max_depth
            || self.is_pure(lo, hi)
        {
            return self.leaf(node_id, lo, hi, depth);
        }
        let split = match self.config.strategy {
            SplitStrategy::CompletelyRandom => self.completely_random_split(lo, hi),
            SplitStrategy::BestOfSqrt | SplitStrategy::BestOfAll => self.best_split(lo, hi),
        };
        let Some((feature, threshold)) = split else {
            return self.leaf(node_id, lo, hi, depth);
        };
        // count the left group (same predicate as the partition below); a
        // degenerate side — possible when midpoint rounding collapses onto a
        // neighbour value, or when a NaN threshold sends everything right —
        // falls back to a leaf exactly as the reference implementation did.
        let nl = if let Engine::Presorted(_) = self.engine {
            let mut nl = 0usize;
            for &i in &self.order[lo..hi] {
                let left = (self.x[(i as usize, feature)] <= threshold) as u8;
                self.marks[i as usize] = left;
                nl += left as usize;
            }
            nl
        } else {
            self.order[lo..hi]
                .iter()
                .filter(|&&i| self.x[(i as usize, feature)] <= threshold)
                .count()
        };
        if nl == 0 || nl == n {
            return self.leaf(node_id, lo, hi, depth);
        }
        // stable in-place partition of the node's sample range — and, for
        // the presorted engine, of every feature column's matching range
        match &mut self.engine {
            Engine::Presorted(columns) => {
                columns.partition(lo, hi, nl, &self.marks);
                let marks = &self.marks;
                stable_partition_in_place(&mut self.order[lo..hi], &mut self.scratch, |i| {
                    marks[i as usize] != 0
                });
            }
            _ => {
                let x = self.x;
                stable_partition_in_place(&mut self.order[lo..hi], &mut self.scratch, |i| {
                    x[(i as usize, feature)] <= threshold
                });
            }
        }
        let left = self.build(lo, lo + nl, depth + 1);
        let right = self.build(lo + nl, hi, depth + 1);
        self.nodes
            .set_split(node_id, feature, threshold, left, right);
        node_id
    }

    /// Finish node `id` (at `depth`) as a leaf over samples `lo..hi`.
    fn leaf(&mut self, id: u32, lo: usize, hi: usize, depth: u32) -> u32 {
        self.nodes.value[id as usize] = self.leaf_value(lo, hi);
        self.depth = self.depth.max(depth);
        id
    }
}

impl RegressionTree {
    /// Fit a tree on rows `idx` of `(x, y)`.
    pub fn fit_indices(
        x: &Matrix,
        y: &[f64],
        idx: &[usize],
        config: TreeConfig,
        rng: &mut Rng64,
    ) -> Self {
        if let (Some(bins), false, false) = (
            config.bins,
            config.reference,
            config.strategy == SplitStrategy::CompletelyRandom,
        ) {
            let binned = BinnedMatrix::new(x, bins);
            return Self::fit_with_engine(x, y, idx, config, rng, Some(&binned));
        }
        Self::fit_with_engine(x, y, idx, config, rng, None)
    }

    /// Fit a tree against a pre-quantized feature matrix (histogram mode).
    /// Forests build the [`BinnedMatrix`] once and share it across trees so
    /// the quantization cost is amortized; `binned` must have been built
    /// from `x`. Completely-random and reference configurations fall back
    /// to their usual engines.
    pub fn fit_indices_prebinned(
        x: &Matrix,
        binned: &BinnedMatrix,
        y: &[f64],
        idx: &[usize],
        config: TreeConfig,
        rng: &mut Rng64,
    ) -> Self {
        assert_eq!(binned.rows(), x.rows(), "binned matrix shape mismatch");
        assert_eq!(binned.cols(), x.cols(), "binned matrix shape mismatch");
        let use_hist = !config.reference && config.strategy != SplitStrategy::CompletelyRandom;
        Self::fit_with_engine(x, y, idx, config, rng, use_hist.then_some(binned))
    }

    fn fit_with_engine(
        x: &Matrix,
        y: &[f64],
        idx: &[usize],
        config: TreeConfig,
        rng: &mut Rng64,
        binned: Option<&BinnedMatrix>,
    ) -> Self {
        assert_eq!(x.rows(), y.len());
        assert!(!idx.is_empty(), "cannot fit a tree on no samples");
        assert!(x.rows() <= u32::MAX as usize, "row ids are u32");
        let order: Vec<u32> = idx.iter().map(|&i| i as u32).collect();
        let best_split = config.strategy != SplitStrategy::CompletelyRandom;
        let engine = if config.reference || !best_split {
            // completely-random trees never consult the engine
            Engine::Reference
        } else if let Some(bm) = binned {
            Engine::Binned(bm)
        } else if presort_pays_off(config.strategy, x.cols(), order.len()) {
            Engine::Presorted(SortedColumns::new(x, &order))
        } else {
            Engine::Reference
        };
        let presorted = matches!(engine, Engine::Presorted(_));
        let hist_buckets = match &engine {
            Engine::Binned(_) => crate::binned::MAX_BINS,
            _ => 0,
        };
        let n = order.len();
        let mut b = Builder {
            x,
            y,
            config,
            nodes: Nodes::default(),
            depth: 0,
            rng: rng.derive_stream(0x7EE),
            order,
            scratch: Vec::with_capacity(n),
            engine,
            marks: vec![0; if presorted { x.rows() } else { 0 }],
            hist: HistScratch::new(hist_buckets),
        };
        b.build(0, n, 0);
        RegressionTree {
            nodes: b.nodes,
            depth: b.depth,
        }
    }

    /// Fit on all rows.
    pub fn fit(x: &Matrix, y: &[f64], config: TreeConfig, rng: &mut Rng64) -> Self {
        let idx: Vec<usize> = (0..x.rows()).collect();
        Self::fit_indices(x, y, &idx, config, rng)
    }

    /// Predict one feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        let mut at = [0];
        self.nodes.walk(&mut at, self.depth, features);
        self.nodes.value(at[0])
    }

    /// Number of nodes (size diagnostic).
    pub fn node_count(&self) -> usize {
        self.nodes.value.len()
    }

    /// Maximum depth of the fitted tree.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The tree's nodes, root first.
    pub(crate) fn nodes(&self) -> &Nodes {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data(n: usize) -> (Matrix, Vec<f64>) {
        // y = 1 if x0 > 0.5 else 0; x1 is noise
        let mut rng = Rng64::new(1);
        let mut x = Matrix::zeros(0, 0);
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rng.next_f64();
            let b = rng.next_f64();
            x.push_row(&[a, b]);
            y.push(if a > 0.5 { 1.0 } else { 0.0 });
        }
        (x, y)
    }

    /// Data with heavy feature-value ties, the case where stable ordering
    /// (and therefore prefix-sum order) actually matters.
    fn tied_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = Rng64::new(seed);
        let mut x = Matrix::zeros(0, 0);
        let mut y = Vec::new();
        for _ in 0..n {
            let a = (rng.next_f64() * 8.0).floor() / 8.0; // quantized: many ties
            let b = (rng.next_f64() * 4.0).floor() / 4.0;
            let c = rng.next_f64();
            x.push_row(&[a, b, c]);
            y.push(2.0 * a - b + 0.1 * rng.next_gaussian());
        }
        (x, y)
    }

    #[test]
    fn learns_step_function() {
        let (x, y) = step_data(200);
        let mut rng = Rng64::new(2);
        let tree = RegressionTree::fit(
            &x,
            &y,
            TreeConfig {
                strategy: SplitStrategy::BestOfAll,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(tree.predict(&[0.9, 0.5]) > 0.9);
        assert!(tree.predict(&[0.1, 0.5]) < 0.1);
    }

    #[test]
    fn presorted_is_bit_identical_to_reference() {
        let (x, y) = tied_data(160, 11);
        for strategy in [SplitStrategy::BestOfAll, SplitStrategy::BestOfSqrt] {
            let fast = RegressionTree::fit(
                &x,
                &y,
                TreeConfig {
                    strategy,
                    ..Default::default()
                },
                &mut Rng64::new(3),
            );
            let reference = RegressionTree::fit(
                &x,
                &y,
                TreeConfig {
                    strategy,
                    reference: true,
                    ..Default::default()
                },
                &mut Rng64::new(3),
            );
            assert_eq!(fast.node_count(), reference.node_count());
            let mut probe_rng = Rng64::new(4);
            for _ in 0..50 {
                let p: Vec<f64> = (0..3).map(|_| probe_rng.next_f64()).collect();
                assert_eq!(
                    fast.predict(&p).to_bits(),
                    reference.predict(&p).to_bits(),
                    "presorted trees must match the reference bit for bit"
                );
            }
        }
    }

    #[test]
    fn presorted_matches_reference_on_bootstrap_duplicates() {
        let (x, y) = tied_data(80, 17);
        let mut rng = Rng64::new(5);
        let idx: Vec<usize> = (0..120).map(|_| rng.next_index(80)).collect();
        let fast =
            RegressionTree::fit_indices(&x, &y, &idx, TreeConfig::default(), &mut Rng64::new(6));
        let reference = RegressionTree::fit_indices(
            &x,
            &y,
            &idx,
            TreeConfig {
                reference: true,
                ..Default::default()
            },
            &mut Rng64::new(6),
        );
        for r in 0..x.rows() {
            assert_eq!(
                fast.predict(x.row(r)).to_bits(),
                reference.predict(x.row(r)).to_bits()
            );
        }
    }

    #[test]
    fn nan_feature_value_yields_finite_tree() {
        // a stray NaN (e.g. injected by a fault plan that bypasses
        // sanitization) must not panic mid-training, and every leaf the
        // tree can reach must stay finite
        let (mut x, y) = step_data(100);
        x[(7, 1)] = f64::NAN;
        x[(42, 0)] = f64::NAN;
        for strategy in [
            SplitStrategy::BestOfAll,
            SplitStrategy::BestOfSqrt,
            SplitStrategy::CompletelyRandom,
        ] {
            let mut rng = Rng64::new(8);
            let tree = RegressionTree::fit(
                &x,
                &y,
                TreeConfig {
                    strategy,
                    ..Default::default()
                },
                &mut rng,
            );
            for r in 0..x.rows() {
                let p = tree.predict(x.row(r));
                assert!(p.is_finite(), "{strategy:?}: prediction {p} for row {r}");
            }
            assert!(tree.predict(&[0.5, 0.5]).is_finite());
        }
    }

    #[test]
    fn histogram_mode_learns_step_function() {
        let (x, y) = step_data(300);
        let mut rng = Rng64::new(9);
        let tree = RegressionTree::fit(
            &x,
            &y,
            TreeConfig {
                strategy: SplitStrategy::BestOfAll,
                bins: Some(16),
                ..Default::default()
            },
            &mut rng,
        );
        assert!(tree.predict(&[0.9, 0.5]) > 0.85);
        assert!(tree.predict(&[0.1, 0.5]) < 0.15);
    }

    #[test]
    fn histogram_thresholds_are_bucket_edges() {
        let (x, y) = step_data(200);
        let binned = BinnedMatrix::new(&x, 8);
        let mut rng = Rng64::new(10);
        let idx: Vec<usize> = (0..x.rows()).collect();
        let tree = RegressionTree::fit_indices_prebinned(
            &x,
            &binned,
            &y,
            &idx,
            TreeConfig {
                strategy: SplitStrategy::BestOfAll,
                bins: Some(8),
                ..Default::default()
            },
            &mut rng,
        );
        assert!(tree.node_count() > 1);
        // fewer candidate thresholds than exact mode, but the signal at
        // x0 ~ 0.5 is coarse enough to survive quantization
        assert!(tree.predict(&[0.95, 0.5]) > 0.8);
    }

    #[test]
    fn pure_targets_make_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![5.0, 5.0, 5.0];
        let mut rng = Rng64::new(3);
        let tree = RegressionTree::fit(&x, &y, TreeConfig::default(), &mut rng);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[99.0]), 5.0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        // noisy target keeps the tree splitting until the leaf floor stops it
        let mut rng = Rng64::new(4);
        let mut x = Matrix::zeros(0, 0);
        let mut y = Vec::new();
        for _ in 0..120 {
            let a = rng.next_f64();
            x.push_row(&[a, rng.next_f64()]);
            y.push(a + rng.next_gaussian());
        }
        let small = RegressionTree::fit(
            &x,
            &y,
            TreeConfig {
                min_samples_leaf: 1,
                ..Default::default()
            },
            &mut rng,
        );
        let big = RegressionTree::fit(
            &x,
            &y,
            TreeConfig {
                min_samples_leaf: 25,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(
            big.node_count() < small.node_count(),
            "leaf floor must prune: {} vs {}",
            big.node_count(),
            small.node_count()
        );
    }

    #[test]
    fn max_depth_caps_tree() {
        let (x, y) = step_data(300);
        let mut rng = Rng64::new(5);
        let tree = RegressionTree::fit(
            &x,
            &y,
            TreeConfig {
                max_depth: 2,
                min_samples_leaf: 1,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn completely_random_tree_still_learns_strong_signal() {
        let (x, y) = step_data(400);
        let mut rng = Rng64::new(6);
        let tree = RegressionTree::fit(
            &x,
            &y,
            TreeConfig {
                strategy: SplitStrategy::CompletelyRandom,
                min_samples_leaf: 2,
                max_depth: u32::MAX,
                ..Default::default()
            },
            &mut rng,
        );
        // grown to purity, training error is ~0 even with random splits
        assert!(tree.predict(&[0.95, 0.2]) > 0.5);
        assert!(tree.predict(&[0.05, 0.2]) < 0.5);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn constant_features_become_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![0.0, 1.0, 0.0, 1.0];
        let mut rng = Rng64::new(7);
        let tree = RegressionTree::fit(&x, &y, TreeConfig::default(), &mut rng);
        assert_eq!(tree.node_count(), 1);
        assert!((tree.predict(&[1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fit_indices_uses_subset_only() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![100.0]]);
        let y = vec![0.0, 1.0, 1000.0];
        let mut rng = Rng64::new(8);
        let tree = RegressionTree::fit_indices(
            &x,
            &y,
            &[0, 1],
            TreeConfig {
                min_samples_leaf: 1,
                ..Default::default()
            },
            &mut rng,
        );
        // never saw row 2: prediction bounded by training targets
        assert!(tree.predict(&[100.0]) <= 1.0);
    }
}
