//! Bagged forests of regression trees.
//!
//! Two kinds, per §4.1: *random forests* (√f best-split trees on bootstrap
//! samples) and *completely-random forests* (random-split trees grown to
//! purity). Cascade levels mix both kinds to keep the ensemble diverse.

use crate::tree::{Engine, Nodes, RegressionTree, SplitStrategy, TreeConfig};
use stca_util::{Matrix, SeedStream};
use std::sync::{Arc, OnceLock};

/// Global training metrics, resolved once (forests fit in hot loops —
/// cascades and MGS windows fit many per model).
struct TrainMetrics {
    forest_fits: Arc<stca_obs::Counter>,
    trees_fitted: Arc<stca_obs::Counter>,
    forest_fit_seconds: Arc<stca_obs::Histogram>,
    bin_build_seconds: Arc<stca_obs::Histogram>,
}

fn train_metrics() -> &'static TrainMetrics {
    static METRICS: OnceLock<TrainMetrics> = OnceLock::new();
    METRICS.get_or_init(|| TrainMetrics {
        forest_fits: stca_obs::counter("deepforest.train.forest_fits_total"),
        trees_fitted: stca_obs::counter("deepforest.train.trees_fitted_total"),
        forest_fit_seconds: stca_obs::histogram("deepforest.train.forest_fit_seconds"),
        bin_build_seconds: stca_obs::histogram("deepforest.train.bin_build_seconds"),
    })
}

/// Which forest flavour to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForestKind {
    /// √f best-gain splits (classic random forest).
    Random,
    /// Random feature + random threshold, grown to purity.
    CompletelyRandom,
}

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    /// Forest flavour.
    pub kind: ForestKind,
    /// Number of trees ("estimators" in the paper's Figure 7c ablation).
    pub trees: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Maximum tree depth.
    pub max_depth: u32,
    /// Bootstrap-sample each tree's training set.
    pub bootstrap: bool,
    /// Opt-in histogram split finding (see [`TreeConfig::bins`]). The
    /// quantized matrix is built **once per forest** and shared by every
    /// tree. Ignored by completely-random forests.
    pub bins: Option<usize>,
    /// Use the reference split finder (see [`TreeConfig::reference`]).
    pub reference: bool,
}

impl ForestConfig {
    /// Default random forest with the given tree count.
    pub fn random(trees: usize) -> Self {
        ForestConfig {
            kind: ForestKind::Random,
            trees,
            min_samples_leaf: 2,
            max_depth: 32,
            bootstrap: true,
            bins: None,
            reference: false,
        }
    }

    /// Default completely-random forest with the given tree count.
    pub fn completely_random(trees: usize) -> Self {
        ForestConfig {
            kind: ForestKind::CompletelyRandom,
            trees,
            min_samples_leaf: 2,
            max_depth: 48,
            bootstrap: true,
            bins: None,
            reference: false,
        }
    }

    fn tree_config(&self) -> TreeConfig {
        TreeConfig {
            strategy: match self.kind {
                ForestKind::Random => SplitStrategy::BestOfSqrt,
                ForestKind::CompletelyRandom => SplitStrategy::CompletelyRandom,
            },
            min_samples_leaf: self.min_samples_leaf,
            max_depth: self.max_depth,
            bins: self.bins,
            reference: self.reference,
        }
    }
}

/// Trees one lane walks in lockstep.
const LANE: usize = 16;
/// Trees whose leaf values `Forest::predict` buffers on the stack before
/// adding them up in tree order. Lanes never straddle a block, so a full
/// block holds exactly `BLOCK / LANE` lanes.
const BLOCK: usize = 64;
// lanes tile a block exactly, and a `u8` slot indexes any tree in it
const _: () = assert!(BLOCK.is_multiple_of(LANE) && BLOCK <= 256);

/// Up to [`LANE`] trees of one block, stepped together for the depth of
/// the deepest. Fixed at fit.
#[derive(Debug, Clone)]
struct Lane {
    /// Each tree's position within its block.
    slot: [u8; LANE],
    len: u8,
    depth: u32,
}

/// Lockstep lanes for trees of the given depths, in tree order. Within
/// each block of [`BLOCK`] trees, trees of similar depth share a lane: the
/// block is sorted by depth (stably) and cut into lanes of [`LANE`], so a
/// shallow tree does not idle through a deep neighbour's steps.
fn pack_lanes(depth: &[u32]) -> Vec<Lane> {
    let mut lanes = Vec::new();
    for block in depth.chunks(BLOCK) {
        let mut by_depth: Vec<usize> = (0..block.len()).collect();
        by_depth.sort_by_key(|&t| block[t]);
        for members in by_depth.chunks(LANE) {
            let mut slot = [0u8; LANE];
            for (s, &t) in slot.iter_mut().zip(members) {
                *s = t as u8;
            }
            lanes.push(Lane {
                slot,
                len: members.len() as u8,
                depth: members.iter().map(|&t| block[t]).max().unwrap_or(0),
            });
        }
    }
    lanes
}

/// A fitted forest: every tree's nodes in one structure-of-arrays arena.
#[derive(Debug, Clone)]
pub struct Forest {
    nodes: Nodes,
    /// Root node of each tree, in tree order.
    root: Vec<u32>,
    /// Lockstep lanes, block by block.
    lanes: Vec<Lane>,
}

impl Forest {
    /// Fit a forest on `(x, y)`. Trees train in parallel; each draws its
    /// randomness from a per-tree tagged stream, so the fitted forest is
    /// identical at any thread count.
    pub fn fit(x: &Matrix, y: &[f64], config: ForestConfig, stream: &SeedStream) -> Self {
        assert!(config.trees >= 1);
        assert_eq!(x.rows(), y.len());
        assert!(x.rows() > 0, "empty training set");
        let metrics = train_metrics();
        let _timer = stca_obs::StageTimer::with_histogram(metrics.forest_fit_seconds.clone());
        let n = x.rows();
        let tree_config = config.tree_config();
        // the split engine is built once per forest; every tree shares it
        let engine = match (config.kind, config.reference, config.bins) {
            (ForestKind::Random, false, Some(_)) => {
                let bin_timer =
                    stca_obs::StageTimer::with_histogram(metrics.bin_build_seconds.clone());
                let engine = Engine::new(x, &tree_config);
                bin_timer.stop();
                engine
            }
            _ => Engine::new(x, &tree_config),
        };
        let trees = stca_exec::par_map_range(config.trees, |t| {
            let mut tree_rng = stream.rng(0xF0 + t as u64);
            let idx: Vec<usize> = if config.bootstrap {
                (0..n).map(|_| tree_rng.next_index(n)).collect()
            } else {
                (0..n).collect()
            };
            RegressionTree::fit_with(x, &engine, y, &idx, tree_config, &mut tree_rng)
        });
        metrics.forest_fits.inc();
        metrics.trees_fitted.add(config.trees as u64);
        Forest::from_trees(&trees)
    }

    /// Pack `trees` into one arena.
    fn from_trees(trees: &[RegressionTree]) -> Self {
        let mut nodes = Nodes::default();
        let root = trees.iter().map(|t| nodes.append(t.nodes())).collect();
        let depth: Vec<u32> = trees.iter().map(RegressionTree::depth).collect();
        Forest {
            nodes,
            root,
            lanes: pack_lanes(&depth),
        }
    }

    /// This forest with its input columns `at..at + values.len()` fixed to
    /// `values` (see [`Cascade::bind`](crate::Cascade::bind)): every tree
    /// keeps its place, loses the splits the block decides, and is packed
    /// into lanes by its new depth.
    pub(crate) fn bind(&self, at: usize, values: &[f64]) -> Forest {
        let mut nodes = Nodes::default();
        let (root, depth): (Vec<u32>, Vec<u32>) = self
            .root
            .iter()
            .map(|&r| nodes.append_bound(&self.nodes, r, at, values))
            .unzip();
        Forest {
            nodes,
            root,
            lanes: pack_lanes(&depth),
        }
    }

    /// Mean prediction across trees. Lanes walk their trees in lockstep
    /// so the trees' dependent loads overlap; the leaf values are then
    /// added in tree order, exactly as `trees.map(predict).sum::<f64>()`
    /// would add them. Allocates nothing.
    pub fn predict(&self, features: &[f64]) -> f64 {
        let mut leaf = [0.0; BLOCK];
        // std's f64 `Sum` folds from -0.0: an all-(-0.0) sum stays -0.0
        let mut sum = -0.0;
        for (b, lanes) in self.lanes.chunks(BLOCK / LANE).enumerate() {
            let roots = &self.root[b * BLOCK..self.root.len().min((b + 1) * BLOCK)];
            for lane in lanes {
                let slots = &lane.slot[..lane.len as usize];
                let mut at = [0u32; LANE];
                let at = &mut at[..slots.len()];
                for (a, &s) in at.iter_mut().zip(slots) {
                    *a = roots[s as usize];
                }
                self.nodes.walk(at, lane.depth, features);
                for (&a, &s) in at.iter().zip(slots) {
                    leaf[s as usize] = self.nodes.value(a);
                }
            }
            for &v in &leaf[..roots.len()] {
                sum += v;
            }
        }
        sum / self.root.len() as f64
    }

    /// The arena's nodes, for tests that inspect a forest's shape.
    #[cfg(test)]
    pub(crate) fn nodes(&self) -> &Nodes {
        &self.nodes
    }

    /// Predict every row of a matrix.
    pub fn predict_matrix(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|r| self.predict(x.row(r))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stca_util::Rng64;

    fn noisy_plane(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        // y = 2 x0 - x1 + noise
        let mut rng = Rng64::new(seed);
        let mut x = Matrix::zeros(0, 0);
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rng.next_f64();
            let b = rng.next_f64();
            x.push_row(&[a, b, rng.next_f64()]);
            y.push(2.0 * a - b + rng.next_gaussian() * 0.05);
        }
        (x, y)
    }

    fn mse(forest: &Forest, x: &Matrix, y: &[f64]) -> f64 {
        let pred = forest.predict_matrix(x);
        pred.iter()
            .zip(y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64
    }

    #[test]
    fn random_forest_fits_plane() {
        let (x, y) = noisy_plane(400, 1);
        let (xt, yt) = noisy_plane(100, 2);
        let f = Forest::fit(&x, &y, ForestConfig::random(40), &SeedStream::new(3));
        let err = mse(&f, &xt, &yt);
        assert!(err < 0.05, "test MSE {err}");
    }

    #[test]
    fn completely_random_forest_fits_too() {
        let (x, y) = noisy_plane(400, 4);
        let (xt, yt) = noisy_plane(100, 5);
        let f = Forest::fit(
            &x,
            &y,
            ForestConfig::completely_random(60),
            &SeedStream::new(6),
        );
        let err = mse(&f, &xt, &yt);
        assert!(err < 0.1, "test MSE {err}");
    }

    #[test]
    fn more_trees_reduce_variance() {
        let (x, y) = noisy_plane(200, 7);
        let (xt, yt) = noisy_plane(200, 8);
        let stream = SeedStream::new(9);
        let small = Forest::fit(&x, &y, ForestConfig::random(2), &stream);
        let big = Forest::fit(&x, &y, ForestConfig::random(60), &stream);
        assert!(mse(&big, &xt, &yt) < mse(&small, &xt, &yt) * 1.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = noisy_plane(100, 10);
        let f1 = Forest::fit(&x, &y, ForestConfig::random(10), &SeedStream::new(11));
        let f2 = Forest::fit(&x, &y, ForestConfig::random(10), &SeedStream::new(11));
        assert_eq!(f1.predict(&[0.3, 0.7, 0.1]), f2.predict(&[0.3, 0.7, 0.1]));
    }

    #[test]
    fn exact_forest_is_bit_identical_to_reference() {
        let (x, y) = noisy_plane(150, 30);
        let fast = Forest::fit(&x, &y, ForestConfig::random(12), &SeedStream::new(31));
        let reference = Forest::fit(
            &x,
            &y,
            ForestConfig {
                reference: true,
                ..ForestConfig::random(12)
            },
            &SeedStream::new(31),
        );
        for r in 0..x.rows() {
            assert_eq!(
                fast.predict(x.row(r)).to_bits(),
                reference.predict(x.row(r)).to_bits()
            );
        }
    }

    #[test]
    fn histogram_forest_stays_accurate() {
        let (x, y) = noisy_plane(400, 32);
        let (xt, yt) = noisy_plane(100, 33);
        let f = Forest::fit(
            &x,
            &y,
            ForestConfig {
                bins: Some(32),
                ..ForestConfig::random(40)
            },
            &SeedStream::new(34),
        );
        let err = mse(&f, &xt, &yt);
        assert!(err < 0.06, "test MSE {err}");
    }

    #[test]
    fn single_sample_forest() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let y = vec![7.0];
        let f = Forest::fit(&x, &y, ForestConfig::random(5), &SeedStream::new(12));
        assert_eq!(f.predict(&[0.0, 0.0]), 7.0);
    }

    /// The reference `Forest::predict` must match: one tree at a time,
    /// summed in tree order.
    fn one_at_a_time(trees: &[RegressionTree], x: &[f64]) -> f64 {
        trees.iter().map(|t| t.predict(x)).sum::<f64>() / trees.len() as f64
    }

    #[test]
    fn lockstep_predict_is_bit_identical_to_one_tree_at_a_time() {
        let (x, y) = noisy_plane(120, 40);
        let mut rng = Rng64::new(41);
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        for count in [1, 15, 16, 17, 40, 130] {
            // both tree kinds under random depth caps, so lanes mix trees
            // of unequal depth; every seventh tree is a single leaf
            let trees: Vec<RegressionTree> = (0..count)
                .map(|t| {
                    let config = TreeConfig {
                        strategy: if t % 2 == 0 {
                            SplitStrategy::BestOfSqrt
                        } else {
                            SplitStrategy::CompletelyRandom
                        },
                        max_depth: if t % 7 == 3 {
                            0
                        } else {
                            1 + rng.next_index(12) as u32
                        },
                        ..TreeConfig::default()
                    };
                    RegressionTree::fit(&x, &y, config, &mut rng)
                })
                .collect();
            assert!(trees.iter().any(|t| t.node_count() == 1) || count < 4);
            let forest = Forest::from_trees(&trees);
            for _ in 0..300 {
                let p: Vec<f64> = (0..3)
                    .map(|_| match rng.next_index(3) {
                        0 => special[rng.next_index(special.len())],
                        _ => rng.next_f64() * 1.4 - 0.2,
                    })
                    .collect();
                assert_eq!(
                    forest.predict(&p).to_bits(),
                    one_at_a_time(&trees, &p).to_bits(),
                    "{count} trees at {p:?}"
                );
            }
        }
    }

    #[test]
    fn negative_zero_leaves_keep_their_sign() {
        // a fold that starts at +0.0 would turn this sum into +0.0
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = [-0.0; 3];
        for count in [1, 17, 130] {
            let trees: Vec<RegressionTree> = (0..count)
                .map(|t| RegressionTree::fit(&x, &y, TreeConfig::default(), &mut Rng64::new(t)))
                .collect();
            let forest = Forest::from_trees(&trees);
            for p in [[2.0], [f64::NAN], [-0.0]] {
                let got = forest.predict(&p);
                assert!(got == 0.0 && got.is_sign_negative(), "{count} trees: {got}");
                assert_eq!(got.to_bits(), one_at_a_time(&trees, &p).to_bits());
            }
        }
    }
}
