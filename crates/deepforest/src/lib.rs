//! # stca-deepforest
//!
//! A from-scratch deep-forest (gcForest-style) regressor, the paper's Stage-2
//! learner (§4.1). Deep forests implement deep and representational learning
//! atop tree ensembles:
//!
//! * **Multi-grain scanning** ([`mgs`]) — sliding windows over the
//!   spatially-ordered 29 x T counter matrix act as convolutional kernels: a
//!   random forest maps each window to a predicted effective allocation, and
//!   the per-position predictions become new representational features.
//! * **Cascading** ([`cascade`]) — levels of forest ensembles, each level
//!   consuming the original features plus the previous level's *concepts*
//!   (per-forest predictions). Diversity comes from mixing random forests
//!   (√f best-gain splits) with completely-random forests (random
//!   feature/threshold, grown to purity).
//!
//! Unlike CNNs, deep forests train layer by layer with no backpropagation,
//! which is why the paper found them far more stable on small profiling
//! datasets (Figure 5) — a property the Figure-5 harness reproduces.
//!
//! The crate is self-contained (trees, forests, MGS, cascades with 3-fold
//! out-of-fold fitting) and independent of the profiling substrate: inputs
//! are [`Sample`]s (scalar features + an optional trace matrix).

pub mod binned;
pub mod cascade;
pub mod forest;
pub mod metrics;
pub mod mgs;
pub mod model;
pub mod scratch;
pub mod tree;

pub use binned::BinnedMatrix;
pub use cascade::{Cascade, CascadeConfig, CascadeScratch};
pub use forest::{Forest, ForestConfig, ForestKind};
pub use mgs::{MgsConfig, MultiGrainScanner};
pub use model::{DeepForest, DeepForestConfig, Sample};
pub use scratch::PredictScratch;
pub use tree::{RegressionTree, TreeConfig};
