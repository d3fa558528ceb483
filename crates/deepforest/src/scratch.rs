//! Reusable prediction buffers.
//!
//! Deep-forest inference assembles a feature vector (scalars + flattened
//! trace + MGS kernel features), then threads a growing augmented vector
//! through the cascade levels. Done naively that is four-plus heap
//! allocations per prediction — and predictions run in the tightest loops
//! in the workspace (policy search scores thousands of candidates).
//! [`PredictScratch`] owns every buffer the path needs; after the first
//! call the whole of [`DeepForest::predict_parts_with`] is allocation-free
//! (asserted by the `alloc_free_predict` integration test).
//!
//! [`DeepForest::predict_parts_with`]: crate::DeepForest::predict_parts_with

use crate::cascade::CascadeScratch;

/// Caller-owned buffers for allocation-free deep-forest prediction. One
/// scratch per thread; buffers grow to steady-state capacity on the first
/// prediction and are reused afterwards.
#[derive(Debug, Default, Clone)]
pub struct PredictScratch {
    /// Assembled feature vector (scalars ++ raw trace ++ MGS features).
    pub(crate) features: Vec<f64>,
    /// MGS window gather buffer.
    pub(crate) window: Vec<f64>,
    /// Cascade augmented/concept buffers.
    pub(crate) cascade: CascadeScratch,
}
