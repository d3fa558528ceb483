//! # stca-cat
//!
//! An in-memory model of Intel Cache Allocation Technology (CAT) as used by
//! the paper (§2). Real deployments program MSRs (or Linux `resctrl`) to
//! install *capacity bitmasks* (CBMs) per *class of service*; this crate
//! keeps the rules the paper's policies depend on, and the profiler installs
//! the resulting masks as `stca-cachesim` fill masks:
//!
//! * [`cbm::CapacityBitmask`] — a way mask, **contiguous** as CAT requires,
//!   with validation;
//! * [`allocation::AllocationSetting`] — the paper's `(offset, length)` pair;
//! * [`stap::ShortTermPolicy`] — the paper's `(a, a', t)` triple: a default
//!   setting, a boosted setting, and a timeout expressed relative to mean
//!   service time (Eq. 4);
//! * [`layout::PairLayout`] — the pairwise private/shared way layout the
//!   evaluation uses (private #1–2, shared #3–4, private #5–6), with checks
//!   for the two conjectures in §2 (private regions are disjoint; a setting
//!   shares cache with at most two others).

#![warn(clippy::unwrap_used)]

pub mod allocation;
pub mod cbm;
pub mod layout;
pub mod stap;

pub use allocation::AllocationSetting;
pub use cbm::CapacityBitmask;
pub use layout::PairLayout;
pub use stap::ShortTermPolicy;

/// Errors surfaced by the CAT model. Mirrors the failure modes of the real
/// interface: non-contiguous masks, empty masks and masks wider than the
/// cache, plus layout lookups past the last workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatError {
    /// The bitmask had zero bits set. CAT requires at least one way.
    EmptyMask,
    /// The set bits were not contiguous (CAT hardware rejects these).
    NonContiguous,
    /// The mask referenced ways beyond the cache's way count.
    OutOfRange { ways: usize, highest_bit: usize },
}

impl std::fmt::Display for CatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatError::EmptyMask => write!(f, "capacity bitmask must have at least one way"),
            CatError::NonContiguous => write!(f, "capacity bitmask must be contiguous"),
            CatError::OutOfRange { ways, highest_bit } => {
                write!(f, "bit {highest_bit} out of range for {ways}-way cache")
            }
        }
    }
}

impl std::error::Error for CatError {}
