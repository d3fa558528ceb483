//! Way-layout construction for collocated workloads, plus validators for the
//! two structural conjectures of §2.
//!
//! The evaluation's canonical layout collocates a *pair* of services: each
//! reserves private ways for baseline performance and a middle region is
//! shared for short-term allocation. E.g. with 2 private ways each and a
//! 2-way shared region on a 6-way slice: Jacobi gets ways #0–1 private, BFS
//! gets ways #4–5 private, and either (or both) may fill ways #2–3 while
//! boosted. Because CAT masks must be contiguous, the boosted masks remain
//! contiguous spans that cover the private span plus the shared region.
//!
//! For >2 workloads (Figure 7b scales up to larger caches) a *chain* layout
//! alternates private and shared regions; each workload then shares with at
//! most its two neighbours — exactly the bound Conjecture 2 proves is the
//! maximum possible under contiguous allocation with private reservations.

use crate::allocation::AllocationSetting;
use crate::stap::ShortTermPolicy;

/// Pairwise layout: `[A private][shared][B private]` starting at `base_way`.
///
/// ```
/// use stca_cat::PairLayout;
/// // the paper's example: 2 private ways each, 2 shared in the middle
/// let layout = PairLayout::symmetric(2, 2);
/// let (a, b) = layout.policies(1.5, 0.75);
/// assert_eq!(a.default.length, 2);
/// assert_eq!(a.boosted.length, 4);
/// assert_eq!(a.boosted.overlap(&b.boosted), 2); // only the shared region
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairLayout {
    /// First way of the region used by the pair.
    pub base_way: usize,
    /// Private ways reserved for workload A.
    pub private_a: usize,
    /// Ways in the shared middle region.
    pub shared: usize,
    /// Private ways reserved for workload B.
    pub private_b: usize,
}

impl PairLayout {
    /// Symmetric pair layout with `private` ways each and `shared` middle
    /// ways, starting at way 0.
    pub fn symmetric(private: usize, shared: usize) -> Self {
        PairLayout {
            base_way: 0,
            private_a: private,
            shared,
            private_b: private,
        }
    }

    /// Total ways consumed by the layout.
    pub fn total_ways(&self) -> usize {
        self.private_a + self.shared + self.private_b
    }

    /// Default (private-only) setting for workload A.
    pub fn default_a(&self) -> AllocationSetting {
        AllocationSetting::new(self.base_way, self.private_a)
    }

    /// Boosted setting for workload A: private plus the shared region.
    pub fn boosted_a(&self) -> AllocationSetting {
        AllocationSetting::new(self.base_way, self.private_a + self.shared)
    }

    /// Default (private-only) setting for workload B.
    pub fn default_b(&self) -> AllocationSetting {
        AllocationSetting::new(self.base_way + self.private_a + self.shared, self.private_b)
    }

    /// Boosted setting for workload B: shared region plus private.
    pub fn boosted_b(&self) -> AllocationSetting {
        AllocationSetting::new(self.base_way + self.private_a, self.shared + self.private_b)
    }

    /// Build the two STAPs with the given timeout ratios.
    pub fn policies(&self, timeout_a: f64, timeout_b: f64) -> (ShortTermPolicy, ShortTermPolicy) {
        (
            ShortTermPolicy::new(self.default_a(), self.boosted_a(), timeout_a),
            ShortTermPolicy::new(self.default_b(), self.boosted_b(), timeout_b),
        )
    }

    /// Fully-shared static layout (the "static allocation: share fully"
    /// competitor): both workloads may fill every way of the region.
    pub fn fully_shared(&self) -> AllocationSetting {
        AllocationSetting::new(self.base_way, self.total_ways())
    }
}

/// Chain layout for `n >= 2` workloads:
/// `[P0][S0][P1][S1][P2]...` — workload `i` owns private region `Pi` and may
/// boost into the shared regions adjacent to it (`S(i-1)` and/or `Si`).
#[derive(Debug, Clone)]
pub struct ChainLayout {
    /// Private ways per workload.
    pub private: usize,
    /// Ways per shared region between neighbours.
    pub shared: usize,
    /// Number of workloads in the chain.
    pub n: usize,
}

impl ChainLayout {
    /// Create a chain of `n` workloads.
    pub fn new(n: usize, private: usize, shared: usize) -> Self {
        assert!(n >= 1);
        ChainLayout { private, shared, n }
    }

    /// Total ways consumed.
    pub fn total_ways(&self) -> usize {
        self.n * self.private + self.n.saturating_sub(1) * self.shared
    }

    /// Start way of workload `i`'s private region.
    fn private_start(&self, i: usize) -> usize {
        i * (self.private + self.shared)
    }

    /// Default setting for workload `i`.
    fn default_of(&self, i: usize) -> AllocationSetting {
        assert!(i < self.n);
        AllocationSetting::new(self.private_start(i), self.private)
    }

    /// Boosted setting for workload `i`: contiguity forces the boost to be a
    /// single span, so interior workloads extend across *both* adjacent
    /// shared regions; edge workloads extend across their one neighbour.
    fn boosted_of(&self, i: usize) -> AllocationSetting {
        assert!(i < self.n);
        let has_left = i > 0;
        let has_right = i + 1 < self.n;
        let start = if has_left {
            self.private_start(i) - self.shared
        } else {
            self.private_start(i)
        };
        let mut len = self.private;
        if has_left {
            len += self.shared;
        }
        if has_right {
            len += self.shared;
        }
        AllocationSetting::new(start, len)
    }

    /// All policies for the chain with a uniform timeout ratio.
    pub fn policies(&self, timeout_ratio: f64) -> Vec<ShortTermPolicy> {
        (0..self.n)
            .map(|i| ShortTermPolicy::new(self.default_of(i), self.boosted_of(i), timeout_ratio))
            .collect()
    }
}

/// A way layout for an experiment: a pair layout for two workloads or a
/// chain layout for three or more.
#[derive(Debug, Clone)]
pub enum ExperimentLayout {
    /// Two collocated workloads.
    Pair(PairLayout),
    /// `n >= 2` workloads in a chain of alternating private/shared regions.
    Chain(ChainLayout),
}

impl ExperimentLayout {
    /// Symmetric pair layout (the evaluation default).
    pub fn pair_symmetric(private: usize, shared: usize) -> Self {
        ExperimentLayout::Pair(PairLayout::symmetric(private, shared))
    }

    /// Number of workloads the layout hosts.
    pub fn workloads(&self) -> usize {
        match self {
            ExperimentLayout::Pair(_) => 2,
            ExperimentLayout::Chain(c) => c.n,
        }
    }

    /// Total ways consumed.
    pub fn total_ways(&self) -> usize {
        match self {
            ExperimentLayout::Pair(p) => p.total_ways(),
            ExperimentLayout::Chain(c) => c.total_ways(),
        }
    }

    /// STAPs for all workloads with the given per-workload timeouts.
    pub fn policies(&self, timeouts: &[f64]) -> Vec<ShortTermPolicy> {
        assert_eq!(timeouts.len(), self.workloads(), "one timeout per workload");
        match self {
            ExperimentLayout::Pair(p) => {
                let (a, b) = p.policies(timeouts[0], timeouts[1]);
                vec![a, b]
            }
            ExperimentLayout::Chain(c) => (0..c.n)
                .map(|i| ShortTermPolicy::new(c.default_of(i), c.boosted_of(i), timeouts[i]))
                .collect(),
        }
    }

    /// Static (never-boost) policies for all workloads.
    pub fn static_policies(&self) -> Vec<ShortTermPolicy> {
        match self {
            ExperimentLayout::Pair(p) => vec![
                ShortTermPolicy::static_only(p.default_a()),
                ShortTermPolicy::static_only(p.default_b()),
            ],
            ExperimentLayout::Chain(c) => (0..c.n)
                .map(|i| ShortTermPolicy::static_only(c.default_of(i)))
                .collect(),
        }
    }
}

/// The private region of a policy `(a, a')`: ways covered by **both** the
/// default and the boosted setting and by no other policy's settings (Eq. 1).
pub fn private_ways(policy: &ShortTermPolicy, others: &[ShortTermPolicy]) -> Vec<usize> {
    let a = policy.default;
    let ap = policy.boosted;
    let lo = a.offset.max(ap.offset);
    let hi = a.end().min(ap.end());
    (lo..hi)
        .filter(|&w| {
            others
                .iter()
                .all(|o| !o.default.covers(w) && !o.boosted.covers(w))
        })
        .collect()
}

/// Conjecture 1 (§2): under contiguous allocation, private regions of
/// distinct policies are disjoint. Returns `true` when the given policy set
/// satisfies it (it always should; the validator exists so property tests can
/// exercise the proof's claim against arbitrary layouts).
pub fn private_regions_disjoint(policies: &[ShortTermPolicy]) -> bool {
    let privates: Vec<Vec<usize>> = (0..policies.len())
        .map(|i| {
            let others: Vec<ShortTermPolicy> = policies
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, p)| *p)
                .collect();
            private_ways(&policies[i], &others)
        })
        .collect();
    for i in 0..privates.len() {
        for j in (i + 1)..privates.len() {
            if privates[i].iter().any(|w| privates[j].contains(w)) {
                return false;
            }
        }
    }
    true
}

/// Number of *other* policies whose settings overlap this policy's boosted
/// setting (its sharing degree). Conjecture 2: when every policy reserves
/// private cache, this is at most 2.
fn sharing_degree(policy: &ShortTermPolicy, others: &[ShortTermPolicy]) -> usize {
    others
        .iter()
        .filter(|o| {
            policy.boosted.overlap(&o.boosted) > 0 || policy.boosted.overlap(&o.default) > 0
        })
        .count()
}

/// Validate Conjecture 2 over a policy set in which every policy has a
/// non-empty private region.
pub fn sharing_degree_bounded(policies: &[ShortTermPolicy]) -> bool {
    (0..policies.len()).all(|i| {
        let others: Vec<ShortTermPolicy> = policies
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, p)| *p)
            .collect();
        if private_ways(&policies[i], &others).is_empty() {
            // premise violated: conjecture only constrains policies with
            // private reservations
            return true;
        }
        sharing_degree(&policies[i], &others) <= 2
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_layout() {
        // "Jacobi could reserve private cache lines #1 & #2 and BFS could
        // reserve cache lines #5 & #6 ... either or both services could use
        // cache lines 3 & 4" (0-indexed here: 0-1, 4-5 private; 2-3 shared)
        let l = PairLayout::symmetric(2, 2);
        assert_eq!(l.total_ways(), 6);
        assert_eq!(l.default_a(), AllocationSetting::new(0, 2));
        assert_eq!(l.boosted_a(), AllocationSetting::new(0, 4));
        assert_eq!(l.default_b(), AllocationSetting::new(4, 2));
        assert_eq!(l.boosted_b(), AllocationSetting::new(2, 4));
    }

    #[test]
    fn pair_masks_are_contiguous_and_valid() {
        let l = PairLayout::symmetric(2, 2);
        for s in [l.default_a(), l.boosted_a(), l.default_b(), l.boosted_b()] {
            assert!(s.to_cbm(l.total_ways()).is_ok(), "{s} must be valid CBM");
        }
    }

    #[test]
    fn pair_boosts_overlap_only_in_shared_region() {
        let l = PairLayout::symmetric(2, 2);
        assert_eq!(l.boosted_a().overlap(&l.boosted_b()), 2);
        assert_eq!(l.default_a().overlap(&l.default_b()), 0);
        assert_eq!(l.default_a().overlap(&l.boosted_b()), 0);
        assert_eq!(l.boosted_a().overlap(&l.default_b()), 0);
    }

    #[test]
    fn pair_private_regions_disjoint() {
        let l = PairLayout::symmetric(2, 2);
        let (pa, pb) = l.policies(1.0, 2.0);
        assert!(private_regions_disjoint(&[pa, pb]));
        assert_eq!(private_ways(&pa, &[pb]), vec![0, 1]);
        assert_eq!(private_ways(&pb, &[pa]), vec![4, 5]);
    }

    #[test]
    fn chain_layout_structure() {
        let c = ChainLayout::new(3, 2, 2);
        assert_eq!(c.total_ways(), 10);
        assert_eq!(c.default_of(0), AllocationSetting::new(0, 2));
        assert_eq!(c.default_of(1), AllocationSetting::new(4, 2));
        assert_eq!(c.default_of(2), AllocationSetting::new(8, 2));
        // edge workloads extend one way-region, interior extends both
        assert_eq!(c.boosted_of(0), AllocationSetting::new(0, 4));
        assert_eq!(c.boosted_of(1), AllocationSetting::new(2, 6));
        assert_eq!(c.boosted_of(2), AllocationSetting::new(6, 4));
    }

    #[test]
    fn chain_satisfies_both_conjectures() {
        for n in 2..6 {
            let c = ChainLayout::new(n, 2, 1);
            let ps = c.policies(1.0);
            assert!(private_regions_disjoint(&ps), "n={n}");
            assert!(sharing_degree_bounded(&ps), "n={n}");
        }
    }

    #[test]
    fn interior_chain_workload_shares_with_exactly_two() {
        let c = ChainLayout::new(4, 2, 1);
        let ps = c.policies(1.0);
        let others: Vec<ShortTermPolicy> = ps
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != 1)
            .map(|(_, p)| *p)
            .collect();
        assert_eq!(sharing_degree(&ps[1], &others), 2);
    }

    #[test]
    fn edge_chain_workload_shares_with_one() {
        let c = ChainLayout::new(4, 2, 1);
        let ps = c.policies(1.0);
        let others: Vec<ShortTermPolicy> = ps[1..].to_vec();
        assert_eq!(sharing_degree(&ps[0], &others), 1);
    }

    #[test]
    fn fully_shared_covers_everything() {
        let l = PairLayout::symmetric(2, 2);
        let f = l.fully_shared();
        assert_eq!(f.length, 6);
        assert!(f.contains(&l.boosted_a()));
        assert!(f.contains(&l.boosted_b()));
    }

    #[test]
    fn experiment_layout_dispatch() {
        let pair = ExperimentLayout::pair_symmetric(2, 2);
        assert_eq!(pair.workloads(), 2);
        assert_eq!(pair.total_ways(), 6);
        let ps = pair.policies(&[1.0, 2.0]);
        assert_eq!(ps[0].timeout_ratio, 1.0);
        assert_eq!(ps[1].timeout_ratio, 2.0);
        let chain = ExperimentLayout::Chain(ChainLayout::new(4, 2, 1));
        assert_eq!(chain.workloads(), 4);
        assert_eq!(chain.policies(&[1.0; 4]).len(), 4);
        let statics = chain.static_policies();
        assert!(statics.iter().all(|p| !p.boost_enabled()));
        assert!(private_regions_disjoint(&chain.policies(&[0.5; 4])));
    }

    #[test]
    #[should_panic(expected = "one timeout per workload")]
    fn experiment_layout_timeout_arity() {
        ExperimentLayout::pair_symmetric(2, 2).policies(&[1.0]);
    }

    #[test]
    fn asymmetric_pair() {
        let l = PairLayout {
            base_way: 4,
            private_a: 3,
            shared: 2,
            private_b: 1,
        };
        assert_eq!(l.default_a(), AllocationSetting::new(4, 3));
        assert_eq!(l.boosted_a(), AllocationSetting::new(4, 5));
        assert_eq!(l.default_b(), AllocationSetting::new(9, 1));
        assert_eq!(l.boosted_b(), AllocationSetting::new(7, 3));
        let (pa, pb) = l.policies(0.5, 0.5);
        assert!(private_regions_disjoint(&[pa, pb]));
    }
}
