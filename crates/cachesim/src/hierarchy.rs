//! The multi-workload cache hierarchy: private L1d/L1i/L2 per workload, one
//! shared way-partitioned LLC.
//!
//! Every memory access walks L1 → L2 → LLC → memory, updating the 29
//! counters of [`crate::counters`] along the way. The LLC applies each
//! workload's current *fill mask* (its CAT class of service); switching the
//! mask at runtime — what the paper's proxy services do on a short-term
//! allocation timeout — immediately changes where the workload's future
//! fills may land while leaving resident lines untouched.
//!
//! Accounting simplifications (documented in DESIGN.md): dirty state is
//! tracked at the LLC only, so `MemWrites` counts dirty LLC lines leaving
//! it (evicted, or invalidated by a [`MaskMode::Strict`] foreign hit);
//! L1/L2 evictions are counted but generate no memory traffic of their own.

use crate::address::{AccessKind, Address};
use crate::cache::{AccessOutcome, CacheLevel};
use crate::config::HierarchyConfig;
use crate::counters::{Counter, CounterBank, CounterSet};
use crate::replacement::ReplacementKind;
use crate::WorkloadId;
use stca_cat::CapacityBitmask;

/// How LLC way masks are enforced.
///
/// Intel CAT restricts *fills* only: a resident line hits even from a way
/// outside the current mask ([`MaskMode::FillOnly`], the default and what
/// the paper's hardware does). [`MaskMode::Strict`] models hard
/// partitioning (e.g. page coloring): a workload cannot even *hit* outside
/// its mask — the foreign line is invalidated and refetched into the
/// partition. The difference is exactly the grace period a revoked
/// short-term allocation enjoys under CAT, which the `ablation_maskmode`
/// bench quantifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskMode {
    /// CAT semantics: masks gate fills, hits are unrestricted.
    #[default]
    FillOnly,
    /// Hard partitioning: hits outside the mask are treated as misses.
    Strict,
}

/// Deepest level that served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelHit {
    /// Served by L1 (data or instruction).
    L1,
    /// Served by the private L2.
    L2,
    /// Served by the shared LLC.
    Llc,
    /// Served from main memory.
    Memory,
}

struct PrivateCaches {
    l1d: CacheLevel,
    l1i: CacheLevel,
    l2: CacheLevel,
}

impl PrivateCaches {
    fn new(config: &HierarchyConfig, seed: u64, w: WorkloadId) -> Self {
        let seed = seed ^ ((w as u64) << 8);
        PrivateCaches {
            l1d: CacheLevel::new(config.l1d, ReplacementKind::Lru, seed | 1),
            l1i: CacheLevel::new(config.l1i, ReplacementKind::Lru, seed | 2),
            l2: CacheLevel::new(config.l2, ReplacementKind::Lru, seed | 3),
        }
    }

    /// The L1 that serves `kind`.
    fn l1(&mut self, kind: AccessKind) -> &mut CacheLevel {
        match kind {
            AccessKind::IFetch => &mut self.l1i,
            _ => &mut self.l1d,
        }
    }
}

/// The simulated platform: shared LLC + per-workload private caches.
/// Workload ids index dense vectors (experiment drivers assign small ids),
/// keeping the per-access path free of hashing.
///
/// ```
/// use stca_cachesim::{AccessKind, Hierarchy, HierarchyConfig, LevelHit};
/// use stca_cat::AllocationSetting;
/// let config = HierarchyConfig::experiment_default();
/// let mut hier = Hierarchy::new(config, 1);
/// // confine workload 0's fills to ways 0-3 (a CAT class of service)
/// hier.set_llc_mask(0, AllocationSetting::new(0, 4).to_cbm(config.llc.ways).unwrap());
/// assert_eq!(hier.access(0, 0x1000, AccessKind::Load), LevelHit::Memory);
/// assert_eq!(hier.access(0, 0x1000, AccessKind::Load), LevelHit::L1);
/// ```
pub struct Hierarchy {
    config: HierarchyConfig,
    llc: CacheLevel,
    privates: Vec<Option<PrivateCaches>>,
    /// LLC fill mask per workload id; ids past the end hold the full mask.
    fill_masks: Vec<u64>,
    full_mask: u64,
    counters: CounterBank,
    mask_mode: MaskMode,
    seed: u64,
}

impl Hierarchy {
    /// Build an empty hierarchy. Workload private caches are created on
    /// first access. Until a mask is installed, a workload fills the whole
    /// LLC (hardware reset behaviour, COS 0 = full mask).
    pub fn new(config: HierarchyConfig, seed: u64) -> Self {
        Hierarchy {
            llc: CacheLevel::new(config.llc, ReplacementKind::Lru, seed ^ 0x11c),
            config,
            privates: Vec::new(),
            fill_masks: Vec::new(),
            full_mask: if config.llc.ways == 64 {
                u64::MAX
            } else {
                (1u64 << config.llc.ways) - 1
            },
            counters: CounterBank::new(),
            mask_mode: MaskMode::FillOnly,
            seed,
        }
    }

    /// Select how LLC masks are enforced (default: CAT fill-only).
    pub fn set_mask_mode(&mut self, mode: MaskMode) {
        self.mask_mode = mode;
    }

    /// Current mask-enforcement mode.
    pub fn mask_mode(&self) -> MaskMode {
        self.mask_mode
    }

    /// Configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Install a validated CAT mask for a workload's LLC fills.
    pub fn set_llc_mask(&mut self, w: WorkloadId, mask: CapacityBitmask) {
        assert_eq!(
            mask.cache_ways(),
            self.config.llc.ways,
            "mask validated against a different LLC"
        );
        let idx = w as usize;
        if idx >= self.fill_masks.len() {
            self.fill_masks.resize(idx + 1, self.full_mask);
        }
        self.fill_masks[idx] = mask.bits();
    }

    /// Current fill mask bits for a workload (full mask if never set).
    pub fn llc_mask_bits(&self, w: WorkloadId) -> u64 {
        self.fill_masks
            .get(w as usize)
            .copied()
            .unwrap_or(self.full_mask)
    }

    /// Perform one memory access for `workload`. Returns the deepest level
    /// reached and charges its latency (in cycles) to the workload.
    pub fn access(&mut self, w: WorkloadId, addr: Address, kind: AccessKind) -> LevelHit {
        const PRIV_FULL: u64 = u64::MAX; // private caches are not partitioned
        let llc_mask = self.llc_mask_bits(w);
        let lat = self.config.latencies;
        let is_store = kind == AccessKind::Store;

        // resolve the workload's private caches and counters once; the
        // borrows are disjoint fields of `self`
        let idx = w as usize;
        if idx >= self.privates.len() {
            self.privates.resize_with(idx + 1, || None);
        }
        let p = self.privates[idx]
            .get_or_insert_with(|| PrivateCaches::new(&self.config, self.seed, w));
        let c = self.counters.of_mut(w);
        let llc = &mut self.llc;

        // ---- L1 ----
        let l1_outcome = p.l1(kind).lookup(addr, PRIV_FULL);
        match kind {
            AccessKind::Load => c.bump(Counter::L1dLoads),
            AccessKind::Store => c.bump(Counter::L1dStores),
            AccessKind::IFetch => c.bump(Counter::L1iFetches),
        }
        if let AccessOutcome::Hit { .. } = l1_outcome {
            c.add(Counter::Cycles, lat.l1);
            if is_store {
                // write-through dirty state to the LLC copy when present
                llc.mark_dirty(addr);
            }
            return LevelHit::L1;
        }
        match kind {
            AccessKind::Load => c.bump(Counter::L1dLoadMisses),
            AccessKind::Store => c.bump(Counter::L1dStoreMisses),
            AccessKind::IFetch => c.bump(Counter::L1iFetchMisses),
        }

        // ---- L2 ----
        let l2_outcome = p.l2.lookup(addr, PRIV_FULL);
        c.bump(Counter::L2Requests);
        if is_store {
            c.bump(Counter::L2Stores);
        } else {
            c.bump(Counter::L2Loads);
        }
        if let AccessOutcome::Hit { .. } = l2_outcome {
            fill_l1(p, c, w, addr, kind);
            c.add(Counter::Cycles, lat.l2);
            if is_store {
                llc.mark_dirty(addr);
            }
            return LevelHit::L2;
        }
        if is_store {
            c.bump(Counter::L2StoreMisses);
        } else {
            c.bump(Counter::L2LoadMisses);
        }

        // ---- LLC ----
        let llc_outcome = llc.lookup(addr, llc_mask);
        c.bump(Counter::LlcAccesses);
        if is_store {
            c.bump(Counter::LlcStores);
        } else {
            c.bump(Counter::LlcLoads);
        }
        // strict partitioning demotes foreign-way hits to misses: the
        // resident copy is invalidated (written back first when dirty) and
        // refetched into the partition
        let llc_outcome = match llc_outcome {
            AccessOutcome::Hit {
                foreign_way: true, ..
            } if self.mask_mode == MaskMode::Strict => {
                if llc.invalidate(addr) == Some(true) {
                    c.bump(Counter::MemWrites);
                }
                AccessOutcome::Miss
            }
            other => other,
        };
        if let AccessOutcome::Hit { foreign_way, .. } = llc_outcome {
            if foreign_way {
                c.bump(Counter::LlcForeignWayHits);
            }
            if is_store {
                llc.mark_dirty(addr);
            }
            fill_l2(p, c, w, addr);
            fill_l1(p, c, w, addr, kind);
            c.add(Counter::Cycles, lat.llc);
            return LevelHit::Llc;
        }

        c.bump(Counter::LlcMisses);
        if is_store {
            c.bump(Counter::LlcStoreMisses);
        } else {
            c.bump(Counter::LlcLoadMisses);
        }
        c.bump(Counter::MemReads);
        // fill LLC under the CAT mask; an empty mask (Err) makes the access
        // bypass the LLC entirely
        let mut victim_owner = None;
        if let Ok(evicted) = llc.fill(addr, w, llc_mask, is_store) {
            c.bump(Counter::LlcFills);
            if let Some(ev) = evicted {
                if ev.dirty {
                    c.bump(Counter::MemWrites);
                }
                if ev.owner != w {
                    c.bump(Counter::LlcEvictionsCaused);
                    victim_owner = Some(ev.owner);
                }
            }
        }
        fill_l2(p, c, w, addr);
        fill_l1(p, c, w, addr, kind);
        c.add(Counter::Cycles, lat.memory);
        if let Some(owner) = victim_owner {
            self.counters
                .of_mut(owner)
                .bump(Counter::LlcEvictionsSuffered);
        }
        LevelHit::Memory
    }

    /// Charge retired instructions plus their base (non-memory) cycles.
    pub fn retire(&mut self, w: WorkloadId, instructions: u64, base_cycles: u64) {
        let c = self.counters.of_mut(w);
        c.add(Counter::Instructions, instructions);
        c.add(Counter::Cycles, base_cycles);
    }

    /// Refresh the sampled-gauge counters (occupancy, boost flag) for a
    /// workload; called by the profiler at each sampling tick.
    pub fn update_gauges(&mut self, w: WorkloadId, boost_active: bool) {
        let occ = self.llc.occupancy_of(w);
        let c = self.counters.of_mut(w);
        c.set(Counter::LlcOccupancyLines, occ);
        c.set(Counter::BoostActive, boost_active as u64);
    }

    /// Snapshot a workload's counters.
    pub fn counters_of(&self, w: WorkloadId) -> CounterSet {
        self.counters.of(w)
    }

    /// Whether the LLC line holding `addr` is dirty, or `None` when the
    /// LLC does not hold it.
    pub fn llc_dirty(&self, addr: Address) -> Option<bool> {
        self.llc.dirty(addr)
    }

    /// Dirty lines in the LLC: write-backs still owed to memory.
    pub fn llc_dirty_lines(&self) -> u64 {
        self.llc.dirty_lines()
    }

    /// LLC lines currently owned by a workload.
    pub fn llc_occupancy(&self, w: WorkloadId) -> u64 {
        self.llc.occupancy_of(w)
    }
}

/// Fill `addr` into the L1 serving `kind`, counting data-side evictions.
fn fill_l1(
    p: &mut PrivateCaches,
    c: &mut CounterSet,
    w: WorkloadId,
    addr: Address,
    kind: AccessKind,
) {
    // u64::MAX write-enable covers every way, so fill cannot report an
    // empty-mask bypass; treat the impossible Err as "no eviction"
    let evicted = p.l1(kind).fill(addr, w, u64::MAX, false).unwrap_or(None);
    if evicted.is_some() && kind != AccessKind::IFetch {
        c.bump(Counter::L1dEvictions);
    }
}

/// Fill `addr` into the private L2, counting evictions.
fn fill_l2(p: &mut PrivateCaches, c: &mut CounterSet, w: WorkloadId, addr: Address) {
    let evicted = p.l2.fill(addr, w, u64::MAX, false).unwrap_or(None);
    if evicted.is_some() {
        c.bump(Counter::L2Evictions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;
    use stca_cat::AllocationSetting;

    fn tiny_config() -> HierarchyConfig {
        HierarchyConfig {
            l1d: CacheGeometry::new(512, 2, 64), // 4 sets x 2 ways
            l1i: CacheGeometry::new(512, 2, 64),
            l2: CacheGeometry::new(2048, 4, 64), // 8 sets x 4 ways
            llc: CacheGeometry::new(8192, 8, 64), // 16 sets x 8 ways
            latencies: Default::default(),
        }
    }

    #[test]
    fn first_access_misses_everywhere_then_hits_l1() {
        let mut h = Hierarchy::new(tiny_config(), 1);
        assert_eq!(h.access(1, 0x1000, AccessKind::Load), LevelHit::Memory);
        assert_eq!(h.access(1, 0x1000, AccessKind::Load), LevelHit::L1);
        let c = h.counters_of(1);
        assert_eq!(c.get(Counter::L1dLoads), 2);
        assert_eq!(c.get(Counter::L1dLoadMisses), 1);
        assert_eq!(c.get(Counter::LlcMisses), 1);
        assert_eq!(c.get(Counter::MemReads), 1);
        assert_eq!(c.get(Counter::LlcFills), 1);
    }

    #[test]
    fn l1_conflict_falls_back_to_l2() {
        let mut h = Hierarchy::new(tiny_config(), 2);
        // L1d: 4 sets -> same-set stride is 4*64 = 256B; 2 ways
        // touch 3 conflicting lines; line 0 evicted from L1 but lives in L2
        for i in 0..3u64 {
            h.access(1, i * 256, AccessKind::Load);
        }
        assert_eq!(h.access(1, 0, AccessKind::Load), LevelHit::L2);
        assert!(h.counters_of(1).get(Counter::L1dEvictions) >= 1);
    }

    #[test]
    fn ifetch_uses_l1i() {
        let mut h = Hierarchy::new(tiny_config(), 3);
        h.access(1, 0x2000, AccessKind::IFetch);
        h.access(1, 0x2000, AccessKind::IFetch);
        let c = h.counters_of(1);
        assert_eq!(c.get(Counter::L1iFetches), 2);
        assert_eq!(c.get(Counter::L1iFetchMisses), 1);
        assert_eq!(c.get(Counter::L1dLoads), 0);
        // data access to the same address does not hit L1i
        assert_ne!(h.access(1, 0x2000, AccessKind::Load), LevelHit::L1);
    }

    #[test]
    fn llc_mask_confines_fills_and_creates_contention() {
        let mut h = Hierarchy::new(tiny_config(), 4);
        let ways = 8;
        // workload 1 fills ways 0-3, workload 2 fills ways 4-7: no interference
        h.set_llc_mask(1, AllocationSetting::new(0, 4).to_cbm(ways).expect("ok"));
        h.set_llc_mask(2, AllocationSetting::new(4, 4).to_cbm(ways).expect("ok"));
        // both touch many lines (more than their partitions hold)
        for i in 0..512u64 {
            h.access(1, i * 64, AccessKind::Load);
            h.access(2, 0x40000 + i * 64, AccessKind::Load);
        }
        let c1 = h.counters_of(1);
        let c2 = h.counters_of(2);
        assert_eq!(
            c1.get(Counter::LlcEvictionsCaused),
            0,
            "disjoint masks cannot evict"
        );
        assert_eq!(c2.get(Counter::LlcEvictionsCaused), 0);
        // overlapping mask now causes cross-workload evictions
        h.set_llc_mask(2, AllocationSetting::new(0, 8).to_cbm(ways).expect("ok"));
        for i in 0..512u64 {
            h.access(2, 0x80000 + i * 64, AccessKind::Load);
        }
        assert!(h.counters_of(2).get(Counter::LlcEvictionsCaused) > 0);
        assert!(h.counters_of(1).get(Counter::LlcEvictionsSuffered) > 0);
    }

    #[test]
    fn more_llc_ways_means_fewer_misses() {
        // the fundamental curve the paper's models learn
        let miss_rate = |ways_allowed: usize| -> f64 {
            let mut h = Hierarchy::new(tiny_config(), 5);
            h.set_llc_mask(
                1,
                AllocationSetting::new(0, ways_allowed)
                    .to_cbm(8)
                    .expect("ok"),
            );
            // working set: 64 lines; LLC partition holds 16*ways_allowed lines;
            // L2 holds 32, L1 8 — loop repeatedly
            let mut misses_before = 0;
            for rep in 0..20 {
                for i in 0..64u64 {
                    h.access(1, i * 64, AccessKind::Load);
                }
                if rep == 9 {
                    misses_before = h.counters_of(1).get(Counter::LlcMisses);
                }
            }
            let total = h.counters_of(1).get(Counter::LlcMisses) - misses_before;
            total as f64
        };
        let m2 = miss_rate(2);
        let m6 = miss_rate(6);
        assert!(
            m6 < m2,
            "6-way partition should miss less than 2-way: {m6} vs {m2}"
        );
    }

    #[test]
    fn store_dirty_writeback_counted() {
        let mut h = Hierarchy::new(tiny_config(), 6);
        h.set_llc_mask(1, AllocationSetting::new(0, 1).to_cbm(8).expect("ok"));
        // store a line, then thrash its set within the single allowed way
        h.access(1, 0, AccessKind::Store);
        // same LLC set: llc has 16 sets -> stride 16*64 = 1024
        h.access(1, 1024, AccessKind::Load); // evicts dirty line
        let c = h.counters_of(1);
        assert!(
            c.get(Counter::MemWrites) >= 1,
            "dirty eviction must write back"
        );
    }

    #[test]
    fn retire_and_gauges() {
        let mut h = Hierarchy::new(tiny_config(), 7);
        h.retire(1, 1000, 500);
        h.access(1, 0, AccessKind::Load);
        h.update_gauges(1, true);
        let c = h.counters_of(1);
        assert_eq!(c.get(Counter::Instructions), 1000);
        assert_eq!(c.get(Counter::BoostActive), 1);
        assert_eq!(c.get(Counter::LlcOccupancyLines), 1);
        assert!(c.ipc() > 0.0);
    }

    #[test]
    fn strict_mode_never_hits_foreign_ways() {
        let run = |mode: MaskMode| {
            let mut h = Hierarchy::new(tiny_config(), 21);
            h.set_mask_mode(mode);
            h.set_llc_mask(1, AllocationSetting::new(0, 8).to_cbm(8).expect("ok"));
            // resident lines land anywhere under the full mask
            for i in 0..64u64 {
                h.access(1, 0x9000 + i * 64, AccessKind::Load);
            }
            // shrink to the upper half and retouch
            h.set_llc_mask(1, AllocationSetting::new(4, 4).to_cbm(8).expect("ok"));
            // thrash private caches so LLC is actually consulted
            for i in 0..300u64 {
                h.access(1, 0x20000 + i * 64, AccessKind::Load);
            }
            for i in 0..64u64 {
                h.access(1, 0x9000 + i * 64, AccessKind::Load);
            }
            h.counters_of(1).get(Counter::LlcForeignWayHits)
        };
        assert_eq!(run(MaskMode::Strict), 0, "strict mode demotes foreign hits");
        // the same sequence under CAT semantics does hit foreign ways
        assert!(run(MaskMode::FillOnly) > 0);
    }

    #[test]
    fn foreign_way_hits_after_mask_shrink() {
        let mut h = Hierarchy::new(tiny_config(), 9);
        h.set_llc_mask(1, AllocationSetting::new(0, 8).to_cbm(8).expect("ok"));
        // fill a line while holding the full mask — lands in way 0
        h.access(1, 0x3000, AccessKind::Load);
        // shrink mask to ways 4-7; resident line still hits (foreign way).
        // first evict it from L1/L2 by thrashing private caches
        h.set_llc_mask(1, AllocationSetting::new(4, 4).to_cbm(8).expect("ok"));
        for i in 1..200u64 {
            h.access(1, 0x3000 + i * 64, AccessKind::Load);
        }
        let before = h.counters_of(1).get(Counter::LlcForeignWayHits);
        let hit = h.access(1, 0x3000, AccessKind::Load);
        if hit == LevelHit::Llc {
            assert!(h.counters_of(1).get(Counter::LlcForeignWayHits) > before);
        }
    }
}
