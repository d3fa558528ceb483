//! The multi-workload cache hierarchy: private L1d/L1i/L2 per workload, one
//! shared way-partitioned LLC.
//!
//! Every memory access walks L1 → L2 → LLC → memory. It is counted once,
//! by kind and by the deepest level reached, and the 29 counters of
//! [`crate::counters`] are derived from those counts when read; evictions,
//! fills and write-backs are counted as they happen. The LLC applies each
//! workload's current *fill mask* (its CAT class of service); switching the
//! mask at runtime — what the paper's proxy services do on a short-term
//! allocation timeout — immediately changes where the workload's future
//! fills may land while leaving resident lines untouched.
//!
//! Accounting simplifications (documented in DESIGN.md): dirty state is
//! tracked at the LLC only, so `MemWrites` counts dirty LLC lines leaving
//! it (evicted, or invalidated by a [`MaskMode::Strict`] foreign hit);
//! L1/L2 evictions are counted but generate no memory traffic of their own.
//!
//! The private levels are therefore much simpler than the LLC: one owner,
//! no mask, no dirty bit, true LRU. Each is a `PrivateLevel`, and
//! [`CacheLevel`] serves only as the shared LLC.

use crate::address::{AccessKind, Address, AddressMapper};
use crate::cache::{AccessOutcome, CacheLevel};
use crate::config::{CacheGeometry, HierarchyConfig};
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

/// Most ways a private level may have: a set's tags and last-touch ticks
/// are one fixed array each, so a lookup compares every lane at once.
const PRIVATE_MAX_WAYS: usize = 8;

/// One set of a [`PrivateLevel`]. Lanes at or past the level's way count
/// are never valid and keep tick `u64::MAX`, so they never match and are
/// never the least recently touched.
#[derive(Clone, Copy)]
struct PrivateSet {
    tags: [u64; PRIVATE_MAX_WAYS],
    last_touch: [u64; PRIVATE_MAX_WAYS],
    /// Bit i = way i holds a valid line.
    valid: u8,
}

/// A private L1 or L2: unpartitioned, true LRU, at most
/// [`PRIVATE_MAX_WAYS`] ways. It keeps no owner, dirty bit or occupancy
/// (private lines are never dirty and one workload owns them all), and
/// makes the same decisions as a full-mask, one-owner LRU [`CacheLevel`]:
/// the tick advances on every lookup and fill, a fill takes the lowest
/// invalid way or else the least recently touched one.
struct PrivateLevel {
    mapper: AddressMapper,
    sets: Vec<PrivateSet>,
    /// Bits of the ways that exist.
    way_mask: u8,
    tick: u64,
}

impl PrivateLevel {
    fn new(geometry: CacheGeometry) -> Self {
        let ways = geometry.ways;
        let mut last_touch = [u64::MAX; PRIVATE_MAX_WAYS];
        last_touch[..ways].fill(0);
        let empty = PrivateSet {
            tags: [0; PRIVATE_MAX_WAYS],
            last_touch,
            valid: 0,
        };
        PrivateLevel {
            mapper: AddressMapper::new(geometry.line_size, geometry.sets()),
            sets: vec![empty; geometry.sets()],
            way_mask: ((1u16 << ways) - 1) as u8,
            tick: 0,
        }
    }

    /// Look up `addr`; a hit refreshes its way's recency.
    #[inline]
    fn lookup(&mut self, addr: Address) -> bool {
        self.tick += 1;
        let tag = self.mapper.tag(addr);
        let set = &mut self.sets[self.mapper.set(addr)];
        // tags are unique among a set's valid ways: at most one bit is set
        let mut hit = 0u8;
        for (lane, &t) in set.tags.iter().enumerate() {
            hit |= u8::from(t == tag) << lane;
        }
        hit &= set.valid;
        if hit == 0 {
            return false;
        }
        set.last_touch[hit.trailing_zeros() as usize] = self.tick;
        true
    }

    /// Install `addr`, which the level does not hold. Returns whether a
    /// valid line was evicted.
    #[inline]
    fn fill(&mut self, addr: Address) -> bool {
        self.tick += 1;
        let tag = self.mapper.tag(addr);
        let set = &mut self.sets[self.mapper.set(addr)];
        let empty = !set.valid & self.way_mask;
        let way = if empty != 0 {
            empty.trailing_zeros() as usize
        } else {
            lru_lane(&set.last_touch)
        };
        set.tags[way] = tag;
        set.last_touch[way] = self.tick;
        set.valid |= 1 << way;
        empty == 0
    }
}

/// Lane with the smallest tick, branch-free; the first minimum wins, as in
/// the LLC's LRU.
#[inline]
fn lru_lane(ticks: &[u64; PRIVATE_MAX_WAYS]) -> usize {
    let (mut best, mut best_tick) = (0, ticks[0]);
    for (lane, &t) in ticks.iter().enumerate().skip(1) {
        let older = t < best_tick;
        best = if older { lane } else { best };
        best_tick = if older { t } else { best_tick };
    }
    best
}

struct PrivateCaches {
    l1d: PrivateLevel,
    l1i: PrivateLevel,
    l2: PrivateLevel,
}

impl PrivateCaches {
    fn new(config: &HierarchyConfig) -> Self {
        PrivateCaches {
            l1d: PrivateLevel::new(config.l1d),
            l1i: PrivateLevel::new(config.l1i),
            l2: PrivateLevel::new(config.l2),
        }
    }

    /// The L1 that serves `kind`.
    fn l1(&mut self, kind: AccessKind) -> &mut PrivateLevel {
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
}

impl Hierarchy {
    /// Build an empty hierarchy. Workload private caches are created on
    /// first access. Until a mask is installed, a workload fills the whole
    /// LLC (hardware reset behaviour, COS 0 = full mask).
    ///
    /// Panics when a private level (L1d, L1i or L2) has more than 8 ways.
    pub fn new(config: HierarchyConfig, seed: u64) -> Self {
        for (name, level) in [("l1d", config.l1d), ("l1i", config.l1i), ("l2", config.l2)] {
            assert!(
                level.ways <= PRIVATE_MAX_WAYS,
                "private {name} has {} ways; at most {PRIVATE_MAX_WAYS} are supported",
                level.ways
            );
        }
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
            counters: CounterBank::default(),
            mask_mode: MaskMode::FillOnly,
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
        let llc_mask = self.llc_mask_bits(w);
        let is_store = kind == AccessKind::Store;

        // resolve the workload's private caches and counters once; the
        // borrows are disjoint fields of `self`
        let idx = w as usize;
        if idx >= self.privates.len() {
            self.privates.resize_with(idx + 1, || None);
        }
        let p = self.privates[idx].get_or_insert_with(|| PrivateCaches::new(&self.config));
        let t = self.counters.of_mut(w);
        let llc = &mut self.llc;

        // ---- L1 ----
        if p.l1(kind).lookup(addr) {
            t.served(kind, LevelHit::L1);
            if is_store {
                // write-through dirty state to the LLC copy when present
                llc.mark_dirty(addr);
            }
            return LevelHit::L1;
        }

        // ---- L2 ----
        let c = t.events();
        if p.l2.lookup(addr) {
            fill_l1(p, c, addr, kind);
            if is_store {
                llc.mark_dirty(addr);
            }
            t.served(kind, LevelHit::L2);
            return LevelHit::L2;
        }

        // ---- LLC ----
        let llc_outcome = llc.lookup(addr, llc_mask);
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
            fill_l2(p, c, addr);
            fill_l1(p, c, addr, kind);
            t.served(kind, LevelHit::Llc);
            return LevelHit::Llc;
        }

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
        fill_l2(p, c, addr);
        fill_l1(p, c, addr, kind);
        t.served(kind, LevelHit::Memory);
        if let Some(owner) = victim_owner {
            self.counters
                .of_mut(owner)
                .events()
                .bump(Counter::LlcEvictionsSuffered);
        }
        LevelHit::Memory
    }

    /// Charge retired instructions plus their base (non-memory) cycles.
    pub fn retire(&mut self, w: WorkloadId, instructions: u64, base_cycles: u64) {
        let c = self.counters.of_mut(w).events();
        c.add(Counter::Instructions, instructions);
        c.add(Counter::Cycles, base_cycles);
    }

    /// Refresh the sampled-gauge counters (occupancy, boost flag) for a
    /// workload; called by the profiler at each sampling tick.
    pub fn update_gauges(&mut self, w: WorkloadId, boost_active: bool) {
        let occ = self.llc.occupancy_of(w);
        let c = self.counters.of_mut(w).events();
        c.set(Counter::LlcOccupancyLines, occ);
        c.set(Counter::BoostActive, boost_active as u64);
    }

    /// Snapshot a workload's counters.
    pub fn counters_of(&self, w: WorkloadId) -> CounterSet {
        self.counters.of(w, &self.config.latencies)
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
fn fill_l1(p: &mut PrivateCaches, c: &mut CounterSet, addr: Address, kind: AccessKind) {
    if p.l1(kind).fill(addr) && kind != AccessKind::IFetch {
        c.bump(Counter::L1dEvictions);
    }
}

/// Fill `addr` into the private L2, counting evictions.
fn fill_l2(p: &mut PrivateCaches, c: &mut CounterSet, addr: Address) {
    if p.l2.fill(addr) {
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

    /// A seeded trace over about twice a level's capacity: a hot region a
    /// quarter of the capacity wide, a cold region twice as wide and short
    /// sequential runs, with random in-line offsets.
    fn private_trace(geometry: CacheGeometry, seed: u64) -> Vec<Address> {
        let line = geometry.line_size as u64;
        let lines = geometry.lines() as u64;
        let mut rng = stca_util::Rng64::new(seed);
        let mut out = Vec::new();
        while out.len() < 16 * lines as usize {
            let first = match rng.next_below(10) {
                0..=5 => rng.next_below(lines / 4 + 1),
                6..=8 => lines + rng.next_below(2 * lines),
                _ => rng.next_below(4 * lines),
            };
            let run = if rng.next_bool(0.1) { 8 } else { 1 };
            for l in first..first + run {
                out.push(l * line + rng.next_below(line));
            }
        }
        out
    }

    fn private_geometries() -> Vec<CacheGeometry> {
        [1, 2, 4, 8]
            .iter()
            .flat_map(|&ways| {
                [
                    CacheGeometry::new(ways * 64, ways, 64), // one set
                    CacheGeometry::new(16 * ways * 64, ways, 64),
                ]
            })
            .collect()
    }

    #[test]
    fn private_level_matches_a_full_mask_lru_cache_level() {
        for geometry in private_geometries() {
            let ways = geometry.ways;
            let full = (1u64 << ways) - 1;
            let mut private = PrivateLevel::new(geometry);
            let mut reference = CacheLevel::new(geometry, ReplacementKind::Lru, 0x9e);
            let (mut hits, mut evictions) = (0, 0);
            for (i, &addr) in private_trace(geometry, 0x1e7 + ways as u64)
                .iter()
                .enumerate()
            {
                let hit = private.lookup(addr);
                let want = reference.lookup(addr, full);
                assert_eq!(hit, want != AccessOutcome::Miss, "{ways} ways, access {i}");
                if !hit {
                    let evicted = private.fill(addr);
                    let want = reference.fill(addr, 0, full, false).expect("full mask");
                    assert_eq!(evicted, want.is_some(), "{ways} ways, fill {i}");
                    evictions += u64::from(evicted);
                } else {
                    hits += 1;
                }
            }
            // the trace exercises both outcomes of both operations
            assert!(hits > 0 && evictions > 0, "{ways} ways");
        }
    }

    #[test]
    fn private_level_hits_equal_short_stack_distances() {
        for geometry in private_geometries() {
            let ways = geometry.ways;
            let (line, sets) = (geometry.line_size as u64, geometry.sets() as u64);
            let trace = private_trace(geometry, 0x5d1 + ways as u64);
            // Mattson: an access hits iff fewer than `ways` distinct lines
            // of its set were touched since its previous access
            let mut stacks = vec![Vec::new(); sets as usize];
            let mut expected = 0;
            for &addr in &trace {
                let l = addr / line;
                let stack: &mut Vec<u64> = &mut stacks[(l % sets) as usize];
                if let Some(depth) = stack.iter().position(|&x| x == l) {
                    expected += u64::from(depth < ways);
                    stack.remove(depth);
                }
                stack.insert(0, l);
            }
            let mut level = PrivateLevel::new(geometry);
            let mut hits = 0;
            for &addr in &trace {
                if level.lookup(addr) {
                    hits += 1;
                } else {
                    level.fill(addr);
                }
            }
            assert_eq!(hits, expected, "{ways} ways");
        }
    }

    #[test]
    #[should_panic(expected = "private l2 has 16 ways")]
    fn private_levels_wider_than_eight_ways_are_rejected() {
        let config = HierarchyConfig {
            l2: CacheGeometry::new(16 * 1024, 16, 64),
            ..tiny_config()
        };
        Hierarchy::new(config, 1);
    }

    /// `Hierarchy::access` as it counted before its counters were derived
    /// from per-level counts: each counter bumped as its event happens,
    /// over the reference's own copy of the caches.
    struct PerEvent {
        llc: CacheLevel,
        privates: Vec<PrivateCaches>,
        counters: Vec<CounterSet>,
        masks: Vec<u64>,
        mode: MaskMode,
        config: HierarchyConfig,
    }

    impl PerEvent {
        fn new(config: HierarchyConfig, seed: u64, mode: MaskMode, workloads: usize) -> Self {
            PerEvent {
                llc: CacheLevel::new(config.llc, ReplacementKind::Lru, seed ^ 0x11c),
                privates: (0..workloads)
                    .map(|_| PrivateCaches::new(&config))
                    .collect(),
                counters: vec![CounterSet::new(); workloads],
                masks: vec![(1 << config.llc.ways) - 1; workloads],
                mode,
                config,
            }
        }

        fn access(&mut self, w: usize, addr: Address, kind: AccessKind) {
            let lat = self.config.latencies;
            let (p, c, llc) = (&mut self.privates[w], &mut self.counters[w], &mut self.llc);
            let is_store = kind == AccessKind::Store;
            let (l1_access, l1_miss) = match kind {
                AccessKind::Load => (Counter::L1dLoads, Counter::L1dLoadMisses),
                AccessKind::Store => (Counter::L1dStores, Counter::L1dStoreMisses),
                AccessKind::IFetch => (Counter::L1iFetches, Counter::L1iFetchMisses),
            };
            let pick = |store, load| if is_store { store } else { load };
            c.bump(l1_access);
            if p.l1(kind).lookup(addr) {
                c.add(Counter::Cycles, lat.l1);
                if is_store {
                    llc.mark_dirty(addr);
                }
                return;
            }
            c.bump(l1_miss);
            c.bump(Counter::L2Requests);
            c.bump(pick(Counter::L2Stores, Counter::L2Loads));
            if p.l2.lookup(addr) {
                fill_l1(p, c, addr, kind);
                c.add(Counter::Cycles, lat.l2);
                if is_store {
                    llc.mark_dirty(addr);
                }
                return;
            }
            c.bump(pick(Counter::L2StoreMisses, Counter::L2LoadMisses));
            c.bump(Counter::LlcAccesses);
            c.bump(pick(Counter::LlcStores, Counter::LlcLoads));
            let mut outcome = llc.lookup(addr, self.masks[w]);
            if matches!(
                outcome,
                AccessOutcome::Hit {
                    foreign_way: true,
                    ..
                }
            ) && self.mode == MaskMode::Strict
            {
                if llc.invalidate(addr) == Some(true) {
                    c.bump(Counter::MemWrites);
                }
                outcome = AccessOutcome::Miss;
            }
            if let AccessOutcome::Hit { foreign_way, .. } = outcome {
                if foreign_way {
                    c.bump(Counter::LlcForeignWayHits);
                }
                if is_store {
                    llc.mark_dirty(addr);
                }
                fill_l2(p, c, addr);
                fill_l1(p, c, addr, kind);
                c.add(Counter::Cycles, lat.llc);
                return;
            }
            c.bump(Counter::LlcMisses);
            c.bump(pick(Counter::LlcStoreMisses, Counter::LlcLoadMisses));
            c.bump(Counter::MemReads);
            let mut victim = None;
            if let Ok(evicted) = llc.fill(addr, w as WorkloadId, self.masks[w], is_store) {
                c.bump(Counter::LlcFills);
                if let Some(ev) = evicted {
                    if ev.dirty {
                        c.bump(Counter::MemWrites);
                    }
                    if ev.owner != w as WorkloadId {
                        c.bump(Counter::LlcEvictionsCaused);
                        victim = Some(ev.owner as usize);
                    }
                }
            }
            fill_l2(p, c, addr);
            fill_l1(p, c, addr, kind);
            c.add(Counter::Cycles, lat.memory);
            if let Some(owner) = victim {
                self.counters[owner].bump(Counter::LlcEvictionsSuffered);
            }
        }
    }

    #[test]
    fn derived_counters_match_per_event_counting() {
        let config = tiny_config();
        let ways = config.llc.ways;
        for mode in [MaskMode::FillOnly, MaskMode::Strict] {
            let mut hier = Hierarchy::new(config, 31);
            hier.set_mask_mode(mode);
            let mut reference = PerEvent::new(config, 31, mode, 3);
            let mut rng = stca_util::Rng64::new(0xc0 + mode as u64);
            let (mut bypassed, mut strict_demotions) = (0, 0);
            for step in 0..6000u32 {
                // the masks change mid-stream; from time to time workload
                // 2's mask is empty, so its misses bypass the LLC
                if step % 400 == 0 {
                    for w in 0..3 {
                        let len = 1 + rng.next_index(ways);
                        let offset = rng.next_index(ways - len + 1);
                        let mask = CapacityBitmask::from_span(offset, len, ways).expect("fits");
                        hier.set_llc_mask(w as WorkloadId, mask);
                        reference.masks[w] = mask.bits();
                    }
                    if step % 1200 == 400 {
                        hier.fill_masks[2] = 0;
                        reference.masks[2] = 0;
                    }
                }
                let w = rng.next_index(3);
                let kind = match rng.next_below(10) {
                    0..=5 => AccessKind::Load,
                    6..=7 => AccessKind::Store,
                    _ => AccessKind::IFetch,
                };
                // a footprint of about 1.5 LLCs per workload, hot at its start
                let line = if rng.next_bool(0.5) {
                    rng.next_below(48)
                } else {
                    rng.next_below(192)
                };
                let addr = ((w as u64 + 1) << 32) + line * 64 + rng.next_below(64);
                let before = hier.counters_of(w as WorkloadId);
                let level = hier.access(w as WorkloadId, addr, kind);
                reference.access(w, addr, kind);
                if rng.next_bool(0.05) {
                    hier.retire(w as WorkloadId, 12, 5);
                    let c = &mut reference.counters[w];
                    c.add(Counter::Instructions, 12);
                    c.add(Counter::Cycles, 5);
                }
                for v in 0..3 {
                    assert_eq!(
                        hier.counters_of(v as WorkloadId),
                        reference.counters[v],
                        "{mode:?}, step {step}, workload {v}"
                    );
                }
                let after = hier.counters_of(w as WorkloadId);
                let fills = after.get(Counter::LlcFills) - before.get(Counter::LlcFills);
                bypassed += u64::from(level == LevelHit::Memory && fills == 0);
                strict_demotions += u64::from(
                    mode == MaskMode::Strict
                        && level == LevelHit::Memory
                        && after.get(Counter::MemWrites) > before.get(Counter::MemWrites),
                );
            }
            assert!(bypassed > 0, "{mode:?}: no access bypassed the LLC");
            let c = hier.counters_of(0);
            for counter in [
                Counter::L1dEvictions,
                Counter::L2Evictions,
                Counter::LlcEvictionsCaused,
                Counter::LlcEvictionsSuffered,
                Counter::MemWrites,
                Counter::L1iFetchMisses,
            ] {
                assert!(c.get(counter) > 0, "{mode:?}: {counter:?} never counted");
            }
            if mode == MaskMode::FillOnly {
                assert!(c.get(Counter::LlcForeignWayHits) > 0);
            } else {
                assert!(strict_demotions > 0, "no dirty foreign line was demoted");
            }
        }
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
