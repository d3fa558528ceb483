//! The 29 cache-usage performance counters.
//!
//! §5 of the paper: *"We sampled L1 data cache stores and misses; L1
//! instruction cache stores and misses; L2 requests, stores and misses; LLC
//! loads, misses, stores; and other architectural counters related to cache
//! usage (29 in total)."* This module fixes a concrete set of 29 counters
//! with the same structure, organized into **groups** — the spatial ordering
//! that Figure 7c shows matters for multi-grain scanning (grouped counters
//! vs randomly shuffled ones).
//!
//! The hierarchy does not bump each counter as its event happens. Per
//! workload it counts every access once, in a 3 × 4 table of accesses by
//! kind (load, store, instruction fetch) and by the deepest level that
//! served it (L1, L2, LLC, memory). The L1, L2, LLC and memory traffic
//! counters are sums over that table: an L2 load miss, say, is a load or
//! fetch that reached the LLC or memory. `Cycles` is each level's latency
//! times its accesses plus the retired base cycles. Only the counters that
//! are events of their own (evictions, fills, evictions caused and
//! suffered, foreign-way hits, write-backs, retired instructions) and the
//! two sampled gauges are counted directly.

use crate::address::AccessKind;
use crate::config::Latencies;
use crate::hierarchy::LevelHit;
use crate::WorkloadId;

/// Number of tracked counters.
pub const COUNTER_COUNT: usize = 29;

/// Architectural counters sampled per workload during query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Retired instructions (reported by the workload model).
    Instructions = 0,
    /// Elapsed core cycles charged to the workload.
    Cycles = 1,
    /// L1 data-cache load accesses.
    L1dLoads = 2,
    /// L1 data-cache load misses.
    L1dLoadMisses = 3,
    /// L1 data-cache store accesses.
    L1dStores = 4,
    /// L1 data-cache store misses.
    L1dStoreMisses = 5,
    /// Lines evicted from L1d.
    L1dEvictions = 6,
    /// L1 instruction-cache fetches.
    L1iFetches = 7,
    /// L1 instruction-cache fetch misses.
    L1iFetchMisses = 8,
    /// All requests arriving at L2.
    L2Requests = 9,
    /// L2 load accesses.
    L2Loads = 10,
    /// L2 load misses.
    L2LoadMisses = 11,
    /// L2 store accesses.
    L2Stores = 12,
    /// L2 store misses.
    L2StoreMisses = 13,
    /// Lines evicted from L2.
    L2Evictions = 14,
    /// LLC load accesses.
    LlcLoads = 15,
    /// LLC load misses.
    LlcLoadMisses = 16,
    /// LLC store accesses.
    LlcStores = 17,
    /// LLC store misses.
    LlcStoreMisses = 18,
    /// All LLC accesses (loads + stores + code).
    LlcAccesses = 19,
    /// All LLC misses.
    LlcMisses = 20,
    /// Lines filled into the LLC on behalf of this workload.
    LlcFills = 21,
    /// Fills by this workload that evicted another workload's line.
    LlcEvictionsCaused = 22,
    /// This workload's lines evicted by other workloads' fills.
    LlcEvictionsSuffered = 23,
    /// Current LLC lines owned (occupancy, like Intel CMT), sampled.
    LlcOccupancyLines = 24,
    /// LLC hits on lines resident in ways outside the current fill mask —
    /// the CAT "hit anywhere" effect.
    LlcForeignWayHits = 25,
    /// Reads served from memory.
    MemReads = 26,
    /// Writebacks to memory (dirty evictions).
    MemWrites = 27,
    /// 1 while a short-term allocation boost is active, else 0 (sampled).
    BoostActive = 28,
}

impl Counter {
    /// All counters in canonical (grouped) order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::Instructions,
        Counter::Cycles,
        Counter::L1dLoads,
        Counter::L1dLoadMisses,
        Counter::L1dStores,
        Counter::L1dStoreMisses,
        Counter::L1dEvictions,
        Counter::L1iFetches,
        Counter::L1iFetchMisses,
        Counter::L2Requests,
        Counter::L2Loads,
        Counter::L2LoadMisses,
        Counter::L2Stores,
        Counter::L2StoreMisses,
        Counter::L2Evictions,
        Counter::LlcLoads,
        Counter::LlcLoadMisses,
        Counter::LlcStores,
        Counter::LlcStoreMisses,
        Counter::LlcAccesses,
        Counter::LlcMisses,
        Counter::LlcFills,
        Counter::LlcEvictionsCaused,
        Counter::LlcEvictionsSuffered,
        Counter::LlcOccupancyLines,
        Counter::LlcForeignWayHits,
        Counter::MemReads,
        Counter::MemWrites,
        Counter::BoostActive,
    ];

    /// Counter name as it would appear in a perf event list.
    pub fn name(&self) -> &'static str {
        match self {
            Counter::Instructions => "inst_retired",
            Counter::Cycles => "cpu_clk_unhalted",
            Counter::L1dLoads => "l1d.loads",
            Counter::L1dLoadMisses => "l1d.load_misses",
            Counter::L1dStores => "l1d.stores",
            Counter::L1dStoreMisses => "l1d.store_misses",
            Counter::L1dEvictions => "l1d.evictions",
            Counter::L1iFetches => "l1i.fetches",
            Counter::L1iFetchMisses => "l1i.fetch_misses",
            Counter::L2Requests => "l2.requests",
            Counter::L2Loads => "l2.loads",
            Counter::L2LoadMisses => "l2.load_misses",
            Counter::L2Stores => "l2.stores",
            Counter::L2StoreMisses => "l2.store_misses",
            Counter::L2Evictions => "l2.evictions",
            Counter::LlcLoads => "llc.loads",
            Counter::LlcLoadMisses => "llc.load_misses",
            Counter::LlcStores => "llc.stores",
            Counter::LlcStoreMisses => "llc.store_misses",
            Counter::LlcAccesses => "llc.accesses",
            Counter::LlcMisses => "llc.misses",
            Counter::LlcFills => "llc.fills",
            Counter::LlcEvictionsCaused => "llc.evictions_caused",
            Counter::LlcEvictionsSuffered => "llc.evictions_suffered",
            Counter::LlcOccupancyLines => "llc.occupancy",
            Counter::LlcForeignWayHits => "llc.foreign_way_hits",
            Counter::MemReads => "mem.reads",
            Counter::MemWrites => "mem.writes",
            Counter::BoostActive => "stap.boost_active",
        }
    }

    /// Spatial group the counter belongs to (Figure 7c orders counters by
    /// these groups so multi-grain scanning sees correlated events close
    /// together).
    pub fn group(&self) -> CounterGroup {
        use Counter::*;
        match self {
            Instructions | Cycles => CounterGroup::Core,
            L1dLoads | L1dLoadMisses | L1dStores | L1dStoreMisses | L1dEvictions => {
                CounterGroup::L1d
            }
            L1iFetches | L1iFetchMisses => CounterGroup::L1i,
            L2Requests | L2Loads | L2LoadMisses | L2Stores | L2StoreMisses | L2Evictions => {
                CounterGroup::L2
            }
            LlcLoads | LlcLoadMisses | LlcStores | LlcStoreMisses | LlcAccesses | LlcMisses
            | LlcFills | LlcEvictionsCaused | LlcEvictionsSuffered | LlcOccupancyLines
            | LlcForeignWayHits => CounterGroup::Llc,
            MemReads | MemWrites => CounterGroup::Memory,
            BoostActive => CounterGroup::Policy,
        }
    }
}

/// Spatial grouping for counter ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterGroup {
    /// Instruction/cycle counters.
    Core,
    /// L1 data cache.
    L1d,
    /// L1 instruction cache.
    L1i,
    /// Unified L2.
    L2,
    /// Shared last-level cache.
    Llc,
    /// Memory controller.
    Memory,
    /// Short-term allocation state.
    Policy,
}

/// A dense bank of the 29 counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSet {
    values: [u64; COUNTER_COUNT],
}

impl Default for CounterSet {
    fn default() -> Self {
        CounterSet::new()
    }
}

impl CounterSet {
    /// All-zero counters.
    pub fn new() -> Self {
        CounterSet {
            values: [0; COUNTER_COUNT],
        }
    }

    /// Read one counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// Increment one counter by `n`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.values[c as usize] += n;
    }

    /// Increment one counter by 1.
    #[inline]
    pub fn bump(&mut self, c: Counter) {
        self.values[c as usize] += 1;
    }

    /// Overwrite a level-style counter (used for sampled gauges like
    /// occupancy and boost state).
    #[inline]
    pub fn set(&mut self, c: Counter, v: u64) {
        self.values[c as usize] = v;
    }

    /// Counter-wise difference `self - earlier` (saturating, so gauge
    /// counters that decreased clamp at zero).
    pub fn delta(&self, earlier: &CounterSet) -> CounterSet {
        let mut out = CounterSet::new();
        for i in 0..COUNTER_COUNT {
            out.values[i] = self.values[i].saturating_sub(earlier.values[i]);
        }
        out
    }

    /// Counter-wise sum.
    pub fn merge(&mut self, other: &CounterSet) {
        for i in 0..COUNTER_COUNT {
            self.values[i] += other.values[i];
        }
    }

    /// Values in canonical order as f64 (feature-vector form).
    pub fn to_features(&self) -> [f64; COUNTER_COUNT] {
        let mut out = [0.0; COUNTER_COUNT];
        for (o, v) in out.iter_mut().zip(&self.values) {
            *o = *v as f64;
        }
        out
    }

    /// LLC miss ratio (misses / accesses), 0 when idle.
    pub fn llc_miss_ratio(&self) -> f64 {
        let acc = self.get(Counter::LlcAccesses);
        if acc == 0 {
            0.0
        } else {
            self.get(Counter::LlcMisses) as f64 / acc as f64
        }
    }

    /// Instructions per cycle, 0 when idle. Used by the dynaSprint baseline.
    pub fn ipc(&self) -> f64 {
        let cyc = self.get(Counter::Cycles);
        if cyc == 0 {
            0.0
        } else {
            self.get(Counter::Instructions) as f64 / cyc as f64
        }
    }
}

/// One workload's raw counts, as the module docs describe: `served` by
/// kind and deepest level, and `events` for the directly counted
/// counters (its `Cycles` slot holds only retired base cycles, its
/// traffic slots stay zero).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    served: [[u64; 4]; 3],
    events: CounterSet,
}

impl Tally {
    /// Count one access of `kind` that the `level` served.
    #[inline]
    pub(crate) fn served(&mut self, kind: AccessKind, level: LevelHit) {
        self.served[kind as usize][level as usize] += 1;
    }

    /// Counters that are not sums of `served`.
    #[inline]
    pub(crate) fn events(&mut self) -> &mut CounterSet {
        &mut self.events
    }

    /// The 29 counters: `events` plus the traffic and cycles that
    /// `served` implies under `latencies`. `Cycles` adds each level's
    /// latency times its accesses to the retired base cycles, the same
    /// u64 sum the per-access charges made.
    pub(crate) fn counters(&self, latencies: &Latencies) -> CounterSet {
        use Counter::*;
        let [load, store, ifetch] = self.served;
        // accesses of a kind that reached `level` or deeper
        let reached = |row: [u64; 4], level: usize| row[level..].iter().sum::<u64>();
        let non_store = |level: usize| reached(load, level) + reached(ifetch, level);
        let latency = [latencies.l1, latencies.l2, latencies.llc, latencies.memory];
        let mut c = self.events;
        c.add(
            Cycles,
            (0..4)
                .map(|l| latency[l] * (load[l] + store[l] + ifetch[l]))
                .sum(),
        );
        c.set(L1dLoads, reached(load, 0));
        c.set(L1dLoadMisses, reached(load, 1));
        c.set(L1dStores, reached(store, 0));
        c.set(L1dStoreMisses, reached(store, 1));
        c.set(L1iFetches, reached(ifetch, 0));
        c.set(L1iFetchMisses, reached(ifetch, 1));
        c.set(L2Requests, non_store(1) + reached(store, 1));
        c.set(L2Loads, non_store(1));
        c.set(L2LoadMisses, non_store(2));
        c.set(L2Stores, reached(store, 1));
        c.set(L2StoreMisses, reached(store, 2));
        c.set(LlcLoads, non_store(2));
        c.set(LlcLoadMisses, non_store(3));
        c.set(LlcStores, reached(store, 2));
        c.set(LlcStoreMisses, reached(store, 3));
        c.set(LlcAccesses, non_store(2) + reached(store, 2));
        c.set(LlcMisses, non_store(3) + reached(store, 3));
        c.set(MemReads, non_store(3) + reached(store, 3));
        c
    }
}

/// Per-workload tallies. Workload ids index a dense vector — they are
/// small integers assigned by the experiment driver — keeping the
/// per-access hot path free of hashing.
#[derive(Debug, Clone, Default)]
pub(crate) struct CounterBank {
    banks: Vec<Tally>,
}

impl CounterBank {
    /// Mutable tally of a workload (created on first touch).
    #[inline]
    pub(crate) fn of_mut(&mut self, w: WorkloadId) -> &mut Tally {
        let idx = w as usize;
        if idx >= self.banks.len() {
            self.banks.resize(idx + 1, Tally::default());
        }
        &mut self.banks[idx]
    }

    /// A workload's counters (zeros if never touched).
    pub(crate) fn of(&self, w: WorkloadId, latencies: &Latencies) -> CounterSet {
        self.banks
            .get(w as usize)
            .map_or_else(CounterSet::new, |t| t.counters(latencies))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_29_counters() {
        assert_eq!(Counter::ALL.len(), 29);
        // indices are dense and match positions
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT);
    }

    #[test]
    fn groups_partition_counters() {
        use CounterGroup::*;
        let count = |g: CounterGroup| Counter::ALL.iter().filter(|c| c.group() == g).count();
        assert_eq!(count(Core), 2);
        assert_eq!(count(L1d), 5);
        assert_eq!(count(L1i), 2);
        assert_eq!(count(L2), 6);
        assert_eq!(count(Llc), 11);
        assert_eq!(count(Memory), 2);
        assert_eq!(count(Policy), 1);
    }

    #[test]
    fn add_get_delta() {
        let mut a = CounterSet::new();
        a.add(Counter::LlcMisses, 10);
        a.bump(Counter::LlcMisses);
        let snap = a;
        a.add(Counter::LlcMisses, 5);
        assert_eq!(a.get(Counter::LlcMisses), 16);
        assert_eq!(a.delta(&snap).get(Counter::LlcMisses), 5);
    }

    #[test]
    fn delta_saturates_on_gauges() {
        let mut early = CounterSet::new();
        early.set(Counter::LlcOccupancyLines, 100);
        let mut late = CounterSet::new();
        late.set(Counter::LlcOccupancyLines, 40);
        assert_eq!(late.delta(&early).get(Counter::LlcOccupancyLines), 0);
    }

    #[test]
    fn ratios() {
        let mut c = CounterSet::new();
        assert_eq!(c.llc_miss_ratio(), 0.0);
        assert_eq!(c.ipc(), 0.0);
        c.add(Counter::LlcAccesses, 100);
        c.add(Counter::LlcMisses, 25);
        c.add(Counter::Instructions, 300);
        c.add(Counter::Cycles, 150);
        assert!((c.llc_miss_ratio() - 0.25).abs() < 1e-12);
        assert!((c.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bank_isolates_workloads() {
        let lat = Latencies::default();
        let mut b = CounterBank::default();
        b.of_mut(1).served(AccessKind::Load, LevelHit::L1);
        for _ in 0..5 {
            b.of_mut(2).served(AccessKind::Load, LevelHit::Memory);
        }
        assert_eq!(b.of(1, &lat).get(Counter::L1dLoads), 1);
        assert_eq!(b.of(2, &lat).get(Counter::L1dLoads), 5);
        assert_eq!(b.of(2, &lat).get(Counter::MemReads), 5);
        assert_eq!(b.of(3, &lat).get(Counter::L1dLoads), 0);
    }

    #[test]
    fn merge_sums() {
        let mut a = CounterSet::new();
        a.add(Counter::MemReads, 3);
        let mut b = CounterSet::new();
        b.add(Counter::MemReads, 4);
        a.merge(&b);
        assert_eq!(a.get(Counter::MemReads), 7);
    }
}
