//! Structural invariants of the 29 hardware counters: whatever the
//! workload, the hierarchy's bookkeeping must stay internally consistent —
//! each level's traffic is exactly the level above's misses, and the LLC's
//! split counters sum to its totals — and the cycle count decomposes
//! exactly into base cycles plus per-level latencies (EMAT) — and every
//! LLC line made dirty is written back exactly once or is still dirty.

use stca_repro::cachesim::{
    AccessKind, Address, Counter, CounterSet, Hierarchy, HierarchyConfig, Latencies, LevelHit,
    MaskMode,
};
use stca_repro::cat::AllocationSetting;
use stca_repro::util::Rng64;
use stca_repro::workloads::{AccessGenerator, AccessPattern, BenchmarkId, WorkloadSpec};

/// Accesses served per level, counted from `Hierarchy::access`'s returns,
/// plus the base cycles retired alongside them.
#[derive(Default)]
struct Served {
    l1: u64,
    l2: u64,
    llc: u64,
    memory: u64,
    base_cycles: u64,
}

impl Served {
    fn access(&mut self, hier: &mut Hierarchy, addr: Address, kind: AccessKind) {
        match hier.access(0, addr, kind) {
            LevelHit::L1 => self.l1 += 1,
            LevelHit::L2 => self.l2 += 1,
            LevelHit::Llc => self.llc += 1,
            LevelHit::Memory => self.memory += 1,
        }
    }

    fn retire(&mut self, hier: &mut Hierarchy, instructions: u64, base_cycles: u64) {
        hier.retire(0, instructions, base_cycles);
        self.base_cycles += base_cycles;
    }
}

/// Each access charges the latency of the deepest level it reached, so
/// the cycle counter is exactly base cycles plus hits times latencies.
fn check_emat(c: &CounterSet, served: &Served, lat: Latencies, label: &str) {
    assert_eq!(
        c.get(Counter::Cycles),
        served.base_cycles
            + served.l1 * lat.l1
            + served.l2 * lat.l2
            + served.llc * lat.llc
            + served.memory * lat.memory,
        "{label}: cycles decompose into base + per-level latencies"
    );
    assert_eq!(c.get(Counter::MemReads), served.memory, "{label}: memory");
    assert!(
        served.l1 > 0 && served.memory > 0,
        "{label}: levels reached"
    );
}

fn drive(pattern: AccessPattern, store_fraction: f64, n: u64, seed: u64) -> (CounterSet, Served) {
    let config = HierarchyConfig::experiment_default();
    let mut hier = Hierarchy::new(config, seed);
    hier.set_llc_mask(
        0,
        AllocationSetting::new(0, 4)
            .to_cbm(config.llc.ways)
            .expect("valid"),
    );
    let mut gen = AccessGenerator::new(pattern, 0, store_fraction, seed);
    let mut rng = Rng64::new(seed ^ 0xF0);
    let mut served = Served::default();
    for i in 0..n {
        let (a, k) = gen.next_access();
        served.access(&mut hier, a, k);
        if rng.next_bool(0.4) {
            let (ai, ki) = gen.next_ifetch();
            served.access(&mut hier, ai, ki);
        }
        if i % 64 == 63 {
            served.retire(&mut hier, 128, 64 + i % 7);
        }
    }
    (hier.counters_of(0), served)
}

fn check_invariants(c: &CounterSet, label: &str) {
    use Counter::*;
    let get = |x| c.get(x);
    // misses never exceed accesses, per level and kind
    assert!(get(L1dLoadMisses) <= get(L1dLoads), "{label}: l1d loads");
    assert!(get(L1dStoreMisses) <= get(L1dStores), "{label}: l1d stores");
    assert!(get(L1iFetchMisses) <= get(L1iFetches), "{label}: l1i");
    // every L1 miss becomes exactly one L2 request
    assert_eq!(
        get(L2Requests),
        get(L1dLoadMisses) + get(L1dStoreMisses) + get(L1iFetchMisses),
        "{label}: L2 requests are L1 misses"
    );
    assert_eq!(
        get(L2Requests),
        get(L2Loads) + get(L2Stores),
        "{label}: L2 split"
    );
    // every L2 miss becomes exactly one LLC access
    assert_eq!(
        get(LlcAccesses),
        get(L2LoadMisses) + get(L2StoreMisses),
        "{label}: LLC accesses are L2 misses"
    );
    assert_eq!(
        get(LlcAccesses),
        get(LlcLoads) + get(LlcStores),
        "{label}: LLC split"
    );
    assert_eq!(
        get(LlcMisses),
        get(LlcLoadMisses) + get(LlcStoreMisses),
        "{label}: LLC miss split"
    );
    // every LLC miss reads memory; fills can't outnumber misses
    assert_eq!(get(MemReads), get(LlcMisses), "{label}: memory reads");
    assert!(get(LlcFills) <= get(LlcMisses), "{label}: fills bounded");
    // cycle accounting is monotone in work
    assert!(get(Cycles) > 0, "{label}: cycles charged");
}

#[test]
fn invariants_hold_for_every_benchmark_pattern() {
    let config = HierarchyConfig::experiment_default();
    for id in BenchmarkId::ALL {
        let spec = WorkloadSpec::for_benchmark(id);
        let (c, served) = drive(spec.pattern_for(&config), spec.store_fraction, 20_000, 42);
        check_invariants(&c, id.short_name());
        check_emat(&c, &served, config.latencies, id.short_name());
    }
}

#[test]
fn invariants_hold_under_mask_thrashing() {
    // repeatedly switching masks mid-stream must not break the accounting
    let config = HierarchyConfig::experiment_default();
    let mut hier = Hierarchy::new(config, 7);
    let ways = config.llc.ways;
    let narrow = AllocationSetting::new(0, 2).to_cbm(ways).expect("valid");
    let wide = AllocationSetting::new(0, 6).to_cbm(ways).expect("valid");
    let mut gen = AccessGenerator::new(
        AccessPattern::PointerChase {
            footprint_lines: 4096,
        },
        0,
        0.3,
        8,
    );
    let mut served = Served::default();
    for i in 0..30_000u64 {
        if i % 512 == 0 {
            hier.set_llc_mask(0, if (i / 512) % 2 == 0 { narrow } else { wide });
            served.retire(&mut hier, 1000, 700);
        }
        let (a, k) = gen.next_access();
        served.access(&mut hier, a, k);
    }
    let c = hier.counters_of(0);
    check_invariants(&c, "mask-thrash");
    check_emat(&c, &served, config.latencies, "mask-thrash");
}

#[test]
fn every_dirty_llc_line_is_written_back_once_or_still_dirty() {
    // a line is made dirty when an access leaves the accessed address's
    // LLC line dirty that was not dirty before, or was but went to memory:
    // a strict foreign hit drops that copy and refetches it. Each such
    // line must leave the LLC through exactly one `MemWrites` (eviction or
    // invalidation) or still be dirty at the end
    let config = HierarchyConfig::experiment_default();
    let ways = config.llc.ways;
    let narrow = AllocationSetting::new(0, 2).to_cbm(ways).expect("valid");
    let wide = AllocationSetting::new(0, 6).to_cbm(ways).expect("valid");
    let other = AllocationSetting::new(4, 4).to_cbm(ways).expect("valid");
    for mode in [MaskMode::FillOnly, MaskMode::Strict] {
        let mut hier = Hierarchy::new(config, 11);
        hier.set_mask_mode(mode);
        hier.set_llc_mask(1, other);
        // both workloads chase pointers over one shared footprint, so each
        // also hits lines the other filled outside its own mask
        let mut gens = [12, 13].map(|seed| {
            AccessGenerator::new(
                AccessPattern::PointerChase {
                    footprint_lines: 4096,
                },
                0,
                0.3,
                seed,
            )
        });
        let mut made_dirty = 0u64;
        for i in 0..40_000u64 {
            if i % 512 == 0 {
                hier.set_llc_mask(0, if (i / 512) % 2 == 0 { narrow } else { wide });
            }
            let w = (i % 3 == 2) as usize;
            let (a, k) = gens[w].next_access();
            let before = hier.llc_dirty(a);
            let hit = hier.access(w as u32, a, k);
            if hier.llc_dirty(a) == Some(true) && (before != Some(true) || hit == LevelHit::Memory)
            {
                made_dirty += 1;
            }
        }
        let written = hier.counters_of(0).get(Counter::MemWrites)
            + hier.counters_of(1).get(Counter::MemWrites);
        assert!(written > 0, "{mode:?}: dirty lines left the LLC");
        assert_eq!(
            made_dirty,
            written + hier.llc_dirty_lines(),
            "{mode:?}: dirty lines written back or still dirty"
        );
    }
}

#[test]
fn two_workload_totals_are_independent() {
    // counters are strictly per-workload: running B must not change A's
    let config = HierarchyConfig::experiment_default();
    let ways = config.llc.ways;
    let run_a = |with_b: bool, seed: u64| -> CounterSet {
        let mut hier = Hierarchy::new(config, seed);
        hier.set_llc_mask(0, AllocationSetting::new(0, 2).to_cbm(ways).expect("ok"));
        hier.set_llc_mask(1, AllocationSetting::new(10, 2).to_cbm(ways).expect("ok"));
        let mut ga = AccessGenerator::new(
            AccessPattern::Stream {
                footprint_lines: 2000,
            },
            0,
            0.0,
            seed,
        );
        let mut gb = AccessGenerator::new(
            AccessPattern::Stream {
                footprint_lines: 2000,
            },
            1 << 42,
            0.0,
            seed ^ 1,
        );
        for _ in 0..5000 {
            let (a, k) = ga.next_access();
            hier.access(0, a, k);
            if with_b {
                let (b, kb) = gb.next_access();
                hier.access(1, b, kb);
            }
        }
        hier.counters_of(0)
    };
    let solo = run_a(false, 9);
    let duo = run_a(true, 9);
    // disjoint masks, disjoint address spaces: identical counter streams
    // except the possibility of replacement-rng divergence, which disjoint
    // masks prevent at the LLC and separate private caches prevent above it
    assert_eq!(solo.get(Counter::LlcMisses), duo.get(Counter::LlcMisses));
    assert_eq!(solo.get(Counter::L1dLoads), duo.get(Counter::L1dLoads));
    assert_eq!(duo.get(Counter::LlcEvictionsSuffered), 0);
}
