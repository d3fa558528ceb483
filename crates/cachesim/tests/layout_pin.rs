//! Byte pins on the simulator paths that no benchmark digest covers.
//!
//! The offline-model digest only drives `Hierarchy` under
//! `MaskMode::FillOnly` with LRU. These tests fold every observable outcome
//! of seeded streams into an FNV-64 hash and compare it against a constant:
//!
//! * three workloads through `Hierarchy` in both mask modes, with masks
//!   shrunk and grown mid-stream and one `remove_workload` followed by
//!   re-access (every `LevelHit`, the final counters and LLC occupancy);
//! * every `CacheLevel` operation under each replacement policy.
//!
//! Any change to the simulator's data layout must keep these hashes.

use stca_cachesim::replacement::ReplacementKind;
use stca_cachesim::{
    AccessKind, AccessOutcome, CacheGeometry, CacheLevel, Counter, Hierarchy, HierarchyConfig,
    LevelHit, MaskMode,
};
use stca_cat::AllocationSetting;
use stca_util::Rng64;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn tiny_config() -> HierarchyConfig {
    HierarchyConfig {
        l1d: CacheGeometry::new(512, 2, 64),  // 4 sets x 2 ways
        l1i: CacheGeometry::new(512, 2, 64),  // 4 sets x 2 ways
        l2: CacheGeometry::new(2048, 4, 64),  // 8 sets x 4 ways
        llc: CacheGeometry::new(8192, 8, 64), // 16 sets x 8 ways
        latencies: Default::default(),
    }
}

/// Workload ids are sparse on purpose: id 2 is never used.
const WORKLOADS: [u32; 3] = [0, 1, 3];

fn hierarchy_hash(config: HierarchyConfig, mode: MaskMode, steps: u64, seed: u64) -> u64 {
    let ways = config.llc.ways;
    let cbm = |offset: usize, length: usize| {
        AllocationSetting::new(offset, length)
            .to_cbm(ways)
            .expect("valid mask")
    };
    let llc_lines = config.llc.lines() as u64;
    let mut hier = Hierarchy::new(config, seed);
    hier.set_mask_mode(mode);
    // workload 3 never gets a mask: it fills the whole LLC
    hier.set_llc_mask(0, cbm(0, 2));
    hier.set_llc_mask(1, cbm(ways / 2, ways / 2));
    let mut rng = Rng64::new(seed ^ 0x1a70);
    let mut h = Fnv::new();
    for step in 0..steps {
        match step {
            s if s == steps / 5 => hier.set_llc_mask(0, cbm(0, ways - 2)), // grow
            s if s == 2 * steps / 5 => hier.set_llc_mask(0, cbm(ways / 4, 2)), // shrink
            s if s == steps / 2 => {
                // teardown, then workload 1 comes back with the full mask
                hier.remove_workload(1);
                for w in WORKLOADS {
                    h.word(hier.llc_mask_bits(w));
                    h.word(hier.llc_occupancy(w));
                }
            }
            s if s == 4 * steps / 5 => hier.set_llc_mask(3, cbm(1, 3)),
            _ => {}
        }
        let w = WORKLOADS[rng.next_index(WORKLOADS.len())];
        // a private region per workload plus a region every workload shares
        let line = if rng.next_bool(0.15) {
            rng.next_below(llc_lines / 2)
        } else {
            (w as u64 + 1) * 0x10_0000 + rng.next_below(2 * llc_lines)
        };
        let kind = match rng.next_below(10) {
            0..=5 => AccessKind::Load,
            6..=7 => AccessKind::Store,
            _ => AccessKind::IFetch,
        };
        let level = hier.access(w, line * 64, kind);
        h.word(match level {
            LevelHit::L1 => 1,
            LevelHit::L2 => 2,
            LevelHit::Llc => 3,
            LevelHit::Memory => 4,
        });
        if step % 97 == 0 {
            hier.retire(w, 100, 60);
            hier.update_gauges(w, step % 2 == 0);
        }
    }
    for w in WORKLOADS {
        let c = hier.counters_of(w);
        for counter in Counter::ALL {
            h.word(c.get(counter));
        }
        h.word(hier.llc_occupancy(w));
        h.word(hier.llc_mask_bits(w));
    }
    h.0
}

fn level_hash(geometry: CacheGeometry, kind: ReplacementKind, steps: u64, seed: u64) -> u64 {
    let ways = geometry.ways;
    let full = (1u64 << ways) - 1;
    // contiguous, gapped, single-way, full and empty fill masks
    let masks = [full, 0b11, full & !0b1111, 0b1010_0101, 1 << (ways - 1), 0];
    let lines = 3 * geometry.lines() as u64;
    let mut level = CacheLevel::new(geometry, kind, seed);
    let mut rng = Rng64::new(seed ^ 0x5e7);
    let mut h = Fnv::new();
    for step in 0..steps {
        let addr = rng.next_below(lines) * 64 + rng.next_below(64);
        let owner = rng.next_below(4) as u32;
        let mask = masks[rng.next_index(masks.len())];
        match rng.next_below(20) {
            0..=13 => match level.lookup(addr, mask) {
                AccessOutcome::Hit { way, foreign_way } => {
                    h.word(1);
                    h.word(way as u64);
                    h.word(foreign_way as u64);
                }
                AccessOutcome::Miss => {
                    h.word(2);
                    match level.fill(addr, owner, mask, rng.next_bool(0.3)) {
                        Err(()) => h.word(3),
                        Ok(None) => h.word(4),
                        Ok(Some(ev)) => {
                            h.word(5);
                            h.word(ev.owner as u64);
                            h.word(ev.dirty as u64);
                            h.word(ev.addr);
                        }
                    }
                }
            },
            14..=16 => h.word(10 + level.mark_dirty(addr) as u64),
            17..=18 => h.word(20 + level.invalidate(addr).is_some() as u64),
            _ if step % 7 == 0 => {
                level.flush_workload(owner);
                h.word(30);
            }
            _ => {}
        }
        if step % 61 == 0 {
            for w in 0..5 {
                h.word(level.occupancy_of(w));
            }
            h.word(level.total_occupancy());
        }
    }
    for w in 0..5 {
        h.word(level.occupancy_of(w));
    }
    h.word(level.total_occupancy());
    h.0
}

#[test]
fn hierarchy_outcomes_are_pinned() {
    let got = [
        hierarchy_hash(tiny_config(), MaskMode::FillOnly, 30_000, 11),
        hierarchy_hash(tiny_config(), MaskMode::Strict, 30_000, 11),
        hierarchy_hash(
            HierarchyConfig::experiment_default(),
            MaskMode::FillOnly,
            60_000,
            12,
        ),
        hierarchy_hash(
            HierarchyConfig::experiment_default(),
            MaskMode::Strict,
            60_000,
            12,
        ),
    ];
    // the Strict hashes count the write-back of a dirty line a strict
    // foreign hit invalidates; the FillOnly ones predate that fix
    let want: [u64; 4] = [
        0xb300_b79c_d5c8_3172,
        0x0897_f184_a391_fe39,
        0x3ff6_d016_f47f_8828,
        0xe335_051f_70d1_e853,
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}

#[test]
fn cache_level_outcomes_are_pinned() {
    let mut got = Vec::new();
    for geometry in [
        CacheGeometry::new(4096, 8, 64),   // 8 sets x 8 ways
        CacheGeometry::new(20480, 20, 64), // 16 sets x 20 ways
    ] {
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::TreePlru,
            ReplacementKind::Random,
        ] {
            got.push(level_hash(geometry, kind, 40_000, 21));
        }
    }
    let want: [u64; 6] = [
        0xb692_00e5_15e3_d1da,
        0xeda9_1281_29c2_f9f7,
        0x24b9_7263_5396_7881,
        0x4931_4e01_4ff3_1d1e,
        0x7314_fffa_0604_a77f,
        0x53ad_7bc5_5534_095f,
    ];
    assert_eq!(got, want, "got {got:#018x?}");
}
