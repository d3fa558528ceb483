//! Belady-MIN lower bound for one masked LLC level.
//!
//! MIN (Belady 1966; proven optimal by Aho, Denning and Ullman, 1971)
//! evicts the resident line whose next use lies farthest in the future. No
//! replacement policy can miss less on the same reference string, so it
//! bounds every policy from below, stack algorithm or not. One owner
//! replays seeded reference strings through a `CacheLevel` whose fills are
//! confined to a fixed mask; per set, MIN runs over the same per-set
//! string with the mask's popcount as its way count.
//!
//! The mask never changes and the level starts empty, so every line is
//! filled inside the mask and no hit is ever foreign: `MaskMode::Strict`
//! and `MaskMode::FillOnly` see the same outcomes here, and the test
//! asserts that no hit is foreign.

use stca_cachesim::replacement::ReplacementKind;
use stca_cachesim::{AccessOutcome, CacheGeometry, CacheLevel, HierarchyConfig};
use stca_util::Rng64;

const POLICIES: [ReplacementKind; 3] = [
    ReplacementKind::Lru,
    ReplacementKind::TreePlru,
    ReplacementKind::Random,
];

/// MIN's misses on one reference string (line ids) with `ways` frames.
fn min_misses(refs: &[u64], ways: usize) -> u64 {
    // index of the next access to the same line, or `usize::MAX`
    let mut next = vec![usize::MAX; refs.len()];
    let mut seen = std::collections::HashMap::new();
    for (i, &l) in refs.iter().enumerate().rev() {
        if let Some(j) = seen.insert(l, i) {
            next[i] = j;
        }
    }
    // resident lines with the index of their next use
    let mut resident: Vec<(u64, usize)> = Vec::with_capacity(ways);
    let mut misses = 0;
    for (i, &l) in refs.iter().enumerate() {
        if let Some(slot) = resident.iter_mut().find(|(x, _)| *x == l) {
            slot.1 = next[i];
            continue;
        }
        misses += 1;
        if resident.len() == ways {
            let farthest = (0..ways)
                .max_by_key(|&k| resident[k].1)
                .expect("ways is nonzero");
            resident.swap_remove(farthest);
        }
        resident.push((l, next[i]));
    }
    misses
}

/// MIN's misses summed over the per-set strings of `trace`.
fn min_misses_per_set(geometry: CacheGeometry, ways: usize, trace: &[u64]) -> u64 {
    let line = geometry.line_size as u64;
    let sets = geometry.sets() as u64;
    let mut per_set = vec![Vec::new(); sets as usize];
    for &addr in trace {
        let l = addr / line;
        per_set[(l % sets) as usize].push(l);
    }
    per_set.iter().map(|refs| min_misses(refs, ways)).sum()
}

/// Per-set LRU stack-distance misses: accesses that are first touches or
/// whose stack distance is at least `ways`.
fn stack_distance_misses(geometry: CacheGeometry, ways: usize, trace: &[u64]) -> u64 {
    let line = geometry.line_size as u64;
    let sets = geometry.sets() as u64;
    let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
    let mut misses = 0;
    for &addr in trace {
        let l = addr / line;
        let stack = &mut stacks[(l % sets) as usize];
        match stack.iter().position(|&x| x == l) {
            Some(d) => {
                misses += u64::from(d >= ways);
                stack.remove(d);
            }
            None => misses += 1,
        }
        stack.insert(0, l);
    }
    misses
}

/// Misses of one owner replaying `trace` through a level filling `mask`.
fn policy_misses(geometry: CacheGeometry, kind: ReplacementKind, mask: u64, trace: &[u64]) -> u64 {
    let mut level = CacheLevel::new(geometry, kind, 0x3b ^ mask);
    let mut misses = 0;
    for &addr in trace {
        match level.lookup(addr, mask) {
            AccessOutcome::Hit { foreign_way, .. } => {
                assert!(!foreign_way, "a fixed mask keeps every line inside it");
            }
            AccessOutcome::Miss => {
                misses += 1;
                level.fill(addr, 0, mask, false).expect("mask nonempty");
            }
        }
    }
    misses
}

/// A seeded string over about twice the level's capacity: a hot region, a
/// wider cold region and short sequential runs, with random offsets.
fn mixed_trace(geometry: CacheGeometry, seed: u64) -> Vec<u64> {
    let line = geometry.line_size as u64;
    let lines = geometry.lines() as u64;
    let mut rng = Rng64::new(seed);
    let mut out = Vec::new();
    while out.len() < 8 * lines as usize {
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

/// A seeded string whose reuse fits `ways` ways: it touches at most `ways`
/// distinct lines per set, so every policy misses only on first touches.
fn fitting_trace(geometry: CacheGeometry, ways: usize, seed: u64) -> Vec<u64> {
    let line = geometry.line_size as u64;
    let footprint = (ways * geometry.sets()) as u64;
    let mut rng = Rng64::new(seed);
    (0..4 * geometry.lines())
        .map(|_| rng.next_below(footprint) * line + rng.next_below(line))
        .collect()
}

/// Fill masks of the level: contiguous at both ends, gapped, one way, all.
fn masks(ways: usize) -> [u64; 5] {
    let full = (1u64 << ways) - 1;
    [full, 0b11, full & !0b1111, 0b1010_0101, 1 << (ways - 1)]
}

fn geometries() -> [(&'static str, CacheGeometry); 2] {
    [
        ("16-way", CacheGeometry::new(16 * 1024, 16, 64)), // 16 sets
        ("llc", HierarchyConfig::experiment_default().llc),
    ]
}

#[test]
fn min_oracle_matches_the_textbook_string() {
    // Silberschatz et al.'s reference string: 9 faults with 3 frames
    let refs = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1];
    assert_eq!(min_misses(&refs, 3), 9);
    assert_eq!(min_misses(&refs, 4), 8);
    // a cyclic sweep over 5 lines with 4 ways: LRU misses every access;
    // MIN misses the 4 first touches, then accesses 4, 8, ..., 96
    let cyclic: Vec<u64> = (0..100).map(|i| i % 5).collect();
    assert_eq!(min_misses(&cyclic, 4), 4 + 24);
    let geometry = CacheGeometry::new(4 * 64, 4, 64); // one set
    let trace: Vec<u64> = cyclic.iter().map(|l| l * 64).collect();
    assert_eq!(stack_distance_misses(geometry, 4, &trace), 100);
}

#[test]
fn no_policy_misses_less_than_min() {
    for (name, geometry) in geometries() {
        let trace = mixed_trace(geometry, 0xd11 + geometry.sets() as u64);
        for mask in masks(geometry.ways) {
            let ways = mask.count_ones() as usize;
            let min = min_misses_per_set(geometry, ways, &trace);
            let lru_bound = stack_distance_misses(geometry, ways, &trace);
            assert!(min <= lru_bound, "{name} mask {mask:#x}");
            for kind in POLICIES {
                let misses = policy_misses(geometry, kind, mask, &trace);
                assert!(
                    misses >= min,
                    "{name} {kind:?} mask {mask:#x}: {misses} misses < MIN's {min}"
                );
                if kind == ReplacementKind::Lru {
                    assert_eq!(misses, lru_bound, "{name} LRU mask {mask:#x}");
                }
            }
            // the bound is not vacuous: past one way, MIN beats LRU here
            if ways > 1 {
                assert!(min < lru_bound, "{name} mask {mask:#x}");
            }
        }
    }
}

#[test]
fn lru_equals_min_when_reuse_fits_the_ways() {
    for (name, geometry) in geometries() {
        for mask in masks(geometry.ways) {
            let ways = mask.count_ones() as usize;
            let trace = fitting_trace(geometry, ways, 0xf17 ^ mask);
            let min = min_misses_per_set(geometry, ways, &trace);
            // only first touches miss: one per distinct line
            assert_eq!(min, stack_distance_misses(geometry, ways, &trace));
            for kind in POLICIES {
                let misses = policy_misses(geometry, kind, mask, &trace);
                assert_eq!(misses, min, "{name} {kind:?} mask {mask:#x}");
            }
        }
    }
}
