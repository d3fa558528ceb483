//! Mattson stack-distance oracle for one cache level.
//!
//! LRU is a stack algorithm: with one owner, fills confined to a
//! contiguous `w`-way mask and an initially empty cache, an access hits iff
//! its per-set stack distance (distinct lines touched in the same set since
//! its previous access) is below `w`. One pass over a seeded trace yields
//! every distance, so the hit count for every `w` in `1..=ways` is known
//! exactly before any simulation runs. Tree-PLRU and random replacement
//! are not stack algorithms; for them only the bounds every policy obeys
//! are asserted.

use stca_cachesim::replacement::ReplacementKind;
use stca_cachesim::{AccessOutcome, CacheGeometry, CacheLevel, HierarchyConfig};
use stca_util::Rng64;

/// A seeded trace over about twice the level's capacity: a hot region
/// a quarter of the capacity wide, a cold region twice as wide and short
/// sequential runs, with random in-line offsets.
fn trace(geometry: CacheGeometry, seed: u64) -> Vec<u64> {
    let line = geometry.line_size as u64;
    let lines = geometry.lines() as u64;
    let mut rng = Rng64::new(seed);
    let mut out = Vec::new();
    while out.len() < 12 * lines as usize {
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

/// Per-set LRU stack distance of every access (`None` for a first touch).
fn stack_distances(geometry: CacheGeometry, trace: &[u64]) -> Vec<Option<usize>> {
    let line = geometry.line_size as u64;
    let sets = geometry.sets() as u64;
    let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
    trace
        .iter()
        .map(|&addr| {
            let l = addr / line;
            let stack = &mut stacks[(l % sets) as usize];
            let depth = stack.iter().position(|&x| x == l);
            if let Some(d) = depth {
                stack.remove(d);
            }
            stack.insert(0, l);
            depth
        })
        .collect()
}

/// Distinct lines the trace touches in each set.
fn distinct_per_set(geometry: CacheGeometry, trace: &[u64]) -> Vec<u64> {
    let line = geometry.line_size as u64;
    let sets = geometry.sets() as u64;
    let mut seen: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
    for &addr in trace {
        let l = addr / line;
        let set = &mut seen[(l % sets) as usize];
        if !set.contains(&l) {
            set.push(l);
        }
    }
    seen.iter().map(|s| s.len() as u64).collect()
}

/// Hits and final occupancy of one owner filling ways `0..w` from empty.
fn simulate(geometry: CacheGeometry, kind: ReplacementKind, w: usize, trace: &[u64]) -> (u64, u64) {
    let mask = (1u64 << w) - 1;
    let mut level = CacheLevel::new(geometry, kind, 0x5d ^ w as u64);
    let mut hits = 0;
    for &addr in trace {
        match level.lookup(addr, mask) {
            AccessOutcome::Hit { foreign_way, .. } => {
                assert!(!foreign_way, "a lone owner's lines stay in its mask");
                hits += 1;
            }
            AccessOutcome::Miss => {
                level.fill(addr, 0, mask, false).expect("mask nonempty");
            }
        }
    }
    assert_eq!(level.total_occupancy(), level.occupancy_of(0));
    (hits, level.occupancy_of(0))
}

fn geometries() -> [(&'static str, CacheGeometry); 3] {
    let config = HierarchyConfig::experiment_default();
    [("l1d", config.l1d), ("l2", config.l2), ("llc", config.llc)]
}

#[test]
fn lru_hits_equal_short_stack_distances() {
    for (name, geometry) in geometries() {
        let trace = trace(geometry, 0xa11 + geometry.sets() as u64);
        let distances = stack_distances(geometry, &trace);
        for w in 1..=geometry.ways {
            let expected = distances
                .iter()
                .filter(|d| matches!(d, Some(d) if *d < w))
                .count() as u64;
            let (hits, _) = simulate(geometry, ReplacementKind::Lru, w, &trace);
            assert_eq!(hits, expected, "{name}: LRU hits with {w} ways");
        }
        // the oracle is not vacuous: more ways hit strictly more here
        let hits_at = |w| simulate(geometry, ReplacementKind::Lru, w, &trace).0;
        assert!(hits_at(1) < hits_at(geometry.ways), "{name}");
    }
}

#[test]
fn every_policy_obeys_compulsory_misses_and_mask_capacity() {
    for (name, geometry) in geometries() {
        let trace = trace(geometry, 0xb22 + geometry.sets() as u64);
        let distinct = distinct_per_set(geometry, &trace);
        let total_distinct: u64 = distinct.iter().sum();
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::TreePlru,
            ReplacementKind::Random,
        ] {
            for w in 1..=geometry.ways {
                let (hits, occupancy) = simulate(geometry, kind, w, &trace);
                let misses = trace.len() as u64 - hits;
                assert!(
                    misses >= total_distinct,
                    "{name} {kind:?} w={w}: {misses} misses < {total_distinct} distinct lines"
                );
                assert!(
                    occupancy <= (w * geometry.sets()) as u64,
                    "{name} {kind:?} w={w}: occupancy {occupancy} over the mask"
                );
                // fills take an empty allowed way first and never duplicate
                // a line, so each set ends holding min(distinct, w) lines
                let filled: u64 = distinct.iter().map(|&d| d.min(w as u64)).sum();
                assert_eq!(occupancy, filled, "{name} {kind:?} w={w}");
            }
        }
    }
}
