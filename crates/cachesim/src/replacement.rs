//! Replacement policies with mask-constrained victim selection.
//!
//! CAT interposes on victim selection: a fill may only evict from the ways
//! enabled in the workload's capacity bitmask (Figure 1's write-enable
//! logic). Each policy therefore selects victims *within an allowed-way
//! mask*. Three policies are provided: true LRU (default; per-way
//! timestamps), tree-PLRU (what real LLCs approximate), and random
//! (baseline for ablations).
//!
//! One `Replacement` holds the state of every set of a cache level in a
//! flat array sized once at construction: `sets × ways` last-touch ticks
//! for LRU, one node-bit word per set for tree-PLRU, nothing for random.
//! Callers pass the set index with every touch and victim query.

use stca_util::Rng64;

/// Replacement state of every set of one cache level, in one allocation
/// sized at construction (no per-set heap objects).
#[derive(Debug, Clone)]
pub(crate) struct Replacement {
    ways: usize,
    /// Bits of the ways that exist (`ways` low bits set).
    way_mask: u64,
    state: State,
}

#[derive(Debug, Clone)]
enum State {
    /// True LRU: last-touch tick per (set, way), row-major by set.
    Lru(Vec<u64>),
    /// Tree-PLRU over `leaves` (the way count's next power of two): one
    /// node-bit word per set, bit `n` = internal node `n` of the 1-based
    /// heap, set when the node's right half is the colder one.
    TreePlru { leaves: usize, bits: Vec<u64> },
    /// Uniform random among allowed ways; keeps no state.
    Random,
}

/// Which replacement policy to instantiate for a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementKind {
    /// True LRU.
    Lru,
    /// Tree pseudo-LRU.
    TreePlru,
    /// Random victim.
    Random,
}

impl Replacement {
    /// Fresh state for `sets` sets of `ways` ways each.
    pub(crate) fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Self {
        let state = match kind {
            ReplacementKind::Lru => State::Lru(vec![0; sets * ways]),
            ReplacementKind::TreePlru => State::TreePlru {
                leaves: ways.next_power_of_two(),
                bits: vec![0; sets],
            },
            ReplacementKind::Random => State::Random,
        };
        Replacement {
            ways,
            way_mask: mask_range(0, ways),
            state,
        }
    }

    /// Record a touch (hit or fill) of `way` in `set`.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize, tick: u64) {
        match &mut self.state {
            State::Lru(last_touch) => last_touch[set * self.ways + way] = tick,
            State::TreePlru { leaves, bits } => plru_touch(&mut bits[set], *leaves, way),
            State::Random => {}
        }
    }

    /// Pick a victim in `set` among ways enabled in `allowed` (bit i = way
    /// i usable). `valid` marks ways currently holding valid lines; invalid
    /// allowed ways are preferred. Returns `None` when `allowed` has no
    /// bits for this set width (an empty-mask workload cannot fill).
    pub(crate) fn victim(
        &mut self,
        set: usize,
        allowed: u64,
        valid: u64,
        rng: &mut Rng64,
    ) -> Option<usize> {
        let allowed = allowed & self.way_mask;
        if allowed == 0 {
            return None;
        }
        // Prefer an invalid allowed way (no eviction needed).
        let empty = allowed & !valid;
        if empty != 0 {
            return Some(empty.trailing_zeros() as usize);
        }
        Some(match &self.state {
            State::Lru(last_touch) => {
                lru_victim(&last_touch[set * self.ways..(set + 1) * self.ways], allowed)
            }
            State::TreePlru { leaves, bits } => plru_victim(bits[set], *leaves, allowed),
            State::Random => {
                // clear the `pick` lowest allowed bits, take the next one
                let mut rest = allowed;
                for _ in 0..rng.next_below(allowed.count_ones() as u64) {
                    rest &= rest - 1;
                }
                rest.trailing_zeros() as usize
            }
        })
    }
}

/// Least recently touched way among the (nonempty) `allowed` ways of one
/// set's row. Ways are walked in ascending order and the first minimum
/// wins ties.
#[inline]
fn lru_victim(row: &[u64], allowed: u64) -> usize {
    let mut rest = allowed;
    let mut best = rest.trailing_zeros() as usize;
    let mut best_tick = row[best];
    rest &= rest - 1;
    while rest != 0 {
        let w = rest.trailing_zeros() as usize;
        if row[w] < best_tick {
            best = w;
            best_tick = row[w];
        }
        rest &= rest - 1;
    }
    best
}

/// Walk root->leaf, pointing each node *away* from the touched way.
fn plru_touch(bits: &mut u64, leaves: usize, way: usize) {
    let mut node = 1usize; // 1-based heap index
    let mut lo = 0usize;
    let mut hi = leaves;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if way < mid {
            // touched left: mark right as colder (bit=1 means right colder)
            *bits |= 1 << node;
            hi = mid;
            node *= 2;
        } else {
            *bits &= !(1 << node);
            lo = mid;
            node = node * 2 + 1;
        }
    }
}

/// Walk toward the cold side, but only into halves containing allowed ways;
/// fall back to the other half when the cold half is empty. Out-of-range
/// leaves are never proposed because the walk follows the (nonempty)
/// allowed mask.
fn plru_victim(bits: u64, leaves: usize, allowed: u64) -> usize {
    let mut node = 1usize;
    let mut lo = 0usize;
    let mut hi = leaves;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let left_mask = mask_range(lo, mid) & allowed;
        let right_mask = mask_range(mid, hi) & allowed;
        let prefer_right = (bits >> node) & 1 == 1;
        let go_right = if right_mask == 0 {
            false
        } else if left_mask == 0 {
            true
        } else {
            prefer_right
        };
        if go_right {
            lo = mid;
            node = node * 2 + 1;
        } else {
            hi = mid;
            node *= 2;
        }
    }
    if (allowed >> lo) & 1 == 1 {
        lo
    } else {
        // the walked-to leaf is disallowed (can happen when allowed has
        // gaps relative to the pow2 tree); pick any allowed way
        allowed.trailing_zeros() as usize
    }
}

#[inline]
fn mask_range(lo: usize, hi: usize) -> u64 {
    debug_assert!(hi <= 64 && lo <= hi);
    let hi_mask = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
    let lo_mask = if lo == 64 { u64::MAX } else { (1u64 << lo) - 1 };
    hi_mask & !lo_mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 4);
        let mut rng = Rng64::new(1);
        for (tick, way) in [(1, 0), (2, 1), (3, 2), (4, 3), (5, 0)] {
            r.touch(0, way, tick);
        }
        // all valid, all allowed: way 1 is the least recently used
        let v = r.victim(0, 0b1111, 0b1111, &mut rng);
        assert_eq!(v, Some(1));
    }

    #[test]
    fn invalid_way_preferred_over_eviction() {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 4);
        let mut rng = Rng64::new(2);
        r.touch(0, 0, 10);
        // way 2 invalid and allowed: take it even though way 0 is older
        let v = r.victim(0, 0b0101, 0b0001, &mut rng);
        assert_eq!(v, Some(2));
    }

    #[test]
    fn mask_restricts_victims() {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 4);
        let mut rng = Rng64::new(3);
        r.touch(0, 0, 1); // oldest
        r.touch(0, 1, 2);
        r.touch(0, 2, 3);
        r.touch(0, 3, 4);
        // only ways 2-3 allowed: victim must be 2 even though 0 is older
        let v = r.victim(0, 0b1100, 0b1111, &mut rng);
        assert_eq!(v, Some(2));
    }

    #[test]
    fn empty_mask_gives_no_victim() {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 4);
        let mut rng = Rng64::new(4);
        assert_eq!(r.victim(0, 0, 0b1111, &mut rng), None);
    }

    #[test]
    fn random_victim_within_mask() {
        let mut r = Replacement::new(ReplacementKind::Random, 1, 8);
        let mut rng = Rng64::new(5);
        for _ in 0..1000 {
            let v = r
                .victim(0, 0b0011_0000, 0xFF, &mut rng)
                .expect("allowed nonempty");
            assert!(v == 4 || v == 5);
        }
    }

    #[test]
    fn plru_victim_is_allowed_and_not_hot() {
        let mut r = Replacement::new(ReplacementKind::TreePlru, 1, 8);
        let mut rng = Rng64::new(6);
        // touch ways 0..4 heavily; victim among all should be in 4..8
        for _ in 0..4 {
            for w in 0..4 {
                r.touch(0, w, 0);
            }
        }
        let v = r.victim(0, 0xFF, 0xFF, &mut rng).expect("some victim");
        assert!(v >= 4, "PLRU should avoid recently-touched half, got {v}");
        // restricted mask always respected
        for _ in 0..100 {
            let v = r.victim(0, 0b0000_1100, 0xFF, &mut rng).expect("allowed");
            assert!(v == 2 || v == 3);
        }
    }

    #[test]
    fn plru_non_pow2_ways() {
        let mut r = Replacement::new(ReplacementKind::TreePlru, 1, 20);
        let mut rng = Rng64::new(7);
        let allowed = (1u64 << 20) - 1;
        for _ in 0..100 {
            let v = r.victim(0, allowed, allowed, &mut rng).expect("victim");
            assert!(v < 20);
            r.touch(0, v, 0);
        }
    }

    #[test]
    fn lru_64_ways() {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 64);
        let mut rng = Rng64::new(8);
        for w in 0..64 {
            r.touch(0, w, w as u64 + 1);
        }
        let v = r.victim(0, u64::MAX, u64::MAX, &mut rng);
        assert_eq!(v, Some(0));
    }

    #[test]
    fn lru_ties_go_to_the_lowest_allowed_way() {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 8);
        let mut rng = Rng64::new(9);
        // never-touched ways all carry tick 0: the first allowed one wins
        assert_eq!(r.victim(0, 0xFF, 0xFF, &mut rng), Some(0));
        assert_eq!(r.victim(0, 0b1011_0100, 0xFF, &mut rng), Some(2));
        r.touch(0, 2, 5);
        r.touch(0, 5, 5);
        r.touch(0, 7, 5);
        assert_eq!(r.victim(0, 0b1010_0100, 0xFF, &mut rng), Some(2));
    }

    #[test]
    fn sets_keep_independent_state() {
        for kind in [ReplacementKind::Lru, ReplacementKind::TreePlru] {
            let mut r = Replacement::new(kind, 4, 4);
            let mut rng = Rng64::new(10);
            // set 2: way 0 touched last, so it is never the victim
            for (tick, way) in [(1, 1), (2, 2), (3, 3), (4, 0)] {
                r.touch(2, way, tick);
            }
            // set 1: way 3 touched last
            for (tick, way) in [(5, 0), (6, 1), (7, 2), (8, 3)] {
                r.touch(1, way, tick);
            }
            let v2 = r.victim(2, 0b1111, 0b1111, &mut rng).expect("victim");
            assert_ne!(v2, 0, "{kind:?}");
            let v1 = r.victim(1, 0b1111, 0b1111, &mut rng).expect("victim");
            assert_ne!(v1, 3, "{kind:?}");
            if kind == ReplacementKind::Lru {
                assert_eq!((v2, v1), (1, 0));
            }
        }
    }

    #[test]
    fn random_victim_is_the_drawn_allowed_way() {
        let mut r = Replacement::new(ReplacementKind::Random, 2, 20);
        let mut rng = Rng64::new(11);
        let allowed = 0b1001_0110_0000_1011_0101u64;
        let ways: Vec<usize> = (0..20).filter(|w| (allowed >> w) & 1 == 1).collect();
        for set in [0, 1, 0, 1] {
            let mut twin = rng.clone();
            let pick = twin.next_below(ways.len() as u64) as usize;
            let v = r.victim(set, allowed, u64::MAX, &mut rng);
            assert_eq!(v, Some(ways[pick]));
            // exactly one draw per eviction
            assert_eq!(rng.next_u64(), twin.next_u64());
        }
    }
}
