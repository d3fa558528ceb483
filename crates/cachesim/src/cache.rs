//! A single set-associative cache level with mask-constrained fills.
//!
//! Implements the Figure-1 data path: the address is split into tag/set, the
//! set's ways are searched for a tag match (hit), and on a miss the fill
//! victim is chosen **only among the ways enabled for the filling workload**
//! (CAT's write-enable logic). Hits are never blocked by the mask — a line
//! that survived a mask shrink still hits, which is why occupancy drains
//! gradually rather than instantly when a boost is revoked (the effect the
//! paper's short-term allocation exploits).
//!
//! Layout: lines sit in one flat `sets × ways` array and a per-set
//! `valid_bits` word is the only record of which ways hold a line, so a
//! tag search walks just the valid ways (`trailing_zeros`). Replacement
//! state for all sets is one `Replacement` and per-workload occupancy is
//! a vector indexed by workload id: an access never hashes, and allocates
//! only when a new workload id first fills.

use crate::address::{Address, AddressMapper};
use crate::config::CacheGeometry;
use crate::replacement::{Replacement, ReplacementKind};
use crate::WorkloadId;
use stca_util::Rng64;

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Tag matched in `way`. `foreign_way` is set when the hit way lies
    /// outside the accessing workload's current fill mask.
    Hit {
        /// Way the line was found in.
        way: usize,
        /// Hit outside the current fill mask (CAT "hit anywhere").
        foreign_way: bool,
    },
    /// No way held the tag.
    Miss,
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Workload that owned the evicted line.
    pub owner: WorkloadId,
    /// Whether the line was dirty (writeback required).
    pub dirty: bool,
    /// Byte address (line-aligned) of the evicted line.
    pub addr: Address,
}

/// One way's contents. Meaningful only while the way's bit is set in the
/// set's `valid_bits` word.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    owner: WorkloadId,
    dirty: bool,
}

const EMPTY_LINE: Line = Line {
    tag: 0,
    owner: 0,
    dirty: false,
};

/// One cache level. Every per-set structure is a flat array sized once at
/// construction.
#[derive(Debug)]
pub struct CacheLevel {
    geometry: CacheGeometry,
    mapper: AddressMapper,
    /// `sets × ways` lines, row-major by set.
    lines: Vec<Line>,
    /// Replacement state of every set.
    repl: Replacement,
    /// Per set, bit i = way i holds a valid line: the one record of
    /// validity.
    valid_bits: Vec<u64>,
    tick: u64,
    /// Lines owned per workload, indexed by workload id (grown on first
    /// fill by a new id).
    occupancy: Vec<u64>,
    rng: Rng64,
}

impl CacheLevel {
    /// Build an empty cache level.
    pub fn new(geometry: CacheGeometry, kind: ReplacementKind, seed: u64) -> Self {
        let sets = geometry.sets();
        let ways = geometry.ways;
        assert!(ways <= 64, "way mask is a u64");
        CacheLevel {
            geometry,
            mapper: AddressMapper::new(geometry.line_size, sets),
            lines: vec![EMPTY_LINE; sets * ways],
            repl: Replacement::new(kind, sets, ways),
            valid_bits: vec![0; sets],
            tick: 0,
            occupancy: Vec::new(),
            rng: Rng64::new(seed),
        }
    }

    /// Geometry this level was built with.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Way of `set` holding a valid line tagged `tag`. Only valid ways are
    /// scanned, lowest first.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let row = &self.lines[set * self.geometry.ways..];
        let mut valid = self.valid_bits[set];
        while valid != 0 {
            let way = valid.trailing_zeros() as usize;
            if row[way].tag == tag {
                return Some(way);
            }
            valid &= valid - 1;
        }
        None
    }

    /// Look up `addr` for `workload`; updates recency on hit. `fill_mask`
    /// is only used to classify foreign-way hits.
    pub fn lookup(&mut self, addr: Address, fill_mask: u64) -> AccessOutcome {
        let set = self.mapper.set(addr);
        self.tick += 1;
        match self.find(set, self.mapper.tag(addr)) {
            Some(way) => {
                self.repl.touch(set, way, self.tick);
                AccessOutcome::Hit {
                    way,
                    foreign_way: (fill_mask >> way) & 1 == 0,
                }
            }
            None => AccessOutcome::Miss,
        }
    }

    /// Mark the line holding `addr` dirty, if present. Returns whether the
    /// line was found.
    pub fn mark_dirty(&mut self, addr: Address) -> bool {
        let set = self.mapper.set(addr);
        match self.find(set, self.mapper.tag(addr)) {
            Some(way) => {
                self.lines[set * self.geometry.ways + way].dirty = true;
                true
            }
            None => false,
        }
    }

    /// Install `addr` for `owner`, choosing a victim among `fill_mask` ways.
    /// Returns the evicted line, if a valid line was displaced, or `None`
    /// for fills into empty ways. Returns `Err(())` when the mask allows no
    /// way in this cache (the line simply is not cached — CAT cannot block
    /// the access itself).
    #[allow(clippy::result_unit_err)]
    pub fn fill(
        &mut self,
        addr: Address,
        owner: WorkloadId,
        fill_mask: u64,
        dirty: bool,
    ) -> Result<Option<Evicted>, ()> {
        let set = self.mapper.set(addr);
        let tag = self.mapper.tag(addr);
        self.tick += 1;
        let valid = self.valid_bits[set];
        let way = self
            .repl
            .victim(set, fill_mask, valid, &mut self.rng)
            .ok_or(())?;
        let slot = &mut self.lines[set * self.geometry.ways + way];
        let evicted = if (valid >> way) & 1 == 1 {
            let old = *slot;
            let left = &mut self.occupancy[old.owner as usize];
            *left = left.saturating_sub(1);
            Some(Evicted {
                owner: old.owner,
                dirty: old.dirty,
                addr: self.mapper.compose(old.tag, set),
            })
        } else {
            None
        };
        *slot = Line { tag, owner, dirty };
        self.valid_bits[set] = valid | 1 << way;
        let idx = owner as usize;
        if idx >= self.occupancy.len() {
            self.occupancy.resize(idx + 1, 0);
        }
        self.occupancy[idx] += 1;
        self.repl.touch(set, way, self.tick);
        Ok(evicted)
    }

    /// Invalidate the line holding `addr`, if present. Returns `None` when
    /// no line held it, else `Some(dirty)`: whether the dropped line was
    /// dirty, so the caller can count its write-back.
    pub fn invalidate(&mut self, addr: Address) -> Option<bool> {
        let set = self.mapper.set(addr);
        let way = self.find(set, self.mapper.tag(addr))?;
        self.valid_bits[set] &= !(1 << way);
        let line = self.lines[set * self.geometry.ways + way];
        let left = &mut self.occupancy[line.owner as usize];
        *left = left.saturating_sub(1);
        Some(line.dirty)
    }

    /// Whether the line holding `addr` is dirty, or `None` when no line
    /// holds it. Touches no replacement state.
    pub fn dirty(&self, addr: Address) -> Option<bool> {
        let set = self.mapper.set(addr);
        let way = self.find(set, self.mapper.tag(addr))?;
        Some(self.lines[set * self.geometry.ways + way].dirty)
    }

    /// Valid lines that are dirty.
    pub fn dirty_lines(&self) -> u64 {
        let ways = self.geometry.ways;
        let mut dirty = 0;
        for (set, &valid) in self.valid_bits.iter().enumerate() {
            let row = &self.lines[set * ways..(set + 1) * ways];
            let mut rest = valid;
            while rest != 0 {
                dirty += u64::from(row[rest.trailing_zeros() as usize].dirty);
                rest &= rest - 1;
            }
        }
        dirty
    }

    /// Lines currently owned by `workload`.
    pub fn occupancy_of(&self, workload: WorkloadId) -> u64 {
        self.occupancy.get(workload as usize).copied().unwrap_or(0)
    }

    /// Total valid lines.
    pub fn total_occupancy(&self) -> u64 {
        self.valid_bits.iter().map(|v| v.count_ones() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> CacheLevel {
        // 4 sets x 4 ways x 64B lines = 1 KB
        CacheLevel::new(CacheGeometry::new(1024, 4, 64), ReplacementKind::Lru, 1)
    }

    const FULL: u64 = 0b1111;

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        assert_eq!(c.lookup(0x100, FULL), AccessOutcome::Miss);
        c.fill(0x100, 1, FULL, false).expect("mask nonempty");
        assert!(matches!(c.lookup(0x100, FULL), AccessOutcome::Hit { .. }));
        // same line, different offset still hits
        assert!(matches!(c.lookup(0x13F, FULL), AccessOutcome::Hit { .. }));
        // next line misses
        assert_eq!(c.lookup(0x140, FULL), AccessOutcome::Miss);
    }

    #[test]
    fn conflict_eviction_after_ways_exhausted() {
        let mut c = small_cache();
        // 5 lines mapping to set 0 (stride = sets*line = 256B)
        for i in 0..5u64 {
            c.fill(i * 256, 1, FULL, false).expect("ok");
        }
        // first line evicted (LRU), last four resident
        assert_eq!(c.lookup(0, FULL), AccessOutcome::Miss);
        for i in 1..5u64 {
            assert!(
                matches!(c.lookup(i * 256, FULL), AccessOutcome::Hit { .. }),
                "line {i}"
            );
        }
    }

    #[test]
    fn fill_respects_mask_and_reports_eviction() {
        let mut c = small_cache();
        // fill all 4 ways of set 0 as workload 1
        for i in 0..4u64 {
            assert_eq!(c.fill(i * 256, 1, FULL, false).expect("ok"), None);
        }
        // workload 2 restricted to ways 0-1 must evict workload 1
        let ev = c
            .fill(100 * 256, 2, 0b0011, false)
            .expect("ok")
            .expect("evicts");
        assert_eq!(ev.owner, 1);
        assert_eq!(c.occupancy_of(2), 1);
        assert_eq!(c.occupancy_of(1), 3);
    }

    #[test]
    fn empty_mask_fill_fails_but_lookup_still_works() {
        let mut c = small_cache();
        c.fill(0, 1, FULL, false).expect("ok");
        assert!(c.fill(256, 2, 0, false).is_err());
        assert!(matches!(c.lookup(0, FULL), AccessOutcome::Hit { .. }));
    }

    #[test]
    fn foreign_way_hit_detected() {
        let mut c = small_cache();
        // fill with full mask; line may land in any way (way 0 first)
        c.fill(0, 1, FULL, false).expect("ok");
        // lookup with a mask excluding way 0 -> foreign hit
        match c.lookup(0, 0b1110) {
            AccessOutcome::Hit { way, foreign_way } => {
                assert_eq!(way, 0);
                assert!(foreign_way);
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn dirty_eviction_propagates() {
        let mut c = small_cache();
        c.fill(0, 1, 0b0001, true).expect("ok");
        let ev = c
            .fill(256, 1, 0b0001, false)
            .expect("ok")
            .expect("evicts way 0");
        assert!(ev.dirty);
        assert_eq!(ev.addr, 0);
    }

    #[test]
    fn mark_dirty_only_when_present() {
        let mut c = small_cache();
        assert!(!c.mark_dirty(0x40));
        c.fill(0x40, 1, FULL, false).expect("ok");
        assert!(c.mark_dirty(0x40));
        // eviction of that line reports dirty
        for i in 1..=4u64 {
            c.fill(0x40 + i * 256, 1, FULL, false).expect("ok");
        }
        assert_eq!(c.lookup(0x40, FULL), AccessOutcome::Miss);
    }

    #[test]
    fn invalidate_drops_line_and_occupancy() {
        let mut c = small_cache();
        c.fill(0x80, 3, FULL, true).expect("ok");
        c.fill(0xC0, 3, FULL, false).expect("ok");
        assert_eq!(c.occupancy_of(3), 2);
        assert_eq!((c.dirty(0x80), c.dirty(0xC0)), (Some(true), Some(false)));
        assert_eq!(c.dirty_lines(), 1);
        assert_eq!(c.invalidate(0xC0), Some(false), "clean line");
        assert_eq!(c.invalidate(0x80), Some(true), "dirty line");
        assert_eq!(c.invalidate(0x80), None, "second invalidate is a no-op");
        assert_eq!((c.dirty(0x80), c.dirty_lines()), (None, 0));
        assert_eq!(c.occupancy_of(3), 0);
        assert_eq!(c.lookup(0x80, FULL), AccessOutcome::Miss);
    }

    #[test]
    fn occupancy_tracks_fills_and_evictions() {
        let mut c = small_cache();
        for i in 0..8u64 {
            c.fill(i * 64, 1, FULL, false).expect("ok");
        }
        assert_eq!(c.occupancy_of(1), 8);
        assert_eq!(c.total_occupancy(), 8);
    }

    #[test]
    fn masked_occupancy_converges_to_mask_size() {
        // a workload restricted to 2 ways in every set can own at most
        // 2 * sets lines no matter how much it touches
        let mut c = small_cache();
        let mut rng = Rng64::new(99);
        for _ in 0..10_000 {
            let addr = (rng.next_below(64)) * 64; // 64 distinct lines, 4 sets
            if let AccessOutcome::Miss = c.lookup(addr, 0b0011) {
                c.fill(addr, 7, 0b0011, false).expect("ok");
            }
        }
        assert!(c.occupancy_of(7) <= 2 * 4);
    }
}
