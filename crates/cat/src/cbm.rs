//! Capacity bitmasks — the unit of cache allocation in CAT.
//!
//! A CBM marks which LLC ways a class of service may *fill into*. Intel CAT
//! requires the set bits to be contiguous; the hardware rejects writes of
//! non-contiguous masks to the `IA32_L3_MASK_n` MSRs, and this type enforces
//! the same rule at construction.

use crate::CatError;

/// A validated, contiguous capacity bitmask over up to 64 cache ways.
///
/// Bit `i` set means way `i` may be used as a fill victim by the owning COS.
/// Hits are not restricted by the mask — that matches CAT semantics, where a
/// line already resident in a foreign way still hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CapacityBitmask {
    bits: u64,
    ways: u8,
}

impl CapacityBitmask {
    /// Validate and wrap a raw mask for a cache with `ways` ways.
    pub fn new(bits: u64, ways: usize) -> Result<Self, CatError> {
        assert!((1..=64).contains(&ways), "way count must be 1..=64");
        if bits == 0 {
            return Err(CatError::EmptyMask);
        }
        let highest = 63 - bits.leading_zeros() as usize;
        if highest >= ways {
            return Err(CatError::OutOfRange {
                ways,
                highest_bit: highest,
            });
        }
        // Contiguity: after shifting out trailing zeros, the mask must be
        // all-ones up to its width.
        let shifted = bits >> bits.trailing_zeros();
        if (shifted & shifted.wrapping_add(1)) != 0 {
            return Err(CatError::NonContiguous);
        }
        Ok(CapacityBitmask {
            bits,
            ways: ways as u8,
        })
    }

    /// Build from an `(offset, length)` allocation setting.
    pub fn from_span(offset: usize, length: usize, ways: usize) -> Result<Self, CatError> {
        if length == 0 {
            return Err(CatError::EmptyMask);
        }
        if offset + length > ways {
            return Err(CatError::OutOfRange {
                ways,
                highest_bit: offset + length - 1,
            });
        }
        let bits = if length == 64 {
            u64::MAX
        } else {
            ((1u64 << length) - 1) << offset
        };
        Ok(CapacityBitmask {
            bits,
            ways: ways as u8,
        })
    }

    /// Mask covering every way of the cache. Way counts are clamped into the
    /// hardware's 1..=64 range, so construction cannot fail.
    pub fn full(ways: usize) -> Self {
        let ways = ways.clamp(1, 64);
        let bits = if ways == 64 {
            u64::MAX
        } else {
            (1u64 << ways) - 1
        };
        CapacityBitmask {
            bits,
            ways: ways as u8,
        }
    }

    /// Raw bit pattern.
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Way count of the cache this mask was validated against.
    #[inline]
    pub fn cache_ways(&self) -> usize {
        self.ways as usize
    }

    /// Lowest way index covered (the `offset` of the span).
    #[inline]
    pub fn offset(&self) -> usize {
        self.bits.trailing_zeros() as usize
    }

    /// Number of ways covered (the `length` of the span).
    #[inline]
    pub fn length(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether way `w` is covered.
    #[inline]
    pub fn covers(&self, w: usize) -> bool {
        w < 64 && (self.bits >> w) & 1 == 1
    }

    /// Whether `other` is entirely contained in this mask.
    #[inline]
    pub fn contains(&self, other: &CapacityBitmask) -> bool {
        self.bits & other.bits == other.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_masks_accepted() {
        for (bits, ways) in [
            (0b1u64, 4),
            (0b1100, 4),
            (0xF, 4),
            (0xFF00, 16),
            (u64::MAX, 64),
        ] {
            assert!(CapacityBitmask::new(bits, ways).is_ok(), "{bits:#x}");
        }
    }

    #[test]
    fn non_contiguous_rejected() {
        assert_eq!(CapacityBitmask::new(0b101, 4), Err(CatError::NonContiguous));
        assert_eq!(
            CapacityBitmask::new(0b10011, 8),
            Err(CatError::NonContiguous)
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(CapacityBitmask::new(0, 4), Err(CatError::EmptyMask));
        assert_eq!(
            CapacityBitmask::from_span(2, 0, 8),
            Err(CatError::EmptyMask)
        );
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            CapacityBitmask::new(0b1_0000, 4),
            Err(CatError::OutOfRange {
                ways: 4,
                highest_bit: 4
            })
        ));
        assert!(CapacityBitmask::from_span(3, 2, 4).is_err());
    }

    #[test]
    fn span_roundtrip() {
        let m = CapacityBitmask::from_span(2, 3, 8).expect("valid");
        assert_eq!(m.offset(), 2);
        assert_eq!(m.length(), 3);
        assert_eq!(m.bits(), 0b11100);
        assert!(m.covers(2) && m.covers(3) && m.covers(4));
        assert!(!m.covers(1) && !m.covers(5));
    }

    #[test]
    fn contains_logic() {
        let big = CapacityBitmask::from_span(0, 6, 8).expect("valid");
        let small = CapacityBitmask::from_span(1, 3, 8).expect("valid");
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
    }

    #[test]
    fn full_mask() {
        let m = CapacityBitmask::full(20);
        assert_eq!(m.length(), 20);
        assert_eq!(m.offset(), 0);
    }

    #[test]
    fn sixty_four_way_full() {
        let m = CapacityBitmask::full(64);
        assert_eq!(m.length(), 64);
        assert_eq!(m.bits(), u64::MAX);
    }
}
