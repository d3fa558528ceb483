//! Address decomposition — the front of the Figure-1 data path.
//!
//! A memory access carries a byte address; the cache splits it into an
//! in-line *offset*, a *set index* and a *tag*. The simulator operates on
//! line-granular addresses, so the offset is dropped at the boundary.

/// A byte address in the simulated address space.
pub type Address = u64;

/// What kind of access is being performed. Loads and stores flow through the
/// data caches; instruction fetches flow through L1i (then the shared L2/LLC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data read.
    Load,
    /// Data write.
    Store,
    /// Instruction fetch.
    IFetch,
}

/// Splits byte addresses into (tag, set, offset) for a given geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapper {
    offset_bits: u32,
    set_bits: u32,
}

impl AddressMapper {
    /// Build a mapper for `line_size`-byte lines and `sets` sets. Both must
    /// be powers of two (as in real caches).
    pub fn new(line_size: usize, sets: usize) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        AddressMapper {
            offset_bits: line_size.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
        }
    }

    /// In-line byte offset.
    #[inline]
    pub fn offset(&self, addr: Address) -> u64 {
        addr & ((1 << self.offset_bits) - 1)
    }

    /// Set index.
    #[inline]
    pub fn set(&self, addr: Address) -> usize {
        ((addr >> self.offset_bits) & ((1 << self.set_bits) - 1)) as usize
    }

    /// Tag (the address bits above offset and set index).
    #[inline]
    pub fn tag(&self, addr: Address) -> u64 {
        addr >> (self.offset_bits + self.set_bits)
    }

    /// Reconstruct a byte address from tag and set (offset zero). Inverse of
    /// the decomposition, used by tests and by victim writeback bookkeeping.
    #[inline]
    pub fn compose(&self, tag: u64, set: usize) -> Address {
        (tag << (self.offset_bits + self.set_bits)) | ((set as u64) << self.offset_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose_compose_roundtrip() {
        let m = AddressMapper::new(64, 1024);
        for addr in [0u64, 64, 4096, 0xDEAD_BEC0, !63] {
            let tag = m.tag(addr);
            let set = m.set(addr);
            let recomposed = m.compose(tag, set);
            assert_eq!(m.tag(recomposed), tag);
            assert_eq!(m.set(recomposed), set);
            assert_eq!(recomposed, addr & !63, "offset bits cleared");
        }
    }

    #[test]
    fn consecutive_lines_hit_consecutive_sets() {
        let m = AddressMapper::new(64, 256);
        assert_eq!(m.set(0), 0);
        assert_eq!(m.set(64), 1);
        assert_eq!(m.set(64 * 255), 255);
        assert_eq!(m.set(64 * 256), 0, "wraps around");
        assert_eq!(m.tag(64 * 256), 1, "tag increments on wrap");
    }

    #[test]
    fn offset_extraction() {
        let m = AddressMapper::new(64, 64);
        assert_eq!(m.offset(0x7F), 0x3F);
        assert_eq!(m.offset(0x40), 0);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_sets_rejected() {
        AddressMapper::new(64, 100);
    }
}
