//! 64-bit FNV-1a: the one hash behind spec fingerprints and stage keys,
//! artifact, scenario and decision-log hashes, and cascade fit
//! fingerprints.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

/// A streaming FNV-1a hasher: feeding bytes in pieces gives the hash of
/// their concatenation, and a `u64` word hashes as its eight
/// little-endian bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of no bytes.
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Fold in `bytes`, one at a time.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    /// Fold in `word` as its eight little-endian bytes.
    #[inline]
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // published FNV-1a 64 test vectors
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv1a::new();
        h.bytes(b"foo");
        h.bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut w = Fnv1a::new();
        w.word(0x0102_0304_0506_0708);
        assert_eq!(w.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    #[test]
    fn word_order_matters() {
        let words = |ws: [u64; 3]| {
            let mut h = Fnv1a::new();
            ws.into_iter().for_each(|w| h.word(w));
            h.finish()
        };
        assert_ne!(words([1, 2, 3]), words([3, 2, 1]));
    }
}
