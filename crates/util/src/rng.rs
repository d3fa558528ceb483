//! Deterministic random number generation.
//!
//! The cache simulator executes tens of millions of memory accesses per
//! experiment, so the hot path uses a hand-rolled xoshiro256++ generator
//! rather than going through the `rand` trait machinery; everything the
//! workspace needs (uniform, gaussian, exponential, shuffles, sampling)
//! lives directly on [`Rng64`].
//!
//! Seeds are derived with SplitMix64 so that a single experiment seed can fan
//! out into independent per-component streams (`derive_stream`).

/// SplitMix64 step, used for seeding and stream derivation.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ deterministic generator.
///
/// Not cryptographic; chosen for speed and excellent statistical quality in
/// simulation workloads.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Create a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start in the all-zero state.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x1;
        }
        Rng64 { s }
    }

    /// Derive an independent stream for a named sub-component. Streams with
    /// different tags are statistically independent of each other and of the
    /// parent.
    pub fn derive_stream(&self, tag: u64) -> Rng64 {
        let mut sm = self.s[0] ^ self.s[2] ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        if s.iter().all(|&x| x == 0) {
            s[0] = tag | 1;
        }
        Rng64 { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `(0, 1]` — safe as a log() argument.
    #[inline]
    fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Uniform integer in `[0, bound)` using Lemire's method.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform usize in `[0, bound)`.
    #[inline]
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform f64 in `[lo, hi)`.
    #[inline]
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal via Marsaglia polar method.
    pub fn next_gaussian(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Exponential draw with the given rate (mean `1/rate`).
    #[inline]
    pub fn next_exp(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        -self.next_f64_open().ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k <= n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        // partial Fisher-Yates: first k positions are the sample
        for i in 0..k {
            let j = i + self.next_index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// A forkable source of *tagged* random streams.
///
/// `SeedStream` is the randomness discipline for parallel code: a stream is
/// immutable, and every unit of work derives its own independent [`Rng64`]
/// from a tag (`stream.rng(task_index)`), so results do not depend on the
/// order in which tasks draw random numbers — and therefore not on thread
/// count or scheduling. Contrast with threading one `&mut Rng64` through a
/// loop, where any reordering changes every subsequent draw.
///
/// Tags only need to be unique within one stream; nested components fork a
/// sub-stream first (`stream.derive(COMPONENT_TAG)`) so their tag spaces
/// cannot collide.
#[derive(Debug, Clone)]
pub struct SeedStream {
    root: Rng64,
}

impl SeedStream {
    /// Stream rooted at a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeedStream {
            root: Rng64::new(seed),
        }
    }

    /// The tagged generator for one unit of work.
    pub fn rng(&self, tag: u64) -> Rng64 {
        self.root.derive_stream(tag)
    }

    /// Fork an independent sub-stream for a nested component.
    pub fn derive(&self, tag: u64) -> SeedStream {
        SeedStream {
            root: self.root.derive_stream(tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derived_streams_are_independent() {
        let root = Rng64::new(7);
        let mut s1 = root.derive_stream(1);
        let mut s2 = root.derive_stream(2);
        let same = (0..32).filter(|_| s1.next_u64() == s2.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng64::new(9);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Rng64::new(11);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng64::new(13);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.next_gaussian();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng64::new(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_exp(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::new(23);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn seed_stream_is_order_free() {
        let stream = SeedStream::new(99);
        // drawing stream 5 then 3 equals drawing 3 then 5
        let a5: Vec<u64> = {
            let mut r = stream.rng(5);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let a3: Vec<u64> = {
            let mut r = stream.rng(3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b3: Vec<u64> = {
            let mut r = stream.rng(3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b5: Vec<u64> = {
            let mut r = stream.rng(5);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a5, b5);
        assert_eq!(a3, b3);
        // sub-streams with the same local tags stay independent
        let mut x = stream.derive(1).rng(7);
        let mut y = stream.derive(2).rng(7);
        let same = (0..32).filter(|_| x.next_u64() == y.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Rng64::new(29);
        let s = rng.sample_indices(100, 30);
        assert_eq!(s.len(), 30);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 30);
        assert!(t.iter().all(|&i| i < 100));
    }
}
