//! Probability distributions for workload and arrival modeling.
//!
//! Service-time and inter-arrival distributions in the paper's test
//! environment are not all exponential: Spark stages are close to
//! deterministic with jitter, microservice chains are right-skewed
//! (lognormal-ish), and key-value lookups are nearly constant with a heavy
//! tail. The [`Distribution`] enum covers those shapes and keeps experiment
//! configuration serializable as plain data.

use crate::rng::Rng64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A one-dimensional sampling distribution over non-negative values.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Always the same value.
    Deterministic(f64),
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Exponential with the given mean.
    Exponential { mean: f64 },
    /// Lognormal parameterized by the *target* mean and the sigma of the
    /// underlying normal (shape). Heavier `sigma` means a heavier tail.
    LogNormal { mean: f64, sigma: f64 },
    /// Two-branch hyperexponential: with probability `p` the mean is
    /// `mean_a`, else `mean_b`. Captures bimodal query mixes.
    HyperExp { p: f64, mean_a: f64, mean_b: f64 },
    /// Bounded Pareto with shape `alpha` on `[lo, hi]`; heavy-tailed
    /// service demands.
    BoundedPareto { alpha: f64, lo: f64, hi: f64 },
}

impl Distribution {
    /// Draw one sample.
    pub fn sample(&self, rng: &mut Rng64) -> f64 {
        match *self {
            Distribution::Deterministic(v) => v,
            Distribution::Uniform { lo, hi } => rng.next_range(lo, hi),
            Distribution::Exponential { mean } => rng.next_exp(1.0 / mean),
            Distribution::LogNormal { mean, sigma } => {
                // mean of lognormal = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2
                let mu = mean.ln() - sigma * sigma / 2.0;
                (mu + sigma * rng.next_gaussian()).exp()
            }
            Distribution::HyperExp { p, mean_a, mean_b } => {
                let mean = if rng.next_bool(p) { mean_a } else { mean_b };
                rng.next_exp(1.0 / mean)
            }
            Distribution::BoundedPareto { alpha, lo, hi } => {
                let u = rng.next_f64();
                let la = lo.powf(alpha);
                let ha = hi.powf(alpha);
                let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
                x.clamp(lo, hi)
            }
        }
    }

    /// Analytic mean of the distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            Distribution::Deterministic(v) => v,
            Distribution::Uniform { lo, hi } => 0.5 * (lo + hi),
            Distribution::Exponential { mean } => mean,
            Distribution::LogNormal { mean, .. } => mean,
            Distribution::HyperExp { p, mean_a, mean_b } => p * mean_a + (1.0 - p) * mean_b,
            Distribution::BoundedPareto { alpha, lo, hi } => {
                if (alpha - 1.0).abs() < 1e-12 {
                    let la = lo.powf(alpha);
                    let ha = hi.powf(alpha);
                    // limit form for alpha == 1
                    la * (hi / lo).ln() / (1.0 - la / ha)
                } else {
                    let la = lo.powf(alpha);
                    let ha = hi.powf(alpha);
                    (la / (1.0 - la / ha))
                        * (alpha / (alpha - 1.0))
                        * (1.0 / lo.powf(alpha - 1.0) - 1.0 / hi.powf(alpha - 1.0))
                }
            }
        }
    }

    /// Scale the distribution so its mean becomes `target_mean`, preserving
    /// shape. Used to normalize arrival rates relative to service times
    /// (Table 2 expresses inter-arrival as a percentage of service time).
    pub fn scaled_to_mean(&self, target_mean: f64) -> Distribution {
        assert!(target_mean > 0.0);
        let k = target_mean / self.mean();
        self.scaled(k)
    }

    /// Multiply all samples by `k` (k > 0).
    pub fn scaled(&self, k: f64) -> Distribution {
        assert!(k > 0.0, "scale must be positive");
        match *self {
            Distribution::Deterministic(v) => Distribution::Deterministic(v * k),
            Distribution::Uniform { lo, hi } => Distribution::Uniform {
                lo: lo * k,
                hi: hi * k,
            },
            Distribution::Exponential { mean } => Distribution::Exponential { mean: mean * k },
            Distribution::LogNormal { mean, sigma } => Distribution::LogNormal {
                mean: mean * k,
                sigma,
            },
            Distribution::HyperExp { p, mean_a, mean_b } => Distribution::HyperExp {
                p,
                mean_a: mean_a * k,
                mean_b: mean_b * k,
            },
            Distribution::BoundedPareto { alpha, lo, hi } => Distribution::BoundedPareto {
                alpha,
                lo: lo * k,
                hi: hi * k,
            },
        }
    }
}

/// Zipf sampler over ranks `0..n` with parameter `theta` (0 = uniform,
/// larger = more skew). Used for key popularity in the Redis/YCSB workload
/// model and for reuse-distance skew in data-reuse-heavy benchmarks.
///
/// The draw is inversion with rounding, after Hörmann & Derflinger's
/// rejection-inversion: a uniform `u` on `[h(0.5) − 1, h(n − 0.5))` maps
/// through the inverse of the integrated hat `h(x) = ∫(1 + t)^−θ dt` to
/// `x = h⁻¹(u)`, and the rank is `k = round(x)`, clamped to `0..n`. Their
/// rejection step keeps `k` outright when `k − x ≤ s`, with
/// `s = 1 − h⁻¹(h(1.5) − 1)`, and otherwise tests `u` against the rank's
/// exact mass. Rounding gives `k − x ≤ 0.5`, so when `s > 0.5` and `x`
/// never falls below `−0.5` the rejection branch cannot fire: each sample
/// is one 53-bit draw mapped to a rank that grows with the draw. The
/// workloads' `(n, θ)` of (6144, 0.5), (36, 0.9) and (768, 1.1) have `s`
/// of 0.83, 1.04 and 1.12.
///
/// For such parameters [`Zipf::new`] shares one rank table per `(n, θ)`
/// across the process, and [`Zipf::sample`] looks the rank up
/// instead of calling `powf`. A draw inside the table's guard band around
/// a rank boundary runs the scalar loop ([`Zipf::sample_scalar`]) instead,
/// so every sample equals the scalar one bit for bit and takes exactly one
/// `next_u64`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    // precomputed constants
    hx0: f64,
    hxm: f64,
    s: f64,
    table: Option<Arc<RankTable>>,
}

/// `2^53`: the number of distinct draws behind one `next_f64`.
const DRAWS: u64 = 1 << 53;

/// Most ranks a [`RankTable`] covers (8 bytes a rank plus a guide of 4
/// bytes a bucket, at most `4n` buckets); larger samplers stay scalar.
const TABLE_MAX_RANKS: u64 = 1 << 16;

/// How far `s` must exceed 0.5, and `x` at the lowest draw exceed −0.5,
/// for [`RankTable::build`] to treat acceptance as certain. It is far
/// above the pipeline's float error (`build` also requires four error
/// bounds to fit in it) and far below the real gaps: `x` at the lowest
/// draw is −0.475 at θ = 0.5 and lies about `0.045θ` above −0.5 as θ
/// goes to 0.
const ACCEPT_MARGIN: f64 = 1e-6;

impl Zipf {
    /// Create a Zipf sampler over `n` items with skew `theta > 0`,
    /// `theta != 1` handled via the generalized harmonic form.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1);
        assert!(theta > 0.0, "theta must be positive");
        let q = theta;
        let h = |x: f64| -> f64 {
            if (q - 1.0).abs() < 1e-9 {
                (1.0 + x).ln()
            } else {
                ((1.0 + x).powf(1.0 - q) - 1.0) / (1.0 - q)
            }
        };
        let hx0 = h(0.5) - 1.0; // h(x0) with shifted origin
        let hxm = h(n as f64 - 0.5);
        let s = 1.0 - Self::h_inv_static(q, h(1.5) - 1.0);
        let mut zipf = Zipf {
            n,
            theta: q,
            hx0,
            hxm,
            s,
            table: None,
        };
        zipf.table = shared_table(&zipf);
        zipf
    }

    fn h_inv_static(q: f64, x: f64) -> f64 {
        if (q - 1.0).abs() < 1e-9 {
            x.exp() - 1.0
        } else {
            (1.0 + x * (1.0 - q)).powf(1.0 / (1.0 - q)) - 1.0
        }
    }

    fn h(&self, x: f64) -> f64 {
        if (self.theta - 1.0).abs() < 1e-9 {
            (1.0 + x).ln()
        } else {
            ((1.0 + x).powf(1.0 - self.theta) - 1.0) / (1.0 - self.theta)
        }
    }

    /// Draw a rank in `[0, n)`; rank 0 is the most popular. Equal, draw
    /// for draw, to [`Zipf::sample_scalar`].
    #[inline]
    pub fn sample(&self, rng: &mut Rng64) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let m = rng.next_u64() >> 11;
        match self.table.as_deref().and_then(|t| t.lookup(m)) {
            Some(k) => k,
            None => self.finish_scalar(m, rng),
        }
    }

    /// Draw a rank by the scalar inversion loop alone: the reference that
    /// the rank table reproduces.
    pub fn sample_scalar(&self, rng: &mut Rng64) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let m = rng.next_u64() >> 11;
        self.finish_scalar(m, rng)
    }

    /// The scalar loop, starting from the 53-bit draw `m`.
    fn finish_scalar(&self, mut m: u64, rng: &mut Rng64) -> u64 {
        loop {
            if let Some(k) = self.scalar_rank(m) {
                return k;
            }
            m = rng.next_u64() >> 11;
        }
    }

    /// One pass of the scalar loop for the 53-bit draw `m` (the draw
    /// behind [`Rng64::next_f64`]): the rank, or `None` when the
    /// rejection test refuses it.
    fn scalar_rank(&self, m: u64) -> Option<u64> {
        let (u, x, k) = self.invert(m);
        if k - x <= self.s || u >= self.h(k + 0.5) - (1.0 + k).powf(-self.theta) {
            Some(k as u64)
        } else {
            None
        }
    }

    /// `(u, x, k)` of the scalar pipeline for the 53-bit draw `m`, in the
    /// float operations [`Rng64::next_f64`] and the loop perform.
    #[inline]
    fn invert(&self, m: u64) -> (f64, f64, f64) {
        let f = m as f64 * (1.0 / DRAWS as f64);
        let u = self.hx0 + f * (self.hxm - self.hx0);
        let x = Self::h_inv_static(self.theta, u);
        let k = (x + 0.5).floor().clamp(0.0, (self.n - 1) as f64);
        (u, x, k)
    }

    /// A bound on how far the computed `x`, and `x + 0.5` as rounded,
    /// can lie from their real-arithmetic values, for any draw. It counts
    /// each rounding as a full ulp rather than a half and libm's `pow`
    /// and `exp` as 2 ulp rather than about 1:
    /// - `f·(hxm − hx0)` moves `u` by at most `ε(hxm − hx0)`, and
    ///   `hx0 + ·` and `u·(1 − θ)` by at most `ε·max|u|` each; `h⁻¹`
    ///   stretches that by its slope `(1 + x)^θ ≤ (n + 0.5)^θ`;
    /// - `1 + u(1 − θ)` is off by a relative `ε`, which the power
    ///   `1/(1 − θ)` multiplies; `pow` adds `2ε`, all relative to
    ///   `1 + x ≤ n + 0.5`;
    /// - `p − 1` and `x + 0.5` add `ε(n + 0.5)` each.
    fn error_bound(&self) -> f64 {
        let eps = f64::EPSILON;
        let top = self.n as f64 + 0.5;
        let span = self.hxm - self.hx0;
        let u_max = self.hx0.abs().max(self.hxm.abs());
        let power = if (self.theta - 1.0).abs() < 1e-9 {
            1.0
        } else {
            (1.0 / (1.0 - self.theta)).abs()
        };
        top.powf(self.theta) * eps * (span + 2.0 * u_max)
            + top * eps * (power + 2.0)
            + 2.0 * top * eps
    }
}

/// The table of one `(n, θ)`, built on first use and shared by every
/// later sampler with the same parameters (`AccessGenerator::new` builds a
/// sampler for each station of each experiment).
fn shared_table(zipf: &Zipf) -> Option<Arc<RankTable>> {
    type Memo = HashMap<(u64, u64), Option<Arc<RankTable>>>;
    static TABLES: OnceLock<Mutex<Memo>> = OnceLock::new();
    // a panic inside `build` inserts nothing, so a poisoned memo is whole
    let mut tables = TABLES
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    tables
        .entry((zipf.n, zipf.theta.to_bits()))
        .or_insert_with(|| RankTable::build(zipf).map(Arc::new))
        .clone()
}

/// The scalar rank map of one `(n, θ)` [`Zipf`], tabulated: the rank of
/// a 53-bit draw `m` is the number of rank thresholds at or below `m`.
/// Threshold `k` is the smallest draw whose scalar rank is at least `k`,
/// found by binary search with the same float code
/// [`Zipf::sample_scalar`] runs. A guide array indexed by the high bits
/// of `m` holds the rank at each bucket's start, so a lookup scans
/// forward past a fraction of a threshold on average.
///
/// **Why the table is exact outside its guard band.** Let `X(m)` be the
/// pipeline `h⁻¹(hx0 + m·2⁻⁵³·(hxm − hx0))` in real arithmetic, with the
/// sampler's own float constants, and `x̂(m)` what floats compute. `X`
/// increases strictly, with slope `2⁻⁵³·(hxm − hx0)·(1 + X)^θ` per draw;
/// the table exists only where `X ≥ −0.5`, so the slope is at least
/// `σ = 2⁻⁵³·(hxm − hx0)·0.5^θ`. `Zipf::error_bound` gives a `Δ` that
/// bounds both `|x̂ − X|` and the rounding of `x̂ + 0.5`. So the scalar
/// rank is at least `k` wherever `X ≥ k − 0.5 + Δ` and below `k` wherever
/// `X < k − 0.5 − Δ`. Between the two lies a window of draws at most
/// `2Δ/σ` wide, and wherever rounding may go either way the binary
/// search still returns a draw inside that window or one past its end.
/// Any guard `G` above the window's width therefore makes every draw at
/// least `G` away from the threshold (`m < t − G` or `m ≥ t + G`) take
/// the same side of it on both paths. The table takes
/// `G = 2(⌈2Δ/σ⌉ + 1)`; for the workloads' parameters that is 2,604 to
/// 104,990 draws out of 2⁵³, so the scalar fallback runs at most about
/// once in 5·10⁷ samples.
///
/// Building the table also checks, for every threshold, that the draws
/// just outside its band round to the ranks on either side, and refuses
/// the table if thresholds come closer than `2G`.
struct RankTable {
    /// `bounds[k]` is threshold `k` for `1 ≤ k < n`; `bounds[0]` is
    /// `−G` (wrapping, so no draw is within `G` above it) and
    /// `bounds[n]` is `u64::MAX` (no draw is within `G` below it).
    bounds: Vec<u64>,
    /// Rank at the start of each bucket of draws.
    guide: Vec<u32>,
    /// A draw's bucket is `m >> shift`.
    shift: u32,
    guard: u64,
}

impl std::fmt::Debug for RankTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankTable")
            .field("ranks", &(self.bounds.len() - 1))
            .field("buckets", &self.guide.len())
            .field("guard", &self.guard)
            .finish()
    }
}

impl RankTable {
    /// Tabulate `zipf`, or `None` when its rejection test could fire, it
    /// has more than `TABLE_MAX_RANKS` ranks, or a threshold check fails.
    fn build(zipf: &Zipf) -> Option<RankTable> {
        let n = zipf.n;
        if !(2..=TABLE_MAX_RANKS).contains(&n) || zipf.s <= 0.5 + ACCEPT_MARGIN {
            return None;
        }
        let delta = zipf.error_bound();
        if 4.0 * delta > ACCEPT_MARGIN || zipf.invert(0).1 < -0.5 + ACCEPT_MARGIN {
            return None;
        }
        let slope = (zipf.hxm - zipf.hx0) * 0.5f64.powf(zipf.theta) / DRAWS as f64;
        let window = (2.0 * delta / slope).ceil();
        if !window.is_finite() || window >= (1u64 << 40) as f64 {
            return None;
        }
        let guard = 2 * (window as u64 + 1);
        let rank = |m: u64| zipf.invert(m).2 as u64;
        let mut bounds = Vec::with_capacity(n as usize + 1);
        bounds.push(0u64.wrapping_sub(guard));
        for k in 1..n {
            // invariant: rank(lo) < k <= rank(hi)
            let (mut lo, mut hi) = (0, DRAWS - 1);
            if rank(lo) >= k || rank(hi) < k {
                return None;
            }
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if rank(mid) >= k {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            let crowded = k > 1 && hi <= bounds[k as usize - 1] + 2 * guard;
            if crowded
                || hi <= guard
                || hi + guard >= DRAWS
                || rank(hi - guard - 1) != k - 1
                || rank(hi + guard) != k
            {
                return None;
            }
            bounds.push(hi);
        }
        bounds.push(u64::MAX);
        let bits = (2 * n).next_power_of_two().trailing_zeros();
        let shift = 53 - bits;
        let mut k = 0;
        let guide = (0..1u64 << bits)
            .map(|bucket| {
                while bounds[k + 1] <= bucket << shift {
                    k += 1;
                }
                k as u32
            })
            .collect();
        Some(RankTable {
            bounds,
            guide,
            shift,
            guard,
        })
    }

    /// Rank of the 53-bit draw `m`, or `None` when `m` lies within the
    /// guard band of a threshold.
    #[inline]
    fn lookup(&self, m: u64) -> Option<u64> {
        let mut k = self.guide[(m >> self.shift) as usize] as usize;
        while self.bounds[k + 1] <= m {
            k += 1;
        }
        let clear =
            m.wrapping_sub(self.bounds[k]) >= self.guard && self.bounds[k + 1] - m > self.guard;
        clear.then_some(k as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: &Distribution, n: usize, seed: u64) -> f64 {
        let mut rng = Rng64::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Distribution::Deterministic(3.5);
        let mut rng = Rng64::new(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
    }

    #[test]
    fn exponential_sample_mean_matches() {
        let d = Distribution::Exponential { mean: 2.0 };
        let m = sample_mean(&d, 100_000, 2);
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn lognormal_sample_mean_matches() {
        let d = Distribution::LogNormal {
            mean: 5.0,
            sigma: 0.8,
        };
        let m = sample_mean(&d, 200_000, 3);
        assert!((m - 5.0).abs() < 0.15, "mean {m}");
    }

    #[test]
    fn hyperexp_mean() {
        let d = Distribution::HyperExp {
            p: 0.3,
            mean_a: 1.0,
            mean_b: 10.0,
        };
        assert!((d.mean() - 7.3).abs() < 1e-12);
        let m = sample_mean(&d, 200_000, 4);
        assert!((m - 7.3).abs() < 0.2, "mean {m}");
    }

    #[test]
    fn bounded_pareto_in_range() {
        let d = Distribution::BoundedPareto {
            alpha: 1.5,
            lo: 1.0,
            hi: 100.0,
        };
        let mut rng = Rng64::new(5);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=100.0).contains(&x));
        }
        let m = sample_mean(&d, 200_000, 6);
        assert!(
            (m - d.mean()).abs() / d.mean() < 0.05,
            "mean {m} vs {}",
            d.mean()
        );
    }

    #[test]
    fn scaled_to_mean_preserves_shape() {
        let d = Distribution::HyperExp {
            p: 0.5,
            mean_a: 1.0,
            mean_b: 3.0,
        };
        let s = d.scaled_to_mean(10.0);
        assert!((s.mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_most_popular_rank_dominates() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng64::new(7);
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 should beat rank 10");
        assert!(counts[0] > counts[100] * 3);
        // all samples in range (indexing would have panicked otherwise)
    }

    #[test]
    fn zipf_single_item() {
        let z = Zipf::new(1, 0.9);
        let mut rng = Rng64::new(8);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    fn zipf_theta_one_regression() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng64::new(9);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    /// The table against the scalar loop at the draws just inside and
    /// just outside every threshold's guard band, for the workloads'
    /// `(n, θ)` at `experiment_default` scale (Redis, Knn, Social) and the
    /// sizes the tests above use. `tests/zipf_table.rs` checks that the
    /// workloads build no other `(n, θ)`.
    #[test]
    fn rank_table_matches_scalar_at_every_threshold() {
        for (n, theta) in [(6144, 0.5), (768, 1.1), (36, 0.9), (1000, 0.99), (100, 1.0)] {
            let zipf = Zipf::new(n, theta);
            let table = zipf
                .table
                .as_deref()
                .unwrap_or_else(|| panic!("({n}, {theta}) has no table"));
            let g = table.guard;
            assert!(g >= 2, "({n}, {theta}) guard {g}");
            let thresholds = &table.bounds[1..table.bounds.len() - 1];
            assert_eq!(thresholds.len() as u64, n - 1);
            for (i, &t) in thresholds.iter().enumerate() {
                let k = i as u64 + 1;
                // the threshold is where the scalar rank reaches k
                let at = |m| zipf.scalar_rank(m);
                assert_eq!(at(t - 1), Some(k - 1), "({n}, {theta}) rank {k}");
                assert_eq!(at(t), Some(k), "({n}, {theta}) rank {k}");
                for d in [0, 1, g - 1, g, g + 1] {
                    for m in [t - d, t + d] {
                        let scalar = at(m).expect("acceptance is certain");
                        let looked_up = table.lookup(m);
                        // the band is [t - g, t + g): inside it the sampler
                        // falls back, outside it the table answers
                        let inside = m + g >= t && m < t + g;
                        assert_eq!(looked_up.is_none(), inside, "({n}, {theta}) m = {m}");
                        if let Some(rank) = looked_up {
                            assert_eq!(rank, scalar, "({n}, {theta}) m = {m}");
                        }
                    }
                }
            }
            // the extreme draws
            for m in [0, DRAWS - 1] {
                assert_eq!(
                    table.lookup(m),
                    zipf.scalar_rank(m),
                    "({n}, {theta}) m = {m}"
                );
            }
        }
    }
}
