//! Order statistics over run and pass samples.

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the default "exclusive"
/// method, which extrapolates for tiny samples), so the spreads this tool
/// reports are the ones a reviewer recomputes from the raw runs. A single
/// sample has no spread: both quartiles are the lone value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len() as i64;
    if ld < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |i: i64| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (s[(j - 1) as usize], s[j as usize]);
        (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
    };
    (at(1), at(3))
}

/// Percentiles a timing may be reported at, lowest first, as the share
/// `1/d` of samples beyond them: p50, p90, p99, p99.9, p99.99.
const LADDER: [usize; 5] = [2, 10, 100, 1_000, 10_000];

/// Samples that must lie beyond a reported percentile.
const BEYOND: usize = 10;

/// The highest percentile of the ladder with at least ten of `n` samples
/// beyond it, or the median when even that is unsupported (`n < 20`):
/// the tail a timing is reported at, so that no tail rests on a handful
/// of samples.
pub fn tail_quantile(n: usize) -> f64 {
    let d = LADDER
        .iter()
        .rev()
        .copied()
        .find(|d| n / d >= BEYOND)
        .unwrap_or(LADDER[0]);
    1.0 - 1.0 / d as f64
}

/// The `q`-quantile of already-sorted samples, linearly interpolated
/// between closest ranks; 0 for no samples.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    match s.len() {
        0 => 0.0,
        1 => s[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        for (n, q) in [
            (0, 0.50),
            (19, 0.50),
            (20, 0.50),
            (99, 0.50),
            (100, 0.90),
            (999, 0.90),
            (1_000, 0.99),
            (9_999, 0.99),
            (10_000, 0.999),
            (100_000, 0.9999),
            (10_000_000, 0.9999),
        ] {
            assert!(
                (tail_quantile(n) - q).abs() < 1e-12,
                "n = {n}: {}",
                tail_quantile(n)
            );
        }
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 1.0), 5.0);
        assert_eq!(quantile_sorted(&s, 0.125), 1.5);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }
}
