//! The Zipf rank table against the scalar inversion loop it replaces.
//!
//! `Zipf::sample` looks ranks up in a table built once per `(n, θ)` and
//! falls back to the scalar loop inside a guard band around each rank
//! threshold. Both paths must give the same rank for every draw and take
//! exactly one `next_u64` for it. The draws at every band's edges are
//! checked by `stca_util::dist`'s unit tests for the `(n, θ)` listed in
//! `PARAMETERS`; this file checks that the workloads build no other
//! `(n, θ)`, then compares long seeded streams.

use stca_repro::cachesim::HierarchyConfig;
use stca_repro::util::dist::Zipf;
use stca_repro::util::Rng64;
use stca_repro::workloads::{AccessPattern, BenchmarkId, WorkloadSpec};

/// The workloads' `(n, θ)` at `experiment_default` scale (Redis, Knn,
/// Social), plus the sizes the sampler's unit tests use; the same list as
/// `rank_table_matches_scalar_at_every_threshold` in `dist.rs`.
const PARAMETERS: [(u64, f64); 5] = [(6144, 0.5), (768, 1.1), (36, 0.9), (1000, 0.99), (100, 1.0)];

#[test]
fn workloads_build_only_the_checked_parameters() {
    fn collect(pattern: &AccessPattern, out: &mut Vec<(u64, f64)>) {
        match pattern {
            AccessPattern::ZipfReuse {
                footprint_lines,
                theta,
            } => out.push(((*footprint_lines).max(1), *theta)),
            AccessPattern::Microservices { regions, theta, .. } => {
                out.push((*regions as u64, *theta))
            }
            AccessPattern::Phased { phases, .. } => {
                phases.iter().for_each(|p| collect(p, out));
            }
            _ => {}
        }
    }
    let config = HierarchyConfig::experiment_default();
    let mut built = Vec::new();
    for id in BenchmarkId::ALL {
        collect(
            &WorkloadSpec::for_benchmark(id).pattern_for(&config),
            &mut built,
        );
    }
    assert!(!built.is_empty());
    for p in &built {
        assert!(PARAMETERS.contains(p), "{p:?} is not in {PARAMETERS:?}");
    }
}

/// `draws` seeded samples by both paths; the generators must also end in
/// the same state (one `next_u64` per sample on either path).
fn compare_streams(draws: u64) {
    for (n, theta) in PARAMETERS {
        let zipf = Zipf::new(n, theta);
        let seed = n ^ theta.to_bits();
        let (mut fast, mut scalar) = (Rng64::new(seed), Rng64::new(seed));
        for i in 0..draws {
            let (a, b) = (zipf.sample(&mut fast), zipf.sample_scalar(&mut scalar));
            assert_eq!(a, b, "({n}, {theta}) draw {i}");
        }
        assert_eq!(fast.next_u64(), scalar.next_u64(), "({n}, {theta})");
    }
}

#[test]
fn seeded_draws_match_the_scalar_path() {
    compare_streams(100_000);
}

/// 10^8 draws per parameter pair: about 25 s in release on a 2-vCPU host. CI runs it
/// with `cargo test --release --test zipf_table -- --ignored`.
#[test]
#[ignore]
fn long_sweep_matches_the_scalar_path() {
    compare_streams(100_000_000);
}
