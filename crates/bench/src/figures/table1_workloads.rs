//! Table 1 — benchmark cache-access characterization.
//!
//! Runs each Table-1 benchmark solo on the default platform (private 2-way
//! allocation, then a full-cache allocation) and prints its measured cache
//! behaviour next to the paper's qualitative description: LLC miss ratio,
//! L1d hit rate, footprint, and the speedup a full-cache allocation buys
//! (the benchmark's cache sensitivity).

use crate::table::{f2, pct, Table};
use crate::Scale;
use stca_cachesim::{Counter, Hierarchy, HierarchyConfig};
use stca_cat::AllocationSetting;
use stca_util::Rng64;
use stca_workloads::{AccessGenerator, BenchmarkId, WorkloadSpec};

/// Drive `n` accesses of a benchmark through a fresh hierarchy under the
/// given allocation; returns (llc misses per kilo-access, l1d miss ratio,
/// cycles/access).
fn characterize(
    spec: &WorkloadSpec,
    config: &HierarchyConfig,
    alloc: AllocationSetting,
    n: u64,
    seed: u64,
) -> (f64, f64, f64) {
    let mut hier = Hierarchy::new(*config, seed);
    hier.set_llc_mask(0, alloc.to_cbm(config.llc.ways).expect("valid alloc"));
    let mut gen = AccessGenerator::new(spec.pattern_for(config), 0, spec.store_fraction, seed);
    let mut rng = Rng64::new(seed ^ 0xF00D);
    // warm-up pass so steady-state behaviour is measured
    for _ in 0..n / 2 {
        let (a, k) = gen.next_access();
        hier.access(0, a, k);
    }
    let before = hier.counters_of(0);
    for _ in 0..n {
        let (a, k) = gen.next_access();
        hier.access(0, a, k);
        if rng.next_bool(spec.ifetch_per_access) {
            let (ai, ki) = gen.next_ifetch();
            hier.access(0, ai, ki);
        }
    }
    hier.retire(
        0,
        n * spec.instructions_per_access,
        n * spec.instructions_per_access,
    );
    let c = hier.counters_of(0).delta(&before);
    let llc_mpka = c.get(Counter::LlcMisses) as f64 * 1000.0 / n as f64;
    let l1_acc = c.get(Counter::L1dLoads) + c.get(Counter::L1dStores);
    let l1_miss = c.get(Counter::L1dLoadMisses) + c.get(Counter::L1dStoreMisses);
    let l1_ratio = if l1_acc > 0 {
        l1_miss as f64 / l1_acc as f64
    } else {
        0.0
    };
    let cpa = c.get(Counter::Cycles) as f64 / n as f64;
    (llc_mpka, l1_ratio, cpa)
}

pub fn run(scale: Scale) {
    let n: u64 = match scale {
        Scale::Quick => 40_000,
        Scale::Standard => 200_000,
        Scale::Full => 800_000,
    };
    let config = HierarchyConfig::experiment_default();
    let ways = config.llc.ways;
    println!("Table 1: benchmark cache-access characterization");
    println!(
        "(platform: {}-way LLC, {} KB; accesses per run: {})\n",
        ways,
        config.llc.size_bytes / 1024,
        n
    );
    let mut t = Table::new(&[
        "benchmark",
        "footprint(ways)",
        "LLC MPKA (2w)",
        "L1d miss",
        "full-cache speedup",
        "paper character",
    ]);
    for id in BenchmarkId::ALL {
        let spec = WorkloadSpec::for_benchmark(id);
        let private = AllocationSetting::new(0, 2);
        let full = AllocationSetting::new(0, ways);
        let (llc_p, l1_p, cpa_p) = characterize(&spec, &config, private, n, 42);
        let (_, _, cpa_f) = characterize(&spec, &config, full, n, 42);
        stca_obs::info!(
            "{}: {:.2} LLC MPKA, {:.2}x full-cache speedup",
            id,
            llc_p,
            cpa_p / cpa_f
        );
        t.row(&[
            id.short_name().to_string(),
            f2(spec.footprint_ways(&config)),
            f2(llc_p),
            pct(l1_p * 100.0),
            format!("{:.2}x", cpa_p / cpa_f),
            spec.cache_character.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("Expected orderings: knn lowest LLC misses per kilo-access; spstream/redis high;");
    println!("jacobi/bfs moderate; cache-sensitive benchmarks show >1x full-cache speedup.");
}
