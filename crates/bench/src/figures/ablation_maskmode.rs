//! Ablation: CAT fill-only masking vs strict partitioning.
//!
//! Intel CAT only gates *fills* — a line resident in a foreign way still
//! hits. That grace period is load-bearing for short-term allocation: when
//! a boost is revoked, the workload keeps hitting the lines it installed in
//! the shared ways until the neighbour gradually evicts them. Under strict
//! partitioning (page-coloring-style), revocation is a cliff: every
//! shared-way line is instantly unreachable.
//!
//! This ablation runs identical conditions under both enforcement modes and
//! reports effective allocation, p95 response, and foreign-way hits.

use crate::table::{f2, Table};
use crate::Scale;
use stca_cachesim::{Counter, MaskMode};
use stca_profiler::executor::{ExperimentSpec, TestEnvironment};
use stca_workloads::{BenchmarkId, RuntimeCondition};

pub fn run(scale: Scale) {
    let pair = (BenchmarkId::Kmeans, BenchmarkId::Redis);
    println!("Ablation: CAT fill-only masks vs strict partitioning");
    println!(
        "(pair {}({}), both boosting at a moderate timeout)\n",
        pair.0, pair.1
    );
    let mut t = Table::new(&[
        "mode",
        "util",
        "workload",
        "EA",
        "p95/es",
        "foreign-way hits",
        "boost %",
    ]);
    let seeds: u64 = match scale {
        Scale::Quick => 1,
        _ => 3,
    };
    for &util in &[0.5, 0.9] {
        for mode in [MaskMode::FillOnly, MaskMode::Strict] {
            stca_obs::info!("running {mode:?} at utilization {util:.1}");
            // accumulate across paired seeds
            let mut ea = [0.0f64; 2];
            let mut p95 = [0.0f64; 2];
            let mut foreign = [0u64; 2];
            let mut boost = [0.0f64; 2];
            for s in 0..seeds {
                let cond = RuntimeCondition::pair(pair.0, util, 0.75, pair.1, util, 0.75);
                let spec = ExperimentSpec {
                    mask_mode: mode,
                    measured_queries: 250,
                    warmup_queries: 30,
                    accesses_per_query: Some(1500),
                    ..ExperimentSpec::standard(cond, 0xAB + s)
                };
                let out = TestEnvironment::new(spec).run();
                for (i, w) in out.workloads.iter().enumerate() {
                    ea[i] += w.effective_allocation / seeds as f64;
                    p95[i] += w.p95_response() / w.expected_service / seeds as f64;
                    boost[i] += w.boost_fraction() / seeds as f64;
                    let trace_foreign: u64 = w
                        .trace
                        .iter()
                        .map(|c| c.get(Counter::LlcForeignWayHits))
                        .sum();
                    foreign[i] += trace_foreign;
                }
            }
            for (i, b) in [pair.0, pair.1].iter().enumerate() {
                t.row(&[
                    format!("{mode:?}"),
                    f2(util),
                    b.short_name().into(),
                    f2(ea[i]),
                    f2(p95[i]),
                    (foreign[i] / seeds).to_string(),
                    format!("{:.0}%", boost[i] * 100.0),
                ]);
            }
        }
    }
    t.print();
    println!("\nStrict mode must show zero foreign-way hits: revoked boosts lose");
    println!("their installed lines immediately. The EA shift cuts both ways —");
    println!("losing the grace period hurts reuse-after-revocation, while instant");
    println!("invalidation also frees the partition from stale neighbour lines.");
}
