//! Figure 7b — generalization across processor cache sizes.
//!
//! The paper validated its models on five Xeon platforms with LLCs from
//! 20 MB to 72 MB, fully utilizing cores by collocating more workloads on
//! the bigger caches and reserving 2–4 MB per workload; median error stayed
//! below 15% on every platform. Here each platform is the corresponding
//! `xeon_with_llc_mb` geometry (scaled like the default platform); the
//! reservation grows with the cache as in the paper, and the secondary
//! column reports how many workloads the platform hosts at that reservation
//! (the pair under test plus its neighbours).

use crate::dataset::run_conditions_customized;
use crate::evalfig::score_predictor;
use crate::table::{pct, Table};
use crate::Scale;
use stca_cachesim::HierarchyConfig;
use stca_cat::layout::{ChainLayout, ExperimentLayout};
use stca_core::pipeline::model_config;
use stca_core::Predictor;
use stca_profiler::sampler::CounterOrdering;
use stca_scenario::ModelKind;
use stca_util::Rng64;
use stca_workloads::{BenchmarkId, RuntimeCondition};

/// (LLC MB, per-workload reservation in scaled ways) — the paper reserves
/// 2 MB on the small platforms, 3-4 MB on the big ones; one way = 2 MB.
const PLATFORMS: [(usize, usize); 5] = [(20, 1), (30, 1), (40, 2), (59, 2), (72, 2)];

pub fn run(scale: Scale) {
    let pair = (BenchmarkId::Kmeans, BenchmarkId::Bfs);
    let n_cond = scale.conditions_per_pair();
    println!("Figure 7b: prediction accuracy across LLC sizes");
    println!(
        "(fully-utilized platforms: a chain of workloads fills each cache;\n\
         the pair under test is {}({}) at the head of the chain)\n",
        pair.0, pair.1
    );
    let mut t = Table::new(&[
        "LLC",
        "ways",
        "reserved/workload",
        "collocated workloads",
        "median APE",
        "p95 APE",
    ]);
    // neighbours fill the rest of the chain, cycling through diverse mixes
    let fillers = [
        BenchmarkId::Redis,
        BenchmarkId::Social,
        BenchmarkId::Spstream,
        BenchmarkId::Knn,
        BenchmarkId::Jacobi,
        BenchmarkId::Spkmeans,
    ];
    for (pi, &(mb, private_ways)) in PLATFORMS.iter().enumerate() {
        let config = {
            let base = HierarchyConfig::xeon_with_llc_mb(mb);
            HierarchyConfig {
                l1d: base.l1d.scaled_down(8),
                l1i: base.l1i.scaled_down(8),
                l2: base.l2.scaled_down(16),
                llc: base.llc.scaled_down(64),
                latencies: base.latencies,
            }
        };
        let shared = 2;
        // fully utilize the platform: as many chain slots as the ways allow
        let n_workloads = ((config.llc.ways + shared) / (private_ways + shared)).clamp(2, 8);
        let chain = ChainLayout::new(n_workloads, private_ways, shared);
        assert!(chain.total_ways() <= config.llc.ways);
        let benchmarks: Vec<BenchmarkId> = [pair.0, pair.1]
            .into_iter()
            .chain(fillers.iter().copied().cycle())
            .take(n_workloads)
            .collect();
        let mut rng = Rng64::new(0x7B + pi as u64);
        let conditions: Vec<RuntimeCondition> = (0..n_cond)
            .map(|_| RuntimeCondition::random_chain(&benchmarks, &mut rng))
            .collect();
        let layout = ExperimentLayout::Chain(chain);
        let ds = run_conditions_customized(
            &conditions,
            scale,
            CounterOrdering::Grouped,
            0x7B00 + pi as u64 * 131,
            |mut spec| {
                spec.config = config;
                spec.layout = layout.clone();
                spec
            },
        );
        let (pool, test) = ds.split_by_utilization(0.75);
        if pool.is_empty() || test.is_empty() {
            stca_obs::warn!("{mb} MB: degenerate split, skipping");
            continue;
        }
        let mcfg = model_config(ModelKind::Auto, pool.len(), 0x7B2 + pi as u64);
        let predictor = Predictor::train(&pool.profile_set(), &mcfg);
        let s = score_predictor(&predictor, &test.rows);
        stca_obs::info!("{} MB done: median {:.1}%", mb, s.median);
        t.row(&[
            format!("{mb} MB"),
            config.llc.ways.to_string(),
            format!("{} MB", private_ways * 2),
            n_workloads.to_string(),
            pct(s.median),
            pct(s.p95),
        ]);
    }
    t.print();
    println!("\nPaper: median response-time error below 15% on every platform.");
}
