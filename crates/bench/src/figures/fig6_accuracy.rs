//! Figure 6 — response-time prediction accuracy across modeling approaches.
//!
//! For a set of collocation pairs, profiles random Table-2 conditions in the
//! test environment, then evaluates six approaches (linear regression,
//! decision tree, CNN, queue model alone, queue + concepts, full approach)
//! on held-out conditions. Our approaches train on 33% of rows; competitors
//! get 70% (the paper's handicap). Reported: median and p95 absolute
//! percent error of predicted mean response time.
//!
//! Paper's result: ~50% (linreg), ~20% (tree), 26% (CNN), 23% (queue),
//! 11% median / 12% p95 (ours). The reproduction should preserve the
//! ordering and rough magnitudes.

use crate::evalfig::{evaluate_approach, Approach};
use crate::table::{pct, Table};
use crate::{build_pair_dataset, Dataset, Scale};
use stca_profiler::sampler::CounterOrdering;
use stca_util::Rng64;
use stca_workloads::BenchmarkId;

fn pairs_for(scale: Scale) -> Vec<(BenchmarkId, BenchmarkId)> {
    match scale {
        Scale::Quick => vec![(BenchmarkId::Kmeans, BenchmarkId::Bfs)],
        Scale::Standard => vec![
            (BenchmarkId::Kmeans, BenchmarkId::Bfs),
            (BenchmarkId::Redis, BenchmarkId::Social),
            (BenchmarkId::Knn, BenchmarkId::Spstream),
        ],
        Scale::Full => vec![
            (BenchmarkId::Kmeans, BenchmarkId::Bfs),
            (BenchmarkId::Redis, BenchmarkId::Social),
            (BenchmarkId::Knn, BenchmarkId::Spstream),
            (BenchmarkId::Jacobi, BenchmarkId::Spkmeans),
            (BenchmarkId::Spkmeans, BenchmarkId::Redis),
            (BenchmarkId::Bfs, BenchmarkId::Social),
        ],
    }
}

pub fn run(scale: Scale) {
    let pairs = pairs_for(scale);
    let n_cond = scale.conditions_per_pair();
    let sim_queries = match scale {
        Scale::Quick => 400,
        Scale::Standard => 1500,
        Scale::Full => 3000,
    };
    stca_obs::info!(
        "fig6: profiling {} pairs x {} conditions (scale {:?})",
        pairs.len(),
        n_cond,
        scale
    );
    let mut dataset = Dataset::default();
    for (i, &pair) in pairs.iter().enumerate() {
        let d = build_pair_dataset(
            pair,
            n_cond,
            scale,
            CounterOrdering::Grouped,
            0x56A6 + i as u64 * 1000,
        );
        stca_obs::info!("profiled {}({}) -> {} rows", pair.0, pair.1, d.len());
        dataset.extend(d);
    }

    // paper protocol: test conditions are unseen — models must extrapolate
    // into the high-arrival-rate regime
    let (pool, test) = dataset.split_by_utilization(0.75);
    stca_obs::info!(
        "extrapolation split: {} low-util training pool, {} high-util test rows",
        pool.len(),
        test.len()
    );

    println!("Figure 6: accuracy of response-time predictions");
    println!(
        "({} profile rows; test = unseen high-arrival-rate conditions;",
        dataset.len()
    );
    println!("ours trains on 33% of the pool, competitors on 70%)\n");
    let mut t = Table::new(&[
        "approach",
        "train rows",
        "median APE",
        "p95 APE",
        "mean APE",
    ]);
    for approach in Approach::ALL {
        let mut rng = Rng64::new(0xF16 + approach as u64);
        let (train, _) = pool.split(approach.train_fraction(), &mut rng);
        let timer = stca_obs::StageTimer::new("bench.fig6.approach_seconds");
        let s = evaluate_approach(approach, &train, &test, sim_queries, 7 + approach as u64);
        stca_obs::info!(
            "{} done in {:.1}s (median {:.1}%)",
            approach.name(),
            timer.stop(),
            s.median
        );
        t.row(&[
            approach.name().to_string(),
            train.len().to_string(),
            pct(s.median),
            pct(s.p95),
            pct(s.mean),
        ]);
    }
    t.print();
    println!("\nPaper (for shape comparison): linreg ~50% median / >300% p95; tree ~20% / >100%;");
    println!("CNN 26% median; queue model 23%; ours 11% median / 12% p95.");
}
