//! Figure 7a — per-collocation prediction accuracy.
//!
//! For each ordered collocation `target(partner)`, profiles the pair,
//! trains the full model on low-utilization conditions and predicts the
//! held-out high-utilization ones, reporting the target workload's median
//! APE. The paper's result: below 15% for every collocation.

use crate::evalfig::score_predictor;
use crate::table::{pct, Table};
use crate::{build_pair_dataset, Scale};
use stca_core::pipeline::model_config;
use stca_core::Predictor;
use stca_profiler::sampler::CounterOrdering;
use stca_scenario::ModelKind;
use stca_workloads::BenchmarkId;

fn pairs_for(scale: Scale) -> Vec<(BenchmarkId, BenchmarkId)> {
    match scale {
        Scale::Quick => vec![(BenchmarkId::Jacobi, BenchmarkId::Bfs)],
        Scale::Standard => vec![
            (BenchmarkId::Jacobi, BenchmarkId::Bfs),
            (BenchmarkId::Kmeans, BenchmarkId::Knn),
            (BenchmarkId::Redis, BenchmarkId::Social),
            (BenchmarkId::Spkmeans, BenchmarkId::Spstream),
        ],
        Scale::Full => vec![
            (BenchmarkId::Jacobi, BenchmarkId::Bfs),
            (BenchmarkId::Kmeans, BenchmarkId::Knn),
            (BenchmarkId::Redis, BenchmarkId::Social),
            (BenchmarkId::Spkmeans, BenchmarkId::Spstream),
            (BenchmarkId::Jacobi, BenchmarkId::Redis),
            (BenchmarkId::Kmeans, BenchmarkId::Spstream),
            (BenchmarkId::Bfs, BenchmarkId::Social),
            (BenchmarkId::Knn, BenchmarkId::Spkmeans),
        ],
    }
}

pub fn run(scale: Scale) {
    println!("Figure 7a: per-collocation median APE of mean-response predictions");
    println!("(label x(y) = predicting x collocated with y; unseen high-util conditions)\n");
    let mut t = Table::new(&["collocation", "rows(train/test)", "median APE", "p95 APE"]);
    for (pi, &pair) in pairs_for(scale).iter().enumerate() {
        let ds = build_pair_dataset(
            pair,
            scale.conditions_per_pair(),
            scale,
            CounterOrdering::Grouped,
            0x7A + pi as u64 * 7777,
        );
        let (pool, test) = ds.split_by_utilization(0.75);
        if pool.is_empty() || test.is_empty() {
            stca_obs::warn!("skipping {}({}): degenerate split", pair.0, pair.1);
            continue;
        }
        let config = model_config(ModelKind::Auto, pool.len(), 0x7A1 + pi as u64);
        let predictor = Predictor::train(&pool.profile_set(), &config);
        // report each direction separately, as the paper's labels do
        for target in [pair.0, pair.1] {
            let partner = if target == pair.0 { pair.1 } else { pair.0 };
            let rows: Vec<_> = test.rows.iter().filter(|r| r.benchmark == target).collect();
            if rows.is_empty() {
                continue;
            }
            let s = score_predictor(&predictor, rows.iter().copied());
            t.row(&[
                format!("{}({})", target.short_name(), partner.short_name()),
                format!("{}/{}", pool.len(), rows.len()),
                pct(s.median),
                pct(s.p95),
            ]);
            stca_obs::info!("{}({}): median {:.1}%", target, partner, s.median);
        }
    }
    t.print();
    println!("\nPaper: median error below 15% for every collocation.");
}
