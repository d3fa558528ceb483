//! §5.2 insight — concept-space vs raw-counter clustering, quantified.
//!
//! The paper closes by clustering workload conditions two ways: by the
//! concepts the deep forest learned, and by the raw hardware counters.
//! Concept clusters exposed a joint arrival-rate/service-time/timeout
//! interaction behind effective allocation; counter clusters did not. Here
//! the separation quality is quantified as the size-weighted within-cluster
//! standard deviation of EA (lower = the clustering recovers EA regimes
//! better), averaged across collocation pairs.

use crate::table::{f2, Table};
use crate::{build_pair_dataset, Scale};
use stca_core::insight::{cluster_by_concepts, cluster_by_counters};
use stca_core::pipeline::model_config;
use stca_core::Predictor;
use stca_profiler::sampler::CounterOrdering;
use stca_scenario::ModelKind;
use stca_util::Rng64;
use stca_workloads::BenchmarkId;

pub fn run(scale: Scale) {
    let pairs: Vec<(BenchmarkId, BenchmarkId)> = match scale {
        Scale::Quick => vec![(BenchmarkId::Kmeans, BenchmarkId::Redis)],
        _ => vec![
            (BenchmarkId::Kmeans, BenchmarkId::Redis),
            (BenchmarkId::Jacobi, BenchmarkId::Bfs),
            (BenchmarkId::Redis, BenchmarkId::Social),
        ],
    };
    let k = 4;
    println!("Insight (5.2): clustering conditions by learned concepts vs raw counters");
    println!("(metric: weighted within-cluster EA std; lower = cleaner EA regimes)\n");
    let mut t = Table::new(&[
        "pair",
        "rows",
        "concept EA-dispersion",
        "counter EA-dispersion",
        "concept/counter",
    ]);
    let mut ratios = Vec::new();
    for (pi, &pair) in pairs.iter().enumerate() {
        let ds = build_pair_dataset(
            pair,
            scale.conditions_per_pair(),
            scale,
            CounterOrdering::Grouped,
            0x1C5 + pi as u64 * 997,
        );
        let profiles = ds.profile_set();
        let mcfg = model_config(ModelKind::Auto, profiles.len(), 0x1C6 + pi as u64);
        let predictor = Predictor::train(&profiles, &mcfg);
        let mut rng = Rng64::new(0x1C7 + pi as u64);
        let by_concepts = cluster_by_concepts(&predictor, &profiles, k, &mut rng);
        let by_counters = cluster_by_counters(&profiles, k, &mut rng);
        let dc = by_concepts.weighted_ea_dispersion();
        let dh = by_counters.weighted_ea_dispersion();
        ratios.push(dc / dh.max(1e-12));
        stca_obs::info!(
            "{}({}): concepts {:.4} vs counters {:.4}",
            pair.0,
            pair.1,
            dc,
            dh
        );
        t.row(&[
            format!("{}({})", pair.0.short_name(), pair.1.short_name()),
            profiles.len().to_string(),
            f2(dc),
            f2(dh),
            f2(dc / dh.max(1e-12)),
        ]);
        // show what the concept clusters look like for the first pair
        if pi == 0 {
            println!("concept clusters for {}({}):", pair.0, pair.1);
            for (ci, c) in by_concepts.clusters.iter().enumerate() {
                if c.size == 0 {
                    continue;
                }
                println!(
                    "  cluster {ci}: n={:<3} mean util {:.2}, mean timeout {:.2}, mean EA {:.2} (std {:.3})",
                    c.size, c.mean_utilization, c.mean_timeout, c.mean_ea, c.ea_std
                );
            }
            println!();
        }
    }
    t.print();
    let mean_ratio: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!(
        "\nmean concept/counter dispersion ratio: {mean_ratio:.2} (< 1 reproduces the paper's"
    );
    println!("finding: learned concepts separate EA regimes that raw counters do not).");
}
