//! Figure 7c — multi-grain scanning ablation.
//!
//! Varies the four MGS implementation knobs the paper studies and reports
//! the resulting response-time prediction error:
//!
//! * **counter ordering** — grouped-by-type (spatial locality) vs randomly
//!   shuffled; the paper saw error triple (5% → 15%) without locality;
//! * **window size** — a 4x decrease in window area doubled error;
//! * **sampling rate** — 1 sample / 5 s cost ~2 points over 1 / 2 s;
//! * **estimators** — too few trees degrades to queue-model accuracy.

use crate::dataset::run_conditions;
use crate::evalfig::score_predictor;
use crate::table::{pct, Table};
use crate::{Dataset, Scale};
use stca_core::pipeline::model_config;
use stca_core::Predictor;
use stca_deepforest::MgsConfig;
use stca_profiler::sampler::CounterOrdering;
use stca_scenario::ModelKind;
use stca_util::Rng64;
use stca_workloads::{BenchmarkId, RuntimeCondition};

fn build(
    pair: (BenchmarkId, BenchmarkId),
    scale: Scale,
    ordering: CounterOrdering,
    sample_period: f64,
    seed: u64,
) -> Dataset {
    let mut rng = Rng64::new(seed);
    let conditions: Vec<RuntimeCondition> = (0..scale.conditions_per_pair())
        .map(|_| {
            let mut c = RuntimeCondition::random_pair(pair.0, pair.1, &mut rng);
            c.sample_period = sample_period;
            c
        })
        .collect();
    run_conditions(&conditions, scale, ordering, seed ^ 0xCCC)
}

fn score(ds: &Dataset, mgs: Option<MgsConfig>, seed: u64) -> (f64, f64) {
    let (pool, test) = ds.split_by_utilization(0.75);
    let mut cfg = model_config(ModelKind::Auto, pool.len(), seed);
    cfg.ea_forest.mgs = mgs;
    let predictor = Predictor::train(&pool.profile_set(), &cfg);
    let s = score_predictor(&predictor, &test.rows);
    (s.median, s.p95)
}

pub fn run(scale: Scale) {
    let pair = (BenchmarkId::Kmeans, BenchmarkId::Bfs);
    let full_mgs = MgsConfig {
        window_sizes: vec![5, 10, 15],
        stride: 2,
        trees_per_window: 25,
        max_positions_per_sample: 40,
        ..MgsConfig::default()
    };
    stca_obs::info!("fig7c: building datasets (grouped/shuffled x 2s/5s sampling)");
    let grouped_2s = build(pair, scale, CounterOrdering::Grouped, 2.0, 0xA1);
    let shuffled_2s = build(pair, scale, CounterOrdering::Shuffled(99), 2.0, 0xA1);
    let grouped_5s = build(pair, scale, CounterOrdering::Grouped, 5.0, 0xA1);

    println!(
        "Figure 7c: multi-grain scanning ablation (pair {}({}))\n",
        pair.0, pair.1
    );
    let mut t = Table::new(&["setting", "median APE", "p95 APE"]);
    let mut row = |name: &str, (m, p): (f64, f64)| {
        stca_obs::info!("{name}: median {m:.1}%");
        t.row(&[name.into(), pct(m), pct(p)]);
    };
    row(
        "full (grouped, 5/10/15 windows, 2s, 25 trees)",
        score(&grouped_2s, Some(full_mgs.clone()), 1),
    );
    row(
        "shuffled counter ordering",
        score(&shuffled_2s, Some(full_mgs.clone()), 2),
    );
    row(
        "small windows (2/4)",
        score(
            &grouped_2s,
            Some(MgsConfig {
                window_sizes: vec![2, 4],
                ..full_mgs.clone()
            }),
            3,
        ),
    );
    row(
        "sampling every 5s",
        score(&grouped_5s, Some(full_mgs.clone()), 4),
    );
    row(
        "few estimators (3 trees/window)",
        score(
            &grouped_2s,
            Some(MgsConfig {
                trees_per_window: 3,
                ..full_mgs.clone()
            }),
            5,
        ),
    );
    row("no MGS at all (cascade only)", score(&grouped_2s, None, 6));
    t.print();
    println!("\nPaper: spatial ordering matters most (5% -> 15% when shuffled);");
    println!("4x smaller windows doubled error; 5s sampling cost ~2 points.");
}
