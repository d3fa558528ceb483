//! Figure 8 — p95 response-time speedup of competing allocation policies.
//!
//! Four collocation groups (cloud, Spark, Rodinia x2, as in panels a–d) are
//! run at 90% arrival intensity under six policies:
//!
//! 1. **no cache sharing** (normalization baseline),
//! 2. **static allocation** (fully shared or fully private, whichever
//!    measures better),
//! 3. **dCat** (shared region granted statically to the bigger winner),
//! 4. **dynaSprint** (timeouts tuned at low rate, reused at 90%),
//! 5. **simple ML** (model-driven with a plain random forest, Fig. 8e),
//! 6. **model-driven (ours)** (deep-forest EA + queueing + SLO matching).
//!
//! Reported per workload: speedup in p95 response time over no-sharing.
//! Paper shape: ours ~2x median over no-sharing, 1.2–1.3x over
//! dCat/dynaSprint; simple ML beats dCat on most workloads but loses to the
//! full model.

use crate::policyeval::{make_policy_eval, score_policies_paired};
use crate::table::{f2, Table};
use crate::{build_pair_dataset, Scale};
use stca_baselines::policies::{no_sharing, policies_for, PolicyStrategy};
use stca_cat::PairLayout;
use stca_core::pipeline::model_config;
use stca_core::{PolicyExplorer, Predictor};
use stca_profiler::sampler::CounterOrdering;
use stca_scenario::ModelKind;
use stca_workloads::BenchmarkId;

const EVAL_UTIL: f64 = 0.9;

fn groups(scale: Scale) -> Vec<(&'static str, (BenchmarkId, BenchmarkId))> {
    let all = vec![
        ("cloud (a)", (BenchmarkId::Redis, BenchmarkId::Social)),
        ("spark (b)", (BenchmarkId::Spkmeans, BenchmarkId::Spstream)),
        ("rodinia (c)", (BenchmarkId::Jacobi, BenchmarkId::Bfs)),
        ("rodinia (d)", (BenchmarkId::Kmeans, BenchmarkId::Knn)),
    ];
    match scale {
        Scale::Quick => all.into_iter().take(1).collect(),
        _ => all,
    }
}

pub fn run(scale: Scale) {
    let layout = PairLayout::symmetric(2, 2);
    println!("Figure 8: speedup in p95 response time vs no cache sharing (90% arrival)\n");
    let mut t = Table::new(&[
        "group",
        "workload",
        "static",
        "dCat",
        "dCat-iter",
        "dynaSprint",
        "simple ML",
        "ours",
    ]);
    let mut summary: Vec<(&str, Vec<f64>)> = vec![
        ("static", vec![]),
        ("dCat", vec![]),
        ("dCat-iter", vec![]),
        ("dynaSprint", vec![]),
        ("simple ML", vec![]),
        ("ours", vec![]),
    ];
    for (gi, (label, pair)) in groups(scale).into_iter().enumerate() {
        stca_obs::info!("fig8 group {label}: {}+{}", pair.0, pair.1);
        let seed = 0xF8 + gi as u64 * 10_007;
        // paired evaluation seeds shared by every strategy
        let eval_seeds: Vec<u64> = (0..3).map(|k| seed ^ (0xE0A1 + k * 7919)).collect();
        // baseline
        let base = score_policies_paired(pair, EVAL_UTIL, &no_sharing(&layout), scale, &eval_seeds);
        // measured-strategy baselines
        let mut strategy_scores: Vec<Vec<f64>> = Vec::new();
        for (si, strat) in [
            PolicyStrategy::StaticBest,
            PolicyStrategy::DCat,
            PolicyStrategy::DCatIterative,
            PolicyStrategy::DynaSprint,
        ]
        .into_iter()
        .enumerate()
        {
            let mut eval = make_policy_eval(pair, EVAL_UTIL, scale, seed ^ ((si as u64) << 12));
            let policies = policies_for(strat, &layout, &mut eval);
            let score = score_policies_paired(pair, EVAL_UTIL, &policies, scale, &eval_seeds);
            stca_obs::info!("{strat:?}: scores {score:?}");
            strategy_scores.push(score);
        }
        // model-driven strategies: profile, train, explore, evaluate
        let ds = build_pair_dataset(
            pair,
            scale.conditions_per_pair() * 2,
            scale,
            CounterOrdering::Grouped,
            seed ^ 0xDA7A,
        );
        for simple in [true, false] {
            let mcfg = if simple {
                model_config(ModelKind::SimpleMl, ds.len(), seed ^ 0x51)
            } else {
                model_config(ModelKind::Auto, ds.len(), seed ^ 0xF0)
            };
            let predictor = Predictor::train(&ds.profile_set(), &mcfg);
            let profiles = ds.profile_set();
            let explorer = PolicyExplorer::new(&predictor, &profiles, pair.0, pair.1, EVAL_UTIL);
            let choice = explorer.explore();
            let policies = choice.policies(&layout);
            let score = score_policies_paired(pair, EVAL_UTIL, &policies, scale, &eval_seeds);
            stca_obs::info!(
                "{}: T=({:.2},{:.2}) scores {score:?}",
                if simple { "simple ML" } else { "ours" },
                choice.timeout_a,
                choice.timeout_b
            );
            strategy_scores.push(score);
        }
        // rows: speedups per workload
        for (wi, name) in [pair.0, pair.1].into_iter().enumerate() {
            let speedups: Vec<f64> = strategy_scores
                .iter()
                .map(|s| base[wi] / s[wi].max(1e-12))
                .collect();
            for (s, (_, acc)) in speedups.iter().zip(summary.iter_mut()) {
                acc.push(*s);
            }
            t.row(&[
                label.into(),
                name.short_name().into(),
                f2(speedups[0]),
                f2(speedups[1]),
                f2(speedups[2]),
                f2(speedups[3]),
                f2(speedups[4]),
                f2(speedups[5]),
            ]);
        }
    }
    t.print();
    println!("\nMedian speedup over no-sharing:");
    let mut m = Table::new(&["strategy", "median speedup"]);
    for (name, mut vals) in summary {
        let med = stca_util::stats::quantile_in_place(&mut vals, 0.5);
        m.row(&[name.into(), f2(med)]);
    }
    m.print();
    println!("\nPaper shape: ours ~2x median vs no-sharing; ~1.2-1.3x vs dCat/dynaSprint;");
    println!("simple ML exceeds dCat on most workloads but trails the full model.");
}
