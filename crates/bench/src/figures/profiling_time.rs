//! §5.1 "Profiling Time" — accuracy vs profiling budget, and stratified vs
//! uniform sampling.
//!
//! The paper: 15 minutes of profiling gave 14% median error, the standard
//! 30 minutes (~100 profiles) 11%, and 2.5 hours 8.6%; stratified sampling
//! cut profiling time by 67% at equal accuracy. Here the budget is the
//! number of profiled conditions; a fixed high-utilization holdout is
//! predicted after training on increasing budgets, sampled uniformly or by
//! the stratified procedure of §4.

use crate::dataset::run_conditions;
use crate::evalfig::score_predictor;
use crate::table::{pct, Table};
use crate::{Dataset, Scale};
use stca_core::pipeline::model_config;
use stca_core::Predictor;
use stca_profiler::sampler::CounterOrdering;
use stca_profiler::stratified::{stratified_sample, StratifiedConfig};
use stca_scenario::ModelKind;
use stca_util::Rng64;
use stca_workloads::{BenchmarkId, RuntimeCondition};

fn score(train: &Dataset, test: &Dataset, seed: u64) -> f64 {
    let cfg = model_config(ModelKind::Auto, train.len(), seed);
    let predictor = Predictor::train(&train.profile_set(), &cfg);
    score_predictor(&predictor, &test.rows).median
}

pub fn run(scale: Scale) {
    let pair = (BenchmarkId::Kmeans, BenchmarkId::Bfs);
    let budgets: Vec<usize> = match scale {
        Scale::Quick => vec![4, 8],
        Scale::Standard => vec![8, 16, 32, 48],
        Scale::Full => vec![8, 16, 32, 64, 96],
    };
    let max_budget = *budgets.last().expect("nonempty");

    // fixed high-utilization holdout
    let mut rng = Rng64::new(0x907);
    let test_conditions: Vec<RuntimeCondition> = (0..16)
        .map(|_| {
            let mut c = RuntimeCondition::random_pair(pair.0, pair.1, &mut rng);
            c.workloads[0].utilization = rng.next_range(0.75, 0.95);
            c.workloads[1].utilization = rng.next_range(0.75, 0.95);
            c
        })
        .collect();
    stca_obs::info!(
        "profiling_time: building holdout ({} conditions)",
        test_conditions.len()
    );
    let test = run_conditions(&test_conditions, scale, CounterOrdering::Grouped, 0x907);

    // uniform pool, reused at every budget (prefix)
    let uniform_conditions: Vec<RuntimeCondition> = (0..max_budget)
        .map(|_| RuntimeCondition::random_pair(pair.0, pair.1, &mut rng))
        .collect();
    stca_obs::info!("profiling_time: building uniform pool ({max_budget} conditions)");
    let uniform_pool = run_conditions(&uniform_conditions, scale, CounterOrdering::Grouped, 0x908);

    println!(
        "Profiling-time study (pair {}({}); holdout = high-utilization)\n",
        pair.0, pair.1
    );
    let mut t = Table::new(&["budget (conditions)", "uniform median APE"]);
    for &b in &budgets {
        let train = Dataset {
            rows: uniform_pool.rows[..(2 * b).min(uniform_pool.len())].to_vec(),
        };
        let m = score(&train, &test, 0x909 + b as u64);
        stca_obs::info!("uniform budget {b}: {m:.1}%");
        t.row(&[b.to_string(), pct(m)]);
    }
    t.print();

    // stratified sampling at a reduced budget: seeds + refinement rounds.
    // The EA evaluations that guide stratification are real experiment runs
    // charged against the budget.
    let strat_cfg = StratifiedConfig {
        seeds: budgets[0].max(4),
        clusters: 3,
        per_cluster: 2,
        rounds: 2,
        jitter: 0.1,
    };
    let strat_budget = strat_cfg.seeds + strat_cfg.rounds * 3 * 2;
    stca_obs::info!("profiling_time: stratified sampling ({strat_budget} conditions)");
    let mut srng = Rng64::new(0x90A);
    // the profiled rows ride along as the evaluator payload; collecting
    // them after the fact (in draw order) keeps the evaluator Fn + Sync so
    // each batch of conditions can run in parallel
    let evaluated = stratified_sample(pair, strat_cfg, &mut srng, |_, cond| {
        let ds = run_conditions(
            std::slice::from_ref(cond),
            scale,
            CounterOrdering::Grouped,
            0x90B,
        );
        Ok((ds.rows[0].row.ea, ds))
    })
    .expect("stratified sampling");
    let mut strat_rows = Dataset::default();
    for e in &evaluated {
        strat_rows.extend(e.payload.clone());
    }
    let strat_score = score(&strat_rows, &test, 0x90C);
    let uniform_same = {
        let train = Dataset {
            rows: uniform_pool.rows[..(2 * evaluated.len()).min(uniform_pool.len())].to_vec(),
        };
        score(&train, &test, 0x90D)
    };
    println!(
        "\nStratified vs uniform at equal budget ({} conditions):",
        evaluated.len()
    );
    let mut s = Table::new(&["sampling", "median APE"]);
    s.row(&["uniform".into(), pct(uniform_same)]);
    s.row(&["stratified (seeds+refine)".into(), pct(strat_score)]);
    s.print();
    println!("\nPaper: 15 min -> 14%, 30 min -> 11%, 2.5 h -> 8.6%; stratified sampling");
    println!("reduced profiling time by 67% at equal accuracy.");
}
