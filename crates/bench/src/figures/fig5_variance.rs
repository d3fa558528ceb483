//! Figure 5 — run-to-run variation of deep forests vs CNNs.
//!
//! One profiling dataset, N retrains of each model family with different
//! random seeds. Deep forests train layer-by-layer with no backpropagation,
//! so their accuracy is nearly identical across runs; CNNs overwrite weights
//! through backprop from random initializations and spread widely — the
//! paper found the worst CNN runs twice as inaccurate as any deep forest
//! run, and chose deep forests for that stability.
//!
//! Reported per family: training APE, validation APE and training time
//! (mean, min, max over the retrains).

use crate::evalfig::{score_predictor, z_score};
use crate::table::{pct, Table};
use crate::{build_pair_dataset, Dataset, Scale};
use stca_core::{ModelConfig, Predictor};
use stca_deepforest::metrics::ape_summary;
use stca_neuralnet::net::{ConvNet, NetConfig, NnSample};
use stca_profiler::sampler::CounterOrdering;
use stca_util::{OnlineStats, Rng64};
use stca_workloads::BenchmarkId;
use std::time::Instant;

fn standardized_nn(ds: &Dataset, mean: &[f64], std: &[f64]) -> Vec<NnSample> {
    ds.rows
        .iter()
        .map(|r| {
            let mut flat = r.row.flat_features();
            for ((v, m), s) in flat.iter_mut().zip(mean).zip(std) {
                *v = z_score(*v, *m, *s);
            }
            NnSample {
                scalars: flat,
                trace: stca_util::Matrix::zeros(0, 0),
            }
        })
        .collect()
}

pub fn run(scale: Scale) {
    let retrains = match scale {
        Scale::Quick => 5,
        Scale::Standard => 15,
        Scale::Full => 100,
    };
    let pair = (BenchmarkId::Kmeans, BenchmarkId::Bfs);
    stca_obs::info!("fig5: profiling dataset for {}({})", pair.0, pair.1);
    let dataset = build_pair_dataset(
        pair,
        scale.conditions_per_pair(),
        scale,
        CounterOrdering::Grouped,
        0xF15,
    );
    let mut rng = Rng64::new(1);
    let (train, test) = dataset.split(0.7, &mut rng);
    stca_obs::info!("{} train rows, {} test rows", train.len(), test.len());

    // shared standardization for the CNN
    let flat_dim = train.rows[0].row.flat_features().len();
    let mut stats = vec![OnlineStats::new(); flat_dim];
    for r in &train.rows {
        for (s, v) in stats.iter_mut().zip(r.row.flat_features()) {
            s.push(v);
        }
    }
    let mean: Vec<f64> = stats.iter().map(|s| s.mean()).collect();
    let std: Vec<f64> = stats.iter().map(|s| s.std_dev()).collect();

    let median_ape = |predicted: &[f64], ds: &Dataset| {
        let observed: Vec<f64> = ds.rows.iter().map(|r| r.row.mean_response_norm).collect();
        ape_summary(predicted, &observed).median
    };

    let mut df_train = OnlineStats::new();
    let mut df_val = OnlineStats::new();
    let mut df_time = OnlineStats::new();
    let mut nn_train = OnlineStats::new();
    let mut nn_val = OnlineStats::new();
    let mut nn_time = OnlineStats::new();

    for run in 0..retrains {
        // deep forest (full pipeline, EA + queue)
        let t0 = Instant::now();
        let mut cfg = ModelConfig::quick(0xD4 + run as u64);
        cfg.sim_queries = 800;
        let predictor = Predictor::train(&train.profile_set(), &cfg);
        df_train.push(score_predictor(&predictor, &train.rows).median);
        df_val.push(score_predictor(&predictor, &test.rows).median);
        df_time.push(t0.elapsed().as_secs_f64());

        // CNN on the same flattened features
        let t0 = Instant::now();
        let nn_tr = standardized_nn(&train, &mean, &std);
        let nn_te = standardized_nn(&test, &mean, &std);
        let y: Vec<f64> = train
            .rows
            .iter()
            .map(|r| r.row.mean_response_norm)
            .collect();
        let net = ConvNet::fit(
            &nn_tr,
            &y,
            NetConfig {
                epochs: 60,
                hidden: 32,
                dropout: 0.1,
                seed: 0xC4 + run as u64,
                ..Default::default()
            },
        );
        nn_time.push(t0.elapsed().as_secs_f64());
        nn_train.push(median_ape(&net.predict_all(&nn_tr), &train));
        nn_val.push(median_ape(&net.predict_all(&nn_te), &test));
        stca_obs::info!(
            "run {run}: df val {:.1}%, cnn val {:.1}%",
            df_val.max(),
            nn_val.max()
        );
    }

    println!("Figure 5: random variation over {retrains} retrains");
    println!("(median APE of normalized mean response; training time in seconds)\n");
    let mut t = Table::new(&["model", "metric", "mean", "min", "max"]);
    let fam = |t: &mut Table, name: &str, tr: &OnlineStats, va: &OnlineStats, ti: &OnlineStats| {
        t.row(&[
            name.into(),
            "train APE".into(),
            pct(tr.mean()),
            pct(tr.min()),
            pct(tr.max()),
        ]);
        t.row(&[
            name.into(),
            "valid APE".into(),
            pct(va.mean()),
            pct(va.min()),
            pct(va.max()),
        ]);
        t.row(&[
            name.into(),
            "train time".into(),
            format!("{:.2}s", ti.mean()),
            format!("{:.2}s", ti.min()),
            format!("{:.2}s", ti.max()),
        ]);
    };
    fam(&mut t, "deep forest", &df_train, &df_val, &df_time);
    fam(&mut t, "CNN", &nn_train, &nn_val, &nn_time);
    t.print();
    let df_spread = df_val.max() - df_val.min();
    let nn_spread = nn_val.max() - nn_val.min();
    println!(
        "\nvalidation-APE spread (max-min): deep forest {df_spread:.1}pp vs CNN {nn_spread:.1}pp"
    );
    println!("Paper's finding: deep forests reliably low error; best CNNs can win but worst are ~2x worse.");
}
