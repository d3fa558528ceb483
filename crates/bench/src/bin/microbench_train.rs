//! Training microbenchmarks: before/after timings for the split-finding
//! engines and the allocation-free predict path.
//!
//! Each benchmark pairs the reference engine (per-node re-sorting, kept
//! in-tree behind `TreeConfig::reference`) against an optimized engine on
//! the same data and seeds, so the reported speedups compare bit-identical
//! (presorted) or tolerance-tested (histogram) models:
//!
//! * `forest_fit` — `Forest::fit` on a wide matrix (the fig6 EA shape);
//!   `hist64` shares one [`BinnedMatrix`] across all trees and is the
//!   headline speedup, `exact` shows the adaptive engine never regressing
//!   the default path;
//! * `forest_fit_narrow` — a narrow matrix where `BestOfSqrt` consults
//!   most columns and the presorted exact engine is selected;
//! * `tree_fit_all` — `BestOfAll` (classic CART), where every node sorts
//!   every feature and presorting pays off most;
//! * `forest_predict` / `cascade_predict` — absolute per-call cost of the
//!   allocation-free predict path.
//!
//! Usage:
//!   cargo run --release -p stca-bench --bin microbench_train --
//!       [--scale quick|standard] [--out BENCH_train.json]
//!       [--check BENCH_train.json]
//!
//! `--out` writes (or updates in place, preserving other scales) a JSON
//! baseline; `--check` compares the current run against a committed
//! baseline, calibrating for machine speed by the reference-engine ratio,
//! and fails if an exact-mode training time regressed more than 25%. When
//! the run itself is too noisy to judge (reference spread above 35% of the
//! median — common on saturated CI runners), the check logs and passes
//! instead of flaking.

use stca_bench::Scale;
use stca_deepforest::tree::{RegressionTree, SplitStrategy, TreeConfig};
use stca_deepforest::{Cascade, CascadeConfig, CascadeScratch, Forest, ForestConfig};
use stca_obs::json::Value;
use stca_util::{Matrix, Rng64, SeedStream};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One benchmark's per-iteration timings, in seconds.
struct Stats {
    median: f64,
    min: f64,
    max: f64,
    samples: usize,
    iters: u64,
}

impl Stats {
    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("median_s".into(), Value::Number(self.median));
        m.insert("min_s".into(), Value::Number(self.min));
        m.insert("max_s".into(), Value::Number(self.max));
        m.insert("samples".into(), Value::Number(self.samples as f64));
        m.insert("iters".into(), Value::Number(self.iters as f64));
        Value::Object(m)
    }

    /// Relative spread — the noise gauge the regression check trusts.
    fn spread(&self) -> f64 {
        (self.max - self.min) / self.median
    }
}

/// Warm up once, then time `samples` batches of `iters` iterations.
fn bench(name: &str, samples: usize, iters: u64, mut f: impl FnMut(u64)) -> Stats {
    f(iters); // warm-up
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f(iters);
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    let stats = Stats {
        median: per_iter[samples / 2],
        min: per_iter[0],
        max: per_iter[samples - 1],
        samples,
        iters,
    };
    let (unit, scale) = if stats.median < 1e-6 {
        ("ns", 1e9)
    } else if stats.median < 1e-3 {
        ("us", 1e6)
    } else {
        ("ms", 1e3)
    };
    println!(
        "{name:<28} {:>9.2} {unit}/iter  (min {:>9.2}, max {:>9.2}, {samples} samples x {iters} iters)",
        stats.median * scale,
        stats.min * scale,
        stats.max * scale,
    );
    stats
}

/// Tie-heavy synthetic training data (quantized counters next to continuous
/// ones, like the profiler's feature rows).
fn training_data(n: usize, f: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = Rng64::new(seed);
    let mut x = Matrix::zeros(0, 0);
    let mut y = Vec::with_capacity(n);
    let mut row = vec![0.0; f];
    for _ in 0..n {
        for (j, v) in row.iter_mut().enumerate() {
            let u = rng.next_f64();
            // every third feature quantized: ties are the hard case for
            // both the stable partition and the histogram edges
            *v = if j % 3 == 0 {
                (u * 8.0).floor() / 8.0
            } else {
                u
            };
        }
        y.push(2.0 * row[0] - row[1] + 0.5 * row[2] + 0.1 * rng.next_gaussian());
        x.push_row(&row);
    }
    (x, y)
}

struct Params {
    name: &'static str,
    /// Wide-matrix forest (the fig6 EA shape).
    wide: (usize, usize, usize),
    /// Narrow-matrix forest (presorted exact territory for BestOfSqrt).
    narrow: (usize, usize, usize),
    /// BestOfAll single tree (every node consults every feature).
    tree_all: (usize, usize),
    samples: usize,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Quick => Params {
            name: "quick",
            wide: (500, 32, 8),
            narrow: (800, 6, 10),
            tree_all: (1500, 24),
            samples: 5,
        },
        _ => Params {
            name: "standard",
            wide: (2000, 48, 16),
            narrow: (2000, 6, 12),
            tree_all: (6000, 32),
            samples: 7,
        },
    }
}

fn run(p: &Params) -> (BTreeMap<String, Stats>, BTreeMap<String, f64>) {
    let mut benches: BTreeMap<String, Stats> = BTreeMap::new();
    let mut add = |name: &str, s: Stats| {
        benches.insert(name.to_string(), s);
    };

    // --- Forest::fit, wide matrix ---
    let (n, f, trees) = p.wide;
    let (x, y) = training_data(n, f, 1);
    let fit = |config: ForestConfig| Forest::fit(&x, &y, config, &SeedStream::new(2));
    add(
        "forest_fit_reference",
        bench("forest_fit_reference", p.samples, 1, |it| {
            for _ in 0..it {
                black_box(fit(ForestConfig {
                    reference: true,
                    ..ForestConfig::random(trees)
                }));
            }
        }),
    );
    add(
        "forest_fit_exact",
        bench("forest_fit_exact", p.samples, 1, |it| {
            for _ in 0..it {
                black_box(fit(ForestConfig::random(trees)));
            }
        }),
    );
    add(
        "forest_fit_hist64",
        bench("forest_fit_hist64", p.samples, 1, |it| {
            for _ in 0..it {
                black_box(fit(ForestConfig {
                    bins: Some(64),
                    ..ForestConfig::random(trees)
                }));
            }
        }),
    );

    // --- predict path (allocation-free after warm-up) ---
    let forest = fit(ForestConfig::random(trees));
    let probe: Vec<f64> = (0..f).map(|j| (j as f64) / f as f64).collect();
    add(
        "forest_predict",
        bench("forest_predict", p.samples, 20_000, |it| {
            for _ in 0..it {
                black_box(forest.predict(black_box(&probe)));
            }
        }),
    );
    let cascade = Cascade::fit(
        &x,
        &y,
        CascadeConfig {
            levels: 2,
            forests_per_level: 4,
            trees_per_forest: 10,
            folds: 3,
            ..CascadeConfig::default()
        },
        &SeedStream::new(3),
    );
    let mut scratch = CascadeScratch::default();
    add(
        "cascade_predict",
        bench("cascade_predict", p.samples, 5_000, |it| {
            for _ in 0..it {
                black_box(cascade.predict_with(black_box(&probe), &mut scratch));
            }
        }),
    );

    // --- Forest::fit, narrow matrix (BestOfSqrt picks presorted) ---
    let (n, f, trees) = p.narrow;
    let (x, y) = training_data(n, f, 4);
    let fit = |reference: bool| {
        Forest::fit(
            &x,
            &y,
            ForestConfig {
                reference,
                ..ForestConfig::random(trees)
            },
            &SeedStream::new(5),
        )
    };
    add(
        "forest_fit_narrow_reference",
        bench("forest_fit_narrow_reference", p.samples, 1, |it| {
            for _ in 0..it {
                black_box(fit(true));
            }
        }),
    );
    add(
        "forest_fit_narrow_exact",
        bench("forest_fit_narrow_exact", p.samples, 1, |it| {
            for _ in 0..it {
                black_box(fit(false));
            }
        }),
    );

    // --- BestOfAll tree (presorting's best case) ---
    let (n, f) = p.tree_all;
    let (x, y) = training_data(n, f, 6);
    let fit = |reference: bool| {
        RegressionTree::fit(
            &x,
            &y,
            TreeConfig {
                strategy: SplitStrategy::BestOfAll,
                reference,
                ..TreeConfig::default()
            },
            &mut Rng64::new(7),
        )
    };
    add(
        "tree_fit_all_reference",
        bench("tree_fit_all_reference", p.samples, 1, |it| {
            for _ in 0..it {
                black_box(fit(true));
            }
        }),
    );
    add(
        "tree_fit_all_presorted",
        bench("tree_fit_all_presorted", p.samples, 1, |it| {
            for _ in 0..it {
                black_box(fit(false));
            }
        }),
    );

    let mut speedups = BTreeMap::new();
    let ratio = |num: &str, den: &str| benches[num].median / benches[den].median;
    speedups.insert(
        "forest_fit_exact".to_string(),
        ratio("forest_fit_reference", "forest_fit_exact"),
    );
    speedups.insert(
        "forest_fit_hist64".to_string(),
        ratio("forest_fit_reference", "forest_fit_hist64"),
    );
    speedups.insert(
        "forest_fit_narrow_exact".to_string(),
        ratio("forest_fit_narrow_reference", "forest_fit_narrow_exact"),
    );
    speedups.insert(
        "tree_fit_all_presorted".to_string(),
        ratio("tree_fit_all_reference", "tree_fit_all_presorted"),
    );
    println!();
    for (name, s) in &speedups {
        println!("speedup {name:<28} {s:.2}x vs reference");
    }
    (benches, speedups)
}

fn scale_to_json(benches: &BTreeMap<String, Stats>, speedups: &BTreeMap<String, f64>) -> Value {
    let mut m = BTreeMap::new();
    m.insert(
        "threads".into(),
        Value::Number(
            std::thread::available_parallelism()
                .map(|p| p.get() as f64)
                .unwrap_or(1.0),
        ),
    );
    m.insert(
        "benches".into(),
        Value::Object(
            benches
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        ),
    );
    m.insert(
        "speedups".into(),
        Value::Object(
            speedups
                .iter()
                .map(|(k, v)| (k.clone(), Value::Number(*v)))
                .collect(),
        ),
    );
    Value::Object(m)
}

/// Write `scale -> result` into `path`, preserving any other scales already
/// recorded there.
fn write_out(path: &str, scale_name: &str, result: Value) {
    let mut scales = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Value::parse(&text).ok())
        .and_then(|v| match v.get("scales") {
            Some(Value::Object(m)) => Some(m.clone()),
            _ => None,
        })
        .unwrap_or_default();
    scales.insert(scale_name.to_string(), result);
    let mut root = BTreeMap::new();
    root.insert("scales".into(), Value::Object(scales));
    let text = format!("{}\n", Value::Object(root));
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nwrote {path}");
}

/// Exact-mode benches whose regression fails the check; the reference bench
/// paired with each calibrates away machine-speed differences.
const CHECKED: &[(&str, &str)] = &[
    ("forest_fit_exact", "forest_fit_reference"),
    ("forest_fit_narrow_exact", "forest_fit_narrow_reference"),
    ("tree_fit_all_presorted", "tree_fit_all_reference"),
];

/// Maximum tolerated exact-mode slowdown after calibration.
const MAX_REGRESSION: f64 = 1.25;
/// Above this relative spread the run is too noisy to judge — skip.
const MAX_SPREAD: f64 = 0.35;

fn check(path: &str, scale_name: &str, benches: &BTreeMap<String, Stats>) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            println!("\ncheck skipped: cannot read baseline {path}: {e}");
            return 0;
        }
    };
    let baseline = match Value::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            println!("\ncheck skipped: cannot parse baseline {path}: {e}");
            return 0;
        }
    };
    let Some(base) = baseline.get("scales").and_then(|s| s.get(scale_name)) else {
        println!("\ncheck skipped: baseline {path} has no \"{scale_name}\" scale");
        return 0;
    };
    let base_median = |name: &str| {
        base.get("benches")
            .and_then(|b| b.get(name))
            .and_then(|b| b.get("median_s"))
            .and_then(Value::as_f64)
    };
    let noisy = CHECKED
        .iter()
        .flat_map(|&(fast, reference)| [fast, reference])
        .any(|name| benches[name].spread() > MAX_SPREAD);
    if noisy {
        println!(
            "\ncheck skipped: run too noisy to judge (spread > {MAX_SPREAD}); \
             not failing on an overloaded runner"
        );
        return 0;
    }
    let mut failures = 0;
    println!();
    for &(fast, reference) in CHECKED {
        let (Some(base_fast), Some(base_ref)) = (base_median(fast), base_median(reference)) else {
            println!("check: baseline lacks {fast}/{reference}; skipping that pair");
            continue;
        };
        // calibrate: the reference engine ran on both machines, so its
        // ratio isolates machine speed from code changes
        let calibration = benches[reference].median / base_ref;
        let expected = base_fast * calibration;
        let actual = benches[fast].median;
        let verdict = if actual > expected * MAX_REGRESSION {
            failures += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "check {fast:<28} {:.2} ms vs expected {:.2} ms (calibration {calibration:.2}x) {verdict}",
            actual * 1e3,
            expected * 1e3,
        );
    }
    if failures > 0 {
        println!("\ncheck FAILED: {failures} exact-mode bench(es) regressed > {MAX_REGRESSION}x");
        1
    } else {
        println!("\ncheck passed");
        0
    }
}

fn main() {
    stca_obs::init_from_env();
    stca_exec::init_from_env_and_args();
    let args = stca_util::Args::from_env().unwrap_or_default();
    let p = params(
        args.get_parsed("scale", Scale::Standard)
            .unwrap_or(Scale::Standard),
    );
    println!(
        "training microbenchmarks, scale {} (median of {} samples)\n",
        p.name, p.samples
    );
    let (benches, speedups) = run(&p);
    if let Some(path) = args.get("out") {
        write_out(path, p.name, scale_to_json(&benches, &speedups));
    }
    let code = match args.get("check") {
        Some(path) => check(path, p.name, &benches),
        None => 0,
    };
    stca_obs::emit_run_report();
    std::process::exit(code);
}
