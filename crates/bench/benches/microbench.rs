//! The workspace's microbenchmarks: the paths `perf` (perfbench/) does not
//! time, and the training-engine speed gate.
//!
//! * observability fast paths (disabled log call sites, counter
//!   increments, histogram records), which must stay in the
//!   low-nanosecond range so instrumented hot loops pay nothing when
//!   logging is off;
//! * an LLC mask switch, MGS fit + transform and the exec pool's
//!   dispatch overhead;
//! * reference-vs-optimized training pairs: each optimized split engine
//!   against `TreeConfig::reference` on the same data and seeds. Four
//!   exact-engine pairs are gated: the run exits 1 when a speedup over the
//!   reference falls below its floor in [`FLOORS`].
//!
//! Forest and cascade predict, hierarchy access and queuesim throughput
//! are `perf --traced` metrics (`deepforest.forest_predict_ns`,
//! `deepforest.cascade_predict_us`, `cachesim.hier_access_ns.*`,
//! `queuesim.events_per_s`) and are not repeated here.
//!
//! The harness is hand-rolled on `std::time::Instant` because the build
//! environment is offline (no `criterion`): each benchmark runs a warm-up,
//! then times a few batches and reports the median, min and max
//! per-iteration time. Run with
//! `cargo bench -p stca-bench --bench microbench`.

use stca_cachesim::{AccessKind, Hierarchy, HierarchyConfig};
use stca_cat::AllocationSetting;
use stca_deepforest::forest::{Forest, ForestConfig};
use stca_deepforest::mgs::{MgsConfig, MultiGrainScanner};
use stca_deepforest::tree::{RegressionTree, SplitStrategy, TreeConfig};
use stca_util::{Matrix, Rng64, SeedStream};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per benchmark outside the training gate.
const SAMPLES: usize = 15;
/// Timed single fits per training benchmark.
const TRAIN_SAMPLES: usize = 5;

/// Minimum speedup over the reference engine of each gated training
/// bench. Three are medians of one-thread runs on a shared 2-vCPU host,
/// less 25%: the forest of nine runs (1.70, range 1.45-2.06), the narrow
/// forest of the same nine (1.66, range 1.38-1.83) and the MGS window of
/// seven (1.78, range 1.48-1.87). The `BestOfAll` tree floor is its
/// quick-scale speedup recorded at one worker thread on a 1-core
/// container (1.621), divided by the 1.25 slowdown the gate tolerates.
const FLOORS: [(&str, f64); 4] = [
    ("forest_fit_exact", 1.275),
    ("forest_fit_narrow_exact", 1.245),
    ("tree_fit_all_exact", 1.297),
    ("forest_fit_mgs_exact", 1.335),
];
/// Above this relative spread (max − min over median) in a gated bench
/// the run is too noisy to judge, and the gate is skipped.
const MAX_SPREAD: f64 = 0.35;

/// One benchmark's per-iteration timings, in seconds.
struct Stats {
    median: f64,
    min: f64,
    max: f64,
}

impl Stats {
    fn spread(&self) -> f64 {
        (self.max - self.min) / self.median
    }
}

/// Warm up once, then time `samples` batches of `iters` iterations and
/// report per-iteration timings.
fn bench(name: &str, samples: usize, iters: u64, mut f: impl FnMut(u64)) -> Stats {
    f(iters);
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
    };
    let (unit, scale) = if stats.median < 1e-6 {
        ("ns", 1e9)
    } else if stats.median < 1e-3 {
        ("us", 1e6)
    } else {
        ("ms", 1e3)
    };
    println!(
        "{name:<40} {:>9.2} {unit}/iter  (min {:>9.2}, max {:>9.2}, {samples} samples x {iters} iters)",
        stats.median * scale,
        stats.min * scale,
        stats.max * scale,
    );
    stats
}

fn bench_obs_fast_paths() {
    // logging fully disabled: the default LogConfig filters everything off
    stca_obs::init_with(stca_obs::LogConfig::default());
    bench("obs/disabled_trace_call_site", SAMPLES, 10_000_000, |n| {
        for i in 0..n {
            // the macro must reduce to one relaxed atomic load; the
            // format arguments must never be evaluated
            stca_obs::trace!("event {} processed", black_box(i));
        }
    });
    bench("obs/disabled_debug_call_site", SAMPLES, 10_000_000, |n| {
        for i in 0..n {
            stca_obs::debug!("queue depth {}", black_box(i));
        }
    });
    let counter = stca_obs::counter("bench.obs.counter_total");
    bench("obs/counter_inc", SAMPLES, 10_000_000, |n| {
        for _ in 0..n {
            counter.inc();
        }
    });
    let hist = stca_obs::histogram("bench.obs.histogram_values");
    bench("obs/histogram_record", SAMPLES, 1_000_000, |n| {
        for i in 0..n {
            hist.record(black_box(i as f64 * 1e-6));
        }
    });
}

fn bench_llc_mask_switch() {
    let mut hier = Hierarchy::new(HierarchyConfig::experiment_default(), 3);
    let narrow = AllocationSetting::new(0, 2).to_cbm(20).expect("valid");
    let wide = AllocationSetting::new(0, 4).to_cbm(20).expect("valid");
    let mut flip = false;
    bench("cachesim/llc_mask_switch", SAMPLES, 100_000, |n| {
        for _ in 0..n {
            flip = !flip;
            hier.set_llc_mask(0, if flip { narrow } else { wide });
            black_box(hier.access(0, 0x1000, AccessKind::Load));
        }
    });
}

fn bench_mgs() {
    let mut rng = Rng64::new(3);
    let traces: Vec<Matrix> = (0..40)
        .map(|_| {
            let mut m = Matrix::zeros(29, 20);
            for v in m.as_mut_slice() {
                *v = rng.next_f64();
            }
            m
        })
        .collect();
    let y: Vec<f64> = (0..40).map(|i| (i % 4) as f64 / 4.0).collect();
    bench("deepforest/mgs_fit_transform_29x20", SAMPLES, 3, |n| {
        for _ in 0..n {
            let mgs = MultiGrainScanner::fit(
                &traces,
                &y,
                &MgsConfig {
                    window_sizes: vec![5, 10],
                    stride: 3,
                    trees_per_window: 8,
                    max_positions_per_sample: 16,
                    ..MgsConfig::default()
                },
                &SeedStream::new(4),
            );
            black_box(mgs.transform(&traces[0]));
        }
    });
}

fn bench_exec() {
    // dispatch overhead: the cost of fanning out n trivial tasks vs
    // computing them in a serial loop. Each par_map is one batch: it spawns
    // min(threads, n) - 1 helpers and the caller claims blocks beside them.
    // Small workloads should stay close to serial (the map runs inline at 1
    // thread); larger per-task work amortizes the spawn cost.
    let busy = |seed: u64, rounds: u64| -> u64 {
        let mut rng = Rng64::new(seed);
        let mut acc = 0u64;
        for _ in 0..rounds {
            acc = acc.wrapping_add(rng.next_u64());
        }
        acc
    };
    bench("exec/par_map_range_64_empty_tasks", SAMPLES, 200, |n| {
        for _ in 0..n {
            black_box(stca_exec::par_map_range(64, |i| i));
        }
    });
    bench("exec/par_map_64_small_tasks", SAMPLES, 50, |n| {
        for _ in 0..n {
            black_box(stca_exec::par_map_range(64, |i| busy(i as u64, 1_000)));
        }
    });
    bench("exec/serial_64_small_tasks", SAMPLES, 50, |n| {
        for _ in 0..n {
            black_box((0..64).map(|i| busy(i as u64, 1_000)).collect::<Vec<_>>());
        }
    });
    bench("exec/par_map_64_large_tasks", SAMPLES, 3, |n| {
        for _ in 0..n {
            black_box(stca_exec::par_map_range(64, |i| busy(i as u64, 400_000)));
        }
    });
    bench("exec/serial_64_large_tasks", SAMPLES, 3, |n| {
        for _ in 0..n {
            black_box((0..64).map(|i| busy(i as u64, 400_000)).collect::<Vec<_>>());
        }
    });
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

/// The design matrix of one multi-grain-scanning window forest: 10x10
/// windows at `positions` random corners of each of `samples` 29x20
/// counter traces, every window labelled with its trace's target. Counters
/// are quantized, and overlapping windows repeat values, as profiled
/// traces do.
fn window_data(samples: usize, positions: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = Rng64::new(seed);
    let scale: Vec<f64> = (0..29).map(|_| 0.5 + rng.next_f64()).collect();
    let mut x = Matrix::zeros(0, 0);
    let mut y = Vec::with_capacity(samples * positions);
    let mut window = Vec::with_capacity(100);
    for _ in 0..samples {
        let target = rng.next_f64();
        let trace: Vec<f64> = (0..29 * 20)
            .map(|i| {
                ((scale[i / 20] * (1.0 + target) + 0.3 * rng.next_gaussian()) * 32.0).round() / 32.0
            })
            .collect();
        for _ in 0..positions {
            let (r0, c0) = (rng.next_index(20), rng.next_index(11));
            window.clear();
            for r in r0..r0 + 10 {
                window.extend_from_slice(&trace[r * 20 + c0..r * 20 + c0 + 10]);
            }
            x.push_row(&window);
            y.push(target);
        }
    }
    (x, y)
}

/// Time one training run: a warm-up, then `TRAIN_SAMPLES` single fits.
fn bench_fit<T>(name: &str, mut fit: impl FnMut() -> T) -> Stats {
    bench(name, TRAIN_SAMPLES, 1, |_| {
        black_box(fit());
    })
}

/// An optimized training bench against the reference on the same fit.
struct Pair {
    name: &'static str,
    speedup: f64,
    /// The larger of the two benches' spreads.
    spread: f64,
}

fn pair(name: &'static str, reference: &Stats, fast: &Stats) -> Pair {
    Pair {
        name,
        speedup: reference.median / fast.median,
        spread: reference.spread().max(fast.spread()),
    }
}

/// Time every reference-vs-optimized training pair at one worker thread,
/// the thread count the floors were recorded at.
fn bench_training() -> Vec<Pair> {
    stca_exec::set_threads(1);
    println!(
        "\ntraining pairs (1 worker thread, the baseline's; median of {TRAIN_SAMPLES} samples)"
    );

    // Forest::fit on a wide matrix (the fig6 EA shape): exact and hist64
    // each build their column structure once and share it across all trees
    let (x, y) = training_data(500, 32, 1);
    let fit = |reference, bins| {
        let config = ForestConfig {
            reference,
            bins,
            ..ForestConfig::random(8)
        };
        Forest::fit(&x, &y, config, &SeedStream::new(2))
    };
    let reference = bench_fit("forest_fit_reference", || fit(true, None));
    let exact = bench_fit("forest_fit_exact", || fit(false, None));
    let hist64 = bench_fit("forest_fit_hist64", || fit(false, Some(64)));

    // Forest::fit on a narrow matrix
    let (x, y) = training_data(800, 6, 4);
    let fit = |reference| {
        let config = ForestConfig {
            reference,
            ..ForestConfig::random(10)
        };
        Forest::fit(&x, &y, config, &SeedStream::new(5))
    };
    let narrow_reference = bench_fit("forest_fit_narrow_reference", || fit(true));
    let narrow_exact = bench_fit("forest_fit_narrow_exact", || fit(false));

    // one BestOfAll tree (every node consults every feature), whose column
    // ranking serves one tree only
    let (x, y) = training_data(1500, 24, 6);
    let fit = |reference| {
        let config = TreeConfig {
            strategy: SplitStrategy::BestOfAll,
            reference,
            ..TreeConfig::default()
        };
        RegressionTree::fit(&x, &y, config, &mut Rng64::new(7))
    };
    let all_reference = bench_fit("tree_fit_all_reference", || fit(true));
    let all_exact = bench_fit("tree_fit_all_exact", || fit(false));

    // Forest::fit on the MGS window shape: a 10x10 window forest over
    // 40 traces x 48 window positions, depth cap 24
    let (x, y) = window_data(40, 48, 8);
    let fit = |reference| {
        let config = ForestConfig {
            reference,
            max_depth: 24,
            ..ForestConfig::random(8)
        };
        Forest::fit(&x, &y, config, &SeedStream::new(9))
    };
    let mgs_reference = bench_fit("forest_fit_mgs_reference", || fit(true));
    let mgs_exact = bench_fit("forest_fit_mgs_exact", || fit(false));

    vec![
        pair("forest_fit_exact", &reference, &exact),
        pair("forest_fit_hist64", &reference, &hist64),
        pair("forest_fit_narrow_exact", &narrow_reference, &narrow_exact),
        pair("tree_fit_all_exact", &all_reference, &all_exact),
        pair("forest_fit_mgs_exact", &mgs_reference, &mgs_exact),
    ]
}

/// Judge the gated pairs against [`FLOORS`]; false when one regressed.
fn gate(pairs: &[Pair]) -> bool {
    println!();
    for p in pairs {
        println!("speedup {:<28} {:.2}x vs reference", p.name, p.speedup);
    }
    let gated: Vec<(&Pair, f64)> = FLOORS
        .iter()
        .map(|&(name, floor)| {
            let p = pairs.iter().find(|p| p.name == name);
            (p.expect("every floor names a timed pair"), floor)
        })
        .collect();
    if let Some((p, _)) = gated.iter().find(|(p, _)| p.spread > MAX_SPREAD) {
        println!(
            "\ngate skipped: {} too noisy to judge (spread {:.3} > {MAX_SPREAD}); \
             not failing on an overloaded host",
            p.name, p.spread
        );
        return true;
    }
    println!();
    let mut passed = true;
    for (p, floor) in gated {
        let verdict = if p.speedup >= floor {
            "ok"
        } else {
            passed = false;
            "REGRESSED"
        };
        println!(
            "gate {:<28} {:.3}x vs floor {floor:.3}x  {verdict}",
            p.name, p.speedup
        );
    }
    if passed {
        println!("\ngate passed");
    } else {
        println!("\ngate FAILED: an optimized engine fell below its speedup floor");
    }
    passed
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "stca microbenchmarks (hand-rolled harness; median of {SAMPLES} samples; \
         {} worker threads on {cores} cores)\n",
        stca_exec::threads()
    );
    bench_obs_fast_paths();
    bench_llc_mask_switch();
    bench_mgs();
    bench_exec();
    if !gate(&bench_training()) {
        std::process::exit(1);
    }
}
