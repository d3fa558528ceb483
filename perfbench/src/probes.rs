//! Fixed-size layer probes for the traced run.
//!
//! Each probe calls one layer's public functions directly, on inputs
//! shaped like the workload's: the standard model's MGS and cascade
//! shapes over 29 x 20 counter traces, the spec's cache hierarchy and CAT
//! share, the explorer's queueing station,
//! an 8-shard candidate set and the spec's arrival stream. Timings are the
//! median of several batches after a warm-up batch; miss ratios are
//! simulated and repeat exactly.

use crate::stats::median;
use stca_cachesim::{AccessKind, AccessOutcome, CacheLevel, Hierarchy, LevelHit};
use stca_cat::AllocationSetting;
use stca_core::ModelConfig;
use stca_deepforest::{Cascade, CascadeScratch, Forest, ForestConfig, MultiGrainScanner};
use stca_queuesim::{QueueSim, RunBudget, StationConfig};
use stca_scenario::ScenarioSpec;
use stca_serve::{route, Candidate, RouterKind};
use stca_util::{Matrix, Rng64, SeedStream};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe.
const SAMPLES: usize = 5;

/// Median seconds per operation over [`SAMPLES`] batches of `ops`
/// operations, after one untimed warm-up batch.
fn per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    batch();
    let times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_secs_f64() / ops as f64
        })
        .collect();
    median(&times)
}

/// Run every probe; values keyed by per-layer metric name.
pub fn run(spec: &ScenarioSpec) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    deepforest(&mut out);
    cachesim(spec, &mut out);
    queuesim(spec, &mut out);
    serve(spec, &mut out);
    out
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.next_f64()).collect(),
    )
}

fn deepforest(out: &mut BTreeMap<&'static str, f64>) {
    let config = ModelConfig::standard(7).ea_forest;
    let mgs = config.mgs.expect("the standard EA model scans");
    let mut rng = Rng64::new(0x9E7F);
    // 32 training rows, the serve-trained set's size, of 29 x 20 traces
    let traces: Vec<Matrix> = (0..32).map(|_| random_matrix(29, 20, &mut rng)).collect();
    let y: Vec<f64> = traces
        .iter()
        .map(|t| t.row(0).iter().sum::<f64>())
        .collect();
    let scanner = MultiGrainScanner::fit(&traces, &y, &mgs, &SeedStream::new(1));
    let (mut feats, mut window) = (Vec::new(), Vec::new());
    let n = 64;
    let mgs_s = per_op(n, || {
        for t in traces.iter().cycle().take(n) {
            feats.clear();
            scanner.transform_extend(black_box(t), &mut feats, &mut window);
            black_box(&feats);
        }
    });
    out.insert("deepforest.mgs_transform_us", mgs_s * 1e6);

    // the cascade input: 5 scalars ++ raw trace ++ MGS features
    let mut x = Matrix::zeros(0, 0);
    for t in &traces {
        let mut row: Vec<f64> = (0..5).map(|_| rng.next_f64()).collect();
        row.extend_from_slice(t.as_slice());
        scanner.transform_extend(t, &mut row, &mut window);
        x.push_row(&row);
    }
    let cascade = Cascade::fit(&x, &y, config.cascade, &SeedStream::new(2));
    let mut scratch = CascadeScratch::default();
    let n = 2_000;
    let cascade_s = per_op(n, || {
        for i in 0..n {
            black_box(cascade.predict_with(black_box(x.row(i % x.rows())), &mut scratch));
        }
    });
    out.insert("deepforest.cascade_predict_us", cascade_s * 1e6);
    let forest = Forest::fit(
        &x,
        &y,
        ForestConfig::random(config.cascade.trees_per_forest),
        &SeedStream::new(3),
    );
    let n = 20_000;
    let forest_s = per_op(n, || {
        for i in 0..n {
            black_box(forest.predict(black_box(x.row(i % x.rows()))));
        }
    });
    out.insert("deepforest.forest_predict_ns", forest_s * 1e9);
}

/// `n` random line addresses inside a `bytes` footprint.
fn addresses(bytes: usize, line: usize, n: usize, seed: u64) -> Vec<u64> {
    let lines = (bytes / line).max(1) as u64;
    let mut rng = Rng64::new(seed);
    (0..n)
        .map(|_| 0x4000_0000 + rng.next_below(lines) * line as u64)
        .collect()
}

fn cachesim(spec: &ScenarioSpec, out: &mut BTreeMap<&'static str, f64>) {
    let config = stca_core::pipeline::hierarchy_config(spec);
    let ways = config.llc.ways;
    let span = spec.cat.default_span as usize;
    let share = AllocationSetting::new(0, span)
        .to_cbm(ways)
        .expect("the spec's default span fits its LLC");
    let share_bytes = config.llc.way_bytes() * span;
    let line = config.llc.line_size;
    let n = 200_000;
    for (name, ratio_name, footprint) in [
        (
            "cachesim.hier_access_ns.fit",
            "cachesim.llc_miss_ratio.fit",
            share_bytes * 3 / 4,
        ),
        (
            "cachesim.hier_access_ns.spill",
            "cachesim.llc_miss_ratio.spill",
            share_bytes * 4,
        ),
    ] {
        let addrs = addresses(footprint, line, n, 0xCAC4E);
        let mut hier = Hierarchy::new(config, 11);
        hier.set_llc_mask(0, share);
        let (mut llc_hits, mut misses) = (0u64, 0u64);
        let mut timed = false;
        let s = per_op(n, || {
            for &a in &addrs {
                match hier.access(0, a, AccessKind::Load) {
                    LevelHit::Llc if timed => llc_hits += 1,
                    LevelHit::Memory if timed => misses += 1,
                    _ => {}
                }
            }
            timed = true;
        });
        out.insert(name, s * 1e9);
        out.insert(
            ratio_name,
            misses as f64 / (llc_hits + misses).max(1) as f64,
        );
    }
    let full = if ways == 64 {
        u64::MAX
    } else {
        (1u64 << ways) - 1
    };
    let addrs = addresses(share_bytes * 16, line, n, 0x11C);
    for (name, kind) in [
        (
            "cachesim.llc_access_ns.lru",
            stca_cachesim::replacement::ReplacementKind::Lru,
        ),
        (
            "cachesim.llc_access_ns.plru",
            stca_cachesim::replacement::ReplacementKind::TreePlru,
        ),
        (
            "cachesim.llc_access_ns.random",
            stca_cachesim::replacement::ReplacementKind::Random,
        ),
    ] {
        let mut llc = CacheLevel::new(config.llc, kind, 12);
        let s = per_op(n, || {
            for &a in &addrs {
                if llc.lookup(a, full) == AccessOutcome::Miss {
                    black_box(llc.fill(a, 0, full, false).ok());
                }
            }
        });
        out.insert(name, s * 1e9);
    }
}

fn queuesim(spec: &ScenarioSpec, out: &mut BTreeMap<&'static str, f64>) {
    // the explorer's station: two servers at the explore utilization,
    // simulated for the standard model's query count
    let queries = ModelConfig::standard(7).sim_queries;
    let station = StationConfig {
        measured_queries: queries,
        warmup_queries: queries / 10,
        ..StationConfig::mm2(1.0, spec.explore.utilization, 1.5, 1.5)
    };
    // the same seeds in every batch, so every batch simulates the same
    // events
    let batch = || -> u64 {
        (1..=10)
            .map(|seed| {
                QueueSim::new(station.clone(), seed)
                    .run_budgeted(RunBudget::unlimited())
                    .events
            })
            .sum()
    };
    let events = batch();
    let s = per_op(1, || {
        black_box(batch());
    });
    out.insert("queuesim.events_per_s", events as f64 / s);
}

fn serve(spec: &ScenarioSpec, out: &mut BTreeMap<&'static str, f64>) {
    let candidates: Vec<Candidate> = (0..8)
        .map(|id| Candidate {
            id,
            queue_depth: (id as usize * 3) % 7,
        })
        .collect();
    let n = 200_000;
    for (name, kind) in [
        ("serve.route_ns.rendezvous", RouterKind::Rendezvous),
        ("serve.route_ns.least_loaded", RouterKind::LeastLoaded),
    ] {
        let s = per_op(n, || {
            for seq in 0..n as u64 {
                black_box(route(kind, black_box(0x5EED), seq, &candidates));
            }
        });
        out.insert(name, s * 1e9);
    }
    let stream = stca_scenario::convert::synthetic_stream(spec);
    let chunk = 4096;
    let s = per_op(chunk * 8, || {
        let mut t = 0.0;
        for c in 0..8u64 {
            let (reqs, end) = stream.chunk(c * chunk as u64, chunk, t);
            t = end;
            black_box(reqs);
        }
    });
    out.insert("serve.stream_chunk_ns_per_request", s * 1e9);
}
