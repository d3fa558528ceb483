//! Proof that the deep-forest predict path is allocation-free.
//!
//! This binary installs a counting wrapper around the system allocator and
//! asserts that, after one warm-up call (scratch buffers growing to
//! steady-state capacity), repeated predictions through the scratch APIs
//! perform **zero** heap allocations. Policy search calls predict thousands
//! of times per exploration, and the serving loop calls the bound trained
//! model once per request; this test keeps allocator pressure out of both
//! loops for good.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // const-init: the counter itself must not allocate lazily inside the
    // allocator hooks
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

use stca_core::{ModelConfig, Predictor, ServingPredictor};
use stca_deepforest::{
    Cascade, CascadeConfig, CascadeScratch, DeepForest, DeepForestConfig, Forest, ForestConfig,
    MgsConfig, PredictScratch, Sample,
};
use stca_profiler::profile::{ProfileRow, ProfileSet};
use stca_serve::EaModel;
use stca_util::{Matrix, Rng64, SeedStream};

fn plane_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = Rng64::new(seed);
    let mut x = Matrix::zeros(0, 0);
    let mut y = Vec::new();
    for _ in 0..n {
        let a = rng.next_f64();
        let b = rng.next_f64();
        x.push_row(&[a, b, rng.next_f64()]);
        y.push(2.0 * a - b);
    }
    (x, y)
}

#[test]
fn forest_predict_never_allocates() {
    let (x, y) = plane_data(150, 1);
    // 130 trees outgrow any fixed lane or stack block, so a heap fallback
    // for large forests would show here
    for trees in [20, 130] {
        let forest = Forest::fit(&x, &y, ForestConfig::random(trees), &SeedStream::new(2));
        let n = allocations(|| {
            for r in 0..x.rows() {
                std::hint::black_box(forest.predict(x.row(r)));
            }
        });
        assert_eq!(n, 0, "Forest::predict ({trees} trees) allocated {n} times");
    }
}

#[test]
fn cascade_predict_with_is_allocation_free_after_warmup() {
    let (x, y) = plane_data(120, 3);
    let config = CascadeConfig {
        levels: 2,
        forests_per_level: 4,
        trees_per_forest: 10,
        folds: 3,
        ..CascadeConfig::default()
    };
    let cascade = Cascade::fit(&x, &y, config, &SeedStream::new(4));
    let mut scratch = CascadeScratch::default();
    cascade.predict_with(x.row(0), &mut scratch); // warm-up: buffers grow once
    let n = allocations(|| {
        for r in 0..x.rows() {
            std::hint::black_box(cascade.predict_with(x.row(r), &mut scratch));
        }
    });
    assert_eq!(n, 0, "Cascade::predict_with allocated {n} times");
}

#[test]
fn cascade_predict_thread_local_path_is_allocation_free_after_warmup() {
    let (x, y) = plane_data(100, 5);
    let config = CascadeConfig {
        levels: 2,
        forests_per_level: 2,
        trees_per_forest: 8,
        folds: 3,
        ..CascadeConfig::default()
    };
    let cascade = Cascade::fit(&x, &y, config, &SeedStream::new(6));
    cascade.predict(x.row(0)); // warm-up: thread-local scratch grows once
    let n = allocations(|| {
        for r in 0..x.rows() {
            std::hint::black_box(cascade.predict(x.row(r)));
        }
    });
    assert_eq!(n, 0, "Cascade::predict allocated {n} times");
}

#[test]
fn deepforest_predict_with_mgs_is_allocation_free_after_warmup() {
    // the full path: feature assembly + MGS window transform + cascade
    let mut rng = Rng64::new(7);
    let mut samples = Vec::new();
    let mut y = Vec::new();
    for i in 0..60 {
        let mut trace = Matrix::zeros(10, 8);
        for v in trace.as_mut_slice() {
            *v = rng.next_f64();
        }
        samples.push(Sample {
            scalars: vec![rng.next_f64(), rng.next_f64()],
            trace,
        });
        y.push((i % 3) as f64 / 3.0);
    }
    let config = DeepForestConfig {
        mgs: Some(MgsConfig {
            window_sizes: vec![4, 6],
            stride: 2,
            trees_per_window: 8,
            max_positions_per_sample: 16,
            ..MgsConfig::default()
        }),
        cascade: CascadeConfig {
            levels: 2,
            forests_per_level: 2,
            trees_per_forest: 8,
            folds: 3,
            ..CascadeConfig::default()
        },
        include_raw_trace: true,
        seed: 8,
    };
    let model = DeepForest::fit(&samples, &y, &config);
    assert!(model.uses_mgs());

    let mut scratch = PredictScratch::default();
    model.predict_with(&samples[0], &mut scratch); // warm-up
    let n = allocations(|| {
        for s in &samples {
            std::hint::black_box(model.predict_parts_with(&s.scalars, &s.trace, &mut scratch));
        }
    });
    assert_eq!(n, 0, "DeepForest::predict_parts_with allocated {n} times");

    // the convenience path (thread-local scratch) is equally clean
    model.predict(&samples[0]); // warm-up its own scratch
    let n = allocations(|| {
        for s in &samples {
            std::hint::black_box(model.predict(s));
        }
    });
    assert_eq!(n, 0, "DeepForest::predict allocated {n} times");
}

#[test]
fn serving_predictor_is_allocation_free_after_warmup() {
    // synthetic profile rows shaped like the profiler's: a few static
    // features and a 29 x 12 counter trace
    let mut rng = Rng64::new(9);
    let mut set = ProfileSet::new();
    for _ in 0..40 {
        let mut trace = Matrix::zeros(29, 12);
        for v in trace.as_mut_slice() {
            *v = rng.next_f64();
        }
        let static_features: Vec<f64> = (0..4).map(|_| rng.next_f64()).collect();
        let ea = 0.3 + 0.5 * static_features[0] + 0.1 * trace.as_slice()[0];
        set.push(ProfileRow {
            static_features,
            dynamic_features: vec![rng.next_f64(), rng.next_f64()],
            trace,
            ea,
            base_service_norm: 1.0 + rng.next_f64(),
            mean_response_norm: 1.5,
            p95_response_norm: 3.0,
            allocation_ratio: 2.0,
        });
    }
    let template = set.rows[0].clone();
    let model = ServingPredictor::new(Predictor::train(&set, &ModelConfig::quick(10)), template);
    let requests: Vec<Vec<f64>> = (0..50)
        .map(|i| (0..1 + i % 6).map(|_| rng.next_range(0.05, 1.0)).collect())
        .collect();

    model.predict_primary(&requests[0]).expect("finite request"); // warm-up
    let n = allocations(|| {
        for f in &requests {
            std::hint::black_box(model.predict_primary(f).expect("finite request"));
        }
    });
    assert_eq!(
        n, 0,
        "ServingPredictor::predict_primary allocated {n} times"
    );

    model.predict_degraded(&requests[0]); // warm-up
    let n = allocations(|| {
        for f in &requests {
            std::hint::black_box(model.predict_degraded(f));
        }
    });
    assert_eq!(
        n, 0,
        "ServingPredictor::predict_degraded allocated {n} times"
    );
}
