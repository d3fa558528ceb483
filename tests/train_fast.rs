//! Golden tests for the exact and histogram split-finding engines.
//!
//! The exact engine (every column ranked once per forest, each node
//! counting-sorted by rank) must produce **bit-identical** models to the
//! reference implementation (per-node re-sorting, kept in-tree behind
//! `TreeConfig::reference`) at every thread count — it is a pure
//! performance change, protected here against silent semantic drift. The
//! narrow cases below use 4 columns; the wide ones use the shape the
//! multi-grain-scanning window forests train on (100+ columns) with the
//! inputs where an ordering slip would show: quantized ties, `-0.0` next
//! to `+0.0`, an all-NaN and a part-NaN column, and bootstrap duplicates.
//! The opt-in histogram engine is approximate by design; it is held to an
//! accuracy tolerance against exact mode on synthetic data shaped like the
//! fig6 EA task, plus the same thread-count invariance as everything else.

use stca_deepforest::tree::SplitStrategy;
use stca_deepforest::{Cascade, CascadeConfig, Forest, ForestConfig, RegressionTree, TreeConfig};
use stca_util::{Matrix, Rng64, SeedStream};

/// `set_threads` is process-global and the tests in this binary run on
/// parallel test threads, so thread-count flips are serialized.
fn exec_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` once with 1 worker and once with 8, returning both results.
fn at_1_and_8<R>(mut f: impl FnMut() -> R) -> (R, R) {
    stca_exec::set_threads(1);
    let serial = f();
    stca_exec::set_threads(8);
    let parallel = f();
    (serial, parallel)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Synthetic data with quantized (tie-heavy) and continuous features —
/// ties are where a sorting change would first break bit-identity.
fn synth(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = Rng64::new(seed);
    let mut x = Matrix::zeros(0, 0);
    let mut y = Vec::new();
    for _ in 0..n {
        let a = (rng.next_f64() * 6.0).floor() / 6.0;
        let b = rng.next_f64();
        let c = (rng.next_f64() * 3.0).floor() / 3.0;
        let d = rng.next_f64();
        x.push_row(&[a, b, c, d]);
        y.push(2.0 * a - b + 0.5 * c + 0.1 * rng.next_gaussian());
    }
    (x, y)
}

#[test]
fn presorted_forest_fit_matches_reference_at_any_thread_count() {
    let _guard = exec_lock();
    let (x, y) = synth(200, 1);
    let probes: Vec<Vec<f64>> = {
        let mut rng = Rng64::new(2);
        (0..25)
            .map(|_| (0..4).map(|_| rng.next_f64()).collect())
            .collect()
    };
    let run = |config: ForestConfig| {
        let forest = Forest::fit(&x, &y, config, &SeedStream::new(3));
        probes.iter().map(|p| forest.predict(p)).collect::<Vec<_>>()
    };
    let (fast_1, fast_8) = at_1_and_8(|| run(ForestConfig::random(20)));
    let (ref_1, ref_8) = at_1_and_8(|| {
        run(ForestConfig {
            reference: true,
            ..ForestConfig::random(20)
        })
    });
    assert_eq!(
        bits(&fast_1),
        bits(&ref_1),
        "exact == reference at 1 thread"
    );
    assert_eq!(
        bits(&fast_8),
        bits(&ref_8),
        "exact == reference at 8 threads"
    );
    assert_eq!(bits(&fast_1), bits(&fast_8), "exact thread-count invariant");
}

#[test]
fn presorted_cascade_fit_matches_reference_at_any_thread_count() {
    let _guard = exec_lock();
    let (x, y) = synth(120, 4);
    let config = CascadeConfig {
        levels: 2,
        forests_per_level: 4,
        trees_per_forest: 12,
        folds: 3,
        ..CascadeConfig::default()
    };
    let run = |config: CascadeConfig| {
        let cascade = Cascade::fit(&x, &y, config, &SeedStream::new(5));
        (0..x.rows())
            .map(|r| cascade.predict(x.row(r)))
            .collect::<Vec<_>>()
    };
    let (fast_1, fast_8) = at_1_and_8(|| run(config));
    let (ref_1, ref_8) = at_1_and_8(|| {
        run(CascadeConfig {
            reference: true,
            ..config
        })
    });
    assert_eq!(
        bits(&fast_1),
        bits(&ref_1),
        "exact == reference at 1 thread"
    );
    assert_eq!(
        bits(&fast_8),
        bits(&ref_8),
        "exact == reference at 8 threads"
    );
    assert_eq!(bits(&fast_1), bits(&fast_8), "exact thread-count invariant");
}

#[test]
fn histogram_forest_stays_within_tolerance_of_exact() {
    let _guard = exec_lock();
    let (x, y) = synth(400, 6);
    let (xt, yt) = synth(150, 7);
    let exact = Forest::fit(&x, &y, ForestConfig::random(30), &SeedStream::new(8));
    let binned = Forest::fit(
        &x,
        &y,
        ForestConfig {
            bins: Some(64),
            ..ForestConfig::random(30)
        },
        &SeedStream::new(8),
    );
    let mae = |f: &Forest| -> f64 {
        (0..xt.rows())
            .map(|r| (f.predict(xt.row(r)) - yt[r]).abs())
            .sum::<f64>()
            / yt.len() as f64
    };
    let (exact_mae, binned_mae) = (mae(&exact), mae(&binned));
    // histogram mode may trade a little accuracy for speed, but must stay
    // in the same regime as exact splits (fig6-style tolerance)
    assert!(
        binned_mae <= exact_mae + 0.05,
        "binned MAE {binned_mae:.4} vs exact {exact_mae:.4}"
    );
}

#[test]
fn histogram_forest_is_thread_count_invariant() {
    let _guard = exec_lock();
    let (x, y) = synth(150, 9);
    let (serial, parallel) = at_1_and_8(|| {
        let forest = Forest::fit(
            &x,
            &y,
            ForestConfig {
                bins: Some(32),
                ..ForestConfig::random(16)
            },
            &SeedStream::new(10),
        );
        (0..x.rows())
            .map(|r| forest.predict(x.row(r)))
            .collect::<Vec<_>>()
    });
    assert_eq!(bits(&serial), bits(&parallel));
}

/// Columns of the wide matrix, by role: all NaN, part NaN, a mix of `-0.0`
/// and `+0.0` that the target reads the sign of, then alternating
/// quantized (tie-heavy) and continuous columns.
const WIDE_COLS: usize = 104;

/// MGS-window-shaped data: `n` rows of [`WIDE_COLS`] columns.
fn wide(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = Rng64::new(seed);
    let mut x = Matrix::zeros(0, 0);
    let mut y = Vec::new();
    let mut row = vec![0.0; WIDE_COLS];
    for r in 0..n {
        row[0] = f64::NAN;
        row[1] = if r % 7 == 3 { f64::NAN } else { rng.next_f64() };
        let negative = rng.next_f64() < 0.5;
        row[2] = match rng.next_index(4) {
            0 => 1.0,
            _ if negative => -0.0,
            _ => 0.0,
        };
        for (j, v) in row.iter_mut().enumerate().skip(3) {
            let u = rng.next_f64();
            *v = if j % 2 == 1 {
                (u * 5.0).floor() / 4.0
            } else {
                u
            };
        }
        x.push_row(&row);
        let sign = if negative { 1.0 } else { 0.0 };
        y.push(row[3] - 0.5 * row[5] + sign + 0.3 * row[4] + 0.05 * rng.next_gaussian());
    }
    (x, y)
}

/// Probe rows: the training rows, then rows holding NaN, `±0.0` and `±inf`.
fn wide_probes(x: &Matrix, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng64::new(seed);
    let special = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
    let mut probes: Vec<Vec<f64>> = (0..x.rows()).map(|r| x.row(r).to_vec()).collect();
    for _ in 0..40 {
        probes.push(
            (0..x.cols())
                .map(|_| match rng.next_index(4) {
                    0 => special[rng.next_index(special.len())],
                    _ => (rng.next_f64() * 5.0).floor() / 4.0,
                })
                .collect(),
        );
    }
    probes
}

#[test]
fn exact_tree_matches_reference_on_wide_data() {
    let _guard = exec_lock();
    let (x, y) = wide(240, 11);
    let probes = wide_probes(&x, 12);
    // a bootstrap sample: duplicated rows, in draw order
    let mut rng = Rng64::new(13);
    let idx: Vec<usize> = (0..x.rows()).map(|_| rng.next_index(x.rows())).collect();
    for strategy in [SplitStrategy::BestOfSqrt, SplitStrategy::BestOfAll] {
        let run = |reference| {
            let config = TreeConfig {
                strategy,
                min_samples_leaf: 1,
                reference,
                ..TreeConfig::default()
            };
            let tree = RegressionTree::fit_indices(&x, &y, &idx, config, &mut Rng64::new(14));
            probes.iter().map(|p| tree.predict(p)).collect::<Vec<_>>()
        };
        let (fast_1, fast_8) = at_1_and_8(|| run(false));
        let (ref_1, ref_8) = at_1_and_8(|| run(true));
        assert_eq!(bits(&fast_1), bits(&ref_1), "{strategy:?} at 1 thread");
        assert_eq!(bits(&fast_8), bits(&ref_8), "{strategy:?} at 8 threads");
        assert_eq!(bits(&fast_1), bits(&fast_8), "{strategy:?} thread count");
    }
}

#[test]
fn exact_forest_matches_reference_on_wide_data() {
    let _guard = exec_lock();
    let (x, y) = wide(300, 21);
    let probes = wide_probes(&x, 22);
    let run = |reference| {
        let config = ForestConfig {
            max_depth: 24,
            reference,
            ..ForestConfig::random(6)
        };
        let forest = Forest::fit(&x, &y, config, &SeedStream::new(23));
        probes.iter().map(|p| forest.predict(p)).collect::<Vec<_>>()
    };
    let (fast_1, fast_8) = at_1_and_8(|| run(false));
    let (ref_1, ref_8) = at_1_and_8(|| run(true));
    assert_eq!(
        bits(&fast_1),
        bits(&ref_1),
        "exact == reference at 1 thread"
    );
    assert_eq!(
        bits(&fast_8),
        bits(&ref_8),
        "exact == reference at 8 threads"
    );
    assert_eq!(bits(&fast_1), bits(&fast_8), "exact thread-count invariant");
}

#[test]
fn exact_cascade_matches_reference_on_wide_data() {
    let _guard = exec_lock();
    let (x, y) = wide(72, 31);
    let probes = wide_probes(&x, 32);
    let config = CascadeConfig {
        levels: 2,
        forests_per_level: 4,
        trees_per_forest: 6,
        folds: 3,
        ..CascadeConfig::default()
    };
    let run = |reference| {
        let cascade = Cascade::fit(
            &x,
            &y,
            CascadeConfig {
                reference,
                ..config
            },
            &SeedStream::new(33),
        );
        probes
            .iter()
            .map(|p| cascade.predict(p))
            .collect::<Vec<_>>()
    };
    let (fast_1, fast_8) = at_1_and_8(|| run(false));
    let (ref_1, ref_8) = at_1_and_8(|| run(true));
    assert_eq!(
        bits(&fast_1),
        bits(&ref_1),
        "exact == reference at 1 thread"
    );
    assert_eq!(
        bits(&fast_8),
        bits(&ref_8),
        "exact == reference at 8 threads"
    );
    assert_eq!(bits(&fast_1), bits(&fast_8), "exact thread-count invariant");
}
