//! Counter-trace post-processing: matrix form, feature ordering, scaling —
//! and, for fault-injected runs, trace mangling and sanitization.
//!
//! A sampled run yields `trace_len` counter snapshots; multi-grain scanning
//! consumes them as a 29 x T matrix. Figure 7c shows the *ordering* of the
//! 29 counter rows matters: grouping correlated counters (all L1d together,
//! all LLC together) lets convolution windows capture correlated events,
//! while a shuffled ordering destroys that spatial locality. Both orderings
//! are provided so the ablation can be reproduced.
//!
//! [`apply_faults`] realizes a [`stca_fault::FaultInjector`]'s per-sample
//! decisions on a trace (dropout, corruption, stuck sensors, noise);
//! [`sanitize_trace`] is the defence that runs before [`trace_to_matrix`]:
//! implausible counter values and stuck runs are quarantined (zeroed, like
//! the padding convention for missing samples) or, past a damage threshold,
//! the whole trace is rejected.

use stca_cachesim::{Counter, CounterSet, COUNTER_COUNT};
use stca_fault::sanitize::COUNTER_PLAUSIBLE_MAX;
use stca_fault::{FaultInjector, SampleFault};
use stca_util::{Matrix, Rng64};

/// How counter rows are ordered in the trace matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterOrdering {
    /// Canonical grouped order (correlated counters adjacent).
    Grouped,
    /// Deterministically shuffled with the given seed (destroys locality).
    Shuffled(u64),
}

/// Permutation of the 29 counters for an ordering. `perm[i]` is the counter
/// index placed at row `i`.
fn ordering_permutation(ordering: CounterOrdering) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..COUNTER_COUNT).collect();
    if let CounterOrdering::Shuffled(seed) = ordering {
        let mut rng = Rng64::new(seed);
        rng.shuffle(&mut perm);
    }
    perm
}

/// Convert a sampled trace to a `29 x T` matrix under the given ordering,
/// with `log1p` scaling (counter magnitudes span 6 orders of magnitude;
/// trees are scale-free per split but windowed kernels mix features, and the
/// compression keeps any single counter from dominating a window).
pub fn trace_to_matrix(trace: &[CounterSet], ordering: CounterOrdering) -> Matrix {
    stca_obs::counter("profiler.sampler.traces_converted_total").inc();
    let perm = ordering_permutation(ordering);
    let t = trace.len();
    let mut m = Matrix::zeros(COUNTER_COUNT, t);
    for (col, snap) in trace.iter().enumerate() {
        let feats = snap.to_features();
        for (row, &src) in perm.iter().enumerate() {
            m[(row, col)] = feats[src].ln_1p();
        }
    }
    m
}

/// Flatten a trace matrix row-major (the Eq.-2 "long 1xK vector" layout).
pub fn flatten(m: &Matrix) -> Vec<f64> {
    m.as_slice().to_vec()
}

/// Realize an injector's per-sample fault decisions on a sampled trace.
///
/// `station` keys the tag space so collocated workloads of one run draw
/// independent faults; the per-sample tag is `(station << 32) | index`, a
/// pure function of position — bit-deterministic at any thread count.
/// All-zero rows (the padding convention) are left untouched.
pub fn apply_faults(injector: &FaultInjector, station: u64, trace: &mut [CounterSet]) {
    if !injector.is_active() {
        return;
    }
    let zero = CounterSet::new();
    for i in 0..trace.len() {
        if trace[i] == zero {
            continue;
        }
        let tag = (station << 32) | i as u64;
        match injector.sample_fault(tag) {
            SampleFault::Drop => trace[i] = zero,
            SampleFault::Corrupt => {
                let garbage = injector.corrupt_row(tag, COUNTER_COUNT);
                for (c, v) in Counter::ALL.iter().zip(garbage) {
                    trace[i].set(*c, v);
                }
            }
            // index 0 has no previous row to get stuck on: the sensor
            // reports nothing, which is a drop
            SampleFault::Stuck => trace[i] = if i > 0 { trace[i - 1] } else { zero },
            SampleFault::None => {
                let factors = injector.noise_factors(tag, COUNTER_COUNT);
                if factors.iter().any(|&f| f != 1.0) {
                    for (c, f) in Counter::ALL.iter().zip(factors) {
                        let noisy = (trace[i].get(*c) as f64 * f).round().max(0.0) as u64;
                        trace[i].set(*c, noisy);
                    }
                }
            }
        }
    }
}

/// What [`sanitize_trace`] found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSanitizeReport {
    /// Rows quarantined for implausible counter values.
    pub corrupt: usize,
    /// Rows quarantined as stuck-sensor repeats.
    pub stuck: usize,
    /// Non-zero rows before sanitization (padding excluded).
    pub informative: usize,
    /// Total rows in the trace.
    pub total: usize,
}

impl TraceSanitizeReport {
    /// Rows zeroed by sanitization.
    fn repaired(&self) -> usize {
        self.corrupt + self.stuck
    }

    /// Whether the trace is too damaged to train on: more than half of its
    /// informative rows had to be quarantined.
    pub fn rejected(&self) -> bool {
        self.repaired() * 2 > self.informative
    }
}

impl std::fmt::Display for TraceSanitizeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} informative samples damaged (corrupt {}, stuck {})",
            self.repaired(),
            self.informative,
            self.corrupt,
            self.stuck
        )
    }
}

/// Sanitize a sampled trace in place before it becomes model input.
///
/// Two defects are quarantined by zeroing the row (the same convention as
/// padding, which downstream layers already treat as "no information"):
/// counter values above [`COUNTER_PLAUSIBLE_MAX`], and rows identical to
/// the previous *non-zero* row (a stuck sensor; genuinely identical
/// consecutive windows across all 29 live counters do not occur). Callers
/// should reject the trace when [`TraceSanitizeReport::rejected`] is set.
pub fn sanitize_trace(trace: &mut [CounterSet]) -> TraceSanitizeReport {
    let zero = CounterSet::new();
    let informative = trace.iter().filter(|s| **s != zero).count();
    let is_corrupt = |s: &CounterSet| {
        s.to_features()
            .iter()
            .any(|&v| v >= COUNTER_PLAUSIBLE_MAX as f64)
    };
    let mut quarantine = vec![false; trace.len()];
    let mut corrupt = 0usize;
    let mut stuck = 0usize;
    // Stuck detection compares against the *original* previous row, so a
    // run of N repeats quarantines all N-1 copies even as rows are zeroed.
    for i in 0..trace.len() {
        if trace[i] == zero {
            continue;
        }
        if is_corrupt(&trace[i]) {
            quarantine[i] = true;
            corrupt += 1;
        } else if i > 0 && trace[i] == trace[i - 1] {
            quarantine[i] = true;
            stuck += 1;
        }
    }
    for (row, q) in trace.iter_mut().zip(&quarantine) {
        if *q {
            // quarantined rows become zero rows — same as padding, which
            // downstream layers already treat as "no information"
            *row = zero;
        }
    }
    let report = TraceSanitizeReport {
        corrupt,
        stuck,
        informative,
        total: trace.len(),
    };
    if report.repaired() > 0 {
        stca_obs::counter("fault.samples_quarantined_total").add(report.repaired() as u64);
    }
    if report.rejected() {
        stca_obs::counter("fault.traces_rejected_total").inc();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Vec<CounterSet> {
        (0..5)
            .map(|i| {
                let mut c = CounterSet::new();
                c.add(Counter::LlcMisses, 10 * (i + 1));
                c.add(Counter::L1dLoads, 1000);
                c
            })
            .collect()
    }

    #[test]
    fn grouped_is_identity_permutation() {
        assert_eq!(
            ordering_permutation(CounterOrdering::Grouped),
            (0..COUNTER_COUNT).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shuffled_is_a_permutation_and_deterministic() {
        let a = ordering_permutation(CounterOrdering::Shuffled(7));
        let b = ordering_permutation(CounterOrdering::Shuffled(7));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..COUNTER_COUNT).collect::<Vec<_>>());
        assert_ne!(a, ordering_permutation(CounterOrdering::Grouped));
    }

    #[test]
    fn matrix_shape_and_scaling() {
        let m = trace_to_matrix(&sample_trace(), CounterOrdering::Grouped);
        assert_eq!(m.rows(), COUNTER_COUNT);
        assert_eq!(m.cols(), 5);
        // LlcMisses row: ln(1+10), ln(1+20), ...
        let row = Counter::LlcMisses as usize;
        assert!((m[(row, 0)] - (11f64).ln()).abs() < 1e-12);
        assert!(m[(row, 4)] > m[(row, 0)]);
    }

    #[test]
    fn shuffled_matrix_holds_same_values_in_different_rows() {
        let g = trace_to_matrix(&sample_trace(), CounterOrdering::Grouped);
        let s = trace_to_matrix(&sample_trace(), CounterOrdering::Shuffled(3));
        let perm = ordering_permutation(CounterOrdering::Shuffled(3));
        for (row, &src) in perm.iter().enumerate() {
            assert_eq!(s.row(row), g.row(src));
        }
    }

    #[test]
    fn flatten_length() {
        let m = trace_to_matrix(&sample_trace(), CounterOrdering::Grouped);
        assert_eq!(flatten(&m).len(), COUNTER_COUNT * 5);
    }

    #[test]
    fn labels_follow_permutation() {
        let label = |ordering, row: usize| Counter::ALL[ordering_permutation(ordering)[row]].name();
        assert_eq!(label(CounterOrdering::Grouped, 0), "inst_retired");
        assert_eq!(
            ordering_permutation(CounterOrdering::Grouped).len(),
            COUNTER_COUNT
        );
        let perm = ordering_permutation(CounterOrdering::Shuffled(3));
        for (i, &src) in perm.iter().enumerate() {
            assert_eq!(
                label(CounterOrdering::Shuffled(3), i),
                label(CounterOrdering::Grouped, src)
            );
        }
    }

    #[test]
    fn empty_trace_produces_empty_matrix() {
        let m = trace_to_matrix(&[], CounterOrdering::Grouped);
        assert_eq!(m.rows(), COUNTER_COUNT);
        assert_eq!(m.cols(), 0);
    }

    fn busy_trace(n: usize) -> Vec<CounterSet> {
        (0..n)
            .map(|i| {
                let mut c = CounterSet::new();
                c.add(Counter::LlcAccesses, 500 + 13 * i as u64);
                c.add(Counter::Cycles, 9_000 + 7 * i as u64);
                c
            })
            .collect()
    }

    #[test]
    fn apply_faults_is_deterministic_and_detectable() {
        let plan = stca_fault::FaultPlan::parse("dropout=0.3,corrupt=0.2,stuck=0.1,seed=11")
            .expect("plan");
        let inj = plan.injector(42, 0);
        let mut a = busy_trace(64);
        let mut b = busy_trace(64);
        apply_faults(&inj, 1, &mut a);
        apply_faults(&inj, 1, &mut b);
        assert_eq!(a, b, "same injector, same mangling");
        let mut other_station = busy_trace(64);
        apply_faults(&inj, 2, &mut other_station);
        assert_ne!(a, other_station, "stations draw independent faults");
        let zero = CounterSet::new();
        assert!(a.contains(&zero), "some rows dropped");
        assert!(
            a.iter()
                .any(|s| s.get(Counter::Cycles) >= COUNTER_PLAUSIBLE_MAX),
            "some rows corrupted"
        );
    }

    #[test]
    fn sanitize_quarantines_corrupt_and_stuck_rows() {
        let mut trace = busy_trace(10);
        trace[3].set(Counter::LlcMisses, COUNTER_PLAUSIBLE_MAX * 8);
        trace[6] = trace[5]; // stuck sensor
        trace[7] = trace[5]; // still stuck
        let report = sanitize_trace(&mut trace);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.stuck, 2);
        assert_eq!(report.informative, 10);
        assert!(!report.rejected());
        let zero = CounterSet::new();
        assert_eq!(trace[3], zero);
        assert_eq!(trace[6], zero);
        assert_eq!(trace[7], zero);
        assert_ne!(trace[5], zero, "the first of a stuck run is kept");
    }

    #[test]
    fn sanitize_leaves_clean_traces_alone() {
        let mut trace = busy_trace(8);
        // zero padding rows must not be flagged as stuck repeats
        trace.push(CounterSet::new());
        trace.push(CounterSet::new());
        let before = trace.clone();
        let report = sanitize_trace(&mut trace);
        assert_eq!(report.repaired(), 0);
        assert_eq!(report.informative, 8);
        assert_eq!(trace, before);
    }

    #[test]
    fn sanitize_rejects_majority_damage() {
        let mut trace = busy_trace(6);
        for row in trace.iter_mut().take(4) {
            row.set(Counter::Cycles, COUNTER_PLAUSIBLE_MAX * 2);
        }
        let report = sanitize_trace(&mut trace);
        assert!(report.rejected(), "{report}");
    }
}
