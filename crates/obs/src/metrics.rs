//! Global metrics registry: counters, gauges, log-bucketed histograms.
//!
//! Metric names follow `subsystem.name` with a unit suffix
//! (`_total` for counters, `_seconds` / `_bytes` etc. for measured
//! quantities): `queuesim.events_total`,
//! `deepforest.cascade.level_fit_seconds`. Handles are `Arc`s; call sites
//! in hot paths should look a handle up once (or accumulate locally and
//! flush once per run) rather than hitting the registry per event.
//!
//! Histograms are log-bucketed: bucket `i` covers
//! `[MIN * G^i, MIN * G^(i+1))` with `G = 2^(1/4)`, spanning 1 ns to ~30 y
//! when values are seconds. Quantiles are estimated by linear rank
//! interpolation *within* the bucket containing the target rank, clamped
//! to the observed min/max.
//!
//! **Bounded-relative-error guarantee.** The true quantile and its
//! estimate always land in the same bucket `[lo, lo·G)`, and any two
//! points of that interval differ by at most a factor `G`, so the
//! relative error is bounded by `G − 1 = 2^(1/4) − 1 ≈ 18.9%` for every
//! quantile of every sample set (the property test
//! `quantile_relative_error_is_bounded` asserts it). Interpolation does
//! not tighten the worst case — it removes the systematic bias the old
//! geometric-midpoint rule had at bucket boundaries, where a rank
//! sitting at the very edge of a bucket was pulled half a bucket away.
//!
//! Histograms also carry **exemplars**: each bucket remembers the trace
//! id of one request that landed in it (last write wins), linked via the
//! thread-local set by [`set_current_trace_id`]. Exemplars are a
//! best-effort debugging hint — when samples race from several threads
//! the surviving id is schedule-dependent, so they are deliberately
//! excluded from the determinism contract and from byte-stable exports.

use crate::json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Sub-buckets per octave (power of two) in histograms.
const SUB_BUCKETS_PER_OCTAVE: usize = 4;
/// Octaves covered: MIN .. MIN * 2^OCTAVES.
const OCTAVES: usize = 60;
/// Regular buckets (plus one underflow and one overflow bucket).
const BUCKETS: usize = OCTAVES * SUB_BUCKETS_PER_OCTAVE;
/// Lower bound of the first regular bucket.
const MIN_VALUE: f64 = 1e-9;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest observed `f64`.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

std::thread_local! {
    /// Trace id of the request the current thread is working on
    /// (0 = none). Histogram samples recorded while it is set stamp the
    /// id into their bucket's exemplar slot.
    static CURRENT_TRACE_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Set the calling thread's current trace id (0 clears it). The serving
/// loop sets this per request so nested timers — e.g. the
/// `deepforest.predict.*` histograms inside a model call — pick up the
/// id transparently.
pub fn set_current_trace_id(id: u64) {
    CURRENT_TRACE_ID.with(|c| c.set(id));
}

/// The calling thread's current trace id (0 = none).
pub fn current_trace_id() -> u64 {
    CURRENT_TRACE_ID.with(|c| c.get())
}

/// A lock-free log-bucketed histogram of non-negative `f64` samples.
pub struct Histogram {
    /// `[underflow, BUCKETS regular, overflow]`.
    buckets: Vec<AtomicU64>,
    /// One exemplar trace id per bucket slot (0 = none, last write wins).
    exemplars: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of samples as `f64` bits, updated by CAS.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// Index of the regular bucket containing `v` (assumes `v >= MIN_VALUE`).
fn bucket_index(v: f64) -> usize {
    let exp = (v / MIN_VALUE).log2() * SUB_BUCKETS_PER_OCTAVE as f64;
    (exp.floor() as usize).min(BUCKETS - 1)
}

/// Lower bound of regular bucket `i`.
fn bucket_lower(i: usize) -> f64 {
    MIN_VALUE * 2f64.powf(i as f64 / SUB_BUCKETS_PER_OCTAVE as f64)
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS + 2).map(|_| AtomicU64::new(0)).collect(),
            exemplars: (0..BUCKETS + 2).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

impl Histogram {
    /// Record one sample. Negative and NaN samples are counted in the
    /// underflow bucket and excluded from sum/min/max. If the calling
    /// thread has a current trace id set, it becomes the bucket's
    /// exemplar (last write wins).
    pub fn record(&self, v: f64) {
        let slot = if !v.is_finite() || v < MIN_VALUE {
            0
        } else if v >= bucket_lower(BUCKETS) {
            BUCKETS + 1
        } else {
            1 + bucket_index(v)
        };
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let trace_id = current_trace_id();
        if trace_id != 0 {
            self.exemplars[slot].store(trace_id, Ordering::Relaxed);
        }
        if v.is_finite() && v >= 0.0 {
            fetch_update_f64(&self.sum_bits, |s| s + v);
            fetch_update_f64(&self.min_bits, |m| m.min(v));
            fetch_update_f64(&self.max_bits, |m| m.max(v));
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of (non-negative, finite) samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        let m = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        let m = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Mean of samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// The bucket slot holding the `q`-quantile rank, with the sample's
    /// rank inside the bucket and the bucket's occupancy at read time.
    fn quantile_slot(&self, q: f64) -> Option<(usize, u64, u64)> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (slot, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket > 0 && seen + in_bucket >= target {
                return Some((slot, target - seen, in_bucket));
            }
            seen += in_bucket;
        }
        None
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`). Returns 0 when empty.
    ///
    /// Within the bucket `[lo, hi)` that holds the target rank, the
    /// estimate interpolates linearly by rank (`rank − ½` of the
    /// bucket's occupancy), so it never collapses to a bucket edge or
    /// midpoint; the relative error stays bounded by the bucket ratio
    /// `G − 1 ≈ 18.9%` (see the module docs).
    pub fn quantile(&self, q: f64) -> f64 {
        let Some((slot, rank, in_bucket)) = self.quantile_slot(q) else {
            return if self.count() == 0 { 0.0 } else { self.max() };
        };
        let estimate = if slot == 0 {
            self.min()
        } else if slot == BUCKETS + 1 {
            self.max()
        } else {
            let lo = bucket_lower(slot - 1);
            let hi = bucket_lower(slot);
            let frac = (rank as f64 - 0.5) / in_bucket as f64;
            lo + (hi - lo) * frac
        };
        estimate.clamp(self.min(), self.max())
    }

    /// The exemplar trace id recorded nearest the `q`-quantile bucket:
    /// the bucket itself first, then the closest occupied slot below,
    /// then above. `None` when no sample carried a trace id. Best-effort
    /// by design — see the module docs.
    pub fn exemplar_for_quantile(&self, q: f64) -> Option<u64> {
        let (slot, ..) = self.quantile_slot(q)?;
        let read = |s: usize| {
            let id = self.exemplars[s].load(Ordering::Relaxed);
            (id != 0).then_some(id)
        };
        if let Some(id) = read(slot) {
            return Some(id);
        }
        for d in 1..self.exemplars.len() {
            if slot >= d {
                if let Some(id) = read(slot - d) {
                    return Some(id);
                }
            }
            if slot + d < self.exemplars.len() {
                if let Some(id) = read(slot + d) {
                    return Some(id);
                }
            }
        }
        None
    }

    /// `(count, sum, min, max, p50, p95, p99)` in one read.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time histogram statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Mean sample.
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

fn fetch_update_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut current = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current)).to_bits();
        match bits.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// A named metric of any kind.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotonic counter.
    Counter(Arc<Counter>),
    /// Latest-value gauge.
    Gauge(Arc<Gauge>),
    /// Distribution.
    Histogram(Arc<Histogram>),
}

/// The metric store. One global instance lives behind [`registry`];
/// separate instances are for tests.
///
/// Registering a name twice with different kinds is a bug in the caller,
/// but not one worth aborting a multi-hour profiling run over: the first
/// registration keeps the name, the mismatched caller gets a *detached*
/// handle of the kind it asked for (updates to it are simply invisible in
/// reports), and a warning is logged once per name.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
    /// Names already warned about for kind conflicts (one-shot warnings).
    kind_conflicts: Mutex<BTreeSet<String>>,
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    // Must be called with no registry lock held: it takes its own lock and
    // logging may itself touch metrics.
    fn warn_kind_conflict(&self, name: &str, requested: &str, existing: &str) {
        let first_time = self
            .kind_conflicts
            .lock()
            .expect("conflict lock")
            .insert(name.to_string());
        if first_time {
            crate::warn!(
                "metric {name:?} is already registered as a {existing}; returning a \
                 detached {requested} whose updates will not appear in reports"
            );
        }
    }

    /// Get or create the named counter. If the name is already registered
    /// as a different kind, warns once and returns a detached counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let existing = {
            let mut map = self.metrics.write().expect("registry lock");
            match map
                .entry(name.to_string())
                .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
            {
                Metric::Counter(c) => return c.clone(),
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            }
        };
        self.warn_kind_conflict(name, "counter", existing);
        Arc::new(Counter::default())
    }

    /// Get or create the named gauge. If the name is already registered as
    /// a different kind, warns once and returns a detached gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let existing = {
            let mut map = self.metrics.write().expect("registry lock");
            match map
                .entry(name.to_string())
                .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
            {
                Metric::Gauge(g) => return g.clone(),
                Metric::Counter(_) => "counter",
                Metric::Histogram(_) => "histogram",
            }
        };
        self.warn_kind_conflict(name, "gauge", existing);
        Arc::new(Gauge::default())
    }

    /// Get or create the named histogram. If the name is already registered
    /// as a different kind, warns once and returns a detached histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let existing = {
            let mut map = self.metrics.write().expect("registry lock");
            match map
                .entry(name.to_string())
                .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
            {
                Metric::Histogram(h) => return h.clone(),
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
            }
        };
        self.warn_kind_conflict(name, "histogram", existing);
        Arc::new(Histogram::default())
    }

    /// Sorted snapshot of all metrics.
    pub fn snapshot(&self) -> Vec<(String, Metric)> {
        self.metrics
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Sorted snapshot of the metrics whose names start with `prefix`
    /// (e.g. `"serve."` for a health snapshot of the serving loop alone).
    ///
    /// Ordering contract: results are **byte-lexicographic** on the full
    /// name, matching [`Registry::snapshot`] and the JSON export, so
    /// repeated snapshots are byte-stable. Nested prefixes
    /// (`serve.shard3.breaker.*`) sort inside their parent, and numbered
    /// groups sort by bytes, not numerically: `serve.shard10.*` comes
    /// before `serve.shard2.*`. Matching names form one contiguous range
    /// in that order (`'.'` sorts below every identifier character), which
    /// is what makes the early-terminating range scan below exact — a
    /// prefix like `"serve.shard1."` selects shard 1 only, never
    /// `serve.shard10.*`.
    pub fn snapshot_prefixed(&self, prefix: &str) -> Vec<(String, Metric)> {
        self.metrics
            .read()
            .expect("registry lock")
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Remove every metric (test isolation between runs).
    pub fn clear(&self) {
        self.metrics.write().expect("registry lock").clear();
    }

    /// The whole registry as a JSON [`Value`] tree:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name: {count, sum,
    /// min, max, mean, p50, p95, p99}}}`.
    pub fn to_json_value(&self) -> Value {
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for (name, metric) in self.snapshot() {
            match metric {
                Metric::Counter(c) => {
                    counters.insert(name, Value::Number(c.get() as f64));
                }
                Metric::Gauge(g) => {
                    gauges.insert(name, Value::Number(g.get()));
                }
                Metric::Histogram(h) => {
                    let s = h.summary();
                    let mut obj = BTreeMap::new();
                    obj.insert("count".to_string(), Value::Number(s.count as f64));
                    obj.insert("sum".to_string(), Value::Number(s.sum));
                    obj.insert("min".to_string(), Value::Number(s.min));
                    obj.insert("max".to_string(), Value::Number(s.max));
                    obj.insert("mean".to_string(), Value::Number(s.mean));
                    obj.insert("p50".to_string(), Value::Number(s.p50));
                    obj.insert("p95".to_string(), Value::Number(s.p95));
                    obj.insert("p99".to_string(), Value::Number(s.p99));
                    histograms.insert(name, Value::Object(obj));
                }
            }
        }
        let mut root = BTreeMap::new();
        root.insert("counters".to_string(), Value::Object(counters));
        root.insert("gauges".to_string(), Value::Object(gauges));
        root.insert("histograms".to_string(), Value::Object(histograms));
        Value::Object(root)
    }

    /// JSON metrics report as a string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Global counter handle (registry lookup; cache the `Arc` in hot paths).
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

/// Global gauge handle.
pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name)
}

/// Global histogram handle.
pub fn histogram(name: &str) -> Arc<Histogram> {
    registry().histogram(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers() {
        assert!((bucket_lower(0) - 1e-9).abs() < 1e-24);
        // one octave up after SUB_BUCKETS_PER_OCTAVE buckets
        assert!((bucket_lower(SUB_BUCKETS_PER_OCTAVE) - 2e-9).abs() / 2e-9 < 1e-12);
        // indices round down within the bucket
        let lo = bucket_lower(17);
        let hi = bucket_lower(18);
        assert_eq!(bucket_index(lo * 1.0000001), 17);
        assert_eq!(bucket_index(hi * 0.9999999), 17);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let h = Histogram::default();
        // 1..=1000 ms
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3);
        }
        let max_rel = 2f64.powf(1.0 / SUB_BUCKETS_PER_OCTAVE as f64) - 1.0; // ~19%
        for (q, exact) in [(0.5, 0.5), (0.95, 0.95), (0.99, 0.99)] {
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= max_rel,
                "q{q}: est {est} vs exact {exact} (rel {rel})"
            );
        }
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - 500.5).abs() < 1e-9);
        assert!((h.min() - 1e-3).abs() < 1e-15);
        assert!((h.max() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        h.record(0.25);
        // single sample: every quantile is that sample (clamped to min/max)
        assert_eq!(h.quantile(0.0), 0.25);
        assert_eq!(h.quantile(1.0), 0.25);
        h.record(f64::NAN); // counted, not summed
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn underflow_and_overflow() {
        let h = Histogram::default();
        h.record(0.0);
        h.record(-5.0);
        h.record(1e30);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 1e30);
        assert!(h.quantile(0.99) <= 1e30);
    }

    #[test]
    fn registry_kind_conflict_returns_detached_handle() {
        let r = Registry::new();
        r.counter("x_total").add(3);
        // Mismatched kind must not abort: the caller gets a usable gauge…
        let g = r.gauge("x_total");
        g.set(7.5);
        assert_eq!(g.get(), 7.5);
        // …while the original registration keeps the name.
        let snap = r.snapshot();
        let (_, metric) = snap.iter().find(|(n, _)| n == "x_total").expect("present");
        match metric {
            Metric::Counter(c) => assert_eq!(c.get(), 3),
            other => panic!("original counter replaced by {other:?}"),
        }
        // Repeat offenders get fresh detached handles, not a panic.
        r.histogram("x_total").record(0.1);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn prefixed_snapshot_filters_names() {
        let r = Registry::new();
        r.counter("serve.admitted_total").add(2);
        r.counter("serve.shed_total").add(1);
        r.counter("exec.tasks_total").add(9);
        r.gauge("serve.queue_depth").set(4.0);
        let names: Vec<String> = r
            .snapshot_prefixed("serve.")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            names,
            vec![
                "serve.admitted_total",
                "serve.queue_depth",
                "serve.shed_total"
            ]
        );
        assert!(r.snapshot_prefixed("nope.").is_empty());
    }

    /// Regression: nested fleet prefixes (`serve.shardN.breaker.*`) must
    /// come back byte-stably sorted under the key-sorted export contract,
    /// and a per-shard prefix must select exactly that shard.
    #[test]
    fn prefixed_snapshot_is_byte_stable_for_nested_shard_prefixes() {
        let r = Registry::new();
        // registration order deliberately scrambled
        for name in [
            "serve.shard2.admitted_total",
            "serve.shard10.breaker.opens_total",
            "serve.shard1.breaker.rejects_total",
            "serve.shard1.admitted_total",
            "serve.shard10.admitted_total",
            "serve.shard1.breaker.opens_total",
            "serve.fleet.rerouted_total",
            "serve.shard3.breaker.closes_total",
        ] {
            r.counter(name).add(1);
        }
        let names: Vec<String> = r
            .snapshot_prefixed("serve.")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        // byte order: "fleet" < "shard1" < "shard10" < "shard2" < "shard3",
        // and within a shard, "admitted" < "breaker.*"
        assert_eq!(
            names,
            vec![
                "serve.fleet.rerouted_total",
                "serve.shard1.admitted_total",
                "serve.shard1.breaker.opens_total",
                "serve.shard1.breaker.rejects_total",
                "serve.shard10.admitted_total",
                "serve.shard10.breaker.opens_total",
                "serve.shard2.admitted_total",
                "serve.shard3.breaker.closes_total",
            ]
        );
        // repeated snapshots are byte-identical
        let again: Vec<String> = r
            .snapshot_prefixed("serve.")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, again);
        // a shard-scoped prefix selects exactly that shard: shard1, not
        // shard10
        let shard1: Vec<String> = r
            .snapshot_prefixed("serve.shard1.")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            shard1,
            vec![
                "serve.shard1.admitted_total",
                "serve.shard1.breaker.opens_total",
                "serve.shard1.breaker.rejects_total",
            ]
        );
        // nested prefix digs one level deeper
        let breaker: Vec<String> = r
            .snapshot_prefixed("serve.shard1.breaker.")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            breaker,
            vec![
                "serve.shard1.breaker.opens_total",
                "serve.shard1.breaker.rejects_total",
            ]
        );
    }

    /// Property: for any sample set and any quantile, the estimate's
    /// relative error against the exact sample quantile is bounded by
    /// the bucket ratio `G − 1`.
    #[test]
    fn quantile_relative_error_is_bounded() {
        let max_rel = 2f64.powf(1.0 / SUB_BUCKETS_PER_OCTAVE as f64) - 1.0 + 1e-9;
        // a deterministic mix of shapes: uniform grid, geometric,
        // heavy-tailed, constant, tiny-n, and boundary-hugging samples
        let gridded: Vec<f64> = (1..=500).map(|i| i as f64 * 1e-3).collect();
        let geometric: Vec<f64> = (0..300).map(|i| 1e-6 * 1.07f64.powi(i)).collect();
        let heavy: Vec<f64> = (1..=400).map(|i| 1e-4 / (i as f64 / 400.0)).collect();
        let constant = vec![0.125; 64];
        let tiny = vec![3.0e-3, 5.0e-3, 8.0e-3];
        // values sitting exactly on bucket lower bounds — the boundary
        // case the old geometric-midpoint rule was biased on
        let boundary: Vec<f64> = (40..80).map(bucket_lower).collect();
        for samples in [gridded, geometric, heavy, constant, tiny, boundary] {
            let h = Histogram::default();
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            for &v in &samples {
                h.record(v);
            }
            for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let est = h.quantile(q);
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
                let exact = sorted[rank];
                let rel = (est - exact).abs() / exact;
                assert!(
                    rel <= max_rel,
                    "n={} q={q}: est {est} vs exact {exact} (rel {rel})",
                    sorted.len()
                );
            }
        }
    }

    #[test]
    fn exemplars_resolve_quantile_buckets() {
        let h = Histogram::default();
        // no trace id set: samples leave no exemplar
        h.record(0.010);
        assert_eq!(h.exemplar_for_quantile(0.5), None);
        // stamped samples: fast requests tagged 0x11, slow tagged 0x22
        set_current_trace_id(0x11);
        for _ in 0..99 {
            h.record(0.010);
        }
        set_current_trace_id(0x22);
        h.record(10.0);
        set_current_trace_id(0);
        assert_eq!(h.exemplar_for_quantile(0.50), Some(0x11));
        assert_eq!(h.exemplar_for_quantile(0.999), Some(0x22));
        // clearing the thread-local stops stamping
        h.record(20.0);
        assert_eq!(h.exemplar_for_quantile(1.0), Some(0x22), "nearest slot");
    }

    #[test]
    fn exports_are_byte_stable_and_key_sorted() {
        let r = Registry::new();
        // insert in non-sorted order
        r.counter("serve.z_total").add(1);
        r.gauge("serve.a_depth").set(2.0);
        r.histogram("serve.m_seconds").record(0.25);
        r.counter("exec.tasks_total").add(4);
        let names: Vec<String> = r
            .snapshot_prefixed("serve.")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "prefixed snapshot must be key-sorted");
        assert_eq!(r.to_json(), r.to_json(), "JSON export is byte-stable");
    }
}
