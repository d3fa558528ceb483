//! Spans recorded around the public calls the benchmark makes.
//!
//! A span is a name, a start and end on one monotonic clock, the span that
//! caused it and, for model calls, the request it served. Structural spans
//! (set-up, a pass, each pipeline call) are few and all kept. Model calls
//! come from [`TimedModel`], which wraps the `&dyn EaModel` handed to the
//! serving loop: every call is kept as a compact interval until its pass
//! is aggregated (self time needs them all), and only the first
//! [`KEEP_CALLS`] become full spans in the written span file.
//!
//! A layer's self time is its span minus the union of its children's
//! intervals, so children running in parallel on the worker pool are not
//! counted twice.

use stca_fault::StcaError;
use stca_obs::json::Value;
use stca_serve::EaModel;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a structural span in its recorder.
pub type SpanId = usize;

/// Model-call spans kept in the written span file per run.
pub const KEEP_CALLS: usize = 4096;

/// Call buffers, so worker threads rarely share a lock.
const SLOTS: usize = 16;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.train`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request served (model calls; 0 when not tied to one request).
    pub request: u64,
    /// Span minus the union of its children, once its pass is drained.
    pub self_ns: u64,
}

/// Which predictor tier a model call exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `EaModel::predict_primary`.
    Primary,
    /// `EaModel::predict_degraded`.
    Degraded,
}

impl Tier {
    /// Span name of calls on this tier.
    pub fn span_name(self) -> &'static str {
        match self {
            Tier::Primary => "core.predict_primary",
            Tier::Degraded => "core.predict_degraded",
        }
    }
}

/// One model call, kept compact: serving passes make millions.
#[derive(Debug, Clone, Copy)]
struct Call {
    start_ns: u64,
    dur_ns: u32,
    parent: u32,
    tier: Tier,
    failed: bool,
}

/// Collects spans for one run.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    calls: Vec<Mutex<Vec<Call>>>,
    kept: Mutex<Vec<Span>>,
    kept_count: AtomicUsize,
    dropped: AtomicUsize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            calls: (0..SLOTS).map(|_| Mutex::new(Vec::new())).collect(),
            kept: Mutex::new(Vec::new()),
            kept_count: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
        }
    }
}

/// This thread's call buffer, assigned round-robin on first use.
fn slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<Option<usize>> = const { Cell::new(None) };
    }
    SLOT.with(|s| {
        *s.get()
            .get_or_insert_with(|| NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS)
    })
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking pass");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: 0,
            self_ns: 0,
        });
        spans.len() - 1
    }

    fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking pass")[id]
            .end_ns = end_ns;
    }

    fn record_call(
        &self,
        tier: Tier,
        parent: SpanId,
        start_ns: u64,
        failed: bool,
        features: &[f64],
    ) {
        let end_ns = self.now_ns();
        let call = Call {
            start_ns,
            dur_ns: u32::try_from(end_ns - start_ns).unwrap_or(u32::MAX),
            parent: parent as u32,
            tier,
            failed,
        };
        self.calls[slot()]
            .lock()
            .expect("call lock poisoned by a panicking model")
            .push(call);
        if self.kept_count.fetch_add(1, Ordering::Relaxed) < KEEP_CALLS {
            self.kept
                .lock()
                .expect("kept lock poisoned by a panicking model")
                .push(Span {
                    name: tier.span_name(),
                    start_ns,
                    end_ns,
                    parent: Some(parent),
                    request: request_id(features),
                    self_ns: end_ns - start_ns,
                });
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Aggregate and forget every model call recorded so far, together with
    /// the self time of each structural span opened since `first`.
    pub fn drain(&self, first: SpanId) -> PassTrace {
        let mut calls = Vec::new();
        for slot in &self.calls {
            calls.append(
                &mut slot
                    .lock()
                    .expect("call lock poisoned by a panicking model"),
            );
        }
        let mut spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking pass");
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for (id, s) in spans.iter().enumerate().skip(first) {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
            children.entry(id).or_default();
        }
        let mut tiers = [TierTrace::default(), TierTrace::default()];
        for c in &calls {
            let t = &mut tiers[c.tier as usize];
            t.durations_ns.push(c.dur_ns as f64);
            t.failed += u64::from(c.failed);
            children
                .entry(c.parent as SpanId)
                .or_default()
                .push((c.start_ns, c.start_ns + u64::from(c.dur_ns)));
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (id, mut kids) in children {
            if id < first {
                continue;
            }
            let s = &mut spans[id];
            s.self_ns = self_time_ns(s.start_ns, s.end_ns, &mut kids);
            let layer = layers.entry(s.name).or_default();
            layer.total_ns += s.end_ns - s.start_ns;
            layer.self_ns += s.self_ns;
        }
        for t in &mut tiers {
            t.durations_ns.sort_by(f64::total_cmp);
        }
        let [primary, degraded] = tiers;
        PassTrace {
            primary,
            degraded,
            layers,
        }
    }

    /// Every structural span (with its id) plus the kept model-call spans
    /// (with their request), as the JSON written to the span file.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking pass");
        let kept = self
            .kept
            .lock()
            .expect("kept lock poisoned by a panicking model");
        let us = |ns: u64| Value::Number(ns as f64 / 1e3);
        let entry = |s: &Span| {
            BTreeMap::from([
                ("name".to_string(), Value::String(s.name.to_string())),
                ("start_us".to_string(), us(s.start_ns)),
                ("dur_us".to_string(), us(s.end_ns - s.start_ns)),
                ("self_us".to_string(), us(s.self_ns)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                ),
            ])
        };
        let mut out = Vec::with_capacity(spans.len() + kept.len());
        for (id, s) in spans.iter().enumerate() {
            let mut m = entry(s);
            m.insert("id".to_string(), Value::Number(id as f64));
            out.push(Value::Object(m));
        }
        for s in kept.iter() {
            let mut m = entry(s);
            m.insert(
                "request".to_string(),
                Value::String(format!("{:016x}", s.request)),
            );
            out.push(Value::Object(m));
        }
        let mut root = BTreeMap::new();
        root.insert("workload".to_string(), Value::String(workload.to_string()));
        root.insert("spans".to_string(), Value::Array(out));
        root.insert(
            "model_calls_not_kept".to_string(),
            Value::Number(self.dropped.load(Ordering::Relaxed) as f64),
        );
        Value::Object(root)
    }
}

/// Identifier shared by the spans of one request: an FNV-1a hash of its
/// feature bits, which the seeded stream makes unique per request and
/// which both predictor tiers see unchanged.
fn request_id(features: &[f64]) -> u64 {
    let bytes: Vec<u8> = features
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    stca_scenario::fnv1a(&bytes)
}

/// Nanoseconds of `[start, end)` that none of `children` covers; children
/// are clipped to the parent, and overlapping children count once.
pub fn self_time_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(start), e.min(end));
        if s >= e {
            continue;
        }
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (end - start).saturating_sub(covered)
}

/// Model calls on one tier during a pass.
#[derive(Debug, Default)]
pub struct TierTrace {
    /// Call durations, nanoseconds, sorted.
    pub durations_ns: Vec<f64>,
    /// Calls that returned an error or a non-finite value.
    pub failed: u64,
}

impl TierTrace {
    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.durations_ns.len() as u64
    }

    /// Summed call time, seconds.
    pub fn busy_s(&self) -> f64 {
        self.durations_ns.iter().fold(0.0, |a, b| a + b) * 1e-9
    }
}

/// Wall and self time of every span sharing one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// What one traced pass recorded.
#[derive(Debug, Default)]
pub struct PassTrace {
    /// Primary-tier model calls.
    pub primary: TierTrace,
    /// Degraded-tier model calls.
    pub degraded: TierTrace,
    /// Structural spans by name.
    pub layers: BTreeMap<&'static str, LayerTime>,
}

impl PassTrace {
    /// Summed wall time of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.total_ns as f64 * 1e-9)
    }

    /// Summed self time of the spans named `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 * 1e-9)
    }
}

/// Where spans go: nowhere (untraced passes) or under a parent span of a
/// recorder.
#[derive(Clone, Copy, Default)]
pub struct Scope<'a> {
    rec: Option<&'a Recorder>,
    parent: Option<SpanId>,
}

impl<'a> Scope<'a> {
    /// Record nothing.
    pub fn off() -> Scope<'a> {
        Scope::default()
    }

    /// Record root spans into `rec`.
    pub fn root(rec: &'a Recorder) -> Scope<'a> {
        Scope {
            rec: Some(rec),
            parent: None,
        }
    }

    /// The id the next span opened on this scope's recorder will get.
    pub fn next_id(&self) -> SpanId {
        self.rec.map_or(0, |r| {
            r.spans
                .lock()
                .expect("span lock poisoned by a panicking pass")
                .len()
        })
    }

    /// Run `f` inside a span named `name`; `f` gets the scope for children.
    pub fn span<T>(self, name: &'static str, f: impl FnOnce(Scope<'a>) -> T) -> T {
        let Some(rec) = self.rec else {
            return f(self);
        };
        let id = rec.open(name, self.parent);
        let out = f(Scope {
            rec: Some(rec),
            parent: Some(id),
        });
        rec.close(id);
        out
    }

    /// Run one model call `f` on `features`, timed as a child of this
    /// scope's span on `tier`; a non-finite result counts as failed.
    pub fn call(self, tier: Tier, features: &[f64], f: impl FnOnce() -> f64) -> f64 {
        let (Some(rec), Some(parent)) = (self.rec, self.parent) else {
            return f();
        };
        let start = rec.now_ns();
        let v = f();
        rec.record_call(tier, parent, start, !v.is_finite(), features);
        v
    }

    /// `inner` with every call timed as a child of this scope's span, or
    /// `None` when this scope records nothing.
    pub fn timed<'m>(self, inner: &'m dyn EaModel) -> Option<TimedModel<'m>>
    where
        'a: 'm,
    {
        Some(TimedModel {
            inner,
            rec: self.rec?,
            parent: self.parent?,
        })
    }
}

/// An [`EaModel`] that times each call of the model it wraps and returns
/// exactly the wrapped model's values.
pub struct TimedModel<'a> {
    inner: &'a dyn EaModel,
    rec: &'a Recorder,
    parent: SpanId,
}

impl EaModel for TimedModel<'_> {
    fn predict_primary(&self, features: &[f64]) -> Result<f64, StcaError> {
        let start = self.rec.now_ns();
        let out = self.inner.predict_primary(features);
        let failed = !matches!(out, Ok(v) if v.is_finite());
        self.rec
            .record_call(Tier::Primary, self.parent, start, failed, features);
        out
    }

    fn predict_degraded(&self, features: &[f64]) -> (f64, u8) {
        let start = self.rec.now_ns();
        let out = self.inner.predict_degraded(features);
        self.rec
            .record_call(Tier::Degraded, self.parent, start, false, features);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stca_serve::AnalyticEa;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // parallel children overlap: [10,40) ∪ [20,50) = 40 ns, plus [60,70)
        let mut kids = vec![(20, 50), (10, 40), (60, 70)];
        assert_eq!(self_time_ns(0, 100, &mut kids), 100 - 50);
        // children reaching outside the parent are clipped to it
        let mut kids = vec![(0, 30), (90, 200)];
        assert_eq!(self_time_ns(10, 100, &mut kids), 90 - 20 - 10);
        // nested and identical intervals count once
        let mut kids = vec![(10, 90), (20, 30), (10, 90)];
        assert_eq!(self_time_ns(0, 100, &mut kids), 20);
        assert_eq!(self_time_ns(0, 100, &mut []), 100);
    }

    #[test]
    fn drain_attributes_parallel_model_calls_to_their_parent() {
        let rec = Recorder::default();
        let model = AnalyticEa::default();
        Scope::root(&rec).span("serve.loop", |scope| {
            let timed = scope.timed(&model).expect("recording scope");
            std::thread::scope(|s| {
                for t in 0..2 {
                    let timed = &timed;
                    s.spawn(move || {
                        for i in 0..100 {
                            let f = [0.3 + 0.001 * (i + 100 * t) as f64];
                            timed.predict_primary(&f).expect("analytic never fails");
                            timed.predict_degraded(&f);
                        }
                    });
                }
            });
        });
        let pass = rec.drain(0);
        assert_eq!(pass.primary.calls(), 200);
        assert_eq!(pass.degraded.calls(), 200);
        assert_eq!(pass.primary.failed, 0);
        let layer = pass.layers["serve.loop"];
        assert!(layer.self_ns <= layer.total_ns);
        let busy = pass.primary.busy_s() + pass.degraded.busy_s();
        // two threads: the union of the calls is at least half their sum
        assert!((layer.total_ns - layer.self_ns) as f64 * 1e-9 >= busy / 2.0 * 0.999);
        // a second drain sees no calls
        assert_eq!(rec.drain(0).primary.calls(), 0);
    }

    #[test]
    fn timed_model_returns_bit_identical_values() {
        let rec = Recorder::default();
        let inner = AnalyticEa::default();
        Scope::root(&rec).span("serve.loop", |scope| {
            let timed = scope.timed(&inner).expect("recording scope");
            for f in [
                vec![0.5, 0.1],
                vec![1.0],
                vec![0.300_000_000_000_000_04],
                vec![f64::NAN],
                vec![f64::INFINITY, 2.0],
                vec![],
            ] {
                let want = inner.predict_primary(&f).map(f64::to_bits).ok();
                let got = timed.predict_primary(&f).map(f64::to_bits).ok();
                assert_eq!(got, want, "primary on {f:?}");
                let (we, wt) = inner.predict_degraded(&f);
                let (ge, gt) = timed.predict_degraded(&f);
                assert_eq!((ge.to_bits(), gt), (we.to_bits(), wt), "degraded on {f:?}");
            }
        });
        assert!(Scope::off().timed(&inner).is_none());
    }
}
