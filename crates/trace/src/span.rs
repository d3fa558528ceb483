//! Span records, trace dispositions, and the per-request trace context.
//!
//! A **trace** is the full story of one serving request on the virtual
//! clock: a sequence of stage spans (`queue_wait` → `predict` → `decide`
//! → …) plus the final disposition the accounting invariant assigns it.
//! Everything here is plain data built in the serving loop's *serial*
//! replay phase, so trace content is bit-identical at any thread count by
//! construction — there is no locking, no wall clock, and no
//! thread-dependent state anywhere in a trace.

/// A pipeline stage a span can cover. A closed enum (rather than free
/// strings) keeps span construction allocation-free in the serving hot
/// loop and gives the artifact checker a schema to validate against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Zero-length marker at arrival: the admission decision point.
    Admission,
    /// Arrival → dispatch: time spent in the bounded admission queue.
    QueueWait,
    /// The predict stage (primary behind the breaker, or degraded chain).
    Predict,
    /// The STAP decide stage.
    Decide,
    /// Zero-length marker: hysteresis applied a new timeout (its `applied`
    /// arg). The name is from when an apply also ran a validation
    /// simulation; it stays because it is part of the trace format.
    ValidatePolicy,
    /// Zero-length marker at drain: the request never started.
    Drain,
    /// Zero-length marker: the fleet router moved (or shed) the request —
    /// `from_shard` / `to_shard` args carry the hop.
    Route,
    /// The adapt loop retrained a candidate model while this request was
    /// being served — `version` / `outcome` args carry the result.
    Retrain,
    /// This request was shadow-scored: the candidate's prediction was
    /// computed and compared, never served (`agree` arg carries the
    /// verdict).
    Shadow,
    /// Zero-length marker: a candidate model was promoted to serving at
    /// this request (`version` arg).
    Promote,
    /// Zero-length marker: the guard band regressed and the previous
    /// model version was re-installed (`from` / `to` version args).
    Rollback,
}

impl Stage {
    /// All stages in pipeline order (table/report ordering).
    pub const ALL: [Stage; 11] = [
        Stage::Admission,
        Stage::QueueWait,
        Stage::Predict,
        Stage::Decide,
        Stage::ValidatePolicy,
        Stage::Drain,
        Stage::Route,
        Stage::Retrain,
        Stage::Shadow,
        Stage::Promote,
        Stage::Rollback,
    ];

    /// Stable wire name (Chrome `name` field, report tables).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::Predict => "predict",
            Stage::Decide => "decide",
            Stage::ValidatePolicy => "validate_policy",
            Stage::Drain => "drain",
            Stage::Route => "route",
            Stage::Retrain => "retrain",
            Stage::Shadow => "shadow",
            Stage::Promote => "promote",
            Stage::Rollback => "rollback",
        }
    }

    /// Parse a wire name back into a stage.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.name() == s)
    }
}

/// How a request's story ended. Mirrors the serving loop's accounting
/// buckets, with late completions split out so the flight recorder can
/// retain them as error-class traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Completed within its deadline.
    Completed,
    /// Completed, but the response exceeded the deadline budget.
    DeadlineExceeded,
    /// Shed by the overload policy at admission.
    ShedOverload,
    /// Shed because the deadline budget ran out before or mid-service.
    ShedDeadline,
    /// Shed because a stage stayed stuck after its retry.
    ShedFailed,
    /// Dropped at drain: could not start within the grace window.
    Drained,
    /// Shed by the fleet router: no routable shard at admission, or the
    /// reroute hop budget ran out while resolving an in-flight request.
    RouterShed,
}

impl Disposition {
    /// Every disposition, for schema validation.
    pub const ALL: [Disposition; 7] = [
        Disposition::Completed,
        Disposition::DeadlineExceeded,
        Disposition::ShedOverload,
        Disposition::ShedDeadline,
        Disposition::ShedFailed,
        Disposition::Drained,
        Disposition::RouterShed,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Disposition::Completed => "completed",
            Disposition::DeadlineExceeded => "deadline_exceeded",
            Disposition::ShedOverload => "shed_overload",
            Disposition::ShedDeadline => "shed_deadline",
            Disposition::ShedFailed => "shed_failed",
            Disposition::Drained => "drained",
            Disposition::RouterShed => "router_shed",
        }
    }

    /// Parse a wire name back into a disposition.
    pub fn parse(s: &str) -> Option<Disposition> {
        Disposition::ALL.into_iter().find(|d| d.name() == s)
    }

    /// Whether the disposition alone makes a trace error-class (the
    /// flight recorder never head-samples these away).
    pub fn is_error(self) -> bool {
        !matches!(self, Disposition::Completed)
    }
}

/// A span argument value (Chrome `args` entry).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Numeric argument.
    Num(f64),
    /// Text argument.
    Text(String),
}

/// One stage span on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The pipeline stage this span covers.
    pub stage: Stage,
    /// Virtual start time, seconds.
    pub start_s: f64,
    /// Virtual end time, seconds (`>= start_s`; equal for markers).
    pub end_s: f64,
    /// Stage-specific arguments (`tier`, `mode`, `timeout_idx`, …).
    pub args: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Span duration in virtual seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A completed request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Deterministic trace id: a pure function of `(trace seed, seq)`.
    pub trace_id: u64,
    /// Request sequence number.
    pub seq: u64,
    /// Virtual arrival time, seconds.
    pub arrival_s: f64,
    /// Virtual time the disposition was assigned, seconds.
    pub end_s: f64,
    /// Virtual server the request was dispatched to (`None` if it never
    /// left the queue).
    pub server: Option<usize>,
    /// How the request ended.
    pub disposition: Disposition,
    /// A stage tripped the watchdog and was retried during this request.
    pub watchdog_retry: bool,
    /// The circuit breaker changed state (open or close) while this
    /// request was in its predict stage.
    pub breaker_transition: bool,
    /// Head-sampling verdict for this trace (pure function of seed+seq).
    pub sampled: bool,
    /// The stage spans, in pipeline order.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Error-class traces bypass head sampling and are always retained:
    /// any non-completed disposition, a deadline-exceeded completion, a
    /// watchdog retry, or a breaker transition.
    pub fn is_error_class(&self) -> bool {
        self.disposition.is_error() || self.watchdog_retry || self.breaker_transition
    }

    /// Total time from arrival to disposition, virtual seconds.
    pub fn total_s(&self) -> f64 {
        self.end_s - self.arrival_s
    }
}

/// Builder for one in-flight request trace. Created by
/// [`FlightRecorder::begin`](crate::FlightRecorder::begin), carried
/// through the serving pipeline, and finished into the recorder.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    trace: Trace,
}

impl TraceCtx {
    /// Start a trace for request `seq` arriving at `arrival_s`.
    pub fn new(trace_id: u64, seq: u64, arrival_s: f64, sampled: bool) -> TraceCtx {
        let mut trace = Trace {
            trace_id,
            seq,
            arrival_s,
            end_s: arrival_s,
            server: None,
            disposition: Disposition::Completed,
            watchdog_retry: false,
            breaker_transition: false,
            sampled,
            spans: Vec::with_capacity(4),
        };
        trace.spans.push(SpanRecord {
            stage: Stage::Admission,
            start_s: arrival_s,
            end_s: arrival_s,
            args: Vec::new(),
        });
        TraceCtx { trace }
    }

    /// Append a span; returns it for argument attachment.
    pub fn push_span(&mut self, stage: Stage, start_s: f64, end_s: f64) -> &mut SpanRecord {
        self.trace.spans.push(SpanRecord {
            stage,
            start_s,
            end_s,
            args: Vec::new(),
        });
        self.trace
            .spans
            .last_mut()
            .expect("span pushed on the line above")
    }

    /// Record which virtual server served the request.
    pub fn set_server(&mut self, server: usize) {
        self.trace.server = Some(server);
    }

    /// Attach an argument to the admission marker span — the fleet layer
    /// stamps the owning shard here so shard identity survives reroutes.
    pub fn annotate_admission(&mut self, key: &'static str, value: AttrValue) {
        if let Some(first) = self.trace.spans.first_mut() {
            first.args.push((key, value));
        }
    }

    /// Mark that the watchdog retried a stage of this request.
    pub fn flag_watchdog_retry(&mut self) {
        self.trace.watchdog_retry = true;
    }

    /// Mark that the breaker transitioned during this request.
    pub fn flag_breaker_transition(&mut self) {
        self.trace.breaker_transition = true;
    }

    /// This trace's head-sampling verdict.
    pub fn sampled(&self) -> bool {
        self.trace.sampled
    }

    /// Close the trace with its final disposition.
    pub fn finish(mut self, disposition: Disposition, end_s: f64) -> Trace {
        self.trace.disposition = disposition;
        self.trace.end_s = end_s;
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_and_disposition_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.name()), Some(s));
        }
        for d in Disposition::ALL {
            assert_eq!(Disposition::parse(d.name()), Some(d));
        }
        assert_eq!(Stage::parse("nope"), None);
        assert_eq!(Disposition::parse(""), None);
    }

    #[test]
    fn error_classification() {
        let mut ctx = TraceCtx::new(0xAB, 3, 1.0, false);
        ctx.push_span(Stage::QueueWait, 1.0, 1.2);
        let t = ctx.finish(Disposition::Completed, 1.5);
        assert!(!t.is_error_class());

        let mut ctx = TraceCtx::new(0xAB, 4, 1.0, true);
        ctx.flag_watchdog_retry();
        let t = ctx.finish(Disposition::Completed, 1.5);
        assert!(
            t.is_error_class(),
            "retry makes a completed trace error-class"
        );

        let t = TraceCtx::new(0xAB, 5, 1.0, false).finish(Disposition::ShedOverload, 1.0);
        assert!(t.is_error_class());
        assert!((t.total_s() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn ctx_starts_with_admission_marker() {
        let ctx = TraceCtx::new(1, 0, 2.5, true);
        let t = ctx.finish(Disposition::Drained, 3.0);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].stage, Stage::Admission);
        assert_eq!(t.spans[0].duration_s(), 0.0);
    }
}
