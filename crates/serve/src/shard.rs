//! One serving shard: the serial-replay core the fleet driver runs once
//! per fault domain.
//!
//! [`ShardCore`] is the phase-2 state machine of the serving loop —
//! bounded admission queue, virtual servers, circuit breaker, hysteresis
//! controller, watchdog retry path, deadline budgets, and graceful drain.
//! `fleet.rs` runs one core per shard. A one-shard run's core has no
//! shard id, which keeps its log, metric names, and traces in the
//! pre-fleet format (see `fleet.rs` for the one-shard rules).
//!
//! Decision-log entries ([`Entry`], encoded without `core::fmt`) flow
//! through a caller-owned [`DecisionSink`]: one sink per run, shared by
//! every shard in a fleet, so the fleet decision hash covers shard entries
//! and router entries in one deterministic serial order. The sink also
//! queues each policy apply's validation sim ([`ValidationJob`]);
//! `serve_fleet` hands them to its helper threads at each chunk boundary
//! and credits each one back to its shard in queue order.

use crate::adapt::{AdaptEvent, Completion, Lifecycle};
use crate::breaker::CircuitBreaker;
use crate::decision_log::{Entry, LogStage};
use crate::fleet::ShardStats;
use crate::hysteresis::Hysteresis;
use crate::model::{decide, EaModel, TIMEOUT_GRID};
use crate::request::Request;
use crate::server::{OverloadPolicy, ServeConfig};
use crate::watchdog::{StageRun, Watchdog};
use crate::Verdict;
use stca_fault::{FaultInjector, FaultPlan};
use stca_queuesim::{QueueSim, RunBudget, StationConfig};
use stca_trace::{AttrValue, Disposition, FlightRecorder, Stage, TraceCtx};
use stca_util::{Distribution, Fnv1a};
use std::collections::VecDeque;

/// A per-shard metric name: `serve.<name>` in a one-shard run,
/// `serve.shardN.<name>` for fleet shard N.
pub(crate) fn shard_metric(shard: Option<u32>, name: &str) -> String {
    match shard {
        Some(id) => format!("serve.shard{id}.{name}"),
        None => format!("serve.{name}"),
    }
}

/// Rolling FNV-1a decision-log hash plus the (optional) retained log, and
/// the queue of validation sims not yet run.
/// Entries are hashed as `entry + "\n"` so the hash equals the FNV-1a of
/// the decision-log file bytes.
#[derive(Debug)]
pub(crate) struct DecisionSink {
    hash: Fnv1a,
    log: Vec<String>,
    keep: bool,
    /// Each entry is encoded here, so only a retained entry allocates.
    buf: Vec<u8>,
    validations: Vec<ValidationJob>,
}

impl DecisionSink {
    pub(crate) fn new(keep: bool) -> Self {
        DecisionSink {
            hash: Fnv1a::new(),
            log: Vec::new(),
            keep,
            buf: Vec::new(),
            validations: Vec::new(),
        }
    }

    /// Log one entry; `shard` is the pushing fleet shard's id, which the
    /// line ends with (`None` for router and shard-fault entries and in a
    /// one-shard run).
    pub(crate) fn push(&mut self, entry: Entry, shard: Option<u32>) {
        self.buf.clear();
        entry.encode(shard, &mut self.buf);
        self.buf.push(b'\n');
        self.hash.bytes(&self.buf);
        if self.keep {
            let line = &self.buf[..self.buf.len() - 1];
            let line = String::from_utf8(line.to_vec()).expect("log entries are ASCII");
            self.log.push(line);
        }
    }

    /// Take the queued validation sims, in the serial order they were
    /// queued.
    pub(crate) fn take_validations(&mut self) -> Vec<ValidationJob> {
        std::mem::take(&mut self.validations)
    }

    pub(crate) fn hash(&self) -> u64 {
        self.hash.finish()
    }

    pub(crate) fn into_log(self) -> Vec<String> {
        self.log
    }
}

/// Pure per-request compute: everything the parallel phase produces.
#[derive(Debug, Clone)]
pub(crate) struct Computed {
    /// Primary EA, if the model returned one.
    pub(crate) primary: Option<f64>,
    /// Degraded EA and its tier.
    pub(crate) degraded_ea: f64,
    pub(crate) degraded_tier: u8,
}

/// A request waiting in (or entering) the admission queue.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    pub(crate) seq: u64,
    pub(crate) arrival_s: f64,
    /// Earliest virtual time service may start. Equals `arrival_s` for a
    /// directly-routed request; a rerouted request cannot start before the
    /// crash that moved it. Deadline budgets always count from
    /// `arrival_s`.
    pub(crate) ready_s: f64,
    pub(crate) deadline_s: f64,
    /// Reroute hops this request has taken (fleet only).
    pub(crate) hops: u32,
    /// Feature row (kept past phase 1 so the adapt lifecycle can window,
    /// shadow-score, and serve retrained models on it).
    pub(crate) features: Vec<f64>,
    pub(crate) comp: Computed,
    /// In-flight trace (`Some` when tracing is enabled).
    pub(crate) ctx: Option<TraceCtx>,
}

/// Serial replay state for one shard (phase 2 of each chunk).
pub(crate) struct ShardCore<'a> {
    pub(crate) cfg: &'a ServeConfig,
    /// The run's fault injectors for retry attempts 0 and 1. The predict
    /// fault and the stage stalls are rolled where they take effect, so
    /// the injected-fault counters count only applied faults.
    inj: &'a [FaultInjector; 2],
    pub(crate) breaker: CircuitBreaker,
    pub(crate) hyst: Hysteresis,
    watchdog: Watchdog,
    /// The shard's report, counted into as the replay runs (the fleet
    /// driver fills in the rest when the run ends).
    pub(crate) stats: ShardStats,
    /// Per-server virtual free-at times.
    servers: Vec<f64>,
    pub(crate) waiting: VecDeque<Pending>,
    pub(crate) responses: Vec<f64>,
    last_ea: f64,
    seed: u64,
    /// Once graceful drain begins, a half-open breaker must not spend
    /// drain traffic on probe recovery: probe verdicts are gated to
    /// rejects.
    draining: bool,
    /// Shard id this core was created as (`None` in a one-shard run). Every
    /// decision-log entry it pushes ends in `" shard=N"` when set.
    shard: Option<u32>,
    /// Drift-aware model lifecycle (`Some` once [`ShardCore::install_adapt`]
    /// ran with adaptation enabled).
    pub(crate) lifecycle: Option<Lifecycle>,
    resp_hist: std::sync::Arc<stca_obs::Histogram>,
    /// Flight recorder (`Some` when tracing is enabled). Written only by
    /// the serial replay phase, so retention is thread-count-proof.
    pub(crate) recorder: Option<FlightRecorder>,
}

impl<'a> ShardCore<'a> {
    /// A fresh core. `shard` selects fleet mode: per-shard metric names
    /// (`serve.shardN.*`), a `" shard=N"` decision-log suffix, and a
    /// `shard` admission attribute; `None` (one shard) keeps the `serve.*`
    /// names and the pre-fleet byte format.
    pub(crate) fn new(
        cfg: &'a ServeConfig,
        inj: &'a [FaultInjector; 2],
        seed: u64,
        shard: Option<u32>,
    ) -> Self {
        let initial = decide(&cfg.station, 1.0);
        let resp_hist = stca_obs::histogram(&shard_metric(shard, "response_seconds"));
        ShardCore {
            cfg,
            inj,
            breaker: CircuitBreaker::new(cfg.breaker),
            hyst: Hysteresis::new(cfg.hysteresis_k, initial),
            watchdog: Watchdog {
                budget_s: cfg.watchdog_budget_s,
            },
            stats: ShardStats {
                id: shard.unwrap_or(0),
                ..ShardStats::default()
            },
            servers: vec![0.0; cfg.servers],
            waiting: VecDeque::new(),
            responses: Vec::new(),
            last_ea: 1.0,
            seed,
            draining: false,
            shard,
            lifecycle: None,
            resp_hist,
            recorder: cfg.trace.map(FlightRecorder::new),
        }
    }

    /// Install the drift-aware model lifecycle, if the config enables it.
    /// Called once per core, right after construction.
    pub(crate) fn install_adapt(&mut self, plan: &FaultPlan) {
        if self.cfg.adapt.enabled {
            self.lifecycle = Some(Lifecycle::new(
                self.cfg.adapt,
                plan.clone(),
                self.seed,
                self.shard,
            ));
        }
    }

    /// Open the trace of a fresh arrival (`None` when tracing is off).
    /// Fleet shards tag the admission span with their id.
    pub(crate) fn begin_trace(&mut self, seq: u64, arrival_s: f64) -> Option<TraceCtx> {
        let mut ctx = self.recorder.as_mut()?.begin(seq, arrival_s);
        if let Some(id) = self.shard {
            ctx.annotate_admission("shard", AttrValue::Num(f64::from(id)));
        }
        Some(ctx)
    }

    /// File a finished trace (no-op when tracing is off).
    pub(crate) fn record_trace(
        &mut self,
        ctx: Option<TraceCtx>,
        disposition: Disposition,
        end_s: f64,
    ) {
        if let (Some(rec), Some(ctx)) = (self.recorder.as_mut(), ctx) {
            rec.record(ctx.finish(disposition, end_s));
        }
    }

    /// Earliest-free server (lowest index breaks ties).
    fn next_server(&self) -> (usize, f64) {
        let mut best = 0;
        let mut best_free = self.servers[0];
        for (i, &f) in self.servers.iter().enumerate().skip(1) {
            if f < best_free {
                best = i;
                best_free = f;
            }
        }
        (best, best_free)
    }

    /// Current queue depth (the router's load snapshot).
    pub(crate) fn queue_depth(&self) -> usize {
        self.waiting.len()
    }

    /// Flip the drain gate: from here on, half-open breaker probes are
    /// rejected instead of admitted.
    pub(crate) fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Whether the drain gate is closed (drain has begun).
    #[cfg(test)]
    pub(crate) fn is_draining(&self) -> bool {
        self.draining
    }

    /// Take the whole admission queue (shard crash: the fleet reroutes or
    /// sheds every waiting request).
    pub(crate) fn flush_waiting(&mut self) -> Vec<Pending> {
        self.waiting.drain(..).collect()
    }

    /// Push every server's free-at time to at least `t` (crash outage or
    /// injected shard stall: the shard does no useful work until `t`).
    pub(crate) fn freeze_until(&mut self, t: f64) {
        for f in &mut self.servers {
            if *f < t {
                *f = t;
            }
        }
    }

    /// Try to move the queue head into service, if it can start by
    /// `now_limit`. Returns false when the head must keep waiting (or the
    /// queue is empty).
    pub(crate) fn dispatch_one(&mut self, now_limit: f64, sink: &mut DecisionSink) -> bool {
        let Some(head) = self.waiting.front() else {
            return false;
        };
        let (si, free) = self.next_server();
        let start = free.max(head.ready_s);
        if start > now_limit {
            return false;
        }
        let mut p = self.waiting.pop_front().expect("front checked above");
        if let Some(ctx) = p.ctx.as_mut() {
            let depth = self.waiting.len() as f64;
            ctx.push_span(Stage::QueueWait, p.arrival_s, start)
                .args
                .push(("queue_depth", AttrValue::Num(depth)));
        }
        // deadline check at dispatch: queueing alone may have eaten the
        // whole budget
        if start - p.arrival_s >= p.deadline_s {
            self.stats.accounting.shed_deadline += 1;
            if let Some(lc) = self.lifecycle.as_mut() {
                lc.note_deadline_event();
            }
            sink.push(
                Entry::ShedDeadline {
                    seq: p.seq,
                    stage: LogStage::Queue,
                },
                self.shard,
            );
            self.record_trace(p.ctx.take(), Disposition::ShedDeadline, start);
            return true;
        }
        self.service(p, start, si, sink);
        true
    }

    pub(crate) fn dispatch_ready(&mut self, now: f64, sink: &mut DecisionSink) {
        while self.dispatch_one(now, sink) {}
    }

    /// Run stage `stage` (0 = predict, 1 = decide) of request `seq` under
    /// the watchdog with its retry path. Returns the virtual cost charged,
    /// whether the stage ultimately succeeded, and whether the watchdog
    /// had to retry it. Each attempt's injected stall is rolled when that
    /// attempt runs, keyed `seq * 2 + stage` on the attempt's injector.
    fn run_stage(&mut self, base_cost_s: f64, seq: u64, stage: u64) -> (f64, bool, bool) {
        let tag = seq * 2 + stage;
        match self
            .watchdog
            .supervise(base_cost_s, self.inj[0].stage_stall_s(tag))
        {
            StageRun::Ok { cost_s } => (cost_s, true, false),
            StageRun::Stuck { wasted_s } => {
                self.stats.watchdog_trips += 1;
                self.stats.retries += 1;
                match self
                    .watchdog
                    .supervise(base_cost_s, self.inj[1].stage_stall_s(tag))
                {
                    StageRun::Ok { cost_s } => (wasted_s + cost_s, true, true),
                    StageRun::Stuck { wasted_s: w2 } => {
                        self.stats.watchdog_trips += 1;
                        (wasted_s + w2, false, true)
                    }
                }
            }
        }
    }

    /// Execute predict → decide for one dispatched request.
    fn service(&mut self, mut p: Pending, start: f64, si: usize, sink: &mut DecisionSink) {
        if let Some(ctx) = p.ctx.as_mut() {
            ctx.set_server(si);
        }
        stca_obs::set_virtual_now(start);
        // ---- predict stage (primary behind the breaker) ----
        let (predict_cost, predict_ok, predict_retried) =
            self.run_stage(self.cfg.predict_cost_s, p.seq, 0);
        if predict_retried {
            if let Some(ctx) = p.ctx.as_mut() {
                ctx.flag_watchdog_retry();
            }
        }
        if !predict_ok {
            self.servers[si] = start + predict_cost;
            self.stats.accounting.shed_failed += 1;
            sink.push(
                Entry::Failed {
                    seq: p.seq,
                    stage: LogStage::Predict,
                },
                self.shard,
            );
            if let Some(ctx) = p.ctx.as_mut() {
                ctx.push_span(Stage::Predict, start, start + predict_cost)
                    .args
                    .push(("retries", AttrValue::Num(2.0)));
            }
            self.record_trace(p.ctx.take(), Disposition::ShedFailed, start + predict_cost);
            return;
        }
        let breaker_counters = (self.breaker.opens, self.breaker.closes);
        let verdict = self.breaker.decide_gated(start, p.seq, !self.draining);
        // the injected predictor fault is rolled only for a primary answer
        // the breaker admitted: it takes effect nowhere else
        let (mut ea, tier) = match verdict {
            Verdict::Admit | Verdict::Probe => match p.comp.primary {
                Some(ea) if !self.inj[0].predict_fault(p.seq) => {
                    self.breaker.record_success(start);
                    (ea, 0u8)
                }
                _ => {
                    self.breaker.record_failure(start);
                    self.stats.degraded += 1;
                    (p.comp.degraded_ea, p.comp.degraded_tier)
                }
            },
            Verdict::Reject => {
                self.stats.degraded += 1;
                (p.comp.degraded_ea, p.comp.degraded_tier)
            }
        };
        // a promoted model version serves the primary path; candidates in
        // shadow are unreachable from serve_ea by construction
        let mut served_version = 0u64;
        if tier == 0 {
            if let Some((v, pred)) = self
                .lifecycle
                .as_ref()
                .and_then(|lc| lc.serve_ea(&p.features))
            {
                ea = pred;
                served_version = v;
            }
        }
        self.last_ea = ea;
        if let Some(ctx) = p.ctx.as_mut() {
            if (self.breaker.opens, self.breaker.closes) != breaker_counters {
                ctx.flag_breaker_transition();
            }
            let span = ctx.push_span(Stage::Predict, start, start + predict_cost);
            span.args.push((
                "mode",
                AttrValue::Text(if tier == 0 { "strict" } else { "degraded" }.to_string()),
            ));
            span.args.push(("tier", AttrValue::Num(f64::from(tier))));
            span.args.push((
                "verdict",
                AttrValue::Text(
                    match verdict {
                        Verdict::Admit => "admit",
                        Verdict::Probe => "probe",
                        Verdict::Reject => "reject",
                    }
                    .to_string(),
                ),
            ));
            span.args.push(("ea", AttrValue::Num(ea)));
        }
        // deadline propagation: no point deciding for a request whose
        // budget died in the predict stage
        if (start + predict_cost) - p.arrival_s >= p.deadline_s {
            self.servers[si] = start + predict_cost;
            self.stats.accounting.shed_deadline += 1;
            if let Some(lc) = self.lifecycle.as_mut() {
                lc.note_deadline_event();
            }
            sink.push(
                Entry::ShedDeadline {
                    seq: p.seq,
                    stage: LogStage::Predict,
                },
                self.shard,
            );
            self.record_trace(
                p.ctx.take(),
                Disposition::ShedDeadline,
                start + predict_cost,
            );
            return;
        }
        // ---- decide stage ----
        let (decide_cost, decide_ok, decide_retried) =
            self.run_stage(self.cfg.decide_cost_s, p.seq, 1);
        if decide_retried {
            if let Some(ctx) = p.ctx.as_mut() {
                ctx.flag_watchdog_retry();
            }
        }
        let total = predict_cost + decide_cost;
        if !decide_ok {
            self.servers[si] = start + total;
            self.stats.accounting.shed_failed += 1;
            sink.push(
                Entry::Failed {
                    seq: p.seq,
                    stage: LogStage::Decide,
                },
                self.shard,
            );
            if let Some(ctx) = p.ctx.as_mut() {
                ctx.push_span(Stage::Decide, start + predict_cost, start + total)
                    .args
                    .push(("retries", AttrValue::Num(2.0)));
            }
            self.record_trace(p.ctx.take(), Disposition::ShedFailed, start + total);
            return;
        }
        let idx = decide(&self.cfg.station, ea);
        let completion = start + total;
        if let Some(ctx) = p.ctx.as_mut() {
            let span = ctx.push_span(Stage::Decide, start + predict_cost, completion);
            span.args.push(("timeout_idx", AttrValue::Num(idx as f64)));
            span.args
                .push(("timeout_s", AttrValue::Num(TIMEOUT_GRID[idx])));
        }
        if let Some(new_idx) = self.hyst.observe(idx) {
            self.validate_policy(new_idx, sink);
            if let Some(ctx) = p.ctx.as_mut() {
                ctx.push_span(Stage::ValidatePolicy, completion, completion)
                    .args
                    .push(("applied", AttrValue::Num(new_idx as f64)));
            }
        }
        self.servers[si] = completion;
        stca_obs::set_virtual_now(completion);
        let resp = completion - p.arrival_s;
        self.stats.accounting.completed += 1;
        let exceeded = resp > p.deadline_s;
        if exceeded {
            self.stats.accounting.deadline_exceeded += 1;
        }
        self.responses.push(resp);
        if let Some(ctx) = p.ctx.as_ref() {
            // stamp the response sample with this request's trace id so
            // the `serve.response_seconds` bucket gains an exemplar
            stca_obs::set_current_trace_id(ctx.trace_id());
        }
        self.resp_hist.record(resp);
        if p.ctx.is_some() {
            stca_obs::set_current_trace_id(0);
        }
        sink.push(
            Entry::Ok {
                seq: p.seq,
                tier,
                ea,
                t: idx,
                applied: self.hyst.applied(),
                resp,
                version: served_version,
            },
            self.shard,
        );
        // advance the model lifecycle with this completion; any drift,
        // retrain, shadow, promotion, or rollback it produces is logged
        // (and traced) at this request's completion time
        let breaker_open = self.breaker.is_open_at(completion);
        let draining = self.draining;
        let events = match self.lifecycle.as_mut() {
            Some(lc) => lc.on_complete(Completion {
                features: &p.features,
                degraded_ea: p.comp.degraded_ea,
                served_ea: ea,
                now: completion,
                deadline_missed: exceeded,
                breaker_open,
                draining,
            }),
            None => Vec::new(),
        };
        self.apply_adapt_events(&events, p.ctx.as_mut(), completion, sink);
        let disposition = if exceeded {
            Disposition::DeadlineExceeded
        } else {
            Disposition::Completed
        };
        self.record_trace(p.ctx.take(), disposition, completion);
    }

    /// Turn lifecycle events into decision-log entries and trace spans.
    /// Entry order is fixed by the event order, so the decision hash
    /// covers the whole lifecycle deterministically.
    fn apply_adapt_events(
        &self,
        events: &[AdaptEvent],
        mut ctx: Option<&mut TraceCtx>,
        now: f64,
        sink: &mut DecisionSink,
    ) {
        let shard = self.shard;
        for ev in events {
            match *ev {
                AdaptEvent::Drift { score } => sink.push(Entry::Drift { score }, shard),
                AdaptEvent::Retrain { version, rows } => {
                    sink.push(Entry::Retrain { version, rows }, shard);
                    if let Some(ctx) = ctx.as_deref_mut() {
                        let span = ctx.push_span(Stage::Retrain, now, now);
                        span.args.push(("version", AttrValue::Num(version as f64)));
                        span.args
                            .push(("outcome", AttrValue::Text("ok".to_string())));
                    }
                }
                AdaptEvent::RetrainFail { version } => {
                    sink.push(Entry::RetrainFail { version }, shard);
                    if let Some(ctx) = ctx.as_deref_mut() {
                        let span = ctx.push_span(Stage::Retrain, now, now);
                        span.args.push(("version", AttrValue::Num(version as f64)));
                        span.args
                            .push(("outcome", AttrValue::Text("fail".to_string())));
                    }
                }
                AdaptEvent::RetrainSlow { version } => {
                    sink.push(Entry::RetrainSlow { version }, shard);
                    if let Some(ctx) = ctx.as_deref_mut() {
                        let span = ctx.push_span(Stage::Retrain, now, now);
                        span.args.push(("version", AttrValue::Num(version as f64)));
                        span.args
                            .push(("outcome", AttrValue::Text("slow".to_string())));
                    }
                }
                AdaptEvent::Shadow { version, agree } => {
                    // per-request shadow scores are traced, not logged:
                    // the window verdict lands in `shadow_done`
                    if let Some(ctx) = ctx.as_deref_mut() {
                        let span = ctx.push_span(Stage::Shadow, now, now);
                        span.args.push(("version", AttrValue::Num(version as f64)));
                        span.args
                            .push(("agree", AttrValue::Num(f64::from(u8::from(agree)))));
                    }
                }
                AdaptEvent::ShadowDone {
                    version,
                    agree,
                    scored,
                } => sink.push(
                    Entry::ShadowDone {
                        version,
                        agree,
                        scored,
                    },
                    shard,
                ),
                AdaptEvent::Promote { version } => {
                    sink.push(Entry::Promote { version }, shard);
                    if let Some(ctx) = ctx.as_deref_mut() {
                        let span = ctx.push_span(Stage::Promote, now, now);
                        span.args.push(("version", AttrValue::Num(version as f64)));
                    }
                }
                AdaptEvent::PromoteRefused { version, reason } => {
                    sink.push(Entry::PromoteRefused { version, reason }, shard);
                }
                AdaptEvent::GuardPass { version } => {
                    sink.push(Entry::GuardPass { version }, shard);
                }
                AdaptEvent::Rollback { from, to } => {
                    sink.push(Entry::Rollback { from, to }, shard);
                    if let Some(ctx) = ctx.as_deref_mut() {
                        let span = ctx.push_span(Stage::Rollback, now, now);
                        span.args.push(("from", AttrValue::Num(from as f64)));
                        span.args.push(("to", AttrValue::Num(to as f64)));
                    }
                }
            }
        }
    }

    /// Queue the budgeted validation sim for a freshly applied timeout: it
    /// replays the station under the new policy with a hard event budget,
    /// so a policy flip can never stall the control loop. The config and
    /// seed are fixed here, at apply time, so the deferred run is the same
    /// simulation an inline one would be; nothing in the replay reads its
    /// result (see [`ShardCore::record_validation`]).
    fn validate_policy(&mut self, new_idx: usize, sink: &mut DecisionSink) {
        if self.cfg.sim_budget_events == 0 {
            return;
        }
        let st = &self.cfg.station;
        let gain = (self.last_ea * (st.alloc_boost - 1.0)).max(0.0);
        let sim_cfg = StationConfig {
            inter_arrival: Distribution::Exponential {
                mean: 1.0 / st.lambda(),
            },
            service: Distribution::Exponential { mean: st.service_s },
            expected_service: st.service_s,
            timeout_ratio: TIMEOUT_GRID[new_idx],
            boost_rate: (1.0 + gain).max(1.0),
            servers: st.servers,
            shared_boost: true,
            measured_queries: 2000,
            warmup_queries: 200,
        };
        sink.validations.push(ValidationJob {
            shard: self.shard.map_or(0, |id| id as usize),
            config: sim_cfg,
            seed: self.seed ^ self.hyst.applies.wrapping_mul(0x9E37_79B9),
            budget_events: self.cfg.sim_budget_events,
        });
    }

    /// Credit one finished validation sim to this shard. Only these two
    /// counters and the `serve.policy_validation_mean_response_s` gauge
    /// see a sim's result: no decision, log entry, span, route or breaker
    /// does, which is why the sims can run off the serial replay.
    pub(crate) fn record_validation(&mut self, outcome: &ValidationOutcome) {
        self.stats.policy_validations += 1;
        if outcome.exhausted {
            self.stats.sim_budget_exhausted += 1;
        }
        if let Some(mean) = outcome.mean_response_s {
            stca_obs::gauge("serve.policy_validation_mean_response_s").set(mean);
        }
    }

    /// Admit one arrival (phase-2 entry point, in arrival order).
    pub(crate) fn arrive(&mut self, mut p: Pending, sink: &mut DecisionSink) {
        self.stats.accounting.admitted += 1;
        let now = p.ready_s;
        stca_obs::set_virtual_now(now);
        self.dispatch_ready(now, sink);
        if self.waiting.len() >= self.cfg.queue_capacity {
            match self.cfg.overload {
                OverloadPolicy::ShedNewest => {
                    self.stats.accounting.shed_overload += 1;
                    sink.push(Entry::ShedOverload { seq: p.seq }, self.shard);
                    self.record_trace(p.ctx.take(), Disposition::ShedOverload, now);
                    return;
                }
                OverloadPolicy::ShedOldest => {
                    if let Some(mut old) = self.waiting.pop_front() {
                        self.stats.accounting.shed_overload += 1;
                        sink.push(Entry::ShedOverload { seq: old.seq }, self.shard);
                        if let Some(ctx) = old.ctx.as_mut() {
                            ctx.push_span(Stage::QueueWait, old.arrival_s, now);
                        }
                        self.record_trace(old.ctx.take(), Disposition::ShedOverload, now);
                    }
                }
                OverloadPolicy::Block => {
                    self.stats.accounting.blocked += 1;
                }
            }
        }
        self.waiting.push_back(p);
    }

    /// Graceful drain: finish work that can start within the grace
    /// window, count the rest as drained. Closes the probe gate first —
    /// drain traffic never feeds breaker recovery.
    pub(crate) fn drain(&mut self, last_arrival_s: f64, sink: &mut DecisionSink) -> f64 {
        self.begin_drain();
        let deadline = last_arrival_s + self.cfg.drain_grace_s;
        stca_obs::set_virtual_now(deadline);
        loop {
            if self.dispatch_one(deadline, sink) {
                continue;
            }
            match self.waiting.pop_front() {
                Some(mut p) => {
                    self.stats.accounting.drained += 1;
                    sink.push(Entry::Drained { seq: p.seq }, self.shard);
                    if let Some(ctx) = p.ctx.as_mut() {
                        ctx.push_span(Stage::QueueWait, p.arrival_s, deadline);
                        ctx.push_span(Stage::Drain, deadline, deadline);
                    }
                    self.record_trace(p.ctx.take(), Disposition::Drained, deadline);
                }
                None => break,
            }
        }
        self.servers
            .iter()
            .fold(last_arrival_s, |m, &f| if f > m { f } else { m })
    }
}

/// One queued policy-validation sim: the station and seed fixed at apply
/// time, and the index of the shard it is credited to (0 in a one-shard
/// run).
#[derive(Debug)]
pub(crate) struct ValidationJob {
    pub(crate) shard: usize,
    config: StationConfig,
    seed: u64,
    budget_events: u64,
}

/// What a validation sim reports back to its shard.
pub(crate) struct ValidationOutcome {
    exhausted: bool,
    /// Mean response of the completed queries (`None` if none completed).
    mean_response_s: Option<f64>,
}

impl ValidationJob {
    /// Run the sim. `None` when the station is malformed: such an apply
    /// counts no validation, as before.
    pub(crate) fn run(&self) -> Option<ValidationOutcome> {
        let mut sim = QueueSim::try_new(self.config.clone(), self.seed).ok()?;
        let run = sim.run_budgeted(RunBudget::events(self.budget_events));
        Some(ValidationOutcome {
            exhausted: run.exhausted,
            mean_response_s: (run.result.completed() > 0).then(|| run.result.mean_response()),
        })
    }
}

/// Pure per-request compute (phase 1): the primary model call under panic
/// isolation and the degraded fallback — a pure function of the request,
/// bit-identical at any thread count. The injected faults are rolled in
/// the serial replay, where they take effect.
pub(crate) fn compute_request(model: &dyn EaModel, r: &Request) -> Computed {
    // run the primary under panic isolation: a wedged model must become a
    // breaker failure, not tear down the loop
    let primary = match stca_exec::run_caught(|| model.predict_primary(&r.features)) {
        Ok(Ok(ea)) if ea.is_finite() => Some(ea),
        _ => None,
    };
    let (degraded_ea, degraded_tier) = model.predict_degraded(&r.features);
    let degraded_ea = if degraded_ea.is_finite() {
        degraded_ea
    } else {
        1.0
    };
    Computed {
        primary,
        degraded_ea,
        degraded_tier,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use stca_fault::StcaError;
    use stca_util::Rng64;

    /// A primary that always errors, so every admitted call is a breaker
    /// failure without any injected fault.
    struct Erroring;

    impl EaModel for Erroring {
        fn predict_primary(&self, _features: &[f64]) -> Result<f64, StcaError> {
            Err(StcaError::invalid_input("primary down"))
        }

        fn predict_degraded(&self, _features: &[f64]) -> (f64, u8) {
            (1.0, 2)
        }
    }

    fn no_faults() -> [FaultInjector; 2] {
        let plan = FaultPlan::none();
        [plan.injector(0, 0), plan.injector(0, 1)]
    }

    fn pending(seq: u64, arrival_s: f64, comp: Computed) -> Pending {
        Pending {
            seq,
            arrival_s,
            ready_s: arrival_s,
            deadline_s: 10.0,
            hops: 0,
            features: vec![1.0],
            comp,
            ctx: None,
        }
    }

    fn failing_comp(seq: u64) -> Computed {
        let r = Request {
            seq,
            arrival_s: 0.0,
            deadline_s: 10.0,
            features: vec![1.0],
        };
        compute_request(&Erroring, &r)
    }

    /// Satellite: a half-open breaker during graceful drain must not admit
    /// probe traffic after drain begins — property-tested over arbitrary
    /// breaker configs.
    #[test]
    fn drain_never_admits_breaker_probes_for_arbitrary_configs() {
        let mut rng = Rng64::new(0x0DAB_5EED);
        let inj = no_faults();
        for case in 0..200u64 {
            let bcfg = BreakerConfig {
                failure_threshold: 1 + (rng.next_u64() % 8) as u32,
                cooldown_s: 0.01 + rng.next_f64() * 2.0,
                probe_fraction: rng.next_f64(),
                success_to_close: 1 + (rng.next_u64() % 5) as u32,
                seed: rng.next_u64(),
            };
            let cfg = ServeConfig {
                breaker: bcfg,
                drain_grace_s: 5.0,
                ..ServeConfig::default()
            };
            let mut core = ShardCore::new(&cfg, &inj, case, None);
            let mut sink = DecisionSink::new(false);
            // Fail enough requests to trip the breaker open, then stop
            // arrivals just past the cooldown so the drain window overlaps
            // the half-open period.
            let n = bcfg.failure_threshold as u64 + 4;
            for seq in 0..n {
                core.arrive(
                    pending(seq, 0.001 * seq as f64, failing_comp(seq)),
                    &mut sink,
                );
            }
            let last = 0.001 * n as f64 + bcfg.cooldown_s;
            // Queue a burst that can only dispatch during drain.
            for seq in n..n + 64 {
                core.arrive(pending(seq, last, failing_comp(seq)), &mut sink);
            }
            let probes_before = core.breaker.probes;
            core.drain(last, &mut sink);
            assert!(core.is_draining());
            assert_eq!(
                core.breaker.probes, probes_before,
                "case {case}: drain admitted probe traffic ({bcfg:?})"
            );
            assert!(
                core.stats.accounting.balanced(),
                "case {case}: {:?}",
                core.stats.accounting
            );
        }
    }

    #[test]
    fn rerouted_ready_time_floors_dispatch_start() {
        let cfg = ServeConfig::default();
        let inj = no_faults();
        let mut core = ShardCore::new(&cfg, &inj, 0, Some(3));
        let mut sink = DecisionSink::new(true);
        let mut p = pending(
            9,
            1.0,
            Computed {
                primary: Some(1.0),
                degraded_ea: 1.0,
                degraded_tier: 1,
            },
        );
        p.ready_s = 4.0; // rerouted at t=4: cannot start earlier
        core.arrive(p, &mut sink);
        core.dispatch_ready(10.0, &mut sink);
        assert_eq!(core.stats.accounting.completed, 1);
        let resp = core.responses[0];
        assert!(
            resp >= 3.0,
            "service started before the reroute time: resp {resp}"
        );
        let log = sink.into_log();
        assert!(
            log.iter().all(|l| l.ends_with(" shard=3")),
            "fleet entries carry the shard suffix: {log:?}"
        );
    }
}
