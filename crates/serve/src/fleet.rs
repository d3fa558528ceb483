//! The serving driver: N independent fault domains behind a
//! deterministic router. One shard is the plain serving loop.
//!
//! Each shard owns a full `ShardCore` — bounded admission queue,
//! circuit breaker, hysteresis controller, watchdog, seeded predictor
//! state — so one shard's failure never corrupts another's state. A
//! deterministic router (rendezvous hashing or least-loaded over
//! virtual-clock queue-depth snapshots) places every arrival; shard-scoped
//! faults (`shard_crash`, `shard_stall`, `shard_flap`) are rolled per
//! `(plan seed, shard id, epoch)` so a faulted fleet is bit-identical at
//! any `--threads`.
//!
//! ## Execution model
//!
//! A run holds `threads() − 1` helper threads for its whole length
//! ([`stca_exec::with_helpers`]; none at one thread, none when called
//! from a pool worker). The thread that calls [`serve_fleet`] is the
//! replay thread. The replayed arrival stream is processed in fixed-size
//! chunks, and each chunk runs two phases:
//!
//! 1. **Shared compute** — for every request in the chunk, the pure
//!    per-request work: the primary model call and the degraded fallback.
//!    The replay thread and every idle helper claim requests in blocks
//!    off one cursor, and the results are assembled in input order. All
//!    of it is a pure function of the request (seed, features), so the
//!    results are bit-identical at any `--threads`.
//! 2. **Serial replay** — on the replay thread, in arrival order, requests
//!    are routed, admitted, queued, dispatched to virtual servers, and
//!    completed. Everything stateful lives here: shard faults, routing,
//!    queue occupancy, overload shedding, deadline budgets, the circuit
//!    breakers, hysteresis, the watchdog retry path, and the decision log.
//!    The injected stage stalls and predictor faults are rolled here too,
//!    where they take effect: a stall when its stage attempt runs, the
//!    predictor fault when the breaker admits a primary answer. Each draw
//!    is pure in `(injector, seq)`, so rolling it late changes no
//!    decision, and the `fault.injected_*` counters count only applied
//!    faults.
//!
//! Each decision-log line is one typed `Entry`, encoded by hand (decimal
//! and 16-digit hex, no `core::fmt`) into a reused buffer and folded into
//! the FNV-1a decision hash (DESIGN §5f has the format table).
//!
//! **Validation sims run beside the replay.** Each policy apply queues a
//! budgeted `QueueSim` run whose station and seed are fixed at apply time.
//! At every chunk boundary the queued runs go to the helpers, which run
//! them whenever no request of a chunk is unclaimed, so chunk compute
//! always comes first. After the drain, the replay thread runs what is
//! left and then credits every result to its shard in queue order. Only
//! the `policy_validations` and `sim_budget_exhausted` counters and the
//! `serve.policy_validation_mean_response_s` gauge read a result, so no
//! decision, log entry, span, route or breaker can depend on when or where
//! the sims ran. The last value of `queuesim.server_utilization` does:
//! with helpers it is whichever sim finished last.
//!
//! ## One shard
//!
//! `shards = 1` is the plain serving loop ([`crate::serve`] and
//! `stca serve` without `--shards`). Its core gets no shard id, so:
//!
//! * decision-log lines carry no `" shard=N"` suffix;
//! * metrics and histograms use `serve.*` names (fleet shards use
//!   `serve.shardN.*`, plus the `serve.fleet.*` rollup);
//! * traces carry no `shard` admission attribute;
//! * shard-scoped faults stay inert: they model losing one shard among
//!   peers, and a lone shard has none.
//!
//! ## Failover semantics
//!
//! Virtual time is cut into epochs of `epoch_s`. At each epoch boundary,
//! in shard-id order:
//!
//! * **crash** — the shard's queue is flushed and every waiting request is
//!   rerouted (or shed, once `reroute_max` hops are spent); its servers are
//!   frozen to the epoch end and the router stops offering it traffic. The
//!   first non-crash epoch afterwards logs a recovery.
//! * **flap** — the router treats the shard as unhealthy for the epoch but
//!   the shard keeps draining its queue.
//! * **stall** — the shard's servers are pushed forward by a seeded
//!   duration inside the epoch.
//!
//! The router health-gates in tiers: healthy shards (not crashed, not
//! flapped, breaker not open) first, then breaker-open shards, then
//! flapped shards; only when every shard is crashed does a request get the
//! typed `router_shed` disposition.
//!
//! ## Accounting invariant
//!
//! Per shard, every admitted request ends in exactly one disposition:
//!
//! ```text
//! admitted = completed + shed + drained + rerouted_out
//! ```
//!
//! and summing over shards (every rerouted request is re-admitted
//! elsewhere or shed by the router) gives the fleet-wide invariant
//! enforced by [`FleetReport::balanced`] through coordinated graceful
//! drain:
//!
//! ```text
//! offered = Σ_shards (completed + shed + drained) + router_shed
//! ```

use crate::adapt::AdaptStats;
use crate::decision_log::Entry;
use crate::model::{EaModel, TIMEOUT_GRID};
use crate::request::{Request, SyntheticStream};
use crate::router::{route, Candidate, RouterKind};
use crate::server::{Accounting, ServeConfig};
use crate::shard::{
    compute_request, shard_metric, DecisionSink, Pending, ShardCore, ValidationJob,
};
use stca_fault::{FaultInjector, FaultPlan, StcaError};
use stca_obs::json::Value;
use stca_trace::{AttrValue, Disposition, FlightRecorder, Stage, TraceDump};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// Fleet configuration: the per-shard loop template plus topology.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-shard serving-loop template. Each shard derives its own breaker
    /// seed (`base.breaker.seed ^ (shard_id << 24)`) so probe lotteries are
    /// independent across fault domains.
    pub base: ServeConfig,
    /// Number of shards (independent fault domains); 1 is the plain
    /// serving loop.
    pub shards: u32,
    /// Routing discipline.
    pub router: RouterKind,
    /// Maximum reroute hops before a flushed request is shed by the
    /// router.
    pub reroute_max: u32,
    /// Epoch length, virtual seconds: shard faults are rolled once per
    /// `(shard, epoch)`.
    pub epoch_s: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            base: ServeConfig::default(),
            shards: 4,
            router: RouterKind::Rendezvous,
            reroute_max: 2,
            epoch_s: 5.0,
        }
    }
}

impl FleetConfig {
    fn validate(&self) -> Result<(), StcaError> {
        self.base.validate()?;
        if self.shards == 0 {
            return Err(StcaError::invalid_input("fleet: shards must be >= 1"));
        }
        if self.shards > 1024 {
            return Err(StcaError::invalid_input("fleet: shards must be <= 1024"));
        }
        if !self.epoch_s.is_finite() || self.epoch_s <= 0.0 {
            return Err(StcaError::invalid_input(format!(
                "fleet: epoch_s = {} must be finite and positive",
                self.epoch_s
            )));
        }
        Ok(())
    }
}

/// Per-shard outcome summary. The shard core counts straight into it; the
/// breaker and hysteresis counters, the response summary,
/// `final_timeout_idx` and `adapt` are filled in when the run ends. Each
/// value is reported by one row of `SHARD_ROWS` (the lifecycle's by
/// `ADAPT_ROWS`), which names its health-JSON key and its metric.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard id.
    pub id: u32,
    /// Exact request accounting for this shard. Reroutes make
    /// [`Accounting::balanced`] intentionally fail here; the shard
    /// identity including `rerouted_out` is checked by
    /// [`FleetReport::balanced`].
    pub accounting: Accounting,
    /// Requests flushed out of this shard's queue by a crash.
    pub rerouted_out: u64,
    /// Crash events (distinct down transitions).
    pub crashes: u64,
    /// Recovery events (down → up transitions).
    pub recoveries: u64,
    /// Injected shard stalls.
    pub stalls: u64,
    /// Epochs the router treated this shard as flapping.
    pub flaps: u64,
    /// Breaker trips (closed → open and failed-probe re-opens).
    pub breaker_opens: u64,
    /// Breaker recoveries (half-open → closed).
    pub breaker_closes: u64,
    /// Probe calls admitted while half-open.
    pub breaker_probes: u64,
    /// Calls short-circuited to the degraded chain while open.
    pub breaker_rejects: u64,
    /// Requests answered by the degraded predictor chain.
    pub degraded: u64,
    /// Watchdog interventions (stage cut off at its budget).
    pub watchdog_trips: u64,
    /// Stage retries after a watchdog trip.
    pub retries: u64,
    /// Policy changes applied by this shard's hysteresis controller.
    pub policy_applies: u64,
    /// Decisions suppressed by hysteresis.
    pub policy_suppressed: u64,
    /// Budgeted validation simulations run on policy application.
    pub policy_validations: u64,
    /// Validation sims that hit their event budget.
    pub sim_budget_exhausted: u64,
    /// Timeout-grid index applied when the run ended.
    pub final_timeout_idx: usize,
    /// Mean response of this shard's completed requests, seconds.
    pub mean_response_s: f64,
    /// Median response, seconds.
    pub p50_response_s: f64,
    /// 99th-percentile response, seconds.
    pub p99_response_s: f64,
    /// Model-lifecycle counters for this shard (`Some` when adaptation
    /// was enabled).
    pub adapt: Option<AdaptStats>,
}

/// How a report row reads its value.
enum Get<S> {
    /// A counter: a JSON integer, and a metric counter registered only
    /// once it is above zero.
    Count(fn(&S) -> u64),
    /// A number: a JSON number, and a metric gauge that is always set.
    Num(fn(&S) -> f64),
}

/// One reported value of `S`: its health-JSON key and the metric it is
/// flushed as. An empty `key` or `metric` leaves the value out of that
/// output.
struct Row<S> {
    /// Key in the report object, or `group.key` for a key in one of its
    /// nested objects.
    key: &'static str,
    /// Metric name after its `serve.` or `serve.shardN.` prefix.
    metric: &'static str,
    get: Get<S>,
}

/// A report table over `$s: $ty`. A row reads `"key" => "metric":
/// Count(value)` or `Num(value)`; an empty key keeps the value out of the
/// JSON, and a row without `=> "metric"` keeps it out of the metrics.
macro_rules! rows {
    ($s:ident: $ty:ty; $($key:literal $(=> $metric:literal)?: $kind:ident($get:expr),)*) => {
        &[$(Row {
            key: $key,
            metric: concat!($($metric)?),
            get: Get::$kind(|$s: &$ty| $get),
        },)*]
    };
}

/// Every per-shard value: one entry of the health snapshot's `shards`
/// array, and the `serve.*` (one shard) or `serve.shardN.*` metrics.
const SHARD_ROWS: &[Row<ShardStats>] = rows! { s: ShardStats;
    "id": Count(u64::from(s.id)),
    "accounting.admitted" => "admitted_total": Count(s.accounting.admitted),
    "accounting.completed" => "completed_total": Count(s.accounting.completed),
    "" => "shed_total": Count(s.accounting.shed()),
    "accounting.shed_overload" => "shed_overload_total": Count(s.accounting.shed_overload),
    "accounting.shed_deadline" => "shed_deadline_total": Count(s.accounting.shed_deadline),
    "accounting.shed_failed" => "shed_failed_total": Count(s.accounting.shed_failed),
    "accounting.drained" => "drained_total": Count(s.accounting.drained),
    "accounting.rerouted_out" => "rerouted_out_total": Count(s.rerouted_out),
    "accounting.blocked" => "blocked_total": Count(s.accounting.blocked),
    "accounting.deadline_exceeded" => "deadline_exceeded_total":
        Count(s.accounting.deadline_exceeded),
    "faults.crashes" => "crashes_total": Count(s.crashes),
    "faults.recoveries" => "recoveries_total": Count(s.recoveries),
    "faults.stalls" => "stalls_total": Count(s.stalls),
    "faults.flaps" => "flaps_total": Count(s.flaps),
    "breaker.opens" => "breaker.opens_total": Count(s.breaker_opens),
    "breaker.closes" => "breaker.closes_total": Count(s.breaker_closes),
    "breaker.probes" => "breaker.probes_total": Count(s.breaker_probes),
    "breaker.rejects" => "breaker.rejects_total": Count(s.breaker_rejects),
    "policy.applies" => "policy_applies_total": Count(s.policy_applies),
    "policy.suppressed" => "policy_suppressed_total": Count(s.policy_suppressed),
    "policy.validations" => "policy_validations_total": Count(s.policy_validations),
    "policy.sim_budget_exhausted" => "sim_budget_exhausted_total": Count(s.sim_budget_exhausted),
    "policy.applied_timeout_ratio": Num(TIMEOUT_GRID[s.final_timeout_idx]),
    "response.mean_s": Num(s.mean_response_s),
    "response.p50_s": Num(s.p50_response_s),
    "response.p99_s": Num(s.p99_response_s),
    "degraded" => "degraded_total": Count(s.degraded),
    "watchdog_trips" => "watchdog_trips_total": Count(s.watchdog_trips),
    "retries" => "retries_total": Count(s.retries),
};

/// A shard's lifecycle values, reported beside [`SHARD_ROWS`] when
/// adaptation is on.
const ADAPT_ROWS: &[Row<AdaptStats>] = rows! { a: AdaptStats;
    "adapt.drifts" => "adapt.drifts_total": Count(a.drifts),
    "adapt.retrains" => "adapt.retrains_total": Count(a.retrains),
    "adapt.retrain_failures" => "adapt.retrain_failures_total": Count(a.retrain_failures),
    "adapt.retrain_slows" => "adapt.retrain_slows_total": Count(a.retrain_slows),
    "adapt.shadow_scored" => "adapt.shadow_scored_total": Count(a.shadow_scored),
    "adapt.shadow_agree": Count(a.shadow_agree),
    "adapt.promotions" => "adapt.promotions_total": Count(a.promotions),
    "adapt.promote_refused" => "adapt.promote_refused_total": Count(a.promote_refused),
    "adapt.rollbacks" => "adapt.rollbacks_total": Count(a.rollbacks),
    "adapt.guard_passes" => "adapt.guard_passes_total": Count(a.guard_passes),
    "adapt.active_version" => "adapt.active_version": Num(a.active_version as f64),
    "adapt.last_drift_score" => "adapt.drift_score": Num(a.last_drift_score),
    "adapt.last_shadow_agreement" => "adapt.shadow_agreement": Num(a.last_shadow_agreement),
};

/// The fleet totals. Their `serve.fleet.*` metrics are flushed only when
/// there are several shards.
const FLEET_ROWS: &[Row<FleetReport>] = rows! { r: FleetReport;
    "offered" => "fleet.offered_total": Count(r.offered),
    "completed" => "fleet.completed_total": Count(r.completed()),
    "" => "fleet.settled_total": Count(r.settled()),
    "rerouted" => "fleet.rerouted_total": Count(r.rerouted),
    "router_shed" => "fleet.router_shed_total": Count(r.router_shed),
    "" => "fleet.shard_crashes_total": Count(r.shards.iter().map(|s| s.crashes).sum()),
    "" => "fleet.shard_recoveries_total": Count(r.shards.iter().map(|s| s.recoveries).sum()),
    "" => "fleet.adapt.promotions_total": Count(r.adapt_sum(|a| a.promotions)),
    "" => "fleet.adapt.rollbacks_total": Count(r.adapt_sum(|a| a.rollbacks)),
    "response.mean_s" => "fleet.mean_response_s": Num(r.mean_response_s),
    "response.p50_s": Num(r.p50_response_s),
    "response.p99_s" => "fleet.p99_response_s": Num(r.p99_response_s),
    "virtual_end_s": Num(r.virtual_end_s),
};

/// The merged flight recorder's retention counters (traced runs only).
const TRACE_ROWS: &[Row<TraceDump>] = rows! { d: TraceDump;
    "trace.retained_error": Count(d.stats.retained_error),
    "trace.retained_normal": Count(d.stats.retained_normal),
    "trace.evicted_normal": Count(d.stats.evicted_normal),
    "trace.dropped_error": Count(d.stats.dropped_error),
    "trace.sample_every": Count(d.sample_every),
};

/// Insert every row's JSON value for `s` into `root`, creating each nested
/// object on first use.
fn json_rows<S>(rows: &[Row<S>], s: &S, root: &mut BTreeMap<String, Value>) {
    for row in rows.iter().filter(|row| !row.key.is_empty()) {
        let value = match row.get {
            Get::Count(get) => Value::Number(get(s) as f64),
            Get::Num(get) => Value::Number(get(s)),
        };
        let Some((group, key)) = row.key.split_once('.') else {
            root.insert(row.key.to_string(), value);
            continue;
        };
        let group = root
            .entry(group.to_string())
            .or_insert_with(|| Value::Object(BTreeMap::new()));
        if let Value::Object(group) = group {
            group.insert(key.to_string(), value);
        }
    }
}

/// Flush every row's metric for `s` under `serve.` (`shard` is `None`) or
/// `serve.shardN.`.
fn flush_rows<S>(rows: &[Row<S>], s: &S, shard: Option<u32>) {
    for row in rows.iter().filter(|row| !row.metric.is_empty()) {
        match row.get {
            Get::Count(get) => {
                let v = get(s);
                if v > 0 {
                    stca_obs::counter(&shard_metric(shard, row.metric)).add(v);
                }
            }
            Get::Num(get) => stca_obs::gauge(&shard_metric(shard, row.metric)).set(get(s)),
        }
    }
}

impl ShardStats {
    /// The shard summary as a JSON tree (one entry of the health
    /// snapshot's `shards` array).
    fn to_json_value(&self) -> Value {
        let mut root = BTreeMap::new();
        json_rows(SHARD_ROWS, self, &mut root);
        if let Some(adapt) = &self.adapt {
            json_rows(ADAPT_ROWS, adapt, &mut root);
        }
        Value::Object(root)
    }
}

/// Everything one serving run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-shard summaries, in shard-id order.
    pub shards: Vec<ShardStats>,
    /// Requests offered to the fleet (every generated arrival).
    pub offered: u64,
    /// Successful reroutes (flushed request re-admitted elsewhere).
    pub rerouted: u64,
    /// Requests shed by the router: no routable shard at admission, or
    /// reroute hops exhausted.
    pub router_shed: u64,
    /// Fleet-wide mean response, seconds.
    pub mean_response_s: f64,
    /// Fleet-wide median response, seconds.
    pub p50_response_s: f64,
    /// Fleet-wide 99th-percentile response, seconds.
    pub p99_response_s: f64,
    /// Rolling FNV-1a hash over the shared fleet decision log (shard
    /// entries, router entries, and fault events in one serial order).
    pub decision_hash: u64,
    /// Full decision log (empty unless `base.keep_decision_log`).
    pub decision_log: Vec<String>,
    /// Virtual time when the last shard finished draining.
    pub virtual_end_s: f64,
    /// Per-shard flight recorders merged deterministically (shard-id
    /// order, router sheds last), `Some` when tracing was enabled.
    pub trace_dump: Option<TraceDump>,
}

impl FleetReport {
    /// Sum of completed requests across shards.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.accounting.completed).sum()
    }

    /// Shards that crashed at least once.
    pub fn crashed_shards(&self) -> Vec<u32> {
        self.shards
            .iter()
            .filter(|s| s.crashes > 0)
            .map(|s| s.id)
            .collect()
    }

    /// The fleet-wide invariant: every shard balances once `rerouted_out`
    /// is a disposition, and every offered request ends in exactly one
    /// fleet-level disposition.
    pub fn balanced(&self) -> bool {
        let shards_ok = self.shards.iter().all(|s| {
            let a = &s.accounting;
            a.admitted == a.completed + a.shed() + a.drained + s.rerouted_out
        });
        shards_ok && self.offered == self.settled() + self.router_shed
    }

    /// Requests that ended in a shard disposition (completed, shed or
    /// drained), summed over shards.
    fn settled(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.accounting.completed + s.accounting.shed() + s.accounting.drained)
            .sum()
    }

    /// One lifecycle counter summed over the shards that ran adaptation.
    fn adapt_sum(&self, counter: fn(&AdaptStats) -> u64) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.adapt.as_ref().map(counter))
            .sum()
    }

    /// The report as a JSON tree (health snapshots, CLI output).
    pub fn to_json_value(&self) -> Value {
        let mut root = BTreeMap::new();
        json_rows(FLEET_ROWS, self, &mut root);
        if let Some(dump) = &self.trace_dump {
            json_rows(TRACE_ROWS, dump, &mut root);
        }
        let shards = self.shards.iter().map(ShardStats::to_json_value).collect();
        root.insert("shards".into(), Value::Array(shards));
        root.insert("balanced".into(), Value::Bool(self.balanced()));
        let hash = format!("{:016x}", self.decision_hash);
        root.insert("decision_hash".into(), Value::String(hash));
        Value::Object(root)
    }
}

/// Write a JSON health snapshot: the report plus every `serve.*` metric
/// currently in the global registry.
pub fn write_health(path: &Path, report: &FleetReport) -> Result<(), StcaError> {
    let mut root = match report.to_json_value() {
        Value::Object(m) => m,
        _ => unreachable!("report serialises to an object"),
    };
    let metrics = stca_obs::registry()
        .snapshot_prefixed("serve.")
        .into_iter()
        .map(|(name, metric)| {
            let v = match metric {
                stca_obs::metrics::Metric::Counter(c) => c.get() as f64,
                stca_obs::metrics::Metric::Gauge(g) => g.get(),
                stca_obs::metrics::Metric::Histogram(h) => h.mean(),
            };
            (name, Value::Number(v))
        })
        .collect();
    root.insert("metrics".into(), Value::Object(metrics));
    let json = Value::Object(root).to_string();
    std::fs::write(path, json).map_err(|e| StcaError::io(path.display().to_string(), e))
}

/// Write the retained decision log, one entry per line, streamed through
/// a buffer rather than joined into one string first. The bytes are the
/// entries joined by `\n` plus a final `\n`, so for a non-empty log their
/// FNV-1a is [`FleetReport::decision_hash`]. An empty log writes a lone
/// `\n`.
pub fn write_decision_log(path: &Path, report: &FleetReport) -> Result<(), StcaError> {
    let io_err = |e| StcaError::io(path.display().to_string(), e);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io_err)?);
    if report.decision_log.is_empty() {
        out.write_all(b"\n").map_err(io_err)?;
    }
    for line in &report.decision_log {
        out.write_all(line.as_bytes()).map_err(io_err)?;
        out.write_all(b"\n").map_err(io_err)?;
    }
    out.flush().map_err(io_err)
}

/// `(mean, p50, p99)` of a response set; all zero for an empty set (a
/// shard that completed nothing still gets a summary).
fn response_summary(responses: &mut [f64]) -> (f64, f64, f64) {
    if responses.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mean = responses.iter().sum::<f64>() / responses.len() as f64;
    let p50 = stca_util::stats::quantile_in_place(responses, 0.50);
    let p99 = stca_util::stats::quantile_in_place(responses, 0.99);
    (mean, p50, p99)
}

/// One shard plus its fleet-level routing state.
struct Slot<'a> {
    core: ShardCore<'a>,
    crashed: bool,
    flapped: bool,
}

/// Routing salt: keeps rendezvous scores decoupled from the stream's own
/// per-request randomness.
const ROUTE_SALT: u64 = 0x000F_1EE7;

/// Health-gated shard selection for request `seq` at virtual `now`.
/// Tiered fallback: fully healthy shards first, then breaker-open, then
/// flapped; crashed shards are never candidates. `None` means every shard
/// is crashed (router shed). `candidates` is scratch space reused across
/// calls, so routing allocates nothing once it has grown to the shard
/// count.
fn pick_target(
    slots: &[Slot<'_>],
    kind: RouterKind,
    seed: u64,
    seq: u64,
    now: f64,
    exclude: Option<u32>,
    candidates: &mut Vec<Candidate>,
) -> Option<u32> {
    let tiers: [&dyn Fn(&Slot<'_>) -> bool; 3] = [
        &|s: &Slot<'_>| !s.crashed && !s.flapped && !s.core.breaker.is_open_at(now),
        &|s: &Slot<'_>| !s.crashed && !s.flapped,
        &|s: &Slot<'_>| !s.crashed,
    ];
    for routable in tiers {
        candidates.clear();
        candidates.extend(
            slots
                .iter()
                .enumerate()
                .filter(|(id, s)| exclude != Some(*id as u32) && routable(s))
                .map(|(id, s)| Candidate {
                    id: id as u32,
                    queue_depth: s.core.queue_depth(),
                }),
        );
        if !candidates.is_empty() {
            return route(kind, seed, seq, candidates);
        }
    }
    None
}

/// Apply one epoch's shard faults, in shard-id order. Returns the
/// requests flushed out of crashing shards (to be rerouted by the
/// caller), tagged with their source shard.
fn apply_epoch(
    slots: &mut [Slot<'_>],
    plan: &FaultPlan,
    epoch: u64,
    epoch_s: f64,
    sink: &mut DecisionSink,
) -> Vec<(u32, Pending)> {
    let boundary = epoch as f64 * epoch_s;
    let outage_end = (epoch + 1) as f64 * epoch_s;
    let mut flushed = Vec::new();
    for (id, slot) in slots.iter_mut().enumerate() {
        let id = id as u32;
        let was_crashed = slot.crashed;
        let crashed = plan.shard_crash(id, epoch);
        slot.flapped = !crashed && plan.shard_flap(id, epoch);
        slot.crashed = crashed;
        if crashed {
            if !was_crashed {
                slot.core.stats.crashes += 1;
                sink.push(Entry::ShardCrash { shard: id, epoch }, None);
                for p in slot.core.flush_waiting() {
                    slot.core.stats.rerouted_out += 1;
                    flushed.push((id, p));
                }
            }
            // outage: the shard does no work until the epoch ends
            slot.core.freeze_until(outage_end);
            continue;
        }
        if was_crashed {
            slot.core.stats.recoveries += 1;
            sink.push(Entry::ShardRecover { shard: id, epoch }, None);
        }
        if slot.flapped {
            slot.core.stats.flaps += 1;
            sink.push(Entry::ShardFlap { shard: id, epoch }, None);
        }
        let stall = plan.shard_stall_s(id, epoch, epoch_s);
        if stall > 0.0 {
            slot.core.stats.stalls += 1;
            sink.push(
                Entry::ShardStall {
                    shard: id,
                    epoch,
                    dur: stall,
                },
                None,
            );
            slot.core.freeze_until(boundary + stall);
        }
    }
    // let work that became startable by the boundary proceed, shard order
    for slot in slots.iter_mut() {
        slot.core.dispatch_ready(boundary, sink);
    }
    flushed
}

/// Run the serving driver over `n_requests` replayed arrivals.
///
/// Deterministic: with the same config, stream, plan, and model, the
/// decision hash, report, and merged trace dump are bit-identical at any
/// thread count.
pub fn serve_fleet(
    cfg: &FleetConfig,
    model: &dyn EaModel,
    plan: &FaultPlan,
    stream: &SyntheticStream,
    n_requests: u64,
) -> Result<FleetReport, StcaError> {
    cfg.validate()?;
    if !(stream.rate.is_finite() && stream.rate > 0.0) {
        return Err(StcaError::invalid_input(format!(
            "serve: arrival rate {} must be finite and positive",
            stream.rate
        )));
    }
    if !(stream.deadline_s.is_finite() && stream.deadline_s > 0.0) {
        return Err(StcaError::invalid_input(format!(
            "serve: deadline {} must be finite and positive",
            stream.deadline_s
        )));
    }
    // one shard is the plain serving loop: its core gets no shard id and
    // it rolls no shard faults (see the module docs)
    let fleet = cfg.shards > 1;
    let fleet_metric = |name: &str| {
        if fleet {
            format!("serve.fleet.{name}")
        } else {
            format!("serve.{name}")
        }
    };
    let run_key = stream.seed ^ 0x5E4E;
    let injectors: [FaultInjector; 2] = [plan.injector(run_key, 0), plan.injector(run_key, 1)];
    // per-shard configs first (the cores borrow them), seeds derived as
    // seed ^ (shard_id << 24)
    let shard_cfgs: Vec<ServeConfig> = (0..cfg.shards)
        .map(|id| {
            let mut c = cfg.base.clone();
            c.breaker.seed ^= u64::from(id) << 24;
            c
        })
        .collect();
    let mut slots: Vec<Slot<'_>> = shard_cfgs
        .iter()
        .zip(0u32..)
        .map(|(c, id)| {
            let seed = stream.seed ^ (u64::from(id) << 24);
            let mut core = ShardCore::new(c, &injectors, seed, fleet.then_some(id));
            core.install_adapt(plan);
            Slot {
                core,
                crashed: false,
                flapped: false,
            }
        })
        .collect();
    // router sheds get their own recorder so admission-time sheds are
    // traced even though they never touch a shard
    let mut router_rec = cfg.base.trace.map(FlightRecorder::new);
    let route_seed = stream.seed ^ ROUTE_SALT;
    let mut candidates = Vec::with_capacity(slots.len());
    let mut sink = DecisionSink::new(cfg.base.keep_decision_log);
    let timer =
        stca_obs::StageTimer::with_histogram(stca_obs::histogram(&fleet_metric("run_seconds")));
    let depth_gauge = stca_obs::gauge(&fleet_metric("queue_depth"));
    let mut rerouted = 0u64;
    let mut router_shed = 0u64;
    let mut cur_epoch: i64 = -1;
    let mut seq = 0u64;
    let mut t_cursor = 0.0f64;
    let mut last_arrival = 0.0f64;
    // phase 1: pure per-request compute, input-order results. When
    // tracing, each request tags its thread with its trace id so
    // histograms recorded inside the model call (e.g.
    // `deepforest.predict.seconds`) pick up exemplars.
    let trace_cfg = cfg.base.trace;
    let compute = |r: &Request| {
        if let Some(tc) = &trace_cfg {
            stca_obs::set_current_trace_id(tc.trace_id(r.seq));
        }
        let comp = compute_request(model, r);
        if trace_cfg.is_some() {
            stca_obs::set_current_trace_id(0);
        }
        comp
    };
    let validate = |job: ValidationJob| (job.shard, job.run());
    let (virtual_end, validations) = stca_exec::with_helpers(compute, validate, |helpers| {
        while seq < n_requests {
            let count = ((n_requests - seq).min(cfg.base.chunk as u64)) as usize;
            let (reqs, new_t) = stream.chunk(seq, count, t_cursor);
            t_cursor = new_t;
            last_arrival = new_t;
            let (reqs, computed) = helpers.map(reqs);
            // phase 2: serial replay — epochs advance lazily, one at a time,
            // with crash-flushed requests rerouted at each boundary before the
            // arrival that crossed it is admitted
            for (r, comp) in reqs.into_iter().zip(computed) {
                let arrival_epoch = (r.arrival_s / cfg.epoch_s).floor() as i64;
                while fleet && cur_epoch < arrival_epoch {
                    cur_epoch += 1;
                    let boundary = cur_epoch as f64 * cfg.epoch_s;
                    let flushed =
                        apply_epoch(&mut slots, plan, cur_epoch as u64, cfg.epoch_s, &mut sink);
                    for (from, mut p) in flushed {
                        p.hops += 1;
                        let target = if p.hops > cfg.reroute_max {
                            None
                        } else {
                            pick_target(
                                &slots,
                                cfg.router,
                                route_seed,
                                p.seq,
                                boundary,
                                Some(from),
                                &mut candidates,
                            )
                        };
                        match target {
                            Some(to) => {
                                rerouted += 1;
                                sink.push(
                                    Entry::Reroute {
                                        seq: p.seq,
                                        from,
                                        to,
                                        hops: p.hops,
                                    },
                                    None,
                                );
                                if let Some(ctx) = p.ctx.as_mut() {
                                    let span = ctx.push_span(Stage::Route, boundary, boundary);
                                    span.args
                                        .push(("from_shard", AttrValue::Num(f64::from(from))));
                                    span.args.push(("to_shard", AttrValue::Num(f64::from(to))));
                                    span.args.push(("hops", AttrValue::Num(f64::from(p.hops))));
                                }
                                p.ready_s = boundary;
                                slots[to as usize].core.arrive(p, &mut sink);
                            }
                            None => {
                                router_shed += 1;
                                sink.push(
                                    Entry::RouterShed {
                                        seq: p.seq,
                                        hops: p.hops,
                                    },
                                    None,
                                );
                                if let Some(ctx) = p.ctx.as_mut() {
                                    let span = ctx.push_span(Stage::Route, boundary, boundary);
                                    span.args
                                        .push(("from_shard", AttrValue::Num(f64::from(from))));
                                    span.args.push(("hops", AttrValue::Num(f64::from(p.hops))));
                                }
                                if let (Some(rec), Some(ctx)) = (router_rec.as_mut(), p.ctx.take())
                                {
                                    rec.record(ctx.finish(Disposition::RouterShed, boundary));
                                }
                            }
                        }
                    }
                }
                let target = pick_target(
                    &slots,
                    cfg.router,
                    route_seed,
                    r.seq,
                    r.arrival_s,
                    None,
                    &mut candidates,
                );
                match target {
                    Some(id) => {
                        let core = &mut slots[id as usize].core;
                        let ctx = core.begin_trace(r.seq, r.arrival_s);
                        core.arrive(
                            Pending {
                                seq: r.seq,
                                arrival_s: r.arrival_s,
                                ready_s: r.arrival_s,
                                deadline_s: r.deadline_s,
                                hops: 0,
                                features: r.features,
                                comp,
                                ctx,
                            },
                            &mut sink,
                        );
                    }
                    None => {
                        router_shed += 1;
                        sink.push(
                            Entry::RouterShed {
                                seq: r.seq,
                                hops: 0,
                            },
                            None,
                        );
                        if let Some(rec) = router_rec.as_mut() {
                            let mut ctx = rec.begin(r.seq, r.arrival_s);
                            ctx.push_span(Stage::Route, r.arrival_s, r.arrival_s)
                                .args
                                .push(("hops", AttrValue::Num(0.0)));
                            rec.record(ctx.finish(Disposition::RouterShed, r.arrival_s));
                        }
                    }
                }
            }
            seq += count as u64;
            let depth: usize = slots.iter().map(|s| s.core.queue_depth()).sum();
            depth_gauge.set(depth as f64);
            // the chunk's policy applies hand their sims to the helpers
            helpers.defer(sink.take_validations());
        }
        // coordinated graceful drain: close every probe gate fleet-wide
        // first, then drain shard by shard in id order
        for slot in slots.iter_mut() {
            slot.core.begin_drain();
        }
        let mut virtual_end = last_arrival;
        for slot in slots.iter_mut() {
            let end = slot.core.drain(last_arrival, &mut sink);
            if end > virtual_end {
                virtual_end = end;
            }
        }
        // drain completions can apply policies too
        helpers.defer(sink.take_validations());
        (virtual_end, helpers.finish_deferred())
    });
    // credit each sim to its shard in queue order, as if it ran inline
    for (shard, outcome) in validations {
        if let Some(outcome) = outcome {
            slots[shard].core.record_validation(&outcome);
        }
    }
    stca_obs::clear_virtual_now();
    timer.stop();

    // per-shard and fleet-wide percentiles
    let mut all_responses: Vec<f64> = Vec::new();
    let mut shard_stats = Vec::with_capacity(slots.len());
    for slot in &mut slots {
        let core = &mut slot.core;
        let mut responses = std::mem::take(&mut core.responses);
        all_responses.extend_from_slice(&responses);
        let (mean, p50, p99) = response_summary(&mut responses);
        shard_stats.push(ShardStats {
            breaker_opens: core.breaker.opens,
            breaker_closes: core.breaker.closes,
            breaker_probes: core.breaker.probes,
            breaker_rejects: core.breaker.rejects,
            policy_applies: core.hyst.applies,
            policy_suppressed: core.hyst.suppressed,
            final_timeout_idx: core.hyst.applied(),
            mean_response_s: mean,
            p50_response_s: p50,
            p99_response_s: p99,
            adapt: core.lifecycle.as_ref().map(|lc| lc.stats),
            ..core.stats.clone()
        });
    }
    let (fleet_mean, fleet_p50, fleet_p99) = response_summary(&mut all_responses);

    // merge flight recorders deterministically: shard-id order, router last
    let trace_dump = TraceDump::merge(
        slots
            .iter()
            .filter_map(|slot| slot.core.recorder.as_ref())
            .chain(router_rec.as_ref())
            .map(FlightRecorder::dump),
    );

    let report = FleetReport {
        shards: shard_stats,
        offered: n_requests,
        rerouted,
        router_shed,
        mean_response_s: fleet_mean,
        p50_response_s: fleet_p50,
        p99_response_s: fleet_p99,
        decision_hash: sink.hash(),
        decision_log: sink.into_log(),
        virtual_end_s: virtual_end,
        trace_dump,
    };
    flush_metrics(&report);
    Ok(report)
}

/// Flush run totals into the global metrics: per shard under `serve.*`
/// (one shard) or `serve.shardN.*`, plus the `serve.fleet.*` rollup when
/// there are several shards.
fn flush_metrics(r: &FleetReport) {
    let fleet = r.shards.len() > 1;
    for s in &r.shards {
        let shard = fleet.then_some(s.id);
        flush_rows(SHARD_ROWS, s, shard);
        if let Some(adapt) = &s.adapt {
            flush_rows(ADAPT_ROWS, adapt, shard);
        }
    }
    if fleet {
        flush_rows(FLEET_ROWS, r, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticEa;

    fn small_fleet(shards: u32) -> FleetConfig {
        FleetConfig {
            base: ServeConfig {
                queue_capacity: 16,
                sim_budget_events: 0,
                keep_decision_log: true,
                ..ServeConfig::default()
            },
            shards,
            epoch_s: 1.0,
            ..FleetConfig::default()
        }
    }

    fn stream() -> SyntheticStream {
        SyntheticStream {
            seed: 7,
            rate: 200.0,
            deadline_s: 1.0,
            n_features: 4,
        }
    }

    fn run(cfg: &FleetConfig, plan: &FaultPlan, n: u64) -> FleetReport {
        serve_fleet(cfg, &AnalyticEa::default(), plan, &stream(), n).expect("fleet runs")
    }

    #[test]
    fn healthy_fleet_balances_and_spreads_load() {
        let r = run(&small_fleet(4), &FaultPlan::none(), 4_000);
        assert!(r.balanced(), "{r:?}");
        assert_eq!(r.offered, 4_000);
        assert_eq!(r.router_shed, 0);
        assert_eq!(r.rerouted, 0);
        for s in &r.shards {
            assert!(
                s.accounting.admitted > 400,
                "shard {} starved: {:?}",
                s.id,
                s.accounting
            );
            assert_eq!(s.crashes, 0);
        }
    }

    #[test]
    fn shard_crashes_reroute_and_preserve_the_fleet_invariant() {
        let plan = FaultPlan::parse("shard_crash=0.35,seed=9").expect("plan");
        let r = run(&small_fleet(4), &plan, 6_000);
        assert!(r.balanced(), "{r:?}");
        let crashes: u64 = r.shards.iter().map(|s| s.crashes).sum();
        let recoveries: u64 = r.shards.iter().map(|s| s.recoveries).sum();
        assert!(crashes > 0, "35% per shard-epoch must crash something");
        assert!(recoveries > 0, "crashed shards must come back");
        assert!(
            r.decision_log
                .iter()
                .any(|l| l.starts_with("event=shard_crash")),
            "crash events are logged"
        );
        // bit-identical across runs, including the fault schedule
        let r2 = run(&small_fleet(4), &plan, 6_000);
        assert_eq!(r.decision_hash, r2.decision_hash);
        assert_eq!(r.rerouted, r2.rerouted);
    }

    #[test]
    fn total_outage_sheds_at_the_router_with_typed_disposition() {
        let plan = FaultPlan::parse("shard_crash=1.0,seed=1").expect("plan");
        let r = run(&small_fleet(3), &plan, 500);
        assert!(r.balanced(), "{r:?}");
        assert_eq!(
            r.router_shed, r.offered,
            "all-crashed fleet sheds everything"
        );
        assert_eq!(r.completed(), 0);
        assert!(r
            .decision_log
            .iter()
            .any(|l| l.contains("disp=router_shed")));
    }

    #[test]
    fn least_loaded_router_also_balances_under_faults() {
        let cfg = FleetConfig {
            router: RouterKind::LeastLoaded,
            ..small_fleet(4)
        };
        let r = run(&cfg, &FaultPlan::heavy(), 4_000);
        assert!(r.balanced(), "{r:?}");
        assert!(r.completed() > 0);
    }

    #[test]
    fn fleet_trace_dump_merges_shards_in_seq_order() {
        let mut cfg = small_fleet(3);
        cfg.base.trace = Some(stca_trace::TraceConfig {
            sample_every: 1,
            ring_capacity: 1 << 20, // retain everything: eviction is not under test
            ..stca_trace::TraceConfig::default()
        });
        let plan = FaultPlan::parse("shard_crash=0.3,seed=4").expect("plan");
        let r = run(&cfg, &plan, 1_500);
        let dump = r.trace_dump.expect("tracing on");
        assert!(
            dump.traces.windows(2).all(|w| w[0].seq <= w[1].seq),
            "merged dump is seq-sorted"
        );
        assert!(dump.stats.retained_normal + dump.stats.retained_error > 0);
        // rerouted requests carry Route spans
        if r.rerouted > 0 {
            assert!(dump
                .traces
                .iter()
                .any(|t| t.spans.iter().any(|s| s.stage == Stage::Route)));
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let model = AnalyticEa::default();
        let plan = FaultPlan::none();
        let bad = FleetConfig {
            shards: 0,
            ..FleetConfig::default()
        };
        assert!(serve_fleet(&bad, &model, &plan, &stream(), 10).is_err());
        let bad = FleetConfig {
            epoch_s: 0.0,
            ..FleetConfig::default()
        };
        assert!(serve_fleet(&bad, &model, &plan, &stream(), 10).is_err());
    }

    #[test]
    fn policy_applies_run_budgeted_validation_sims() {
        for shards in [1, 3] {
            let mut cfg = small_fleet(shards);
            cfg.base.hysteresis_k = 2;
            cfg.base.sim_budget_events = 50; // tiny budget: must exhaust
            let r = run(&cfg, &FaultPlan::none(), 2_000);
            for s in &r.shards {
                assert!(
                    s.policy_applies > 0,
                    "shard {} of {shards}: EA spread must flip the policy",
                    s.id
                );
                assert_eq!(s.policy_validations, s.policy_applies);
                assert_eq!(s.sim_budget_exhausted, s.policy_validations);
            }
        }
    }

    #[test]
    fn health_snapshot_writes_valid_json() {
        let dir = std::env::temp_dir().join(format!("stca_health_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        for shards in [1, 3] {
            let r = run(&small_fleet(shards), &FaultPlan::ci_default(), 1_000);
            let path = dir.join(format!("health{shards}.json"));
            write_health(&path, &r).expect("writes");
            let text = std::fs::read_to_string(&path).expect("reads");
            let Value::Object(root) = Value::parse(&text).expect("valid JSON") else {
                panic!("expected an object: {text}");
            };
            assert!(root.contains_key("metrics"));
            assert_eq!(root.get("balanced"), Some(&Value::Bool(true)));
            let Some(Value::Array(per_shard)) = root.get("shards") else {
                panic!("no shards array: {text}");
            };
            assert_eq!(per_shard.len(), shards as usize);
            for shard in per_shard {
                let Value::Object(m) = shard else {
                    panic!("shard entry is not an object: {shard:?}");
                };
                for key in ["accounting", "breaker", "policy", "response", "retries"] {
                    assert!(m.contains_key(key), "{shards} shards: no {key} in {m:?}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
