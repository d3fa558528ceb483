//! The discrete-event G/G/k simulator with timeout-triggered rate switches.
//!
//! Implementation notes: the event heap holds arrivals, boost timers and
//! departures. A rate change invalidates a query's scheduled departure; each
//! query carries a generation counter so stale departure events are ignored
//! (the standard "lazy deletion" technique). The simulator jumps from event
//! to event — there is no fixed time step — matching §3.3's "jumps multiple
//! steps at a time to the next execution event".
//!
//! The loop neither hashes nor clones per event: outstanding triggers
//! are a count (each query has one boost timer, so it triggers at most
//! once), a shared-boost flip reschedules `in_service` by index, and the
//! per-event `trace!` filter is read once per run. The event heap stays a
//! `BinaryHeap`; a sorted `Vec` is faster on short queues but goes O(n)
//! per insert when the queue grows at high utilisation.
//! `tests/engine_pin.rs` pins every output bit of the loop.
//!
//! Runs are independent, so the explorer runs its grid in parallel. The
//! `queuesim.server_utilization` gauge is then last-writer-wins, and its
//! final value depends on thread timing at more than one thread.
//!
//! **Boost scope.** The paper's implementation switches the *service's*
//! class of service: while any outstanding query has crossed the timeout,
//! every in-flight query of that service runs boosted, and the class reverts
//! when the last triggering query completes ("if multiple queries were
//! outstanding for the same online service, all had access to short-term
//! cache"). That service-wide boost is the only scope the simulator runs.

use crate::metrics::SimResult;
use stca_fault::StcaError;
use stca_util::{Distribution, Rng64, Seconds};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, OnceLock};

/// Global simulator metrics, resolved once (hot-loop counts are
/// accumulated locally and flushed at the end of each run).
struct SimMetrics {
    events: Arc<stca_obs::Counter>,
    timeout_switches: Arc<stca_obs::Counter>,
    runs: Arc<stca_obs::Counter>,
    queue_depth: Arc<stca_obs::Histogram>,
    server_utilization: Arc<stca_obs::Gauge>,
    run_seconds: Arc<stca_obs::Histogram>,
    quarantined: Arc<stca_obs::Counter>,
    budget_exhausted: Arc<stca_obs::Counter>,
}

fn sim_metrics() -> &'static SimMetrics {
    static METRICS: OnceLock<SimMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SimMetrics {
        events: stca_obs::counter("queuesim.events_total"),
        timeout_switches: stca_obs::counter("queuesim.timeout_switches_total"),
        runs: stca_obs::counter("queuesim.runs_total"),
        queue_depth: stca_obs::histogram("queuesim.queue_depth"),
        server_utilization: stca_obs::gauge("queuesim.server_utilization"),
        run_seconds: stca_obs::histogram("queuesim.run_seconds"),
        quarantined: stca_obs::counter("queuesim.nonfinite_events_quarantined_total"),
        budget_exhausted: stca_obs::counter("queuesim.budget_exhausted_total"),
    })
}

/// Configuration of one simulated station (one collocated workload).
#[derive(Debug, Clone)]
pub struct StationConfig {
    /// Inter-arrival distribution.
    pub inter_arrival: Distribution,
    /// Service-demand distribution (seconds of work at the default rate).
    pub service: Distribution,
    /// Expected service time used to normalize the timeout (Eq. 4).
    pub expected_service: Seconds,
    /// STAP timeout as a multiple of `expected_service`. Ratios at or above
    /// `stca_cat::stap::NEVER_BOOST_RATIO` never trigger.
    pub timeout_ratio: f64,
    /// Speed multiplier applied to work processed while boosted
    /// (`EA x l_a'/l_a`; 1.0 = boost has no effect).
    pub boost_rate: f64,
    /// Number of servers (`k`; the paper provisions 2 cores per workload).
    pub servers: usize,
    /// Queries to simulate after warm-up.
    pub measured_queries: usize,
    /// Warm-up queries discarded from statistics.
    pub warmup_queries: usize,
}

impl StationConfig {
    /// Sensible defaults around a given mean service time: Poisson arrivals
    /// at `util`, exponential service, 2 servers.
    pub fn mm2(mean_service: Seconds, util: f64, timeout_ratio: f64, boost_rate: f64) -> Self {
        let servers = 2;
        StationConfig {
            inter_arrival: Distribution::Exponential {
                mean: mean_service / (util * servers as f64),
            },
            service: Distribution::Exponential { mean: mean_service },
            expected_service: mean_service,
            timeout_ratio,
            boost_rate,
            servers,
            measured_queries: 2000,
            warmup_queries: 200,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Arrival,
    BoostTimer { query: usize },
    Departure { query: usize, generation: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: Seconds,
    seq: u64, // tiebreaker for determinism
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap via reversed comparison; total_cmp gives NaN a defined
        // order, so a damaged event time can never panic the serving path
        // (non-finite times are additionally quarantined at push)
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum QueryState {
    Queued,
    InService,
    Done,
}

#[derive(Debug, Clone)]
struct Query {
    arrival: Seconds,
    remaining: Seconds,
    state: QueryState,
    /// This query crossed its own timeout (Eq. 4).
    triggered: bool,
    /// This query ever executed at the boosted rate.
    saw_boost: bool,
    generation: u32,
    service_start: Seconds,
    last_update: Seconds,
    current_rate: f64,
    service_accum: Seconds,
    boosted_accum: Seconds,
}

/// The G/G/k + STAP simulator.
///
/// ```
/// use stca_queuesim::{QueueSim, StationConfig};
/// // M/M/2 at 80% utilization, boost 1.8x after 1x the expected service time
/// let mut sim = QueueSim::new(StationConfig::mm2(1.0, 0.8, 1.0, 1.8), 42);
/// let result = sim.run();
/// assert_eq!(result.completed(), 2000);
/// assert!(result.p95_response() >= result.median_response());
/// assert!(result.boost_fraction() > 0.0);
/// ```
pub struct QueueSim {
    config: StationConfig,
    rng: Rng64,
}

struct Engine {
    cfg: StationConfig,
    boost_enabled: bool,
    queries: Vec<Query>,
    heap: BinaryHeap<Event>,
    seq: u64,
    fifo: VecDeque<usize>,
    in_service: Vec<usize>,
    free_servers: usize,
    /// Outstanding triggered queries (shared-boost scope). A count, not a
    /// set: each query has exactly one boost timer, so it triggers at most
    /// once, and it leaves the count only at its own departure.
    triggered: usize,
    /// Events whose time was non-finite, quarantined instead of scheduled.
    quarantined: u64,
}

impl Engine {
    fn push_event(&mut self, time: Seconds, kind: EventKind) {
        // quarantine rather than schedule: a NaN/inf event time (damaged
        // distribution parameters, poisoned arithmetic) would otherwise
        // propagate through every later comparison
        if !time.is_finite() {
            self.quarantined += 1;
            stca_obs::warn!("quarantined non-finite event time for {kind:?}");
            return;
        }
        self.heap.push(Event {
            time,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    fn boost_active(&self) -> bool {
        self.boost_enabled && self.triggered > 0
    }

    /// The processing rate every serving query runs at right now.
    fn rate(&self) -> f64 {
        if self.boost_active() {
            self.cfg.boost_rate
        } else {
            1.0
        }
    }

    /// Account progress up to `now` at the query's current rate.
    fn progress(&mut self, id: usize, now: Seconds) {
        let q = &mut self.queries[id];
        let elapsed = now - q.last_update;
        if elapsed <= 0.0 {
            return;
        }
        q.remaining = (q.remaining - elapsed * q.current_rate).max(0.0);
        q.service_accum += elapsed;
        if q.current_rate > 1.0 {
            q.boosted_accum += elapsed;
        }
        q.last_update = now;
    }

    /// Re-evaluate a serving query's rate, rescheduling its departure when
    /// the rate changed (or when forced, for fresh dispatches).
    fn reschedule(&mut self, id: usize, now: Seconds, force: bool) {
        let new_rate = self.rate();
        let q = &self.queries[id];
        if !force && (q.current_rate - new_rate).abs() < 1e-15 {
            return;
        }
        self.progress(id, now);
        let q = &mut self.queries[id];
        q.current_rate = new_rate;
        if new_rate > 1.0 {
            q.saw_boost = true;
        }
        q.generation += 1;
        let dep = now + q.remaining / new_rate;
        let generation = q.generation;
        self.push_event(
            dep,
            EventKind::Departure {
                query: id,
                generation,
            },
        );
    }

    /// Rate switch for every in-service query (shared-boost flips).
    fn reschedule_all(&mut self, now: Seconds) {
        // by index: `reschedule` never touches `in_service`
        for i in 0..self.in_service.len() {
            let id = self.in_service[i];
            self.reschedule(id, now, false);
        }
    }

    /// Record a trigger; returns whether the shared boost state flipped on.
    fn trigger(&mut self, id: usize) -> bool {
        let was_active = self.boost_active();
        self.queries[id].triggered = true;
        self.triggered += 1;
        self.boost_active() && !was_active
    }

    fn dispatch(&mut self, now: Seconds) {
        while self.free_servers > 0 {
            let Some(id) = self.fifo.pop_front() else {
                break;
            };
            self.free_servers -= 1;
            {
                let q = &mut self.queries[id];
                q.state = QueryState::InService;
                q.service_start = now;
                q.last_update = now;
                q.current_rate = 1.0;
            }
            // a query that waited past the timeout is already triggered via
            // its timer event; nothing special to do here
            self.in_service.push(id);
            self.reschedule(id, now, true);
        }
    }
}

/// An event/time budget for a bounded simulation run (the serving path's
/// deadline propagation: a Stage-3 simulation embedded in a request with a
/// deadline must not run unboundedly).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunBudget {
    /// Stop after this many processed events (`None` = unlimited).
    pub max_events: Option<u64>,
}

impl RunBudget {
    /// The unlimited budget: [`QueueSim::run_budgeted`] behaves exactly
    /// like [`QueueSim::run`].
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// An event-count budget.
    pub fn events(max_events: u64) -> Self {
        RunBudget {
            max_events: Some(max_events),
        }
    }
}

/// The outcome of a budgeted run: the (possibly partial) statistics plus
/// how the run ended.
#[derive(Debug)]
pub struct BudgetedRun {
    /// Measured statistics up to the stopping point.
    pub result: SimResult,
    /// Whether the budget ran out before all queries completed.
    pub exhausted: bool,
    /// Events processed.
    pub events: u64,
    /// Non-finite events quarantined instead of scheduled.
    pub quarantined: u64,
}

impl QueueSim {
    /// Create a simulator with a deterministic seed.
    pub fn new(config: StationConfig, seed: u64) -> Self {
        assert!(config.servers >= 1);
        assert!(config.boost_rate > 0.0, "boost rate must be positive");
        QueueSim {
            config,
            rng: Rng64::new(seed),
        }
    }

    /// Validating constructor for the serving path: returns a typed error
    /// instead of panicking on a malformed station.
    pub fn try_new(config: StationConfig, seed: u64) -> Result<Self, StcaError> {
        if config.servers < 1 {
            return Err(StcaError::invalid_input("station needs at least 1 server"));
        }
        if !(config.boost_rate.is_finite() && config.boost_rate > 0.0) {
            return Err(StcaError::invalid_input(format!(
                "boost rate must be positive and finite, got {}",
                config.boost_rate
            )));
        }
        if !(config.expected_service.is_finite() && config.expected_service > 0.0) {
            return Err(StcaError::invalid_input(format!(
                "expected service must be positive and finite, got {}",
                config.expected_service
            )));
        }
        if !(config.timeout_ratio.is_finite() && config.timeout_ratio >= 0.0) {
            return Err(StcaError::invalid_input(format!(
                "timeout ratio must be non-negative and finite, got {}",
                config.timeout_ratio
            )));
        }
        for (what, mean) in [
            ("inter-arrival", config.inter_arrival.mean()),
            ("service", config.service.mean()),
        ] {
            if !(mean.is_finite() && mean > 0.0) {
                return Err(StcaError::invalid_input(format!(
                    "{what} distribution mean must be positive and finite, got {mean}"
                )));
            }
        }
        Ok(QueueSim::new(config, seed))
    }

    /// Run to completion and return measured statistics.
    pub fn run(&mut self) -> SimResult {
        self.run_budgeted(RunBudget::unlimited()).result
    }

    /// Run under an event/time budget. With [`RunBudget::unlimited`] this
    /// is exactly [`QueueSim::run`]; otherwise the run stops as soon as the
    /// budget is exceeded and reports `exhausted = true` with the partial
    /// statistics gathered so far — the deadline-aware entry point used by
    /// the serving loop, where a prediction request carries a deadline that
    /// bounds how much simulation it may buy.
    pub fn run_budgeted(&mut self, budget: RunBudget) -> BudgetedRun {
        let metrics = sim_metrics();
        let timer = stca_obs::StageTimer::with_histogram(metrics.run_seconds.clone());
        let cfg = self.config.clone();
        let total_queries = cfg.warmup_queries + cfg.measured_queries;
        let timeout_abs = cfg.timeout_ratio * cfg.expected_service;
        let boost_enabled =
            cfg.timeout_ratio < stca_cat::stap::NEVER_BOOST_RATIO && cfg.boost_rate != 1.0;

        let mut eng = Engine {
            boost_enabled,
            queries: Vec::with_capacity(total_queries),
            heap: BinaryHeap::new(),
            seq: 0,
            fifo: VecDeque::new(),
            in_service: Vec::new(),
            free_servers: cfg.servers,
            triggered: 0,
            quarantined: 0,
            cfg,
        };
        let cfg = &self.config;

        let mut result = SimResult {
            response_times: Vec::with_capacity(cfg.measured_queries),
            queue_delays: Vec::with_capacity(cfg.measured_queries),
            service_times: Vec::with_capacity(cfg.measured_queries),
            boosted: Vec::with_capacity(cfg.measured_queries),
            makespan: 0.0,
            boosted_busy_time: 0.0,
            busy_time: 0.0,
        };

        let mut arrivals_generated = 0usize;
        let mut completed = 0usize;
        // hot-loop accumulators, flushed to the global registry once per run
        let mut events_processed = 0u64;
        let mut timeout_switches = 0u64;

        let t0 = cfg.inter_arrival.sample(&mut self.rng);
        eng.push_event(t0, EventKind::Arrival);

        // per-event trace lines: the filter is read once per run
        let trace_events = stca_obs::logger::enabled(stca_obs::Level::Trace, module_path!());
        let mut exhausted = false;
        while let Some(ev) = eng.heap.pop() {
            if budget.max_events.is_some_and(|m| events_processed >= m) {
                exhausted = true;
                break;
            }
            let now = ev.time;
            events_processed += 1;
            if trace_events {
                stca_obs::trace!("t={now:.6} event {:?}", ev.kind);
            }
            match ev.kind {
                EventKind::Arrival => {
                    let id = eng.queries.len();
                    let demand = cfg.service.sample(&mut self.rng).max(1e-9);
                    eng.queries.push(Query {
                        arrival: now,
                        remaining: demand,
                        state: QueryState::Queued,
                        triggered: false,
                        saw_boost: false,
                        generation: 0,
                        service_start: 0.0,
                        last_update: now,
                        current_rate: 1.0,
                        service_accum: 0.0,
                        boosted_accum: 0.0,
                    });
                    arrivals_generated += 1;
                    if arrivals_generated < total_queries {
                        let gap = cfg.inter_arrival.sample(&mut self.rng).max(1e-12);
                        eng.push_event(now + gap, EventKind::Arrival);
                    }
                    if eng.boost_enabled {
                        eng.push_event(now + timeout_abs, EventKind::BoostTimer { query: id });
                    }
                    eng.fifo.push_back(id);
                    // sampled (not per-arrival) so the histogram update cost
                    // stays invisible next to the event loop itself
                    if arrivals_generated.is_multiple_of(16) {
                        metrics.queue_depth.record(eng.fifo.len() as f64);
                    }
                    eng.dispatch(now);
                }
                EventKind::BoostTimer { query } => {
                    if !eng.boost_enabled || eng.queries[query].state == QueryState::Done {
                        continue;
                    }
                    let flipped_on = eng.trigger(query);
                    if flipped_on {
                        timeout_switches += 1;
                    }
                    if flipped_on {
                        eng.reschedule_all(now);
                    }
                }
                EventKind::Departure { query, generation } => {
                    {
                        let q = &eng.queries[query];
                        if q.generation != generation || q.state == QueryState::Done {
                            continue; // stale event
                        }
                        debug_assert_eq!(q.state, QueryState::InService);
                    }
                    eng.progress(query, now);
                    let was_triggered = eng.queries[query].triggered;
                    {
                        let q = &mut eng.queries[query];
                        q.state = QueryState::Done;
                        q.remaining = 0.0;
                    }
                    eng.in_service.retain(|&i| i != query);
                    eng.free_servers += 1;
                    if was_triggered {
                        let was_active = eng.boost_active();
                        eng.triggered -= 1;
                        if was_active && !eng.boost_active() {
                            // class of service reverts: remaining queries
                            // drop back to the default rate
                            eng.reschedule_all(now);
                        }
                    }
                    completed += 1;
                    let q = &eng.queries[query];
                    result.busy_time += q.service_accum;
                    result.boosted_busy_time += q.boosted_accum;
                    if query >= cfg.warmup_queries {
                        result.response_times.push(now - q.arrival);
                        result.queue_delays.push(q.service_start - q.arrival);
                        result.service_times.push(q.service_accum);
                        result.boosted.push(q.saw_boost || q.triggered);
                    }
                    result.makespan = now;
                    if completed >= total_queries {
                        break;
                    }
                    eng.dispatch(now);
                }
            }
        }
        metrics.events.add(events_processed);
        metrics.timeout_switches.add(timeout_switches);
        metrics.runs.inc();
        if eng.quarantined > 0 {
            metrics.quarantined.add(eng.quarantined);
        }
        if exhausted {
            metrics.budget_exhausted.inc();
        }
        if result.makespan > 0.0 {
            metrics
                .server_utilization
                .set(result.busy_time / (cfg.servers as f64 * result.makespan));
        }
        let elapsed = timer.stop();
        stca_obs::debug!(
            "run complete: {completed} queries, {events_processed} events, \
             {timeout_switches} timeout switches, {elapsed:.3}s wall"
        );
        BudgetedRun {
            result,
            exhausted,
            events: events_processed,
            quarantined: eng.quarantined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> StationConfig {
        StationConfig {
            inter_arrival: Distribution::Exponential { mean: 1.0 },
            service: Distribution::Exponential { mean: 0.5 },
            expected_service: 0.5,
            timeout_ratio: 6.0,
            boost_rate: 1.0,
            servers: 1,
            measured_queries: 5000,
            warmup_queries: 500,
        }
    }

    #[test]
    fn mm1_mean_response_matches_theory() {
        // M/M/1 with rho = 0.5: E[T] = 1/(mu - lambda) = 1/(2 - 1) = 1.0
        let mut sim = QueueSim::new(base_config(), 42);
        let r = sim.run();
        assert_eq!(r.completed(), 5000);
        let mean = r.mean_response();
        assert!(
            (mean - 1.0).abs() < 0.12,
            "M/M/1 mean response {mean}, expected ~1.0"
        );
    }

    #[test]
    fn md1_queue_delay_matches_pollaczek_khinchine() {
        // M/D/1, rho=0.5, S=0.5: Wq = rho*S / (2(1-rho)) = 0.25
        let mut cfg = base_config();
        cfg.service = Distribution::Deterministic(0.5);
        let mut sim = QueueSim::new(cfg, 7);
        let r = sim.run();
        let wq = r.mean_queue_delay();
        assert!((wq - 0.25).abs() < 0.05, "M/D/1 Wq {wq}, expected ~0.25");
    }

    #[test]
    fn higher_utilization_means_longer_queues() {
        let run_at = |util: f64| {
            let mut cfg = base_config();
            cfg.inter_arrival = Distribution::Exponential { mean: 0.5 / util };
            QueueSim::new(cfg, 1).run().mean_queue_delay()
        };
        let low = run_at(0.3);
        let high = run_at(0.9);
        assert!(
            high > 3.0 * low,
            "queueing blows up near saturation: {low} vs {high}"
        );
    }

    #[test]
    fn zero_timeout_boosts_everyone() {
        let mut cfg = base_config();
        cfg.timeout_ratio = 0.0;
        cfg.boost_rate = 2.0;
        let mut sim = QueueSim::new(cfg, 3);
        let r = sim.run();
        assert!(r.boost_fraction() > 0.999, "all queries boosted at T=0");
        // with everything boosted 2x, mean service halves
        assert!(
            (r.mean_service() - 0.25).abs() < 0.03,
            "mean service {}",
            r.mean_service()
        );
    }

    #[test]
    fn never_timeout_boosts_nobody() {
        let mut cfg = base_config();
        cfg.timeout_ratio = 6.0;
        cfg.boost_rate = 3.0;
        let mut sim = QueueSim::new(cfg, 4);
        let r = sim.run();
        assert_eq!(r.boost_fraction(), 0.0);
        assert_eq!(r.boosted_busy_fraction(), 0.0);
    }

    #[test]
    fn boost_reduces_tail_latency() {
        let tail = |timeout_ratio: f64, boost_rate: f64| {
            let mut cfg = base_config();
            cfg.inter_arrival = Distribution::Exponential { mean: 0.5 / 0.9 }; // rho=0.9
            cfg.timeout_ratio = timeout_ratio;
            cfg.boost_rate = boost_rate;
            cfg.measured_queries = 8000;
            QueueSim::new(cfg, 5).run().p95_response()
        };
        let without = tail(6.0, 1.0);
        let with = tail(1.0, 2.0);
        assert!(
            with < without * 0.75,
            "boosting slow queries must cut the tail: {with} vs {without}"
        );
    }

    #[test]
    fn shared_boost_accelerates_bystanders() {
        // two servers, long queries that trigger and short queries that
        // ride along: the whole service runs boosted while any outstanding
        // query is past its timeout, so more queries run boosted than
        // crossed their own timeout
        let mut cfg = base_config();
        cfg.servers = 2;
        cfg.inter_arrival = Distribution::Exponential { mean: 0.26 }; // busy
        cfg.service = Distribution::HyperExp {
            p: 0.1,
            mean_a: 4.0,
            mean_b: 0.5,
        };
        cfg.expected_service = 0.85;
        cfg.timeout_ratio = 2.0;
        cfg.boost_rate = 2.0;
        cfg.measured_queries = 6000;
        let timeout = cfg.timeout_ratio * cfg.expected_service;
        let r = QueueSim::new(cfg, 7).run();
        let crossed = r.response_times.iter().filter(|&&t| t > timeout).count();
        let boosted = r.boosted.iter().filter(|&&b| b).count();
        assert!(
            boosted > crossed,
            "shared boost reaches bystanders: {boosted} boosted, {crossed} past timeout"
        );
    }

    #[test]
    fn queued_past_timeout_starts_boosted() {
        // single server, deterministic 1s service, burst arrivals
        let mut cfg = base_config();
        cfg.inter_arrival = Distribution::Deterministic(0.1);
        cfg.service = Distribution::Deterministic(1.0);
        cfg.expected_service = 1.0;
        cfg.timeout_ratio = 1.0;
        cfg.boost_rate = 4.0;
        cfg.measured_queries = 200;
        cfg.warmup_queries = 50;
        let mut sim = QueueSim::new(cfg, 8);
        let r = sim.run();
        // queue builds fast; almost every measured query waits > 1s and is
        // boosted for its entire service: service -> 0.25s
        assert!(r.boost_fraction() > 0.95);
        let boosted_services: Vec<f64> = r
            .service_times
            .iter()
            .zip(&r.boosted)
            .filter(|&(_, &b)| b)
            .map(|(&s, _)| s)
            .collect();
        let mean: f64 = boosted_services.iter().sum::<f64>() / boosted_services.len() as f64;
        assert!(
            mean < 0.6,
            "fully-boosted service should approach 0.25, got {mean}"
        );
    }

    #[test]
    fn multi_server_increases_throughput() {
        let mut cfg = base_config();
        cfg.inter_arrival = Distribution::Exponential { mean: 0.3 }; // rho ~ 1.67 for 1 server
        cfg.servers = 2; // rho ~ 0.83
        cfg.measured_queries = 4000;
        let mut sim = QueueSim::new(cfg, 9);
        let r = sim.run();
        // stable: response time finite and not absurd
        assert!(r.mean_response() < 5.0, "2 servers keep the station stable");
    }

    #[test]
    fn nonfinite_event_times_are_quarantined_not_panicked() {
        // a NaN inter-arrival mean poisons the first arrival time; the old
        // Ord impl panicked inside BinaryHeap — now the event is quarantined
        let mut cfg = base_config();
        cfg.inter_arrival = Distribution::Deterministic(f64::NAN);
        cfg.measured_queries = 100;
        cfg.warmup_queries = 0;
        let run = QueueSim::new(cfg, 1).run_budgeted(RunBudget::unlimited());
        assert_eq!(run.result.completed(), 0, "no arrivals were scheduled");
        assert!(run.quarantined >= 1, "the NaN arrival was quarantined");
        assert!(!run.exhausted);
    }

    #[test]
    fn try_new_rejects_malformed_stations() {
        let ok = base_config();
        assert!(QueueSim::try_new(ok.clone(), 1).is_ok());
        let mut bad = ok.clone();
        bad.servers = 0;
        assert!(QueueSim::try_new(bad, 1).is_err());
        let mut bad = ok.clone();
        bad.boost_rate = f64::NAN;
        assert!(QueueSim::try_new(bad, 1).is_err());
        let mut bad = ok.clone();
        bad.timeout_ratio = -1.0;
        assert!(QueueSim::try_new(bad, 1).is_err());
        let mut bad = ok;
        bad.inter_arrival = Distribution::Deterministic(f64::INFINITY);
        assert!(QueueSim::try_new(bad, 1).is_err());
    }

    #[test]
    fn budgeted_run_stops_at_the_event_budget() {
        let mut cfg = base_config();
        cfg.measured_queries = 5000;
        let full = QueueSim::new(cfg.clone(), 11).run_budgeted(RunBudget::unlimited());
        assert!(!full.exhausted);
        assert!(full.events > 200);
        let bounded = QueueSim::new(cfg, 11).run_budgeted(RunBudget::events(200));
        assert!(bounded.exhausted, "budget must be reported as exhausted");
        assert_eq!(bounded.events, 200);
        assert!(bounded.result.completed() < 5000);
        // the partial prefix is the same simulation: identical first stats
        assert_eq!(
            full.result.response_times[..bounded.result.response_times.len()],
            bounded.result.response_times[..]
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = QueueSim::new(base_config(), 11).run();
        let b = QueueSim::new(base_config(), 11).run();
        assert_eq!(a.response_times, b.response_times);
    }

    #[test]
    fn conservation_of_work() {
        // realized busy time equals summed service times
        let mut cfg = base_config();
        cfg.measured_queries = 1000;
        cfg.warmup_queries = 0;
        let r = QueueSim::new(cfg, 12).run();
        let total: f64 = r.service_times.iter().sum();
        assert!((total - r.busy_time).abs() / r.busy_time < 1e-6);
    }

    /// With no boost and exponential service a station is M/M/k, so its
    /// mean response must match `mmk_mean_response` and the share of
    /// queries that wait must match Erlang C. Each of `REPLICATIONS` seeded
    /// runs gives one estimate of both; the tolerance is `T` standard
    /// errors of their average, where `T = 3.77` is the two-sided 99.9%
    /// Student-t quantile for `REPLICATIONS − 1 = 23` degrees of freedom.
    #[test]
    fn no_boost_station_matches_mmk_oracle() {
        use crate::analytic::{erlang_c, mmk_mean_response};
        const REPLICATIONS: usize = 24;
        const T: f64 = 3.77;
        // (mean, tolerance) of the replication estimates
        let estimate = |xs: &[f64]| {
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            (mean, T * (var / n).sqrt())
        };
        for (servers, rho, mean_service) in [(2, 0.8, 1.0), (4, 0.9, 0.5)] {
            let lambda = servers as f64 * rho / mean_service;
            let (responses, waited): (Vec<f64>, Vec<f64>) = (0..REPLICATIONS as u64)
                .map(|seed| {
                    let cfg = StationConfig {
                        inter_arrival: Distribution::Exponential { mean: 1.0 / lambda },
                        service: Distribution::Exponential { mean: mean_service },
                        expected_service: mean_service,
                        timeout_ratio: stca_cat::stap::NEVER_BOOST_RATIO,
                        boost_rate: 1.0,
                        servers,
                        measured_queries: 20_000,
                        warmup_queries: 2_000,
                    };
                    let r = QueueSim::new(cfg, 0x3a3 + seed).run();
                    let waits = r.queue_delays.iter().filter(|&&d| d > 0.0).count();
                    (r.mean_response(), waits as f64 / r.completed() as f64)
                })
                .unzip();
            let want = mmk_mean_response(servers, lambda, mean_service);
            let (got, tol) = estimate(&responses);
            assert!(
                (got - want).abs() <= tol,
                "M/M/{servers} mean response {got:.4} vs {want:.4} (tolerance {tol:.4})"
            );
            let want = erlang_c(servers, lambda * mean_service);
            let (got, tol) = estimate(&waited);
            assert!(
                (got - want).abs() <= tol,
                "M/M/{servers} P(wait) {got:.4} vs Erlang C {want:.4} (tolerance {tol:.4})"
            );
        }
    }

    #[test]
    fn boosted_busy_time_bounded_by_busy_time() {
        let mut cfg = base_config();
        cfg.timeout_ratio = 0.5;
        cfg.boost_rate = 2.0;
        cfg.inter_arrival = Distribution::Exponential { mean: 0.6 };
        let r = QueueSim::new(cfg, 13).run();
        assert!(r.boosted_busy_time <= r.busy_time + 1e-9);
        assert!(r.boosted_busy_fraction() > 0.0);
    }
}
