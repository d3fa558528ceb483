//! The collocated test environment (§3.1 / §4).
//!
//! Two (or more) benchmark stations share one simulated cache hierarchy.
//! Each station is an open-loop queueing system: Poisson arrivals at the
//! condition's utilization, a FIFO queue, and two servers (the paper
//! provisions 2 cores per workload). Execution is *quantum-interleaved*:
//! every scheduling round, each busy station drives a quantum of memory
//! accesses through the shared LLC, so cache contention between collocated
//! services emerges from real interleaved fills — a station boosted into the
//! shared ways evicts its neighbour's shared-way lines and vice versa.
//!
//! Each station keeps its own virtual clock (benchmarks differ in service
//! time by 5 orders of magnitude; what couples them is *cache pressure*,
//! which the round-robin interleaving models, not wall-clock alignment).
//! Service-time calibration runs each benchmark solo on its private
//! allocation and sets a cycles→seconds factor such that the solo mean
//! service time equals the Table-1 baseline; at run time, contention and
//! boosts change cycles-per-access and therefore realized service times.

use crate::profile::{ProfileRow, ProfileSet};
use crate::proxy::ProxyService;
use crate::sampler::CounterOrdering;
use crate::storage;
use stca_cachesim::{Counter, CounterSet, Hierarchy, HierarchyConfig, MaskMode, WorkloadId};
use stca_cat::layout::ExperimentLayout;
use stca_cat::ShortTermPolicy;
use stca_fault::checkpoint::resumable_map;
use stca_fault::{with_retry, FaultPlan, RetryPolicy, StcaError};
use stca_obs::json::Value;
use stca_util::{Distribution, Percentiles, Rng64, Seconds};
use stca_workloads::conditions::WorkloadCondition;
use stca_workloads::{AccessGenerator, RuntimeCondition, WorkloadSpec};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Full description of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Cache hierarchy configuration (usually `experiment_default()`).
    pub config: HierarchyConfig,
    /// The runtime condition: benchmarks, utilizations, timeouts, sampling.
    pub condition: RuntimeCondition,
    /// Way layout for the collocated workloads (pair or chain).
    pub layout: ExperimentLayout,
    /// Measured queries per workload.
    pub measured_queries: usize,
    /// Warm-up queries per workload (excluded from statistics).
    pub warmup_queries: usize,
    /// Override the per-benchmark mean accesses per query (tests use small
    /// values; `None` uses each spec's default).
    pub accesses_per_query: Option<u64>,
    /// Counter-trace length (columns of the Eq.-2 profile matrix).
    pub trace_len: usize,
    /// Accesses per scheduling quantum.
    pub quantum: u64,
    /// How LLC masks are enforced (CAT fill-only vs strict partitioning;
    /// the `ablation_maskmode` bench compares the two).
    pub mask_mode: MaskMode,
    /// Experiment seed.
    pub seed: u64,
}

impl ExperimentSpec {
    /// Standard experiment shape used by the figure harnesses.
    pub fn standard(condition: RuntimeCondition, seed: u64) -> Self {
        ExperimentSpec {
            config: HierarchyConfig::experiment_default(),
            condition,
            layout: ExperimentLayout::pair_symmetric(2, 2),
            measured_queries: 300,
            warmup_queries: 40,
            accesses_per_query: None,
            trace_len: 20,
            quantum: 256,
            mask_mode: MaskMode::FillOnly,
            seed,
        }
    }

    /// Small, fast shape for unit tests.
    pub fn quick(condition: RuntimeCondition, seed: u64) -> Self {
        ExperimentSpec {
            config: HierarchyConfig::experiment_default().scaled_down(4),
            condition,
            layout: ExperimentLayout::pair_symmetric(2, 2),
            measured_queries: 60,
            warmup_queries: 10,
            accesses_per_query: Some(400),
            trace_len: 20,
            quantum: 128,
            mask_mode: MaskMode::FillOnly,
            seed,
        }
    }
}

/// Measured outputs for one workload of an experiment.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// Which benchmark this station ran.
    pub benchmark: stca_workloads::BenchmarkId,
    /// The policy the station ran under.
    pub policy: ShortTermPolicy,
    /// Per-query response times (measured window only).
    pub response_times: Vec<Seconds>,
    /// Per-query queueing delays.
    pub queue_delays: Vec<Seconds>,
    /// Per-query realized service times.
    pub service_times: Vec<Seconds>,
    /// Whether each query executed under a boost at some point.
    pub boosted: Vec<bool>,
    /// Sampled counter trace (zero-padded to `trace_len` rows).
    pub trace: Vec<CounterSet>,
    /// Cycles per access at the default allocation.
    pub cycles_per_access_default: f64,
    /// Cycles per access while boosted (0 when never boosted).
    pub cycles_per_access_boosted: f64,
    /// Measured effective cache allocation (Eq. 3).
    pub effective_allocation: f64,
    /// Unbiased estimate of the mean service time at the default
    /// allocation under this condition's contention: mean demand x default
    /// cycles-per-access x the calibrated cycles->seconds factor. (Averaging
    /// unboosted queries instead would be biased at high load: only short
    /// queries finish before the timeout.)
    pub base_service_default: Seconds,
    /// COS switches performed by the proxy.
    pub cos_switches: u64,
    /// Expected (Table-1 baseline) service time used for Eq. 4.
    pub expected_service: Seconds,
}

impl WorkloadOutcome {
    /// Mean response time.
    pub fn mean_response(&self) -> Seconds {
        assert!(!self.response_times.is_empty());
        self.response_times.iter().sum::<f64>() / self.response_times.len() as f64
    }

    /// Response-time quantile.
    pub fn response_quantile(&self, q: f64) -> Seconds {
        let mut p = Percentiles::with_capacity(self.response_times.len());
        p.extend_from(&self.response_times);
        p.quantile(q)
    }

    /// 95th-percentile response time.
    pub fn p95_response(&self) -> Seconds {
        self.response_quantile(0.95)
    }

    /// Mean realized service time.
    pub fn mean_service(&self) -> Seconds {
        assert!(!self.service_times.is_empty());
        self.service_times.iter().sum::<f64>() / self.service_times.len() as f64
    }

    /// Mean queueing delay.
    pub fn mean_queue_delay(&self) -> Seconds {
        if self.queue_delays.is_empty() {
            0.0
        } else {
            self.queue_delays.iter().sum::<f64>() / self.queue_delays.len() as f64
        }
    }

    /// Fraction of queries that were boosted.
    pub fn boost_fraction(&self) -> f64 {
        if self.boosted.is_empty() {
            0.0
        } else {
            self.boosted.iter().filter(|&&b| b).count() as f64 / self.boosted.len() as f64
        }
    }

    /// Estimated mean service time at the default allocation under this
    /// condition's contention.
    pub fn base_service_estimate(&self) -> Seconds {
        self.base_service_default
    }
}

/// Outcome of a full experiment (all collocated workloads).
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// One outcome per station, in condition order.
    pub workloads: Vec<WorkloadOutcome>,
}

#[derive(Debug, Clone)]
struct ActiveQuery {
    id: u64,
    arrival: Seconds,
    start: Seconds,
    /// This query's own server timeline (start + accumulated service).
    now: Seconds,
    remaining: u64,
    service_accum: Seconds,
    was_boosted: bool,
}

struct Station {
    wid: u32,
    spec: WorkloadSpec,
    gen: AccessGenerator,
    proxy: ProxyService,
    sec_per_cycle: f64,
    servers: usize,
    /// Arrival/timeout frontier: the station has simulated up to here.
    station_time: Seconds,
    /// Times at which currently-free servers became free (len + active.len()
    /// == servers).
    free_servers: Vec<Seconds>,
    next_arrival: Seconds,
    inter_arrival: Distribution,
    demand: Distribution,
    accesses_mean: u64,
    rng: Rng64,
    fifo: VecDeque<(u64, Seconds)>,
    active: Vec<ActiveQuery>,
    next_id: u64,
    // results
    warmup: usize,
    target: usize,
    completed_total: usize,
    response_times: Vec<Seconds>,
    queue_delays: Vec<Seconds>,
    service_times: Vec<Seconds>,
    boosted_flags: Vec<bool>,
    // boost-state cycle accounting
    default_cycles: u64,
    default_accesses: u64,
    boosted_cycles: u64,
    boosted_accesses: u64,
    // sampling
    windows: usize,
    window_size: usize,
    trace: Vec<CounterSet>,
    last_snap: CounterSet,
    mask_installed_boosted: Option<bool>,
}

impl Station {
    fn done(&self) -> bool {
        self.response_times.len() >= self.target
    }

    fn demand_accesses(&mut self) -> u64 {
        let mult = self.demand.sample(&mut self.rng).max(0.05);
        ((self.accesses_mean as f64) * mult).round().max(1.0) as u64
    }
}

/// Global executor metrics, resolved once (experiments run in tight bench
/// loops; per-run quantities are accumulated locally and flushed at the
/// end of each run).
struct ExecMetrics {
    experiments: Arc<stca_obs::Counter>,
    trace_samples: Arc<stca_obs::Counter>,
    cos_switches: Arc<stca_obs::Counter>,
    ea: Arc<stca_obs::Histogram>,
    run_seconds: Arc<stca_obs::Histogram>,
}

fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ExecMetrics {
        experiments: stca_obs::counter("profiler.experiments_total"),
        trace_samples: stca_obs::counter("profiler.trace_samples_total"),
        cos_switches: stca_obs::counter("profiler.cos_switches_total"),
        ea: stca_obs::histogram("profiler.ea"),
        run_seconds: stca_obs::histogram("profiler.experiment_seconds"),
    })
}

/// The collocated test environment.
pub struct TestEnvironment {
    spec: ExperimentSpec,
}

impl TestEnvironment {
    /// Create an environment for a spec. The layout must host exactly the
    /// condition's workload count and fit in the configured LLC.
    ///
    /// Panics on an invalid spec; fault-tolerant callers use [`try_new`].
    ///
    /// [`try_new`]: TestEnvironment::try_new
    pub fn new(spec: ExperimentSpec) -> Self {
        match Self::try_new(spec) {
            Ok(env) => env,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`new`](TestEnvironment::new) with spec validation surfaced as a
    /// [`StcaError::InvalidInput`] instead of a panic.
    pub fn try_new(spec: ExperimentSpec) -> Result<Self, StcaError> {
        if spec.condition.workloads.len() < 2 {
            return Err(StcaError::invalid_input(format!(
                "collocation needs at least two workloads, got {}",
                spec.condition.workloads.len()
            )));
        }
        if spec.layout.workloads() != spec.condition.workloads.len() {
            return Err(StcaError::invalid_input(format!(
                "layout must host the condition's {1} workloads, but has {0} regions",
                spec.layout.workloads(),
                spec.condition.workloads.len()
            )));
        }
        if spec.layout.total_ways() > spec.config.llc.ways {
            return Err(StcaError::invalid_input(format!(
                "layout needs {} ways but the LLC has {}",
                spec.layout.total_ways(),
                spec.config.llc.ways
            )));
        }
        Ok(TestEnvironment { spec })
    }

    /// Run one fault-injected attempt: roll run-level faults (crash,
    /// timeout) keyed to `(plan seed, spec seed, attempt)`, execute the
    /// experiment, mangle each station's trace per the plan, and sanitize
    /// the result. Under [`FaultPlan::none`] this is exactly [`run`].
    ///
    /// [`run`]: TestEnvironment::run
    fn run_attempt(&self, plan: &FaultPlan, attempt: u32) -> Result<ExperimentOutcome, StcaError> {
        let injector = plan.injector(self.spec.seed, attempt);
        if !injector.is_active() {
            return Ok(self.run());
        }
        // roll the cheap run-level faults before paying for the run
        injector.attempt_outcome()?;
        let _latency = injector.injected_latency_s();
        let mut out = self.run();
        for (station, w) in out.workloads.iter_mut().enumerate() {
            crate::sampler::apply_faults(&injector, station as u64, &mut w.trace);
            let report = crate::sampler::sanitize_trace(&mut w.trace);
            if report.rejected() {
                return Err(StcaError::InvalidTrace {
                    reason: format!("station {station}: {report}"),
                });
            }
        }
        Ok(out)
    }

    /// [`run_attempt`] under a retry policy: transient failures (injected
    /// crashes/timeouts, rejected traces) re-roll with a fresh attempt
    /// number until success or [`StcaError::RetriesExhausted`].
    ///
    /// [`run_attempt`]: TestEnvironment::run_attempt
    fn run_with_retry(
        &self,
        plan: &FaultPlan,
        retry: &RetryPolicy,
    ) -> Result<ExperimentOutcome, StcaError> {
        with_retry(retry, self.spec.seed, |attempt| {
            self.run_attempt(plan, attempt)
        })
    }

    /// Calibrate one benchmark's cycles→seconds factor: run it solo on its
    /// private allocation and match the Table-1 mean service time.
    fn calibrate(
        spec: &WorkloadSpec,
        config: &HierarchyConfig,
        policy: &ShortTermPolicy,
        accesses_mean: u64,
        seed: u64,
    ) -> f64 {
        let mut hier = Hierarchy::new(*config, seed ^ 0xCA11);
        let ways = config.llc.ways;
        hier.set_llc_mask(0, policy.default.to_cbm(ways).expect("layout fits cache"));
        let mut gen = AccessGenerator::new(
            spec.pattern_for(config),
            0,
            spec.store_fraction,
            seed ^ 0xACCE,
        );
        let mut rng = Rng64::new(seed ^ 0x5EED);
        let cal_queries = 24;
        let warm = 6;
        let mut measured_cycles = 0u64;
        let mut measured_queries = 0u64;
        for q in 0..cal_queries {
            let cycles = run_accesses(&mut hier, 0, &mut gen, &mut rng, spec, accesses_mean);
            if q >= warm {
                measured_cycles += cycles;
                measured_queries += 1;
            }
        }
        let mean_cycles = measured_cycles as f64 / measured_queries as f64;
        spec.mean_service_time / mean_cycles
    }

    /// Run the experiment with the condition's policies.
    pub fn run(&self) -> ExperimentOutcome {
        self.run_with_policies(None)
    }

    /// Run with every station's short-term allocation disabled (the
    /// `(a, a, 0)` baseline of Eq. 3).
    pub fn run_baseline(&self) -> ExperimentOutcome {
        self.run_with_policies(Some(self.spec.layout.static_policies()))
    }

    /// Run with explicit per-station policies (competing allocation schemes
    /// install their own settings through this hook).
    pub fn run_with_policies(&self, policies: Option<Vec<ShortTermPolicy>>) -> ExperimentOutcome {
        let metrics = exec_metrics();
        let timer = stca_obs::StageTimer::with_histogram(metrics.run_seconds.clone());
        let spec = &self.spec;
        let config = &spec.config;
        let ways = config.llc.ways;
        let timeouts: Vec<f64> = spec
            .condition
            .workloads
            .iter()
            .map(|w| w.timeout_ratio)
            .collect();
        let policies = policies.unwrap_or_else(|| spec.layout.policies(&timeouts));
        assert_eq!(policies.len(), spec.condition.workloads.len());

        let mut hier = Hierarchy::new(*config, spec.seed);
        hier.set_mask_mode(spec.mask_mode);
        let ns = spec
            .trace_len
            .min(((40.0 / spec.condition.sample_period).floor() as usize).max(1));

        let mut stations: Vec<Station> = Vec::new();
        for (i, wc) in spec.condition.workloads.iter().enumerate() {
            let wspec = WorkloadSpec::for_benchmark(wc.benchmark);
            let accesses_mean = spec
                .accesses_per_query
                .unwrap_or(wspec.mean_accesses_per_query);
            let policy = policies[i];
            let sec_per_cycle = Self::calibrate(
                &wspec,
                config,
                &policy,
                accesses_mean,
                spec.seed ^ ((i as u64 + 1) << 32),
            );
            let servers = 2;
            let inter_arrival = Distribution::Exponential {
                mean: wspec.mean_service_time / (wc.utilization * servers as f64),
            };
            let mut rng = Rng64::new(spec.seed ^ ((i as u64 + 1) << 16));
            let first_arrival = inter_arrival.sample(&mut rng);
            let total = spec.warmup_queries + spec.measured_queries;
            let window_size = total.div_ceil(ns).max(1);
            hier.set_llc_mask(i as u32, policy.default.to_cbm(ways).expect("valid layout"));
            stations.push(Station {
                wid: i as u32,
                gen: AccessGenerator::new(
                    wspec.pattern_for(config),
                    (i as u64 + 1) << 42,
                    wspec.store_fraction,
                    spec.seed ^ ((i as u64 + 1) << 24),
                ),
                proxy: ProxyService::new(policy, wspec.mean_service_time),
                sec_per_cycle,
                servers,
                station_time: 0.0,
                free_servers: vec![0.0; servers],
                next_arrival: first_arrival,
                inter_arrival,
                demand: wspec.demand.clone(),
                accesses_mean,
                rng,
                fifo: VecDeque::new(),
                active: Vec::new(),
                next_id: 0,
                warmup: spec.warmup_queries,
                target: spec.measured_queries,
                completed_total: 0,
                response_times: Vec::with_capacity(spec.measured_queries),
                queue_delays: Vec::with_capacity(spec.measured_queries),
                service_times: Vec::with_capacity(spec.measured_queries),
                boosted_flags: Vec::with_capacity(spec.measured_queries),
                default_cycles: 0,
                default_accesses: 0,
                boosted_cycles: 0,
                boosted_accesses: 0,
                windows: ns,
                window_size,
                trace: Vec::with_capacity(spec.trace_len),
                last_snap: CounterSet::new(),
                mask_installed_boosted: Some(false),
                spec: wspec,
            });
        }

        // main round-robin loop
        let mut safety = 0u64;
        let safety_cap = 200_000_000 / spec.quantum.max(1); // generous
        while stations.iter().any(|s| !s.done()) {
            safety += 1;
            assert!(safety < safety_cap, "experiment failed to converge");
            for s in stations.iter_mut() {
                if s.done() {
                    // finished stations keep generating load until all done,
                    // but cap their extra work to avoid unbounded runs
                    if s.completed_total > 4 * (s.warmup + s.target) {
                        continue;
                    }
                }
                Self::step_station(s, &mut hier, spec.quantum);
            }
        }

        // package outcomes
        let outcomes = stations
            .into_iter()
            .map(|mut s| {
                metrics.trace_samples.add(s.trace.len() as u64);
                metrics.cos_switches.add(s.proxy.switch_count());
                // pad trace to trace_len
                while s.trace.len() < spec.trace_len {
                    s.trace.push(CounterSet::new());
                }
                let cpa_d = if s.default_accesses > 0 {
                    s.default_cycles as f64 / s.default_accesses as f64
                } else {
                    0.0
                };
                let cpa_b = if s.boosted_accesses > 0 {
                    s.boosted_cycles as f64 / s.boosted_accesses as f64
                } else {
                    0.0
                };
                let ratio = s.proxy.policy().allocation_ratio().max(1.0);
                let ea = if cpa_b > 0.0 && cpa_d > 0.0 {
                    crate::ea::effective_allocation(cpa_d, cpa_b, ratio)
                } else {
                    // boost never exercised: the grant bought nothing
                    1.0 / ratio
                };
                metrics.ea.record(ea);
                let base_service_default = if cpa_d > 0.0 {
                    s.accesses_mean as f64 * cpa_d * s.sec_per_cycle
                } else if cpa_b > 0.0 {
                    // everything ran boosted; back out the default rate via EA
                    s.accesses_mean as f64 * cpa_b * ea * ratio * s.sec_per_cycle
                } else {
                    s.spec.mean_service_time
                };
                WorkloadOutcome {
                    benchmark: s.spec.id,
                    policy: *s.proxy.policy(),
                    response_times: s.response_times,
                    queue_delays: s.queue_delays,
                    service_times: s.service_times,
                    boosted: s.boosted_flags,
                    trace: s.trace,
                    cycles_per_access_default: cpa_d,
                    cycles_per_access_boosted: cpa_b,
                    effective_allocation: ea,
                    base_service_default,
                    cos_switches: s.proxy.switch_count(),
                    expected_service: s.spec.mean_service_time,
                }
            })
            .collect();
        metrics.experiments.inc();
        let elapsed = timer.stop();
        stca_obs::debug!(
            "experiment done in {elapsed:.3}s: {} workloads x {} measured queries",
            spec.condition.workloads.len(),
            spec.measured_queries
        );
        ExperimentOutcome {
            workloads: outcomes,
        }
    }

    fn step_station(s: &mut Station, hier: &mut Hierarchy, quantum: u64) {
        // 1. generate arrivals up to the station frontier
        while s.next_arrival <= s.station_time {
            let id = s.next_id;
            s.next_id += 1;
            s.fifo.push_back((id, s.next_arrival));
            let gap = s.inter_arrival.sample(&mut s.rng).max(1e-12);
            s.next_arrival += gap;
        }
        // 2. start queued queries on free servers; each runs on its own
        //    server timeline (start = max(arrival, server-free time))
        while s.active.len() < s.servers && !s.fifo.is_empty() {
            let (id, arrival) = s.fifo.pop_front().expect("nonempty");
            // take the earliest-free server
            let (si, _) = s
                .free_servers
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))
                .expect("free server exists");
            let sf = s.free_servers.swap_remove(si);
            let start = arrival.max(sf);
            let remaining = s.demand_accesses();
            s.active.push(ActiveQuery {
                id,
                arrival,
                start,
                now: start,
                remaining,
                service_accum: 0.0,
                was_boosted: false,
            });
        }
        // 3. idle jump: nothing to run, advance to the next arrival
        if s.active.is_empty() {
            s.station_time = s.station_time.max(s.next_arrival);
            return;
        }
        // 4. timeout checks (queued queries count: time in system includes
        //    queueing, which is how a query can start service pre-boosted)
        let station_time = s.station_time;
        for &(id, arrival) in s.fifo.iter() {
            s.proxy.check(id, arrival, station_time);
        }
        for q in &s.active {
            s.proxy.check(q.id, q.arrival, q.now);
        }
        // 5. install the proxy's current setting
        let setting = s.proxy.current_setting();
        let boost_active = s.proxy.boost_active();
        if s.mask_installed_boosted != Some(boost_active) {
            hier.set_llc_mask(
                s.wid,
                setting
                    .to_cbm(hier.config().llc.ways)
                    .expect("layout validated at construction"),
            );
            s.mask_installed_boosted = Some(boost_active);
        }
        // 6. execute one quantum per active query (servers run concurrently,
        //    each on its own timeline)
        for qi in 0..s.active.len() {
            let n = quantum.min(s.active[qi].remaining);
            if n == 0 {
                continue;
            }
            let cycles = run_accesses(hier, s.wid, &mut s.gen, &mut s.rng, &s.spec, n);
            let elapsed = cycles as f64 * s.sec_per_cycle;
            let q = &mut s.active[qi];
            q.remaining -= n;
            q.service_accum += elapsed;
            q.now += elapsed;
            if boost_active {
                q.was_boosted = true;
                s.boosted_cycles += cycles;
                s.boosted_accesses += n;
            } else {
                s.default_cycles += cycles;
                s.default_accesses += n;
            }
        }
        // 7. completions: the query's own timeline is its completion time
        let warmup = s.warmup;
        let target = s.target;
        let mut finished: Vec<ActiveQuery> = Vec::new();
        s.active.retain(|q| {
            if q.remaining == 0 {
                finished.push(q.clone());
                false
            } else {
                true
            }
        });
        let mut frontier = s.station_time;
        for q in &s.active {
            frontier = frontier.max(q.now);
        }
        for q in finished {
            s.proxy.complete(q.id);
            s.free_servers.push(q.now);
            frontier = frontier.max(q.now);
            s.completed_total += 1;
            if s.completed_total > warmup && s.response_times.len() < target {
                s.response_times.push(q.now - q.arrival);
                s.queue_delays.push(q.start - q.arrival);
                s.service_times.push(q.service_accum);
                s.boosted_flags.push(q.was_boosted);
            }
        }
        s.station_time = frontier;
        // 8. counter-trace sampling at window boundaries
        while s.trace.len() < s.windows && s.completed_total >= (s.trace.len() + 1) * s.window_size
        {
            hier.update_gauges(s.wid, boost_active);
            let now = hier.counters_of(s.wid);
            let mut delta = now.delta(&s.last_snap);
            // gauges are levels, not deltas
            delta.set(
                Counter::LlcOccupancyLines,
                now.get(Counter::LlcOccupancyLines),
            );
            delta.set(Counter::BoostActive, now.get(Counter::BoostActive));
            s.trace.push(delta);
            s.last_snap = now;
        }
    }
}

/// One-shot checked experiment: validate the spec, then run it under the
/// fault plan and retry policy. [`profile_each`] runs every profiled
/// condition through it.
pub fn run_experiment_checked(
    spec: ExperimentSpec,
    plan: &FaultPlan,
    retry: &RetryPolicy,
) -> Result<ExperimentOutcome, StcaError> {
    TestEnvironment::try_new(spec)?.run_with_retry(plan, retry)
}

/// The profiling loop: run the experiment `spec_of(i, condition)`
/// describes for every condition, in parallel, under `plan` and `retry`,
/// and turn each station into a [`ProfileRow`]. Rows that fail
/// [`ProfileRow::validate`] are dropped (`fault.rows_rejected_total`).
///
/// Returns one result per condition, in input order, bit-identical at any
/// thread count. `Err` holds why the condition failed (retries exhausted,
/// invalid spec, panic) and ticks `fault.conditions_failed_total`; the
/// caller decides whether to skip it or abort.
///
/// With `checkpoint = Some((path, meta))`, each condition, failed ones
/// included, is saved under `cond.{i}` as soon as it finishes
/// ([`resumable_map`]), and a re-run resumes it instead of running it
/// again; a recorded failure stays failed (same plan, same faults). `meta`
/// must key every input of the run: the conditions, `spec_of`, the plan and
/// the retry budget. A condition's rows are stored in the profile store's
/// line format.
pub fn profile_each(
    conditions: &[RuntimeCondition],
    spec_of: impl Fn(usize, &RuntimeCondition) -> ExperimentSpec + Sync,
    ordering: CounterOrdering,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    checkpoint: Option<(&Path, &str)>,
) -> Result<Vec<Result<Vec<ProfileRow>, String>>, StcaError> {
    let n = conditions.len();
    resumable_map(
        conditions,
        checkpoint,
        "cond",
        |result| {
            Value::String(match result {
                Ok(rows) => storage::to_string(&ProfileSet { rows: rows.clone() }),
                Err(reason) => format!("failed: {reason}"),
            })
        },
        |value| match value {
            Value::String(s) => match s.strip_prefix("failed: ") {
                Some(reason) => Some(Err(reason.to_string())),
                None => storage::from_string(s).ok().map(|set| Ok(set.rows)),
            },
            _ => None,
        },
        |i, condition| {
            let caught = stca_exec::run_caught(|| -> Result<Vec<ProfileRow>, String> {
                let list = |field: fn(&WorkloadCondition) -> f64| {
                    let v: Vec<String> = condition
                        .workloads
                        .iter()
                        .map(|w| format!("{:.2}", field(w)))
                        .collect();
                    v.join(",")
                };
                stca_obs::info!(
                    "[{}/{n}] util=({}) T=({})",
                    i + 1,
                    list(|w| w.utilization),
                    list(|w| w.timeout_ratio)
                );
                run_experiment_checked(spec_of(i, condition), plan, retry)
                    .map(|out| {
                        out.workloads
                            .iter()
                            .enumerate()
                            .map(|(j, w)| ProfileRow::from_outcome(condition, j, w, ordering))
                            .collect()
                    })
                    .map_err(|e| e.to_string())
            });
            let mut result = caught.unwrap_or_else(|panic| Err(format!("panicked: {panic}")));
            match &mut result {
                Ok(rows) => rows.retain(|row| match row.validate() {
                    Ok(()) => true,
                    Err(reason) => {
                        stca_fault::sanitize::reject_row(&format!("condition {i}"), &reason);
                        false
                    }
                }),
                Err(reason) => {
                    stca_obs::counter("fault.conditions_failed_total").inc();
                    stca_obs::warn!("condition {i} failed: {reason}");
                }
            }
            result
        },
    )
}

/// Run `n` of a query's data accesses through `hier`, each followed
/// with probability `ifetch_per_access` by an instruction fetch, then
/// retire their instructions (as many base cycles as instructions).
/// Returns the cycles charged. Calibration and the experiment loop both
/// drive their queries through it, so both draw in the same order.
fn run_accesses(
    hier: &mut Hierarchy,
    w: WorkloadId,
    gen: &mut AccessGenerator,
    rng: &mut Rng64,
    spec: &WorkloadSpec,
    n: u64,
) -> u64 {
    let before = hier.counters_of(w).get(Counter::Cycles);
    for _ in 0..n {
        let (a, k) = gen.next_access();
        hier.access(w, a, k);
        if rng.next_bool(spec.ifetch_per_access) {
            let (ai, ki) = gen.next_ifetch();
            hier.access(w, ai, ki);
        }
    }
    let instructions = n * spec.instructions_per_access;
    hier.retire(w, instructions, instructions);
    hier.counters_of(w).get(Counter::Cycles) - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use stca_workloads::BenchmarkId;

    fn quick(a: BenchmarkId, b: BenchmarkId, ta: f64, tb: f64, seed: u64) -> ExperimentOutcome {
        let cond = RuntimeCondition::pair(a, 0.7, ta, b, 0.7, tb);
        TestEnvironment::new(ExperimentSpec::quick(cond, seed)).run()
    }

    #[test]
    fn produces_measured_queries_for_both_workloads() {
        let out = quick(BenchmarkId::Knn, BenchmarkId::Bfs, 1.0, 1.0, 1);
        assert_eq!(out.workloads.len(), 2);
        for w in &out.workloads {
            assert_eq!(w.response_times.len(), 60);
            assert_eq!(w.trace.len(), 20);
            assert!(w.mean_response() > 0.0);
            assert!(w.mean_service() > 0.0);
            // response >= service (queueing can only add)
            assert!(w.mean_response() >= w.mean_service() * 0.99);
        }
    }

    #[test]
    fn calibration_brings_service_time_near_spec() {
        // low utilization + never-boost: realized mean service should sit
        // near the Table-1 baseline (contention still perturbs it some)
        let cond =
            RuntimeCondition::pair(BenchmarkId::Knn, 0.3, 6.0, BenchmarkId::Kmeans, 0.3, 6.0);
        let out = TestEnvironment::new(ExperimentSpec::quick(cond, 2)).run();
        let knn = &out.workloads[0];
        let expected = knn.expected_service;
        let realized = knn.mean_service();
        assert!(
            (realized - expected).abs() / expected < 0.5,
            "calibrated service time {realized} vs spec {expected}"
        );
    }

    #[test]
    fn zero_timeout_boosts_most_queries() {
        let out = quick(BenchmarkId::Redis, BenchmarkId::Social, 0.0, 6.0, 3);
        let redis = &out.workloads[0];
        assert!(
            redis.boost_fraction() > 0.9,
            "T=0 boosts everything, got {}",
            redis.boost_fraction()
        );
        let social = &out.workloads[1];
        assert_eq!(social.boost_fraction(), 0.0, "T=600% never boosts");
        assert!(redis.cos_switches > 0);
        assert_eq!(social.cos_switches, 0);
    }

    #[test]
    fn effective_allocation_in_sane_range() {
        let out = quick(BenchmarkId::Kmeans, BenchmarkId::Bfs, 0.5, 0.5, 4);
        for w in &out.workloads {
            assert!(
                w.effective_allocation > 0.1 && w.effective_allocation < 1.5,
                "{}: EA {}",
                w.benchmark,
                w.effective_allocation
            );
        }
    }

    #[test]
    fn boost_speeds_up_cache_sensitive_workload() {
        // kmeans has a hot set larger than its 2 private (scaled) ways;
        // cycles-per-access while always-boosted (T=0) should not exceed
        // cycles-per-access when never boosted (T=600%)
        let never = quick(BenchmarkId::Kmeans, BenchmarkId::Knn, 6.0, 6.0, 5);
        let always = quick(BenchmarkId::Kmeans, BenchmarkId::Knn, 0.0, 6.0, 5);
        let cpa_default = never.workloads[0].cycles_per_access_default;
        let cpa_boosted = always.workloads[0].cycles_per_access_boosted;
        assert!(cpa_default > 0.0 && cpa_boosted > 0.0);
        assert!(
            cpa_boosted < cpa_default * 1.05,
            "boost should not slow a solo booster: {cpa_boosted} vs {cpa_default}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(BenchmarkId::Jacobi, BenchmarkId::Bfs, 1.0, 2.0, 9);
        let b = quick(BenchmarkId::Jacobi, BenchmarkId::Bfs, 1.0, 2.0, 9);
        assert_eq!(a.workloads[0].response_times, b.workloads[0].response_times);
        assert_eq!(a.workloads[1].service_times, b.workloads[1].service_times);
    }

    #[test]
    fn baseline_run_never_boosts() {
        let cond =
            RuntimeCondition::pair(BenchmarkId::Redis, 0.8, 0.5, BenchmarkId::Social, 0.8, 0.5);
        let out = TestEnvironment::new(ExperimentSpec::quick(cond, 6)).run_baseline();
        for w in &out.workloads {
            assert_eq!(w.boost_fraction(), 0.0);
            assert_eq!(w.cos_switches, 0);
        }
    }

    #[test]
    fn trace_rows_contain_activity() {
        let out = quick(BenchmarkId::Bfs, BenchmarkId::Spstream, 1.0, 1.0, 7);
        let w = &out.workloads[0];
        let active_rows = w
            .trace
            .iter()
            .filter(|c| c.get(Counter::LlcAccesses) > 0)
            .count();
        assert!(
            active_rows >= 10,
            "most windows show LLC traffic, got {active_rows}"
        );
    }

    #[test]
    fn slower_sampling_yields_fewer_informative_windows() {
        // Table 2's sampling knob: at 5s the trace has at most 8 informative
        // windows (40 sampling-seconds / 5), the rest zero-padded; at 2s
        // it fills the full 20-column matrix
        let run_with_period = |period: f64| {
            let mut cond =
                RuntimeCondition::pair(BenchmarkId::Knn, 0.7, 6.0, BenchmarkId::Bfs, 0.7, 6.0);
            cond.sample_period = period;
            let out = TestEnvironment::new(ExperimentSpec::quick(cond, 31)).run();
            out.workloads[0]
                .trace
                .iter()
                .filter(|c| c.get(Counter::LlcAccesses) > 0)
                .count()
        };
        let fast = run_with_period(2.0);
        let slow = run_with_period(5.0);
        assert!(
            slow <= 8,
            "5s sampling caps informative windows, got {slow}"
        );
        assert!(
            fast > slow,
            "2s sampling fills more windows: {fast} vs {slow}"
        );
    }

    #[test]
    fn queue_delay_nonnegative_and_bounded_by_response() {
        let out = quick(BenchmarkId::Social, BenchmarkId::Redis, 1.0, 1.0, 17);
        for w in &out.workloads {
            for ((r, s), d) in w
                .response_times
                .iter()
                .zip(&w.service_times)
                .zip(&w.queue_delays)
            {
                assert!(*d >= 0.0);
                assert!(r + 1e-9 >= d + s, "response {r} >= delay {d} + service {s}");
            }
        }
    }

    #[test]
    fn try_new_rejects_invalid_specs() {
        let cond = RuntimeCondition::pair(BenchmarkId::Knn, 0.7, 1.0, BenchmarkId::Bfs, 0.7, 1.0);
        let mut spec = ExperimentSpec::quick(cond, 1);
        spec.condition.workloads.truncate(1);
        assert!(matches!(
            TestEnvironment::try_new(spec.clone()),
            Err(StcaError::InvalidInput { .. })
        ));
        let cond = RuntimeCondition::pair(BenchmarkId::Knn, 0.7, 1.0, BenchmarkId::Bfs, 0.7, 1.0);
        let mut spec = ExperimentSpec::quick(cond, 1);
        spec.layout = ExperimentLayout::pair_symmetric(64, 64);
        assert!(matches!(
            TestEnvironment::try_new(spec),
            Err(StcaError::InvalidInput { .. })
        ));
    }

    #[test]
    fn checked_run_without_faults_matches_unchecked() {
        let cond = RuntimeCondition::pair(BenchmarkId::Knn, 0.7, 1.0, BenchmarkId::Bfs, 0.7, 1.0);
        let spec = ExperimentSpec::quick(cond, 11);
        let plain = TestEnvironment::new(spec.clone()).run();
        let checked = run_experiment_checked(spec, &FaultPlan::none(), &RetryPolicy::default())
            .expect("no faults injected");
        assert_eq!(
            plain.workloads[0].response_times,
            checked.workloads[0].response_times
        );
        assert_eq!(plain.workloads[1].trace, checked.workloads[1].trace);
    }

    #[test]
    fn certain_crash_exhausts_retries() {
        let cond = RuntimeCondition::pair(BenchmarkId::Knn, 0.7, 1.0, BenchmarkId::Bfs, 0.7, 1.0);
        let spec = ExperimentSpec::quick(cond, 12);
        let mut plan = FaultPlan::none();
        plan.seed = 7;
        plan.crash_prob = 1.0;
        let err = run_experiment_checked(spec, &plan, &RetryPolicy::with_max_retries(2))
            .expect_err("every attempt crashes");
        match err {
            StcaError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, StcaError::InjectedCrash { .. }));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn retry_recovers_from_probabilistic_crashes() {
        // moderate crash probability: with enough retries some seed recovers
        let cond = RuntimeCondition::pair(BenchmarkId::Knn, 0.7, 1.0, BenchmarkId::Bfs, 0.7, 1.0);
        let spec = ExperimentSpec::quick(cond, 13);
        let mut plan = FaultPlan::none();
        plan.seed = 3;
        plan.crash_prob = 0.5;
        let out = run_experiment_checked(spec, &plan, &RetryPolicy::with_max_retries(16))
            .expect("recovers within 16 retries");
        assert_eq!(out.workloads.len(), 2);
        assert_eq!(out.workloads[0].response_times.len(), 60);
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let run_once = || {
            let cond =
                RuntimeCondition::pair(BenchmarkId::Knn, 0.7, 1.0, BenchmarkId::Bfs, 0.7, 1.0);
            let spec = ExperimentSpec::quick(cond, 21);
            run_experiment_checked(spec, &FaultPlan::ci_default(), &RetryPolicy::default())
                .expect("ci-default plan is survivable")
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.workloads[0].trace, b.workloads[0].trace);
        assert_eq!(a.workloads[1].trace, b.workloads[1].trace);
        assert_eq!(a.workloads[0].response_times, b.workloads[0].response_times);
    }

    #[test]
    fn profile_each_resumes_from_checkpoint_bit_identically() {
        let mut rng = Rng64::new(17);
        let conditions: Vec<RuntimeCondition> = (0..3)
            .map(|_| RuntimeCondition::random_pair(BenchmarkId::Knn, BenchmarkId::Bfs, &mut rng))
            .collect();
        // per condition: the `Err` text, or every row's bits
        let profile = |checkpoint: Option<&Path>| -> Vec<Result<Vec<u64>, String>> {
            let results = profile_each(
                &conditions,
                |i, c| ExperimentSpec::quick(c.clone(), 17 ^ ((i as u64) << 20)),
                CounterOrdering::Grouped,
                &FaultPlan::ci_default(),
                &RetryPolicy::default(),
                checkpoint.map(|path| (path, "test")),
            )
            .expect("checkpoint io");
            let bits = |rows: Vec<ProfileRow>| {
                let values = rows.iter().flat_map(|row| {
                    let trace = row.trace.as_slice().iter();
                    std::iter::once(&row.ea)
                        .chain(trace)
                        .chain(&row.static_features)
                });
                values.map(|x| x.to_bits()).collect()
            };
            results.into_iter().map(|r| r.map(bits)).collect()
        };
        let path =
            std::env::temp_dir().join(format!("stca-profile-each-{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        let uninterrupted = profile(None);
        assert_eq!(uninterrupted, profile(Some(&path)));

        // simulate a mid-run kill: keep only the first condition's entry
        let text = std::fs::read_to_string(&path).expect("checkpoint written");
        let mut doc = Value::parse(&text).expect("valid json");
        if let Value::Object(ref mut top) = doc {
            if let Some(Value::Object(entries)) = top.get_mut("entries") {
                entries.retain(|k, _| k == "cond.0");
                assert_eq!(entries.len(), 1);
            }
        }
        std::fs::write(&path, doc.to_string()).expect("write partial");
        assert_eq!(uninterrupted, profile(Some(&path)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn higher_utilization_raises_response_time() {
        let run_at = |util: f64, seed: u64| {
            let cond =
                RuntimeCondition::pair(BenchmarkId::Knn, util, 6.0, BenchmarkId::Bfs, 0.5, 6.0);
            TestEnvironment::new(ExperimentSpec::quick(cond, seed))
                .run()
                .workloads[0]
                .mean_response()
        };
        let low = run_at(0.3, 8);
        let high = run_at(0.9, 8);
        assert!(
            high > low,
            "queueing delay grows with utilization: {low} vs {high}"
        );
    }
}
