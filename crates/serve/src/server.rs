//! Serving-loop configuration, request accounting, and [`serve`]: the
//! serving driver of [`crate::fleet`] with one shard, projected onto
//! shard 0.
//!
//! ## Accounting invariant
//!
//! Every request offered to the loop ends in exactly one disposition:
//!
//! ```text
//! admitted = completed + shed_overload + shed_deadline + shed_failed + drained
//! ```
//!
//! [`Accounting::balanced`] checks it; the soak bench and the property
//! tests assert it after every run, faulted or not.

use crate::adapt::AdaptConfig;
use crate::breaker::BreakerConfig;
use crate::fleet::{serve_fleet, FleetConfig, FleetReport, ShardStats};
use crate::model::{EaModel, StationModel};
use crate::request::SyntheticStream;
use stca_fault::{FaultPlan, StcaError};
use stca_trace::{TraceConfig, TraceDump};

/// What the loop does when a request arrives to a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Shed the arriving request (default: protects queued work).
    ShedNewest,
    /// Shed the oldest queued request and admit the new one.
    ShedOldest,
    /// Admit anyway; the overflow is counted as blocked back-pressure.
    Block,
}

impl OverloadPolicy {
    /// Every policy, in [`OverloadPolicy::NAMES`] order.
    pub const ALL: [OverloadPolicy; 3] = [
        OverloadPolicy::ShedNewest,
        OverloadPolicy::ShedOldest,
        OverloadPolicy::Block,
    ];

    /// The CLI/spec token of each policy.
    pub const NAMES: [&'static str; 3] = ["shed-newest", "shed-oldest", "block"];

    /// The CLI token for this policy.
    pub fn name(&self) -> &'static str {
        Self::NAMES[*self as usize]
    }
}

/// Serving-loop configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Virtual control-loop workers executing predict/decide stages.
    pub servers: usize,
    /// Bounded admission queue capacity (waiting requests).
    pub queue_capacity: usize,
    /// What happens when the queue is full.
    pub overload: OverloadPolicy,
    /// Hysteresis threshold: consecutive agreeing decisions before a new
    /// timeout is applied.
    pub hysteresis_k: u32,
    /// Circuit breaker tunables for the primary predictor.
    pub breaker: BreakerConfig,
    /// Per-stage watchdog budget, virtual seconds.
    pub watchdog_budget_s: f64,
    /// Drain grace after the last arrival, virtual seconds: queued work
    /// that cannot start within the grace is dropped as drained.
    pub drain_grace_s: f64,
    /// Base virtual cost of the predict stage, seconds.
    pub predict_cost_s: f64,
    /// Base virtual cost of the decide stage, seconds.
    pub decide_cost_s: f64,
    /// The station the STAP decision targets.
    pub station: StationModel,
    /// Event budget for the budgeted validation simulation run when a new
    /// policy is applied; 0 disables validation sims.
    pub sim_budget_events: u64,
    /// Requests per parallel compute chunk.
    pub chunk: usize,
    /// Keep the full decision log in the report (the rolling hash is
    /// always computed; the log itself costs memory on big replays).
    pub keep_decision_log: bool,
    /// Per-request span tracing: `Some` enables the flight recorder.
    /// Tracing never perturbs decisions or virtual time — the decision
    /// hash is identical with tracing on or off.
    pub trace: Option<TraceConfig>,
    /// Drift-aware model lifecycle (disabled by default: the loop is
    /// byte-identical to the pre-adapt implementation when off).
    pub adapt: AdaptConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            servers: 2,
            queue_capacity: 64,
            overload: OverloadPolicy::ShedNewest,
            hysteresis_k: 4,
            breaker: BreakerConfig::default(),
            watchdog_budget_s: 0.25,
            drain_grace_s: 5.0,
            predict_cost_s: 0.004,
            decide_cost_s: 0.002,
            station: StationModel::default(),
            sim_budget_events: 4000,
            chunk: 4096,
            keep_decision_log: false,
            trace: None,
            adapt: AdaptConfig::default(),
        }
    }
}

impl ServeConfig {
    pub(crate) fn validate(&self) -> Result<(), StcaError> {
        if self.servers == 0 {
            return Err(StcaError::invalid_input("serve: servers must be >= 1"));
        }
        if self.chunk == 0 {
            return Err(StcaError::invalid_input("serve: chunk must be >= 1"));
        }
        for (name, v) in [
            ("watchdog_budget_s", self.watchdog_budget_s),
            ("drain_grace_s", self.drain_grace_s),
            ("predict_cost_s", self.predict_cost_s),
            ("decide_cost_s", self.decide_cost_s),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(StcaError::invalid_input(format!(
                    "serve: {name} = {v} must be finite and >= 0"
                )));
            }
        }
        if self.watchdog_budget_s < self.predict_cost_s.max(self.decide_cost_s) {
            return Err(StcaError::invalid_input(
                "serve: watchdog budget below base stage cost would kill every stage",
            ));
        }
        if !(0.0..1.0).contains(&self.station.utilization) {
            return Err(StcaError::invalid_input(
                "serve: station utilization must be in [0, 1)",
            ));
        }
        self.adapt.validate()?;
        Ok(())
    }
}

/// Exact request accounting for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Requests offered to the loop (every generated arrival).
    pub admitted: u64,
    /// Requests that produced a decision (possibly past deadline).
    pub completed: u64,
    /// Requests shed by the overload policy at admission.
    pub shed_overload: u64,
    /// Requests shed because the deadline budget ran out before or
    /// during service.
    pub shed_deadline: u64,
    /// Requests shed because a stage stayed stuck after its retry.
    pub shed_failed: u64,
    /// Requests dropped at drain because they could not start within the
    /// grace period.
    pub drained: u64,
    /// Overflow admissions under [`OverloadPolicy::Block`] (informational;
    /// these requests are still in `admitted` and end in a disposition).
    pub blocked: u64,
    /// Completed requests whose response exceeded the deadline.
    pub deadline_exceeded: u64,
}

impl Accounting {
    /// Total shed, all causes.
    pub fn shed(&self) -> u64 {
        self.shed_overload + self.shed_deadline + self.shed_failed
    }

    /// The invariant: every offered request has exactly one disposition.
    pub fn balanced(&self) -> bool {
        self.admitted == self.completed + self.shed() + self.drained
    }
}

/// Everything one [`serve`] run produced: shard 0's summary plus the
/// run-level outputs. Derefs to the [`ShardStats`], so
/// `report.accounting`, `report.p99_response_s` and the other shard
/// counters read directly.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The lone shard's summary.
    pub shard: ShardStats,
    /// Rolling FNV-1a hash over every decision-log entry.
    pub decision_hash: u64,
    /// Full decision log (empty unless `keep_decision_log`).
    pub decision_log: Vec<String>,
    /// Virtual time when the drain finished.
    pub virtual_end_s: f64,
    /// Flight-recorder dump (`Some` when tracing was enabled).
    pub trace_dump: Option<TraceDump>,
}

impl std::ops::Deref for ServeReport {
    type Target = ShardStats;

    fn deref(&self) -> &ShardStats {
        &self.shard
    }
}

/// Run the serving loop over `n_requests` replayed arrivals: the serving
/// driver with one shard.
///
/// Deterministic: with the same config, stream, plan, and model, the
/// decision hash and report are bit-identical at any thread count.
pub fn serve(
    cfg: &ServeConfig,
    model: &dyn EaModel,
    plan: &FaultPlan,
    stream: &SyntheticStream,
    n_requests: u64,
) -> Result<ServeReport, StcaError> {
    let one = FleetConfig {
        base: cfg.clone(),
        shards: 1,
        ..FleetConfig::default()
    };
    let FleetReport {
        mut shards,
        decision_hash,
        decision_log,
        virtual_end_s,
        trace_dump,
        ..
    } = serve_fleet(&one, model, plan, stream, n_requests)?;
    Ok(ServeReport {
        shard: shards.pop().expect("a one-shard run reports one shard"),
        decision_hash,
        decision_log,
        virtual_end_s,
        trace_dump,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticEa;

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            servers: 2,
            queue_capacity: 8,
            sim_budget_events: 500,
            keep_decision_log: true,
            ..ServeConfig::default()
        }
    }

    fn stream(rate: f64, deadline: f64) -> SyntheticStream {
        SyntheticStream {
            seed: 7,
            rate,
            deadline_s: deadline,
            n_features: 4,
        }
    }

    fn run(cfg: &ServeConfig, plan: &FaultPlan, rate: f64, deadline: f64, n: u64) -> ServeReport {
        serve(
            cfg,
            &AnalyticEa::default(),
            plan,
            &stream(rate, deadline),
            n,
        )
        .expect("serve runs")
    }

    #[test]
    fn accounting_balances_under_light_load() {
        let r = run(&small_cfg(), &FaultPlan::none(), 50.0, 1.0, 2_000);
        assert!(r.accounting.balanced(), "{:?}", r.accounting);
        assert_eq!(r.accounting.admitted, 2_000);
        assert!(r.accounting.completed > 1_900, "{:?}", r.accounting);
        assert_eq!(r.degraded, 0);
        assert_eq!(r.breaker_opens, 0);
    }

    #[test]
    fn overload_sheds_and_still_balances() {
        // 2 servers x ~6ms of work per request supports ~330 req/s;
        // offer 3x that
        let r = run(&small_cfg(), &FaultPlan::none(), 1000.0, 1.0, 5_000);
        assert!(r.accounting.balanced(), "{:?}", r.accounting);
        assert!(r.accounting.shed_overload > 0, "{:?}", r.accounting);
        let log_entries = r.decision_log.len() as u64;
        assert_eq!(
            log_entries,
            r.accounting.completed + r.accounting.shed() + r.accounting.drained,
            "every disposition is logged exactly once"
        );
    }

    #[test]
    fn shed_oldest_keeps_fresh_work() {
        let cfg = ServeConfig {
            overload: OverloadPolicy::ShedOldest,
            ..small_cfg()
        };
        let r = run(&cfg, &FaultPlan::none(), 1000.0, 1.0, 5_000);
        assert!(r.accounting.balanced(), "{:?}", r.accounting);
        assert!(r.accounting.shed_overload > 0);
    }

    #[test]
    fn block_policy_admits_overflow() {
        let cfg = ServeConfig {
            overload: OverloadPolicy::Block,
            drain_grace_s: 1e9, // let the backlog finish
            ..small_cfg()
        };
        let r = run(&cfg, &FaultPlan::none(), 600.0, 1e9, 3_000);
        assert!(r.accounting.balanced(), "{:?}", r.accounting);
        assert_eq!(r.accounting.shed_overload, 0);
        assert!(r.accounting.blocked > 0);
        assert_eq!(
            r.accounting.completed + r.accounting.shed_deadline,
            3_000,
            "block policy never drops at admission: {:?}",
            r.accounting
        );
    }

    #[test]
    fn tight_deadlines_shed_instead_of_serving_stale_work() {
        let r = run(&small_cfg(), &FaultPlan::none(), 1000.0, 0.02, 3_000);
        assert!(r.accounting.balanced(), "{:?}", r.accounting);
        assert!(r.accounting.shed_deadline > 0, "{:?}", r.accounting);
    }

    #[test]
    fn injected_predictor_faults_trip_and_recover_the_breaker() {
        let plan = FaultPlan::parse("predict_fail=0.5,seed=3").expect("plan");
        let cfg = ServeConfig {
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown_s: 0.5,
                probe_fraction: 0.5,
                success_to_close: 2,
                seed: 11,
            },
            ..small_cfg()
        };
        let r = run(&cfg, &plan, 50.0, 1.0, 4_000);
        assert!(r.accounting.balanced(), "{:?}", r.accounting);
        assert!(r.breaker_opens > 0, "breaker must trip under 50% faults");
        assert!(r.breaker_closes > 0, "breaker must recover via probes");
        assert!(r.breaker_rejects > 0, "open periods short-circuit calls");
        assert!(r.degraded > 0);
    }

    #[test]
    fn stalls_trip_the_watchdog_and_fail_double_stalls() {
        let plan = FaultPlan::parse("stall=0.3,latency=0.2,seed=5").expect("plan");
        let r = run(&small_cfg(), &plan, 20.0, 10.0, 2_000);
        assert!(r.accounting.balanced(), "{:?}", r.accounting);
        assert!(r.watchdog_trips > 0);
        assert!(r.retries > 0);
        assert!(
            r.accounting.shed_failed > 0,
            "0.09% double-stall rate over 2000 requests: {:?}",
            r.accounting
        );
    }

    #[test]
    fn heavy_plan_end_to_end_still_balances() {
        let r = run(&small_cfg(), &FaultPlan::heavy(), 200.0, 0.5, 5_000);
        assert!(r.accounting.balanced(), "{:?}", r.accounting);
        assert!(r.degraded > 0);
    }

    #[test]
    fn report_is_bit_identical_across_runs() {
        let plan = FaultPlan::heavy();
        let a = run(&small_cfg(), &plan, 200.0, 0.5, 3_000);
        let b = run(&small_cfg(), &plan, 200.0, 0.5, 3_000);
        assert_eq!(a.decision_hash, b.decision_hash);
        assert_eq!(a.accounting, b.accounting);
        assert_eq!(a.p99_response_s.to_bits(), b.p99_response_s.to_bits());
        assert_eq!(a.decision_log, b.decision_log);
    }

    #[test]
    fn hysteresis_suppresses_flapping_decisions() {
        let low_k = ServeConfig {
            hysteresis_k: 1,
            ..small_cfg()
        };
        let high_k = ServeConfig {
            hysteresis_k: 64,
            ..small_cfg()
        };
        let a = run(&low_k, &FaultPlan::none(), 50.0, 1.0, 2_000);
        let b = run(&high_k, &FaultPlan::none(), 50.0, 1.0, 2_000);
        assert!(
            b.policy_applies < a.policy_applies,
            "k=64 ({}) must flap less than k=1 ({})",
            b.policy_applies,
            a.policy_applies
        );
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let model = AnalyticEa::default();
        let plan = FaultPlan::none();
        let s = stream(10.0, 1.0);
        let bad = ServeConfig {
            servers: 0,
            ..ServeConfig::default()
        };
        assert!(serve(&bad, &model, &plan, &s, 10).is_err());
        let bad = ServeConfig {
            watchdog_budget_s: 0.0001,
            ..ServeConfig::default()
        };
        assert!(serve(&bad, &model, &plan, &s, 10).is_err());
        let bad_stream = SyntheticStream {
            rate: f64::NAN,
            ..s.clone()
        };
        assert!(serve(&ServeConfig::default(), &model, &plan, &bad_stream, 10).is_err());
    }

    /// Regression: a deadline below the predict-stage cost sheds every
    /// request in predict, so no response is ever recorded; the report
    /// must still balance with zero percentiles instead of panicking.
    #[test]
    fn deadline_below_predict_cost_completes_nothing_and_balances() {
        let cfg = small_cfg();
        let deadline = cfg.predict_cost_s / 4.0;
        let r = run(&cfg, &FaultPlan::none(), 200.0, deadline, 200);
        assert!(r.accounting.balanced(), "{:?}", r.accounting);
        assert_eq!(r.accounting.admitted, 200);
        assert_eq!(r.accounting.completed, 0, "{:?}", r.accounting);
        assert_eq!(r.accounting.shed_deadline, 200, "{:?}", r.accounting);
        assert_eq!(r.mean_response_s, 0.0);
        assert_eq!(r.p50_response_s, 0.0);
        assert_eq!(r.p99_response_s, 0.0);
    }
}
