//! The fault plan: a seeded, declarative description of what goes wrong.
//!
//! A [`FaultPlan`] holds per-fault probabilities plus its own seed; a
//! [`FaultInjector`] is the plan specialised to one experiment attempt
//! (`plan.injector(run_key, attempt)`). Every decision the injector makes
//! is a pure function of `(plan seed, run key, attempt, sample tag)` via
//! tagged [`SeedStream`]s — no shared mutable RNG — so the same plan
//! produces bit-identical faults whether the run executes on 1 worker or 8,
//! and each retry attempt re-rolls independently.

use crate::error::StcaError;
use crate::sanitize::COUNTER_PLAUSIBLE_MAX;
use stca_util::{Bound, Rng64, SeedStream, SpecError, SpecErrorKind, SpecLocation};
use std::sync::{Arc, OnceLock};

// Tag space for the per-attempt stream; unique within one injector.
const TAG_CRASH: u64 = 0x11;
const TAG_TIMEOUT: u64 = 0x22;
const TAG_LATENCY: u64 = 0x33;
const TAG_SAMPLE: u64 = 0x44;
const TAG_NOISE: u64 = 0x55;
const TAG_CORRUPT: u64 = 0x66;
const TAG_PREDICT: u64 = 0x77;
const TAG_STALL: u64 = 0x88;

// Tag space for shard-scoped fleet faults. These are rolled on the *plan*
// (not a per-attempt injector) keyed `(plan seed, shard id, epoch)`, so a
// faulted fleet is bit-identical at any `--threads` and independent of
// request interleaving.
const TAG_SHARD_CRASH: u64 = 0x99;
const TAG_SHARD_STALL: u64 = 0xAA;
const TAG_SHARD_FLAP: u64 = 0xBB;

// Tag space for model-lifecycle faults (crates/serve adapt loop). Rolled
// per `(plan seed, shard id, epoch)` exactly like the shard faults above,
// so every lifecycle failure mode replays bit-identically at any
// `--threads`.
const TAG_DRIFT_BURST: u64 = 0xCC;
const TAG_RETRAIN_FAIL: u64 = 0xDD;
const TAG_RETRAIN_SLOW: u64 = 0xEE;
const TAG_PROMOTE_CORRUPT: u64 = 0xFF;

/// Injection-side metric handles, resolved once.
struct InjectMetrics {
    crashes: Arc<stca_obs::Counter>,
    timeouts: Arc<stca_obs::Counter>,
    drops: Arc<stca_obs::Counter>,
    corruptions: Arc<stca_obs::Counter>,
    stucks: Arc<stca_obs::Counter>,
    predict_failures: Arc<stca_obs::Counter>,
    stalls: Arc<stca_obs::Counter>,
    latency_s: Arc<stca_obs::Histogram>,
    shard_crashes: Arc<stca_obs::Counter>,
    shard_stalls: Arc<stca_obs::Counter>,
    shard_flaps: Arc<stca_obs::Counter>,
    drift_bursts: Arc<stca_obs::Counter>,
    retrain_failures: Arc<stca_obs::Counter>,
    retrain_slows: Arc<stca_obs::Counter>,
    promote_corruptions: Arc<stca_obs::Counter>,
}

fn inject_metrics() -> &'static InjectMetrics {
    static METRICS: OnceLock<InjectMetrics> = OnceLock::new();
    METRICS.get_or_init(|| InjectMetrics {
        crashes: stca_obs::counter("fault.injected_crashes_total"),
        timeouts: stca_obs::counter("fault.injected_timeouts_total"),
        drops: stca_obs::counter("fault.injected_sample_drops_total"),
        corruptions: stca_obs::counter("fault.injected_sample_corruptions_total"),
        stucks: stca_obs::counter("fault.injected_sample_stucks_total"),
        predict_failures: stca_obs::counter("fault.injected_predict_failures_total"),
        stalls: stca_obs::counter("fault.injected_stalls_total"),
        latency_s: stca_obs::histogram("fault.injected_latency_seconds"),
        shard_crashes: stca_obs::counter("fault.injected_shard_crashes_total"),
        shard_stalls: stca_obs::counter("fault.injected_shard_stalls_total"),
        shard_flaps: stca_obs::counter("fault.injected_shard_flaps_total"),
        drift_bursts: stca_obs::counter("fault.injected_drift_bursts_total"),
        retrain_failures: stca_obs::counter("fault.injected_retrain_failures_total"),
        retrain_slows: stca_obs::counter("fault.injected_retrain_slows_total"),
        promote_corruptions: stca_obs::counter("fault.injected_promote_corruptions_total"),
    })
}

/// What the plan does to one counter sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleFault {
    /// Sample is delivered intact (measurement noise may still apply).
    None,
    /// Sample was dropped by the collector: the row is lost.
    Drop,
    /// Collector returned garbage: counters become implausible values.
    Corrupt,
    /// Sensor is stuck: the previous row is reported again.
    Stuck,
}

/// A deterministic description of fault rates for a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed for every injection decision.
    pub seed: u64,
    /// Probability an experiment attempt crashes outright.
    pub crash_prob: f64,
    /// Probability an experiment attempt times out.
    pub timeout_prob: f64,
    /// Per-sample probability the collector drops the row.
    pub dropout_prob: f64,
    /// Per-sample probability the collector returns garbage counters.
    pub corrupt_prob: f64,
    /// Per-sample probability the sensor repeats the previous row.
    pub stuck_prob: f64,
    /// Relative std-dev of multiplicative measurement noise (0 = clean).
    pub noise_rel: f64,
    /// Mean injected collection latency per attempt, virtual seconds.
    pub latency_mean_s: f64,
    /// Per-call probability the primary (deep-forest) predictor fails.
    pub predict_fail_prob: f64,
    /// Per-stage probability a pipeline stage stalls past its watchdog
    /// budget (the serving loop fails it into the retry path).
    pub stall_prob: f64,
    /// Per-(shard, epoch) probability a fleet shard crashes for the whole
    /// epoch: its queue is flushed to the router and it is unroutable
    /// until the next healthy epoch.
    pub shard_crash_prob: f64,
    /// Per-(shard, epoch) probability a fleet shard stalls: its servers
    /// are pushed forward in virtual time, so queues grow and deadlines
    /// shed, but it keeps accepting and draining work.
    pub shard_stall_prob: f64,
    /// Per-(shard, epoch) probability a fleet shard flaps: the router
    /// treats it as unhealthy for the epoch, but in-flight and queued
    /// work keeps draining on the shard.
    pub shard_flap_prob: f64,
    /// Per-(shard, epoch) probability the serving traffic's observed EA
    /// drifts for the epoch: the adapt loop sees residuals offset by a
    /// seeded burst magnitude, which is what trips the drift detector.
    pub drift_burst_prob: f64,
    /// Per-(shard, epoch) probability a triggered warm-start retrain
    /// errors out: the lifecycle abandons the candidate and re-arms.
    pub retrain_fail_prob: f64,
    /// Per-(shard, epoch) probability a triggered retrain overruns its
    /// virtual-time budget: the lifecycle treats it like a failure, so a
    /// slow trainer can never wedge a shard.
    pub retrain_slow_prob: f64,
    /// Per-(shard, epoch) probability a promoted candidate is corrupt
    /// (its predictions are offset after promotion): the guard band must
    /// catch it and roll back to the previous version.
    pub promote_corrupt_prob: f64,
}

impl FaultPlan {
    /// The no-fault plan: every probability zero. Checked code paths run
    /// byte-identically to the unchecked ones under this plan.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            crash_prob: 0.0,
            timeout_prob: 0.0,
            dropout_prob: 0.0,
            corrupt_prob: 0.0,
            stuck_prob: 0.0,
            noise_rel: 0.0,
            latency_mean_s: 0.0,
            predict_fail_prob: 0.0,
            stall_prob: 0.0,
            shard_crash_prob: 0.0,
            shard_stall_prob: 0.0,
            shard_flap_prob: 0.0,
            drift_burst_prob: 0.0,
            retrain_fail_prob: 0.0,
            retrain_slow_prob: 0.0,
            promote_corrupt_prob: 0.0,
        }
    }

    /// Mild preset used by the CI fault job: a few percent of everything.
    pub fn ci_default() -> Self {
        FaultPlan {
            seed: 0xC1DE,
            crash_prob: 0.05,
            timeout_prob: 0.02,
            dropout_prob: 0.05,
            corrupt_prob: 0.02,
            stuck_prob: 0.02,
            noise_rel: 0.01,
            latency_mean_s: 0.05,
            predict_fail_prob: 0.02,
            stall_prob: 0.01,
            shard_crash_prob: 0.05,
            shard_stall_prob: 0.05,
            shard_flap_prob: 0.05,
            drift_burst_prob: 0.05,
            retrain_fail_prob: 0.05,
            retrain_slow_prob: 0.05,
            promote_corrupt_prob: 0.05,
        }
    }

    /// Hostile preset: ≥10% run crashes, ≥5% sample dropout.
    pub fn heavy() -> Self {
        FaultPlan {
            seed: 0xFA11,
            crash_prob: 0.15,
            timeout_prob: 0.05,
            dropout_prob: 0.10,
            corrupt_prob: 0.05,
            stuck_prob: 0.05,
            noise_rel: 0.05,
            latency_mean_s: 0.2,
            predict_fail_prob: 0.2,
            stall_prob: 0.05,
            shard_crash_prob: 0.10,
            shard_stall_prob: 0.10,
            shard_flap_prob: 0.10,
            drift_burst_prob: 0.20,
            retrain_fail_prob: 0.10,
            retrain_slow_prob: 0.10,
            promote_corrupt_prob: 0.15,
        }
    }

    /// Whether any fault has non-zero probability: the plan differs from
    /// [`FaultPlan::none`] in something other than its seed.
    pub fn is_active(&self) -> bool {
        *self
            != FaultPlan {
                seed: self.seed,
                ..FaultPlan::none()
            }
    }

    /// The preset names `parse` accepts.
    pub const PRESETS: [&'static str; 3] = ["none", "ci-default", "heavy"];

    /// Parse a plan spec: a preset name (`none`, `ci-default`, `heavy`),
    /// `key=value` pairs, or a preset followed by overrides — all
    /// comma-separated. Keys: `seed`, `crash`, `timeout`, `dropout`,
    /// `corrupt`, `stuck`, `noise`, `latency`, `predict_fail`, `stall`,
    /// `shard_crash`, `shard_stall`, `shard_flap`, `drift_burst`,
    /// `retrain_fail`, `retrain_slow`, `promote_corrupt`.
    ///
    /// Failures name the offending key/value and list the valid keys; they
    /// surface as usage errors (exit 2).
    ///
    /// ```
    /// use stca_fault::FaultPlan;
    /// let plan = FaultPlan::parse("heavy,crash=0.3,seed=7").unwrap();
    /// assert_eq!(plan.crash_prob, 0.3);
    /// assert_eq!(plan.seed, 7);
    /// ```
    pub fn parse(spec: &str) -> Result<Self, StcaError> {
        Self::parse_spec(spec, "fault plan").map_err(StcaError::from)
    }

    /// [`FaultPlan::parse`] with a caller-supplied error context and the
    /// typed [`SpecError`] surface — the scenario parser embeds fault-plan
    /// fragments and reuses this to report them under its own file/line
    /// context.
    pub fn parse_spec(spec: &str, context: &str) -> Result<Self, SpecError> {
        let mut plan = FaultPlan::none();
        for (i, token) in spec.split(',').map(str::trim).enumerate() {
            if token.is_empty() {
                continue;
            }
            match token {
                "none" => plan = FaultPlan::none(),
                "ci-default" => plan = FaultPlan::ci_default(),
                "heavy" => plan = FaultPlan::heavy(),
                _ => {
                    let at = SpecLocation::Token(i);
                    let (key, value) = token.split_once('=').ok_or_else(|| {
                        SpecError::new(
                            context,
                            SpecErrorKind::Malformed {
                                token: token.to_string(),
                                expected: format!(
                                    "a preset ({}) or key=value (keys: {})",
                                    Self::PRESETS.join(", "),
                                    Self::KEYS.join(", ")
                                ),
                            },
                        )
                        .at(at)
                    })?;
                    plan.set(key, value)
                        .map_err(|e| SpecError::new(context, e).at(at))?;
                }
            }
        }
        Ok(plan)
    }

    /// Plan from the `STCA_FAULT_PLAN` environment variable; unset or empty
    /// means [`FaultPlan::none`].
    pub fn from_env() -> Result<Self, StcaError> {
        match std::env::var("STCA_FAULT_PLAN") {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec),
            _ => Ok(FaultPlan::none()),
        }
    }

    /// Specialise the plan to one experiment attempt. `run_key` should
    /// identify the experiment (its spec seed); `attempt` is the 0-based
    /// retry attempt, so each retry re-rolls every fault independently.
    pub fn injector(&self, run_key: u64, attempt: u32) -> FaultInjector {
        FaultInjector {
            plan: self.clone(),
            run_key,
            attempt,
            stream: SeedStream::new(self.seed)
                .derive(run_key)
                .derive(attempt as u64),
        }
    }

    /// Whether fleet shard `shard_id` crashes for virtual-time epoch
    /// `epoch`. Pure in `(plan seed, shard id, epoch)` — independent of the
    /// run key, retry attempt, and request interleaving — so sharded fleets
    /// fault bit-identically at any `--threads`. A `true` roll is counted
    /// in `fault.injected_shard_crashes_total`.
    pub fn shard_crash(&self, shard_id: u32, epoch: u64) -> bool {
        if self.shard_crash_prob <= 0.0 {
            return false;
        }
        let hit = self
            .shard_rng(TAG_SHARD_CRASH, shard_id, epoch)
            .next_bool(self.shard_crash_prob);
        if hit {
            inject_metrics().shard_crashes.inc();
        }
        hit
    }

    /// Whether fleet shard `shard_id` flaps for epoch `epoch`: the router
    /// must treat it as unhealthy, but queued work keeps draining. Same
    /// keying discipline as [`FaultPlan::shard_crash`].
    pub fn shard_flap(&self, shard_id: u32, epoch: u64) -> bool {
        if self.shard_flap_prob <= 0.0 {
            return false;
        }
        let hit = self
            .shard_rng(TAG_SHARD_FLAP, shard_id, epoch)
            .next_bool(self.shard_flap_prob);
        if hit {
            inject_metrics().shard_flaps.inc();
        }
        hit
    }

    /// Virtual seconds of injected stall for shard `shard_id` in epoch
    /// `epoch`, or `0.0` when the shard proceeds normally. A stalled shard
    /// loses 25–75% of the epoch (`epoch_s`) of server time, so its queue
    /// grows and deadline sheds follow. Same keying discipline as
    /// [`FaultPlan::shard_crash`].
    pub fn shard_stall_s(&self, shard_id: u32, epoch: u64, epoch_s: f64) -> f64 {
        if self.shard_stall_prob <= 0.0 {
            return 0.0;
        }
        let mut rng = self.shard_rng(TAG_SHARD_STALL, shard_id, epoch);
        if !rng.next_bool(self.shard_stall_prob) {
            return 0.0;
        }
        inject_metrics().shard_stalls.inc();
        epoch_s.max(0.0) * (0.25 + 0.5 * rng.next_f64())
    }

    /// Observed-EA drift offset for shard `shard_id` in epoch `epoch`, or
    /// `0.0` when the traffic is clean. A burst shifts every observed EA
    /// in the epoch by 0.6–1.5, which is what pushes residuals over the
    /// adapt loop's drift threshold. Same `(plan seed, shard id, epoch)`
    /// keying discipline as [`FaultPlan::shard_crash`]; the adapt loop
    /// rolls it once per epoch, never per request.
    pub fn drift_burst_offset(&self, shard_id: u32, epoch: u64) -> f64 {
        if self.drift_burst_prob <= 0.0 {
            return 0.0;
        }
        let mut rng = self.shard_rng(TAG_DRIFT_BURST, shard_id, epoch);
        if !rng.next_bool(self.drift_burst_prob) {
            return 0.0;
        }
        inject_metrics().drift_bursts.inc();
        0.6 + 0.9 * rng.next_f64()
    }

    /// Whether a retrain triggered on shard `shard_id` in epoch `epoch`
    /// errors out. Counted in `fault.injected_retrain_failures_total`.
    pub fn retrain_fail(&self, shard_id: u32, epoch: u64) -> bool {
        if self.retrain_fail_prob <= 0.0 {
            return false;
        }
        let hit = self
            .shard_rng(TAG_RETRAIN_FAIL, shard_id, epoch)
            .next_bool(self.retrain_fail_prob);
        if hit {
            inject_metrics().retrain_failures.inc();
        }
        hit
    }

    /// Virtual seconds a retrain triggered on shard `shard_id` in epoch
    /// `epoch` overruns its budget `budget_s`, or `0.0` when it finishes
    /// in time. A slow retrain overshoots by 1.5–4x the budget, so the
    /// lifecycle reliably classifies it as over budget and abandons the
    /// candidate.
    pub fn retrain_slow_s(&self, shard_id: u32, epoch: u64, budget_s: f64) -> f64 {
        if self.retrain_slow_prob <= 0.0 {
            return 0.0;
        }
        let mut rng = self.shard_rng(TAG_RETRAIN_SLOW, shard_id, epoch);
        if !rng.next_bool(self.retrain_slow_prob) {
            return 0.0;
        }
        inject_metrics().retrain_slows.inc();
        budget_s.max(0.1) * (1.5 + 2.5 * rng.next_f64())
    }

    /// Whether a candidate promoted on shard `shard_id` in epoch `epoch`
    /// is corrupt: its post-promotion predictions are offset, so the guard
    /// band must regress and roll back. Counted in
    /// `fault.injected_promote_corruptions_total`.
    pub fn promote_corrupt(&self, shard_id: u32, epoch: u64) -> bool {
        if self.promote_corrupt_prob <= 0.0 {
            return false;
        }
        let hit = self
            .shard_rng(TAG_PROMOTE_CORRUPT, shard_id, epoch)
            .next_bool(self.promote_corrupt_prob);
        if hit {
            inject_metrics().promote_corruptions.inc();
        }
        hit
    }

    fn shard_rng(&self, tag: u64, shard_id: u32, epoch: u64) -> Rng64 {
        SeedStream::new(self.seed)
            .derive(tag)
            .derive(shard_id as u64)
            .rng(epoch)
    }
}

/// Declares the `key=value` override keys, one row each:
/// `"key" => field: int|real(bound)`. [`FaultPlan::KEYS`],
/// [`FaultPlan::BOUNDS`], [`FaultPlan::set`] and [`FaultPlan::get`] are
/// generated from the rows, so adding a key is a field, its preset values
/// and one row.
macro_rules! overrides {
    ($($key:literal => $field:ident: $parse:ident($bound:expr),)*) => {
        impl FaultPlan {
            /// The `key=value` keys `parse` accepts, in documentation order.
            pub const KEYS: [&'static str; [$($key),*].len()] = [$($key),*];

            /// Each key's legal values, in [`FaultPlan::KEYS`] order.
            pub const BOUNDS: [Bound; Self::KEYS.len()] = [$($bound),*];

            /// Set one `key=value` override on the plan, validating range.
            /// The error carries no context — callers wrap it in a
            /// [`SpecError`] with their own location.
            pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecErrorKind> {
                match key {
                    $($key => self.$field = $bound.$parse(key, value)?,)*
                    _ => {
                        return Err(SpecErrorKind::UnknownKey {
                            key: key.to_string(),
                            valid: &Self::KEYS,
                        })
                    }
                }
                Ok(())
            }

            /// The canonical text of one override's value (floats in
            /// shortest round-trip form), or `None` for an unknown key.
            pub fn get(&self, key: &str) -> Option<String> {
                match key {
                    $($key => Some(self.$field.to_string()),)*
                    _ => None,
                }
            }
        }
    };
}

overrides! {
    "seed" => seed: int(Bound::Any),
    "crash" => crash_prob: real(Bound::Probability),
    "timeout" => timeout_prob: real(Bound::Probability),
    "dropout" => dropout_prob: real(Bound::Probability),
    "corrupt" => corrupt_prob: real(Bound::Probability),
    "stuck" => stuck_prob: real(Bound::Probability),
    "noise" => noise_rel: real(Bound::NonNegative),
    "latency" => latency_mean_s: real(Bound::NonNegative),
    "predict_fail" => predict_fail_prob: real(Bound::Probability),
    "stall" => stall_prob: real(Bound::Probability),
    "shard_crash" => shard_crash_prob: real(Bound::Probability),
    "shard_stall" => shard_stall_prob: real(Bound::Probability),
    "shard_flap" => shard_flap_prob: real(Bound::Probability),
    "drift_burst" => drift_burst_prob: real(Bound::Probability),
    "retrain_fail" => retrain_fail_prob: real(Bound::Probability),
    "retrain_slow" => retrain_slow_prob: real(Bound::Probability),
    "promote_corrupt" => promote_corrupt_prob: real(Bound::Probability),
}

/// A [`FaultPlan`] bound to one `(run, attempt)` pair.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    run_key: u64,
    attempt: u32,
    stream: SeedStream,
}

impl FaultInjector {
    /// The plan this injector was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether this injector can alter anything at all.
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Roll run-level faults: does this attempt crash or time out?
    pub fn attempt_outcome(&self) -> Result<(), StcaError> {
        if self.plan.crash_prob > 0.0 && self.stream.rng(TAG_CRASH).next_bool(self.plan.crash_prob)
        {
            inject_metrics().crashes.inc();
            return Err(StcaError::InjectedCrash {
                run_key: self.run_key,
                attempt: self.attempt,
            });
        }
        if self.plan.timeout_prob > 0.0 {
            let mut rng = self.stream.rng(TAG_TIMEOUT);
            if rng.next_bool(self.plan.timeout_prob) {
                inject_metrics().timeouts.inc();
                let budget = self.plan.latency_mean_s.max(0.1) * 100.0;
                return Err(StcaError::InjectedTimeout {
                    run_key: self.run_key,
                    attempt: self.attempt,
                    waited_s: budget * (0.5 + rng.next_f64()),
                });
            }
        }
        Ok(())
    }

    /// Virtual seconds of injected collection latency for this attempt
    /// (0 when the plan has none). Recorded to
    /// `fault.injected_latency_seconds`.
    pub fn injected_latency_s(&self) -> f64 {
        if self.plan.latency_mean_s <= 0.0 {
            return 0.0;
        }
        let s = self
            .stream
            .rng(TAG_LATENCY)
            .next_exp(1.0 / self.plan.latency_mean_s);
        inject_metrics().latency_s.record(s);
        s
    }

    /// Roll the fault affecting one sample. `tag` must uniquely identify
    /// the sample within the attempt (callers compose station and sample
    /// indices). A single uniform draw is split across the three fault
    /// kinds so their probabilities stay independent of roll order.
    pub fn sample_fault(&self, tag: u64) -> SampleFault {
        let p = &self.plan;
        if p.dropout_prob <= 0.0 && p.corrupt_prob <= 0.0 && p.stuck_prob <= 0.0 {
            return SampleFault::None;
        }
        let u = self.sample_rng(TAG_SAMPLE, tag).next_f64();
        if u < p.dropout_prob {
            inject_metrics().drops.inc();
            SampleFault::Drop
        } else if u < p.dropout_prob + p.corrupt_prob {
            inject_metrics().corruptions.inc();
            SampleFault::Corrupt
        } else if u < p.dropout_prob + p.corrupt_prob + p.stuck_prob {
            inject_metrics().stucks.inc();
            SampleFault::Stuck
        } else {
            SampleFault::None
        }
    }

    /// Garbage counter values for a corrupted sample: `n` values, each far
    /// above [`COUNTER_PLAUSIBLE_MAX`] so sanitization can detect them.
    pub fn corrupt_row(&self, tag: u64, n: usize) -> Vec<u64> {
        let mut rng = self.sample_rng(TAG_CORRUPT, tag);
        (0..n)
            .map(|_| COUNTER_PLAUSIBLE_MAX.wrapping_mul(4) | rng.next_u64())
            .collect()
    }

    /// Multiplicative noise factors for one sample's `n` counters
    /// (all `1.0` when the plan is noiseless).
    pub fn noise_factors(&self, tag: u64, n: usize) -> Vec<f64> {
        if self.plan.noise_rel <= 0.0 {
            return vec![1.0; n];
        }
        let mut rng = self.sample_rng(TAG_NOISE, tag);
        (0..n)
            .map(|_| (1.0 + self.plan.noise_rel * rng.next_gaussian()).max(0.0))
            .collect()
    }

    /// Whether the primary predictor fails for the call identified by
    /// `tag` (callers use the request sequence number). A `true` roll is
    /// counted in `fault.injected_predict_failures_total`; the serving
    /// layer is expected to fall through the degraded predictor chain.
    pub fn predict_fault(&self, tag: u64) -> bool {
        if self.plan.predict_fail_prob <= 0.0 {
            return false;
        }
        let hit = self
            .sample_rng(TAG_PREDICT, tag)
            .next_bool(self.plan.predict_fail_prob);
        if hit {
            inject_metrics().predict_failures.inc();
        }
        hit
    }

    /// Virtual seconds of injected stage stall for the stage identified by
    /// `tag`, or `0.0` when the stage proceeds normally. Stalled stages
    /// overshoot the watchdog budget by 2–12x its latency scale so the
    /// watchdog reliably classifies them as stuck.
    pub fn stage_stall_s(&self, tag: u64) -> f64 {
        if self.plan.stall_prob <= 0.0 {
            return 0.0;
        }
        let mut rng = self.sample_rng(TAG_STALL, tag);
        if !rng.next_bool(self.plan.stall_prob) {
            return 0.0;
        }
        inject_metrics().stalls.inc();
        let scale = self.plan.latency_mean_s.max(0.1);
        scale * (2.0 + 10.0 * rng.next_f64())
    }

    fn sample_rng(&self, component: u64, tag: u64) -> Rng64 {
        self.stream.derive(component).rng(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_presets_and_overrides() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("heavy").unwrap(), FaultPlan::heavy());
        let p = FaultPlan::parse("ci-default,crash=0.5,seed=99").unwrap();
        assert_eq!(p.crash_prob, 0.5);
        assert_eq!(p.seed, 99);
        assert_eq!(p.dropout_prob, FaultPlan::ci_default().dropout_prob);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("crash=two").is_err());
        assert!(FaultPlan::parse("crash=1.5").is_err());
        assert!(FaultPlan::parse("crash=-0.1").is_err());
        assert!(FaultPlan::parse("wat=0.1").is_err());
        assert!(matches!(
            FaultPlan::parse("bogus"),
            Err(StcaError::Usage(_))
        ));
    }

    #[test]
    fn parse_errors_name_key_value_and_valid_keys() {
        // an unknown key is named and the valid key set is listed
        let msg = FaultPlan::parse("heavy,wat=0.1").unwrap_err().to_string();
        assert!(msg.contains("\"wat\""), "{msg}");
        for key in FaultPlan::KEYS {
            assert!(msg.contains(key), "{msg} should list {key}");
        }
        // a bad value is quoted alongside its key and expected type
        let msg = FaultPlan::parse("crash=two").unwrap_err().to_string();
        assert!(msg.contains("crash") && msg.contains("\"two\""), "{msg}");
        // a malformed token lists both presets and keys, plus its position
        let msg = FaultPlan::parse("heavy,bogus").unwrap_err().to_string();
        assert!(
            msg.contains("\"bogus\"") && msg.contains("token 1"),
            "{msg}"
        );
        assert!(
            msg.contains("ci-default") && msg.contains("predict_fail"),
            "{msg}"
        );
        // out-of-range names the legal range
        let msg = FaultPlan::parse("crash=1.5").unwrap_err().to_string();
        assert!(msg.contains("crash=1.5") && msg.contains("[0, 1]"), "{msg}");
    }

    #[test]
    fn injector_is_deterministic_per_attempt() {
        let plan = FaultPlan::heavy();
        let a = plan.injector(0xAB, 0);
        let b = plan.injector(0xAB, 0);
        for tag in 0..64 {
            assert_eq!(a.sample_fault(tag), b.sample_fault(tag));
            assert_eq!(a.noise_factors(tag, 5), b.noise_factors(tag, 5));
        }
        assert_eq!(a.attempt_outcome().is_err(), b.attempt_outcome().is_err());
    }

    #[test]
    fn attempts_reroll_independently() {
        // With crash=0.5, 16 attempts virtually never agree on all rolls.
        let plan = FaultPlan::parse("crash=0.5,seed=3").unwrap();
        let outcomes: Vec<bool> = (0..16)
            .map(|a| plan.injector(1, a).attempt_outcome().is_err())
            .collect();
        assert!(outcomes.iter().any(|&c| c));
        assert!(outcomes.iter().any(|&c| !c));
    }

    #[test]
    fn sample_fault_rates_roughly_match() {
        let plan = FaultPlan::parse("dropout=0.2,corrupt=0.1,stuck=0.1,seed=5").unwrap();
        let inj = plan.injector(9, 0);
        let n = 20_000;
        let mut counts = [0usize; 4];
        for tag in 0..n {
            let idx = match inj.sample_fault(tag) {
                SampleFault::None => 0,
                SampleFault::Drop => 1,
                SampleFault::Corrupt => 2,
                SampleFault::Stuck => 3,
            };
            counts[idx] += 1;
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!((frac(counts[1]) - 0.2).abs() < 0.02, "drop {counts:?}");
        assert!((frac(counts[2]) - 0.1).abs() < 0.02, "corrupt {counts:?}");
        assert!((frac(counts[3]) - 0.1).abs() < 0.02, "stuck {counts:?}");
    }

    #[test]
    fn corrupt_rows_exceed_plausibility_bound() {
        let inj = FaultPlan::heavy().injector(2, 0);
        for v in inj.corrupt_row(7, 29) {
            assert!(v > COUNTER_PLAUSIBLE_MAX);
        }
    }

    #[test]
    fn predict_and_stall_hooks_are_deterministic_and_rate_matched() {
        let plan = FaultPlan::parse("predict_fail=0.25,stall=0.1,latency=0.2,seed=13").unwrap();
        let a = plan.injector(4, 0);
        let b = plan.injector(4, 0);
        let n = 20_000u64;
        let mut fails = 0usize;
        let mut stalls = 0usize;
        for tag in 0..n {
            assert_eq!(a.predict_fault(tag), b.predict_fault(tag));
            let s = a.stage_stall_s(tag);
            assert_eq!(s.to_bits(), b.stage_stall_s(tag).to_bits());
            if a.predict_fault(tag) {
                fails += 1;
            }
            if s > 0.0 {
                // stalls overshoot the watchdog latency scale
                assert!(s >= 2.0 * 0.2, "stall {s} too small to trip watchdog");
                stalls += 1;
            }
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!((frac(fails) - 0.25).abs() < 0.02, "predict_fail {fails}");
        assert!((frac(stalls) - 0.1).abs() < 0.02, "stall {stalls}");
    }

    #[test]
    fn shard_fault_keys_parse_and_reject_like_the_rest() {
        let p = FaultPlan::parse("shard_crash=0.2,shard_stall=0.1,shard_flap=0.05").unwrap();
        assert_eq!(p.shard_crash_prob, 0.2);
        assert_eq!(p.shard_stall_prob, 0.1);
        assert_eq!(p.shard_flap_prob, 0.05);
        assert!(p.is_active());

        // Unknown shard-ish keys are rejected and the message names the
        // full valid key set, shard keys included.
        for bad in ["shard_crash_prob=0.1", "shardcrash=0.1", "shard_wedge=0.1"] {
            let msg = FaultPlan::parse(bad).unwrap_err().to_string();
            let key = bad.split('=').next().unwrap_or_default();
            assert!(msg.contains(&format!("\"{key}\"")), "{msg}");
            for valid in ["shard_crash", "shard_stall", "shard_flap"] {
                assert!(msg.contains(valid), "{msg} should list {valid}");
            }
        }
        // Shard fault rates are probabilities: range-checked like the rest.
        let msg = FaultPlan::parse("shard_crash=1.5").unwrap_err().to_string();
        assert!(msg.contains("[0, 1]"), "{msg}");
        assert!(FaultPlan::parse("shard_flap=-0.1").is_err());
        assert!(FaultPlan::parse("shard_stall=nan").is_err());
    }

    #[test]
    fn shard_faults_are_pure_in_seed_shard_and_epoch() {
        let plan = FaultPlan::heavy();
        let again = FaultPlan::heavy();
        let mut crashes = 0usize;
        for shard in 0..8u32 {
            for epoch in 0..256u64 {
                assert_eq!(
                    plan.shard_crash(shard, epoch),
                    again.shard_crash(shard, epoch)
                );
                assert_eq!(
                    plan.shard_flap(shard, epoch),
                    again.shard_flap(shard, epoch)
                );
                assert_eq!(
                    plan.shard_stall_s(shard, epoch, 5.0).to_bits(),
                    again.shard_stall_s(shard, epoch, 5.0).to_bits()
                );
                if plan.shard_crash(shard, epoch) {
                    crashes += 1;
                }
            }
        }
        // ~10% crash rate over 2048 rolls: comfortably non-degenerate.
        assert!(crashes > 100 && crashes < 350, "crashes {crashes}");

        // Distinct shards and epochs roll independently: with eight shards
        // and 256 epochs the columns cannot all agree.
        let col = |s: u32| -> Vec<bool> { (0..256).map(|e| plan.shard_crash(s, e)).collect() };
        assert_ne!(col(0), col(1));

        // Stall durations land in the documented 25–75% band of the epoch.
        for shard in 0..8u32 {
            for epoch in 0..256u64 {
                let s = plan.shard_stall_s(shard, epoch, 5.0);
                assert!(s == 0.0 || (1.25..=3.75).contains(&s), "stall {s}");
            }
        }
        // The no-fault plan never rolls shard faults.
        let none = FaultPlan::none();
        assert!(!none.shard_crash(0, 0));
        assert!(!none.shard_flap(0, 0));
        assert_eq!(none.shard_stall_s(0, 0, 5.0), 0.0);
    }

    #[test]
    fn lifecycle_fault_keys_parse_and_reject_like_the_rest() {
        let p = FaultPlan::parse(
            "drift_burst=0.3,retrain_fail=0.2,retrain_slow=0.1,promote_corrupt=0.25",
        )
        .unwrap();
        assert_eq!(p.drift_burst_prob, 0.3);
        assert_eq!(p.retrain_fail_prob, 0.2);
        assert_eq!(p.retrain_slow_prob, 0.1);
        assert_eq!(p.promote_corrupt_prob, 0.25);
        assert!(p.is_active());

        // Unknown lifecycle-ish keys are rejected and the message names
        // the full valid key set, all four lifecycle keys included.
        for bad in ["drift=0.1", "retrain=0.1", "promote_corrupt_prob=0.1"] {
            let msg = FaultPlan::parse(bad).unwrap_err().to_string();
            let key = bad.split('=').next().unwrap_or_default();
            assert!(msg.contains(&format!("\"{key}\"")), "{msg}");
            for valid in FaultPlan::KEYS {
                assert!(msg.contains(valid), "{msg} should list {valid}");
            }
        }
        // Lifecycle fault rates are probabilities: range-checked too.
        for bad in [
            "drift_burst=1.5",
            "retrain_fail=-0.1",
            "retrain_slow=nan",
            "promote_corrupt=2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} must be rejected");
        }
        // The presets carry non-zero lifecycle rates.
        assert!(FaultPlan::ci_default().drift_burst_prob > 0.0);
        assert!(FaultPlan::heavy().promote_corrupt_prob > 0.0);
    }

    #[test]
    fn lifecycle_faults_are_pure_in_seed_shard_and_epoch() {
        let plan = FaultPlan::heavy();
        let again = FaultPlan::heavy();
        let mut bursts = 0usize;
        for shard in 0..8u32 {
            for epoch in 0..256u64 {
                assert_eq!(
                    plan.drift_burst_offset(shard, epoch).to_bits(),
                    again.drift_burst_offset(shard, epoch).to_bits()
                );
                assert_eq!(
                    plan.retrain_fail(shard, epoch),
                    again.retrain_fail(shard, epoch)
                );
                assert_eq!(
                    plan.retrain_slow_s(shard, epoch, 1.0).to_bits(),
                    again.retrain_slow_s(shard, epoch, 1.0).to_bits()
                );
                assert_eq!(
                    plan.promote_corrupt(shard, epoch),
                    again.promote_corrupt(shard, epoch)
                );
                let off = plan.drift_burst_offset(shard, epoch);
                assert!(off == 0.0 || (0.6..=1.5).contains(&off), "offset {off}");
                if off > 0.0 {
                    bursts += 1;
                }
                let slow = plan.retrain_slow_s(shard, epoch, 1.0);
                assert!(slow == 0.0 || (1.5..=4.0).contains(&slow), "slow {slow}");
            }
        }
        // ~20% burst rate over 2048 rolls: comfortably non-degenerate.
        assert!(bursts > 250 && bursts < 600, "bursts {bursts}");

        // Distinct shards roll independently.
        let col = |s: u32| -> Vec<u64> {
            (0..256)
                .map(|e| plan.drift_burst_offset(s, e).to_bits())
                .collect()
        };
        assert_ne!(col(0), col(1));

        // The no-fault plan never rolls lifecycle faults.
        let none = FaultPlan::none();
        assert_eq!(none.drift_burst_offset(0, 0), 0.0);
        assert!(!none.retrain_fail(0, 0));
        assert_eq!(none.retrain_slow_s(0, 0, 1.0), 0.0);
        assert!(!none.promote_corrupt(0, 0));
    }

    #[test]
    fn inactive_plan_is_a_no_op() {
        let inj = FaultPlan::none().injector(1, 0);
        assert!(!inj.is_active());
        assert!(inj.attempt_outcome().is_ok());
        assert_eq!(inj.injected_latency_s(), 0.0);
        assert_eq!(inj.sample_fault(3), SampleFault::None);
        assert_eq!(inj.noise_factors(3, 4), vec![1.0; 4]);
        assert!(!inj.predict_fault(3));
        assert_eq!(inj.stage_stall_s(3), 0.0);
    }
}
