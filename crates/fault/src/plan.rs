//! The fault plan: a seeded, declarative description of what goes wrong.
//!
//! A [`FaultPlan`] holds per-fault probabilities plus its own seed; a
//! [`FaultInjector`] is the plan specialised to one experiment attempt
//! (`plan.injector(run_key, attempt)`). Every decision the injector makes
//! is a pure function of `(plan seed, run key, attempt, sample tag)` via
//! tagged [`SeedStream`]s — no shared mutable RNG — so the same plan
//! produces bit-identical faults whether the run executes on 1 worker or 8,
//! and each retry attempt re-rolls independently. Each setting is one row
//! of the `faults!` table below, and every Bernoulli fault draw goes
//! through one private `roll`.

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

/// A fault rolled on the *plan* (not a per-attempt injector), keyed
/// `(plan seed, tag, shard id, epoch)`: its tag and the counter its hits
/// land on. A faulted fleet is bit-identical at any `--threads` and
/// independent of request interleaving.
type ShardFault = (u64, fn(&InjectMetrics) -> &Arc<stca_obs::Counter>);

// Shard-scoped fleet faults.
const SHARD_CRASH: ShardFault = (0x99, |m| &m.shard_crashes);
const SHARD_STALL: ShardFault = (0xAA, |m| &m.shard_stalls);
const SHARD_FLAP: ShardFault = (0xBB, |m| &m.shard_flaps);

// Model-lifecycle faults (crates/serve adapt loop), keyed exactly like the
// shard faults above, so every lifecycle failure mode replays
// bit-identically at any `--threads`.
const DRIFT_BURST: ShardFault = (0xCC, |m| &m.drift_bursts);
const RETRAIN_FAIL: ShardFault = (0xDD, |m| &m.retrain_failures);
const RETRAIN_SLOW: ShardFault = (0xEE, |m| &m.retrain_slows);
const PROMOTE_CORRUPT: ShardFault = (0xFF, |m| &m.promote_corruptions);

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

/// Declares the plan, one row per setting under its field's doc comment:
/// `"key" => field: type = parse(bound) [none, ci-default, heavy]`. The
/// struct, its presets, [`FaultPlan::KEYS`], [`FaultPlan::BOUNDS`],
/// [`FaultPlan::set`] and [`FaultPlan::get`] are generated from the rows,
/// so adding a fault is one row plus its draw.
macro_rules! faults {
    ($(#[$attr:meta])* pub struct FaultPlan {
        $($(#[doc = $doc:literal])*
        $key:literal => $field:ident: $ty:ty = $parse:ident($bound:expr)
            [$none:expr, $ci_default:expr, $heavy:expr],)*
    }) => {
        $(#[$attr])*
        pub struct FaultPlan {
            $($(#[doc = $doc])* pub $field: $ty,)*
        }

        impl FaultPlan {
            /// The no-fault plan: every probability zero. Checked code paths run
            /// byte-identically to the unchecked ones under this plan.
            pub fn none() -> Self {
                Self::preset(0)
            }

            /// Mild preset used by the CI fault job: a few percent of everything.
            pub fn ci_default() -> Self {
                Self::preset(1)
            }

            /// Hostile preset: ≥10% run crashes, ≥5% sample dropout.
            pub fn heavy() -> Self {
                Self::preset(2)
            }

            /// The preset names `parse` accepts, in the order of each row's
            /// values.
            pub const PRESETS: [&'static str; 3] = ["none", "ci-default", "heavy"];

            /// Preset `i` of [`FaultPlan::PRESETS`]: every row's `i`th value.
            fn preset(i: usize) -> Self {
                FaultPlan {
                    $($field: [$none, $ci_default, $heavy][i],)*
                }
            }

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

faults! {
    /// A deterministic description of fault rates for a pipeline run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultPlan {
        /// Root seed for every injection decision.
        "seed" => seed: u64 = int(Bound::Any) [0, 0xC1DE, 0xFA11],
        /// Probability an experiment attempt crashes outright.
        "crash" => crash_prob: f64 = real(Bound::Probability) [0.0, 0.05, 0.15],
        /// Probability an experiment attempt times out.
        "timeout" => timeout_prob: f64 = real(Bound::Probability) [0.0, 0.02, 0.05],
        /// Per-sample probability the collector drops the row.
        "dropout" => dropout_prob: f64 = real(Bound::Probability) [0.0, 0.05, 0.10],
        /// Per-sample probability the collector returns garbage counters.
        "corrupt" => corrupt_prob: f64 = real(Bound::Probability) [0.0, 0.02, 0.05],
        /// Per-sample probability the sensor repeats the previous row.
        "stuck" => stuck_prob: f64 = real(Bound::Probability) [0.0, 0.02, 0.05],
        /// Relative std-dev of multiplicative measurement noise (0 = clean).
        "noise" => noise_rel: f64 = real(Bound::NonNegative) [0.0, 0.01, 0.05],
        /// Mean injected collection latency per attempt, virtual seconds.
        "latency" => latency_mean_s: f64 = real(Bound::NonNegative) [0.0, 0.05, 0.2],
        /// Per-call probability the primary (deep-forest) predictor fails.
        "predict_fail" => predict_fail_prob: f64 = real(Bound::Probability) [0.0, 0.02, 0.2],
        /// Per-stage probability a pipeline stage stalls past its watchdog
        /// budget (the serving loop fails it into the retry path).
        "stall" => stall_prob: f64 = real(Bound::Probability) [0.0, 0.01, 0.05],
        /// Per-(shard, epoch) probability a fleet shard crashes for the whole
        /// epoch: its queue is flushed to the router and it is unroutable
        /// until the next healthy epoch.
        "shard_crash" => shard_crash_prob: f64 = real(Bound::Probability) [0.0, 0.05, 0.10],
        /// Per-(shard, epoch) probability a fleet shard stalls: its servers
        /// are pushed forward in virtual time, so queues grow and deadlines
        /// shed, but it keeps accepting and draining work.
        "shard_stall" => shard_stall_prob: f64 = real(Bound::Probability) [0.0, 0.05, 0.10],
        /// Per-(shard, epoch) probability a fleet shard flaps: the router
        /// treats it as unhealthy for the epoch, but in-flight and queued
        /// work keeps draining on the shard.
        "shard_flap" => shard_flap_prob: f64 = real(Bound::Probability) [0.0, 0.05, 0.10],
        /// Per-(shard, epoch) probability the serving traffic's observed EA
        /// drifts for the epoch: the adapt loop sees residuals offset by a
        /// seeded burst magnitude, which is what trips the drift detector.
        "drift_burst" => drift_burst_prob: f64 = real(Bound::Probability) [0.0, 0.05, 0.20],
        /// Per-(shard, epoch) probability a triggered warm-start retrain
        /// errors out: the lifecycle abandons the candidate and re-arms.
        "retrain_fail" => retrain_fail_prob: f64 = real(Bound::Probability) [0.0, 0.05, 0.10],
        /// Per-(shard, epoch) probability a triggered retrain overruns its
        /// virtual-time budget: the lifecycle treats it like a failure, so a
        /// slow trainer can never wedge a shard.
        "retrain_slow" => retrain_slow_prob: f64 = real(Bound::Probability) [0.0, 0.05, 0.10],
        /// Per-(shard, epoch) probability a promoted candidate is corrupt
        /// (its predictions are offset after promotion): the guard band must
        /// catch it and roll back to the previous version.
        "promote_corrupt" => promote_corrupt_prob: f64 = real(Bound::Probability) [0.0, 0.05, 0.15],
    }
}

impl FaultPlan {
    /// Whether any fault has non-zero probability: the plan differs from
    /// [`FaultPlan::none`] in something other than its seed.
    pub fn is_active(&self) -> bool {
        *self
            != FaultPlan {
                seed: self.seed,
                ..FaultPlan::none()
            }
    }

    /// Parse a plan spec: a preset name ([`FaultPlan::PRESETS`]),
    /// `key=value` pairs ([`FaultPlan::KEYS`]), or a preset followed by
    /// overrides — all comma-separated.
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
            if let Some(p) = Self::PRESETS.iter().position(|p| *p == token) {
                plan = Self::preset(p);
                continue;
            }
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
        let stream = SeedStream::new(self.seed)
            .derive(run_key)
            .derive(attempt as u64);
        FaultInjector {
            plan: self.clone(),
            run_key,
            attempt,
            sample: stream.derive(TAG_SAMPLE),
            corrupt: stream.derive(TAG_CORRUPT),
            noise: stream.derive(TAG_NOISE),
            predict: stream.derive(TAG_PREDICT),
            stall: stream.derive(TAG_STALL),
            stream,
        }
    }

    /// Whether fleet shard `shard_id` crashes for virtual-time epoch
    /// `epoch`. Pure in `(plan seed, shard id, epoch)` — independent of the
    /// run key, retry attempt, and request interleaving — so sharded fleets
    /// fault bit-identically at any `--threads`. A `true` roll is counted
    /// in `fault.injected_shard_crashes_total`.
    pub fn shard_crash(&self, shard_id: u32, epoch: u64) -> bool {
        self.shard_roll(SHARD_CRASH, self.shard_crash_prob, shard_id, epoch)
            .is_some()
    }

    /// Whether fleet shard `shard_id` flaps for epoch `epoch`: the router
    /// must treat it as unhealthy, but queued work keeps draining. Same
    /// keying discipline as [`FaultPlan::shard_crash`].
    pub fn shard_flap(&self, shard_id: u32, epoch: u64) -> bool {
        self.shard_roll(SHARD_FLAP, self.shard_flap_prob, shard_id, epoch)
            .is_some()
    }

    /// Virtual seconds of injected stall for shard `shard_id` in epoch
    /// `epoch`, or `0.0` when the shard proceeds normally. A stalled shard
    /// loses 25–75% of the epoch (`epoch_s`) of server time, so its queue
    /// grows and deadline sheds follow. Same keying discipline as
    /// [`FaultPlan::shard_crash`].
    pub fn shard_stall_s(&self, shard_id: u32, epoch: u64, epoch_s: f64) -> f64 {
        self.shard_roll(SHARD_STALL, self.shard_stall_prob, shard_id, epoch)
            .map_or(0.0, |mut rng| {
                epoch_s.max(0.0) * (0.25 + 0.5 * rng.next_f64())
            })
    }

    /// Observed-EA drift offset for shard `shard_id` in epoch `epoch`, or
    /// `0.0` when the traffic is clean. A burst shifts every observed EA
    /// in the epoch by 0.6–1.5, which is what pushes residuals over the
    /// adapt loop's drift threshold. Same `(plan seed, shard id, epoch)`
    /// keying discipline as [`FaultPlan::shard_crash`]; the adapt loop
    /// rolls it once per epoch, never per request.
    pub fn drift_burst_offset(&self, shard_id: u32, epoch: u64) -> f64 {
        self.shard_roll(DRIFT_BURST, self.drift_burst_prob, shard_id, epoch)
            .map_or(0.0, |mut rng| 0.6 + 0.9 * rng.next_f64())
    }

    /// Whether a retrain triggered on shard `shard_id` in epoch `epoch`
    /// errors out. Counted in `fault.injected_retrain_failures_total`.
    pub fn retrain_fail(&self, shard_id: u32, epoch: u64) -> bool {
        self.shard_roll(RETRAIN_FAIL, self.retrain_fail_prob, shard_id, epoch)
            .is_some()
    }

    /// Virtual seconds a retrain triggered on shard `shard_id` in epoch
    /// `epoch` overruns its budget `budget_s`, or `0.0` when it finishes
    /// in time. A slow retrain overshoots by 1.5–4x the budget, so the
    /// lifecycle reliably classifies it as over budget and abandons the
    /// candidate.
    pub fn retrain_slow_s(&self, shard_id: u32, epoch: u64, budget_s: f64) -> f64 {
        self.shard_roll(RETRAIN_SLOW, self.retrain_slow_prob, shard_id, epoch)
            .map_or(0.0, |mut rng| {
                budget_s.max(0.1) * (1.5 + 2.5 * rng.next_f64())
            })
    }

    /// Whether a candidate promoted on shard `shard_id` in epoch `epoch`
    /// is corrupt: its post-promotion predictions are offset, so the guard
    /// band must regress and roll back. Counted in
    /// `fault.injected_promote_corruptions_total`.
    pub fn promote_corrupt(&self, shard_id: u32, epoch: u64) -> bool {
        self.shard_roll(PROMOTE_CORRUPT, self.promote_corrupt_prob, shard_id, epoch)
            .is_some()
    }

    /// [`roll`] of one [`ShardFault`] for `(shard_id, epoch)`.
    fn shard_roll(&self, fault: ShardFault, prob: f64, shard_id: u32, epoch: u64) -> Option<Rng64> {
        let (tag, hits) = fault;
        let stream = || {
            SeedStream::new(self.seed)
                .derive(tag)
                .derive(shard_id as u64)
                .rng(epoch)
        };
        roll(prob, stream, hits)
    }
}

/// One Bernoulli fault draw. Draws nothing when `prob <= 0`; otherwise
/// builds the fault's stream and draws `next_bool(prob)`. A hit is counted
/// on the fault's `hits` counter and hands back the rng, so the fault can
/// draw its magnitude from the same stream.
#[inline]
fn roll(
    prob: f64,
    stream: impl FnOnce() -> Rng64,
    hits: impl FnOnce(&InjectMetrics) -> &Arc<stca_obs::Counter>,
) -> Option<Rng64> {
    if prob <= 0.0 {
        return None;
    }
    let mut rng = stream();
    if !rng.next_bool(prob) {
        return None;
    }
    hits(inject_metrics()).inc();
    Some(rng)
}

/// A [`FaultPlan`] bound to one `(run, attempt)` pair.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    run_key: u64,
    attempt: u32,
    /// The attempt's stream: run-level faults draw from it directly.
    stream: SeedStream,
    // Per-sample component streams (`stream.derive(TAG_*)`), derived once
    // here so a roll is one `rng(tag)` on its component.
    sample: SeedStream,
    corrupt: SeedStream,
    noise: SeedStream,
    predict: SeedStream,
    stall: SeedStream,
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
        let p = &self.plan;
        if roll(p.crash_prob, || self.stream.rng(TAG_CRASH), |m| &m.crashes).is_some() {
            return Err(StcaError::InjectedCrash {
                run_key: self.run_key,
                attempt: self.attempt,
            });
        }
        if let Some(mut rng) = roll(
            p.timeout_prob,
            || self.stream.rng(TAG_TIMEOUT),
            |m| &m.timeouts,
        ) {
            let budget = p.latency_mean_s.max(0.1) * 100.0;
            return Err(StcaError::InjectedTimeout {
                run_key: self.run_key,
                attempt: self.attempt,
                waited_s: budget * (0.5 + rng.next_f64()),
            });
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
        let u = self.sample.rng(tag).next_f64();
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
        let mut rng = self.corrupt.rng(tag);
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
        let mut rng = self.noise.rng(tag);
        (0..n)
            .map(|_| (1.0 + self.plan.noise_rel * rng.next_gaussian()).max(0.0))
            .collect()
    }

    /// Whether the primary predictor fails for the call identified by
    /// `tag` (callers use the request sequence number). A `true` roll is
    /// counted in `fault.injected_predict_failures_total`, so callers roll
    /// it only where it takes effect; the serving layer then falls
    /// through the degraded predictor chain.
    pub fn predict_fault(&self, tag: u64) -> bool {
        roll(
            self.plan.predict_fail_prob,
            || self.predict.rng(tag),
            |m| &m.predict_failures,
        )
        .is_some()
    }

    /// Virtual seconds of injected stage stall for the stage identified by
    /// `tag`, or `0.0` when the stage proceeds normally. A stall is
    /// counted in `fault.injected_stalls_total`, so callers roll it only
    /// when the stage attempt runs. Stalled stages overshoot the watchdog
    /// budget by 2–12x its latency scale so the watchdog reliably
    /// classifies them as stuck.
    pub fn stage_stall_s(&self, tag: u64) -> f64 {
        roll(self.plan.stall_prob, || self.stall.rng(tag), |m| &m.stalls).map_or(0.0, |mut rng| {
            self.plan.latency_mean_s.max(0.1) * (2.0 + 10.0 * rng.next_f64())
        })
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
