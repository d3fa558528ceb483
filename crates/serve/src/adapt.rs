//! Drift-aware model lifecycle: detection → retrain → shadow → guarded
//! promotion → automatic rollback.
//!
//! The offline pipeline fits the EA model once and assumes the counter
//! distribution it profiled is the one it serves. This module closes the
//! loop *safely*: each shard runs an independent `Lifecycle` that
//!
//! 1. **detects drift** over a sliding window of EA residuals
//!    (Page-Hinkley cumulative deviation) and counter-distribution shift
//!    (window mean of the allocation ratio against a frozen baseline),
//! 2. **retrains** a small cascade on the window via
//!    [`Cascade::fit_warm_start`] when drift fires — unless the fault plan
//!    says the retrain errors (`retrain_fail`) or stalls past its
//!    virtual-time budget (`retrain_slow`),
//! 3. **shadow-scores** the candidate on live requests: its prediction is
//!    computed and compared against the observed target but *never
//!    served*,
//! 4. **promotes atomically** behind the breaker — a promotion is refused
//!    outright while the breaker is open or the shard is draining — and
//! 5. **rolls back automatically** to the previous model version (bounded
//!    history) if post-promotion residuals or deadline-miss rates regress
//!    past the guard band, e.g. because the promotion was corrupted by the
//!    `promote_corrupt` fault.
//!
//! `Lifecycle::on_complete` reports what a completion did as decision-log
//! `Entry` values, which the shard logs right after the completion's own
//! entry and turns into trace spans where they have one, plus the
//! per-request `Shadow` score, the one lifecycle event that is traced
//! but never logged.
//!
//! Everything runs in the shard's *serial* replay phase on the virtual
//! clock. Lifecycle faults are rolled per `(plan seed, shard id, epoch)`
//! with `epoch = floor(virtual_now / epoch_s)`, and retrain seed streams
//! are derived from the shard seed and a monotonic version id — so the
//! whole lifecycle, including every injected failure, is bit-identical at
//! any `--threads`. Wall-clock retrain latency feeds only the
//! `serve.adapt.retrain_seconds` histogram, never a decision.

use crate::decision_log::Entry;
use crate::shard::shard_metric;
use stca_deepforest::{Cascade, CascadeConfig};
use stca_fault::{FaultPlan, StcaError};
use stca_util::{Matrix, SeedStream};
use std::collections::VecDeque;
use std::sync::Arc;

/// Tag deriving the retrain seed stream from the shard seed.
const TAG_RETRAIN: u64 = 0xADA7;
/// Page-Hinkley drift tolerance: residual deviations below this never
/// accumulate, so jitter on a healthy model cannot creep up to the
/// threshold.
const PH_DELTA: f64 = 0.05;
/// Absolute slack added on top of the multiplicative guard band, so a
/// near-zero baseline does not make the guard impossibly strict.
const GUARD_SLACK: f64 = 0.05;
/// Distribution-shift score is the window-mean deviation of the
/// allocation ratio in baseline standard deviations, floored here.
const SHIFT_STD_FLOOR: f64 = 1e-3;

/// Candidate retrain hyperparameters: a deliberately small cascade so a
/// 256-row window retrains in milliseconds.
const RETRAIN_CASCADE: CascadeConfig = CascadeConfig {
    levels: 1,
    forests_per_level: 2,
    trees_per_forest: 12,
    folds: 2,
    bins: Some(32),
    reference: false,
};

/// Online-adaptation configuration (the `[serve.adapt]` scenario section
/// and the `stca serve --adapt-*` flags).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// Master switch. Disabled (the default) leaves the serving loop
    /// byte-identical to a build without this module.
    pub enabled: bool,
    /// Lifecycle epoch length, virtual seconds: `drift_burst`,
    /// `retrain_fail`, `retrain_slow`, and `promote_corrupt` faults are
    /// rolled once per `(shard, epoch)`.
    pub epoch_s: f64,
    /// Sliding-window capacity (feature rows + observed targets) the
    /// retrain fits on.
    pub window: usize,
    /// Residual observations required before drift may fire.
    pub min_samples: usize,
    /// Drift threshold: fires when the Page-Hinkley statistic or the
    /// distribution-shift score exceeds it.
    pub drift_threshold: f64,
    /// Live requests a candidate is shadow-scored on before the
    /// promotion decision.
    pub shadow_requests: u64,
    /// Absolute tolerance when comparing the candidate's shadow
    /// prediction against the served model's error.
    pub agree_tol: f64,
    /// Minimum shadow agreement fraction for promotion.
    pub promote_agreement: f64,
    /// Post-promotion guard window, requests.
    pub guard_requests: u64,
    /// Multiplicative regression band: the guard rolls back when the
    /// post-promotion residual mean (or deadline-miss rate) exceeds
    /// `baseline * guard_band + 0.05`.
    pub guard_band: f64,
    /// Bounded model-version history depth for rollback.
    pub history: usize,
    /// Virtual-time retrain budget, seconds: an injected `retrain_slow`
    /// stall past this abandons the candidate.
    pub retrain_budget_s: f64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            enabled: false,
            epoch_s: 5.0,
            window: 256,
            min_samples: 64,
            drift_threshold: 4.0,
            shadow_requests: 64,
            agree_tol: 0.25,
            promote_agreement: 0.6,
            guard_requests: 128,
            guard_band: 1.5,
            history: 4,
            retrain_budget_s: 1.0,
        }
    }
}

impl AdaptConfig {
    /// Reject configurations the lifecycle cannot run deterministically.
    pub fn validate(&self) -> Result<(), StcaError> {
        if !self.enabled {
            return Ok(());
        }
        if !self.epoch_s.is_finite() || self.epoch_s <= 0.0 {
            return Err(StcaError::invalid_input(format!(
                "adapt: epoch_s = {} must be finite and positive",
                self.epoch_s
            )));
        }
        if self.window < 2 {
            return Err(StcaError::invalid_input("adapt: window must be >= 2"));
        }
        if self.min_samples < 2 || self.min_samples > self.window {
            return Err(StcaError::invalid_input(
                "adapt: min_samples must be in [2, window]",
            ));
        }
        if !self.drift_threshold.is_finite() || self.drift_threshold <= 0.0 {
            return Err(StcaError::invalid_input(
                "adapt: drift_threshold must be finite and positive",
            ));
        }
        if self.shadow_requests == 0 {
            return Err(StcaError::invalid_input(
                "adapt: shadow_requests must be >= 1",
            ));
        }
        if !self.agree_tol.is_finite() || self.agree_tol < 0.0 {
            return Err(StcaError::invalid_input(
                "adapt: agree_tol must be finite and >= 0",
            ));
        }
        if !(0.0..=1.0).contains(&self.promote_agreement) {
            return Err(StcaError::invalid_input(
                "adapt: promote_agreement must be in [0, 1]",
            ));
        }
        if self.guard_requests == 0 {
            return Err(StcaError::invalid_input(
                "adapt: guard_requests must be >= 1",
            ));
        }
        if !self.guard_band.is_finite() || self.guard_band < 1.0 {
            return Err(StcaError::invalid_input(
                "adapt: guard_band must be finite and >= 1",
            ));
        }
        if self.history == 0 {
            return Err(StcaError::invalid_input("adapt: history must be >= 1"));
        }
        if !self.retrain_budget_s.is_finite() || self.retrain_budget_s <= 0.0 {
            return Err(StcaError::invalid_input(
                "adapt: retrain_budget_s must be finite and positive",
            ));
        }
        Ok(())
    }
}

/// Lifecycle counters for one shard's run (reported, JSON'd, metric'd).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdaptStats {
    /// Drift detections.
    pub drifts: u64,
    /// Successful candidate retrains.
    pub retrains: u64,
    /// Retrains aborted by an injected `retrain_fail`.
    pub retrain_failures: u64,
    /// Retrains abandoned because an injected stall blew the virtual
    /// budget.
    pub retrain_slows: u64,
    /// Requests shadow-scored against a candidate.
    pub shadow_scored: u64,
    /// Shadow-scored requests where the candidate agreed.
    pub shadow_agree: u64,
    /// Candidates promoted to serving.
    pub promotions: u64,
    /// Promotions refused (low agreement, breaker open, or draining).
    pub promote_refused: u64,
    /// Automatic rollbacks to the previous version.
    pub rollbacks: u64,
    /// Promotions whose guard window completed without regression.
    pub guard_passes: u64,
    /// Model version serving when the run ended (0 = base model).
    pub active_version: u64,
    /// Last computed drift score.
    pub last_drift_score: f64,
    /// Agreement fraction of the last completed shadow window.
    pub last_shadow_agreement: f64,
}

/// A candidate's shadow score of one request. It is traced but never
/// logged: the window's verdict is logged as `Entry::ShadowDone`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shadow {
    pub(crate) version: u64,
    pub(crate) agree: bool,
}

/// Why a candidate that finished its shadow window was not promoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RefuseReason {
    /// Graceful drain had begun.
    Draining,
    /// The shard's breaker was open.
    BreakerOpen,
    /// Shadow agreement fell below `promote_agreement`.
    Agreement,
}

impl RefuseReason {
    /// The reason as the decision log spells it.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            RefuseReason::Draining => "draining",
            RefuseReason::BreakerOpen => "breaker_open",
            RefuseReason::Agreement => "agreement",
        }
    }
}

/// One completed request as the lifecycle observes it. `served_ea` is
/// the EA actually served, `degraded_ea` the drift-free target before
/// the per-epoch offset, `breaker_open`/`draining` gate promotion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Completion<'a> {
    pub features: &'a [f64],
    pub degraded_ea: f64,
    pub served_ea: f64,
    pub now: f64,
    pub deadline_missed: bool,
    pub breaker_open: bool,
    pub draining: bool,
}

/// A promoted (or previously promoted) model version.
#[derive(Debug, Clone)]
struct ModelVersion {
    version: u64,
    model: Arc<Cascade>,
    /// Injected `promote_corrupt`: predictions are offset by +1.0, which
    /// the guard band must catch.
    corrupt: bool,
}

/// A retrained candidate awaiting shadow scoring. Never served.
#[derive(Debug, Clone)]
struct CandidateModel {
    version: u64,
    model: Arc<Cascade>,
}

#[derive(Debug)]
enum Phase {
    Stable,
    Shadow {
        remaining: u64,
        scored: u64,
        agree: u64,
        /// Candidate residual sum over the shadow window: the guard
        /// baseline is "keep performing as you did in shadow", which is
        /// what lets the guard catch a corruption injected at promotion.
        cand_resid_sum: f64,
        /// Deadline misses (late completions + deadline sheds) during the
        /// shadow window.
        base_deadline: u64,
    },
    Guard {
        remaining: u64,
        scored: u64,
        resid_sum: f64,
        deadline_events: u64,
        base_resid_mean: f64,
        base_deadline_rate: f64,
    },
}

/// Sliding retrain window: the last `cap` feature rows in one flat ring
/// of `cap × width` values, with each row's observed target in the same
/// slot of `y`. Once full, each push overwrites the oldest row.
#[derive(Debug)]
struct Window {
    cap: usize,
    /// Row width, fixed by the first row pushed.
    width: usize,
    x: Vec<f64>,
    y: Vec<f64>,
    /// Slot of the oldest row (0 until the ring is full).
    head: usize,
}

impl Window {
    fn new(cap: usize) -> Self {
        Window {
            cap,
            width: 0,
            x: Vec::new(),
            y: Vec::new(),
            head: 0,
        }
    }

    fn len(&self) -> usize {
        self.y.len()
    }

    fn push(&mut self, features: &[f64], observed: f64) {
        if self.y.is_empty() {
            self.width = features.len();
        }
        let width = self.width;
        assert_eq!(features.len(), width, "ragged rows");
        if self.y.len() < self.cap {
            self.x.extend_from_slice(features);
            self.y.push(observed);
        } else {
            let h = self.head;
            self.x[h * width..(h + 1) * width].copy_from_slice(features);
            self.y[h] = observed;
            self.head = (h + 1) % self.cap;
        }
    }

    /// The window as a design matrix and targets, oldest row first.
    fn to_matrix(&self) -> (Matrix, Vec<f64>) {
        let (new_x, old_x) = self.x.split_at(self.head * self.width);
        let (new_y, old_y) = self.y.split_at(self.head);
        let x = Matrix::from_vec(self.len(), self.width, [old_x, new_x].concat());
        (x, [old_y, new_y].concat())
    }
}

/// Per-shard model lifecycle state machine. Lives inside the shard core
/// and advances only from the serial replay phase.
#[derive(Debug)]
pub(crate) struct Lifecycle {
    cfg: AdaptConfig,
    plan: FaultPlan,
    shard_id: u32,
    seed: u64,
    /// Sliding retrain window.
    window: Window,
    // Page-Hinkley state over residuals.
    ph_n: u64,
    ph_mean: f64,
    ph_m: f64,
    ph_min: f64,
    // Frozen allocation-ratio baseline (Welford until min_samples).
    base_n: u64,
    base_mean: f64,
    base_m2: f64,
    // Running window mean of the allocation ratio for the shift score.
    ratio_sum: f64,
    ratios: VecDeque<f64>,
    /// Current lifecycle epoch and its rolled drift offset.
    cur_epoch: Option<u64>,
    cur_offset: f64,
    phase: Phase,
    active: Option<ModelVersion>,
    /// Previously active versions, oldest first (`None` = base model).
    history: VecDeque<Option<ModelVersion>>,
    candidate: Option<CandidateModel>,
    next_version: u64,
    pub(crate) stats: AdaptStats,
    retrain_hist: Arc<stca_obs::Histogram>,
}

impl Lifecycle {
    pub(crate) fn new(cfg: AdaptConfig, plan: FaultPlan, seed: u64, shard: Option<u32>) -> Self {
        let retrain_hist = stca_obs::histogram(&shard_metric(shard, "adapt.retrain_seconds"));
        Lifecycle {
            cfg,
            plan,
            shard_id: shard.unwrap_or(0),
            seed,
            window: Window::new(cfg.window),
            ph_n: 0,
            ph_mean: 0.0,
            ph_m: 0.0,
            ph_min: 0.0,
            base_n: 0,
            base_mean: 0.0,
            base_m2: 0.0,
            ratio_sum: 0.0,
            ratios: VecDeque::new(),
            cur_epoch: None,
            cur_offset: 0.0,
            phase: Phase::Stable,
            active: None,
            history: VecDeque::new(),
            candidate: None,
            next_version: 1,
            stats: AdaptStats::default(),
            retrain_hist,
        }
    }

    /// The prediction the active (promoted) model serves for `features`,
    /// or `None` while the base model is serving. Candidates are
    /// deliberately unreachable from here: shadow predictions are computed
    /// in [`Lifecycle::on_complete`] and never returned to the caller.
    pub(crate) fn serve_ea(&self, features: &[f64]) -> Option<(u64, f64)> {
        let v = self.active.as_ref()?;
        let mut pred = v.model.predict(features);
        if v.corrupt {
            pred += 1.0;
        }
        pred.is_finite().then_some((v.version, pred))
    }

    /// Version currently serving (0 = base model).
    pub(crate) fn active_version(&self) -> u64 {
        self.active.as_ref().map_or(0, |v| v.version)
    }

    /// Count a deadline miss (late completion or deadline shed) against
    /// the current shadow/guard window.
    pub(crate) fn note_deadline_event(&mut self) {
        match &mut self.phase {
            Phase::Shadow { base_deadline, .. } => *base_deadline += 1,
            Phase::Guard {
                deadline_events, ..
            } => *deadline_events += 1,
            Phase::Stable => {}
        }
    }

    /// Reset drift statistics (after any lifecycle transition, so the
    /// detector re-accumulates evidence against the new serving model).
    fn reset_detector(&mut self) {
        self.ph_n = 0;
        self.ph_mean = 0.0;
        self.ph_m = 0.0;
        self.ph_min = 0.0;
    }

    /// Roll the per-epoch drift offset lazily as virtual time crosses
    /// epoch boundaries.
    fn refresh_epoch(&mut self, now: f64) -> u64 {
        let epoch = (now.max(0.0) / self.cfg.epoch_s).floor() as u64;
        if self.cur_epoch != Some(epoch) {
            self.cur_epoch = Some(epoch);
            self.cur_offset = self.plan.drift_burst_offset(self.shard_id, epoch);
        }
        epoch
    }

    /// Push one observation into the sliding window and update the
    /// drift statistics. Returns the combined drift score.
    fn observe_stats(&mut self, features: &[f64], observed: f64, residual: f64) -> f64 {
        self.window.push(features, observed);

        let ratio = features.first().copied().unwrap_or(1.0);
        if self.ratios.len() == self.cfg.window {
            if let Some(old) = self.ratios.pop_front() {
                self.ratio_sum -= old;
            }
        }
        self.ratios.push_back(ratio);
        self.ratio_sum += ratio;
        if self.base_n < self.cfg.min_samples as u64 {
            // freeze the baseline after min_samples: later drift is
            // measured against where the stream started
            self.base_n += 1;
            let d = ratio - self.base_mean;
            self.base_mean += d / self.base_n as f64;
            self.base_m2 += d * (ratio - self.base_mean);
        }

        // Page-Hinkley over residuals
        self.ph_n += 1;
        self.ph_mean += (residual - self.ph_mean) / self.ph_n as f64;
        self.ph_m += residual - self.ph_mean - PH_DELTA;
        if self.ph_m < self.ph_min {
            self.ph_min = self.ph_m;
        }
        let ph = self.ph_m - self.ph_min;

        // distribution shift: window mean vs frozen baseline, in
        // baseline standard deviations
        let shift = if self.base_n >= 2 {
            let std = (self.base_m2 / (self.base_n - 1) as f64)
                .sqrt()
                .max(SHIFT_STD_FLOOR);
            let win_mean = self.ratio_sum / self.ratios.len() as f64;
            (win_mean - self.base_mean).abs() / std
        } else {
            0.0
        };
        let score = ph.max(shift);
        self.stats.last_drift_score = score;
        score
    }

    /// Retrain a candidate on the current window. Warm-starts from the
    /// active version when one exists so an unchanged window reuses it
    /// wholesale.
    fn retrain(&mut self, version: u64) -> Option<CandidateModel> {
        if self.window.len() < 2 {
            return None;
        }
        let (x, y) = self.window.to_matrix();
        let stream = SeedStream::new(self.seed ^ TAG_RETRAIN).derive(version);
        let timer = stca_obs::StageTimer::with_histogram(self.retrain_hist.clone());
        let model = match self.active.as_ref() {
            Some(v) => Cascade::fit_warm_start(&x, &y, RETRAIN_CASCADE, &stream, &v.model),
            None => Cascade::fit(&x, &y, RETRAIN_CASCADE, &stream),
        };
        timer.stop();
        Some(CandidateModel {
            version,
            model: Arc::new(model),
        })
    }

    /// Advance the lifecycle with one completed request. Returns the
    /// candidate's shadow score of it, if it was scored, and the entries
    /// for the core to log (and trace) after the request's own, in order.
    pub(crate) fn on_complete(&mut self, c: Completion<'_>) -> (Option<Shadow>, Vec<Entry>) {
        let Completion {
            features,
            degraded_ea,
            served_ea,
            now,
            deadline_missed,
            breaker_open,
            draining,
        } = c;
        let mut entries = Vec::new();
        let mut shadow = None;
        let epoch = self.refresh_epoch(now);
        let observed = degraded_ea + self.cur_offset;
        let residual = (served_ea - observed).abs();
        if deadline_missed {
            self.note_deadline_event();
        }
        let score = self.observe_stats(features, observed, residual);

        // take the phase out so the arms can call &mut self freely
        let phase = std::mem::replace(&mut self.phase, Phase::Stable);
        self.phase = match phase {
            Phase::Stable => {
                if self.ph_n >= self.cfg.min_samples as u64 && score > self.cfg.drift_threshold {
                    self.stats.drifts += 1;
                    entries.push(Entry::Drift { score });
                    self.reset_detector();
                    let version = self.next_version;
                    self.next_version += 1;
                    if self.plan.retrain_fail(self.shard_id, epoch) {
                        self.stats.retrain_failures += 1;
                        entries.push(Entry::RetrainFail { version });
                        Phase::Stable
                    } else if self.plan.retrain_slow_s(
                        self.shard_id,
                        epoch,
                        self.cfg.retrain_budget_s,
                    ) > self.cfg.retrain_budget_s
                    {
                        self.stats.retrain_slows += 1;
                        entries.push(Entry::RetrainSlow { version });
                        Phase::Stable
                    } else if let Some(cand) = self.retrain(version) {
                        self.stats.retrains += 1;
                        entries.push(Entry::Retrain {
                            version: cand.version,
                            rows: self.window.len(),
                        });
                        self.candidate = Some(cand);
                        Phase::Shadow {
                            remaining: self.cfg.shadow_requests,
                            scored: 0,
                            agree: 0,
                            cand_resid_sum: 0.0,
                            base_deadline: 0,
                        }
                    } else {
                        Phase::Stable
                    }
                } else {
                    Phase::Stable
                }
            }
            Phase::Shadow {
                mut remaining,
                mut scored,
                mut agree,
                mut cand_resid_sum,
                base_deadline,
            } => match self.candidate.as_ref() {
                None => Phase::Stable,
                Some(cand) => {
                    let cand_pred = cand.model.predict(features);
                    let cand_err = (cand_pred - observed).abs();
                    let agrees = cand_err.is_finite() && cand_err <= residual + self.cfg.agree_tol;
                    scored += 1;
                    remaining -= 1;
                    if agrees {
                        agree += 1;
                        self.stats.shadow_agree += 1;
                    }
                    cand_resid_sum += if cand_err.is_finite() {
                        cand_err
                    } else {
                        residual
                    };
                    self.stats.shadow_scored += 1;
                    let version = cand.version;
                    shadow = Some(Shadow {
                        version,
                        agree: agrees,
                    });
                    if remaining > 0 {
                        Phase::Shadow {
                            remaining,
                            scored,
                            agree,
                            cand_resid_sum,
                            base_deadline,
                        }
                    } else {
                        let agreement = agree as f64 / scored as f64;
                        self.stats.last_shadow_agreement = agreement;
                        entries.push(Entry::ShadowDone {
                            version,
                            agree,
                            scored,
                        });
                        let refusal = if draining {
                            Some(RefuseReason::Draining)
                        } else if breaker_open {
                            Some(RefuseReason::BreakerOpen)
                        } else if agreement < self.cfg.promote_agreement {
                            Some(RefuseReason::Agreement)
                        } else {
                            None
                        };
                        match refusal {
                            Some(reason) => {
                                self.stats.promote_refused += 1;
                                self.candidate = None;
                                self.reset_detector();
                                entries.push(Entry::PromoteRefused { version, reason });
                                Phase::Stable
                            }
                            None => {
                                let cand = self
                                    .candidate
                                    .take()
                                    .expect("candidate checked at phase entry");
                                let corrupt = self.plan.promote_corrupt(self.shard_id, epoch);
                                // atomic promotion: the previous version
                                // goes to the bounded history and the
                                // candidate becomes the serving model in
                                // one step
                                if self.history.len() == self.cfg.history {
                                    self.history.pop_front();
                                }
                                self.history.push_back(self.active.take());
                                self.active = Some(ModelVersion {
                                    version: cand.version,
                                    model: cand.model,
                                    corrupt,
                                });
                                self.stats.promotions += 1;
                                self.reset_detector();
                                entries.push(Entry::Promote { version });
                                Phase::Guard {
                                    remaining: self.cfg.guard_requests,
                                    scored: 0,
                                    resid_sum: 0.0,
                                    deadline_events: 0,
                                    base_resid_mean: cand_resid_sum / scored as f64,
                                    base_deadline_rate: base_deadline as f64 / scored as f64,
                                }
                            }
                        }
                    }
                }
            },
            Phase::Guard {
                mut remaining,
                mut scored,
                mut resid_sum,
                deadline_events,
                base_resid_mean,
                base_deadline_rate,
            } => {
                scored += 1;
                resid_sum += residual;
                remaining -= 1;
                if remaining > 0 {
                    Phase::Guard {
                        remaining,
                        scored,
                        resid_sum,
                        deadline_events,
                        base_resid_mean,
                        base_deadline_rate,
                    }
                } else {
                    let resid_mean = resid_sum / scored as f64;
                    let deadline_rate = deadline_events as f64 / scored as f64;
                    let resid_ok =
                        resid_mean <= base_resid_mean * self.cfg.guard_band + GUARD_SLACK;
                    let deadline_ok =
                        deadline_rate <= base_deadline_rate * self.cfg.guard_band + GUARD_SLACK;
                    let version = self.active_version();
                    self.reset_detector();
                    if resid_ok && deadline_ok {
                        self.stats.guard_passes += 1;
                        entries.push(Entry::GuardPass { version });
                    } else {
                        // automatic rollback: re-install the previous
                        // version from the bounded history
                        let prev = self.history.pop_back().flatten();
                        let to = prev.as_ref().map_or(0, |v| v.version);
                        self.active = prev;
                        self.stats.rollbacks += 1;
                        entries.push(Entry::Rollback { from: version, to });
                    }
                    Phase::Stable
                }
            }
        };
        self.stats.active_version = self.active_version();
        (shadow, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).expect("plan parses")
    }

    /// Every shadow score and every entry `n` completions produced.
    fn feed(lc: &mut Lifecycle, n: u64, t0: f64, ea: f64) -> (Vec<Shadow>, Vec<Entry>) {
        let (mut shadows, mut entries) = (Vec::new(), Vec::new());
        for i in 0..n {
            let now = t0 + i as f64 * 0.01;
            let feats = vec![0.5 + 0.001 * (i % 7) as f64, 0.2];
            let (shadow, more) = lc.on_complete(Completion {
                features: &feats,
                degraded_ea: ea,
                served_ea: ea,
                now,
                deadline_missed: false,
                breaker_open: false,
                draining: false,
            });
            shadows.extend(shadow);
            entries.extend(more);
        }
        (shadows, entries)
    }

    #[test]
    fn window_keeps_the_last_rows_oldest_first() {
        let mut w = Window::new(3);
        for i in 0..5 {
            let i = i as f64;
            w.push(&[i, 10.0 * i], 100.0 + i);
        }
        let (x, y) = w.to_matrix();
        assert_eq!((x.rows(), x.cols()), (3, 2));
        assert_eq!(x.as_slice(), &[2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        assert_eq!(y, vec![102.0, 103.0, 104.0]);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn window_rejects_ragged_rows() {
        let mut w = Window::new(4);
        w.push(&[0.5, 0.2], 1.0);
        w.push(&[0.5], 1.0);
    }

    fn cfg() -> AdaptConfig {
        AdaptConfig {
            enabled: true,
            epoch_s: 1.0,
            window: 64,
            min_samples: 8,
            drift_threshold: 2.0,
            shadow_requests: 8,
            agree_tol: 0.25,
            promote_agreement: 0.5,
            guard_requests: 8,
            guard_band: 1.5,
            history: 2,
            retrain_budget_s: 1.0,
        }
    }

    #[test]
    fn clean_traffic_never_drifts() {
        let mut lc = Lifecycle::new(cfg(), FaultPlan::none(), 7, None);
        let (shadows, entries) = feed(&mut lc, 500, 0.0, 1.0);
        assert!(shadows.is_empty(), "{shadows:?}");
        assert!(entries.is_empty(), "{entries:?}");
        assert_eq!(lc.stats.drifts, 0);
        assert_eq!(lc.active_version(), 0);
        assert!(lc.serve_ea(&[0.5]).is_none(), "base model keeps serving");
    }

    #[test]
    fn drift_burst_triggers_retrain_shadow_and_promotion() {
        // force a drift burst in every epoch; no other lifecycle faults
        let mut lc = Lifecycle::new(cfg(), plan("drift_burst=1.0,seed=3"), 7, None);
        let (_, entries) = feed(&mut lc, 400, 0.0, 1.0);
        assert!(lc.stats.drifts >= 1, "{:?}", lc.stats);
        assert!(lc.stats.retrains >= 1, "{:?}", lc.stats);
        assert!(lc.stats.shadow_scored >= 8, "{:?}", lc.stats);
        assert!(lc.stats.promotions >= 1, "{:?}", lc.stats);
        assert!(
            entries.iter().any(|e| matches!(e, Entry::Promote { .. })),
            "promotion event emitted"
        );
        // every promotion is confirmed, rolled back, or still in guard
        assert!(
            lc.stats.guard_passes + lc.stats.rollbacks <= lc.stats.promotions,
            "{:?}",
            lc.stats
        );
        // when a version is active at the end, it serves
        if lc.active_version() > 0 {
            assert!(lc.serve_ea(&[0.5, 0.2]).is_some());
        }
    }

    #[test]
    fn corrupt_promotion_rolls_back_to_the_previous_version() {
        let mut lc = Lifecycle::new(
            cfg(),
            plan("drift_burst=1.0,promote_corrupt=1.0,seed=3"),
            7,
            None,
        );
        feed(&mut lc, 600, 0.0, 1.0);
        assert!(lc.stats.promotions >= 1, "{:?}", lc.stats);
        assert!(
            lc.stats.rollbacks >= 1,
            "every corrupt promotion must roll back: {:?}",
            lc.stats
        );
    }

    #[test]
    fn injected_retrain_failures_abandon_the_candidate() {
        let mut lc = Lifecycle::new(
            cfg(),
            plan("drift_burst=1.0,retrain_fail=1.0,seed=3"),
            7,
            None,
        );
        let (_, entries) = feed(&mut lc, 300, 0.0, 1.0);
        assert!(lc.stats.retrain_failures >= 1, "{:?}", lc.stats);
        assert_eq!(lc.stats.retrains, 0);
        assert_eq!(lc.stats.promotions, 0);
        assert!(entries
            .iter()
            .any(|e| matches!(e, Entry::RetrainFail { .. })));
    }

    #[test]
    fn injected_slow_retrains_blow_the_budget_and_abort() {
        let mut lc = Lifecycle::new(
            cfg(),
            plan("drift_burst=1.0,retrain_slow=1.0,seed=3"),
            7,
            None,
        );
        feed(&mut lc, 300, 0.0, 1.0);
        assert!(lc.stats.retrain_slows >= 1, "{:?}", lc.stats);
        assert_eq!(lc.stats.retrains, 0);
    }

    #[test]
    fn lifecycle_is_bit_identical_across_reruns() {
        let run = || {
            let mut lc = Lifecycle::new(
                cfg(),
                plan("drift_burst=0.7,retrain_fail=0.2,promote_corrupt=0.4,seed=9"),
                11,
                Some(2),
            );
            feed(&mut lc, 800, 0.0, 1.0);
            (
                lc.stats,
                lc.active_version(),
                lc.serve_ea(&[0.4, 0.1]).map(|(v, ea)| (v, ea.to_bits())),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn validation_rejects_nonsense() {
        let ok = AdaptConfig {
            enabled: true,
            ..AdaptConfig::default()
        };
        assert!(ok.validate().is_ok());
        assert!(AdaptConfig::default().validate().is_ok(), "disabled skips");
        for bad in [
            AdaptConfig { epoch_s: 0.0, ..ok },
            AdaptConfig { window: 1, ..ok },
            AdaptConfig {
                min_samples: 1,
                ..ok
            },
            AdaptConfig {
                min_samples: 10_000,
                ..ok
            },
            AdaptConfig {
                drift_threshold: f64::NAN,
                ..ok
            },
            AdaptConfig {
                shadow_requests: 0,
                ..ok
            },
            AdaptConfig {
                agree_tol: -1.0,
                ..ok
            },
            AdaptConfig {
                promote_agreement: 1.5,
                ..ok
            },
            AdaptConfig {
                guard_requests: 0,
                ..ok
            },
            AdaptConfig {
                guard_band: 0.5,
                ..ok
            },
            AdaptConfig { history: 0, ..ok },
            AdaptConfig {
                retrain_budget_s: 0.0,
                ..ok
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }
}
