//! The typed scenario spec: sections, defaults, the central typed setter,
//! and the canonical serializer.
//!
//! A [`ScenarioSpec`] owns every knob the `stca` subcommands used to parse
//! ad hoc: workloads, CAT layout, fault plan, profiling, training, policy
//! search, serving, tracing, and artifact outputs. Three invariants shape
//! the API:
//!
//! * **One setter.** [`ScenarioSpec::set`] is the only way a key gets a
//!   value — the file parser and the CLI flag-override layer both go
//!   through it, so a flag and a spec line cannot disagree about types,
//!   ranges, or spelling.
//! * **Strict keys.** Unknown sections and keys are errors
//!   ([`SpecErrorKind::UnknownKey`] naming the valid set), not warnings.
//! * **Canonical form.** [`ScenarioSpec::canonical`] emits every section
//!   fully resolved, in schema order, with round-trip-exact float
//!   formatting — `parse(canonical(s)) == s` and
//!   `canonical(parse(canonical(s))) == canonical(s)` byte-for-byte.
//!
//! Override precedence is *flag beats spec beats default*: a spec starts
//! from [`ScenarioSpec::default`], the file applies its keys, then the CLI
//! applies flag overrides — later writes win.

use stca_fault::FaultPlan;
use stca_serve::{OverloadPolicy, RouterKind};
use stca_util::{SpecErrorKind, SpecLocation};
use stca_workloads::BenchmarkId;

/// The pipeline stages a scenario can run, in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Profile random conditions of the pair into Eq.-2 rows.
    Profile,
    /// Validate/summarize the profiled rows into the training dataset.
    Dataset,
    /// Train the EA + base-service models.
    Train,
    /// Grid policy search over timeout vectors.
    Explore,
    /// Replay the serving loop.
    Serve,
}

impl Stage {
    /// All stages in canonical pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Profile,
        Stage::Dataset,
        Stage::Train,
        Stage::Explore,
        Stage::Serve,
    ];

    /// The spec token for this stage.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Profile => "profile",
            Stage::Dataset => "dataset",
            Stage::Train => "train",
            Stage::Explore => "explore",
            Stage::Serve => "serve",
        }
    }

    /// Parse a spec token.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|st| st.name() == s)
    }

    /// The valid stage tokens, for error messages.
    pub const NAMES: [&'static str; 5] = ["profile", "dataset", "train", "explore", "serve"];
}

/// Which model configuration the train stage uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `standard` when the dataset has >= 30 rows, else `quick` — the
    /// historical CLI behavior.
    Auto,
    /// The fast test-scale configuration.
    Quick,
    /// The paper-shaped mid-size configuration.
    Standard,
    /// Single-level cascade, no MGS (Figure 8e's "simple ML").
    SimpleMl,
}

impl ModelKind {
    /// The spec token for this kind.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Auto => "auto",
            ModelKind::Quick => "quick",
            ModelKind::Standard => "standard",
            ModelKind::SimpleMl => "simple-ml",
        }
    }

    /// The valid tokens, for error messages.
    pub const NAMES: [&'static str; 4] = ["auto", "quick", "standard", "simple-ml"];
}

/// Which predictor tier the serve stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// The analytic EA tier; no training required.
    Analytic,
    /// The deep-forest predictor trained by the train stage.
    Trained,
}

impl PredictorKind {
    /// The spec token for this kind.
    pub fn name(&self) -> &'static str {
        match self {
            PredictorKind::Analytic => "analytic",
            PredictorKind::Trained => "trained",
        }
    }
}

/// `[scenario]` — identity and pipeline shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSection {
    /// Scenario name; also the default artifact directory stem.
    pub name: String,
    /// Stages to run, in canonical order.
    pub pipeline: Vec<Stage>,
}

/// `[workloads]` — what is collocated.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadsSection {
    /// The collocated benchmark pair.
    pub pair: (BenchmarkId, BenchmarkId),
    /// Synthetic accesses per measurement in `stca characterize`.
    pub accesses: u64,
}

/// `[cat]` — the CAT way layout of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CatSection {
    /// LLC ways of the experiment geometry; 0 keeps the scaled-down
    /// experiment default.
    pub ways: u64,
    /// Ways in each workload's default (private) span.
    pub default_span: u64,
    /// Ways in the short-term boosted span.
    pub boosted_span: u64,
}

/// `[fault]` — the injected fault plan and retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSection {
    /// The resolved fault plan.
    pub plan: FaultPlan,
    /// Retry budget per experiment.
    pub max_retries: u32,
}

/// `[profile]` — stage-1 profiling.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSection {
    /// Random Table-2 conditions to profile.
    pub conditions: u64,
    /// Condition-draw and experiment seed.
    pub seed: u64,
    /// Output profile store, relative to the artifact dir in pipeline
    /// runs.
    pub out: String,
    /// Measured queries per workload per condition.
    pub measured_queries: u64,
    /// Warm-up queries per workload per condition.
    pub warmup_queries: u64,
    /// Mean accesses per query override; 0 keeps each benchmark's default.
    pub accesses_per_query: u64,
}

/// `[train]` — stage-2 model training.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSection {
    /// Which model configuration to train.
    pub model: ModelKind,
    /// Training seed.
    pub seed: u64,
}

/// `[explore]` — stage-3 policy search.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSection {
    /// Arrival intensity the search evaluates at.
    pub utilization: f64,
    /// Timeout grid (multiples of service time), ascending.
    pub grid: Vec<f64>,
}

/// `[predict]` — a single point query of the trained model.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictSection {
    /// Arrival intensity of the queried condition.
    pub utilization: f64,
    /// Timeout for workload A.
    pub timeout_a: f64,
    /// Timeout for workload B.
    pub timeout_b: f64,
}

/// `[serve]` — the online serving loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSection {
    /// Requests to replay.
    pub requests: u64,
    /// Mean arrival rate, requests per virtual second.
    pub rate: f64,
    /// Per-request deadline budget, virtual seconds.
    pub deadline_s: f64,
    /// Control-loop workers.
    pub servers: u64,
    /// Admission queue capacity.
    pub queue_capacity: u64,
    /// Full-queue policy.
    pub overload: OverloadPolicy,
    /// Consecutive agreeing decisions before a policy change applies.
    pub hysteresis_k: u64,
    /// Consecutive primary failures that open the circuit breaker.
    pub breaker_threshold: u64,
    /// Open-state cooldown before half-open probes, virtual seconds.
    pub breaker_cooldown_s: f64,
    /// Drain window after the last arrival, virtual seconds.
    pub drain_grace_s: f64,
    /// Replay seed (breaker and trace seeds derive from it).
    pub seed: u64,
    /// Which predictor tier serves.
    pub predictor: PredictorKind,
}

/// `[serve.fleet]` — the sharded serving fleet. `shards = 1` (the
/// default) is the plain serving loop, a one-shard fleet that ignores
/// shard faults; `shards >= 2` adds per-shard fault domains and failover
/// routing. Per-shard seeds derive from `serve.seed` as
/// `seed ^ (shard_id << 24)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSection {
    /// Number of shards (independent fault domains); 1 = the plain loop.
    pub shards: u64,
    /// Routing discipline: `rendezvous` or `least-loaded`.
    pub router: RouterKind,
    /// Maximum reroute hops before the router sheds a crash-flushed
    /// request.
    pub reroute_max: u64,
}

/// `[serve.adapt]` — the drift-aware model lifecycle. Disabled by
/// default; when enabled, each shard watches EA residuals and the
/// feature distribution, retrains a warm-start candidate on drift,
/// shadow-scores it, and promotes it behind a guard band with automatic
/// rollback. Keys mirror `stca_serve::AdaptConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptSection {
    /// Whether the lifecycle runs at all.
    pub enabled: bool,
    /// Virtual seconds per lifecycle epoch (fault rolls are per-epoch).
    pub epoch_s: f64,
    /// Sliding residual/feature window size (retraining rows).
    pub window: u64,
    /// Observations before the drift detector may fire.
    pub min_samples: u64,
    /// Combined Page-Hinkley / distribution-shift score that triggers a
    /// retrain.
    pub drift_threshold: f64,
    /// Completed requests a candidate is shadow-scored on.
    pub shadow_requests: u64,
    /// Absolute EA tolerance for a shadow prediction to "agree".
    pub agree_tol: f64,
    /// Minimum shadow agreement fraction required to promote.
    pub promote_agreement: f64,
    /// Completed requests the post-promotion guard window watches.
    pub guard_requests: u64,
    /// Allowed residual/deadline regression factor before rollback.
    pub guard_band: f64,
    /// Bounded model-version history depth (rollback targets).
    pub history: u64,
    /// Virtual-seconds retrain budget; slower injected retrains abort.
    pub retrain_budget_s: f64,
}

/// `[trace]` — the per-request flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSection {
    /// Whether tracing is on.
    pub enabled: bool,
    /// Head-sample 1 in N completed requests.
    pub sample_every: u64,
    /// Sampled-completion ring capacity.
    pub ring_capacity: u64,
}

/// `[artifacts]` — what gets written where.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactsSection {
    /// Artifact directory for pipeline runs; empty means `runs/<name>`.
    pub dir: String,
    /// Decision-log file; empty means off for `stca serve`, the default
    /// name for pipeline runs.
    pub decision_log: String,
    /// JSON health snapshot file; empty means off / default.
    pub health: String,
    /// JSON metrics report file; empty means off / default.
    pub metrics: String,
    /// Chrome trace JSON file; empty means off / default.
    pub trace_json: String,
    /// SVG trace waterfall file; empty means off / default.
    pub trace_svg: String,
}

/// A fully resolved scenario: every section, every key.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// `[scenario]`
    pub scenario: ScenarioSection,
    /// `[workloads]`
    pub workloads: WorkloadsSection,
    /// `[cat]`
    pub cat: CatSection,
    /// `[fault]`
    pub fault: FaultSection,
    /// `[profile]`
    pub profile: ProfileSection,
    /// `[train]`
    pub train: TrainSection,
    /// `[explore]`
    pub explore: ExploreSection,
    /// `[predict]`
    pub predict: PredictSection,
    /// `[serve]`
    pub serve: ServeSection,
    /// `[serve.fleet]`
    pub fleet: FleetSection,
    /// `[serve.adapt]`
    pub adapt: AdaptSection,
    /// `[trace]`
    pub trace: TraceSection,
    /// `[artifacts]`
    pub artifacts: ArtifactsSection,
}

impl Default for ScenarioSpec {
    /// Defaults match the historical `stca` flag defaults exactly, so a
    /// flag-built spec with no flags behaves byte-identically to the
    /// pre-spec CLI.
    fn default() -> Self {
        ScenarioSpec {
            scenario: ScenarioSection {
                name: "unnamed".to_string(),
                pipeline: Stage::ALL.to_vec(),
            },
            workloads: WorkloadsSection {
                pair: (BenchmarkId::Kmeans, BenchmarkId::Bfs),
                accesses: 100_000,
            },
            cat: CatSection {
                ways: 0,
                default_span: 2,
                boosted_span: 2,
            },
            fault: FaultSection {
                plan: FaultPlan::none(),
                max_retries: 3,
            },
            profile: ProfileSection {
                conditions: 10,
                seed: 2022,
                out: "profiles.stca".to_string(),
                measured_queries: 200,
                warmup_queries: 30,
                accesses_per_query: 1500,
            },
            train: TrainSection {
                model: ModelKind::Auto,
                seed: 7,
            },
            explore: ExploreSection {
                utilization: 0.9,
                grid: vec![0.25, 0.75, 1.5, 3.0, 6.0],
            },
            predict: PredictSection {
                utilization: 0.9,
                timeout_a: 1.5,
                timeout_b: 1.5,
            },
            serve: ServeSection {
                requests: 100_000,
                rate: 200.0,
                deadline_s: 0.5,
                servers: 2,
                queue_capacity: 64,
                overload: OverloadPolicy::ShedNewest,
                hysteresis_k: 4,
                breaker_threshold: 5,
                breaker_cooldown_s: 1.0,
                drain_grace_s: 5.0,
                seed: 2022,
                predictor: PredictorKind::Analytic,
            },
            fleet: FleetSection {
                shards: 1,
                router: RouterKind::Rendezvous,
                reroute_max: 2,
            },
            adapt: AdaptSection {
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
            },
            trace: TraceSection {
                enabled: false,
                sample_every: 64,
                ring_capacity: 256,
            },
            artifacts: ArtifactsSection {
                dir: String::new(),
                decision_log: String::new(),
                health: String::new(),
                metrics: String::new(),
                trace_json: String::new(),
                trace_svg: String::new(),
            },
        }
    }
}

/// The section names, in canonical order.
pub const SECTIONS: [&str; 13] = [
    "scenario",
    "workloads",
    "cat",
    "fault",
    "profile",
    "train",
    "explore",
    "predict",
    "serve",
    "serve.fleet",
    "serve.adapt",
    "trace",
    "artifacts",
];

const SCENARIO_KEYS: [&str; 2] = ["name", "pipeline"];
const WORKLOADS_KEYS: [&str; 2] = ["pair", "accesses"];
const CAT_KEYS: [&str; 3] = ["ways", "default_span", "boosted_span"];
const FAULT_KEYS: [&str; 19] = [
    "plan",
    "max_retries",
    "seed",
    "crash",
    "timeout",
    "dropout",
    "corrupt",
    "stuck",
    "noise",
    "latency",
    "predict_fail",
    "stall",
    "shard_crash",
    "shard_stall",
    "shard_flap",
    "drift_burst",
    "retrain_fail",
    "retrain_slow",
    "promote_corrupt",
];
const PROFILE_KEYS: [&str; 6] = [
    "conditions",
    "seed",
    "out",
    "measured_queries",
    "warmup_queries",
    "accesses_per_query",
];
const TRAIN_KEYS: [&str; 2] = ["model", "seed"];
const EXPLORE_KEYS: [&str; 2] = ["utilization", "grid"];
const PREDICT_KEYS: [&str; 3] = ["utilization", "timeout_a", "timeout_b"];
const SERVE_KEYS: [&str; 12] = [
    "requests",
    "rate",
    "deadline_s",
    "servers",
    "queue_capacity",
    "overload",
    "hysteresis_k",
    "breaker_threshold",
    "breaker_cooldown_s",
    "drain_grace_s",
    "seed",
    "predictor",
];
const FLEET_KEYS: [&str; 3] = ["shards", "router", "reroute_max"];
const ADAPT_KEYS: [&str; 12] = [
    "enabled",
    "epoch_s",
    "window",
    "min_samples",
    "drift_threshold",
    "shadow_requests",
    "agree_tol",
    "promote_agreement",
    "guard_requests",
    "guard_band",
    "history",
    "retrain_budget_s",
];
const TRACE_KEYS: [&str; 3] = ["enabled", "sample_every", "ring_capacity"];
const ARTIFACTS_KEYS: [&str; 6] = [
    "dir",
    "decision_log",
    "health",
    "metrics",
    "trace_json",
    "trace_svg",
];

/// The valid keys of a section, or `None` for an unknown section.
pub fn keys_of(section: &str) -> Option<&'static [&'static str]> {
    Some(match section {
        "scenario" => &SCENARIO_KEYS,
        "workloads" => &WORKLOADS_KEYS,
        "cat" => &CAT_KEYS,
        "fault" => &FAULT_KEYS,
        "profile" => &PROFILE_KEYS,
        "train" => &TRAIN_KEYS,
        "explore" => &EXPLORE_KEYS,
        "predict" => &PREDICT_KEYS,
        "serve" => &SERVE_KEYS,
        "serve.fleet" => &FLEET_KEYS,
        "serve.adapt" => &ADAPT_KEYS,
        "trace" => &TRACE_KEYS,
        "artifacts" => &ARTIFACTS_KEYS,
        _ => return None,
    })
}

/// A value handed to [`ScenarioSpec::set`]: one scalar token or a list of
/// scalar tokens. The file parser produces these from TOML-subset values;
/// the flag layer produces them from flag strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecValue {
    /// One scalar: number, bool, or string content (already unquoted).
    Scalar(String),
    /// A list of scalar tokens.
    List(Vec<String>),
}

impl SpecValue {
    /// A scalar from anything stringy.
    pub fn scalar(s: impl Into<String>) -> Self {
        SpecValue::Scalar(s.into())
    }

    fn expect_scalar<'a>(&'a self, key: &str) -> Result<&'a str, SpecErrorKind> {
        match self {
            SpecValue::Scalar(s) => Ok(s),
            SpecValue::List(_) => Err(SpecErrorKind::BadValue {
                key: key.to_string(),
                value: "[...]".to_string(),
                want: "a scalar, not a list".to_string(),
            }),
        }
    }

    /// The value as list items: a list as-is, a scalar split on commas
    /// (so `--grid 0.25,0.75` works as a flag override).
    fn items(&self) -> Vec<String> {
        match self {
            SpecValue::List(xs) => xs.clone(),
            SpecValue::Scalar(s) => s
                .split(',')
                .map(|t| t.trim().to_string())
                .filter(|t| !t.is_empty())
                .collect(),
        }
    }
}

fn bad(key: &str, value: &str, want: &str) -> SpecErrorKind {
    SpecErrorKind::BadValue {
        key: key.to_string(),
        value: value.to_string(),
        want: want.to_string(),
    }
}

fn parse_u64(key: &str, v: &str) -> Result<u64, SpecErrorKind> {
    v.parse().map_err(|_| bad(key, v, "a u64"))
}

fn parse_f64(key: &str, v: &str) -> Result<f64, SpecErrorKind> {
    let x: f64 = v.parse().map_err(|_| bad(key, v, "a number"))?;
    if !x.is_finite() {
        return Err(bad(key, v, "a finite number"));
    }
    Ok(x)
}

fn parse_pos_f64(key: &str, v: &str) -> Result<f64, SpecErrorKind> {
    let x = parse_f64(key, v)?;
    if x <= 0.0 {
        return Err(SpecErrorKind::OutOfRange {
            key: key.to_string(),
            value: v.to_string(),
            range: "> 0".to_string(),
        });
    }
    Ok(x)
}

fn parse_nonneg_f64(key: &str, v: &str) -> Result<f64, SpecErrorKind> {
    let x = parse_f64(key, v)?;
    if x < 0.0 {
        return Err(SpecErrorKind::OutOfRange {
            key: key.to_string(),
            value: v.to_string(),
            range: ">= 0".to_string(),
        });
    }
    Ok(x)
}

fn parse_bool(key: &str, v: &str) -> Result<bool, SpecErrorKind> {
    match v {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(bad(key, v, "true or false")),
    }
}

impl ScenarioSpec {
    /// Set one key. `section` and `key` are spec-file names; flag
    /// overrides map their flag names onto the same pairs. Unknown
    /// sections/keys and ill-typed values are rejected with errors naming
    /// the valid alternatives. The caller supplies file/line context.
    pub fn set(
        &mut self,
        section: &str,
        key: &str,
        value: &SpecValue,
    ) -> Result<(), SpecErrorKind> {
        let valid = keys_of(section).ok_or_else(|| SpecErrorKind::UnknownKey {
            key: section.to_string(),
            valid: &SECTIONS,
        })?;
        if !valid.contains(&key) {
            return Err(SpecErrorKind::UnknownKey {
                key: key.to_string(),
                valid,
            });
        }
        match (section, key) {
            ("scenario", "name") => {
                self.scenario.name = value.expect_scalar(key)?.to_string();
            }
            ("scenario", "pipeline") => {
                let mut stages = Vec::new();
                for item in value.items() {
                    let stage = Stage::parse(&item).ok_or_else(|| SpecErrorKind::UnknownKey {
                        key: item.clone(),
                        valid: &Stage::NAMES,
                    })?;
                    stages.push(stage);
                }
                if stages.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(bad(
                        key,
                        &stages
                            .iter()
                            .map(|s| s.name())
                            .collect::<Vec<_>>()
                            .join(","),
                        "stages in pipeline order (profile, dataset, train, explore, serve) \
                         without duplicates",
                    ));
                }
                self.scenario.pipeline = stages;
            }
            ("workloads", "pair") => {
                let v = value.expect_scalar(key)?;
                self.workloads.pair =
                    BenchmarkId::parse_pair(v).map_err(|e| bad(key, v, &e.to_string()))?;
            }
            ("workloads", "accesses") => {
                self.workloads.accesses = parse_u64(key, value.expect_scalar(key)?)?;
            }
            ("cat", "ways") => self.cat.ways = parse_u64(key, value.expect_scalar(key)?)?,
            ("cat", "default_span") => {
                let n = parse_u64(key, value.expect_scalar(key)?)?;
                if n == 0 {
                    return Err(SpecErrorKind::OutOfRange {
                        key: key.to_string(),
                        value: "0".to_string(),
                        range: ">= 1 way".to_string(),
                    });
                }
                self.cat.default_span = n;
            }
            ("cat", "boosted_span") => {
                let n = parse_u64(key, value.expect_scalar(key)?)?;
                if n == 0 {
                    return Err(SpecErrorKind::OutOfRange {
                        key: key.to_string(),
                        value: "0".to_string(),
                        range: ">= 1 way".to_string(),
                    });
                }
                self.cat.boosted_span = n;
            }
            ("fault", "plan") => {
                let v = value.expect_scalar(key)?;
                self.fault.plan = FaultPlan::parse_spec(v, "fault plan")
                    .map_err(|e| bad(key, v, &e.to_string()))?;
            }
            ("fault", "max_retries") => {
                let v = value.expect_scalar(key)?;
                let n = parse_u64(key, v)?;
                self.fault.max_retries =
                    u32::try_from(n).map_err(|_| bad(key, v, "a u32 retry budget"))?;
            }
            ("fault", _) => {
                // the remaining fault keys are FaultPlan's own
                self.fault.plan.set(key, value.expect_scalar(key)?)?;
            }
            ("profile", "conditions") => {
                self.profile.conditions = parse_u64(key, value.expect_scalar(key)?)?;
            }
            ("profile", "seed") => self.profile.seed = parse_u64(key, value.expect_scalar(key)?)?,
            ("profile", "out") => self.profile.out = value.expect_scalar(key)?.to_string(),
            ("profile", "measured_queries") => {
                self.profile.measured_queries = parse_u64(key, value.expect_scalar(key)?)?;
            }
            ("profile", "warmup_queries") => {
                self.profile.warmup_queries = parse_u64(key, value.expect_scalar(key)?)?;
            }
            ("profile", "accesses_per_query") => {
                self.profile.accesses_per_query = parse_u64(key, value.expect_scalar(key)?)?;
            }
            ("train", "model") => {
                let v = value.expect_scalar(key)?;
                self.train.model = match v {
                    "auto" => ModelKind::Auto,
                    "quick" => ModelKind::Quick,
                    "standard" => ModelKind::Standard,
                    "simple-ml" => ModelKind::SimpleMl,
                    _ => {
                        return Err(SpecErrorKind::UnknownKey {
                            key: v.to_string(),
                            valid: &ModelKind::NAMES,
                        })
                    }
                };
            }
            ("train", "seed") => self.train.seed = parse_u64(key, value.expect_scalar(key)?)?,
            ("explore", "utilization") => {
                self.explore.utilization = parse_pos_f64(key, value.expect_scalar(key)?)?;
            }
            ("explore", "grid") => {
                let items = value.items();
                if items.is_empty() {
                    return Err(bad(key, "[]", "at least one grid point"));
                }
                let mut grid = Vec::with_capacity(items.len());
                for item in &items {
                    let x = parse_f64(key, item)?;
                    if x < 0.0 {
                        return Err(SpecErrorKind::OutOfRange {
                            key: key.to_string(),
                            value: item.clone(),
                            range: "timeout ratios >= 0".to_string(),
                        });
                    }
                    grid.push(x);
                }
                self.explore.grid = grid;
            }
            ("predict", "utilization") => {
                self.predict.utilization = parse_pos_f64(key, value.expect_scalar(key)?)?;
            }
            ("predict", "timeout_a") => {
                self.predict.timeout_a = parse_nonneg_f64(key, value.expect_scalar(key)?)?;
            }
            ("predict", "timeout_b") => {
                self.predict.timeout_b = parse_nonneg_f64(key, value.expect_scalar(key)?)?;
            }
            ("serve", "requests") => {
                self.serve.requests = parse_u64(key, value.expect_scalar(key)?)?;
            }
            ("serve", "rate") => self.serve.rate = parse_pos_f64(key, value.expect_scalar(key)?)?,
            ("serve", "deadline_s") => {
                self.serve.deadline_s = parse_pos_f64(key, value.expect_scalar(key)?)?;
            }
            ("serve", "servers") => {
                let n = parse_u64(key, value.expect_scalar(key)?)?;
                if n == 0 {
                    return Err(SpecErrorKind::OutOfRange {
                        key: key.to_string(),
                        value: "0".to_string(),
                        range: ">= 1 server".to_string(),
                    });
                }
                self.serve.servers = n;
            }
            ("serve", "queue_capacity") => {
                self.serve.queue_capacity = parse_u64(key, value.expect_scalar(key)?)?;
            }
            ("serve", "overload") => {
                let v = value.expect_scalar(key)?;
                self.serve.overload =
                    OverloadPolicy::parse(v).map_err(|_| SpecErrorKind::UnknownKey {
                        key: v.to_string(),
                        valid: &["shed-newest", "shed-oldest", "block"],
                    })?;
            }
            ("serve", "hysteresis_k") => {
                self.serve.hysteresis_k = parse_u64(key, value.expect_scalar(key)?)?;
            }
            ("serve", "breaker_threshold") => {
                self.serve.breaker_threshold = parse_u64(key, value.expect_scalar(key)?)?;
            }
            ("serve", "breaker_cooldown_s") => {
                self.serve.breaker_cooldown_s = parse_nonneg_f64(key, value.expect_scalar(key)?)?;
            }
            ("serve", "drain_grace_s") => {
                self.serve.drain_grace_s = parse_nonneg_f64(key, value.expect_scalar(key)?)?;
            }
            ("serve", "seed") => self.serve.seed = parse_u64(key, value.expect_scalar(key)?)?,
            ("serve", "predictor") => {
                let v = value.expect_scalar(key)?;
                self.serve.predictor = match v {
                    "analytic" => PredictorKind::Analytic,
                    "trained" => PredictorKind::Trained,
                    _ => {
                        return Err(SpecErrorKind::UnknownKey {
                            key: v.to_string(),
                            valid: &["analytic", "trained"],
                        })
                    }
                };
            }
            ("serve.fleet", "shards") => {
                let n = parse_u64(key, value.expect_scalar(key)?)?;
                if n == 0 || n > 1024 {
                    return Err(SpecErrorKind::OutOfRange {
                        key: key.to_string(),
                        value: n.to_string(),
                        range: "1..=1024 shards".to_string(),
                    });
                }
                self.fleet.shards = n;
            }
            ("serve.fleet", "router") => {
                let v = value.expect_scalar(key)?;
                self.fleet.router =
                    RouterKind::parse(v).map_err(|_| SpecErrorKind::UnknownKey {
                        key: v.to_string(),
                        valid: &["rendezvous", "least-loaded"],
                    })?;
            }
            ("serve.fleet", "reroute_max") => {
                self.fleet.reroute_max = parse_u64(key, value.expect_scalar(key)?)?;
            }
            ("serve.adapt", "enabled") => {
                self.adapt.enabled = parse_bool(key, value.expect_scalar(key)?)?;
            }
            ("serve.adapt", "epoch_s") => {
                self.adapt.epoch_s = parse_pos_f64(key, value.expect_scalar(key)?)?;
            }
            ("serve.adapt", "window") => {
                let n = parse_u64(key, value.expect_scalar(key)?)?;
                if n < 2 {
                    return Err(SpecErrorKind::OutOfRange {
                        key: key.to_string(),
                        value: n.to_string(),
                        range: ">= 2 rows".to_string(),
                    });
                }
                self.adapt.window = n;
            }
            ("serve.adapt", "min_samples") => {
                let n = parse_u64(key, value.expect_scalar(key)?)?;
                if n < 2 {
                    return Err(SpecErrorKind::OutOfRange {
                        key: key.to_string(),
                        value: n.to_string(),
                        range: ">= 2 observations".to_string(),
                    });
                }
                self.adapt.min_samples = n;
            }
            ("serve.adapt", "drift_threshold") => {
                self.adapt.drift_threshold = parse_pos_f64(key, value.expect_scalar(key)?)?;
            }
            ("serve.adapt", "shadow_requests") => {
                let n = parse_u64(key, value.expect_scalar(key)?)?;
                if n == 0 {
                    return Err(SpecErrorKind::OutOfRange {
                        key: key.to_string(),
                        value: "0".to_string(),
                        range: ">= 1 request".to_string(),
                    });
                }
                self.adapt.shadow_requests = n;
            }
            ("serve.adapt", "agree_tol") => {
                self.adapt.agree_tol = parse_nonneg_f64(key, value.expect_scalar(key)?)?;
            }
            ("serve.adapt", "promote_agreement") => {
                let v = value.expect_scalar(key)?;
                let x = parse_nonneg_f64(key, v)?;
                if x > 1.0 {
                    return Err(SpecErrorKind::OutOfRange {
                        key: key.to_string(),
                        value: v.to_string(),
                        range: "a fraction in 0..=1".to_string(),
                    });
                }
                self.adapt.promote_agreement = x;
            }
            ("serve.adapt", "guard_requests") => {
                let n = parse_u64(key, value.expect_scalar(key)?)?;
                if n == 0 {
                    return Err(SpecErrorKind::OutOfRange {
                        key: key.to_string(),
                        value: "0".to_string(),
                        range: ">= 1 request".to_string(),
                    });
                }
                self.adapt.guard_requests = n;
            }
            ("serve.adapt", "guard_band") => {
                let v = value.expect_scalar(key)?;
                let x = parse_f64(key, v)?;
                if x < 1.0 {
                    return Err(SpecErrorKind::OutOfRange {
                        key: key.to_string(),
                        value: v.to_string(),
                        range: "a regression factor >= 1".to_string(),
                    });
                }
                self.adapt.guard_band = x;
            }
            ("serve.adapt", "history") => {
                let n = parse_u64(key, value.expect_scalar(key)?)?;
                if n == 0 {
                    return Err(SpecErrorKind::OutOfRange {
                        key: key.to_string(),
                        value: "0".to_string(),
                        range: ">= 1 version".to_string(),
                    });
                }
                self.adapt.history = n;
            }
            ("serve.adapt", "retrain_budget_s") => {
                self.adapt.retrain_budget_s = parse_pos_f64(key, value.expect_scalar(key)?)?;
            }
            ("trace", "enabled") => {
                self.trace.enabled = parse_bool(key, value.expect_scalar(key)?)?;
            }
            ("trace", "sample_every") => {
                self.trace.sample_every = parse_u64(key, value.expect_scalar(key)?)?;
            }
            ("trace", "ring_capacity") => {
                self.trace.ring_capacity = parse_u64(key, value.expect_scalar(key)?)?;
            }
            ("artifacts", "dir") => self.artifacts.dir = value.expect_scalar(key)?.to_string(),
            ("artifacts", "decision_log") => {
                self.artifacts.decision_log = value.expect_scalar(key)?.to_string();
            }
            ("artifacts", "health") => {
                self.artifacts.health = value.expect_scalar(key)?.to_string();
            }
            ("artifacts", "metrics") => {
                self.artifacts.metrics = value.expect_scalar(key)?.to_string();
            }
            ("artifacts", "trace_json") => {
                self.artifacts.trace_json = value.expect_scalar(key)?.to_string();
            }
            ("artifacts", "trace_svg") => {
                self.artifacts.trace_svg = value.expect_scalar(key)?.to_string();
            }
            _ => unreachable!("key {key:?} listed for section {section:?} but not handled"),
        }
        Ok(())
    }

    /// The canonical serialized form: every section, every key, schema
    /// order, fully resolved (presets and sugar keys like `fault.plan` do
    /// not survive — their effects do). Parsing the canonical form yields
    /// an equal spec, and canonicalizing is idempotent byte-for-byte.
    pub fn canonical(&self) -> String {
        let mut out = String::with_capacity(1024);
        let p = &mut out;
        sec(p, "scenario");
        kv_str(p, "name", &self.scenario.name);
        kv_list(
            p,
            "pipeline",
            &self
                .scenario
                .pipeline
                .iter()
                .map(|s| quote(s.name()))
                .collect::<Vec<_>>(),
        );
        sec(p, "workloads");
        kv_str(
            p,
            "pair",
            &format!("{},{}", self.workloads.pair.0, self.workloads.pair.1),
        );
        kv_raw(p, "accesses", &self.workloads.accesses.to_string());
        sec(p, "cat");
        kv_raw(p, "ways", &self.cat.ways.to_string());
        kv_raw(p, "default_span", &self.cat.default_span.to_string());
        kv_raw(p, "boosted_span", &self.cat.boosted_span.to_string());
        sec(p, "fault");
        kv_raw(p, "max_retries", &self.fault.max_retries.to_string());
        kv_raw(p, "seed", &self.fault.plan.seed.to_string());
        kv_raw(p, "crash", &fmt_f64(self.fault.plan.crash_prob));
        kv_raw(p, "timeout", &fmt_f64(self.fault.plan.timeout_prob));
        kv_raw(p, "dropout", &fmt_f64(self.fault.plan.dropout_prob));
        kv_raw(p, "corrupt", &fmt_f64(self.fault.plan.corrupt_prob));
        kv_raw(p, "stuck", &fmt_f64(self.fault.plan.stuck_prob));
        kv_raw(p, "noise", &fmt_f64(self.fault.plan.noise_rel));
        kv_raw(p, "latency", &fmt_f64(self.fault.plan.latency_mean_s));
        kv_raw(
            p,
            "predict_fail",
            &fmt_f64(self.fault.plan.predict_fail_prob),
        );
        kv_raw(p, "stall", &fmt_f64(self.fault.plan.stall_prob));
        kv_raw(p, "shard_crash", &fmt_f64(self.fault.plan.shard_crash_prob));
        kv_raw(p, "shard_stall", &fmt_f64(self.fault.plan.shard_stall_prob));
        kv_raw(p, "shard_flap", &fmt_f64(self.fault.plan.shard_flap_prob));
        kv_raw(p, "drift_burst", &fmt_f64(self.fault.plan.drift_burst_prob));
        kv_raw(
            p,
            "retrain_fail",
            &fmt_f64(self.fault.plan.retrain_fail_prob),
        );
        kv_raw(
            p,
            "retrain_slow",
            &fmt_f64(self.fault.plan.retrain_slow_prob),
        );
        kv_raw(
            p,
            "promote_corrupt",
            &fmt_f64(self.fault.plan.promote_corrupt_prob),
        );
        sec(p, "profile");
        kv_raw(p, "conditions", &self.profile.conditions.to_string());
        kv_raw(p, "seed", &self.profile.seed.to_string());
        kv_str(p, "out", &self.profile.out);
        kv_raw(
            p,
            "measured_queries",
            &self.profile.measured_queries.to_string(),
        );
        kv_raw(
            p,
            "warmup_queries",
            &self.profile.warmup_queries.to_string(),
        );
        kv_raw(
            p,
            "accesses_per_query",
            &self.profile.accesses_per_query.to_string(),
        );
        sec(p, "train");
        kv_str(p, "model", self.train.model.name());
        kv_raw(p, "seed", &self.train.seed.to_string());
        sec(p, "explore");
        kv_raw(p, "utilization", &fmt_f64(self.explore.utilization));
        kv_list(
            p,
            "grid",
            &self
                .explore
                .grid
                .iter()
                .map(|&x| fmt_f64(x))
                .collect::<Vec<_>>(),
        );
        sec(p, "predict");
        kv_raw(p, "utilization", &fmt_f64(self.predict.utilization));
        kv_raw(p, "timeout_a", &fmt_f64(self.predict.timeout_a));
        kv_raw(p, "timeout_b", &fmt_f64(self.predict.timeout_b));
        sec(p, "serve");
        kv_raw(p, "requests", &self.serve.requests.to_string());
        kv_raw(p, "rate", &fmt_f64(self.serve.rate));
        kv_raw(p, "deadline_s", &fmt_f64(self.serve.deadline_s));
        kv_raw(p, "servers", &self.serve.servers.to_string());
        kv_raw(p, "queue_capacity", &self.serve.queue_capacity.to_string());
        kv_str(p, "overload", self.serve.overload.name());
        kv_raw(p, "hysteresis_k", &self.serve.hysteresis_k.to_string());
        kv_raw(
            p,
            "breaker_threshold",
            &self.serve.breaker_threshold.to_string(),
        );
        kv_raw(
            p,
            "breaker_cooldown_s",
            &fmt_f64(self.serve.breaker_cooldown_s),
        );
        kv_raw(p, "drain_grace_s", &fmt_f64(self.serve.drain_grace_s));
        kv_raw(p, "seed", &self.serve.seed.to_string());
        kv_str(p, "predictor", self.serve.predictor.name());
        sec(p, "serve.fleet");
        kv_raw(p, "shards", &self.fleet.shards.to_string());
        kv_str(p, "router", self.fleet.router.name());
        kv_raw(p, "reroute_max", &self.fleet.reroute_max.to_string());
        sec(p, "serve.adapt");
        kv_raw(
            p,
            "enabled",
            if self.adapt.enabled { "true" } else { "false" },
        );
        kv_raw(p, "epoch_s", &fmt_f64(self.adapt.epoch_s));
        kv_raw(p, "window", &self.adapt.window.to_string());
        kv_raw(p, "min_samples", &self.adapt.min_samples.to_string());
        kv_raw(p, "drift_threshold", &fmt_f64(self.adapt.drift_threshold));
        kv_raw(
            p,
            "shadow_requests",
            &self.adapt.shadow_requests.to_string(),
        );
        kv_raw(p, "agree_tol", &fmt_f64(self.adapt.agree_tol));
        kv_raw(
            p,
            "promote_agreement",
            &fmt_f64(self.adapt.promote_agreement),
        );
        kv_raw(p, "guard_requests", &self.adapt.guard_requests.to_string());
        kv_raw(p, "guard_band", &fmt_f64(self.adapt.guard_band));
        kv_raw(p, "history", &self.adapt.history.to_string());
        kv_raw(p, "retrain_budget_s", &fmt_f64(self.adapt.retrain_budget_s));
        sec(p, "trace");
        kv_raw(
            p,
            "enabled",
            if self.trace.enabled { "true" } else { "false" },
        );
        kv_raw(p, "sample_every", &self.trace.sample_every.to_string());
        kv_raw(p, "ring_capacity", &self.trace.ring_capacity.to_string());
        sec(p, "artifacts");
        kv_str(p, "dir", &self.artifacts.dir);
        kv_str(p, "decision_log", &self.artifacts.decision_log);
        kv_str(p, "health", &self.artifacts.health);
        kv_str(p, "metrics", &self.artifacts.metrics);
        kv_str(p, "trace_json", &self.artifacts.trace_json);
        kv_str(p, "trace_svg", &self.artifacts.trace_svg);
        out
    }

    /// FNV-1a fingerprint of the canonical form — the checkpoint meta
    /// component that ties resumable pipeline state to the exact spec.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// FNV-1a over bytes; used for spec fingerprints and artifact hashes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn sec(out: &mut String, name: &str) {
    if !out.is_empty() {
        out.push('\n');
    }
    out.push('[');
    out.push_str(name);
    out.push_str("]\n");
}

fn kv_raw(out: &mut String, key: &str, value: &str) {
    out.push_str(key);
    out.push_str(" = ");
    out.push_str(value);
    out.push('\n');
}

fn kv_str(out: &mut String, key: &str, value: &str) {
    let quoted = quote(value);
    kv_raw(out, key, &quoted);
}

fn kv_list(out: &mut String, key: &str, items: &[String]) {
    let joined = items.join(", ");
    kv_raw(out, key, &format!("[{joined}]"));
}

/// Quote and escape a string value.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an `f64` so that parsing the text recovers the value exactly
/// (Rust's shortest round-trip `Display`).
pub fn fmt_f64(x: f64) -> String {
    format!("{x}")
}

/// Location helper re-exported for the parser.
pub(crate) fn at_line(line: usize) -> SpecLocation {
    SpecLocation::Line(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_historical_cli_defaults() {
        let s = ScenarioSpec::default();
        assert_eq!(s.serve.requests, 100_000);
        assert_eq!(s.serve.rate, 200.0);
        assert_eq!(s.serve.deadline_s, 0.5);
        assert_eq!(s.serve.queue_capacity, 64);
        assert_eq!(s.serve.hysteresis_k, 4);
        assert_eq!(s.profile.conditions, 10);
        assert_eq!(s.profile.seed, 2022);
        assert_eq!(s.train.seed, 7);
        assert_eq!(s.explore.utilization, 0.9);
        assert_eq!(s.explore.grid, vec![0.25, 0.75, 1.5, 3.0, 6.0]);
        assert_eq!(s.fault.plan, FaultPlan::none());
        assert_eq!(s.fault.max_retries, 3);
    }

    #[test]
    fn set_rejects_unknown_section_and_key() {
        let mut s = ScenarioSpec::default();
        let v = SpecValue::scalar("1");
        let e = s.set("wat", "x", &v).unwrap_err();
        assert!(matches!(e, SpecErrorKind::UnknownKey { .. }));
        let e = s.set("serve", "wat", &v).unwrap_err();
        match e {
            SpecErrorKind::UnknownKey { key, valid } => {
                assert_eq!(key, "wat");
                assert!(valid.contains(&"requests"));
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn set_types_and_ranges() {
        let mut s = ScenarioSpec::default();
        s.set("serve", "rate", &SpecValue::scalar("300.5")).unwrap();
        assert_eq!(s.serve.rate, 300.5);
        assert!(s.set("serve", "rate", &SpecValue::scalar("fast")).is_err());
        assert!(s.set("serve", "rate", &SpecValue::scalar("inf")).is_err());
        assert!(s.set("serve", "servers", &SpecValue::scalar("0")).is_err());
        s.set("fault", "crash", &SpecValue::scalar("0.25")).unwrap();
        assert_eq!(s.fault.plan.crash_prob, 0.25);
        assert!(s.set("fault", "crash", &SpecValue::scalar("1.5")).is_err());
        s.set("fault", "plan", &SpecValue::scalar("heavy,seed=9"))
            .unwrap();
        assert_eq!(s.fault.plan.seed, 9);
        assert_eq!(s.fault.plan.crash_prob, FaultPlan::heavy().crash_prob);
    }

    #[test]
    fn pipeline_must_be_ordered_and_unique() {
        let mut s = ScenarioSpec::default();
        let ok = SpecValue::List(vec!["profile".into(), "train".into(), "serve".into()]);
        s.set("scenario", "pipeline", &ok).unwrap();
        assert_eq!(
            s.scenario.pipeline,
            vec![Stage::Profile, Stage::Train, Stage::Serve]
        );
        let bad = SpecValue::List(vec!["train".into(), "profile".into()]);
        assert!(s.set("scenario", "pipeline", &bad).is_err());
        let dup = SpecValue::List(vec!["serve".into(), "serve".into()]);
        assert!(s.set("scenario", "pipeline", &dup).is_err());
        let unknown = SpecValue::List(vec!["deploy".into()]);
        assert!(s.set("scenario", "pipeline", &unknown).is_err());
    }

    #[test]
    fn canonical_is_idempotent_on_default() {
        let s = ScenarioSpec::default();
        let c = s.canonical();
        assert!(c.contains("[serve]\n"));
        assert!(c.contains("overload = \"shed-newest\"\n"));
        // canonical text is stable
        assert_eq!(c, s.canonical());
    }
}
