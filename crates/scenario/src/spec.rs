//! The typed scenario spec: sections, defaults, the key table, the central
//! typed setter, and the canonical serializer.
//!
//! A [`ScenarioSpec`] owns every knob the `stca` subcommands used to parse
//! ad hoc: workloads, CAT layout, fault plan, profiling, training, policy
//! search, serving, tracing, and artifact outputs. Four invariants shape
//! the API:
//!
//! * **One row per key.** Every key is declared once, as one [`Row`] of
//!   the schema: section, key, value [`Codec`] (type plus range), the field
//!   it reads and writes, the pipeline stages that read it ([`Readers`]),
//!   and its `stca serve` flag if it has one. [`keys_of`],
//!   [`ScenarioSpec::set`], [`ScenarioSpec::canonical`],
//!   [`ScenarioSpec::stage_key`] and the CLI flag surface are all derived
//!   from the rows; `[fault]` takes its override rows from [`FaultPlan`]'s
//!   own table.
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
use stca_serve::{AdaptConfig, OverloadPolicy, RouterKind, TIMEOUT_GRID};
use stca_util::{fnv1a, Bound, SpecErrorKind, SpecLocation};
use stca_workloads::BenchmarkId;
use std::sync::OnceLock;

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

    /// The spec token of each stage, in [`Stage::ALL`] order.
    pub const NAMES: [&'static str; 5] = ["profile", "dataset", "train", "explore", "serve"];

    /// The spec token for this stage.
    pub fn name(&self) -> &'static str {
        Self::NAMES[*self as usize]
    }

    /// Parse a spec token.
    pub fn parse(s: &str) -> Option<Stage> {
        token(s, &Self::ALL, &Self::NAMES).ok()
    }
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
    /// Every kind, in [`ModelKind::NAMES`] order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Auto,
        ModelKind::Quick,
        ModelKind::Standard,
        ModelKind::SimpleMl,
    ];

    /// The spec token of each kind.
    pub const NAMES: [&'static str; 4] = ["auto", "quick", "standard", "simple-ml"];

    /// The spec token for this kind.
    pub fn name(&self) -> &'static str {
        Self::NAMES[*self as usize]
    }
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
    /// Every kind, in [`PredictorKind::NAMES`] order.
    pub const ALL: [PredictorKind; 2] = [PredictorKind::Analytic, PredictorKind::Trained];

    /// The spec token of each kind.
    pub const NAMES: [&'static str; 2] = ["analytic", "trained"];

    /// The spec token for this kind.
    pub fn name(&self) -> &'static str {
        Self::NAMES[*self as usize]
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
    /// LLC ways of the experiment geometry, at most 64 (a way mask is a
    /// `u64`); 0 keeps the scaled-down experiment default.
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
    /// `[serve.adapt]` — the drift-aware model lifecycle, held as the
    /// engine's own config (disabled by default).
    pub adapt: AdaptConfig,
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
                grid: TIMEOUT_GRID.to_vec(),
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
            adapt: AdaptConfig::default(),
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

/// A key's value type and legal range: what [`ScenarioSpec::set`] accepts
/// for it and how [`ScenarioSpec::canonical`] writes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Codec {
    /// Any string; written quoted.
    Text,
    /// `true` or `false`.
    Bool,
    /// An integer or a finite float within a bound.
    Num(Bound),
    /// One token of an enum's token list.
    Token(&'static [&'static str]),
    /// A benchmark pair `A,B`.
    Pair,
    /// Stages in pipeline order, without duplicates.
    Pipeline,
    /// A non-empty list of timeout ratios `>= 0`.
    Grid,
    /// A fault-plan spec (preset and overrides); write-only sugar whose
    /// effect the canonical form carries in the override keys.
    Plan,
}

impl Codec {
    /// The numeric bound; [`Bound::Any`] for non-numeric codecs.
    fn bound(self) -> Bound {
        match self {
            Codec::Num(bound) => bound,
            _ => Bound::Any,
        }
    }
}

/// The pipeline stages that read a key: one bit per [`Stage`], plus
/// `TRAINED` for a key serve reads only when it serves the trained
/// predictor. A row that only names an output file is read by no stage;
/// the stage that writes the file reruns when it is missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readers(u8);

impl Readers {
    const NONE: Readers = Readers(0);
    const PROFILE: Readers = Readers::of(Stage::Profile);
    const TRAIN: Readers = Readers::of(Stage::Train);
    const EXPLORE: Readers = Readers::of(Stage::Explore);
    const SERVE: Readers = Readers::of(Stage::Serve);
    /// Read by the serve stage when `serve.predictor = "trained"`.
    const TRAINED: Readers = Readers(1 << Stage::ALL.len());

    const fn of(stage: Stage) -> Readers {
        Readers(1 << stage as u8)
    }

    fn has(self, readers: Readers) -> bool {
        self.0 & readers.0 != 0
    }
}

/// One key of the schema, declared once.
#[derive(Clone, Copy)]
pub struct Row {
    /// The section the key lives in.
    pub section: &'static str,
    /// The key.
    pub key: &'static str,
    /// Its value type and legal range.
    pub codec: Codec,
    /// The `stca serve` flag that sets it, if any.
    pub flag: Option<&'static str>,
    /// The stages whose resume key covers it.
    pub reads: Readers,
    write: fn(&mut ScenarioSpec, &Row, &SpecValue) -> Result<(), SpecErrorKind>,
    read: fn(&ScenarioSpec, &Row) -> Option<String>,
}

/// A field type rows can decode from a [`SpecValue`] and write back in
/// canonical form.
trait Value: Sized {
    /// The codec of a row whose declaration names no bound.
    const CODEC: Codec;
    fn decode(row: &Row, value: &SpecValue) -> Result<Self, SpecErrorKind>;
    /// The canonical text, or `None` for a write-only key.
    fn encode(&self) -> Option<String>;
}

const fn codec_of<T: Value>(_field: fn(&ScenarioSpec) -> &T) -> Codec {
    T::CODEC
}

/// The first argument, or the second when one is given.
macro_rules! or_given {
    ($default:expr) => {
        $default
    };
    ($default:expr, $given:expr) => {
        $given
    };
}

/// A [`Readers`] set from `(A | B | ...)`.
macro_rules! readers {
    ($($reader:ident)|+) => {
        Readers(0 $(| Readers::$reader.0)+)
    };
}

/// One section's rows. `reads (A | B)` after the section names the stages
/// that read its keys; a key may name its own set the same way. Then
/// `key: bound` for a bounded number and `=> "flag"` for a key `stca
/// serve` sets by flag. The key names the field of the section's struct it
/// reads and writes.
macro_rules! section {
    ($name:literal, $sec:ident reads $readers:tt {
        $($key:ident $(reads $own:tt)? $(: $bound:expr)? $(=> $flag:literal)?),* $(,)?
    }) => {
        &[$(Row {
            section: $name,
            key: stringify!($key),
            codec: or_given!(codec_of(|s| &s.$sec.$key) $(, Codec::Num($bound))?),
            flag: or_given!(None $(, Some($flag))?),
            reads: or_given!(readers! $readers $(, readers! $own)?),
            write: |s, row, v| {
                s.$sec.$key = Value::decode(row, v)?;
                Ok(())
            },
            read: |s, _| s.$sec.$key.encode(),
        }),*]
    };
}

/// The schema: every section's rows, in canonical order, each with the
/// stages that read it.
const SCHEMA: &[&[Row]] = &[
    section! { "scenario", scenario reads (NONE) { name, pipeline } },
    section! { "workloads", workloads reads (NONE) { pair reads (PROFILE | TRAIN | EXPLORE), accesses } },
    section! { "cat", cat reads (PROFILE) {
        ways: Bound::within(0, 64, "way"),
        default_span: Bound::at_least(1, "way"),
        boosted_span: Bound::at_least(1, "way"),
    } },
    &FAULT_ROWS,
    section! { "profile", profile reads (PROFILE) {
        conditions, seed, out reads (NONE), measured_queries, warmup_queries, accesses_per_query,
    } },
    // trained serve trains with `serve.seed`, not `train.seed`
    section! { "train", train reads (TRAIN | EXPLORE) { model reads (TRAIN | EXPLORE | TRAINED), seed } },
    // the train stage's probe reads the explore point too
    section! { "explore", explore reads (TRAIN | EXPLORE) { utilization: Bound::Positive, grid } },
    section! { "predict", predict reads (NONE) {
        utilization: Bound::Positive,
        timeout_a: Bound::NonNegative,
        timeout_b: Bound::NonNegative,
    } },
    section! { "serve", serve reads (SERVE) {
        requests => "requests",
        rate: Bound::Positive => "rate",
        deadline_s: Bound::Positive => "deadline",
        servers: Bound::within(1, 1024, "servers") => "servers",
        queue_capacity: Bound::at_least(1, "request") => "queue-cap",
        overload => "overload",
        hysteresis_k => "hysteresis",
        breaker_threshold => "breaker-threshold",
        breaker_cooldown_s: Bound::NonNegative => "breaker-cooldown",
        drain_grace_s: Bound::NonNegative => "drain-grace",
        seed => "seed",
        predictor,
    } },
    section! { "serve.fleet", fleet reads (SERVE) {
        shards: Bound::within(1, 1024, "shards") => "shards",
        router => "router",
        reroute_max => "reroute-max",
    } },
    section! { "serve.adapt", adapt reads (SERVE) {
        enabled => "adapt",
        epoch_s: Bound::Positive => "adapt-epoch",
        window: Bound::at_least(2, "rows") => "adapt-window",
        min_samples: Bound::at_least(2, "observations") => "adapt-min-samples",
        drift_threshold: Bound::Positive => "adapt-threshold",
        shadow_requests: Bound::at_least(1, "request") => "adapt-shadow",
        agree_tol: Bound::NonNegative => "adapt-agree-tol",
        promote_agreement: Bound::Probability => "adapt-agreement",
        guard_requests: Bound::at_least(1, "request") => "adapt-guard",
        guard_band: Bound::Factor => "adapt-guard-band",
        history: Bound::at_least(1, "version") => "adapt-history",
        retrain_budget_s: Bound::Positive => "adapt-budget",
    } },
    section! { "trace", trace reads (SERVE) {
        enabled, sample_every => "trace-sample", ring_capacity => "trace-ring",
    } },
    // output file names: a stage reruns when a file it writes is missing
    section! { "artifacts", artifacts reads (NONE) {
        dir,
        decision_log => "decision-log",
        health => "health-out",
        metrics,
        trace_json => "trace-out",
        trace_svg => "trace-svg",
    } },
];

/// `[fault]`: the `plan` sugar, the retry budget, then one row per
/// [`FaultPlan`] override key — the fault plan's own table declares those.
/// Profiling and serving both run under the plan.
const FAULT_ROWS: [Row; 2 + FaultPlan::KEYS.len()] = {
    let [plan, max_retries] = *section! { "fault", fault reads (PROFILE | SERVE) {
        plan,
        max_retries: Bound::within(0, u32::MAX as u64, "retries"),
    } };
    let mut rows = [plan; 2 + FaultPlan::KEYS.len()];
    rows[1] = max_retries;
    let mut i = 0;
    while i < FaultPlan::KEYS.len() {
        rows[2 + i] = Row {
            section: "fault",
            key: FaultPlan::KEYS[i],
            codec: Codec::Num(FaultPlan::BOUNDS[i]),
            flag: None,
            reads: plan.reads,
            write: |s, row, v| s.fault.plan.set(row.key, v.expect_scalar(row.key)?),
            read: |s, row| s.fault.plan.get(row.key),
        };
        i += 1;
    }
    rows
};

/// The section names, in canonical order.
pub const SECTIONS: [&str; SCHEMA.len()] = {
    let mut names = [""; SCHEMA.len()];
    let mut i = 0;
    while i < SCHEMA.len() {
        names[i] = SCHEMA[i][0].section;
        i += 1;
    }
    names
};

/// Every row of the schema, in canonical order.
pub fn rows() -> impl Iterator<Item = &'static Row> {
    SCHEMA.iter().flat_map(|rows| rows.iter())
}

/// The valid keys of a section, or `None` for an unknown section.
pub fn keys_of(section: &str) -> Option<&'static [&'static str]> {
    static KEYS: OnceLock<Vec<Vec<&'static str>>> = OnceLock::new();
    let keys = KEYS.get_or_init(|| {
        SCHEMA
            .iter()
            .map(|rows| rows.iter().map(|r| r.key).collect())
            .collect()
    });
    let i = SECTIONS.iter().position(|s| *s == section)?;
    Some(&keys[i])
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
            SpecValue::List(_) => Err(bad(key, "[...]", "a scalar, not a list")),
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

/// The value of token `s` in an enum's parallel `all`/`names` lists.
fn token<T: Copy>(s: &str, all: &[T], names: &'static [&'static str]) -> Result<T, SpecErrorKind> {
    match names.iter().position(|n| *n == s) {
        Some(i) => Ok(all[i]),
        None => Err(SpecErrorKind::UnknownKey {
            key: s.to_string(),
            valid: names,
        }),
    }
}

impl Value for String {
    const CODEC: Codec = Codec::Text;
    fn decode(row: &Row, v: &SpecValue) -> Result<Self, SpecErrorKind> {
        Ok(v.expect_scalar(row.key)?.to_string())
    }
    fn encode(&self) -> Option<String> {
        Some(quote(self))
    }
}

impl Value for bool {
    const CODEC: Codec = Codec::Bool;
    fn decode(row: &Row, v: &SpecValue) -> Result<Self, SpecErrorKind> {
        match v.expect_scalar(row.key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(bad(row.key, other, "true or false")),
        }
    }
    fn encode(&self) -> Option<String> {
        Some(self.to_string())
    }
}

macro_rules! int_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            const CODEC: Codec = Codec::Num(Bound::Any);
            fn decode(row: &Row, v: &SpecValue) -> Result<Self, SpecErrorKind> {
                let text = v.expect_scalar(row.key)?;
                let n = row.codec.bound().int(row.key, text)?;
                <$t>::try_from(n).map_err(|_| bad(row.key, text, concat!("a ", stringify!($t))))
            }
            fn encode(&self) -> Option<String> {
                Some(self.to_string())
            }
        }
    )*};
}

int_values!(u64, u32, usize);

impl Value for f64 {
    const CODEC: Codec = Codec::Num(Bound::Any);
    fn decode(row: &Row, v: &SpecValue) -> Result<Self, SpecErrorKind> {
        row.codec.bound().real(row.key, v.expect_scalar(row.key)?)
    }
    /// Rust's shortest round-trip `Display`: parsing the text recovers
    /// the value exactly.
    fn encode(&self) -> Option<String> {
        Some(self.to_string())
    }
}

macro_rules! token_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            const CODEC: Codec = Codec::Token(&<$t>::NAMES);
            fn decode(row: &Row, v: &SpecValue) -> Result<Self, SpecErrorKind> {
                token(v.expect_scalar(row.key)?, &<$t>::ALL, &<$t>::NAMES)
            }
            fn encode(&self) -> Option<String> {
                Some(quote(self.name()))
            }
        }
    )*};
}

token_values!(ModelKind, PredictorKind, OverloadPolicy, RouterKind);

impl Value for (BenchmarkId, BenchmarkId) {
    const CODEC: Codec = Codec::Pair;
    fn decode(row: &Row, v: &SpecValue) -> Result<Self, SpecErrorKind> {
        let text = v.expect_scalar(row.key)?;
        BenchmarkId::parse_pair(text).map_err(|e| bad(row.key, text, &e.to_string()))
    }
    fn encode(&self) -> Option<String> {
        Some(quote(&format!("{},{}", self.0, self.1)))
    }
}

impl Value for Vec<Stage> {
    const CODEC: Codec = Codec::Pipeline;
    fn decode(row: &Row, v: &SpecValue) -> Result<Self, SpecErrorKind> {
        let stages = v
            .items()
            .iter()
            .map(|item| token(item, &Stage::ALL, &Stage::NAMES))
            .collect::<Result<Vec<_>, _>>()?;
        if stages.windows(2).any(|w| w[0] >= w[1]) {
            let names: Vec<&str> = stages.iter().map(Stage::name).collect();
            return Err(bad(
                row.key,
                &names.join(","),
                &format!(
                    "stages in pipeline order ({}) without duplicates",
                    Stage::NAMES.join(", ")
                ),
            ));
        }
        Ok(stages)
    }
    fn encode(&self) -> Option<String> {
        Some(list(self.iter().map(|s| quote(s.name()))))
    }
}

impl Value for Vec<f64> {
    const CODEC: Codec = Codec::Grid;
    fn decode(row: &Row, v: &SpecValue) -> Result<Self, SpecErrorKind> {
        let items = v.items();
        if items.is_empty() {
            return Err(bad(row.key, "[]", "at least one grid point"));
        }
        items
            .iter()
            .map(|item| Bound::NonNegative.real(row.key, item))
            .collect()
    }
    fn encode(&self) -> Option<String> {
        Some(list(self.iter().map(f64::to_string)))
    }
}

impl Value for FaultPlan {
    const CODEC: Codec = Codec::Plan;
    fn decode(row: &Row, v: &SpecValue) -> Result<Self, SpecErrorKind> {
        let text = v.expect_scalar(row.key)?;
        FaultPlan::parse_spec(text, "fault plan").map_err(|e| bad(row.key, text, &e.to_string()))
    }
    fn encode(&self) -> Option<String> {
        None
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
        let row = rows()
            .find(|r| r.section == section && r.key == key)
            .ok_or_else(|| SpecErrorKind::UnknownKey {
                key: key.to_string(),
                valid,
            })?;
        (row.write)(self, row, value)
    }

    /// The canonical serialized form: every section, every key, schema
    /// order, fully resolved (presets and sugar keys like `fault.plan` do
    /// not survive — their effects do). Parsing the canonical form yields
    /// an equal spec, and canonicalizing is idempotent byte-for-byte.
    pub fn canonical(&self) -> String {
        self.encode(|_| true)
    }

    /// FNV-1a fingerprint of the canonical form.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// The resume key of `stage`: FNV-1a over the canonical lines of the
    /// rows the stage reads, then over `inputs`, the hashes of the
    /// artifacts it reads. A stage whose key is unchanged computes the
    /// same output, so a rerun may keep it.
    pub fn stage_key(&self, stage: Stage, inputs: &[u64]) -> u64 {
        let mut bytes = self.encode(|row| self.reads(stage, row)).into_bytes();
        bytes.extend(inputs.iter().flat_map(|h| h.to_le_bytes()));
        fnv1a(&bytes)
    }

    /// Whether `stage` of this spec reads `row`.
    pub fn reads(&self, stage: Stage, row: &Row) -> bool {
        let trained = stage == Stage::Serve && self.serve.predictor == PredictorKind::Trained;
        row.reads.has(Readers::of(stage)) || (trained && row.reads.has(Readers::TRAINED))
    }

    /// Every section header, then each `keep` row that has a value as a
    /// `key = value` line, in schema order.
    fn encode(&self, keep: impl Fn(&Row) -> bool) -> String {
        let mut out = String::with_capacity(2048);
        for rows in SCHEMA {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push('[');
            out.push_str(rows[0].section);
            out.push_str("]\n");
            for row in rows.iter().filter(|row| keep(row)) {
                if let Some(value) = (row.read)(self, row) {
                    out.push_str(row.key);
                    out.push_str(" = ");
                    out.push_str(&value);
                    out.push('\n');
                }
            }
        }
        out
    }
}

fn list(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(", "))
}

/// Quote and escape a string value.
fn quote(s: &str) -> String {
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

    #[test]
    fn rows_are_unique_per_section_and_flags_unique() {
        for section in SECTIONS {
            let keys = keys_of(section).expect("listed section");
            for (i, key) in keys.iter().enumerate() {
                assert!(!keys[..i].contains(key), "{section}.{key} declared twice");
            }
        }
        let flags: Vec<&str> = rows().filter_map(|r| r.flag).collect();
        for (i, flag) in flags.iter().enumerate() {
            assert!(!flags[..i].contains(flag), "--{flag} declared twice");
        }
        assert_eq!(rows().count(), 75);
    }
}
