//! The scenario pipeline: profile → dataset → train → explore → serve,
//! driven by a [`stca_scenario::ScenarioSpec`].
//!
//! Each stage writes its artifacts into the scenario's artifact directory
//! and records two numbers in `scenario.ckpt.json`: its resume key and the
//! FNV-1a hash of its result. One rule gives every key: a stage's key is
//! [`ScenarioSpec::stage_key`], the FNV-1a of the canonical lines of the
//! spec rows the stage reads followed by the hashes of the artifacts it
//! reads (the profile store is the only such artifact). A re-run at any
//! `--threads` keeps a stage whose stored key matches and whose output
//! files all exist, and reruns the rest bit-identically — so an edit to
//! `[serve] rate` reruns serve alone. The profile and explore stages key
//! their per-item checkpoints by the same stage key.
//!
//! The module also hosts the spec-driven building blocks the `stca`
//! subcommands share with the runner ([`profile_conditions`],
//! [`train_predictor`], [`explore`], [`run_serve`], [`render_explore`])
//! so flag-built specs and scenario files execute the exact same code
//! path.

use crate::{ExplorationResult, ModelConfig, PolicyExplorer, Predictor};
use stca_cachesim::{CacheGeometry, HierarchyConfig};
use stca_cat::layout::ExperimentLayout;
use stca_fault::{Checkpoint, RetryPolicy, StcaError};
use stca_profiler::executor::{profile_each, ExperimentSpec};
use stca_profiler::profile::ProfileSet;
use stca_profiler::sampler::CounterOrdering;
use stca_profiler::storage;
use stca_scenario::{fnv1a, ModelKind, PredictorKind, ScenarioSpec, Stage};
use stca_serve::FleetReport;
use stca_util::{Fnv1a, Rng64};
use stca_workloads::RuntimeCondition;
use std::path::{Path, PathBuf};

/// The hierarchy configuration of a spec's `[cat]` section: the
/// experiment default, with the LLC re-sized to `ways` (preserving the
/// per-way size) when `ways` is nonzero.
pub fn hierarchy_config(spec: &ScenarioSpec) -> HierarchyConfig {
    let base = HierarchyConfig::experiment_default();
    if spec.cat.ways == 0 {
        return base;
    }
    let ways = spec.cat.ways as usize;
    let per_way = base.llc.size_bytes / base.llc.ways;
    HierarchyConfig {
        llc: CacheGeometry::new(per_way * ways, ways, base.llc.line_size),
        ..base
    }
}

/// The way layout of a spec's `[cat]` section.
fn experiment_layout(spec: &ScenarioSpec) -> ExperimentLayout {
    ExperimentLayout::pair_symmetric(
        spec.cat.default_span as usize,
        spec.cat.boosted_span as usize,
    )
}

/// Reject a `[cat]` pair layout wider than the LLC it is installed on.
/// The spans have no upper bound, so the width is computed checked.
fn check_layout_fits(spec: &ScenarioSpec, llc_ways: usize) -> Result<(), StcaError> {
    let cat = &spec.cat;
    let width = cat
        .default_span
        .checked_mul(2)
        .and_then(|w| w.checked_add(cat.boosted_span));
    if width.is_some_and(|w| w <= llc_ways as u64) {
        return Ok(());
    }
    let width = width.map_or_else(|| "at least 2^64".to_string(), |w| w.to_string());
    Err(StcaError::usage(format!(
        "[cat] default_span = {} and boosted_span = {} need {width} ways \
         (2 x default_span + boosted_span), but the LLC has {llc_ways} ([cat] ways = {})",
        cat.default_span, cat.boosted_span, cat.ways
    )))
}

/// Profile `[profile].conditions` random conditions of the spec's pair
/// under its fault plan, skipping conditions that exhaust their retries
/// and checkpointing finished ones when asked.
pub fn profile_conditions(
    spec: &ScenarioSpec,
    checkpoint: Option<&Path>,
) -> Result<ProfileSet, StcaError> {
    let pair = spec.workloads.pair;
    let n = spec.profile.conditions as usize;
    let seed = spec.profile.seed;
    let config = hierarchy_config(spec);
    check_layout_fits(spec, config.llc.ways)?;
    let layout = experiment_layout(spec);
    let p = &spec.profile;
    let mut rng = Rng64::new(seed);
    // conditions are drawn serially; the experiments (the expensive part)
    // run in parallel, each with its original per-condition seed
    let conditions: Vec<RuntimeCondition> = (0..n)
        .map(|_| RuntimeCondition::random_pair(pair.0, pair.1, &mut rng))
        .collect();
    let meta = hex(spec.stage_key(Stage::Profile, &[]));
    let results = profile_each(
        &conditions,
        |i, condition| ExperimentSpec {
            config,
            layout: layout.clone(),
            measured_queries: p.measured_queries as usize,
            warmup_queries: p.warmup_queries as usize,
            accesses_per_query: (p.accesses_per_query != 0).then_some(p.accesses_per_query),
            ..ExperimentSpec::standard(condition.clone(), seed ^ ((i as u64) << 16))
        },
        CounterOrdering::Grouped,
        &spec.fault.plan,
        &RetryPolicy::with_max_retries(spec.fault.max_retries),
        checkpoint.map(|path| (path, meta.as_str())),
    )?;
    let mut set = ProfileSet::new();
    let mut failed = 0usize;
    for result in results {
        match result {
            Ok(rows) => rows.into_iter().for_each(|row| set.push(row)),
            Err(_) => failed += 1,
        }
    }
    if failed > 0 {
        stca_obs::warn!("{failed}/{n} conditions failed under the fault plan, skipped");
    }
    if set.is_empty() {
        return Err(StcaError::invalid_input(format!(
            "all {n} profiling conditions failed under the fault plan"
        )));
    }
    Ok(set)
}

/// Load a profile store, rejecting empty ones.
pub fn load_profiles(path: &Path) -> Result<ProfileSet, StcaError> {
    let set = storage::load(path)?;
    if set.is_empty() {
        return Err(StcaError::invalid_input("profile file holds no rows"));
    }
    stca_obs::info!("loaded {} profile rows from {}", set.len(), path.display());
    Ok(set)
}

/// The model kind `kind` stands for on a dataset of `rows` rows. `auto`
/// keeps the historical rule: `standard` at >= 30 rows, `quick` below.
fn resolve_model(kind: ModelKind, rows: usize) -> ModelKind {
    match kind {
        ModelKind::Auto if rows >= 30 => ModelKind::Standard,
        ModelKind::Auto => ModelKind::Quick,
        kind => kind,
    }
}

/// The model configuration a `[train]` section selects for a dataset of
/// `rows` rows (see `resolve_model` for `auto`).
pub fn model_config(kind: ModelKind, rows: usize, seed: u64) -> ModelConfig {
    match resolve_model(kind, rows) {
        ModelKind::Auto => unreachable!("resolve_model resolves auto"),
        ModelKind::Quick => ModelConfig::quick(seed),
        ModelKind::Standard => ModelConfig::standard(seed),
        ModelKind::SimpleMl => ModelConfig::simple_ml(seed),
    }
}

/// Train the spec's model on a dataset with an explicit seed (the CLI
/// passes `train.seed` for predict/explore and `serve.seed` for the
/// historical trained-serve path).
pub fn train_predictor_seeded(spec: &ScenarioSpec, set: &ProfileSet, seed: u64) -> Predictor {
    Predictor::train(set, &model_config(spec.train.model, set.len(), seed))
}

/// Train the spec's model on a dataset with the spec's own train seed.
pub fn train_predictor(spec: &ScenarioSpec, set: &ProfileSet) -> Predictor {
    train_predictor_seeded(spec, set, spec.train.seed)
}

/// Train the spec's model on the profile store at `profiles` and explore
/// the spec's timeout grid for its pair. With `checkpoint`, the grid cells
/// resume from and are saved to that file under the explore stage key.
/// `stca explore` and the scenario's explore stage both run it.
pub fn explore(
    spec: &ScenarioSpec,
    profiles: &Path,
    checkpoint: Option<&Path>,
) -> Result<ExplorationResult, StcaError> {
    let set = load_profiles(profiles)?;
    let predictor = train_predictor(spec, &set);
    let explorer = PolicyExplorer::new(
        &predictor,
        &set,
        spec.workloads.pair.0,
        spec.workloads.pair.1,
        spec.explore.utilization,
    );
    match checkpoint {
        Some(path) => {
            let meta = hex(spec.stage_key(Stage::Explore, &[file_hash(profiles)?]));
            explorer.explore_with_grid_checkpointed(&spec.explore.grid, path, &meta)
        }
        None => Ok(explorer.explore_with_grid(&spec.explore.grid)),
    }
}

/// Render the explore grid exactly as `stca explore` prints it.
pub fn render_explore(spec: &ScenarioSpec, result: &ExplorationResult) -> String {
    use std::fmt::Write as _;
    let pair = spec.workloads.pair;
    let grid = &spec.explore.grid;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "predicted normalized p95 grid (rows: T_{}, cols: T_{}):",
        pair.0, pair.1
    );
    let _ = write!(out, "{:>8}", "");
    for t in grid {
        let _ = write!(out, "{t:>12.2}");
    }
    let _ = writeln!(out);
    for (i, row) in result.grid.iter().enumerate() {
        let _ = write!(out, "{:>8.2}", grid[i]);
        for (a, b) in row {
            let _ = write!(out, "{:>12}", format!("{a:.1}/{b:.1}"));
        }
        let _ = writeln!(out);
    }
    let _ = write!(
        out,
        "\nchosen: T_{} = {:.2}, T_{} = {:.2} (SLO intersection: {})",
        pair.0, result.timeout_a, pair.1, result.timeout_b, result.intersected
    );
    out
}

/// Resolve the spec's predictor once and hand it to `run` as a borrowed
/// model: `trained` loads + trains on the profile store with the
/// historical serve-seed derivation, `analytic` uses the closed-form EA
/// tier.
pub fn with_serve_model<T>(
    spec: &ScenarioSpec,
    profiles: Option<&Path>,
    run: impl FnOnce(&dyn stca_serve::EaModel) -> Result<T, StcaError>,
) -> Result<T, StcaError> {
    match spec.serve.predictor {
        PredictorKind::Trained => {
            let path = profiles.ok_or_else(|| {
                StcaError::usage("serve.predictor = \"trained\" needs a profile store (--profiles)")
            })?;
            let set = load_profiles(path)?;
            let template = set.rows[0].clone();
            // the historical trained-serve path trains with the serve seed
            let model = crate::ServingPredictor::new(
                train_predictor_seeded(spec, &set, spec.serve.seed),
                template,
            );
            run(&model)
        }
        PredictorKind::Analytic => run(&stca_serve::AnalyticEa::default()),
    }
}

/// Run the serving loop as the spec describes it, with
/// `[serve.fleet] shards` shards (one shard is the plain loop).
/// `profiles` supplies the trained-predictor dataset (required when
/// `serve.predictor = trained`). `keep_log` keeps the decision log in
/// the report even when `[artifacts] decision_log` is unset. Callers
/// must check [`FleetReport::balanced`].
pub fn run_serve(
    spec: &ScenarioSpec,
    profiles: Option<&Path>,
    keep_log: bool,
) -> Result<FleetReport, StcaError> {
    let mut cfg = stca_scenario::convert::fleet_config(spec)
        .ok_or_else(|| StcaError::usage("[serve.fleet] shards must be >= 1"))?;
    cfg.base.keep_decision_log |= keep_log;
    let stream = stca_scenario::convert::synthetic_stream(spec);
    let n = spec.serve.requests;
    let plan = &spec.fault.plan;
    stca_obs::info!(
        "serving {n} requests at {}/s (deadline {}s) across {} shard(s)",
        spec.serve.rate,
        spec.serve.deadline_s,
        cfg.shards
    );
    with_serve_model(spec, profiles, |model| {
        stca_serve::serve_fleet(&cfg, model, plan, &stream, n)
    })
}

/// Resolved artifact paths of a scenario run: every stage output lives
/// under one directory; unset `[artifacts]` names get stage defaults.
#[derive(Debug, Clone)]
pub struct RunPaths {
    /// The artifact directory (created by the runner).
    pub dir: PathBuf,
    /// The pipeline checkpoint (`scenario.ckpt.json`).
    pub scenario_ckpt: PathBuf,
    /// Per-condition profile checkpoint.
    pub profile_ckpt: PathBuf,
    /// The profile store (`[profile].out`, resolved).
    pub profiles: PathBuf,
    /// Dataset summary JSON.
    pub dataset: PathBuf,
    /// Train summary JSON.
    pub train: PathBuf,
    /// Explore grid checkpoint.
    pub explore_ckpt: PathBuf,
    /// Explore report text (the `stca explore` table).
    pub explore: PathBuf,
    /// Per-request decision log.
    pub decision_log: PathBuf,
    /// JSON health snapshot.
    pub health: PathBuf,
    /// Chrome trace JSON (when tracing is enabled).
    pub trace_json: Option<PathBuf>,
    /// SVG trace waterfall (when requested and tracing is enabled).
    pub trace_svg: Option<PathBuf>,
}

impl RunPaths {
    /// Resolve artifact paths for `spec`. `dir_override` (the
    /// `--artifacts` flag) beats `[artifacts].dir` beats
    /// `runs/<scenario name>`.
    pub fn resolve(spec: &ScenarioSpec, dir_override: Option<&Path>) -> RunPaths {
        let art = &spec.artifacts;
        let dir = match dir_override {
            Some(d) => d.to_path_buf(),
            None if !art.dir.is_empty() => PathBuf::from(&art.dir),
            None => PathBuf::from("runs").join(&spec.scenario.name),
        };
        let in_dir = |name: &str, fallback: &str| {
            if name.is_empty() {
                dir.join(fallback)
            } else {
                dir.join(name)
            }
        };
        RunPaths {
            scenario_ckpt: dir.join("scenario.ckpt.json"),
            profile_ckpt: dir.join("profile.ckpt.json"),
            profiles: in_dir(&spec.profile.out, "profiles.stca"),
            dataset: dir.join("dataset.json"),
            train: dir.join("train.json"),
            explore_ckpt: dir.join("explore.ckpt.json"),
            explore: dir.join("explore.txt"),
            decision_log: in_dir(&art.decision_log, "decisions.log"),
            health: in_dir(&art.health, "health.json"),
            trace_json: spec
                .trace
                .enabled
                .then(|| in_dir(&art.trace_json, "trace.json")),
            trace_svg: (spec.trace.enabled && !art.trace_svg.is_empty())
                .then(|| dir.join(&art.trace_svg)),
            dir,
        }
    }

    /// The files `stage` writes. A stage resumes only when all exist.
    pub fn outputs(&self, stage: Stage) -> Vec<&Path> {
        match stage {
            Stage::Profile => vec![&self.profiles],
            Stage::Dataset => vec![&self.dataset],
            Stage::Train => vec![&self.train],
            Stage::Explore => vec![&self.explore],
            Stage::Serve => [&self.trace_json, &self.trace_svg]
                .into_iter()
                .flatten()
                .chain([&self.decision_log, &self.health])
                .map(PathBuf::as_path)
                .collect(),
        }
    }
}

/// What happened to one stage of a scenario run.
#[derive(Debug, Clone)]
pub struct StageOutcome {
    /// Which stage.
    pub stage: Stage,
    /// FNV-1a hash of the stage artifact (the decision hash for serve).
    pub hash: u64,
    /// Whether the stage was skipped because the checkpoint held its
    /// current key and every file it writes was still on disk.
    pub resumed: bool,
    /// One human line about the stage result.
    pub detail: String,
}

/// The result of a scenario run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Per-stage outcomes, in pipeline order.
    pub stages: Vec<StageOutcome>,
    /// Combined hash over (spec fingerprint, stage hashes) — the one
    /// number two runs of the same scenario must agree on.
    pub scenario_hash: u64,
    /// Where the artifacts live.
    pub dir: PathBuf,
}

/// FNV-1a of a file's bytes: the hash of an artifact.
fn file_hash(path: &Path) -> Result<u64, StcaError> {
    let bytes = std::fs::read(path).map_err(|e| StcaError::io(path.display().to_string(), e))?;
    Ok(fnv1a(&bytes))
}

fn write_text(path: &Path, text: &str) -> Result<(), StcaError> {
    std::fs::write(path, text).map_err(|e| StcaError::io(path.display().to_string(), e))
}

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Whether `stage` reads the profile store, the one artifact a stage reads
/// from another.
fn reads_profiles(spec: &ScenarioSpec, stage: Stage) -> bool {
    match stage {
        Stage::Profile => false,
        Stage::Dataset | Stage::Train | Stage::Explore => true,
        Stage::Serve => spec.serve.predictor == PredictorKind::Trained,
    }
}

/// The meta of `scenario.ckpt.json`. Each entry carries its own stage key,
/// so the meta names only the entry layout.
const SCENARIO_CKPT_META: &str = "scenario/stage-keys";

/// Run a scenario's pipeline. Stages execute in order; each records its
/// key and its artifact hash in the scenario checkpoint, so an
/// interrupted, truncated (`until`) or edited run reruns only the stages
/// whose key or output files changed. Bit-identical at any thread count.
pub fn run_scenario(
    spec: &ScenarioSpec,
    dir_override: Option<&Path>,
    until: Option<Stage>,
) -> Result<RunSummary, StcaError> {
    use stca_obs::json::Value;
    let paths = RunPaths::resolve(spec, dir_override);
    std::fs::create_dir_all(&paths.dir)
        .map_err(|e| StcaError::io(paths.dir.display().to_string(), e))?;
    let mut ckpt = Checkpoint::load_or_new(&paths.scenario_ckpt, SCENARIO_CKPT_META)?;
    let mut stages = Vec::new();
    for &stage in &spec.scenario.pipeline {
        if until.is_some_and(|limit| stage > limit) {
            break;
        }
        let profiles = reads_profiles(spec, stage)
            .then(|| file_hash(&paths.profiles))
            .transpose()?;
        let key = spec.stage_key(stage, profiles.as_slice());
        let entry = format!("stage.{}", stage.name());
        let stored = match ckpt.get(&entry) {
            Some(Value::Array(pair)) => pair.as_slice(),
            _ => &[],
        };
        let written = paths.outputs(stage).iter().all(|p| p.exists());
        let cached = match stored {
            [Value::String(k), Value::String(h)] if *k == hex(key) && written => {
                u64::from_str_radix(h, 16).ok()
            }
            _ => None,
        };
        if let Some(hash) = cached {
            stca_obs::info!("stage {} already done (hash {})", stage.name(), hex(hash));
            stages.push(StageOutcome {
                stage,
                hash,
                resumed: true,
                detail: "resumed from checkpoint".to_string(),
            });
            continue;
        }
        let outcome = run_stage(spec, &paths, stage)?;
        let pair = [hex(key), hex(outcome.hash)].map(Value::String);
        ckpt.put(entry, Value::Array(pair.to_vec()));
        ckpt.save()?;
        stages.push(outcome);
    }
    let mut scenario_hash = Fnv1a::new();
    scenario_hash.word(spec.fingerprint());
    for stage in &stages {
        scenario_hash.word(stage.hash);
    }
    Ok(RunSummary {
        stages,
        scenario_hash: scenario_hash.finish(),
        dir: paths.dir,
    })
}

/// Run one stage.
fn run_stage(
    spec: &ScenarioSpec,
    paths: &RunPaths,
    stage: Stage,
) -> Result<StageOutcome, StcaError> {
    let outcome = match stage {
        Stage::Profile => {
            let set = profile_conditions(spec, Some(&paths.profile_ckpt))?;
            storage::save(&set, &paths.profiles)?;
            StageOutcome {
                stage,
                hash: file_hash(&paths.profiles)?,
                resumed: false,
                detail: format!("{} profile rows -> {}", set.len(), paths.profiles.display()),
            }
        }
        Stage::Dataset => {
            let set = load_profiles(&paths.profiles)?;
            let mut ea_min = f64::INFINITY;
            let mut ea_max = f64::NEG_INFINITY;
            let mut ea_sum = 0.0;
            for row in &set.rows {
                ea_min = ea_min.min(row.ea);
                ea_max = ea_max.max(row.ea);
                ea_sum += row.ea;
            }
            let rows = set.len();
            let json = format!(
                "{{\"rows\":{rows},\"static_features\":{},\"trace_shape\":[{},{}],\
                 \"ea_min\":\"{:016x}\",\"ea_max\":\"{:016x}\",\"ea_mean\":\"{:016x}\",\
                 \"profiles_hash\":\"{}\"}}\n",
                set.rows[0].static_features.len(),
                set.rows[0].trace.rows(),
                set.rows[0].trace.cols(),
                ea_min.to_bits(),
                ea_max.to_bits(),
                (ea_sum / rows as f64).to_bits(),
                hex(file_hash(&paths.profiles)?),
            );
            write_text(&paths.dataset, &json)?;
            StageOutcome {
                stage,
                hash: file_hash(&paths.dataset)?,
                resumed: false,
                detail: format!(
                    "{rows} rows, EA in [{ea_min:.3}, {ea_max:.3}] -> {}",
                    paths.dataset.display()
                ),
            }
        }
        Stage::Train => {
            let set = load_profiles(&paths.profiles)?;
            let predictor = train_predictor(spec, &set);
            // fingerprint the trained model through a fixed probe: the
            // explorer's prediction at the center of the timeout grid
            let explorer = PolicyExplorer::new(
                &predictor,
                &set,
                spec.workloads.pair.0,
                spec.workloads.pair.1,
                spec.explore.utilization,
            );
            let mid = spec.explore.grid[spec.explore.grid.len() / 2];
            let (pa, pb) = explorer.predict_point(mid, mid);
            let resolved = resolve_model(spec.train.model, set.len()).name();
            let json = format!(
                "{{\"model\":\"{resolved}\",\"rows\":{},\"seed\":{},\
                 \"probe_timeout\":\"{:016x}\",\
                 \"probe_p95\":[\"{:016x}\",\"{:016x}\"]}}\n",
                set.len(),
                spec.train.seed,
                mid.to_bits(),
                pa.to_bits(),
                pb.to_bits(),
            );
            write_text(&paths.train, &json)?;
            StageOutcome {
                stage,
                hash: file_hash(&paths.train)?,
                resumed: false,
                detail: format!(
                    "{resolved} model on {} rows, probe p95 ({pa:.2}, {pb:.2})",
                    set.len()
                ),
            }
        }
        Stage::Explore => {
            let result = explore(spec, &paths.profiles, Some(&paths.explore_ckpt))?;
            let mut text = render_explore(spec, &result);
            text.push('\n');
            write_text(&paths.explore, &text)?;
            StageOutcome {
                stage,
                hash: file_hash(&paths.explore)?,
                resumed: false,
                detail: format!(
                    "chosen T=({:.2}, {:.2}), SLO intersection {}",
                    result.timeout_a, result.timeout_b, result.intersected
                ),
            }
        }
        Stage::Serve => {
            let profiles = matches!(spec.serve.predictor, PredictorKind::Trained)
                .then(|| paths.profiles.as_path());
            // this stage writes the decision log, so it keeps it whether or
            // not `[artifacts] decision_log` names the file
            let report = run_serve(spec, profiles, true)?;
            if !report.balanced() {
                return Err(StcaError::invalid_input(format!(
                    "accounting invariant violated: {report:?}"
                )));
            }
            stca_serve::write_decision_log(&paths.decision_log, &report)?;
            stca_serve::write_health(&paths.health, &report)?;
            if let Some(dump) = &report.trace_dump {
                if let Some(path) = &paths.trace_json {
                    stca_trace::write_chrome_json(path, dump)?;
                }
                if let Some(path) = &paths.trace_svg {
                    stca_trace::write_svg(path, dump)?;
                }
            }
            let shed: u64 = report.shards.iter().map(|s| s.accounting.shed()).sum();
            StageOutcome {
                stage,
                // the decision hash is the serving determinism contract (it
                // covers every shard's log plus the router's reroute/shed
                // lines); artifact bytes hash through it via the log
                hash: report.decision_hash,
                resumed: false,
                detail: format!(
                    "{} shard(s): {} completed / {} shed / {} rerouted / {} router-shed, \
                     decision hash {:016x}",
                    report.shards.len(),
                    report.completed(),
                    shed,
                    report.rerouted,
                    report.router_shed,
                    report.decision_hash
                ),
            }
        }
    };
    Ok(outcome)
}

/// Sanity-check a spec before running: stages that read the profile
/// store need it produced by this pipeline or already on disk.
pub fn check_runnable(spec: &ScenarioSpec, dir_override: Option<&Path>) -> Result<(), StcaError> {
    let pipeline = &spec.scenario.pipeline;
    if pipeline.is_empty() {
        return Err(StcaError::usage("scenario pipeline is empty"));
    }
    let needs_profiles = pipeline.iter().any(|&s| reads_profiles(spec, s));
    let produces_profiles = pipeline.contains(&Stage::Profile);
    if needs_profiles && !produces_profiles {
        let paths = RunPaths::resolve(spec, dir_override);
        if !paths.profiles.exists() {
            return Err(StcaError::usage(format!(
                "pipeline needs profiles but has no profile stage and {} does not exist",
                paths.profiles.display()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stca_fault::FaultPlan;
    use stca_workloads::BenchmarkId;

    fn small_spec(plan: &str, max_retries: u32) -> ScenarioSpec {
        let mut spec = ScenarioSpec::default();
        spec.workloads.pair = (BenchmarkId::Knn, BenchmarkId::Bfs);
        spec.profile.conditions = 4;
        spec.profile.measured_queries = 60;
        spec.profile.warmup_queries = 10;
        spec.profile.accesses_per_query = 400;
        spec.fault.plan = FaultPlan::parse(plan).expect("valid plan");
        spec.fault.max_retries = max_retries;
        spec
    }

    fn ea_bits(set: &ProfileSet) -> Vec<u64> {
        set.rows.iter().map(|r| r.ea.to_bits()).collect()
    }

    #[test]
    fn profile_checkpoint_covers_the_fault_plan_and_retry_budget() {
        let path =
            std::env::temp_dir().join(format!("stca-profile-meta-{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        let heavy_no_retry = small_spec("heavy,seed=7", 0);
        let skipped = profile_conditions(&heavy_no_retry, Some(&path)).expect("survivors");
        assert!(skipped.len() < 8, "a condition fails without retries");
        for edited in [small_spec("heavy,seed=7", 8), small_spec("none,seed=7", 0)] {
            profile_conditions(&heavy_no_retry, Some(&path)).expect("survivors");
            let fresh = profile_conditions(&edited, None).expect("fresh run");
            let resumed = profile_conditions(&edited, Some(&path)).expect("rerun");
            assert_eq!(fresh.len(), 8, "every condition profiled");
            assert_eq!(
                ea_bits(&fresh),
                ea_bits(&resumed),
                "stale checkpoint reused"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
