//! Every spec row is covered by the resume keys of the stages that read it.
//!
//! For each row of the schema: run a small base scenario, move the row to
//! another in-range value, rerun into a copy of the base run's artifact
//! directory, and run the edited spec once more into a fresh directory.
//! The two runs must print the same scenario hash, so no stage resumed
//! into stale state. Every stage whose key inputs are unchanged (the rows
//! it declares it reads, and the hash of the profile store when it reads
//! it) and whose output files are the same must report `resumed`, so no
//! stage reran for nothing.
//!
//! Release builds sweep every row. Debug builds run the first row of each
//! distinct reader set.

use stca_core::pipeline::{self, RunPaths, RunSummary};
use stca_scenario::spec::rows;
use stca_scenario::{PredictorKind, ScenarioSpec, SpecValue, Stage};
use std::path::Path;

/// Trained serve on a few quick conditions, traced, so every stage and
/// every kind of reader runs.
const BASE: &str = "\
[workloads]
pair = \"knn,bfs\"

[profile]
conditions = 4
seed = 2022
measured_queries = 60
warmup_queries = 10
accesses_per_query = 400

[serve]
requests = 2000
seed = 2022
predictor = \"trained\"

[trace]
enabled = true
";

/// The edit applied to each row: `(section, key, new value)`. Every row
/// but `fault.plan` has one. `fault.plan` is write-only sugar: it sets the
/// override rows below it, which the canonical form and the keys carry.
const EDITS: &[(&str, &str, &str)] = &[
    ("scenario", "name", "renamed"),
    ("scenario", "pipeline", "profile,dataset,train,explore"),
    ("workloads", "pair", "knn,kmeans"),
    ("workloads", "accesses", "5000"),
    ("cat", "ways", "16"),
    ("cat", "default_span", "3"),
    ("cat", "boosted_span", "3"),
    ("fault", "max_retries", "1"),
    ("fault", "seed", "9"),
    ("fault", "crash", "0.2"),
    ("fault", "timeout", "0.2"),
    ("fault", "dropout", "0.2"),
    ("fault", "corrupt", "0.2"),
    ("fault", "stuck", "0.2"),
    ("fault", "noise", "0.1"),
    ("fault", "latency", "0.001"),
    ("fault", "predict_fail", "0.2"),
    ("fault", "stall", "0.2"),
    ("fault", "shard_crash", "0.2"),
    ("fault", "shard_stall", "0.2"),
    ("fault", "shard_flap", "0.2"),
    ("fault", "drift_burst", "0.2"),
    ("fault", "retrain_fail", "0.2"),
    ("fault", "retrain_slow", "0.2"),
    ("fault", "promote_corrupt", "0.2"),
    ("profile", "conditions", "5"),
    ("profile", "seed", "7"),
    ("profile", "out", "moved.stca"),
    ("profile", "measured_queries", "50"),
    ("profile", "warmup_queries", "5"),
    ("profile", "accesses_per_query", "300"),
    ("train", "model", "simple-ml"),
    ("train", "seed", "8"),
    ("explore", "utilization", "0.8"),
    ("explore", "grid", "0.5,1,2"),
    ("predict", "utilization", "0.5"),
    ("predict", "timeout_a", "3"),
    ("predict", "timeout_b", "3"),
    ("serve", "requests", "1500"),
    ("serve", "rate", "250"),
    ("serve", "deadline_s", "0.4"),
    ("serve", "servers", "3"),
    ("serve", "queue_capacity", "32"),
    ("serve", "overload", "shed-oldest"),
    ("serve", "hysteresis_k", "2"),
    ("serve", "breaker_threshold", "3"),
    ("serve", "breaker_cooldown_s", "2"),
    ("serve", "drain_grace_s", "3"),
    ("serve", "seed", "2023"),
    ("serve", "predictor", "analytic"),
    ("serve.fleet", "shards", "2"),
    ("serve.fleet", "router", "least-loaded"),
    ("serve.fleet", "reroute_max", "1"),
    ("serve.adapt", "enabled", "true"),
    ("serve.adapt", "epoch_s", "2.5"),
    ("serve.adapt", "window", "128"),
    ("serve.adapt", "min_samples", "32"),
    ("serve.adapt", "drift_threshold", "3"),
    ("serve.adapt", "shadow_requests", "32"),
    ("serve.adapt", "agree_tol", "0.5"),
    ("serve.adapt", "promote_agreement", "0.5"),
    ("serve.adapt", "guard_requests", "64"),
    ("serve.adapt", "guard_band", "2"),
    ("serve.adapt", "history", "2"),
    ("serve.adapt", "retrain_budget_s", "2"),
    ("trace", "enabled", "false"),
    ("trace", "sample_every", "16"),
    ("trace", "ring_capacity", "64"),
    ("artifacts", "dir", "elsewhere"),
    ("artifacts", "decision_log", "moved.log"),
    ("artifacts", "health", "moved-health.json"),
    ("artifacts", "metrics", "moved-metrics.json"),
    ("artifacts", "trace_json", "moved-trace.json"),
    ("artifacts", "trace_svg", "moved.svg"),
];

fn run(spec: &ScenarioSpec, dir: &Path) -> RunSummary {
    pipeline::run_scenario(spec, Some(dir), None)
        .unwrap_or_else(|e| panic!("run into {}: {e}", dir.display()))
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read run dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy artifact");
    }
}

/// Whether `stage` reads the profile store: every stage after profile,
/// except serve with the analytic predictor.
fn reads_store(spec: &ScenarioSpec, stage: Stage) -> bool {
    match stage {
        Stage::Profile => false,
        Stage::Serve => spec.serve.predictor == PredictorKind::Trained,
        _ => true,
    }
}

/// The profile store hash a run computed.
fn store_hash(run: &RunSummary) -> u64 {
    let profile = run.stages.iter().find(|s| s.stage == Stage::Profile);
    profile.expect("a profile stage").hash
}

#[test]
fn every_schema_row_resumes_exactly_the_stages_that_do_not_read_it() {
    // release sweeps every row; debug runs the first row of each reader set
    let mut cases = Vec::new();
    let mut seen = Vec::new();
    for row in rows().filter(|r| (r.section, r.key) != ("fault", "plan")) {
        let edit = EDITS.iter().find(|e| (e.0, e.1) == (row.section, row.key));
        let value = edit
            .unwrap_or_else(|| panic!("{}.{} has no edit", row.section, row.key))
            .2;
        if !cfg!(debug_assertions) || !seen.contains(&row.reads) {
            cases.push((row, value));
        }
        seen.push(row.reads);
    }
    assert_eq!(
        EDITS.len(),
        seen.len(),
        "an edit names no row or a row twice"
    );

    let root = std::env::temp_dir().join(format!("stca-stage-keys-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let base = stca_scenario::parse_str(BASE, "base").expect("base spec");
    let base_dir = root.join("base");
    let base_run = run(&base, &base_dir);
    assert!(base_run.stages.iter().all(|s| !s.resumed));

    for (i, &(row, value)) in cases.iter().enumerate() {
        let (section, key) = (row.section, row.key);
        let mut edited = base.clone();
        edited
            .set(section, key, &SpecValue::scalar(value))
            .unwrap_or_else(|e| panic!("{section}.{key} = {value}: {e:?}"));
        assert_ne!(edited.canonical(), base.canonical(), "{section}.{key}");
        let reused = root.join(format!("reused-{i}"));
        let fresh = root.join(format!("fresh-{i}"));
        copy_dir(&base_dir, &reused);
        let rerun = run(&edited, &reused);
        let fresh_run = run(&edited, &fresh);
        assert_eq!(
            rerun.scenario_hash, fresh_run.scenario_hash,
            "{section}.{key} = {value}: the rerun resumed stale state: {:#?}",
            rerun.stages
        );
        let store_moved = store_hash(&base_run) != store_hash(&fresh_run);
        for outcome in &rerun.stages {
            let stage = outcome.stage;
            let outputs = |spec: &ScenarioSpec| {
                let paths = RunPaths::resolve(spec, Some(&reused));
                let files = paths.outputs(stage);
                files.into_iter().map(Path::to_path_buf).collect::<Vec<_>>()
            };
            let inputs_moved = base.reads(stage, row)
                || edited.reads(stage, row)
                || (store_moved && reads_store(&edited, stage));
            let want = base.scenario.pipeline.contains(&stage)
                && !inputs_moved
                && outputs(&base) == outputs(&edited);
            assert_eq!(
                outcome.resumed,
                want,
                "{section}.{key} = {value}: stage {} resumed = {}",
                stage.name(),
                outcome.resumed
            );
        }
        std::fs::remove_dir_all(&reused).ok();
        std::fs::remove_dir_all(&fresh).ok();
    }
    std::fs::remove_dir_all(&root).ok();
}
