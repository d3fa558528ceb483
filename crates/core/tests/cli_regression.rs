//! Byte-identity regression tests for the `stca` CLI.
//!
//! The spec-layer refactor routed every subcommand's config through
//! `ScenarioSpec` + flag overrides. These tests pin the observable
//! behavior to hashes captured from the pre-refactor binary: decision
//! hashes straight from serve stdout, FNV-1a of the profile store and of
//! explore/predict/characterize stdout. They also pin the override
//! precedence rule (flag beats spec beats default), strict rejection of
//! unknown flags/keys (exit 2), and `stca scenario run`'s thread
//! invariance + checkpoint resume.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_stca");

fn run_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .env_remove("STCA_FAULT_PLAN")
        .env_remove("STCA_THREADS")
        .output()
        .expect("spawn stca")
}

fn stdout_of(dir: &Path, args: &[&str]) -> String {
    let out = run_in(dir, args);
    assert!(
        out.status.success(),
        "stca {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stca-cli-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `stca serve` with pure flags reproduces the pre-refactor decision
/// hashes, with and without fault injection.
#[test]
fn serve_decision_hashes_match_pre_refactor_goldens() {
    let dir = temp_dir("serve");
    let out = stdout_of(&dir, &["serve", "--requests", "20000", "--threads", "2"]);
    assert!(
        out.contains("decision hash 1e138c92db208e79"),
        "default serve drifted:\n{out}"
    );
    let out = stdout_of(
        &dir,
        &[
            "serve",
            "--requests",
            "30000",
            "--rate",
            "600",
            "--deadline",
            "0.25",
            "--queue-cap",
            "16",
            "--fault-plan",
            "heavy",
            "--seed",
            "2022",
            "--threads",
            "2",
        ],
    );
    assert!(
        out.contains("decision hash ebed4ff2a16abe70"),
        "heavy-fault serve drifted:\n{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The full flag-driven chain — profile store bytes, explore and predict
/// stdout, trained serve — is byte-identical to the pre-refactor binary.
#[test]
fn profile_explore_predict_trained_serve_match_goldens() {
    let dir = temp_dir("chain");
    stdout_of(
        &dir,
        &[
            "profile",
            "--pair",
            "kmeans,bfs",
            "-n",
            "4",
            "--seed",
            "2022",
            "-o",
            "prof.stca",
            "--threads",
            "2",
        ],
    );
    let store = std::fs::read(dir.join("prof.stca")).expect("profile store");
    assert_eq!(
        fnv1a(&store),
        0x3897335ca389b65c,
        "profile store bytes drifted"
    );

    let out = stdout_of(
        &dir,
        &[
            "explore",
            "--profiles",
            "prof.stca",
            "--pair",
            "kmeans,bfs",
            "--threads",
            "2",
        ],
    );
    assert_eq!(
        fnv1a(out.as_bytes()),
        0x6e1cb72ca5660331,
        "explore stdout drifted:\n{out}"
    );

    let out = stdout_of(
        &dir,
        &[
            "predict",
            "--profiles",
            "prof.stca",
            "--pair",
            "kmeans,bfs",
            "--util",
            "0.9",
            "--timeouts",
            "1.5,1.5",
            "--threads",
            "2",
        ],
    );
    assert_eq!(
        fnv1a(out.as_bytes()),
        0x429c09858ae33d1b,
        "predict stdout drifted:\n{out}"
    );

    let out = stdout_of(
        &dir,
        &[
            "serve",
            "--requests",
            "20000",
            "--profiles",
            "prof.stca",
            "--pair",
            "kmeans,bfs",
            "--seed",
            "2022",
            "--threads",
            "2",
        ],
    );
    assert!(
        out.contains("decision hash 18297e851d0faa70"),
        "trained serve drifted:\n{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn characterize_stdout_matches_golden() {
    let dir = temp_dir("char");
    let out = stdout_of(
        &dir,
        &["characterize", "--accesses", "20000", "--threads", "2"],
    );
    assert_eq!(
        fnv1a(out.as_bytes()),
        0x4a7781f1ee7fd32f,
        "characterize stdout drifted:\n{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Flag beats spec beats default: a spec file overrides the built-in
/// default, and an explicit flag overrides the spec.
#[test]
fn flag_beats_spec_beats_default() {
    let dir = temp_dir("precedence");
    let spec = dir.join("mini.stca");
    std::fs::write(&spec, "[serve]\nrequests = 4000\nrate = 400\n").expect("write spec");
    let spec = spec.to_str().expect("utf8 path");

    // Spec beats the built-in default of 100000 requests.
    let out = stdout_of(&dir, &["serve", "--spec", spec, "--threads", "1"]);
    assert!(
        out.contains("served 4000 requests"),
        "spec override lost:\n{out}"
    );

    // Flag beats the spec's 4000.
    let out = stdout_of(
        &dir,
        &[
            "serve",
            "--spec",
            spec,
            "--requests",
            "2500",
            "--threads",
            "1",
        ],
    );
    assert!(
        out.contains("served 2500 requests"),
        "flag override lost:\n{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Unknown flags and unknown spec keys are usage errors (exit 2) that
/// name the offender.
#[test]
fn unknown_flags_and_keys_exit_2() {
    let dir = temp_dir("strict");
    let out = run_in(&dir, &["serve", "--warp", "9"]);
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("warp"),
        "stderr must name the flag"
    );

    let bad = dir.join("bad.stca");
    std::fs::write(&bad, "[serve]\nrequests = 5\nwarp = 9\n").expect("write spec");
    let out = run_in(
        &dir,
        &["scenario", "check", bad.to_str().expect("utf8 path")],
    );
    assert_eq!(out.status.code(), Some(2), "unknown key must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("\"warp\"") && err.contains("line 3"),
        "bad error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Out-of-range sizes fail cleanly instead of aborting on allocation: a
/// huge adapt window grows with the traffic rather than being reserved up
/// front, and `serve.servers` is bounded like `serve.fleet.shards`.
#[test]
fn huge_adapt_window_serves_and_huge_server_count_exits_2() {
    let dir = temp_dir("huge");
    let out = run_in(
        &dir,
        &[
            "serve",
            "--requests",
            "200",
            "--adapt-window",
            "100000000000000",
            "--threads",
            "1",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "huge adapt window must serve:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = run_in(&dir, &["serve", "--servers", "100000000000"]);
    assert_eq!(out.status.code(), Some(2), "huge server count must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("servers=100000000000: out of range") && err.contains("1..=1024"),
        "bad error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Any `--trace-*` flag enables the recorder and any `--adapt-*` tuning
/// flag enables the lifecycle, unless `--adapt` says otherwise.
#[test]
fn trace_and_adapt_flags_imply_enable() {
    let dir = temp_dir("implied");
    let serve = |extra: &[&str]| {
        let mut args = vec!["serve", "--requests", "2000", "--threads", "1"];
        args.extend_from_slice(extra);
        stdout_of(&dir, &args)
    };
    let adapt_lines = |out: &str| out.lines().filter(|l| l.contains("adapt:")).count();

    let out = serve(&["--adapt-window", "128"]);
    assert!(
        adapt_lines(&out) > 0,
        "--adapt-window must enable adapt:\n{out}"
    );
    let out = serve(&["--adapt", "false", "--adapt-window", "128"]);
    assert_eq!(adapt_lines(&out), 0, "--adapt false must win:\n{out}");
    let out = serve(&["--trace-sample", "8"]);
    assert!(
        out.lines().any(|l| l.trim_start().starts_with("trace:")),
        "--trace-sample must enable tracing:\n{out}"
    );
    assert_eq!(adapt_lines(&out), 0, "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

const MINI_SCENARIO: &str = "\
[scenario]
name = \"mini\"
pipeline = [\"profile\", \"dataset\", \"train\", \"explore\", \"serve\"]

[profile]
conditions = 2
seed = 2022

[serve]
requests = 5000
seed = 2022
predictor = \"trained\"
";

fn scenario_hash(out: &str) -> &str {
    out.lines()
        .find_map(|l| l.strip_prefix("scenario hash "))
        .unwrap_or_else(|| panic!("no scenario hash in:\n{out}"))
}

/// `stca scenario run` is bit-identical across thread counts and resumes
/// finished stages from the checkpoint, mid-pipeline included.
#[test]
fn scenario_run_is_thread_invariant_and_resumable() {
    let dir = temp_dir("scenario");
    let spec = dir.join("mini.stca");
    std::fs::write(&spec, MINI_SCENARIO).expect("write scenario");
    let spec = spec.to_str().expect("utf8 path");

    let t1 = stdout_of(
        &dir,
        &[
            "scenario",
            "run",
            spec,
            "--artifacts",
            "a",
            "--threads",
            "1",
        ],
    );
    let t8 = stdout_of(
        &dir,
        &[
            "scenario",
            "run",
            spec,
            "--artifacts",
            "b",
            "--threads",
            "8",
        ],
    );
    assert_eq!(
        scenario_hash(&t1),
        scenario_hash(&t8),
        "--threads 1 vs 8 diverged:\n{t1}\n---\n{t8}"
    );

    // Stop mid-pipeline, then finish: the first three stages must resume.
    let partial = stdout_of(
        &dir,
        &[
            "scenario",
            "run",
            spec,
            "--artifacts",
            "c",
            "--until",
            "train",
            "--threads",
            "2",
        ],
    );
    assert!(!partial.contains("explore"), "--until overshot:\n{partial}");
    let full = stdout_of(
        &dir,
        &[
            "scenario",
            "run",
            spec,
            "--artifacts",
            "c",
            "--threads",
            "2",
        ],
    );
    for stage in ["profile", "dataset", "train"] {
        let line = full
            .lines()
            .find(|l| l.contains(stage))
            .unwrap_or_else(|| panic!("no {stage} line in:\n{full}"));
        assert!(
            line.contains("resumed"),
            "{stage} re-ran instead of resuming:\n{full}"
        );
    }
    assert_eq!(
        scenario_hash(&full),
        scenario_hash(&t1),
        "resumed run diverged from fresh run"
    );

    // A complete re-run resumes everything and lands on the same hash.
    let rerun = stdout_of(
        &dir,
        &[
            "scenario",
            "run",
            spec,
            "--artifacts",
            "a",
            "--threads",
            "4",
        ],
    );
    let resumed = rerun
        .lines()
        .filter(|l| l.trim_start().starts_with("stage ") && l.contains("resumed"))
        .count();
    assert_eq!(resumed, 5, "all stages must resume:\n{rerun}");
    assert_eq!(scenario_hash(&rerun), scenario_hash(&t1));
    std::fs::remove_dir_all(&dir).ok();
}
