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

/// `stca explore --checkpoint` keys its cells by the profile store it
/// loaded: a store whose trace differs in one value, with every EA and
/// static feature kept, trains another model, so no cell may resume.
#[test]
fn explore_checkpoint_covers_the_whole_profile_store() {
    let dir = temp_dir("explore-key");
    let profile = [
        "profile",
        "--pair",
        "kmeans,bfs",
        "-n",
        "4",
        "--seed",
        "2022",
        "-o",
        "prof.stca",
    ];
    stdout_of(&dir, &profile);
    let explore = ["explore", "--profiles", "prof.stca", "--pair", "kmeans,bfs"];
    let checkpointed = [&explore[..], &["--checkpoint", "explore.ckpt.json"]].concat();
    let before = stdout_of(&dir, &checkpointed);

    let path = dir.join("prof.stca");
    let mut set = stca_profiler::storage::load(&path).expect("load profile store");
    set.rows[1].trace[(5, 5)] += 1.0e6;
    stca_profiler::storage::save(&set, &path).expect("save profile store");

    let fresh = stdout_of(&dir, &explore);
    assert_ne!(fresh, before, "the edited trace changed nothing");
    let resumed = stdout_of(&dir, &checkpointed);
    assert_eq!(resumed, fresh, "explore resumed cells of another store");
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

/// A `--threads` value that is not a positive integer is a usage error
/// (exit 2) with the same message `figures` prints, not a silent fallback
/// to every core.
#[test]
fn bad_threads_exit_2() {
    let dir = temp_dir("threads");
    for bad in ["0", "zero", "-3"] {
        let out = run_in(
            &dir,
            &["characterize", "--accesses", "2000", "--threads", bad],
        );
        assert_eq!(out.status.code(), Some(2), "--threads {bad} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        let want =
            format!("error: usage error: bad --threads {bad:?}: expected a positive integer");
        assert!(err.starts_with(&want), "bad error: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--checkpoint` is read only by `profile` and `explore`; every other
/// subcommand rejects it as an unknown flag (exit 2) rather than
/// accepting it and writing nothing.
#[test]
fn checkpoint_flag_only_where_a_stage_checkpoints() {
    let dir = temp_dir("ckpt-flag");
    let rejected: [&[&str]; 3] = [
        &["serve", "--requests", "200"],
        &["characterize", "--accesses", "1000"],
        &[
            "predict",
            "--pair",
            "redis,social",
            "--profiles",
            "p.stca",
            "--util",
            "0.9",
            "--timeouts",
            "1.5,1.5",
        ],
    ];
    for args in rejected {
        let args = [args, &["--checkpoint", "ckpt.json"]].concat();
        let out = run_in(&dir, &args);
        assert_eq!(out.status.code(), Some(2), "stca {args:?} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: usage error: unknown flag --checkpoint"),
            "stca {args:?}: {err}"
        );
        assert!(!dir.join("ckpt.json").exists(), "stca {args:?}");
    }
    stdout_of(
        &dir,
        &[
            "profile",
            "--pair",
            "kmeans,bfs",
            "-n",
            "1",
            "-o",
            "p.stca",
            "--checkpoint",
            "ckpt.json",
        ],
    );
    assert!(
        dir.join("ckpt.json").exists(),
        "profile wrote no checkpoint"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `stca scenario` and `stca trace` reject a flag their subcommand does
/// not read (exit 2, naming it) before touching any file, and still
/// accept the flags they do read plus the process-wide ones.
#[test]
fn scenario_and_trace_reject_unknown_flags() {
    let dir = temp_dir("sub-flags");
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/fleet-heavy.stca"
    );
    let rejected: [(&[&str], &str); 6] = [
        (&["scenario", "check", spec, "--warp", "9"], "warp"),
        (&["scenario", "check", spec, "--until", "train"], "until"),
        (
            &["scenario", "run", spec, "--checkpoint", "x"],
            "checkpoint",
        ),
        (&["trace", "check", "missing.json", "--warp", "9"], "warp"),
        (
            &["trace", "check", "missing.json", "--decision-log", "d"],
            "decision-log",
        ),
        (
            &["trace", "report", "missing.json", "--artifacts", "a"],
            "artifacts",
        ),
    ];
    for (args, flag) in rejected {
        let out = run_in(&dir, args);
        assert_eq!(out.status.code(), Some(2), "stca {args:?} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        let want = format!("error: usage error: unknown flag --{flag}\n");
        assert!(err.starts_with(&want), "stca {args:?}: {err}");
    }
    assert!(!dir.join("a").exists() && !dir.join("x").exists());
    let out = stdout_of(
        &dir,
        &[
            "scenario",
            "check",
            spec,
            "--artifacts",
            "a",
            "--threads",
            "1",
        ],
    );
    assert!(out.contains("[scenario]"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that stops early (`stca characterize | head -1`) ends the run
/// quietly: exit 0, no panic on the closed pipe, and the metrics report
/// is still written.
#[test]
fn closed_stdout_exits_quietly() {
    use std::io::BufRead;
    let dir = temp_dir("pipe");
    // each of the eight table rows takes tens of milliseconds, so the
    // rows after the header are written after the reader has gone
    let mut child = Command::new(BIN)
        .args(["characterize", "--accesses", "200000", "--threads", "1"])
        .args(["--metrics-out", "m.json"])
        .current_dir(&dir)
        .env_remove("STCA_FAULT_PLAN")
        .env_remove("STCA_THREADS")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn stca");
    let mut header = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut header)
        .expect("read the header");
    assert!(header.contains("benchmark"), "{header}");
    let out = child.wait_with_output().expect("wait for stca");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {err}", out.status);
    assert!(!err.contains("panicked"), "{err}");
    assert!(dir.join("m.json").exists(), "no metrics report: {err}");
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

/// A zero admission queue is a usage error from the flag and from the
/// spec: the overload policies disagreed on what it meant (shed-newest
/// shed every request, the other two acted as a queue of 1).
#[test]
fn zero_queue_capacity_exits_2() {
    let dir = temp_dir("queue-cap");
    let spec = dir.join("queue-cap.stca");
    std::fs::write(&spec, "[serve]\nqueue_capacity = 0\n").expect("write spec");
    let spec = spec.to_str().expect("utf8 path");
    for args in [
        &["serve", "--queue-cap", "0"][..],
        &["serve", "--spec", spec],
        &["scenario", "check", spec],
    ] {
        let out = run_in(&dir, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("queue_capacity=0: out of range"),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: wrote stdout");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A last flag with no value is reported as unknown when the subcommand
/// does not read it, and as missing its value when it does.
#[test]
fn trailing_flag_is_checked_by_name_first() {
    let dir = temp_dir("trailing");
    for (args, want) in [
        (&["serve", "--bogus"][..], "unknown flag --bogus"),
        (
            &["scenario", "run", "x.stca", "--bogus"],
            "unknown flag --bogus",
        ),
        (
            &["trace", "check", "x.json", "--bogus"],
            "unknown flag --bogus",
        ),
        (
            &["profile", "--pair", "kmeans,bfs", "--checkpoint"],
            "flag --checkpoint needs a value",
        ),
        (&["serve", "--requests"], "flag --requests needs a value"),
    ] {
        let out = run_in(&dir, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.starts_with(&format!("error: usage error: {want}\n")),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: wrote stdout");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Flag names are checked before `--spec` is read: an unknown flag beside
/// a missing spec file exits 2 naming the flag, and a missing spec file
/// with only known flags still exits 1 naming the file.
#[test]
fn unknown_flag_is_reported_before_the_spec_is_read() {
    let dir = temp_dir("flag_before_spec");
    for cmd in ["serve", "explore"] {
        let out = run_in(&dir, &[cmd, "--spec", "nope.stca", "--bogus", "1"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {err}");
        assert!(
            err.starts_with("error: usage error: unknown flag --bogus\n"),
            "{cmd}: {err}"
        );
    }
    let out = run_in(&dir, &["serve", "--spec", "nope.stca", "--requests", "5"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("nope.stca"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A usage error prints its one error line and a hint, not the whole
/// help; `stca help` prints the help to stdout.
#[test]
fn usage_error_prints_one_line_and_a_hint() {
    let dir = temp_dir("usage-hint");
    for args in [&["serve", "--queue-cap", "0"][..], &["bogus"], &[]] {
        let out = run_in(&dir, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.lines().count() <= 2, "{args:?}: {err}");
        assert!(
            err.ends_with("run 'stca help' for usage\n"),
            "{args:?}: {err}"
        );
    }
    let help = stdout_of(&dir, &["help"]);
    assert!(
        help.contains("USAGE:") && help.lines().count() > 100,
        "{help}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A `[cat]` way count past 64 (a way mask is a `u64`), too narrow for
/// the pair layout, or too narrow for characterize's 2-way private
/// allocation is a usage error (exit 2) naming the `[cat]` keys, with
/// nothing on stdout, not a panic inside the cache simulator reported as
/// failed conditions.
#[test]
fn bad_cat_ways_exit_2() {
    let dir = temp_dir("cat-ways");
    for (ways, cmd, want) in [
        ("100", "profile", "ways=100: out of range"),
        ("100", "characterize", "ways=100: out of range"),
        (
            "3",
            "profile",
            "[cat] default_span = 2 and boosted_span = 2 need 6 ways",
        ),
        ("1", "characterize", "[cat] ways = 1 is narrower than"),
    ] {
        let spec = dir.join(format!("ways-{ways}.stca"));
        let text = format!("[cat]\nways = {ways}\n\n[profile]\nconditions = 1\n");
        std::fs::write(&spec, text).expect("write spec");
        let out = run_in(&dir, &[cmd, "--spec", spec.to_str().expect("utf8 path")]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd} ways = {ways}: {err}");
        assert!(err.contains(want), "{cmd} ways = {ways}: bad error: {err}");
        assert!(out.stdout.is_empty(), "{cmd} ways = {ways}: wrote stdout");
    }
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

/// A serve-only fleet under the heavy plan and shard faults: the shape of
/// the fleet-faults benchmark, at 20 000 requests.
const FLEET_LOG_SCENARIO: &str = "\
[scenario]
name = \"fleet-log\"
pipeline = [\"serve\"]

[fault]
plan = \"heavy,shard_crash=0.25,shard_stall=0.2,shard_flap=0.2,seed=2022\"

[serve]
requests = 20000
rate = 1200
deadline_s = 0.25
queue_capacity = 16
seed = 2022
predictor = \"analytic\"

[serve.fleet]
shards = 8
";

/// The FNV-1a of every written `decisions.log` is the serve decision hash
/// printed for the same run, from `stca scenario run` and from
/// `stca serve --decision-log`.
#[test]
fn decision_log_bytes_hash_to_the_printed_decision_hash() {
    let dir = temp_dir("decision-log");
    let spec = dir.join("fleet-log.stca");
    std::fs::write(&spec, FLEET_LOG_SCENARIO).expect("write scenario");
    let spec = spec.to_str().expect("utf8 path");
    let out = stdout_of(
        &dir,
        &[
            "scenario",
            "run",
            spec,
            "--artifacts",
            "a",
            "--threads",
            "2",
        ],
    );
    let printed = out
        .lines()
        .find_map(|l| l.split_once(", decision hash ").map(|(_, h)| h.trim()))
        .unwrap_or_else(|| panic!("no serve decision hash in:\n{out}"));
    let log = std::fs::read(dir.join("a/decisions.log")).expect("read decision log");
    let lines = log.iter().filter(|&&b| b == b'\n').count();
    assert!(lines >= 20_000, "{lines} lines: not the full log");
    assert_eq!(format!("{:016x}", fnv1a(&log)), printed, "scenario run");

    let out = stdout_of(
        &dir,
        &[
            "serve",
            "--spec",
            spec,
            "--decision-log",
            "d.log",
            "--threads",
            "2",
        ],
    );
    let log = std::fs::read(dir.join("d.log")).expect("read decision log");
    let want = format!("decision hash {:016x}", fnv1a(&log));
    assert!(
        out.contains(&want),
        "no `{want}` in stca serve stdout:\n{out}"
    );
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
    // the serve stage writes its full decision log, one line per request
    let log = std::fs::read_to_string(dir.join("a/decisions.log")).expect("read decision log");
    assert_eq!(
        log.lines().filter(|l| l.starts_with("seq=")).count(),
        5000,
        "decisions.log is not the full log:\n{log:.200}"
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
