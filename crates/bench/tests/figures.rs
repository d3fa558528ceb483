//! Byte-identity and CLI tests for the `figures` binary.
//!
//! Each figure's quick-scale stdout is pinned by an FNV-1a hash captured
//! from the per-figure binaries the registry replaced. Fig5 and fig6 were
//! re-pinned once since, when zero-variance CNN features began to
//! standardize to 0 (their CNN rows had read ~1e10 %). Fig5's `train time`
//! rows are wall-clock readings, so they are dropped before hashing; every
//! other line is deterministic. A full run must print exactly the
//! `--only` outputs in registry order, and bad flags must exit 2.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_figures");

/// Quick-scale stdout hash of each figure, in registry order.
const QUICK_HASHES: [(&str, u64); 12] = [
    ("table1_workloads", 0x02cb5c65bab27e0c),
    ("table2_conditions", 0x0c0741c9df93ac0f),
    ("fig5_variance", 0xee32952b1c4eabf3),
    ("fig6_accuracy", 0xc154c86212ba31f1),
    ("fig7a_generalization", 0x1d00888da6528f97),
    ("fig7b_cache_sizes", 0xe1f6ee01093a0eee),
    ("fig7c_mgs", 0x10cbfaa3bf456b5e),
    ("fig8_speedup", 0x7be709ec91de031e),
    ("profiling_time", 0xdc7cce449e2331fa),
    ("insight_clustering", 0xaf42cd58cfd8dee7),
    ("ablation_maskmode", 0xd37ef5106e19e91a),
    ("diag_stage3", 0x6c75f1e659ba902d),
];

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .env_remove("STCA_FAULT_PLAN")
        .env_remove("STCA_THREADS")
        .env_remove("STCA_LOG")
        .output()
        .expect("spawn figures")
}

/// Stdout of a successful run, minus fig5's wall-clock `train time` rows.
fn deterministic_stdout(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "figures {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf8 stdout")
        .split_inclusive('\n')
        .filter(|line| !line.contains("train time"))
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

#[test]
fn quick_figures_match_pinned_hashes_and_a_full_run_concatenates_them() {
    let mut concatenated = String::new();
    let mut drifted = Vec::new();
    for (name, pinned) in QUICK_HASHES {
        let out = deterministic_stdout(&["--only", name, "--scale", "quick"]);
        let hash = fnv1a(out.as_bytes());
        if hash != pinned {
            drifted.push(format!("{name}: {hash:#018x}\n{out}"));
        }
        concatenated.push_str(&out);
    }
    assert!(drifted.is_empty(), "drifted:\n{}", drifted.join("\n"));
    assert_eq!(deterministic_stdout(&["--scale", "quick"]), concatenated);
}

#[test]
fn bad_flags_exit_2_and_name_the_valid_values() {
    for (args, expected) in [
        (
            &["--bogus", "1"][..],
            "--only, --scale, --threads, --metrics-out",
        ),
        (&["--scale", "quik"][..], "quick, standard or full"),
        (
            &["--only", "fig9"][..],
            "table1_workloads, table2_conditions",
        ),
        (&["--threads", "0"][..], "positive integer"),
        (&["--threads", "two"][..], "positive integer"),
        (&["--only"][..], "--only needs a value"),
        (&["fig6_accuracy"][..], "expected a --flag"),
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran a figure");
    }
}

#[test]
fn metrics_out_is_written_and_a_failed_write_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("stca-figures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("m.json");
    let path_arg = path.to_str().expect("utf8 path");
    let out = run(&["--only", "table2_conditions", "--metrics-out", path_arg]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).expect("metrics written");
    stca_obs::json::Value::parse(&text).expect("metrics are JSON");

    let missing = dir.join("missing").join("m.json");
    let out = run(&[
        "--only",
        "table2_conditions",
        "--metrics-out",
        missing.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("m.json"));
    std::fs::remove_dir_all(&dir).ok();
}
