//! CLI checks for the `soak` binary.

use std::path::Path;
use std::process::Command;

#[test]
fn malformed_stca_log_exits_2_naming_the_directive() {
    // a valid scenario, so only the log filter can fail the run
    let scenario =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/fleet-heavy.stca");
    let out = Command::new(env!("CARGO_BIN_EXE_soak"))
        .arg("--scenario")
        .arg(&scenario)
        .env("STCA_LOG", "info,queuesim=banana")
        .env_remove("STCA_LOG_FORMAT")
        .output()
        .expect("spawn soak");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("bad STCA_LOG directive \"queuesim=banana\""),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "soak ran despite the bad filter");
}
