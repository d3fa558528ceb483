//! Soak a committed serving scenario: replay its serve stage under its
//! own fault plan at 1 and 8 threads, traced and untraced, and assert the
//! serving plane's robustness contract (see `stca_bench::soak`).
//!
//! Usage:
//!   cargo run --release -p stca-bench --bin soak --
//!       --scenario FILE [--requests N] [--metrics-out FILE]
//!
//! `--requests` overrides `[serve] requests`; `--metrics-out` writes the
//! metrics registry, including the recorded wall overheads. Unknown flags
//! and a scenario without a serve stage exit 2. A `trained` predictor
//! profiles into `runs/<name>`, as `stca scenario run` does.

use stca_fault::StcaError;
use stca_scenario::SpecValue;
use stca_util::{Args, SpecError};
use std::path::Path;
use std::process::ExitCode;

const FLAGS: [&str; 3] = ["scenario", "requests", "metrics-out"];

fn real_main() -> Result<(), StcaError> {
    let flags = Args::from_env()?;
    if let Some((flag, _)) = flags.iter().find(|(f, _)| !FLAGS.contains(f)) {
        return Err(StcaError::usage(format!(
            "unknown flag --{flag} (expected --{})",
            FLAGS.join(", --")
        )));
    }
    let mut spec = stca_scenario::load_file(Path::new(flags.require("scenario")?))?;
    if let Some(n) = flags.get("requests") {
        spec.set("serve", "requests", &SpecValue::scalar(n))
            .map_err(|kind| SpecError::new("flag --requests", kind))?;
    }
    let decision_hash = stca_bench::soak::run(&spec, None)?;
    if let Some(path) = flags.path("metrics-out") {
        stca_obs::write_metrics(stca_obs::registry(), &path)
            .map_err(|e| StcaError::io(path.display().to_string(), e))?;
        println!("wrote metrics to {}", path.display());
    }
    println!(
        "soak passed: {} (decision hash {:016x})",
        spec.scenario.name, decision_hash
    );
    Ok(())
}

fn main() -> ExitCode {
    if let Err(e) = stca_obs::try_init_from_env() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
