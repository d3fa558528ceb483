//! Regenerate the paper's tables and figures (see `stca_bench::figures`).
//!
//! Usage:
//!   cargo run --release -p stca-bench --bin figures --
//!       [--only NAME] [--scale quick|standard|full] [--threads N]
//!       [--metrics-out FILE]
//!
//! Runs one figure, or all of them in paper order, at `--scale` (default
//! `standard`). Result tables go to stdout, logs and the metrics summary
//! to stderr. An unknown flag, scale or figure name, or a bad thread
//! count, exits 2; a failed `--metrics-out` write exits 1.

use stca_bench::figures::FIGURES;
use stca_bench::Scale;
use stca_fault::StcaError;
use stca_util::{ArgError, Args};
use std::process::ExitCode;

const FLAGS: [&str; 4] = ["only", "scale", "threads", "metrics-out"];

fn real_main() -> Result<(), StcaError> {
    let flags = Args::from_env()?;
    flags.check(|f| FLAGS.contains(&f)).map_err(|e| match e {
        ArgError::UnknownFlag { flag } => StcaError::usage(format!(
            "unknown flag --{flag} (expected --{})",
            FLAGS.join(", --")
        )),
        e => e.into(),
    })?;
    let scale: Scale = flags.get_parsed("scale", Scale::Standard)?;
    if let Some(n) = flags.get("threads") {
        stca_exec::set_threads(stca_exec::parse_threads(n).map_err(StcaError::usage)?);
    }
    let only = flags.get("only");
    let selected: Vec<_> = FIGURES
        .iter()
        .filter(|(name, _)| only.is_none_or(|o| o == *name))
        .collect();
    if let (Some(only), []) = (only, &selected[..]) {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        return Err(StcaError::usage(format!(
            "unknown figure {only:?} (expected one of {})",
            names.join(", ")
        )));
    }
    for (name, run) in selected {
        stca_obs::info!("figures: running {name} at scale {scale:?}");
        run(scale);
    }
    let out = flags.path("metrics-out");
    stca_obs::emit_run_report_to(out.as_deref())
        .map_err(|e| StcaError::io(out.unwrap_or_default().display().to_string(), e))
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
