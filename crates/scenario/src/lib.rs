//! # stca-scenario
//!
//! Declarative scenario specs: one reviewable file that drives the whole
//! profile → dataset → train → explore → serve pipeline, plus the config
//! spine behind every `stca` subcommand.
//!
//! A scenario file is a strict TOML subset (see [`parse`]) over the typed
//! [`ScenarioSpec`] schema (see [`spec`]). The same [`ScenarioSpec::set`]
//! setter backs file keys and CLI flag overrides, giving one precedence
//! rule everywhere: **flag beats spec beats default**. [`convert`] turns
//! sections into the concrete configs the engine crates consume
//! (`ServeConfig`, `TraceConfig`, arrival streams), preserving the
//! historical seed derivations (`breaker = seed ^ 0xB4EA`,
//! `trace = seed ^ 0x7ACE`) so flag-built specs behave byte-identically
//! to the pre-spec CLI.

#![warn(clippy::unwrap_used)]

pub mod convert;
pub mod parse;
pub mod spec;

pub use parse::{apply_str, parse_str};
pub use spec::{
    ArtifactsSection, CatSection, FaultSection, FleetSection, ModelKind, PredictorKind,
    ProfileSection, ScenarioSection, ScenarioSpec, ServeSection, SpecValue, Stage, TraceSection,
    TrainSection, WorkloadsSection, SECTIONS,
};
/// FNV-1a over bytes: spec fingerprints, stage keys and artifact hashes.
pub use stca_util::fnv1a;

use stca_fault::StcaError;
use std::path::Path;

/// Load a scenario file: read, parse strictly, and validate. Parse errors
/// carry the file path and 1-based line number and exit 2 through
/// `StcaError::Usage`.
pub fn load_file(path: &Path) -> Result<ScenarioSpec, StcaError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| StcaError::io(path.display().to_string(), e))?;
    let context = format!("scenario {}", path.display());
    let spec = parse_str(&text, &context)?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_file_reports_path_and_line() {
        let dir = std::env::temp_dir().join("stca-scenario-libtest");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("bad.stca");
        std::fs::write(&path, "[serve]\nwarp = 9\n").expect("write");
        let err = load_file(&path).expect_err("unknown key must fail");
        let msg = err.to_string();
        assert!(msg.contains("bad.stca"), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("\"warp\""), "{msg}");
        assert_eq!(err.exit_code(), 2);
        std::fs::remove_file(&path).ok();
    }
}
