//! The serving soak over every committed serving scenario at its
//! committed size: the full robustness contract of `stca_bench::soak`,
//! plus the faulted run's decision hash against the scenario's golden.
//!
//! One test fn: the metrics registry (the retrain-histogram check reads
//! it) and the worker-thread count are process-global.

use std::path::Path;

#[test]
fn committed_serving_scenarios_pass_the_soak() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scenarios = root.join("examples/scenarios");
    // the trained predictor profiles here, not under the repo
    let artifacts = std::env::temp_dir().join(format!("stca-soak-{}", std::process::id()));
    for name in [
        "table1-baseline",
        "serve-heavy",
        "fleet-heavy",
        "drift-heavy",
    ] {
        let spec = stca_scenario::load_file(&scenarios.join(format!("{name}.stca")))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let decision_hash = stca_bench::soak::run(&spec, Some(&artifacts.join(name)))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let golden = scenarios.join(format!("golden/{name}.decision.hash"));
        if let Ok(golden) = std::fs::read_to_string(golden) {
            assert_eq!(
                format!("{decision_hash:016x}"),
                golden.trim(),
                "{name}: faulted decision hash drifted from its golden"
            );
        }
    }
    std::fs::remove_dir_all(&artifacts).ok();
}
