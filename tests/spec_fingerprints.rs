//! The committed scenario specs keep their fingerprints: FNV-1a over the
//! canonical form, the same value `stca scenario run` prints as its
//! `spec fingerprint` and folds into every scenario hash. A change to the
//! key table that moved a key, a default or a value's canonical text
//! would move these.

use std::path::Path;

#[test]
fn committed_spec_fingerprints_are_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let pinned = [
        ("examples/scenarios/drift-heavy.stca", 0xd592140893f980ee),
        ("examples/scenarios/fleet-heavy.stca", 0x79e2494725d7214d),
        ("examples/scenarios/policy-sweep.stca", 0x863aab5244e7cefd),
        ("examples/scenarios/serve-heavy.stca", 0x2f6b25c6220c7b54),
        (
            "examples/scenarios/table1-baseline.stca",
            0xd2e9fb936abe19c0,
        ),
        ("perfbench/specs/fleet-adapt.scenario", 0x1146ff1dbdadd1c9),
        ("perfbench/specs/fleet-faults.scenario", 0xfff1d9fcd9c32095),
        ("perfbench/specs/offline-model.scenario", 0x3b489e720563c0f8),
        ("perfbench/specs/serve-trained.scenario", 0x1db886ff8d18abee),
    ];
    for (file, want) in pinned {
        let spec =
            stca_scenario::load_file(&root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            spec.fingerprint(),
            want,
            "{file}: fingerprint {:016x} != pinned {want:016x}",
            spec.fingerprint()
        );
    }
}
