//! Round-trip and strictness properties of the scenario format.
//!
//! The contract under test: `parse(canonical(s)) == s` for any valid spec
//! `s`, canonicalization is idempotent byte-for-byte, fingerprints follow
//! canonical bytes, and anything outside the schema — unknown sections,
//! unknown keys, malformed values, duplicates — is a hard usage error
//! (exit 2) that names the offender.

use stca_scenario::spec::{rows, Codec};
use stca_scenario::{fnv1a, parse_str, ScenarioSpec, SpecValue};
use stca_util::{Bound, SpecErrorKind};

fn roundtrip(spec: &ScenarioSpec, what: &str) {
    let canon = spec.canonical();
    let reparsed = parse_str(&canon, what).unwrap_or_else(|e| {
        panic!("{what}: canonical form must re-parse, got {e}\n--- canonical ---\n{canon}")
    });
    assert_eq!(&reparsed, spec, "{what}: parse(canonical(s)) != s");
    assert_eq!(
        reparsed.canonical(),
        canon,
        "{what}: canonicalization is not idempotent"
    );
    assert_eq!(
        reparsed.fingerprint(),
        spec.fingerprint(),
        "{what}: fingerprint must follow canonical bytes"
    );
    assert_eq!(spec.fingerprint(), fnv1a(canon.as_bytes()), "{what}");
}

#[test]
fn default_spec_roundtrips() {
    roundtrip(&ScenarioSpec::default(), "default spec");
}

#[test]
fn committed_examples_roundtrip() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/scenarios must exist") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("stca") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).expect("read example");
        let name = path.display().to_string();
        let spec = parse_str(&text, &name).unwrap_or_else(|e| panic!("{name}: {e}"));
        roundtrip(&spec, &name);
    }
    assert!(
        seen >= 3,
        "expected the committed scenario catalog, saw {seen}"
    );
}

/// A tiny deterministic generator (splitmix64) — no clock, no rand crate.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() % xs.len() as u64) as usize]
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        // 2^-53 grid keeps the value exactly representable; Display
        // round-trips any finite f64, so this just keeps ranges sane.
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn u64_in(&mut self, min: u64, max: u64) -> u64 {
        let span = u128::from(max - min) + 1;
        min + (u128::from(self.next()) % span) as u64
    }

    /// A random in-range value for a row of codec `codec`.
    fn value(&mut self, codec: Codec) -> SpecValue {
        let scalar = |s: &str| SpecValue::scalar(s);
        let list = |xs: &[&str]| SpecValue::List(xs.iter().map(|x| x.to_string()).collect());
        match codec {
            Codec::Text => scalar(self.pick(&[
                "",
                "a",
                "table-1",
                "runs/r7/out.log",
                "spaces and tabs\tok",
                "quotes \"inside\" and a \\ backslash",
                "newline\nin name",
            ])),
            Codec::Bool => scalar(self.pick(&["true", "false"])),
            Codec::Num(Bound::Any) => scalar(&self.next().to_string()),
            Codec::Num(Bound::Int { min, max, .. }) => scalar(&self.u64_in(min, max).to_string()),
            Codec::Num(Bound::Positive) => scalar(&self.f64_in(1e-3, 2000.0).to_string()),
            Codec::Num(Bound::NonNegative) => scalar(&self.f64_in(0.0, 20.0).to_string()),
            Codec::Num(Bound::Probability) => scalar(&self.f64_in(0.0, 1.0).to_string()),
            Codec::Num(Bound::Factor) => scalar(&self.f64_in(1.0, 4.0).to_string()),
            Codec::Token(names) => scalar(self.pick(names)),
            Codec::Pair => {
                scalar(self.pick(&["kmeans,bfs", "redis,social", "spkmeans,spstream", "knn,jac"]))
            }
            Codec::Pipeline => list(self.pick(&[
                &["profile"][..],
                &["profile", "dataset", "train"],
                &["profile", "dataset", "train", "explore", "serve"],
                &["serve"],
                &["explore", "serve"],
            ])),
            Codec::Grid => {
                let n = 1 + self.next() % 6;
                let points: Vec<String> =
                    (0..n).map(|_| self.f64_in(0.0, 8.0).to_string()).collect();
                SpecValue::List(points)
            }
            Codec::Plan => scalar(self.pick(&["none", "ci-default", "heavy", "heavy,crash=0.5"])),
        }
    }
}

/// Drive `set` with a random in-range value for every row of the schema
/// (each row skipped now and then, so defaults and preset values mix in),
/// then demand a byte-stable round trip. This covers the same path the
/// file parser and the CLI flag layer share.
#[test]
fn every_row_roundtrips_random_in_range_values() {
    let mut g = Gen(0x5ca1ab1e);
    for round in 0..200 {
        let mut spec = ScenarioSpec::default();
        for row in rows() {
            if g.next().is_multiple_of(5) {
                continue;
            }
            let value = g.value(row.codec);
            spec.set(row.section, row.key, &value).unwrap_or_else(|e| {
                panic!(
                    "round {round}: set {}.{} = {value:?}: {e:?}",
                    row.section, row.key
                )
            });
        }
        roundtrip(&spec, &format!("random spec #{round}"));
    }
}

/// Every bounded row rejects a value just outside its range with an
/// `OutOfRange` naming the key, and accepts the range's edges.
#[test]
fn every_bounded_row_rejects_just_outside_its_range() {
    let mut checked = 0;
    for row in rows() {
        let Codec::Num(bound) = row.codec else {
            continue;
        };
        let (inside, outside): (Vec<String>, Vec<String>) = match bound {
            Bound::Any => continue,
            Bound::Int { min, max, .. } => (
                vec![min.to_string(), max.to_string()],
                [min.checked_sub(1), max.checked_add(1)]
                    .into_iter()
                    .flatten()
                    .map(|n| n.to_string())
                    .collect(),
            ),
            Bound::Positive => (vec!["5e-324".into()], vec!["0".into(), "-5e-324".into()]),
            Bound::NonNegative => (vec!["0".into()], vec!["-5e-324".into()]),
            Bound::Probability => (
                vec!["0".into(), "1".into()],
                vec!["-5e-324".into(), "1.0000000000000002".into()],
            ),
            Bound::Factor => (vec!["1".into()], vec!["0.9999999999999999".into()]),
        };
        for v in inside {
            let mut spec = ScenarioSpec::default();
            spec.set(row.section, row.key, &SpecValue::scalar(v.clone()))
                .unwrap_or_else(|e| panic!("{}.{} = {v}: {e:?}", row.section, row.key));
        }
        assert!(
            !outside.is_empty(),
            "{}.{}: bound {bound:?} has no outside",
            row.section,
            row.key
        );
        for v in outside {
            let mut spec = ScenarioSpec::default();
            match spec.set(row.section, row.key, &SpecValue::scalar(v.clone())) {
                Err(SpecErrorKind::OutOfRange { key, value, .. }) => {
                    assert_eq!((key.as_str(), value.as_str()), (row.key, v.as_str()));
                }
                other => panic!(
                    "{}.{} = {v}: want OutOfRange, got {other:?}",
                    row.section, row.key
                ),
            }
            checked += 1;
        }
    }
    assert!(checked >= 30, "only {checked} out-of-range probes");
}

fn expect_usage(text: &str, needles: &[&str]) {
    let err = parse_str(text, "test.stca").expect_err("must be rejected");
    let err = stca_fault::StcaError::from(err);
    assert_eq!(err.exit_code(), 2, "strictness errors are usage errors");
    let msg = err.to_string();
    for needle in needles {
        assert!(
            msg.contains(needle),
            "error {msg:?} must mention {needle:?}"
        );
    }
}

#[test]
fn unknown_section_is_rejected() {
    expect_usage(
        "[serving]\nrequests = 5\n",
        &["serving", "scenario", "workloads"],
    );
}

#[test]
fn unknown_key_names_offender_and_valid_set() {
    expect_usage(
        "[serve]\nwarp_factor = 9\n",
        &["\"warp_factor\"", "requests", "line 2"],
    );
    expect_usage(
        "[train]\nmodel = \"auto\"\nepochs = 3\n",
        &["\"epochs\"", "model", "seed"],
    );
}

#[test]
fn malformed_values_are_rejected() {
    expect_usage("[serve]\nrequests = cheese\n", &["requests", "cheese"]);
    expect_usage("[serve]\nrate = -4\n", &["rate"]);
    expect_usage("[explore]\ngrid = []\n", &["grid"]);
    expect_usage(
        "[scenario]\npipeline = [\"serve\", \"profile\"]\n",
        &["pipeline"],
    );
    expect_usage("[fault]\ncrash = 1.5\n", &["crash"]);
    expect_usage("[fault]\nplan = \"mayhem\"\n", &["mayhem", "heavy"]);
    expect_usage("[fault]\ndrift_burst = 2\n", &["drift_burst"]);
    expect_usage("[serve.adapt]\nwindow = 1\n", &["window"]);
    expect_usage("[serve.adapt]\nguard_band = 0.5\n", &["guard_band"]);
    expect_usage(
        "[serve.adapt]\npromote_agreement = 1.5\n",
        &["promote_agreement"],
    );
    expect_usage("[serve.adapt]\nepoch_s = 0\n", &["epoch_s"]);
}

#[test]
fn duplicate_and_orphan_keys_are_rejected() {
    expect_usage(
        "[serve]\nrequests = 5\nrequests = 6\n",
        &["requests", "line 3"],
    );
    expect_usage("requests = 5\n", &["line 1"]);
}
