//! The four workloads: how each resolves its spec, sets up, runs one timed
//! pass, and fingerprints its outputs.
//!
//! Everything runs through the public calls `stca scenario run` makes:
//! `pipeline::{profile_conditions, train_predictor}`, `Predictor`,
//! `PolicyExplorer::explore_with_grid`, `convert::{serve_config,
//! fleet_config, synthetic_stream}` and `stca_serve::{serve, serve_fleet}`.
//! The benchmark only times those calls from outside.

use crate::spans::{Scope, Tier};
use stca_core::pipeline::{profile_conditions, train_predictor, train_predictor_seeded};
use stca_core::{PolicyExplorer, Predictor, ServingPredictor};
use stca_profiler::profile::{ProfileRow, ProfileSet};
use stca_scenario::convert::{fleet_config, serve_config, synthetic_stream};
use stca_scenario::ScenarioSpec;
use stca_serve::{AnalyticEa, EaModel, FleetConfig, ServeConfig, SyntheticStream};
use std::collections::BTreeMap;
use std::time::Instant;

/// Worker threads every timed phase runs at (`nproc` of the reference
/// host); the determinism check reruns at 1.
pub const THREADS: usize = 2;

/// Requests in a fleet warm-up: the size the committed golden decision
/// hashes of `fleet-heavy` and `drift-heavy` pin.
const FLEET_WARMUP_REQUESTS: u64 = 60_000;

/// Requests in the serve-trained warm-up.
const SERVE_WARMUP_REQUESTS: u64 = 200;

/// Feature row the serve-trained train probe predicts.
const PROBE_FEATURES: [f64; 6] = [0.5, 0.7, 1.5, 0.25, 0.5, 0.1];

/// Named 64-bit fingerprints of a workload's outputs.
pub type Digests = BTreeMap<&'static str, u64>;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The offline chain: profile, train, score, explore.
    OfflineModel,
    /// The trained deep forest behind the single serving loop.
    ServeTrained,
    /// The 8-shard fleet under crash, stall and flap faults.
    FleetFaults,
    /// The 4-shard fleet with the model lifecycle on.
    FleetAdapt,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::OfflineModel,
        Workload::ServeTrained,
        Workload::FleetFaults,
        Workload::FleetAdapt,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineModel => "offline-model",
            Workload::ServeTrained => "serve-trained",
            Workload::FleetFaults => "fleet-faults",
            Workload::FleetAdapt => "fleet-adapt",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the benchmark runs this workload (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::OfflineModel => {
                "batch chain: cachesim and profiler dominate, deep-forest fit and queuesim \
                 follow, no serving layer runs"
            }
            Workload::ServeTrained => {
                "trained deep forest under load: host time is ServingPredictor, MGS \
                 transform and cascade predict"
            }
            Workload::FleetFaults => {
                "8-shard fleet under crash, stall and flap faults: cheap model, so admission, \
                 routing, breaker and replay dominate"
            }
            Workload::FleetAdapt => {
                "4-shard fleet with the model lifecycle on: warm-start retrains and shadow \
                 scoring beside serving"
            }
        }
    }

    /// The workload's scenario spec, in the strict scenario grammar.
    fn spec_text(self) -> &'static str {
        match self {
            Workload::OfflineModel => include_str!("../specs/offline-model.scenario"),
            Workload::ServeTrained => include_str!("../specs/serve-trained.scenario"),
            Workload::FleetFaults => include_str!("../specs/fleet-faults.scenario"),
            Workload::FleetAdapt => include_str!("../specs/fleet-adapt.scenario"),
        }
    }

    /// Whether a pass serves requests (else it profiles conditions).
    pub fn serves(self) -> bool {
        self != Workload::OfflineModel
    }
}

/// The workload's spec with its generated inputs seeded from `seed`: the
/// profiled conditions of the offline chain, the request stream of a
/// serving workload. Fault plans and the served model's training set stay
/// those of the spec, so every seed asks for the same amount of work.
/// `quick` shrinks every size tenfold for smoke runs.
pub fn resolve(w: Workload, seed: u64, quick: bool) -> Result<ScenarioSpec, String> {
    let context = format!("{}.scenario", w.name());
    let mut spec = stca_scenario::parse_str(w.spec_text(), &context).map_err(|e| e.to_string())?;
    let section = if w.serves() { "serve" } else { "profile" };
    let overlay = format!("[{section}]\nseed = {seed}\n");
    stca_scenario::apply_str(&mut spec, &overlay, "--seed").map_err(|e| e.to_string())?;
    if quick {
        spec.profile.conditions = (spec.profile.conditions / 10).max(2);
        spec.serve.requests = (spec.serve.requests / 10).max(1);
    }
    Ok(spec)
}

/// Training conditions of an offline pass: the first three quarters (24
/// of 32); the rest are held out for APE.
fn train_conditions(conditions: u64) -> usize {
    (conditions as usize * 3 / 4).max(1)
}

/// What set-up builds for the timed passes.
pub enum Prepared {
    /// The offline chain builds everything inside its pass.
    Offline,
    /// The single serving loop and its trained model.
    Serve {
        /// Loop configuration.
        cfg: ServeConfig,
        /// Arrival stream.
        stream: SyntheticStream,
        /// The trained, bound model.
        model: Box<ServingPredictor>,
    },
    /// The fleet and its analytic model.
    Fleet {
        /// Fleet configuration.
        cfg: FleetConfig,
        /// Arrival stream.
        stream: SyntheticStream,
        /// The analytic EA model.
        model: AnalyticEa,
    },
}

/// One set-up: what it built and the fingerprints of what it computed.
pub struct Setup {
    /// Inputs of the timed passes.
    pub prepared: Prepared,
    /// Fingerprints; identical for every set-up of one run.
    pub digests: Digests,
}

/// Resolve configs, build the model the passes use, and make one small
/// warm-up call of the timed operation so no pass pays lazy start-up.
pub fn setup(w: Workload, spec: &ScenarioSpec, scope: Scope<'_>) -> Result<Setup, String> {
    scope.span("setup", |scope| {
        let mut digests = Digests::new();
        let prepared = match w {
            Workload::OfflineModel => {
                let mut one = spec.clone();
                one.profile.conditions = 1;
                let set = scope.span("setup.warmup", |_| profile_conditions(&one, None));
                digests.insert("warmup", rows_fnv(&set.map_err(|e| e.to_string())?.rows));
                Prepared::Offline
            }
            Workload::ServeTrained => {
                let set = scope
                    .span("profiler.profile", |_| profile_conditions(spec, None))
                    .map_err(|e| e.to_string())?;
                digests.insert("profiles", rows_fnv(&set.rows));
                // the trained-serve path trains with the serve seed
                let predictor = scope.span("core.train", |_| {
                    train_predictor_seeded(spec, &set, spec.serve.seed)
                });
                let template = set.rows[0].clone();
                let model = scope.span("core.bind", |_| ServingPredictor::new(predictor, template));
                let mut probe = Fnv::default();
                let primary = model
                    .predict_primary(&PROBE_FEATURES)
                    .map_err(|e| e.to_string())?;
                let (degraded, tier) = model.predict_degraded(&PROBE_FEATURES);
                probe.f64s(&[primary, degraded, f64::from(tier)]);
                digests.insert("train_probe", probe.finish());
                let cfg = serve_config(spec);
                let stream = synthetic_stream(spec);
                let report = scope
                    .span("setup.warmup", |_| {
                        stca_serve::serve(
                            &cfg,
                            &model,
                            &spec.fault.plan,
                            &stream,
                            SERVE_WARMUP_REQUESTS,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                if !report.accounting.balanced() {
                    return Err(format!(
                        "warm-up accounting unbalanced: {:?}",
                        report.accounting
                    ));
                }
                digests.insert("warmup", report.decision_hash);
                Prepared::Serve {
                    cfg,
                    stream,
                    model: Box::new(model),
                }
            }
            Workload::FleetFaults | Workload::FleetAdapt => {
                let cfg = fleet_config(spec).ok_or("fleet workload spec needs shards > 1")?;
                let stream = synthetic_stream(spec);
                let model = AnalyticEa::default();
                let warmup = FLEET_WARMUP_REQUESTS.min(spec.serve.requests);
                let report = scope
                    .span("setup.warmup", |_| {
                        stca_serve::serve_fleet(&cfg, &model, &spec.fault.plan, &stream, warmup)
                    })
                    .map_err(|e| e.to_string())?;
                if !report.balanced() {
                    return Err("warm-up fleet accounting unbalanced".to_string());
                }
                digests.insert("warmup", report.decision_hash);
                Prepared::Fleet { cfg, stream, model }
            }
        };
        Ok(Setup { prepared, digests })
    })
}

/// What the offline chain keeps from a pass for the thread-count check.
pub struct OfflineState {
    train: ProfileSet,
    held: ProfileSet,
    rows_fnv_head: u64,
}

/// Rows the thread-count check re-profiles (two conditions).
const CHECK_ROWS: usize = 4;

/// What one timed pass did.
pub struct PassOut {
    /// Work items: requests offered, or conditions profiled.
    pub items: u64,
    /// Fingerprints of the pass's outputs.
    pub digests: Digests,
    /// Per-pass end-to-end values (stage times, accuracy, virtual latency).
    pub values: BTreeMap<&'static str, f64>,
    /// Per-pass layer counts from the public reports.
    pub counts: BTreeMap<&'static str, f64>,
    /// Offline chain state for the thread-count check.
    pub offline: Option<OfflineState>,
}

/// Run one timed pass over what set-up prepared.
pub fn pass(spec: &ScenarioSpec, prepared: &Prepared, scope: Scope<'_>) -> Result<PassOut, String> {
    scope.span("pass", |scope| match prepared {
        Prepared::Offline => offline_pass(spec, scope),
        Prepared::Serve { cfg, stream, model } => {
            let n = spec.serve.requests;
            let report = serve_loop(scope, &**model, |m| {
                stca_serve::serve(cfg, m, &spec.fault.plan, stream, n)
            });
            let r = report.map_err(|e| e.to_string())?;
            let a = &r.accounting;
            if !a.balanced() {
                return Err(format!("accounting unbalanced: {a:?}"));
            }
            let mut out = serving_out(n, r.decision_hash, a.admitted, a.completed);
            out.values.insert("virtual_p50_s", r.p50_response_s);
            out.values.insert("virtual_p99_s", r.p99_response_s);
            out.counts.insert("serve.degraded", r.degraded as f64);
            out.counts
                .insert("serve.breaker_opens", r.breaker_opens as f64);
            Ok(out)
        }
        Prepared::Fleet { cfg, stream, model } => {
            let n = spec.serve.requests;
            let report = serve_loop(scope, model, |m| {
                stca_serve::serve_fleet(cfg, m, &spec.fault.plan, stream, n)
            });
            let r = report.map_err(|e| e.to_string())?;
            if !r.balanced() {
                return Err("fleet accounting unbalanced".to_string());
            }
            let mut out = serving_out(n, r.decision_hash, r.offered, r.completed());
            out.values.insert("virtual_p50_s", r.p50_response_s);
            out.values.insert("virtual_p99_s", r.p99_response_s);
            let sum = |f: &dyn Fn(&stca_serve::ShardStats) -> u64| {
                r.shards.iter().map(f).sum::<u64>() as f64
            };
            let adapt = |f: &dyn Fn(&stca_serve::AdaptStats) -> u64| {
                sum(&|s| s.adapt.as_ref().map_or(0, f))
            };
            out.counts.insert("serve.rerouted", r.rerouted as f64);
            out.counts.insert("serve.router_shed", r.router_shed as f64);
            out.counts
                .insert("serve.breaker_opens", sum(&|s| s.breaker_opens));
            out.counts.insert("serve.degraded", sum(&|s| s.degraded));
            out.counts
                .insert("serve.adapt.retrains", adapt(&|a| a.retrains));
            out.counts
                .insert("serve.adapt.shadow_scored", adapt(&|a| a.shadow_scored));
            out.counts
                .insert("serve.adapt.promotions", adapt(&|a| a.promotions));
            out.counts
                .insert("serve.adapt.rollbacks", adapt(&|a| a.rollbacks));
            Ok(out)
        }
    })
}

/// Run a serving loop `f` on `model` inside a `serve.loop` span, with
/// every model call timed when `scope` records.
fn serve_loop<T>(scope: Scope<'_>, model: &dyn EaModel, f: impl FnOnce(&dyn EaModel) -> T) -> T {
    scope.span("serve.loop", |scope| match scope.timed(model) {
        Some(timed) => f(&timed),
        None => f(model),
    })
}

fn serving_out(requests: u64, decision: u64, offered: u64, completed: u64) -> PassOut {
    let mut out = PassOut {
        items: requests,
        digests: Digests::from([("decision", decision)]),
        values: BTreeMap::new(),
        counts: BTreeMap::new(),
        offline: None,
    };
    let not_completed = offered.saturating_sub(completed);
    out.values
        .insert("fail_frac", not_completed as f64 / offered.max(1) as f64);
    out
}

fn offline_pass(spec: &ScenarioSpec, scope: Scope<'_>) -> Result<PassOut, String> {
    let conditions = spec.profile.conditions;
    let t = Instant::now();
    let set = scope
        .span("profiler.profile", |_| profile_conditions(spec, None))
        .map_err(|e| e.to_string())?;
    let profile_s = t.elapsed().as_secs_f64();
    // two rows (one per workload of the pair) per condition, in order
    let failed = conditions as usize - set.len() / 2;
    if failed > 0 {
        return Err(format!(
            "{failed}/{conditions} conditions failed to profile"
        ));
    }
    let split = 2 * train_conditions(conditions);
    let train = ProfileSet {
        rows: set.rows[..split].to_vec(),
    };
    let held = ProfileSet {
        rows: set.rows[split..].to_vec(),
    };

    let t = Instant::now();
    let predictor = scope.span("core.train", |_| train_predictor(spec, &train));
    let train_s = t.elapsed().as_secs_f64();
    let predictions = scope.span("core.score", |scope| score(&predictor, &held, scope));
    let observed: Vec<f64> = held.rows.iter().map(|r| r.ea).collect();
    let ape = if held.is_empty() {
        0.0
    } else {
        stca_deepforest::metrics::ape_summary(&predictions, &observed).median
    };

    let pair = spec.workloads.pair;
    let explorer =
        PolicyExplorer::new(&predictor, &train, pair.0, pair.1, spec.explore.utilization);
    let probe = scope.span("core.probe", |_| train_probe(&explorer, &spec.explore.grid));
    let t = Instant::now();
    let result = scope.span("core.explore", |_| {
        explorer.explore_with_grid(&spec.explore.grid)
    });
    let explore_s = t.elapsed().as_secs_f64();
    let cells = spec.explore.grid.len().pow(2);

    let mut digests = Digests::new();
    digests.insert("profiles", rows_fnv(&set.rows));
    digests.insert("train_probe", probe);
    digests.insert("held_out", f64s_fnv(&predictions));
    digests.insert("explore", explore_fnv(&result));
    let values = BTreeMap::from([
        ("profile_s", profile_s),
        ("train_s", train_s),
        ("explore_s", explore_s),
        ("ea_ape_median_pct", ape),
        ("fail_frac", 0.0),
    ]);
    let counts = BTreeMap::from([("core.explore.cells", cells as f64)]);
    Ok(PassOut {
        items: conditions,
        digests,
        values,
        counts,
        offline: Some(OfflineState {
            rows_fnv_head: rows_fnv(&set.rows[..CHECK_ROWS.min(set.len())]),
            train,
            held,
        }),
    })
}

/// EA predictions for the held-out rows, each call timed as a primary
/// predict when tracing.
fn score(predictor: &Predictor, held: &ProfileSet, scope: Scope<'_>) -> Vec<f64> {
    held.rows
        .iter()
        .map(|r| {
            scope.call(Tier::Primary, &r.static_features, || {
                predictor.predict_ea(r)
            })
        })
        .collect()
}

/// The train stage's model fingerprint: the explorer's prediction at the
/// centre of the timeout grid.
fn train_probe(explorer: &PolicyExplorer<'_>, grid: &[f64]) -> u64 {
    let mid = grid[grid.len() / 2];
    let (a, b) = explorer.predict_point(mid, mid);
    f64s_fnv(&[mid, a, b])
}

fn explore_fnv(r: &stca_core::ExplorationResult) -> u64 {
    let mut h = Fnv::default();
    h.f64s(&[r.timeout_a, r.timeout_b, r.predicted_a, r.predicted_b]);
    h.u64(u64::from(r.intersected));
    for row in &r.grid {
        for &(a, b) in row {
            h.f64s(&[a, b]);
        }
    }
    h.finish()
}

/// Rerun part of a pass at one worker thread and require the same
/// fingerprints: the determinism contract for seeds with no committed
/// digests.
pub fn check_threads(
    spec: &ScenarioSpec,
    prepared: &Prepared,
    reference: &PassOut,
) -> Result<(), String> {
    stca_exec::set_threads(1);
    let result = check_at_current_threads(spec, prepared, reference);
    stca_exec::set_threads(THREADS);
    result
}

fn check_at_current_threads(
    spec: &ScenarioSpec,
    prepared: &Prepared,
    reference: &PassOut,
) -> Result<(), String> {
    let same = |name: &str, got: u64, want: u64| {
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{name} {got:016x} at 1 thread, {want:016x} at {THREADS}"
            ))
        }
    };
    let Some(state) = &reference.offline else {
        let out = pass(spec, prepared, Scope::off())?;
        return same(
            "decision",
            out.digests["decision"],
            reference.digests["decision"],
        );
    };
    // offline: re-profile the first conditions, retrain, re-score and
    // re-explore at one thread
    let mut head = spec.clone();
    head.profile.conditions = (CHECK_ROWS / 2) as u64;
    let set = profile_conditions(&head, None).map_err(|e| e.to_string())?;
    same("profiles (head)", rows_fnv(&set.rows), state.rows_fnv_head)?;
    let predictor = train_predictor(spec, &state.train);
    let predictions = score(&predictor, &state.held, Scope::off());
    same(
        "held_out",
        f64s_fnv(&predictions),
        reference.digests["held_out"],
    )?;
    let pair = spec.workloads.pair;
    let explorer = PolicyExplorer::new(
        &predictor,
        &state.train,
        pair.0,
        pair.1,
        spec.explore.utilization,
    );
    same(
        "train_probe",
        train_probe(&explorer, &spec.explore.grid),
        reference.digests["train_probe"],
    )?;
    let result = explorer.explore_with_grid(&spec.explore.grid);
    same(
        "explore",
        explore_fnv(&result),
        reference.digests["explore"],
    )
}

/// FNV-1a over every number of a profile set, in row order.
fn rows_fnv(rows: &[ProfileRow]) -> u64 {
    let mut h = Fnv::default();
    for r in rows {
        h.f64s(&r.static_features);
        h.f64s(&r.dynamic_features);
        h.f64s(r.trace.as_slice());
        h.f64s(&[
            r.ea,
            r.base_service_norm,
            r.mean_response_norm,
            r.p95_response_norm,
            r.allocation_ratio,
        ]);
    }
    h.finish()
}

fn f64s_fnv(xs: &[f64]) -> u64 {
    let mut h = Fnv::default();
    h.f64s(xs);
    h.finish()
}

/// Bytes to fingerprint with the scenario crate's FNV-1a.
#[derive(Default)]
struct Fnv(Vec<u8>);

impl Fnv {
    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.u64(x.to_bits());
        }
    }

    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        stca_scenario::fnv1a(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn every_workload_spec_parses_under_the_strict_parser() {
        for w in Workload::ALL {
            let spec = resolve(w, 2022, false).expect("committed spec parses");
            assert_eq!(spec.scenario.name, w.name());
            // the seed reaches the generated inputs and nothing else
            let mut other = resolve(w, 7, false).expect("overlay applies");
            if w.serves() {
                assert_eq!(other.serve.seed, 7);
                other.serve.seed = spec.serve.seed;
            } else {
                assert_eq!(other.profile.seed, 7);
                other.profile.seed = spec.profile.seed;
            }
            assert_eq!(other, spec);
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn fleet_specs_are_the_committed_scenarios_without_tracing() {
        let scenarios = Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/scenarios");
        for (w, file) in [
            (Workload::FleetFaults, "fleet-heavy.stca"),
            (Workload::FleetAdapt, "drift-heavy.stca"),
        ] {
            let mut committed =
                stca_scenario::load_file(&scenarios.join(file)).expect("committed scenario");
            let mut ours = resolve(w, 2022, false).expect("spec");
            // only the name, the size and the flight recorder differ
            committed.trace.enabled = false;
            committed.scenario.name = ours.scenario.name.clone();
            committed.serve.requests = ours.serve.requests;
            ours.scenario.pipeline = committed.scenario.pipeline.clone();
            assert_eq!(ours, committed, "{}", w.name());
        }
    }

    /// At the golden size the fleet workloads must reproduce the committed
    /// decision hashes of the scenarios they are built from, and so must
    /// the benchmark's own committed digests.
    #[test]
    fn fleet_warmups_reproduce_the_golden_decision_hashes() {
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/scenarios/golden");
        let committed =
            stca_obs::json::Value::parse(include_str!("../digests.json")).expect("digests.json");
        assert_eq!(
            committed
                .get("seed")
                .and_then(stca_obs::json::Value::as_f64),
            Some(crate::run::DIGEST_SEED as f64)
        );
        for (w, file) in [
            (Workload::FleetFaults, "fleet-heavy.decision.hash"),
            (Workload::FleetAdapt, "drift-heavy.decision.hash"),
        ] {
            let want = std::fs::read_to_string(golden.join(file)).expect("golden hash");
            let spec = resolve(w, crate::run::DIGEST_SEED, false).expect("spec");
            let s = setup(w, &spec, Scope::off()).expect("set-up runs");
            assert_eq!(
                format!("{:016x}", s.digests["warmup"]),
                want.trim(),
                "{}",
                w.name()
            );
            let ours = committed.get(w.name()).and_then(|d| d.get("warmup"));
            assert_eq!(
                ours,
                Some(&stca_obs::json::Value::String(want.trim().to_string()))
            );
        }
    }

    #[test]
    fn offline_split_holds_out_the_last_quarter() {
        assert_eq!(train_conditions(64), 48);
        assert_eq!(train_conditions(6), 4);
        assert_eq!(train_conditions(1), 1);
    }
}
