//! One run of one workload, in this process: set up several times, run
//! timed passes for the time budget, check the outputs, and measure.
//!
//! Untraced passes give the end-to-end metrics. A traced run also records
//! spans, runs the layer probes, and alternates traced with untraced
//! passes so the tracing overhead is measured in the same run.

use crate::host;
use crate::metrics::{Applies, Measured, END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::{PassTrace, Recorder, Scope};
use crate::stats::{median, quantile_sorted, tail_quantile};
use crate::workloads::{self, Digests, PassOut, Workload, THREADS};
use stca_obs::json::Value;
use stca_scenario::ScenarioSpec;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The seed the committed digests were recorded at.
pub const DIGEST_SEED: u64 = 2022;

/// Set-ups per run: at least [`MIN_SETUPS`], and more while their total
/// is under [`SETUP_BUDGET_S`], so cheap set-ups get enough samples for a
/// steady median.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 2.0;
const MAX_SETUPS: usize = 25;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload.
    pub workload: Workload,
    /// Every input seed derives from this.
    pub seed: u64,
    /// Time budget of the timed passes, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Tenfold smaller sizes and time budget; smoke only.
    pub quick: bool,
}

/// What a run measured and checked.
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Why a check failed.
    pub errors: Vec<String>,
    /// Work items over every timed pass. None failed: a pass that fails
    /// ends the run with an error instead of a result.
    pub attempted: u64,
    /// End-to-end metrics that apply to the workload.
    pub e2e: Vec<Measured>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Measured>,
    /// Set-up and pass fingerprints.
    pub digests: Digests,
    /// Timed set-ups.
    pub setups: usize,
    /// Untraced timed passes.
    pub passes: usize,
    /// One-minute load average at start and end.
    pub load: (Option<f64>, Option<f64>),
}

/// Counters and histogram sums of the metrics registry the program
/// already exports.
#[derive(Debug, Default, Clone)]
struct Registry(BTreeMap<&'static str, f64>);

const COUNTERS: [&str; 9] = [
    "deepforest.mgs.transforms_total",
    "deepforest.cascade.predicts_total",
    "deepforest.train.trees_fitted_total",
    "profiler.experiments_total",
    "fault.retries_total",
    "fault.conditions_failed_total",
    "queuesim.runs_total",
    "exec.par_maps_total",
    "exec.tasks_total",
];

impl Registry {
    fn take(shards: u64) -> Registry {
        let mut m: BTreeMap<&'static str, f64> = COUNTERS
            .iter()
            .map(|&name| (name, stca_obs::counter(name).get() as f64))
            .collect();
        m.insert(
            "exec.pool.wall_seconds",
            stca_obs::histogram("exec.pool.wall_seconds").sum(),
        );
        let retrain: f64 = (0..shards)
            .map(|id| stca_obs::histogram(&format!("serve.shard{id}.adapt.retrain_seconds")).sum())
            .sum();
        m.insert("serve.adapt.retrain_seconds", retrain);
        Registry(m)
    }

    fn since(&self, before: &Registry) -> Registry {
        Registry(
            self.0
                .iter()
                .map(|(&k, v)| (k, v - before.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One timed pass and its wall and CPU seconds.
fn timed_pass(
    spec: &ScenarioSpec,
    prepared: &workloads::Prepared,
    scope: Scope<'_>,
) -> Result<(PassOut, f64, f64), String> {
    let cpu = host::cpu_s();
    let t = Instant::now();
    let out = workloads::pass(spec, prepared, scope)?;
    let wall = t.elapsed().as_secs_f64();
    Ok((out, wall, host::cpu_s() - cpu))
}

/// Run `opts.workload` once in this process.
pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    stca_exec::set_threads(THREADS);
    let load_before = host::loadavg();
    let w = opts.workload;
    let spec = workloads::resolve(w, opts.seed, opts.quick)?;
    let shards = spec.fleet.shards;
    let rec = Recorder::default();
    let scope = if opts.traced {
        Scope::root(&rec)
    } else {
        Scope::off()
    };
    let mut errors = Vec::new();

    // set-up, timed several times; the last one feeds the passes
    let registry_start = Registry::take(shards);
    let mut setup_s = Vec::new();
    let mut first: Option<Digests> = None;
    let setup = loop {
        let t = Instant::now();
        let s = workloads::setup(w, &spec, scope)?;
        setup_s.push(t.elapsed().as_secs_f64());
        match &first {
            Some(d) if *d != s.digests => {
                errors.push("set-up outputs differ between repetitions".to_string());
            }
            Some(_) => {}
            None => first = Some(s.digests.clone()),
        }
        let enough = setup_s.len() >= MIN_SETUPS && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S;
        if opts.traced || opts.quick || enough || setup_s.len() == MAX_SETUPS {
            break s;
        }
    };
    let setup_trace = rec.drain(0);
    let setup_registry = Registry::take(shards).since(&registry_start);
    let probes = if opts.traced {
        probes::run(&spec)
    } else {
        BTreeMap::new()
    };

    // timed passes until the next round would overrun the budget
    let budget = if opts.quick {
        opts.seconds / 10.0
    } else {
        opts.seconds
    };
    let start = Instant::now();
    let (mut walls, mut cpus, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut layer_samples: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut reference: Option<PassOut> = None;
    let mut attempted = 0;
    loop {
        let round = Instant::now();
        let (out, wall, cpu) = timed_pass(&spec, &setup.prepared, Scope::off())?;
        attempted += out.items;
        walls.push(wall);
        cpus.push(cpu);
        for (&k, &v) in &out.values {
            values.entry(k).or_default().push(v);
        }
        match &reference {
            Some(r) if r.digests != out.digests => {
                errors.push("a pass's outputs differ from the first pass's".to_string());
            }
            Some(_) => {}
            None => reference = Some(out),
        }
        if opts.traced {
            let first = scope.next_id();
            let before = Registry::take(shards);
            let (out, wall, _) = timed_pass(&spec, &setup.prepared, scope)?;
            let trace = rec.drain(first);
            let delta = Registry::take(shards).since(&before);
            attempted += out.items;
            traced_walls.push(wall);
            if reference.as_ref().is_some_and(|r| r.digests != out.digests) {
                errors.push("a traced pass's outputs differ from the untraced pass's".to_string());
            }
            let requests = if w.serves() { out.items as f64 } else { 0.0 };
            layer_samples.push(layer_values(
                &out,
                requests,
                &trace,
                &setup_trace,
                &delta,
                &setup_registry,
            ));
        }
        let next = round.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + next > budget {
            break;
        }
    }
    let reference = reference.expect("at least one pass");

    // output checks
    let mut digests = setup.digests.clone();
    for (&k, &v) in &reference.digests {
        digests.insert(k, v);
    }
    if opts.seed == DIGEST_SEED && !opts.quick {
        if let Err(e) = check_committed(w, &digests) {
            errors.push(e);
        }
    }
    if let Err(e) = workloads::check_threads(&spec, &setup.prepared, &reference) {
        errors.push(e);
    }

    // end-to-end metrics
    let peak_rss_mib = host::peak_rss_mib()?;
    let wall = median(&walls);
    let med = |k: &str| values.get(k).map_or(0.0, |v| median(v));
    let items = reference.items as f64;
    let mut e2e = Vec::new();
    for m in END_TO_END {
        let applies = match m.applies {
            Applies::All => true,
            Applies::Serving => w.serves(),
            Applies::Offline => !w.serves(),
        };
        if !applies {
            continue;
        }
        let value = match m.name {
            "setup_s" => median(&setup_s),
            "wall_s" => wall,
            "cpu_s" => median(&cpus),
            "peak_rss_mib" => peak_rss_mib,
            "requests_per_s" => items / wall,
            "conditions_per_s" => items / med("profile_s"),
            other => med(other),
        };
        e2e.push(Measured {
            name: m.name,
            value,
            unit: m.unit,
        });
    }

    // per-layer metrics: medians over the traced passes
    let mut layers = Vec::new();
    if opts.traced {
        let overhead = median(&traced_walls) / wall - 1.0;
        for m in PER_LAYER {
            let value = match m.name {
                "bench.trace_overhead_frac" => overhead,
                name => probes.get(name).copied().unwrap_or_else(|| {
                    let samples: Vec<f64> = layer_samples
                        .iter()
                        .map(|s| s.get(name).copied().unwrap_or(0.0))
                        .collect();
                    median(&samples)
                }),
            };
            layers.push(Measured {
                name: m.name,
                value,
                unit: m.unit,
            });
        }
        let path = Path::new("target/perf").join(format!("spans-{}.json", w.name()));
        if let Err(e) = write_json(&path, &rec.to_json(w.name())) {
            errors.push(e);
        }
    }
    for m in e2e.iter().chain(&layers) {
        if !m.value.is_finite() {
            errors.push(format!("{} is not finite: {}", m.name, m.value));
        }
    }
    Ok(RunResult {
        correct: errors.is_empty(),
        errors,
        attempted,
        e2e,
        layers,
        digests,
        setups: setup_s.len(),
        passes: walls.len(),
        load: (load_before, host::loadavg()),
    })
}

/// Per-layer values of one traced pass that served `requests` requests.
/// Layers the pass does not run (the served model's profiling and
/// training) come from the traced set-up instead.
fn layer_values(
    out: &PassOut,
    requests: f64,
    pass: &PassTrace,
    setup: &PassTrace,
    delta: &Registry,
    setup_delta: &Registry,
) -> BTreeMap<&'static str, f64> {
    let or_setup = |p: f64, s: f64| if p > 0.0 { p } else { s };
    let span_s = |name: &str| or_setup(pass.total_s(name), setup.total_s(name));
    let count = |name: &str| or_setup(delta.get(name), setup_delta.get(name));
    let per_request = |v: f64| if requests > 0.0 { v / requests } else { 0.0 };
    let p = &pass.primary;
    let calls = p.calls() as f64;
    let experiments = stca_obs::histogram("profiler.experiment_seconds");
    let par_maps = delta.get("exec.par_maps_total");
    let mut v = BTreeMap::from([
        ("core.predict_primary.calls", calls),
        ("core.predict_primary.busy_s", p.busy_s()),
        (
            "core.predict_primary.p50_us",
            quantile_sorted(&p.durations_ns, 0.5) * 1e-3,
        ),
        (
            "core.predict_primary.tail_us",
            quantile_sorted(&p.durations_ns, tail_quantile(p.durations_ns.len())) * 1e-3,
        ),
        (
            "core.predict_primary.fail_frac",
            p.failed as f64 / calls.max(1.0),
        ),
        ("core.predict_degraded.calls", pass.degraded.calls() as f64),
        ("core.predict_degraded.busy_s", pass.degraded.busy_s()),
        ("core.train_s", span_s("core.train")),
        ("core.explore_s", span_s("core.explore")),
        (
            "deepforest.mgs.transforms_per_request",
            per_request(delta.get("deepforest.mgs.transforms_total")),
        ),
        (
            "deepforest.cascade.predicts_per_request",
            per_request(delta.get("deepforest.cascade.predicts_total")),
        ),
        (
            "deepforest.train.trees_fitted",
            count("deepforest.train.trees_fitted_total"),
        ),
        ("profiler.profile_s", span_s("profiler.profile")),
        ("profiler.experiments", count("profiler.experiments_total")),
        ("profiler.experiment_p50_s", experiments.quantile(0.5)),
        ("profiler.experiment_max_s", experiments.max()),
        ("profiler.retries", count("fault.retries_total")),
        (
            "profiler.conditions_failed",
            count("fault.conditions_failed_total"),
        ),
        ("queuesim.runs", delta.get("queuesim.runs_total")),
        ("serve.loop_s", pass.total_s("serve.loop")),
        (
            "serve.self_us_per_request",
            per_request(pass.self_s("serve.loop")) * 1e6,
        ),
        (
            "serve.adapt.retrain_busy_s",
            delta.get("serve.adapt.retrain_seconds"),
        ),
        ("exec.par_maps", par_maps),
        (
            "exec.tasks_per_par_map",
            delta.get("exec.tasks_total") / par_maps.max(1.0),
        ),
        ("exec.pool_wall_s", delta.get("exec.pool.wall_seconds")),
    ]);
    for (&k, &c) in &out.counts {
        v.insert(k, c);
    }
    v
}

/// The digests committed for `w` at [`DIGEST_SEED`].
fn check_committed(w: Workload, digests: &Digests) -> Result<(), String> {
    let committed =
        Value::parse(include_str!("../digests.json")).map_err(|e| format!("digests.json: {e}"))?;
    let Some(Value::Object(want)) = committed.get(w.name()) else {
        return Err(format!("digests.json has no entry for {}", w.name()));
    };
    let got: BTreeMap<String, Value> = digests
        .iter()
        .map(|(&k, &v)| (k.to_string(), Value::String(format!("{v:016x}"))))
        .collect();
    if &got != want {
        return Err(format!(
            "digests {} differ from committed {}",
            Value::Object(got),
            Value::Object(want.clone())
        ));
    }
    Ok(())
}

/// Write `value` as one JSON line, creating parent directories.
pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{value}\n")).map_err(|e| format!("{}: {e}", path.display()))
}
