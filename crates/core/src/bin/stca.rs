//! `stca` — command-line front end for the short-term cache allocation
//! toolkit.
//!
//! ```text
//! stca characterize                                  Table-1 style benchmark characterization
//! stca profile --pair redis,social -n 10 -o p.stca   profile a collocation, save Eq.-2 rows
//! stca predict --profiles p.stca --pair redis,social --util 0.9 --timeouts 1.5,1.5
//! stca explore --profiles p.stca --pair redis,social --util 0.9
//! stca scenario run examples/scenarios/serve-heavy.stca
//! ```
//!
//! Every subcommand builds its configuration through one spine: a
//! [`stca_scenario::ScenarioSpec`] starts from defaults, an optional
//! `--spec FILE` scenario file layers on top, and flags override last —
//! *flag beats spec beats default*. `stca scenario run` executes a whole
//! spec as a checkpointed profile → dataset → train → explore → serve
//! pipeline.
//!
//! Every subcommand is deterministic given its seeds — including under an
//! injected fault plan (`--fault-plan` / `STCA_FAULT_PLAN`) and at any
//! `--threads`.
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage error.

#![warn(clippy::unwrap_used)]

use stca_cachesim::Counter;
use stca_cat::AllocationSetting;
use stca_core::pipeline;
use stca_core::PolicyExplorer;
use stca_fault::{FaultPlan, StcaError};
use stca_profiler::storage;
use stca_scenario::{ScenarioSpec, SpecValue, Stage};
use stca_util::{Args, SpecError};
use stca_workloads::{AccessGenerator, BenchmarkId, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
stca — short-term cache allocation toolkit

USAGE:
  stca characterize [--accesses N]
  stca profile --pair A,B [-n CONDITIONS] [-o FILE] [--seed N]
  stca predict --profiles FILE --pair A,B --util U --timeouts TA,TB [--seed N]
  stca explore --profiles FILE --pair A,B [--util U] [--seed N]
  stca serve [--requests N] [--rate R] [--deadline S] [--seed N]
  stca scenario check FILE
  stca scenario run FILE [--artifacts DIR] [--until STAGE]
  stca trace report FILE [--decision-log FILE]
  stca trace check FILE...

Benchmarks: jac knn kmeans spkmeans spstream bfs social redis

Scenario files (stca scenario): one declarative spec drives the whole
profile -> dataset -> train -> explore -> serve pipeline (see the
\"Scenario files\" section of the README for the format):
  check FILE            parse + validate strictly (unknown keys exit 2)
                        and print the canonical resolved form
  run FILE              run the spec's pipeline; each stage checkpoints
                        into the artifact dir, a re-run keeps every stage
                        whose spec keys and input artifacts are unchanged,
                        and the result is bit-identical at any --threads
  --artifacts DIR       artifact dir (default [artifacts].dir, else runs/<name>)
  --until STAGE         stop after STAGE (profile|dataset|train|explore|serve)

Spec layering (any subcommand): --spec FILE starts from a scenario file
instead of built-in defaults; flags override spec keys, spec keys
override defaults.

Serving (stca serve): replay a seeded arrival stream through the online
control loop (admission queue -> predict -> STAP decide -> drain):
  --requests N          requests to replay (default 100000)
  --rate R              mean arrival rate, requests per virtual second (200)
  --deadline S          per-request deadline budget, virtual seconds (0.5)
  --servers K           control-loop workers (2)
  --queue-cap N         admission queue capacity (64)
  --overload P          full-queue policy: shed-newest | shed-oldest | block
  --hysteresis K        consecutive agreeing decisions before a policy
                        change is applied (4)
  --breaker-threshold N consecutive primary-predictor failures that open
                        the circuit breaker (5)
  --breaker-cooldown S  open-state cooldown before half-open probes (1.0)
  --drain-grace S       drain window after the last arrival (5.0)
  --shards N            serve through a fleet of N shards (default 1: the
                        plain loop, which ignores shard faults); each
                        shard owns its own queue, breaker, hysteresis,
                        and seeded predictor state
  --router KIND         shard router: rendezvous | least-loaded
  --reroute-max N       failover hops before the router sheds a request
                        flushed by a shard crash (2)
  --profiles FILE       serve with a predictor trained on FILE (default:
                        the analytic EA tier, no training required)
  --pair A,B            required with --profiles (training pair)
  --decision-log FILE   write the per-request decision log
  --health-out FILE     write a JSON health snapshot (report + serve.*)

Adaptation (stca serve): the drift-aware model lifecycle — per-shard
drift detection over EA residuals, warm-start candidate retrain, shadow
scoring, guarded promotion, automatic rollback. Off by default; any
other --adapt-* flag switches it on (bit-identical at any --threads):
  --adapt BOOL          enable/disable the lifecycle explicitly
  --adapt-epoch S       virtual seconds per lifecycle epoch (5.0)
  --adapt-window N      residual window size = retraining rows (256)
  --adapt-min-samples N observations before drift can fire (64)
  --adapt-threshold X   drift score that triggers a retrain (4.0)
  --adapt-shadow N      requests a candidate is shadow-scored on (64)
  --adapt-agree-tol X   EA tolerance for a shadow agreement (0.25)
  --adapt-agreement F   min shadow agreement fraction to promote (0.6)
  --adapt-guard N       post-promotion guard-window requests (128)
  --adapt-guard-band X  allowed residual regression factor (1.5)
  --adapt-history N     bounded model-version history depth (4)
  --adapt-budget S      virtual retrain budget; slower retrains abort (1.0)

Tracing (stca serve): any --trace-* flag enables the per-request flight
recorder (error-class traces always retained, completions head-sampled;
bit-identical at any --threads; the decision hash is unchanged):
  --trace-out FILE      write Chrome trace_event JSON (open in Perfetto
                        or about:tracing)
  --trace-svg FILE      write an SVG waterfall of the retained traces
  --trace-sample N      head-sample 1 in N completed requests (64)
  --trace-ring N        sampled-completion ring capacity (256)

Trace artifacts (stca trace): consume dumps written by --trace-out:
  report FILE           per-stage latency tables, disposition counts, and
                        slowest retained requests; with --decision-log,
                        cross-check the retention invariant (every shed /
                        deadline-exceeded / drained decision has a trace)
  check FILE...         schema-validate trace JSON (exit 1 on the first
                        invalid file)

Parallelism (any subcommand):
  --threads N           worker threads (default: STCA_THREADS, else all cores);
                        results are identical at any thread count

Fault tolerance (profile/explore):
  --fault-plan SPEC     inject deterministic faults (presets: none, ci-default,
                        heavy; overrides: seed=, crash=, timeout=, dropout=,
                        corrupt=, stuck=, noise=, latency=, predict_fail=,
                        stall=, shard_crash=, shard_stall=, shard_flap=,
                        drift_burst=, retrain_fail=, retrain_slow=,
                        promote_corrupt=); default: STCA_FAULT_PLAN, else none
  --max-retries N       retry budget per experiment (default 3)
  --checkpoint FILE     persist finished work units (profile conditions,
                        explore grid cells); a re-run resumes from FILE and
                        produces bit-identical output

Observability (any subcommand):
  --metrics-out FILE    write a JSON metrics report and print a summary table
  STCA_LOG=info         enable logging (e.g. STCA_LOG=info,queuesim=trace)
";

/// Flags every subcommand understands but the spec layer does not own:
/// they configure the process (threads, metrics, logging) or name the
/// spec file that feeds the run.
const CLI_ONLY_FLAGS: [&str; 3] = ["spec", "threads", "metrics-out"];

/// `println!` through [`print_stdout`], so a closed pipe ends the run
/// quietly; the enclosing function returns `Result<_, StcaError>`.
macro_rules! outln {
    ($($arg:tt)*) => {
        print_stdout(&format!("{}\n", format_args!($($arg)*)))?
    };
}

/// One subcommand's flag surface: `(flag, section, key)` mappings onto
/// the spec. Flags are applied in table order after the optional `--spec`
/// file, so they override it (and a later table entry overrides an
/// earlier one, which keeps `-o` winning over `--out`).
struct FlagMap<'a> {
    map: &'a [(&'a str, &'a str, &'a str)],
    /// Flags the subcommand handles itself after the table (e.g. the
    /// compound `--timeouts TA,TB`).
    extra: &'static [&'static str],
}

impl FlagMap<'_> {
    /// Build the subcommand's spec: defaults, then `--spec FILE`, then
    /// flag overrides — the one precedence rule of the CLI. Flag names
    /// are checked first, so a misspelt flag is a usage error even when
    /// the spec file is missing too.
    fn build(&self, args: &Args) -> Result<ScenarioSpec, StcaError> {
        reject_unknown_flags(args, |flag| {
            self.map.iter().any(|(f, _, _)| *f == flag)
                || self.extra.contains(&flag)
                || flag == "fault-plan"
        })?;
        let mut spec = match args.get("spec") {
            Some(path) => stca_scenario::load_file(Path::new(path))?,
            None => ScenarioSpec::default(),
        };
        for &(flag, section, key) in self.map {
            if let Some(v) = args.get(flag) {
                set_flag(&mut spec, flag, section, key, v)?;
            }
        }
        // fault plan: flag beats spec beats STCA_FAULT_PLAN beats none
        match args.get("fault-plan") {
            Some(v) => set_flag(&mut spec, "fault-plan", "fault", "plan", v)?,
            None => {
                if spec.fault.plan == FaultPlan::none() {
                    spec.fault.plan = FaultPlan::from_env()?;
                }
            }
        }
        Ok(spec)
    }
}

/// Exit 2 naming the first flag that is neither `known` to the
/// subcommand nor one of [`CLI_ONLY_FLAGS`], then a last flag that has no
/// value.
fn reject_unknown_flags(args: &Args, known: impl Fn(&str) -> bool) -> Result<(), StcaError> {
    Ok(args.check(|flag| known(flag) || CLI_ONLY_FLAGS.contains(&flag))?)
}

fn set_flag(
    spec: &mut ScenarioSpec,
    flag: &str,
    section: &str,
    key: &str,
    value: &str,
) -> Result<(), StcaError> {
    spec.set(section, key, &SpecValue::scalar(value))
        .map_err(|kind| SpecError::new(format!("flag --{flag}"), kind))?;
    Ok(())
}

/// Positional-free subcommands reject stray operands the old parser
/// silently mis-paired.
fn require_flag_unless_spec(args: &Args, flag: &str) -> Result<(), StcaError> {
    if args.get("spec").is_none() {
        args.require(flag)?;
    }
    Ok(())
}

fn cmd_characterize(args: &Args) -> Result<(), StcaError> {
    let spec = FlagMap {
        map: &[("accesses", "workloads", "accesses")],
        extra: &[],
    }
    .build(args)?;
    let n = spec.workloads.accesses;
    let config = pipeline::hierarchy_config(&spec);
    let ways = config.llc.ways;
    // each benchmark runs once on a 2-way private allocation and once on
    // the whole LLC; both masks are checked before the table starts
    let private = AllocationSetting::new(0, 2).to_cbm(ways).map_err(|_| {
        StcaError::usage(format!(
            "[cat] ways = {} is narrower than the 2-way private allocation \
             characterize measures",
            spec.cat.ways
        ))
    })?;
    let full = AllocationSetting::new(0, ways)
        .to_cbm(ways)
        .map_err(|e| StcaError::usage(format!("[cat] ways = {}: {e}", spec.cat.ways)))?;
    outln!(
        "{:>10} {:>16} {:>14} {:>20}",
        "benchmark",
        "footprint(ways)",
        "LLC MPKA(2w)",
        "full-cache speedup"
    );
    for id in BenchmarkId::ALL {
        let wspec = WorkloadSpec::for_benchmark(id);
        let run = |cbm| {
            let mut hier = stca_cachesim::Hierarchy::new(config, 42);
            hier.set_llc_mask(0, cbm);
            let mut gen =
                AccessGenerator::new(wspec.pattern_for(&config), 0, wspec.store_fraction, 42);
            for _ in 0..n / 2 {
                let (a, k) = gen.next_access();
                hier.access(0, a, k);
            }
            let before = hier.counters_of(0);
            for _ in 0..n {
                let (a, k) = gen.next_access();
                hier.access(0, a, k);
            }
            let c = hier.counters_of(0).delta(&before);
            (
                c.get(Counter::LlcMisses) as f64 * 1000.0 / n as f64,
                c.get(Counter::Cycles) as f64 / n as f64,
            )
        };
        let (mpka, cpa_private) = run(private);
        let (_, cpa_full) = run(full);
        outln!(
            "{:>10} {:>16.2} {:>14.1} {:>19.2}x",
            id.short_name(),
            wspec.footprint_ways(&config),
            mpka,
            cpa_private / cpa_full
        );
    }
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), StcaError> {
    require_flag_unless_spec(args, "pair")?;
    let spec = FlagMap {
        map: &[
            ("pair", "workloads", "pair"),
            ("n", "profile", "conditions"),
            ("out", "profile", "out"),
            ("o", "profile", "out"),
            ("seed", "profile", "seed"),
            ("max-retries", "fault", "max_retries"),
        ],
        extra: &["checkpoint"],
    }
    .build(args)?;
    let pair = spec.workloads.pair;
    let n = spec.profile.conditions;
    stca_obs::info!("profiling {}({}) over {n} conditions", pair.0, pair.1);
    let set = pipeline::profile_conditions(&spec, args.path("checkpoint").as_deref())?;
    let out = PathBuf::from(&spec.profile.out);
    storage::save(&set, &out)?;
    outln!("wrote {} profile rows to {}", set.len(), out.display());
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), StcaError> {
    for flag in ["pair", "profiles", "util", "timeouts"] {
        require_flag_unless_spec(args, flag)?;
    }
    let mut spec = FlagMap {
        map: &[
            ("pair", "workloads", "pair"),
            ("profiles", "profile", "out"),
            ("util", "predict", "utilization"),
            ("seed", "train", "seed"),
        ],
        extra: &["timeouts"],
    }
    .build(args)?;
    if let Some(timeouts) = args.get("timeouts") {
        let (ta, tb) = timeouts
            .split_once(',')
            .ok_or_else(|| StcaError::usage(format!("expected TA,TB, got {timeouts:?}")))?;
        set_flag(&mut spec, "timeouts", "predict", "timeout_a", ta.trim())?;
        set_flag(&mut spec, "timeouts", "predict", "timeout_b", tb.trim())?;
    }
    let pair = spec.workloads.pair;
    let (util, ta, tb) = (
        spec.predict.utilization,
        spec.predict.timeout_a,
        spec.predict.timeout_b,
    );
    let profiles = pipeline::load_profiles(Path::new(&spec.profile.out))?;
    let predictor = pipeline::train_predictor(&spec, &profiles);
    // ground the candidate on the nearest profiled condition via the explorer
    let explorer = PolicyExplorer::new(&predictor, &profiles, pair.0, pair.1, util);
    let (pa, pb) = explorer.predict_point(ta, tb);
    let es_a = WorkloadSpec::for_benchmark(pair.0).mean_service_time;
    let es_b = WorkloadSpec::for_benchmark(pair.1).mean_service_time;
    outln!("predicted p95 response at util {util:.2}, T=({ta:.2},{tb:.2}):");
    outln!(
        "  {:>8}: {:.4}s ({:.2}x expected service)",
        pair.0.short_name(),
        pa * es_a,
        pa
    );
    outln!(
        "  {:>8}: {:.4}s ({:.2}x expected service)",
        pair.1.short_name(),
        pb * es_b,
        pb
    );
    Ok(())
}

fn cmd_explore(args: &Args) -> Result<(), StcaError> {
    for flag in ["pair", "profiles"] {
        require_flag_unless_spec(args, flag)?;
    }
    let spec = FlagMap {
        map: &[
            ("pair", "workloads", "pair"),
            ("profiles", "profile", "out"),
            ("util", "explore", "utilization"),
            ("seed", "train", "seed"),
        ],
        extra: &["checkpoint"],
    }
    .build(args)?;
    let profiles = Path::new(&spec.profile.out);
    let result = pipeline::explore(&spec, profiles, args.path("checkpoint").as_deref())?;
    outln!("{}", pipeline::render_explore(&spec, &result));
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), StcaError> {
    if args.get("profiles").is_some() {
        // --pair is parsed for interface symmetry with predict/explore
        // (training data already fixes the pair); require it so the
        // trained path has a stable CLI shape
        require_flag_unless_spec(args, "pair")?;
    }
    // the serving flag surface is every schema row that carries a flag
    let map: Vec<_> = [
        ("pair", "workloads", "pair"),
        ("profiles", "profile", "out"),
    ]
    .into_iter()
    .chain(stca_scenario::spec::rows().filter_map(|r| Some((r.flag?, r.section, r.key))))
    .collect();
    let mut spec = FlagMap {
        map: &map,
        extra: &[],
    }
    .build(args)?;
    if args.get("profiles").is_some() {
        set_flag(&mut spec, "profiles", "serve", "predictor", "trained")?;
    }
    // any --trace-* flag switches the recorder on; any --adapt-* tuning
    // flag switches the lifecycle on unless --adapt says otherwise
    let any_flag = |prefix: &str| args.iter().any(|(f, _)| f.starts_with(prefix));
    spec.trace.enabled |= any_flag("trace-");
    if any_flag("adapt-") && args.get("adapt").is_none() {
        spec.adapt.enabled = true;
    }
    let trace_out =
        (!spec.artifacts.trace_json.is_empty()).then(|| PathBuf::from(&spec.artifacts.trace_json));
    let trace_svg =
        (!spec.artifacts.trace_svg.is_empty()).then(|| PathBuf::from(&spec.artifacts.trace_svg));
    let profiles_path = matches!(spec.serve.predictor, stca_scenario::PredictorKind::Trained)
        .then(|| PathBuf::from(&spec.profile.out));
    let report = pipeline::run_serve(&spec, profiles_path.as_deref(), false)?;
    print_serve_report(&report)?;
    if let Some(dump) = &report.trace_dump {
        emit_trace_artifacts(dump, trace_out.as_deref(), trace_svg.as_deref())?;
    }
    if !report.balanced() {
        return Err(StcaError::invalid_input(format!(
            "accounting invariant violated: {report:?}"
        )));
    }
    if !spec.artifacts.decision_log.is_empty() {
        let path = PathBuf::from(&spec.artifacts.decision_log);
        stca_serve::write_decision_log(&path, &report)?;
        outln!("wrote decision log to {}", path.display());
    }
    if !spec.artifacts.health.is_empty() {
        let path = PathBuf::from(&spec.artifacts.health);
        stca_serve::write_health(&path, &report)?;
        outln!("wrote health snapshot to {}", path.display());
    }
    Ok(())
}

/// Print a serving run: with several shards, the fleet's routing line,
/// then each shard's counters under a `shard N:` header; a lone shard's
/// counters print unindented. Fleet-wide response and decision hash last.
fn print_serve_report(report: &stca_serve::FleetReport) -> Result<(), StcaError> {
    let fleet = report.shards.len() > 1;
    let across = if fleet {
        format!(" across {} shards", report.shards.len())
    } else {
        String::new()
    };
    outln!(
        "served {} requests{across} in {:.1} virtual seconds",
        report.offered,
        report.virtual_end_s
    );
    if fleet {
        outln!(
            "  fleet: completed {}  rerouted {}  router-shed {}  crashed shards {:?}",
            report.completed(),
            report.rerouted,
            report.router_shed,
            report.crashed_shards()
        );
    }
    let pad = if fleet { "    " } else { "  " };
    for s in &report.shards {
        let a = &s.accounting;
        if fleet {
            outln!(
                "  shard {}: admitted {}  rerouted-out {}  crashes {}  p99 {:.4}s",
                s.id,
                a.admitted,
                s.rerouted_out,
                s.crashes,
                s.p99_response_s
            );
        }
        outln!(
            "{pad}completed {}  shed {} (overload {} / deadline {} / failed {})  drained {}",
            a.completed,
            a.shed(),
            a.shed_overload,
            a.shed_deadline,
            a.shed_failed,
            a.drained
        );
        outln!(
            "{pad}deadline-exceeded {}  degraded {}  watchdog trips {}  retries {}",
            a.deadline_exceeded,
            s.degraded,
            s.watchdog_trips,
            s.retries
        );
        outln!(
            "{pad}breaker: opens {} closes {} probes {} rejects {}",
            s.breaker_opens,
            s.breaker_closes,
            s.breaker_probes,
            s.breaker_rejects
        );
        if let Some(ad) = &s.adapt {
            outln!(
                "{pad}adapt: drifts {}  retrains {} (failed {} / slow {})  promotions {}  \
                 rollbacks {}  active v{}",
                ad.drifts,
                ad.retrains,
                ad.retrain_failures,
                ad.retrain_slows,
                ad.promotions,
                ad.rollbacks,
                ad.active_version
            );
        }
        outln!(
            "{pad}policy: applies {} suppressed {} (final timeout ratio {:.2})",
            s.policy_applies,
            s.policy_suppressed,
            stca_serve::TIMEOUT_GRID[s.final_timeout_idx]
        );
    }
    outln!(
        "  response: mean {:.4}s p50 {:.4}s p99 {:.4}s",
        report.mean_response_s,
        report.p50_response_s,
        report.p99_response_s
    );
    outln!("  decision hash {:016x}", report.decision_hash);
    Ok(())
}

/// Print trace summary + write the Chrome/SVG artifacts.
fn emit_trace_artifacts(
    dump: &stca_trace::TraceDump,
    trace_out: Option<&Path>,
    trace_svg: Option<&Path>,
) -> Result<(), StcaError> {
    let s = &dump.stats;
    outln!(
        "  trace: retained {} error-class + {} sampled traces \
         (1/{} sampling, {} evicted, {} started)",
        s.retained_error,
        s.retained_normal,
        dump.sample_every,
        s.evicted_normal,
        s.started
    );
    if let Some(path) = trace_out {
        stca_trace::write_chrome_json(path, dump)?;
        outln!(
            "wrote Chrome trace to {} (load in Perfetto or about:tracing)",
            path.display()
        );
    }
    if let Some(path) = trace_svg {
        stca_trace::write_svg(path, dump)?;
        outln!("wrote trace waterfall to {}", path.display());
    }
    Ok(())
}

/// `stca scenario check|run`: one positional scenario file, then flags.
fn cmd_scenario(argv: &[String]) -> Result<(), StcaError> {
    let Some(sub) = argv.first() else {
        return Err(StcaError::usage("scenario needs a subcommand: check | run"));
    };
    let rest = &argv[1..];
    let split = rest
        .iter()
        .position(|a| a.starts_with('-'))
        .unwrap_or(rest.len());
    let (files, flag_args) = rest.split_at(split);
    let args = Args::parse(flag_args)?;
    let flags: &[&str] = match sub.as_str() {
        "check" => &["artifacts"],
        "run" => &["artifacts", "until"],
        other => {
            return Err(StcaError::usage(format!(
                "unknown scenario subcommand {other:?} (expected check | run)"
            )))
        }
    };
    reject_unknown_flags(&args, |flag| flags.contains(&flag))?;
    let [file] = files else {
        return Err(StcaError::usage(format!(
            "scenario {sub} takes exactly one scenario file"
        )));
    };
    let spec = stca_scenario::load_file(Path::new(file))?;
    match sub.as_str() {
        "check" => {
            pipeline::check_runnable(&spec, args.path("artifacts").as_deref())?;
            print_stdout(&spec.canonical())?;
            Ok(())
        }
        "run" => {
            let until = match args.get("until") {
                Some(s) => Some(Stage::parse(s).ok_or_else(|| {
                    StcaError::usage(format!(
                        "unknown stage {s:?} (expected one of: {})",
                        Stage::NAMES.join(", ")
                    ))
                })?),
                None => None,
            };
            let artifacts = args.path("artifacts");
            pipeline::check_runnable(&spec, artifacts.as_deref())?;
            outln!(
                "scenario {} (spec fingerprint {:016x})",
                spec.scenario.name,
                spec.fingerprint()
            );
            let summary = pipeline::run_scenario(&spec, artifacts.as_deref(), until)?;
            for s in &summary.stages {
                outln!(
                    "  stage {:<8} {} {:016x}  {}",
                    s.stage.name(),
                    if s.resumed { "resumed" } else { "done   " },
                    s.hash,
                    s.detail
                );
            }
            outln!("scenario hash {:016x}", summary.scenario_hash);
            outln!("artifacts in {}", summary.dir.display());
            Ok(())
        }
        _ => unreachable!("subcommand matched above"),
    }
}

/// Write to stdout, exiting 0 quietly if the reader went away — piping
/// a report through `head` must not panic on the closed pipe. The
/// `--metrics-out` report is still written, as on every other exit.
fn print_stdout(text: &str) -> Result<(), StcaError> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            stca_obs::emit_run_report();
            std::process::exit(0)
        }
        Err(e) => Err(StcaError::io("stdout".to_string(), e)),
    }
}

/// `stca trace report|check`: positional trace files, then `--flag value`
/// pairs.
fn cmd_trace(argv: &[String]) -> Result<(), StcaError> {
    let Some(sub) = argv.first() else {
        return Err(StcaError::usage("trace needs a subcommand: report | check"));
    };
    let rest = &argv[1..];
    let split = rest
        .iter()
        .position(|a| a.starts_with('-'))
        .unwrap_or(rest.len());
    let (files, flag_args) = rest.split_at(split);
    let args = Args::parse(flag_args)?;
    let flags: &[&str] = match sub.as_str() {
        "report" => &["decision-log"],
        "check" => &[],
        other => {
            return Err(StcaError::usage(format!(
                "unknown trace subcommand {other:?} (expected report | check)"
            )))
        }
    };
    reject_unknown_flags(&args, |flag| flags.contains(&flag))?;
    match sub.as_str() {
        "report" => {
            let [file] = files else {
                return Err(StcaError::usage(
                    "trace report takes exactly one trace file",
                ));
            };
            let dump = stca_trace::read_chrome_json(Path::new(file))?;
            print_stdout(&stca_trace::report::render(&dump))?;
            if let Some(log_path) = args.path("decision-log") {
                let text = std::fs::read_to_string(&log_path)
                    .map_err(|e| StcaError::io(log_path.display().to_string(), e))?;
                let cc = stca_trace::report::cross_check(&dump, text.lines());
                print_stdout(&format!(
                    "\ncross-check vs {}: {} log lines, {} error decisions matched\n",
                    log_path.display(),
                    cc.log_lines,
                    cc.error_matched
                ))?;
                if cc.holds() {
                    print_stdout("retention invariant HOLDS: every shed/deadline-exceeded/drained decision has an agreeing trace\n")?;
                } else {
                    return Err(StcaError::invalid_input(format!(
                        "retention invariant VIOLATED: {} error decisions missing a trace \
                         (first: {:?}), {} disagreeing (first: {:?})",
                        cc.missing.len(),
                        cc.missing.first(),
                        cc.mismatched.len(),
                        cc.mismatched.first()
                    )));
                }
            }
            Ok(())
        }
        "check" => {
            if files.is_empty() {
                return Err(StcaError::usage(
                    "trace check needs at least one trace file",
                ));
            }
            for file in files {
                let dump = stca_trace::read_chrome_json(Path::new(file))?;
                let spans: usize = dump.traces.iter().map(|t| t.spans.len()).sum();
                print_stdout(&format!(
                    "{file}: ok — {} traces ({} error-class), {} spans, seed {:#x}, 1/{} sampling\n",
                    dump.traces.len(),
                    dump.traces.iter().filter(|t| t.is_error_class()).count(),
                    spans,
                    dump.seed,
                    dump.sample_every
                ))?;
            }
            Ok(())
        }
        _ => unreachable!("subcommand matched above"),
    }
}

fn real_main(argv: &[String]) -> Result<(), StcaError> {
    let Some(cmd) = argv.first() else {
        return Err(StcaError::usage("missing subcommand"));
    };
    if cmd == "trace" {
        return cmd_trace(&argv[1..]);
    }
    if cmd == "scenario" {
        return cmd_scenario(&argv[1..]);
    }
    let args = Args::parse(&argv[1..])?;
    match cmd.as_str() {
        "characterize" => cmd_characterize(&args),
        "profile" => cmd_profile(&args),
        "predict" => cmd_predict(&args),
        "explore" => cmd_explore(&args),
        "serve" => cmd_serve(&args),
        "help" | "--help" | "-h" => print_stdout(USAGE),
        other => Err(StcaError::usage(format!("unknown subcommand {other:?}"))),
    }
}

fn main() -> ExitCode {
    // malformed STCA_LOG / STCA_LOG_FORMAT is a usage error, not something
    // to silently swallow into "logging off"
    if let Err(e) = stca_obs::try_init_from_env() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = stca_exec::init_from_env_and_args()
        .map_err(StcaError::usage)
        .and_then(|()| real_main(&argv));
    stca_obs::emit_run_report();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.exit_code() == 2 {
                eprintln!("run 'stca help' for usage");
            }
            ExitCode::from(e.exit_code())
        }
    }
}
