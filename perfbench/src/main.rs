//! `perf` — the repository benchmark: end-to-end metrics per workload and
//! per-layer metrics from a traced run, over four workloads that stress
//! different layers (see README.md in this directory).
//!
//! ```text
//! perf [--workload NAME] [--seed S] [--seconds T] [--runs N] [--traced] [--quick]
//! perf --workload NAME --seed S --seconds T --trace 0|1
//! perf --compare BASE.json NEW.json
//! ```
//!
//! With one workload and one run, the run happens in this process and the
//! last stdout line is the result object (`correct`, `attempted`,
//! `failed`, `metrics`). Otherwise each (run, workload) runs in a fresh
//! child process, so peak RSS and allocator state stay per workload, and
//! the collected runs go to `target/perf/result.json`.

mod compare;
mod host;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use metrics::{Measured, END_TO_END, PER_LAYER};
use run::{RunOpts, RunResult};
use stca_obs::json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use workloads::{Workload, THREADS};

/// Seconds of timed passes per run (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 20;

const USAGE: &str = "usage:
  perf [--workload NAME] [--seed S] [--seconds T] [--runs N] [--traced] [--quick]
  perf --workload NAME --seed S --seconds T --trace 0|1
  perf --compare BASE.json NEW.json
workloads: offline-model serve-trained fleet-faults fleet-adapt";

/// Where the collected runs of a multi-run invocation go.
const RESULT_PATH: &str = "target/perf/result.json";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    runs: usize,
    traced: bool,
    quick: bool,
    compare: Option<(String, String)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: run::DIGEST_SEED,
        seconds: DEFAULT_SECONDS as f64,
        runs: 1,
        traced: false,
        quick: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &str| v.parse::<f64>().ok().filter(|x| x.is_finite() && *x > 0.0);
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?}: want an unsigned integer"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds =
                    number(v).ok_or_else(|| format!("--seconds {v:?}: want a positive number"))?;
            }
            "--runs" => {
                let v = value()?;
                cli.runs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--runs {v:?}: want a positive integer"))?;
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?}: want 0 or 1")),
                }
            }
            "--traced" => cli.traced = true,
            "--quick" => cli.quick = true,
            "--compare" => {
                let base = value()?.clone();
                let new = value()?.clone();
                cli.compare = Some((base, new));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match (&cli.compare, cli.workload) {
        (Some((base, new)), _) => match compare::compare(base, new) {
            Ok(regressed) => i32::from(regressed),
            Err(e) => {
                eprintln!("perf: {e}");
                2
            }
        },
        (None, Some(w)) if cli.runs == 1 => single(w, &cli),
        (None, _) => orchestrate(&cli),
    };
    std::process::exit(code);
}

/// Run one workload in this process; the last stdout line is the result.
fn single(w: Workload, cli: &Cli) -> i32 {
    let opts = RunOpts {
        workload: w,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        quick: cli.quick,
    };
    let r = match run::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf: {}: {e}", w.name());
            return 1;
        }
    };
    for m in r.e2e.iter().chain(&r.layers) {
        println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
    }
    for (name, d) in &r.digests {
        println!("{} digest {name} {d:016x}", w.name());
    }
    for e in &r.errors {
        eprintln!("perf: {}: check failed: {e}", w.name());
    }
    let detail = detail_json(&opts, &r);
    if detail.get("host").and_then(|h| h.get("noisy")) == Some(&Value::Bool(true)) {
        eprintln!("perf: {}: noisy run (load average above nproc)", w.name());
    }
    println!("detail {detail}");
    let reported: Vec<Measured> = if opts.traced {
        r.layers.clone()
    } else {
        let listed = |m: &&Measured| END_TO_END.iter().any(|d| d.listed && d.name == m.name);
        r.e2e.iter().filter(listed).copied().collect()
    };
    println!(
        "{}",
        metrics::result_line(r.correct, r.attempted, 0, &reported)
    );
    i32::from(!r.correct)
}

/// Everything a run measured, for `result.json`.
fn detail_json(opts: &RunOpts, r: &RunResult) -> Value {
    let num = Value::Number;
    let load = |l: Option<f64>| l.map_or(Value::Null, num);
    let nproc = host::nproc();
    let noisy = [r.load.0, r.load.1]
        .into_iter()
        .flatten()
        .any(|l| l > nproc as f64);
    let host = BTreeMap::from([
        ("nproc".to_string(), num(nproc as f64)),
        ("threads".to_string(), num(THREADS as f64)),
        (
            "git_rev".to_string(),
            Value::String(host::git_rev(Path::new("."))),
        ),
        ("loadavg_before".to_string(), load(r.load.0)),
        ("loadavg_after".to_string(), load(r.load.1)),
        ("noisy".to_string(), Value::Bool(noisy)),
    ]);
    let all: Vec<Measured> = r.e2e.iter().chain(&r.layers).copied().collect();
    let digests = r
        .digests
        .iter()
        .map(|(&k, v)| (k.to_string(), Value::String(format!("{v:016x}"))))
        .collect();
    Value::Object(BTreeMap::from([
        (
            "workload".to_string(),
            Value::String(opts.workload.name().to_string()),
        ),
        ("seed".to_string(), num(opts.seed as f64)),
        ("seconds".to_string(), num(opts.seconds)),
        ("traced".to_string(), Value::Bool(opts.traced)),
        ("quick".to_string(), Value::Bool(opts.quick)),
        ("correct".to_string(), Value::Bool(r.correct)),
        (
            "errors".to_string(),
            Value::Array(r.errors.iter().map(|e| Value::String(e.clone())).collect()),
        ),
        ("attempted".to_string(), num(r.attempted as f64)),
        ("setups".to_string(), num(r.setups as f64)),
        ("passes".to_string(), num(r.passes as f64)),
        ("digests".to_string(), Value::Object(digests)),
        ("metrics".to_string(), metrics::metrics_json(&all)),
        ("host".to_string(), Value::Object(host)),
    ]))
}

/// Run every selected (run, workload) in a fresh child process, print a
/// summary and write [`RESULT_PATH`].
fn orchestrate(cli: &Cli) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot locate own executable: {e}");
            return 1;
        }
    };
    let workloads: Vec<Workload> = cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut runs = Vec::new();
    let mut ok = true;
    for run in 1..=cli.runs {
        for &w in &workloads {
            println!("== run {run}/{} {}: {}", cli.runs, w.name(), w.why());
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if cli.traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if cli.quick {
                cmd.arg("--quick");
            }
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perf: cannot start {}: {e}", w.name());
                    ok = false;
                    continue;
                }
            };
            ok &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut detail = None;
            for line in stdout.lines() {
                match line.strip_prefix("detail ") {
                    Some(json) => detail = Value::parse(json).ok(),
                    None if !line.starts_with('{') => println!("{line}"),
                    None => {}
                }
            }
            match detail {
                Some(d) => runs.push(d),
                None => {
                    eprintln!("perf: {} run {run} reported no result", w.name());
                    ok = false;
                }
            }
        }
    }
    let summary = summarize(&runs);
    let root = Value::Object(BTreeMap::from([
        ("seed".to_string(), Value::Number(cli.seed as f64)),
        ("seconds".to_string(), Value::Number(cli.seconds)),
        ("traced".to_string(), Value::Bool(cli.traced)),
        ("quick".to_string(), Value::Bool(cli.quick)),
        ("runs".to_string(), Value::Array(runs)),
        ("summary".to_string(), summary),
    ]));
    if let Err(e) = run::write_json(Path::new(RESULT_PATH), &root) {
        eprintln!("perf: {e}");
        return 1;
    }
    println!("wrote {RESULT_PATH}");
    i32::from(!ok)
}

/// Per workload and metric: median, quartiles, min, max and run count,
/// printed as a table and returned as JSON.
fn summarize(runs: &[Value]) -> Value {
    let mut values: BTreeMap<(String, String), (Vec<f64>, String)> = BTreeMap::new();
    for run in runs {
        let (Some(Value::String(w)), Some(Value::Object(metrics))) =
            (run.get("workload"), run.get("metrics"))
        else {
            continue;
        };
        for (name, m) in metrics {
            let (Some(v), Some(Value::String(unit))) =
                (m.get("value").and_then(Value::as_f64), m.get("unit"))
            else {
                continue;
            };
            let entry = values
                .entry((w.clone(), name.clone()))
                .or_insert_with(|| (Vec::new(), unit.clone()));
            entry.0.push(v);
        }
    }
    println!(
        "\n{:<15} {:<40} {:>14} {:>14} {:>14} {:>3}  unit (better)",
        "workload", "metric", "median", "min", "max", "n"
    );
    let better = |name: &str| {
        let e2e = END_TO_END.iter().find(|m| m.name == name).map(|m| m.better);
        let layer = || PER_LAYER.iter().find(|m| m.name == name).map(|m| m.better);
        e2e.or_else(layer).map_or("", |b| b.name())
    };
    let mut out: BTreeMap<String, Value> = BTreeMap::new();
    for ((w, name), (vs, unit)) in &values {
        let median = stats::median(vs);
        let (q1, q3) = stats::quartiles(vs);
        let min = vs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{w:<15} {name:<40} {median:>14.6} {min:>14.6} {max:>14.6} {:>3}  {unit} ({})",
            vs.len(),
            better(name)
        );
        let entry = BTreeMap::from([
            ("median".to_string(), Value::Number(median)),
            ("q1".to_string(), Value::Number(q1)),
            ("q3".to_string(), Value::Number(q3)),
            ("min".to_string(), Value::Number(min)),
            ("max".to_string(), Value::Number(max)),
            ("n".to_string(), Value::Number(vs.len() as f64)),
            ("unit".to_string(), Value::String(unit.clone())),
        ]);
        if let Value::Object(by_metric) = out
            .entry(w.clone())
            .or_insert_with(|| Value::Object(BTreeMap::new()))
        {
            by_metric.insert(name.clone(), Value::Object(entry));
        }
    }
    Value::Object(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_invocation() {
        let c = cli(&[
            "--workload",
            "fleet-faults",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("driver flags parse");
        assert_eq!(c.workload, Some(Workload::FleetFaults));
        assert_eq!((c.seed, c.seconds, c.traced, c.runs), (7, 10.0, true, 1));
        let c = cli(&[]).expect("defaults");
        assert_eq!(
            (c.seed, c.seconds, c.traced),
            (2022, DEFAULT_SECONDS as f64, false)
        );
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--runs"]).is_err());
        let c = cli(&["--compare", "a.json", "b.json"]).expect("compare");
        assert_eq!(
            c.compare,
            Some(("a.json".to_string(), "b.json".to_string()))
        );
    }
}
