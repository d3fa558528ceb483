//! `perf --compare BASE.json NEW.json`: judge every end-to-end metric of
//! every workload against the bound the metric table fixes.
//!
//! A metric regresses when the new median is worse than the base median
//! by more than `max(rel x base, abs)`, and improves when it is better by
//! more. When either side's run-to-run spread (the distance between its
//! quartiles) is wider than that bound, the change cannot be told from
//! noise: the metric is unresolved, unless every new run beats every base
//! run. Simulated metrics (`exact`) must repeat exactly.
//!
//! A workload also regresses when a new run failed its checks, when its
//! new runs disagree on their outputs or their outputs differ from the
//! base's, and when a workload or metric of BASE is missing from NEW. A
//! BASE with a failed run or with runs that disagree on their outputs is
//! refused.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use stca_obs::json::Value;
use std::collections::{BTreeMap, BTreeSet};

/// The outcome for one metric or one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No difference beyond the bound.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// The spread is wider than the bound.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judge one metric from its base and new run values.
pub fn judge(m: &EndToEnd, base: &[f64], new: &[f64]) -> Verdict {
    let (b, n) = (median(base), median(new));
    // whether `x` is worse than `y`
    let worse = |x: f64, y: f64| match m.better {
        Better::Lower => x > y,
        Better::Higher => x < y,
    };
    if m.exact {
        return match (worse(n, b), worse(b, n)) {
            (true, _) => Verdict::Regressed,
            (_, true) => Verdict::Improved,
            _ => Verdict::Unchanged,
        };
    }
    let allowed = (m.rel * b.abs()).max(m.abs);
    let spread = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        q3 - q1
    };
    if spread(base).max(spread(new)) > allowed {
        let every_run_better = new.iter().all(|&x| base.iter().all(|&y| worse(y, x)));
        return if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = match m.better {
        Better::Lower => n - b,
        Better::Higher => b - n,
    };
    if worsening > allowed {
        Verdict::Regressed
    } else if -worsening > allowed {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The runs of one result file, grouped by workload.
#[derive(Default)]
struct Runs {
    /// Number of runs.
    count: BTreeMap<String, usize>,
    /// Runs that failed a check.
    failed: BTreeMap<String, usize>,
    /// Run values per metric.
    metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// The distinct output digests of the runs.
    digests: BTreeMap<String, BTreeSet<String>>,
}

impl Runs {
    fn from_json(root: &Value, path: &str) -> Result<Runs, String> {
        if root.get("quick") != Some(&Value::Bool(false)) {
            return Err(format!(
                "{path}: quick runs are smoke tests and are never compared"
            ));
        }
        let Some(Value::Array(runs)) = root.get("runs") else {
            return Err(format!("{path}: no \"runs\" array"));
        };
        let mut out = Runs::default();
        for run in runs {
            let Some(Value::String(w)) = run.get("workload") else {
                return Err(format!("{path}: a run lacks its workload"));
            };
            *out.count.entry(w.clone()).or_default() += 1;
            if run.get("correct") != Some(&Value::Bool(true)) {
                *out.failed.entry(w.clone()).or_default() += 1;
            }
            if let Some(Value::Object(metrics)) = run.get("metrics") {
                for (name, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Value::as_f64) {
                        let by_metric = out.metrics.entry(w.clone()).or_default();
                        by_metric.entry(name.clone()).or_default().push(v);
                    }
                }
            }
            let digests = run
                .get("digests")
                .map_or("none".to_string(), Value::to_string);
            out.digests.entry(w.clone()).or_default().insert(digests);
        }
        Ok(out)
    }
}

/// The verdict on one workload and what caused it.
struct Outcome {
    verdict: Verdict,
    why: Vec<String>,
}

impl Outcome {
    /// Keep the worst verdict and every reason given for it.
    fn note(&mut self, v: Verdict, why: String) {
        if v > self.verdict {
            *self = Outcome {
                verdict: v,
                why: vec![why],
            };
        } else if v == self.verdict && v != Verdict::Unchanged {
            self.why.push(why);
        }
    }
}

/// One printed line per (workload, metric) and the outcome per workload
/// that BASE has runs of.
type Judged = (Vec<String>, Vec<(&'static str, Outcome)>);

fn judge_files(
    base_path: &str,
    base: &Value,
    new_path: &str,
    new: &Value,
) -> Result<Judged, String> {
    for key in ["seed", "seconds", "traced"] {
        if base.get(key) != new.get(key) {
            return Err(format!("{key} differs between {base_path} and {new_path}"));
        }
    }
    let (base, new) = (
        Runs::from_json(base, base_path)?,
        Runs::from_json(new, new_path)?,
    );
    if let Some((w, n)) = base.failed.iter().next() {
        return Err(format!("{base_path}: {n} {w} run(s) failed their checks"));
    }
    if let Some((w, _)) = base.digests.iter().find(|(_, d)| d.len() > 1) {
        return Err(format!(
            "{base_path}: the {w} runs disagree on their outputs"
        ));
    }
    let (mut lines, mut rows) = (Vec::new(), Vec::new());
    let empty = BTreeMap::new();
    for w in Workload::ALL.map(Workload::name) {
        let Some(&base_runs) = base.count.get(w) else {
            continue;
        };
        let mut out = Outcome {
            verdict: Verdict::Unchanged,
            why: Vec::new(),
        };
        let Some(&new_runs) = new.count.get(w) else {
            out.note(Verdict::Regressed, format!("no runs in {new_path}"));
            rows.push((w, out));
            continue;
        };
        if let Some(n) = new.failed.get(w) {
            out.note(
                Verdict::Regressed,
                format!("{n} of {new_runs} runs failed their checks"),
            );
        }
        let (bm, nm) = (
            base.metrics.get(w).unwrap_or(&empty),
            new.metrics.get(w).unwrap_or(&empty),
        );
        for m in &END_TO_END {
            let Some(b) = bm.get(m.name) else {
                continue;
            };
            let Some(n) = nm.get(m.name) else {
                out.note(Verdict::Regressed, format!("{} missing", m.name));
                continue;
            };
            let v = judge(m, b, n);
            let (mb, mn) = (median(b), median(n));
            let change = if mb != 0.0 {
                format!("{:+.1}%", (mn - mb) / mb.abs() * 100.0)
            } else {
                "-".to_string()
            };
            lines.push(format!(
                "{w:<15} {:<22} {mb:>14.6} {mn:>14.6} {change:>9}  {} ({base_runs} vs {} runs)",
                m.name,
                v.name(),
                n.len()
            ));
            let bound = if m.exact {
                "exact".to_string()
            } else {
                format!("{:.0}%", m.rel * 100.0)
            };
            out.note(v, format!("{} {change} (bound {bound})", m.name));
        }
        let new_digests = new.digests.get(w).cloned().unwrap_or_default();
        if new_digests.len() > 1 {
            out.note(
                Verdict::Regressed,
                "new runs disagree on their outputs (digests)".to_string(),
            );
        } else if base.digests.get(w) != Some(&new_digests) {
            out.note(Verdict::Regressed, "outputs differ (digests)".to_string());
        }
        rows.push((w, out));
    }
    Ok((lines, rows))
}

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare two result files; `Ok(true)` when something regressed.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (lines, rows) = judge_files(base_path, &read(base_path)?, new_path, &read(new_path)?)?;
    println!(
        "{:<15} {:<22} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "base", "new", "change"
    );
    for line in lines {
        println!("{line}");
    }
    println!();
    let mut regressed = false;
    for (w, out) in rows {
        regressed |= out.verdict == Verdict::Regressed;
        println!("{w:<15} {:<11} {}", out.verdict.name(), out.why.join("; "));
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("metric in table")
    }

    #[test]
    fn bound_is_relative_with_an_absolute_floor() {
        let wall = metric("wall_s"); // 25%, 0.05 s
        assert_eq!(
            judge(wall, &[2.0, 2.0, 2.0], &[2.49, 2.49, 2.49]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(wall, &[2.0, 2.0, 2.0], &[2.51, 2.51, 2.51]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(wall, &[2.0, 2.0, 2.0], &[1.49, 1.49, 1.49]),
            Verdict::Improved
        );
        // below 0.2 s the 0.05 s floor is the larger allowance
        assert_eq!(
            judge(wall, &[0.1, 0.1, 0.1], &[0.149, 0.149, 0.149]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(wall, &[0.1, 0.1, 0.1], &[0.151, 0.151, 0.151]),
            Verdict::Regressed
        );
        let rss = metric("peak_rss_mib"); // 25%, no floor
        assert_eq!(judge(rss, &[0.1; 3], &[0.124; 3]), Verdict::Unchanged);
        assert_eq!(judge(rss, &[0.1; 3], &[0.126; 3]), Verdict::Regressed);
    }

    #[test]
    fn direction_follows_the_metric() {
        let rps = metric("requests_per_s"); // higher is better, 25%
        assert_eq!(judge(rps, &[1000.0; 3], &[740.0; 3]), Verdict::Regressed);
        assert_eq!(judge(rps, &[1000.0; 3], &[1260.0; 3]), Verdict::Improved);
        assert_eq!(judge(rps, &[1000.0; 3], &[1200.0; 3]), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let wall = metric("wall_s");
        let noisy = [1.0, 2.0, 3.0, 2.0, 1.2];
        assert_eq!(
            judge(wall, &noisy, &[2.3, 2.4, 2.5, 2.3, 2.4]),
            Verdict::Unresolved
        );
        // unless every new run beats every base run
        assert_eq!(
            judge(wall, &noisy, &[0.5, 0.6, 0.7, 0.5, 0.9]),
            Verdict::Improved
        );
    }

    #[test]
    fn exact_metrics_must_repeat_bit_for_bit() {
        let p99 = metric("virtual_p99_s");
        assert_eq!(judge(p99, &[0.4599], &[0.4599]), Verdict::Unchanged);
        assert_eq!(judge(p99, &[0.4599], &[0.45990001]), Verdict::Regressed);
        assert_eq!(judge(p99, &[0.4599], &[0.4598]), Verdict::Improved);
    }

    /// One run's record as `result.json` holds it.
    fn run(workload: &str, correct: bool, digest: &str, metrics: &[(&str, f64)]) -> Value {
        let text = format!(
            r#"{{"workload": "{workload}", "correct": {correct}, "digests": {{"pass": "{digest}"}}, "metrics": {{{}}}}}"#,
            metrics
                .iter()
                .map(|(name, v)| format!(r#""{name}": {{"value": {v}, "unit": "s"}}"#))
                .collect::<Vec<_>>()
                .join(", ")
        );
        Value::parse(&text).expect("run record parses")
    }

    fn result(runs: Vec<Value>) -> Value {
        Value::Object(BTreeMap::from([
            ("seed".to_string(), Value::Number(2022.0)),
            ("seconds".to_string(), Value::Number(20.0)),
            ("traced".to_string(), Value::Bool(false)),
            ("quick".to_string(), Value::Bool(false)),
            ("runs".to_string(), Value::Array(runs)),
        ]))
    }

    const TIMES: [(&str, f64); 2] = [("setup_s", 0.2), ("wall_s", 1.0)];

    fn ok_runs(workload: &str, n: usize) -> Vec<Value> {
        (0..n).map(|_| run(workload, true, "ab", &TIMES)).collect()
    }

    /// The workload rows of comparing `base` with `new`.
    fn rows(base: Vec<Value>, new: Vec<Value>) -> Vec<(&'static str, Verdict)> {
        let (_, rows) =
            judge_files("BASE", &result(base), "NEW", &result(new)).expect("comparable files");
        rows.into_iter().map(|(w, o)| (w, o.verdict)).collect()
    }

    #[test]
    fn run_counts_may_differ_when_the_outputs_agree() {
        assert_eq!(
            rows(ok_runs("fleet-faults", 5), ok_runs("fleet-faults", 10)),
            [("fleet-faults", Verdict::Unchanged)]
        );
    }

    #[test]
    fn changed_or_inconsistent_outputs_regress() {
        let mut new = ok_runs("fleet-faults", 9);
        new.push(run("fleet-faults", true, "cd", &TIMES));
        assert_eq!(
            rows(ok_runs("fleet-faults", 5), new),
            [("fleet-faults", Verdict::Regressed)]
        );
        let new = (0..5)
            .map(|_| run("fleet-faults", true, "cd", &TIMES))
            .collect();
        assert_eq!(
            rows(ok_runs("fleet-faults", 5), new),
            [("fleet-faults", Verdict::Regressed)]
        );
    }

    #[test]
    fn a_failed_new_run_regresses() {
        let mut new = ok_runs("serve-trained", 4);
        new.push(run("serve-trained", false, "ab", &TIMES));
        assert_eq!(
            rows(ok_runs("serve-trained", 5), new),
            [("serve-trained", Verdict::Regressed)]
        );
    }

    #[test]
    fn a_workload_or_metric_missing_from_new_regresses() {
        let mut base = ok_runs("offline-model", 5);
        base.extend(ok_runs("fleet-adapt", 5));
        let new = (0..5)
            .map(|_| run("fleet-adapt", true, "ab", &TIMES[..1]))
            .collect();
        assert_eq!(
            rows(base, new),
            [
                ("offline-model", Verdict::Regressed),
                ("fleet-adapt", Verdict::Regressed)
            ]
        );
    }

    #[test]
    fn a_base_with_failed_or_inconsistent_runs_is_refused() {
        let mut base = ok_runs("fleet-faults", 4);
        base.push(run("fleet-faults", false, "ab", &TIMES));
        let new = result(ok_runs("fleet-faults", 5));
        assert!(judge_files("BASE", &result(base), "NEW", &new).is_err());
        let mut base = ok_runs("fleet-faults", 4);
        base.push(run("fleet-faults", true, "cd", &TIMES));
        assert!(judge_files("BASE", &result(base), "NEW", &new).is_err());
    }
}
