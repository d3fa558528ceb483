//! End-of-run reporting: `--metrics-out` JSON export and a human summary
//! table, shared by the `stca` CLI and the `figures` driver.

use crate::metrics::{Metric, Registry};
use std::path::{Path, PathBuf};

/// Scan an argv-style list for `--metrics-out <path>` (or
/// `--metrics-out=<path>`). Binaries call this so every figure
/// reproduction can emit a machine-readable performance report.
pub fn metrics_out_from_args<S: AsRef<str>>(args: &[S]) -> Option<PathBuf> {
    let mut iter = args.iter().map(|s| s.as_ref());
    while let Some(arg) = iter.next() {
        if arg == "--metrics-out" {
            return iter.next().map(PathBuf::from);
        }
        if let Some(path) = arg.strip_prefix("--metrics-out=") {
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// Write the registry's JSON report to `path`.
pub fn write_metrics(registry: &Registry, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, registry.to_json())
}

/// End-of-run hook for binaries: honors `--metrics-out <path>` from the
/// process arguments (writing the global registry as JSON) and prints the
/// summary table to stderr when a path was given or info logging reaches
/// this module (stdout stays reserved for result tables).
pub fn emit_run_report() {
    let args: Vec<String> = std::env::args().collect();
    let out = metrics_out_from_args(&args);
    if let (Some(path), Err(e)) = (&out, emit_run_report_to(out.as_deref())) {
        // the user explicitly asked for this file; the failure must be
        // visible even with logging off
        eprintln!(
            "error: failed to write metrics report to {}: {e}",
            path.display()
        );
    }
}

/// [`emit_run_report`] with the `--metrics-out` path already parsed:
/// returns the write error instead of printing it, so a binary can fail
/// on it.
pub fn emit_run_report_to(out: Option<&Path>) -> std::io::Result<()> {
    let registry = crate::metrics::registry();
    let written = match out {
        Some(path) => write_metrics(registry, path)
            .map(|()| crate::info!("wrote metrics report to {}", path.display())),
        None => Ok(()),
    };
    if out.is_some() || crate::logger::enabled(crate::Level::Info, module_path!()) {
        let table = summary_table(registry);
        if !table.is_empty() {
            eprintln!("\n== metrics summary ==\n{table}");
        }
    }
    written
}

/// Render a plain-text summary table of every registered metric —
/// counters and gauges with their value, histograms with count / mean /
/// p50 / p95 / p99. Empty registry renders an empty string.
pub fn summary_table(registry: &Registry) -> String {
    let snapshot = registry.snapshot();
    if snapshot.is_empty() {
        return String::new();
    }
    let mut rows: Vec<[String; 6]> = Vec::new();
    for (name, metric) in snapshot {
        match metric {
            Metric::Counter(c) => {
                rows.push([
                    name,
                    c.get().to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
            Metric::Gauge(g) => {
                rows.push([
                    name,
                    fmt_value(g.get()),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
            Metric::Histogram(h) => {
                let s = h.summary();
                rows.push([
                    name,
                    s.count.to_string(),
                    fmt_value(s.mean),
                    fmt_value(s.p50),
                    fmt_value(s.p95),
                    fmt_value(s.p99),
                ]);
            }
        }
    }
    let header = ["metric", "count/value", "mean", "p50", "p95", "p99"];
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let mut push_row = |cells: &[&str]| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i == 0 {
                out.push_str(&format!("{cell:<w$}"));
            } else {
                out.push_str(&format!("  {cell:>w$}"));
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    push_row(&header);
    for row in &rows {
        let cells: Vec<&str> = row.iter().map(|s| s.as_str()).collect();
        push_row(&cells);
    }
    out
}

/// Compact numeric rendering for the summary table: integers plain,
/// small values in engineering style.
fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v == v.trunc() && v.abs() < 1e9 {
        format!("{}", v as i64)
    } else if v.abs() >= 0.001 {
        format!("{v:.3}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn parses_metrics_out_flag() {
        let args = ["--scale", "quick", "--metrics-out", "m.json"];
        assert_eq!(metrics_out_from_args(&args), Some(PathBuf::from("m.json")));
        let args = ["--metrics-out=x/y.json"];
        assert_eq!(
            metrics_out_from_args(&args),
            Some(PathBuf::from("x/y.json"))
        );
        let args = ["--scale", "quick"];
        assert_eq!(metrics_out_from_args(&args), None);
        let args = ["--metrics-out"]; // dangling flag: ignored, no panic
        assert_eq!(metrics_out_from_args(&args), None);
    }

    #[test]
    fn summary_table_lists_all_kinds() {
        let r = Registry::new();
        r.counter("sim.events_total").add(42);
        r.gauge("sim.utilization").set(0.5);
        r.histogram("sim.run_seconds").record(0.125);
        let table = summary_table(&r);
        assert!(table.starts_with("metric"));
        assert!(table.contains("sim.events_total"));
        assert!(table.contains("42"));
        assert!(table.contains("sim.utilization"));
        assert!(table.contains("sim.run_seconds"));
        assert_eq!(summary_table(&Registry::new()), "");
    }

    #[test]
    fn written_report_is_valid_json() {
        let r = Registry::new();
        r.counter("a.b_total").add(3);
        r.histogram("a.c_seconds").record(1.5);
        let dir = std::env::temp_dir().join("stca_obs_report_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("metrics.json");
        write_metrics(&r, &path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        let v = Value::parse(&text).expect("valid JSON");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("a.b_total"))
                .and_then(Value::as_f64),
            Some(3.0)
        );
        assert_eq!(
            v.get("histograms")
                .and_then(|h| h.get("a.c_seconds"))
                .and_then(|h| h.get("count"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
