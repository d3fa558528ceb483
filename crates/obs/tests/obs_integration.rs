//! Integration tests for the observability stack: concurrent metric
//! updates, quantile accuracy against exact references, log-filter
//! robustness, and JSON export round-tripping.

use stca_obs::json::Value;
use stca_obs::{LogConfig, Registry};

#[test]
fn counters_and_gauges_correct_under_concurrent_updates() {
    let registry = Registry::new();
    let tasks = 8u64;
    let per_task = 50_000u64;
    // run the updates through the stca-exec pool (forced to 8 workers so
    // the tasks genuinely race even on a single-core machine)
    stca_exec::set_threads(8);
    stca_exec::par_map_range(tasks as usize, |t| {
        let counter = registry.counter("conc.updates_total");
        let histogram = registry.histogram("conc.values");
        for i in 0..per_task {
            counter.inc();
            histogram.record((i % 100) as f64 + 1.0);
        }
        registry.gauge("conc.last_thread").set(t as f64);
    });
    assert_eq!(
        registry.counter("conc.updates_total").get(),
        tasks * per_task
    );
    let h = registry.histogram("conc.values");
    assert_eq!(h.count(), tasks * per_task);
    // exact sum: tasks * sum_{i=0..per_task-1} ((i % 100) + 1)
    let per_task_sum: f64 = (0..per_task).map(|i| (i % 100) as f64 + 1.0).sum();
    assert!((h.sum() - tasks as f64 * per_task_sum).abs() < 1e-6);
    assert_eq!(h.min(), 1.0);
    assert_eq!(h.max(), 100.0);
    let g = registry.gauge("conc.last_thread").get();
    assert!(
        g >= 0.0 && g < tasks as f64,
        "gauge holds one task's value, got {g}"
    );
}

#[test]
fn histogram_quantiles_against_exact_reference() {
    let registry = Registry::new();
    let h = registry.histogram("ref.values");
    // log-uniform-ish spread over 6 orders of magnitude
    let mut samples = Vec::new();
    for i in 0..10_000u64 {
        let v = 1e-6 * 1.002f64.powi(i as i32 % 5000) * (1 + i % 7) as f64;
        samples.push(v);
        h.record(v);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    // bucket growth factor 2^(1/4): worst-case relative error ~19%
    let tolerance = 0.20;
    for q in [0.5, 0.9, 0.95, 0.99] {
        let exact =
            samples[((q * samples.len() as f64).ceil() as usize - 1).min(samples.len() - 1)];
        let estimate = h.quantile(q);
        let rel = (estimate - exact).abs() / exact;
        assert!(
            rel <= tolerance,
            "q{q}: estimate {estimate} vs exact {exact} (rel {rel:.3})"
        );
    }
}

#[test]
fn log_filter_parsing_never_panics_on_fuzzed_input() {
    // deterministic xorshift so the fuzz corpus is reproducible
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let alphabet: Vec<char> =
        "abcdefghijklmnopqrstuvwxyz=,:;_-*?![]{}()0123456789 \t\n\\\"'\u{1F980}"
            .chars()
            .collect();
    for _ in 0..2000 {
        let len = (next() % 40) as usize;
        let spec: String = (0..len)
            .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
            .collect();
        match LogConfig::try_parse(&spec) {
            Ok(config) => {
                let _ = config.max_filter();
                let _ = config.filter_for("stca_queuesim::simulator");
                let _ = config.filter_for("");
            }
            Err(err) => {
                // the error names one of the spec's own directives
                assert!(
                    spec.split(',').any(|part| part.trim() == err.directive),
                    "spec {spec:?}: error names {:?}",
                    err.directive
                );
                assert!(err.to_string().contains(&format!("{:?}", err.directive)));
            }
        }
    }
}

#[test]
fn json_metrics_export_round_trips() {
    let registry = Registry::new();
    registry.counter("queuesim.events_total").add(123_456);
    registry.counter("core.explorer.candidates_total").add(25);
    registry.gauge("queuesim.server_utilization").set(0.8125);
    let h = registry.histogram("deepforest.cascade.level_fit_seconds");
    for i in 1..=200 {
        h.record(i as f64 * 1e-3);
    }
    let text = registry.to_json();
    let parsed = Value::parse(&text).expect("export must be valid JSON");

    // counters and gauges round-trip exactly
    assert_eq!(
        parsed
            .get("counters")
            .and_then(|c| c.get("queuesim.events_total"))
            .and_then(Value::as_f64),
        Some(123_456.0)
    );
    assert_eq!(
        parsed
            .get("gauges")
            .and_then(|g| g.get("queuesim.server_utilization"))
            .and_then(Value::as_f64),
        Some(0.8125)
    );
    // histogram summary fields present and consistent
    let hist = parsed
        .get("histograms")
        .and_then(|h| h.get("deepforest.cascade.level_fit_seconds"))
        .expect("histogram exported");
    assert_eq!(hist.get("count").and_then(Value::as_f64), Some(200.0));
    let p50 = hist.get("p50").and_then(Value::as_f64).expect("p50");
    let p99 = hist.get("p99").and_then(Value::as_f64).expect("p99");
    assert!(p50 <= p99, "quantiles ordered: p50 {p50} <= p99 {p99}");
    // serializing the parsed tree again is a fixed point
    assert_eq!(Value::parse(&parsed.to_string()).expect("reparse"), parsed);
}
