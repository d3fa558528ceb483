//! The metric table: every metric's name, unit, direction and bound, and
//! the one-line JSON result the benchmark ends with.
//!
//! `BENCHMARK.json` at the repository root lists a subset of this table
//! (a test keeps the two in step): the end-to-end metrics every workload
//! reports, and every per-layer metric.

use stca_obs::json::Value;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which workloads report an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applies {
    /// Every workload.
    All,
    /// The three serving workloads.
    Serving,
    /// The offline chain.
    Offline,
}

/// An end-to-end metric and how much a change may worsen it.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening as a share of the base median.
    pub rel: f64,
    /// Allowed worsening in the metric's unit, when larger than `rel`'s.
    pub abs: f64,
    /// A simulated value that must repeat exactly: any worsening regresses.
    pub exact: bool,
    /// Which workloads report it.
    pub applies: Applies,
    /// Listed in `BENCHMARK.json` (reported by every workload, never 0).
    pub listed: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    rel: f64,
    abs: f64,
    applies: Applies,
    listed: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        rel,
        abs,
        exact: false,
        applies,
        listed,
    }
}

const fn exact(name: &'static str, unit: &'static str, applies: Applies) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        rel: 0.0,
        abs: 0.0,
        exact: true,
        applies,
        listed: false,
    }
}

use Applies::{All, Offline, Serving};
use Better::{Higher, Lower};

/// Allowed worsening of every measured (not simulated) metric. The
/// reference host's speed drifts by a tenth or more over tens of seconds,
/// so ten-run spreads of pass times reach 5-18%; the bound leaves that
/// room.
const BOUND: f64 = 0.25;

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", Lower, BOUND, 0.05, All, true),
    e2e("wall_s", "s", Lower, BOUND, 0.05, All, true),
    e2e("cpu_s", "s", Lower, BOUND, 0.05, All, false),
    e2e("peak_rss_mib", "MiB", Lower, BOUND, 0.0, All, false),
    e2e(
        "requests_per_s",
        "req/s",
        Higher,
        BOUND,
        0.0,
        Serving,
        false,
    ),
    e2e(
        "conditions_per_s",
        "cond/s",
        Higher,
        BOUND,
        0.0,
        Offline,
        false,
    ),
    e2e("train_s", "s", Lower, BOUND, 0.05, Offline, false),
    e2e("explore_s", "s", Lower, BOUND, 0.05, Offline, false),
    exact("fail_frac", "ratio", All),
    exact("ea_ape_median_pct", "%", Offline),
    exact("virtual_p50_s", "virtual_s", Serving),
    exact("virtual_p99_s", "virtual_s", Serving),
];

/// A per-layer metric (no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics, from one traced run.
pub const PER_LAYER: [PerLayer; 49] = [
    layer("core.predict_primary.calls", "count", Lower),
    layer("core.predict_primary.busy_s", "s", Lower),
    layer("core.predict_primary.p50_us", "us", Lower),
    layer("core.predict_primary.tail_us", "us", Lower),
    layer("core.predict_primary.fail_frac", "ratio", Lower),
    layer("core.predict_degraded.calls", "count", Lower),
    layer("core.predict_degraded.busy_s", "s", Lower),
    layer("core.train_s", "s", Lower),
    layer("core.explore_s", "s", Lower),
    layer("core.explore.cells", "count", Lower),
    layer("deepforest.mgs.transforms_per_request", "ratio", Lower),
    layer("deepforest.cascade.predicts_per_request", "ratio", Lower),
    layer("deepforest.mgs_transform_us", "us", Lower),
    layer("deepforest.cascade_predict_us", "us", Lower),
    layer("deepforest.forest_predict_ns", "ns", Lower),
    layer("deepforest.train.trees_fitted", "count", Lower),
    layer("profiler.profile_s", "s", Lower),
    layer("profiler.experiments", "count", Lower),
    layer("profiler.experiment_p50_s", "s", Lower),
    layer("profiler.experiment_max_s", "s", Lower),
    layer("profiler.retries", "count", Lower),
    layer("profiler.conditions_failed", "count", Lower),
    layer("cachesim.hier_access_ns.fit", "ns", Lower),
    layer("cachesim.hier_access_ns.spill", "ns", Lower),
    layer("cachesim.llc_access_ns.lru", "ns", Lower),
    layer("cachesim.llc_access_ns.plru", "ns", Lower),
    layer("cachesim.llc_access_ns.random", "ns", Lower),
    layer("cachesim.llc_miss_ratio.fit", "ratio", Lower),
    layer("cachesim.llc_miss_ratio.spill", "ratio", Lower),
    layer("queuesim.events_per_s", "1/s", Higher),
    layer("queuesim.runs", "count", Lower),
    layer("serve.loop_s", "s", Lower),
    layer("serve.self_us_per_request", "us", Lower),
    layer("serve.route_ns.rendezvous", "ns", Lower),
    layer("serve.route_ns.least_loaded", "ns", Lower),
    layer("serve.stream_chunk_ns_per_request", "ns", Lower),
    layer("serve.rerouted", "count", Lower),
    layer("serve.router_shed", "count", Lower),
    layer("serve.breaker_opens", "count", Lower),
    layer("serve.degraded", "count", Lower),
    layer("serve.adapt.retrains", "count", Lower),
    layer("serve.adapt.retrain_busy_s", "s", Lower),
    layer("serve.adapt.shadow_scored", "count", Lower),
    layer("serve.adapt.promotions", "count", Lower),
    layer("serve.adapt.rollbacks", "count", Lower),
    layer("exec.par_maps", "count", Lower),
    layer("exec.tasks_per_par_map", "ratio", Lower),
    layer("exec.pool_wall_s", "s", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
];

/// One measured metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Measured]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let entry = BTreeMap::from([
                    ("value".to_string(), Value::Number(m.value)),
                    ("unit".to_string(), Value::String(m.unit.to_string())),
                ]);
                (m.name.to_string(), Value::Object(entry))
            })
            .collect(),
    )
}

/// The result line every run ends with: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Measured]) -> Value {
    Value::Object(BTreeMap::from([
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Number(attempted as f64)),
        ("failed".to_string(), Value::Number(failed as f64)),
        ("metrics".to_string(), metrics_json(metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use std::path::Path;

    #[test]
    fn result_line_round_trips_through_obs_json() {
        let metrics = [
            Measured {
                name: "wall_s",
                value: 0.843_210_987_654_321,
                unit: "s",
            },
            Measured {
                name: "peak_rss_mib",
                value: 123.25,
                unit: "MiB",
            },
            Measured {
                name: "serve.rerouted",
                value: 1_234_567.0,
                unit: "count",
            },
        ];
        let line = result_line(true, 11_000_000, 0, &metrics);
        let text = line.to_string();
        assert!(!text.contains('\n'));
        let back = Value::parse(&text).expect("result line is JSON");
        assert_eq!(back, line);
        let keys: Vec<&String> = match &back {
            Value::Object(m) => m.keys().collect(),
            _ => panic!("result line is an object"),
        };
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let wall = back
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        assert_eq!(
            wall.map(f64::to_bits),
            Some(0.843_210_987_654_321f64.to_bits())
        );
    }

    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        match v.get(key) {
            Some(Value::Array(items)) => items,
            _ => panic!("BENCHMARK.json lacks array {key}"),
        }
    }

    fn string<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::String(s)) => s,
            _ => panic!("entry lacks string {key}"),
        }
    }

    #[test]
    fn benchmark_json_lists_this_table() {
        let bench = benchmark_json();
        let listed: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.listed).collect();
        let e2e = array(&bench, "end_to_end");
        assert_eq!(e2e.len(), listed.len());
        for (entry, m) in e2e.iter().zip(listed) {
            assert_eq!(string(entry, "name"), m.name);
            assert_eq!(string(entry, "unit"), m.unit);
            assert_eq!(string(entry, "better"), m.better.name());
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.rel));
            assert_eq!(
                m.applies,
                Applies::All,
                "{} must be reported by every workload",
                m.name
            );
        }
        let layers = array(&bench, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(string(entry, "name"), m.name);
            assert_eq!(string(entry, "unit"), m.unit);
            assert_eq!(string(entry, "better"), m.better.name());
        }
        let workloads = array(&bench, "workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(string(entry, "name"), w.name());
            assert_eq!(string(entry, "why"), w.why());
        }
        assert_eq!(
            bench.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.rel <= setup.rel));
        assert!(END_TO_END.iter().all(|m| m.rel <= 0.25));
    }
}
