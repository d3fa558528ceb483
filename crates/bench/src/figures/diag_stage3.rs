//! Diagnostic: Stage-3 fidelity with oracle inputs.
//!
//! For sampled conditions, compares the executor's measured mean/p95
//! response against the queueing simulator fed with the *measured* EA and
//! base service time (oracle Stage 2). Small oracle error means remaining
//! Figure-6 error is a learning problem; large oracle error means the
//! Stage-3 abstraction itself deviates from the test environment.

use crate::table::{f2, Table};
use crate::Scale;
use stca_profiler::ea::boost_rate_from_ea;
use stca_queuesim::{QueueSim, StationConfig};
use stca_util::Rng64;
use stca_workloads::{BenchmarkId, RuntimeCondition, WorkloadSpec};

pub fn run(scale: Scale) {
    let pair = (BenchmarkId::Kmeans, BenchmarkId::Bfs);
    let mut rng = Rng64::new(0xD1A6);
    let mut t = Table::new(&[
        "util",
        "timeout",
        "bench",
        "EA",
        "base/es",
        "measured mean",
        "oracle mean",
        "err%",
        "measured p95",
        "oracle p95",
        "p95 err%",
    ]);
    let n = match scale {
        Scale::Quick => 4,
        _ => 10,
    };
    for i in 0..n {
        let cond = RuntimeCondition::random_pair(pair.0, pair.1, &mut rng);
        stca_obs::info!("diag_stage3 condition {}/{n}", i + 1);
        let spec = scale.experiment_spec(cond.clone(), 0xA0 + i);
        let out = stca_profiler::executor::TestEnvironment::new(spec).run();
        for (j, w) in out.workloads.iter().enumerate() {
            let bspec = WorkloadSpec::for_benchmark(w.benchmark);
            let es = bspec.mean_service_time;
            let wc = &cond.workloads[j];
            let boost_rate =
                boost_rate_from_ea(w.effective_allocation, w.policy.allocation_ratio().max(1.0));
            let sim = QueueSim::new(
                StationConfig {
                    inter_arrival: stca_util::Distribution::Exponential {
                        mean: es / (wc.utilization * 2.0),
                    },
                    service: bspec.demand.scaled(w.base_service_default),
                    expected_service: es,
                    timeout_ratio: wc.timeout_ratio,
                    boost_rate,
                    servers: 2,
                    measured_queries: 4000,
                    warmup_queries: 400,
                },
                0xBEEF + i,
            )
            .run();
            let measured = w.mean_response() / es;
            let oracle = sim.mean_response() / es;
            let measured_p95 = w.p95_response() / es;
            let oracle_p95 = sim.p95_response() / es;
            t.row(&[
                f2(wc.utilization),
                f2(wc.timeout_ratio),
                w.benchmark.short_name().into(),
                f2(w.effective_allocation),
                f2(w.base_service_default / es),
                f2(measured),
                f2(oracle),
                f2((oracle - measured).abs() / measured * 100.0),
                f2(measured_p95),
                f2(oracle_p95),
                f2((oracle_p95 - measured_p95).abs() / measured_p95 * 100.0),
            ]);
        }
    }
    t.print();
}
